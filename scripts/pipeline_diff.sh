#!/usr/bin/env bash
# Byte-identity check of slidebench's outputs: runs each case below from git
# revision REV (unpacked with git archive) and from the working tree, each at 1
# and 2 workers, and diffs every run's output tree and stdout against REV's
# 1-worker run. Every run writes into the same empty $OUT, because the summaries
# hold absolute paths. A run that exits non-zero counts as a difference. Exits 0
# only if every run is identical.
#
# Usage: scripts/pipeline_diff.sh REV [SEED]
set -euo pipefail

REV="${1:?usage: scripts/pipeline_diff.sh REV [SEED]}"
SEED="${2:-11}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
OUT="$TMP/out"
RUN="python3 -m slidebench"

mkdir "$TMP/rev" && git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/rev"

# The cases: each CASE CHECKOUT WORKERS writes into $OUT with the checkout's package. The
# tissue, tiles and vote cases read $TREE, the checkout's own 1-worker synth1100 tree, so a
# change of manifest or sidecar format shows in the synth1100 case, not as a failed read.
pipeline() {  # the documented end-to-end chain
  bash "$1/scripts/full_pipeline.sh" "$OUT" "$SEED" "$2"
}
synth1100() {  # slides spanning several 512-row chunks, which the pipeline's never do
  $RUN synth --out "$OUT" --seed "$SEED" --workers "$2" --slides 2 --size 1100 --levels 3 \
    --include-background
}
synth2048() {  # the benchmark's slide size, where a change of geometry can show
  $RUN synth --out "$OUT" --seed "$SEED" --workers "$2" --slides 4 --size 2048 --levels 2
}
tissue() {  # both methods above level 0; the pipeline runs only Otsu, at level 0
  local level
  for level in 0 2; do
    $RUN tissue --slide "$TREE/slides/slide_000/manifest.json" --level "$level" --method otsu \
      --out "$OUT/otsu$level.pgm"
    $RUN tissue --slide "$TREE/slides/slide_000/manifest.json" --level "$level" --method gray200 \
      --out "$OUT/gray200_$level.pgm"
  done
}
tiles() {  # the Otsu filter and a stride below the tile size, which the pipeline never uses
  $RUN tile --slide "$TREE/slides/slide_000/manifest.json" --gt "$TREE/truth/slide_000.pgm" \
    --size 256 --stride 192 --tissue-filter otsu --workers "$2" --out "$OUT/tiles.jsonl"
}
coteach() {  # the noisy-label benchmark, which has no worker count
  $RUN coteach --out "$OUT" --seeds 3
}
flags() {  # slides without lesions, whose flagged scores go through write_report and read_report
  local team
  $RUN synth --out "$OUT/c" --seed "$SEED" --workers "$2" --slides 3 --size 256 --levels 1 \
    --lesions 0 1 --radius 8 20
  mkdir "$OUT/reports"
  for team in exact flip2 flip5; do
    $RUN eval --truth "$OUT/c/truth" --pred "$OUT/c/predictions/$team" --team "$team" \
      --subtypes "$OUT/c/subtypes.csv" --workers "$2" --out "$OUT/reports/$team.json"
  done
  $RUN leaderboard --reports "$OUT/reports" --format text
  $RUN compare --reports "$OUT/reports" \
    --groups "exact=MultiModel,flip2=SingleModel,flip5=SingleModel" --out "$OUT/comparison.json"
}
vote() {  # the majority vote of the three teams' predictions
  $RUN ensemble --mode vote --out "$OUT/vote.pgm" \
    --inputs "$TREE"/predictions/{exact,flip2,flip5}/slide_000.pgm
}

run() {  # run CASE RUN: CASE at RUN's checkout and workers; its tree and stdout to $TMP/CASE.RUN
  local checkout="$ROOT" code=0
  [[ $2 == tree-* ]] || checkout="$TMP/rev"
  TREE="$TMP/synth1100.${2%-w*}-w1"
  rm -rf "$OUT" && mkdir "$OUT"
  PYTHONPATH="$checkout/src${PYTHONPATH:+:$PYTHONPATH}" "$1" "$checkout" "${2#*-w}" \
    > "$TMP/stdout" || code=$?
  mv "$TMP/stdout" "$OUT/stdout" && mv "$OUT" "$TMP/$1.$2"
  (( code == 0 )) || echo "$1 $2: failed (exit $code)"
  return "$code"
}

status=0
for name in pipeline synth1100 synth2048 tissue tiles coteach vote flags; do
  for run in rev-w1 rev-w2 tree-w1 tree-w2; do
    run "$name" "$run" || { status=1; continue; }
    [[ $run == rev-w1 ]] && continue
    if diff -r "$TMP/$name.rev-w1" "$TMP/$name.$run"; then
      echo "$name $run: identical to rev-w1"
    else
      echo "$name $run: differs from rev-w1"
      status=1
    fi
  done
done
exit "$status"
