#!/usr/bin/env bash
# Byte-identity check of the end-to-end workflow: runs scripts/full_pipeline.sh
# from git revision REV and from the working tree, each at 1 and 2 workers,
# and compares the four output trees and stdout logs with diff -r. It also
# compares two synth trees from each: one of 1100-pixel slides, which span
# several 512-row chunks, which the pipeline's 512-pixel slides never do, and
# one of four 2048-pixel slides, the benchmark's slide size, where a change of
# geometry can show that smaller slides hide. On REV's 1100-pixel tree it also
# compares the Otsu-filtered tile manifests of REV and of the working tree at 1
# and 2 workers, with a stride below the tile size, since the pipeline tiles only
# with the Gray200 filter.
#
# REV is unpacked with git archive into a temporary directory. Every run writes
# to the same output path, because the summaries hold absolute paths, and its
# tree is then moved aside. Exits 0 only if every pair is identical.
#
# Usage: scripts/pipeline_diff.sh REV [SEED]
set -euo pipefail

REV="${1:?usage: scripts/pipeline_diff.sh REV [SEED]}"
SEED="${2:-11}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/rev"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/rev"

run() {  # run CHECKOUT WORKERS NAME: the checkout's own pipeline on its own package
  rm -rf "$TMP/out"
  PYTHONPATH="$1/src${PYTHONPATH:+:$PYTHONPATH}" \
    bash "$1/scripts/full_pipeline.sh" "$TMP/out" "$SEED" "$2" > "$TMP/$3.log"
  mv "$TMP/out" "$TMP/$3"
}

synth() {  # synth CHECKOUT NAME FLAGS...: a synth tree from the checkout's own package
  rm -rf "$TMP/out"
  PYTHONPATH="$1/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m slidebench synth \
    --out "$TMP/out" --seed "$SEED" "${@:3}" > "$TMP/$2.log"
  mv "$TMP/out" "$TMP/$2"
}

tile() {  # tile CHECKOUT WORKERS NAME: Otsu-filtered, overlapping tiles of REV's 1100-px tree
  local tree="$TMP/rev-synth"
  PYTHONPATH="$1/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m slidebench tile \
    --slide "$tree/slides/slide_000/manifest.json" --gt "$tree/truth/slide_000.pgm" \
    --size 256 --stride 192 --tissue-filter otsu --workers "$2" --out "$TMP/tiles.jsonl" \
    > "$TMP/$3.log"
  mv "$TMP/tiles.jsonl" "$TMP/$3.jsonl"
}

run "$TMP/rev" 1 rev-w1
run "$TMP/rev" 2 rev-w2
run "$ROOT" 1 tree-w1
run "$ROOT" 2 tree-w2
MULTI_CHUNK=(--slides 2 --size 1100 --levels 3 --include-background)
BENCH_SIZE=(--slides 4 --size 2048 --levels 2)
synth "$TMP/rev" rev-synth "${MULTI_CHUNK[@]}"
synth "$ROOT" tree-synth "${MULTI_CHUNK[@]}"
synth "$TMP/rev" rev-synth2048 "${BENCH_SIZE[@]}"
synth "$ROOT" tree-synth2048 "${BENCH_SIZE[@]}"
tile "$TMP/rev" 1 rev-tile-w1
tile "$TMP/rev" 2 rev-tile-w2
tile "$ROOT" 1 tree-tile-w1
tile "$ROOT" 2 tree-tile-w2

status=0
for name in rev-w2 tree-w1 tree-w2; do
  if diff -r "$TMP/rev-w1" "$TMP/$name" && diff "$TMP/rev-w1.log" "$TMP/$name.log"; then
    echo "$name: identical to rev-w1"
  else
    echo "$name: differs from rev-w1"
    status=1
  fi
done
for name in synth synth2048; do
  if diff -r "$TMP/rev-$name" "$TMP/tree-$name" && diff "$TMP/rev-$name.log" "$TMP/tree-$name.log"
  then
    echo "tree-$name: identical to rev-$name"
  else
    echo "tree-$name: differs from rev-$name"
    status=1
  fi
done
for name in rev-tile-w2 tree-tile-w1 tree-tile-w2; do
  if cmp "$TMP/rev-tile-w1.jsonl" "$TMP/$name.jsonl" && diff "$TMP/rev-tile-w1.log" "$TMP/$name.log"
  then
    echo "$name: identical to rev-tile-w1"
  else
    echo "$name: differs from rev-tile-w1"
    status=1
  fi
done
exit "$status"
