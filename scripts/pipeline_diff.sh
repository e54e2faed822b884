#!/usr/bin/env bash
# Byte-identity check of the end-to-end workflow: runs scripts/full_pipeline.sh
# from git revision REV and from the working tree, each at 1 and 2 workers,
# and compares the four output trees and stdout logs with diff -r. It also
# compares one synth tree of 1100-pixel slides from each, whose slides span
# several 512-row chunks, which the pipeline's 512-pixel slides never do.
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

synth() {  # synth CHECKOUT NAME: multi-chunk slides from the checkout's own package
  rm -rf "$TMP/out"
  PYTHONPATH="$1/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m slidebench synth \
    --out "$TMP/out" --slides 2 --size 1100 --levels 3 --include-background \
    --seed "$SEED" > "$TMP/$2.log"
  mv "$TMP/out" "$TMP/$2"
}

run "$TMP/rev" 1 rev-w1
run "$TMP/rev" 2 rev-w2
run "$ROOT" 1 tree-w1
run "$ROOT" 2 tree-w2
synth "$TMP/rev" rev-synth
synth "$ROOT" tree-synth

status=0
for name in rev-w2 tree-w1 tree-w2; do
  if diff -r "$TMP/rev-w1" "$TMP/$name" && diff "$TMP/rev-w1.log" "$TMP/$name.log"; then
    echo "$name: identical to rev-w1"
  else
    echo "$name: differs from rev-w1"
    status=1
  fi
done
if diff -r "$TMP/rev-synth" "$TMP/tree-synth" && diff "$TMP/rev-synth.log" "$TMP/tree-synth.log"; then
  echo "tree-synth: identical to rev-synth"
else
  echo "tree-synth: differs from rev-synth"
  status=1
fi
exit "$status"
