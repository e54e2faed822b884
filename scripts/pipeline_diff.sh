#!/usr/bin/env bash
# Byte-identity check of the end-to-end workflow: runs scripts/full_pipeline.sh
# from git revision REV and from the working tree, each at 1 and 2 workers,
# and compares the four output trees and stdout logs with diff -r.
#
# REV is unpacked with git archive into a temporary directory. Every run writes
# to the same output path, because challenge_summary.json holds absolute paths,
# and its tree is then moved aside. Exits 0 only if all four are identical.
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

run "$TMP/rev" 1 rev-w1
run "$TMP/rev" 2 rev-w2
run "$ROOT" 1 tree-w1
run "$ROOT" 2 tree-w2

status=0
for name in rev-w2 tree-w1 tree-w2; do
  if diff -r "$TMP/rev-w1" "$TMP/$name" && diff "$TMP/rev-w1.log" "$TMP/$name.log"; then
    echo "$name: identical to rev-w1"
  else
    echo "$name: differs from rev-w1"
    status=1
  fi
done
exit "$status"
