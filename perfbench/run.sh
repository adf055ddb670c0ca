#!/usr/bin/env bash
# Builds the layer benchmark, the bench harness and the mlc CLI from
# source, then runs the benchmark with the given arguments, from the
# repository root:
#
#   bash perfbench/run.sh --workload affine-sim --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh sweep --out runs.jsonl --seeds 1,2,3
#   bash perfbench/run.sh compare old.jsonl new.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./perfbench/main.exe ./bench/main.exe ./bin/mlc.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
