#!/usr/bin/env bash
# benchmark/agree.sh [--reps N] [--seed S] [--quick]
# The agreement rule: two full sets of runs of the SAME build must agree on
# every end-to-end metric x workload within the metric's own bound. Runs
# both sets (workloads interleaved round-robin inside each), then compares
# them with --agree, which fails on a difference in either direction.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
reps=5
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --reps) reps="$2"; shift 2;;
    *) pass+=("$1"); shift;;
  esac
done
mkdir -p benchmark/out
bash benchmark/run.sh run --reps "$reps" --out benchmark/out/agree-A.json "${pass[@]}"
bash benchmark/run.sh run --reps "$reps" --out benchmark/out/agree-B.json "${pass[@]}"
bash benchmark/run.sh compare benchmark/out/agree-A.json benchmark/out/agree-B.json --agree
