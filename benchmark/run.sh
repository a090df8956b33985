#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the program under test
# (`pfe`, from the repository's own workspace) and the harness (this
# directory's own package), then hands every argument to the harness.
# Run from the repository root:
#   bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh run --reps 5        # all workloads, result file
#   bash benchmark/run.sh trace               # per-layer metrics + span file
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# One target directory for both builds, so `pfe`, `benchmark` and
# `layers` land side by side.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: stdout belongs to the result.
cargo build --release --quiet --offline -p pfe-cli --bin pfe >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml --bin benchmark >&2
# `layers` is the only target that calls crate APIs; if a refactor broke
# it, the end-to-end run must still work, so its failure is fatal only to
# the traced run (which then reports that `layers` is not built).
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml --bin layers >&2 \
  || echo "benchmark/run.sh: the layers binary does not build; traced runs will fail" >&2

exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
