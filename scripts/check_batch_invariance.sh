#!/usr/bin/env bash
# Answers must not depend on how ingest cuts the stream into shard
# batches: the mask-major sweep feeds a batch's repeated patterns once
# with their multiplicity, and that must be invisible in the bytes.
# A shard also sweeps every batch already queued when it wakes as one run,
# so the sweep's unit depends on timing too; only byte invariance makes
# that safe. Ingest each generated file at --batch-rows 1, 512 and 4096
# and `cmp` the checkpoints — binary rows, Q=4 rows with an AMS (p=2,
# takes the multiplicity) and a stable (p=1, fed row by row) moment net,
# both ends of repetition: Q=4 rows that never repeat, and one row
# repeated 20,000 times among them — and wide binary rows (d=24 at
# alpha 0.35), whose 21- to 24-column members take each run's keys in
# row order, as blocks that full sketches merge, not through a
# histogram.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pfe-cli --bin pfe
pfe="${CARGO_TARGET_DIR:-target}/release/pfe"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

source scripts/lib_gen.sh

check() { # name file flags...
    local name=$1 file=$2
    shift 2
    for b in 1 512 4096; do
        "$pfe" ingest "$file" --out "$tmpdir/$name-$b.pfes" --quiet --batch-rows "$b" "$@" >/dev/null
    done
    for b in 512 4096; do
        cmp "$tmpdir/$name-1.pfes" "$tmpdir/$name-$b.pfes" \
            || { echo "FAIL: $name checkpoint differs between --batch-rows 1 and $b"; exit 1; }
    done
    echo "   $name: --batch-rows 1 / 512 / 4096 write identical checkpoints"
}

echo "== batch-size invariance"
gen 12 2 20000 > "$tmpdir/binary.csv"
check binary "$tmpdir/binary.csv"
gen 8 4 6000 > "$tmpdir/q4.csv"
check q4 "$tmpdir/q4.csv" --q 4 --fp 2.0,1.0
gen_distinct 10 4 20000 > "$tmpdir/distinct.csv"
check distinct "$tmpdir/distinct.csv" --q 4 --fp 2.0
# As check_same_answers.sh builds it: one row of that file (line 7,778)
# repeated 20,000 times.
awk 'NR == 1; NR == 7778 { for (r = 0; r < 20000; r++) print }' "$tmpdir/distinct.csv" > "$tmpdir/repeated.csv"
check repeated "$tmpdir/repeated.csv" --q 4 --fp 2.0
gen 24 2 20000 > "$tmpdir/wide.csv"
check wide "$tmpdir/wide.csv" --alpha 0.35
echo "OK"
