#!/usr/bin/env bash
# The parser reads a regular line (one-digit fields, LF) eight bytes at
# a time and every other line byte by byte; both must leave the same
# rows. Ingest each generated file as written (every line regular) and
# respelled CRLF (no line regular), with the repo benchmark's engine
# flags, and `cmp` the two checkpoints: binary rows through the packed
# path, Q=4 rows with an AMS moment net through the dense one.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pfe-cli --bin pfe
pfe="${CARGO_TARGET_DIR:-target}/release/pfe"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

source scripts/lib_gen.sh

engine=(--shards 2 --alpha 0.25 --kmv-k 256 --sample-t 4096 --cache 1024)

check() { # name d q rows flags...
    local name=$1
    gen "$2" "$3" "$4" > "$tmpdir/$name.csv"
    sed 's/$/\r/' "$tmpdir/$name.csv" > "$tmpdir/$name-crlf.csv"
    shift 4
    for file in "$name" "$name-crlf"; do
        "$pfe" ingest "$tmpdir/$file.csv" --out "$tmpdir/$file.pfes" --quiet "${engine[@]}" "$@" >/dev/null
    done
    cmp "$tmpdir/$name.pfes" "$tmpdir/$name-crlf.pfes" \
        || { echo "FAIL: $name checkpoint differs between the LF and the CRLF file"; exit 1; }
    echo "   $name: LF and CRLF spellings write identical checkpoints"
}

echo "== both parse paths"
check binary 12 2 20000
check q4 10 4 20000 --q 4 --fp 2.0
echo "OK"
