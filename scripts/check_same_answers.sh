#!/usr/bin/env bash
# A change that claims "no byte and no answer moves" proves it against its
# parent: both trees' `pfe` ingest the same generated files — binary d=12,
# Q=4 d=8 with an AMS and a stable moment net, a sliding window, and the
# two ends of row repetition at Q=4 d=10 with an AMS net (20,000 rows of
# which none repeats; one row 20,000 times) — and the checkpoints must
# `cmp` equal; one fixed `pfe query --batch` file
# (all five ops, an in-net and a rounded `f0`, `exact`, a windowed
# request) must print the same lines from either tree, the change must
# read the parent's files to the same answers, and `pfe stats` must print
# the same line for every checkpoint. Last, one fixed session piped
# through `pfe serve` (a plain and then a windowed `start`, each followed
# by `ingest`, `f0`, `stats`, `window_stats`, `server_stats` and an error)
# must print the same replies. `metrics` stays out: its histograms time
# the run.
#
#   scripts/check_same_answers.sh PARENT_DIR    exit 1 naming the first
#                                               difference
#
# A PR that changes the format or an answer on purpose says so in
# CHANGES.md instead of passing this.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 PARENT_DIR" >&2; exit 2; }
parent_dir=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
source scripts/lib_gen.sh

# Each tree builds into its own target directory, whatever the caller's
# CARGO_TARGET_DIR says: one shared directory would hold one `pfe`.
build() { # dir
    cargo build --release -p pfe-cli --bin pfe \
        --manifest-path "$1/Cargo.toml" --target-dir "$1/target" >&2
    echo "$1/target/release/pfe"
}
parent=$(build "$parent_dir")
change=$(build "$PWD")

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

cat > "$tmpdir/batch.jsonl" <<'JSON'
{"op":"f0","cols":[0,1]}
{"op":"f0","cols":[0,1,2,3,4]}
{"op":"f0","cols":[0,1,2,3,4],"exact":true}
{"op":"f0","cols":[1,3,5],"window":5000}
{"op":"frequency","cols":[0,2],"pattern":[1,0]}
{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}
{"op":"l1_sample","cols":[0,1,2],"k":4,"seed":7}
{"op":"fp","cols":[0,1,2,3],"p":2.0}
{"op":"fp","cols":[0,1,2,3,4],"p":1.0}
JSON

# Answers and typed errors alike are compared; `pfe query` exits 1 when a
# line of the batch is an error (the windowed request on a whole-stream
# checkpoint), which is not this script's failure.
ask() { # pfe snapshot flags...
    local pfe=$1 snap=$2
    shift 2
    "$pfe" query "$snap" --batch "$tmpdir/batch.jsonl" "$@" || [ $? -eq 1 ]
}

# Engine flags are repeated at query time; `--window` is an ingest/serve
# flag (a ring checkpoint carries its own) and goes in INGEST_ONLY.
check() { # name file engine-flags...   [INGEST_ONLY="--window ..."]
    local name=$1 file=$2
    shift 2
    # shellcheck disable=SC2086  # INGEST_ONLY is a word list
    "$parent" ingest "$file" --out "$tmpdir/$name.parent" --quiet "$@" ${INGEST_ONLY:-} >/dev/null
    # shellcheck disable=SC2086
    "$change" ingest "$file" --out "$tmpdir/$name.change" --quiet "$@" ${INGEST_ONLY:-} >/dev/null
    cmp "$tmpdir/$name.parent" "$tmpdir/$name.change" \
        || { echo "FAIL: $name: parent and change write different checkpoints"; exit 1; }
    ask "$parent" "$tmpdir/$name.parent" "$@" > "$tmpdir/$name.parent.out"
    ask "$change" "$tmpdir/$name.change" "$@" > "$tmpdir/$name.change.out"
    diff "$tmpdir/$name.parent.out" "$tmpdir/$name.change.out" \
        || { echo "FAIL: $name: parent and change answer differently"; exit 1; }
    ask "$change" "$tmpdir/$name.parent" "$@" > "$tmpdir/$name.cross.out"
    diff "$tmpdir/$name.parent.out" "$tmpdir/$name.cross.out" \
        || { echo "FAIL: $name: change answers the parent's file differently"; exit 1; }
    grep -q '"ok":true' "$tmpdir/$name.change.out" \
        || { echo "FAIL: $name: no request of the batch was answered"; exit 1; }
    "$parent" stats "$tmpdir/$name.parent" "$@" > "$tmpdir/$name.parent.stats"
    "$change" stats "$tmpdir/$name.change" "$@" > "$tmpdir/$name.change.stats"
    diff "$tmpdir/$name.parent.stats" "$tmpdir/$name.change.stats" \
        || { echo "FAIL: $name: parent and change print different stats"; exit 1; }
    echo "   $name: same checkpoint bytes, same $(wc -l < "$tmpdir/$name.change.out") answers, same stats"
}

echo "== same bytes, same answers: $parent_dir vs $PWD"
gen 12 2 20000 > "$tmpdir/binary.csv"
check binary "$tmpdir/binary.csv" --fp 2.0,1.0
gen 8 4 6000 > "$tmpdir/q4.csv"
check q4 "$tmpdir/q4.csv" --q 4 --fp 2.0,1.0
INGEST_ONLY="--window 4096" check window "$tmpdir/binary.csv" --fp 2.0,1.0
gen_distinct 10 4 20000 > "$tmpdir/distinct.csv"
check distinct "$tmpdir/distinct.csv" --q 4 --fp 2.0
awk 'NR == 1; NR == 7778 { for (r = 0; r < 20000; r++) print }' "$tmpdir/distinct.csv" > "$tmpdir/repeated.csv"
check repeated "$tmpdir/repeated.csv" --q 4 --fp 2.0

rows='[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1],[0,0,1,1,0,1,0,1],[1,0,1,0,1,0,1,0],'
rows+='[0,1,0,0,1,0,1,1],[1,1,1,1,0,0,0,0],[0,0,0,1,1,1,0,1],[0,1,0,0,1,0,1,1]]'
cat > "$tmpdir/session.jsonl" <<JSON
{"op":"start","d":8,"q":2,"shards":2,"fp":{"orders":[2.0,1.5]}}
{"op":"ingest","rows":$rows}
{"op":"snapshot"}
{"op":"f0","cols":[0,1,2]}
{"op":"stats"}
{"op":"window_stats"}
{"op":"server_stats"}
{"op":"f0","cols":[9]}
{"op":"start","d":8,"q":2,"fp":{"orders":[2.0]},"window":{"bucket_rows":3,"tier_cap":2,"max_tiers":3}}
{"op":"ingest","rows":$rows}
{"op":"f0","cols":[0,1,2],"window":4}
{"op":"stats"}
{"op":"window_stats"}
{"op":"server_stats"}
{"op":"bogus"}
{"op":"quit"}
JSON
"$parent" serve < "$tmpdir/session.jsonl" > "$tmpdir/session.parent"
"$change" serve < "$tmpdir/session.jsonl" > "$tmpdir/session.change"
diff "$tmpdir/session.parent" "$tmpdir/session.change" \
    || { echo "FAIL: the pipe session replies differently"; exit 1; }
echo "   session: same $(wc -l < "$tmpdir/session.change") replies through pfe serve"
echo "OK"
