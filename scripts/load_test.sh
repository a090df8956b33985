#!/usr/bin/env bash
# Multi-process connection-scale load harness: a release `pfe serve`
# writer (shipping snapshots), a read replica watching them, and the
# `load_gen` generator holding a crowd of idle connections while active
# clients run live traffic. Sweeps the crowd size and merges per-point
# latency percentiles + replication lag into the day's BENCH_<date>.json
# under a "load_test" key.
#
# Usage:
#   scripts/load_test.sh                       # crowd sizes 100 1000 10000
#   LOAD_TEST_CONNS="100 1000" scripts/load_test.sh
#   LOAD_TEST_OUT=out.json scripts/load_test.sh
#
# Server and generator are separate processes, so each 10k-connection
# point costs 10k descriptors per process (not 20k in one): that is what
# lets the sweep reach 10k under a 20k RLIMIT_NOFILE. This script is the
# only connection-scale measurement the repo keeps.
# On a 1-core box the absolute latencies compress — the server, the
# crowd, and the clients all share the core; the signal is that p50/p99
# stay flat as the idle crowd grows 100x.
set -euo pipefail
cd "$(dirname "$0")/.."

CONNS="${LOAD_TEST_CONNS:-100 1000 10000}"
ROWS="${LOAD_TEST_ROWS:-20000}"
REQUESTS="${LOAD_TEST_REQUESTS:-2000}"
DATE="$(date -u +%Y-%m-%d)"
OUT="${LOAD_TEST_OUT:-BENCH_${DATE}.json}"

# One descriptor per held connection: raise the soft fd limit to the
# hard one so the 10k point has headroom in both processes.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

maxc=0
for c in $CONNS; do [ "$c" -gt "$maxc" ] && maxc=$c; done

echo "== build (release)"
cargo build --release -p pfe-cli -p pfe-bench 1>&2
pfe=target/release/pfe
gen=target/release/load_gen

tmpdir=$(mktemp -d)
writer_pid=""; replica_pid=""
cleanup() {
    [ -n "$writer_pid" ] && kill "$writer_pid" 2>/dev/null || true
    [ -n "$replica_pid" ] && kill "$replica_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

wait_addr() { # logfile -> prints addr
    local addr=""
    for _ in $(seq 1 100); do
        addr=$(grep -o 'listening on [0-9.:]*' "$1" 2>/dev/null | awk '{print $3}' || true)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "FAIL: server never reported its address" >&2; cat "$1" >&2; exit 1; }
    echo "$addr"
}

echo "== writer (ships snapshots) + replica"
shipdir="$tmpdir/ship"
mkdir -p "$shipdir"
"$pfe" serve --listen 127.0.0.1:0 --workers 2 --queue $((maxc + 64)) \
    --ship "$shipdir" --ship-ms 500 2>"$tmpdir/writer.err" &
writer_pid=$!
addr=$(wait_addr "$tmpdir/writer.err")
"$pfe" serve --listen 127.0.0.1:0 --workers 2 --queue 64 \
    --replica-of "$shipdir" --replica-poll-ms 200 2>"$tmpdir/replica.err" &
replica_pid=$!
raddr=$(wait_addr "$tmpdir/replica.err")
echo "   writer at $addr, replica at $raddr"

echo "== feed $ROWS rows"
"$gen" "$addr" --feed "$ROWS" >/dev/null

echo "== wait for replica catch-up"
caught=""
for _ in $(seq 1 100); do
    stats=$("$pfe" replica "$raddr" 2>/dev/null || true)
    if echo "$stats" | grep -q '"epoch":[0-9]'; then caught=1; break; fi
    sleep 0.2
done
[ -n "$caught" ] || { echo "FAIL: replica never applied a snapshot"; cat "$tmpdir/replica.err"; exit 1; }

echo "== sweep: crowd sizes [$CONNS], $REQUESTS live requests each"
points="$tmpdir/points.jsonl"
: >"$points"
for c in $CONNS; do
    out=$("$gen" "$addr" --conns "$c" --requests "$REQUESTS" --replica "$raddr")
    echo "   $out"
    echo "$out" >>"$points"
    echo "$out" | grep -q '"failures":0,' \
        || { echo "FAIL: live requests failed at crowd size $c"; exit 1; }
    # The server must actually be holding the crowd while traffic flows.
    reported=$(echo "$out" | sed -E 's/.*"open_reported":([0-9]+).*/\1/')
    [ "$reported" -ge "$c" ] \
        || { echo "FAIL: server reports $reported open connections, expected >= $c"; exit 1; }
    sleep 1 # let the closed crowd drain before the next point
done

echo "== merge into $OUT"
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
# The program arrives on stdin (the heredoc), so the points file has to be
# an argument: a second stdin redirection would be silently overridden.
python3 - "$OUT" "$DATE" "$CORES" "$points" <<'PY'
import json, sys
path, date, cores, points_path = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
with open(points_path) as f:
    points = [json.loads(line) for line in f if line.strip()]
if not points:
    sys.exit("FAIL: no sweep points to merge")
try:
    with open(path) as f:
        doc = json.load(f)
except (FileNotFoundError, ValueError):
    doc = {"date": date, "cores": cores, "benchmarks": {}}
doc["load_test"] = points
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"OK: {len(points)} sweep points merged into {path}")
PY
