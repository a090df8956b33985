#!/usr/bin/env bash
# Smoke-run the docs/GUIDE.md quickstart: build the `pfe` binary and the
# client example, run two scripted pipe-mode sessions through `pfe serve`,
# then a real TCP server + client round trip ending in a wire shutdown
# with a durable checkpoint. Fails if any response is an error or the
# checkpoint is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'kill ${server_pid:-} ${writer_pid:-} ${replica_pid:-} 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

echo "== build (guide §1)"
cargo build --release -p pfe-cli
cargo build --release --example client
pfe=target/release/pfe

echo "== pipe-mode sessions (guide §5)"
# Whole-stream: moment nets on, one of each statistic, a batch, stats.
out=$("$pfe" serve 2>/dev/null <<'SESSION'
{"op":"start","d":6,"q":2,"shards":2,"fp":{"orders":[2.0,1.5]}}
{"op":"ingest","rows":[[0,1,0,1,0,1],[1,1,0,0,1,0],[0,0,1,1,0,1],[1,0,1,0,1,1],[0,1,1,0,0,0],[1,1,1,1,0,1],[0,0,0,1,1,0],[1,0,0,1,0,0]]}
{"op":"ingest","rows":[[0,1,0,1,0,1],[1,1,0,0,1,0],[1,1,1,0,0,1],[0,1,0,0,1,1]]}
{"op":"snapshot"}
{"op":"f0","cols":[0,1,2,3]}
{"op":"frequency","cols":[0,1],"pattern":[1,1]}
{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}
{"op":"l1_sample","cols":[0,1,2],"k":4,"seed":7}
{"op":"fp","cols":[0,1,2,3],"p":2.0}
{"op":"batch","queries":[{"op":"f0","cols":[0,1,2]},{"op":"f0","cols":[0,1,2,3]}]}
{"op":"stats"}
{"op":"quit"}
SESSION
)
echo "$out" | grep -q '"bye":true' || { echo "FAIL: pipe session did not finish"; exit 1; }
echo "$out" | grep -q '"ok":false' && { echo "FAIL: pipe session had an error response: $out"; exit 1; }
echo "$out" | grep -q '"rows_ingested":12' || { echo "FAIL: pipe session stats wrong: $out"; exit 1; }
# Windowed: 4-row buckets, 14 rows => 3 sealed buckets + 2 active rows.
# Read after write: the same windowed f0 before and after the second
# ingest must be served from two different covering sets (new epoch, more
# rows), each one merged-snapshot miss.
out=$("$pfe" serve 2>/dev/null <<'SESSION'
{"op":"start","d":6,"q":2,"window":{"bucket_rows":4,"tier_cap":4,"max_tiers":3}}
{"op":"ingest","rows":[[0,1,0,1,0,1],[1,1,0,0,1,0],[0,0,1,1,0,1],[1,0,1,0,1,1],[0,1,1,0,0,0],[1,1,1,1,0,1],[0,0,0,1,1,0]]}
{"op":"f0","cols":[0,1,2,3],"window":100}
{"op":"ingest","rows":[[1,0,0,1,0,0],[0,1,0,1,0,1],[1,1,0,0,1,0],[1,1,1,0,0,1],[0,1,0,0,1,1],[0,0,1,0,1,0],[1,0,1,1,1,0]]}
{"op":"f0","cols":[0,1,2,3],"window":100}
{"op":"window_stats"}
{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05,"window":6}
{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}
{"op":"batch","queries":[{"op":"f0","cols":[0,1],"window":6},{"op":"f0","cols":[0,1],"window":7}]}
{"op":"quit"}
SESSION
)
echo "$out" | grep -q '"bye":true' || { echo "FAIL: windowed session did not finish"; exit 1; }
echo "$out" | grep -q '"ok":false' && { echo "FAIL: windowed session had an error response: $out"; exit 1; }
first=$(echo "$out" | sed -n 3p)
second=$(echo "$out" | sed -n 5p)
stats=$(echo "$out" | sed -n 6p)
for read in "$first" "$second"; do
    echo "$read" | grep -q '"ok":true' || { echo "FAIL: windowed read failed: $read"; exit 1; }
done
field() { echo "$1" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2; }
[ "$(field "$first" epoch)" != "$(field "$second" epoch)" ] \
    || { echo "FAIL: read after write kept its epoch: $first / $second"; exit 1; }
[ "$(field "$second" covered_rows)" -gt "$(field "$first" covered_rows)" ] \
    || { echo "FAIL: read after write covered no new rows: $first / $second"; exit 1; }
echo "$stats" | grep -q '"sealed_buckets":3' || { echo "FAIL: windowed session sealed no buckets: $stats"; exit 1; }
echo "$stats" | grep -q '"merged_cache_misses":2' \
    || { echo "FAIL: the two windowed reads were not two covering merges: $stats"; exit 1; }
# A write sweeps the active bucket's F0 net over rows new to the bucket
# only: the same 8 rows (6 distinct) written twice into one 64-row bucket
# feed it 6 rows, as `window_f0_rows_swept` counts.
rows='[[0,1,0,1,0,1],[1,1,0,0,1,0],[0,0,1,1,0,1],[0,1,0,1,0,1],[1,0,1,0,1,1],[0,1,1,0,0,0],[1,1,1,1,0,1],[0,1,1,0,0,0]]'
out=$("$pfe" serve 2>/dev/null <<SESSION
{"op":"start","d":6,"q":2,"window":{"bucket_rows":64}}
{"op":"ingest","rows":$rows}
{"op":"metrics"}
{"op":"ingest","rows":$rows}
{"op":"metrics"}
{"op":"quit"}
SESSION
)
echo "$out" | grep -q '"ok":false' && { echo "FAIL: repeated-ingest session had an error response: $out"; exit 1; }
for line in 3 5; do
    echo "$out" | sed -n ${line}p | grep -q '"window_f0_rows_swept":6[,}]' \
        || { echo "FAIL: window_f0_rows_swept is not the 6 distinct rows of one ingest: $(echo "$out" | sed -n ${line}p)"; exit 1; }
done

echo "== TCP server + client round trip (guide §5)"
ckpt="$tmpdir/smoke.pfes"
"$pfe" serve \
    --listen 127.0.0.1:0 --workers 2 --queue 4 --checkpoint "$ckpt" \
    --metrics 127.0.0.1:0 --slow-ms 50 \
    2>"$tmpdir/serve.err" &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(grep -o 'listening on [0-9.:]*' "$tmpdir/serve.err" 2>/dev/null | awk '{print $3}' || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: server never reported its address"; cat "$tmpdir/serve.err"; exit 1; }
maddr=$(grep -o 'metrics on [0-9.:]*' "$tmpdir/serve.err" | awk '{print $3}')
[ -n "$maddr" ] || { echo "FAIL: server never reported its metrics address"; cat "$tmpdir/serve.err"; exit 1; }
echo "   server at $addr, metrics at $maddr"

out=$(cargo run --release --example client -- "$addr" --demo 2>/dev/null)
echo "$out" | grep -q '"bye":true' || { echo "FAIL: client demo did not finish"; exit 1; }
echo "$out" | grep -q '"ok":false' && { echo "FAIL: client demo had an error response"; exit 1; }
echo "$out" | grep -q '"estimate"' || { echo "FAIL: no statistic answer in client demo"; exit 1; }
# The demo includes F_p moment queries over the live TCP server; any
# error reply would have tripped the ok:false check above.
echo "$out" | grep -q '"op":"fp"' || { echo "FAIL: demo sent no fp query"; exit 1; }

echo "== Prometheus scrape endpoint (guide §7)"
# Scrape with bash's /dev/tcp so the check needs no curl/netcat.
mhost=${maddr%:*}; mport=${maddr##*:}
scrape="$tmpdir/metrics.txt"
exec 3<>"/dev/tcp/$mhost/$mport"
printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\n\r\n' "$maddr" >&3
cat <&3 >"$scrape"
exec 3<&- 3>&-
grep -q '^HTTP/1.1 200 OK' "$scrape" || { echo "FAIL: metrics endpoint did not answer 200"; exit 1; }
grep -q 'text/plain; version=0.0.4' "$scrape" || { echo "FAIL: wrong exposition content type"; exit 1; }
# Strip the HTTP head, then validate the exposition-format line grammar:
# every line is "# TYPE name kind", or "name[{labels}] value".
body="$tmpdir/metrics.body"
sed '1,/^\r*$/d' "$scrape" | tr -d '\r' >"$body"
grep -q '# TYPE pfe_server_requests_handled_total counter' "$body" \
    || { echo "FAIL: expected server counter missing from scrape"; exit 1; }
grep -q '# TYPE pfe_server_op_latency_ns_server_stats histogram' "$body" \
    || { echo "FAIL: expected latency histogram missing from scrape"; exit 1; }
bad=$(grep -vE '^$|^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$' "$body" || true)
[ -z "$bad" ] || { echo "FAIL: lines violate the exposition grammar:"; echo "$bad"; exit 1; }
lines=$(grep -c '^pfe_' "$body")
echo "   scrape OK ($lines metric lines, grammar clean)"

echo "== request tracing (guide §7)"
host=${addr%:*}; port=${addr##*:}
tid="00000000000000000000000000abc123"
# A traced query over the live TCP socket: the client-supplied id must
# come back on the answer.
exec 4<>"/dev/tcp/$host/$port"
# Columns the earlier demo queries never touched, so the traced
# request misses the answer cache and records a full compute stage.
printf '{"op":"f0","cols":[7,8,9],"trace":"%s"}\n' "$tid" >&4
IFS= read -r reply <&4
exec 4<&- 4>&-
echo "$reply" | grep -q '"ok":true' || { echo "FAIL: traced query failed: $reply"; exit 1; }
echo "$reply" | grep -q "\"trace_id\":\"$tid\"" \
    || { echo "FAIL: traced query did not echo the client trace id: $reply"; exit 1; }
# Fetch the span tree back over the trace op (via the pfe CLI client).
out=$("$pfe" trace "$addr" --id "$tid")
echo "$out" | grep -q "\"trace_id\":\"$tid\"" || { echo "FAIL: trace op did not return the trace: $out"; exit 1; }
for span in session dispatch plan compute; do
    echo "$out" | grep -q "\"name\":\"$span\"" \
        || { echo "FAIL: span '$span' missing from fetched trace: $out"; exit 1; }
done
# Chrome trace-event export: must be valid JSON (python3 -m json.tool)
# with complete-event markers, ready for chrome://tracing / Perfetto.
chrome="$tmpdir/trace.json"
out=$("$pfe" trace "$addr" --last 16 --chrome "$chrome")
echo "$out" | grep -q '"ok":true' || { echo "FAIL: chrome export failed: $out"; exit 1; }
python3 -m json.tool "$chrome" >/dev/null || { echo "FAIL: chrome export is not valid JSON"; exit 1; }
grep -q '"ph":"X"' "$chrome" || { echo "FAIL: chrome export has no complete events"; exit 1; }
grep -q '"cat":"pfe"' "$chrome" || { echo "FAIL: chrome export missing the pfe category"; exit 1; }
echo "   tracing OK (echo, span tree, chrome export valid)"

echo "== wire shutdown + durable checkpoint (guide §5)"
out=$(cargo run --release --example client -- "$addr" --shutdown 2>/dev/null)
echo "$out" | grep -q '"shutdown":true' || { echo "FAIL: shutdown not acknowledged"; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$server_pid" 2>/dev/null && { echo "FAIL: server still running after shutdown"; exit 1; }
wait "$server_pid" 2>/dev/null || true
[ -s "$ckpt" ] || { echo "FAIL: shutdown checkpoint missing or empty"; exit 1; }

echo "== pfe bulk-data CLI (guide §8)"
csv="$tmpdir/rows.csv"
# Deterministic 12-column binary CSV (awk LCG, header + 500 rows).
awk 'BEGIN {
    d = 12
    h = "c0"; for (i = 1; i < d; i++) h = h ",c" i
    print h
    s = 12345
    for (r = 0; r < 500; r++) {
        line = ""
        for (i = 0; i < d; i++) {
            s = (s * 1103515245 + 12345) % 2147483648
            line = line (i ? "," : "") (int(s / 65536) % 2)
        }
        print line
    }
}' > "$csv"

snap="$tmpdir/rows.pfes"
out=$("$pfe" ingest "$csv" --out "$snap" --quiet)
echo "$out" | grep -q '"ok":true' || { echo "FAIL: pfe ingest did not report ok"; exit 1; }
echo "$out" | grep -q '"rows":500' || { echo "FAIL: pfe ingest row count wrong: $out"; exit 1; }
[ -s "$snap" ] || { echo "FAIL: pfe ingest wrote no checkpoint"; exit 1; }

out=$("$pfe" query "$snap" --op f0 --cols 0,1,2)
echo "$out" | grep -q '"ok":true' || { echo "FAIL: pfe query failed: $out"; exit 1; }
echo "$out" | grep -q '"estimate"' || { echo "FAIL: pfe query returned no estimate"; exit 1; }

out=$("$pfe" stats "$snap")
echo "$out" | grep -q '"snapshot_rows":500' || { echo "FAIL: pfe stats rows wrong: $out"; exit 1; }
echo "   pfe ingest/query/stats OK"

echo "== replication: writer -> replica -> query (guide §9)"
wait_addr() { # logfile -> prints "listening on" address
    local a=""
    for _ in $(seq 1 100); do
        a=$(grep -o 'listening on [0-9.:]*' "$1" 2>/dev/null | awk '{print $3}' || true)
        [ -n "$a" ] && break
        sleep 0.1
    done
    [ -n "$a" ] || { echo "FAIL: server never reported its address" >&2; cat "$1" >&2; exit 1; }
    echo "$a"
}
ask() { # addr request -> prints one reply line
    local host=${1%:*} port=${1##*:} reply
    exec 6<>"/dev/tcp/$host/$port"
    printf '%s\n' "$2" >&6
    IFS= read -r reply <&6
    exec 6<&- 6>&-
    echo "$reply"
}
shipdir="$tmpdir/ship"
mkdir -p "$shipdir"
"$pfe" serve --listen 127.0.0.1:0 --workers 2 --queue 8 \
    --ship "$shipdir" --ship-ms 200 2>"$tmpdir/writer.err" &
writer_pid=$!
waddr=$(wait_addr "$tmpdir/writer.err")
"$pfe" serve --listen 127.0.0.1:0 --workers 2 --queue 8 \
    --replica-of "$shipdir" --replica-poll-ms 100 2>"$tmpdir/replica.err" &
replica_pid=$!
raddr=$(wait_addr "$tmpdir/replica.err")
echo "   writer at $waddr, replica at $raddr"
out=$(ask "$waddr" '{"op":"start","d":6,"q":2}')
echo "$out" | grep -q '"ok":true' || { echo "FAIL: writer start failed: $out"; exit 1; }
out=$(ask "$waddr" '{"op":"ingest","rows":[[0,1,0,1,0,1],[1,1,0,0,1,0],[0,0,1,1,0,1],[1,0,1,0,1,1],[0,1,1,0,0,0],[1,1,1,1,0,1],[0,0,0,1,1,0],[1,0,0,1,0,0]]}')
echo "$out" | grep -q '"ok":true' || { echo "FAIL: writer ingest failed: $out"; exit 1; }
# The shipper checkpoints on its own clock; the replica applies on its
# own poll. Wait for the replica to report an applied epoch...
applied=""
for _ in $(seq 1 100); do
    stats=$("$pfe" replica "$raddr" 2>/dev/null || true)
    if echo "$stats" | grep -q '"epoch":[0-9]'; then applied=1; break; fi
    sleep 0.2
done
[ -n "$applied" ] || { echo "FAIL: replica never applied a snapshot"; cat "$tmpdir/replica.err"; exit 1; }
echo "$stats" | grep -q '"replica":true' || { echo "FAIL: replica_stats missing role: $stats"; exit 1; }
# ...then the same query must answer byte-identically on both ends
# (same epoch, same snapshot — retried briefly in case a ship is
# mid-flight between the two asks).
req='{"op":"f0","cols":[0,1,2]}'
match=""
for _ in $(seq 1 50); do
    w=$(ask "$waddr" "$req")
    r=$(ask "$raddr" "$req")
    [ "$w" = "$r" ] && { match=1; break; }
    sleep 0.2
done
[ -n "$match" ] || { echo "FAIL: replica answer diverges: writer=$w replica=$r"; exit 1; }
echo "$w" | grep -q '"ok":true' || { echo "FAIL: replicated query failed: $w"; exit 1; }
# Writes against the replica are the typed read-only rejection.
out=$(ask "$raddr" '{"op":"ingest","rows":[[0,0,0,0,0,0]]}')
echo "$out" | grep -q '"code":"read_only"' || { echo "FAIL: replica accepted a write: $out"; exit 1; }
kill "$writer_pid" "$replica_pid" 2>/dev/null || true
wait "$writer_pid" "$replica_pid" 2>/dev/null || true
echo "   replication OK (writer -> snapshot dir -> replica, byte-identical answer)"

echo "OK: guide quickstart runs end to end (checkpoint: $(wc -c <"$ckpt") bytes)"
