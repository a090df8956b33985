#!/usr/bin/env bash
# Every checkpoint's trailer is zlib's CRC-32 (CRC-32/ISO-HDLC) of every
# byte before it, and its header's length field is the payload's length.
# Ingest a generated binary file and a Q=4 file with an AMS moment net,
# with the repo benchmark's engine flags, and check each checkpoint with
# python3's `zlib.crc32` — a reference that shares no code with
# `pfe-persist`'s checksum kernel.
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
    shift 4
    "$pfe" ingest "$tmpdir/$name.csv" --out "$tmpdir/$name.pfes" --quiet "${engine[@]}" "$@" >/dev/null
    python3 - "$tmpdir/$name.pfes" "$name" <<'PY'
import struct, sys, zlib
path, name = sys.argv[1], sys.argv[2]
data = open(path, "rb").read()
header, trailer = 16, 4
if len(data) < header + trailer or data[:4] != b"PFES":
    sys.exit(f"FAIL: {name}: not a framed checkpoint ({len(data)} bytes)")
(payload_len,) = struct.unpack_from("<Q", data, 8)
if payload_len != len(data) - header - trailer:
    sys.exit(f"FAIL: {name}: header says {payload_len} payload bytes, file holds {len(data) - header - trailer}")
(stored,) = struct.unpack_from("<I", data, len(data) - trailer)
computed = zlib.crc32(data[:-trailer])
if stored != computed:
    sys.exit(f"FAIL: {name}: trailer {stored:#010x}, zlib.crc32 {computed:#010x}")
print(f"   {name}: {len(data)} bytes, length field and CRC-32 {stored:#010x} agree with zlib")
PY
}

echo "== checkpoint trailers against zlib.crc32"
check binary 12 2 20000
check q4 10 4 20000 --q 4 --fp 2.0
echo "OK"
