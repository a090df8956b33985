#!/usr/bin/env bash
# Code-size report: non-test, non-comment, non-blank lines of Rust under
# each crate's src/ — the measure simplicity PRs quote before/after.
# Per file: everything from the first `#[cfg(test)]` on is dropped, then
# `//` comment lines and blank lines.
#
#   scripts/loc_report.sh            one line per crate, plus a total
#   scripts/loc_report.sh --files    one line per file
#   scripts/loc_report.sh [--files] DIR   report on another checkout
#
# Informational: always exits 0 on a readable tree.
set -euo pipefail

per_file=0
if [ "${1:-}" = "--files" ]; then
    per_file=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

count() {
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

total=0
for src in crates/*/src; do
    [ -d "$src" ] || continue
    crate_total=0
    while IFS= read -r file; do
        n=$(count "$file")
        crate_total=$((crate_total + n))
        [ "$per_file" -eq 1 ] && printf '%7d  %s\n' "$n" "$file"
    done < <(find "$src" -name '*.rs' | sort)
    [ "$per_file" -eq 0 ] && printf '%7d  %s\n' "$crate_total" "$src"
    total=$((total + crate_total))
done
printf '%7d  total\n' "$total"
