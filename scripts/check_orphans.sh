#!/usr/bin/env bash
# Orphan check: every name declared `pub fn|struct|enum|trait|const|type`
# under crates/*/src must be used somewhere. A name is an orphan when it
# occurs in no other .rs file of crates/ src/ tests/ examples/
# benchmark/src AND nowhere in its own file's non-test, non-comment code
# besides its declaration(s). With sixteen library crates everything
# shared is `pub`, so rustc's dead-code lint never sees these; this grep
# does. No allowlist: delete the item, or drop its `pub` if its own
# file's tests are the only caller and let the compiler judge it.
#
#   scripts/check_orphans.sh [DIR]     exit 1 and list `file: name` if any
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

orphans=$(find crates src tests examples benchmark/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_test = 0; own = FILENAME ~ /^crates\/[^\/]+\/src\// }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    {
        code = !in_test && $0 !~ /^[[:space:]]*\/\//
        if (own && code && match($0, /^[[:space:]]*pub (const |unsafe )*(fn|struct|enum|trait|const|type) +[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.* /, "", name)
            decl[name, FILENAME]++
        }
        rest = $0
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if (!((word, FILENAME) in seen)) { seen[word, FILENAME]; files[word]++ }
            if (code) uses[word, FILENAME]++
        }
    }
    END {
        for (key in decl) {
            split(key, part, SUBSEP)
            if (files[part[1]] == 1 && uses[key] <= decl[key]) print part[2] ": " part[1]
        }
    }' | sort)

if [ -n "$orphans" ]; then
    echo "$orphans"
    echo "check_orphans: $(echo "$orphans" | wc -l) public name(s) nothing uses" >&2
    exit 1
fi
echo "check_orphans: OK"
