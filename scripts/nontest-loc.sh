#!/usr/bin/env bash
# Non-test Rust line count: for every `.rs` file under crates/, src/,
# shims/ and examples/, count the lines before the file's first
# `#[cfg(test)]`, leaving out blank lines and `//` comment lines (doc
# comments included). Prints the total; `--per-file` prints one
# `<count> <path>` line per file before it.
#
#   scripts/nontest-loc.sh             # total only
#   scripts/nontest-loc.sh --per-file  # per-file counts, then the total
set -euo pipefail
cd "$(dirname "$0")/.."
per_file=0
[ "${1:-}" = "--per-file" ] && per_file=1
find crates src shims examples -name '*.rs' -not -path '*/target/*' | sort |
    while read -r f; do
        awk -v f="$f" '
            /#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*$/ { next }
            /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0, f }' "$f"
    done |
    awk -v per_file="$per_file" '
        per_file { print }
        { total += $1 }
        END { print total }'
