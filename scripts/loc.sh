#!/usr/bin/env bash
# Library line counts per crate: every `crates/*/src/**/*.rs` file up to
# its first `#[cfg(test)]` line, so in-file unit tests are left out.
# Prints two counts per crate: every line, and code lines (neither blank
# nor a `//` comment, doc comments included).
#
# Usage: scripts/loc.sh [REV]
#   Without REV it counts the working tree; with REV (any git revision)
#   it counts that commit's tree, read through `git show`.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$' || true)
    read_file() { git show "$rev:$1"; }
else
    files=$(find crates/*/src -name '*.rs' | sort)
    read_file() { cat "$1"; }
fi

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         { all++ }
         !/^[[:space:]]*($|\/\/)/ { code++ }
         END { print all + 0, code + 0 }'
}

for f in $files; do
    crate=${f#crates/}
    crate=${crate%%/*}
    echo "$crate $(read_file "$f" | count)"
done | awk '{ all[$1] += $2; code[$1] += $3 } END { for (c in all) print c, all[c], code[c] }' |
    sort | awk 'BEGIN { printf "%-12s %8s %8s\n", "crate", "lines", "code" }
                { printf "%-12s %8d %8d\n", $1, $2, $3; ta += $2; tc += $3 }
                END { printf "%-12s %8d %8d\n", "total", ta, tc }'
