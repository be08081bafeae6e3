#!/usr/bin/env bash
# Counts lines the way the simplicity PRs report them (PR 21's rule).
#
#   scripts/loc.sh <path>...
#
# For each `*.rs` file named, or found under a directory named, prints
#   <code> <all> <file>
# where `code` is the non-blank lines that do not start with `//` (so doc
# comments are not code) up to the file's first `#[cfg(test)]`, and `all`
# is lines of every kind, tests included. Ends with a `total` line.
set -euo pipefail

[ "$#" -gt 0 ] || {
    echo "usage: scripts/loc.sh <file-or-directory>..." >&2
    exit 2
}

find "$@" -type f -name '*.rs' | sort | while IFS= read -r file; do
    awk -v file="$file" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { code++ }
        END { printf "%d %d %s\n", code, NR, file }
    ' "$file"
done | awk '
    { code += $1; all += $2; print }
    END { printf "%d %d total\n", code, all }
'
