#!/usr/bin/env bash
# Counts lines the way the simplicity PRs report them (PR 21's rule).
#
#   scripts/loc.sh <path>...
#
# For each `*.rs` file named, or found under a directory named, prints
#   <code> <all> <file>
# where `code` is the non-blank lines that do not start with `//` (so doc
# comments are not code) outside the file's test-only items — its
# `#[cfg(test)] mod … { … }` blocks and `#[cfg(test)]` free functions, at
# any indentation: the same stripping the grep gates use,
# scripts/non_test_lines.awk — and `all` is lines of every kind, tests
# included. Ends with a `total` line.
set -euo pipefail

[ "$#" -gt 0 ] || {
    echo "usage: scripts/loc.sh <file-or-directory>..." >&2
    exit 2
}
strip=$(dirname "$0")/non_test_lines.awk

find "$@" -type f -name '*.rs' | sort | while IFS= read -r file; do
    all=$(awk 'END { print NR }' "$file")
    awk -v file="$file" -f "$strip" "$file" | awk -v file="$file" -v all="$all" '
        # Drop the `file:line:` prefix the stripper adds.
        { text = substr($0, length(file) + 2); sub(/^[0-9]+:/, "", text) }
        text !~ /^[[:space:]]*$/ && text !~ /^[[:space:]]*\/\// { code++ }
        END { printf "%d %d %s\n", code, all, file }
    '
done | awk '
    { code += $1; all += $2; print }
    END { printf "%d %d total\n", code, all }
'
