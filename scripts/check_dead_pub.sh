#!/usr/bin/env bash
# Fails if a public function or constant has no caller outside its own file.
#
# Definitions: `pub fn`, `pub const fn` and `pub const NAME` in the non-test
# lines (scripts/non_test_lines.awk) of every `.rs` file under crates, src,
# tests and examples, outside the frozen benchmark package
# (crates/bench/src/bin/benchmark/).
#
# A caller is the name as a whole word on a non-test line that is not a `//`
# comment, in any *other* of those files. tests/ and examples/ count as
# callers. The defining file's own unit tests and doctests do not, and
# neither does the frozen package: what only the benchmark holds up is
# listed, not hidden.
#
# What only its own file calls belongs in `pub(crate)` or private, where
# rustc's dead_code lint guards it. An uncalled item stays public only when
# scripts/dead_pub_allow.txt lists it with a reason, one per line:
#   <path> <name> — <reason>
# ('#' starts a comment line.) The script exits 1, printing `file:line name`,
# for an uncalled item that is not listed, for a listed item that is gone or
# now has a caller (a stale entry), and for an entry without a reason.
#
# Blind spot: the rule goes by name, not by path. An item whose name is
# also used for something else in another file (a method of another type, a
# std method, a word in a string) counts as called. The apps'
# `with_probe_margin` / `probe_margin` are examples: location.rs and
# voting.rs each define both, so each file "calls" the other's.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/dead_pub_allow.txt
[ -f "$allow" ] || {
    echo "check_dead_pub: $allow is missing" >&2
    exit 1
}

# `file:line:text` of the non-test, non-comment lines.
find crates src tests examples -name '*.rs' -not -path 'crates/bench/src/bin/benchmark/*' \
    -not -path '*/target/*' | sort | while IFS= read -r file; do
    awk -v file="$file" -f scripts/non_test_lines.awk "$file"
done | grep -vE '^[^:]+:[0-9]+: *//' | awk -v allow="$allow" '
BEGIN {
    while ((getline entry < allow) > 0) {
        at++
        if (entry ~ /^[ \t]*(#|$)/) continue
        if (!match(entry, /^[^ \t]+[ \t]+[A-Za-z0-9_]+/)) {
            bare[++nbare] = allow ":" at " " entry
            continue
        }
        split(substr(entry, 1, RLENGTH), head, /[ \t]+/)
        reason = substr(entry, RLENGTH + 1)
        key = head[1] SUBSEP head[2]
        nentry++
        entry_key[nentry] = key
        entry_at[nentry] = allow ":" at " " head[2]
        listed[key] = 1
        if (!sub(/^[ \t]+—[ \t]+/, "", reason) || reason !~ /[^ \t]/) bare[++nbare] = entry_at[nentry]
    }
}
{
    split($0, part, ":")
    file = part[1]
    text = substr($0, length(file) + length(part[2]) + 3)
    if (match(text, /^ *pub ((const|async|unsafe) )*fn [A-Za-z0-9_]+/) ||
        match(text, /^ *pub const [A-Za-z0-9_]+ *:/)) {
        name = substr(text, 1, RLENGTH)
        sub(/ *:$/, "", name)
        sub(/.* /, "", name)
        ndef++
        def_file[ndef] = file
        def_line[ndef] = part[2]
        def_name[ndef] = name
    }
    gsub(/[^A-Za-z0-9_]+/, " ", text)
    nword = split(text, word, " ")
    for (i = 1; i <= nword; i++) {
        if (!((word[i], file) in seen)) {
            seen[word[i], file] = 1
            files_naming[word[i]]++
        }
    }
}
END {
    err = "/dev/stderr"
    fail = 0
    for (i = 1; i <= ndef; i++) {
        if (files_naming[def_name[i]] > 1) continue
        key = def_file[i] SUBSEP def_name[i]
        uncalled[key] = 1
        if (key in listed) {
            kept++
            continue
        }
        if (!nfound++) print "check_dead_pub: no caller outside its own file, and not in " allow ":" > err
        print def_file[i] ":" def_line[i] " " def_name[i] > err
        fail = 1
    }
    for (i = 1; i <= nentry; i++) {
        if (entry_key[i] in uncalled) continue
        if (!nstale++) print "check_dead_pub: stale entries (the item is gone or now has a caller):" > err
        print entry_at[i] > err
        fail = 1
    }
    if (nbare) {
        print "check_dead_pub: entries without a `<path> <name> — <reason>` reason:" > err
        for (i = 1; i <= nbare; i++) print bare[i] > err
        fail = 1
    }
    if (!fail) {
        printf "check_dead_pub: %d pub fns and consts; every one has a caller in another file", ndef
        printf " or is one of the %d kept in %s\n", kept, allow
    }
    exit fail
}'
