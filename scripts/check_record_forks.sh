#!/usr/bin/env bash
# Fails if the plain/signed record fork reappears as code.
#
# The libraries take the record kind once, as a type (`R: Record`; see
# "One record path" in docs/ARCHITECTURE.md). Two things would undo that,
# and both are cheap to spot:
#   1. A `*_plain` / `*_signed` function in the non-test code of
#      pqs-protocols, pqs-sim or pqs-apps. Four names are allowed: the
#      frozen repo benchmark (crates/bench/src/bin/benchmark) calls them.
#   2. A second name for the run-time-kinded record enum: another enum
#      with its variants, a type alias, or a renaming re-export.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed='store_plain_if_fresher|store_signed_if_fresher|on_plain_reply|on_signed_reply'
record_enum='AnyRecord'
fail=0
note() {
    echo "check_record_forks: $1" >&2
    fail=1
}

# The sources as `file:line:text`, without `#[cfg(test)] mod … { … }` blocks.
non_test_lines() {
    find crates/protocols/src crates/sim/src crates/apps/src -name '*.rs' | sort |
        while IFS= read -r file; do
            awk -v file="$file" -f scripts/non_test_lines.awk "$file"
        done
}
lines=$(non_test_lines)

forks=$(grep -E 'fn [A-Za-z0-9_]*_(plain|signed)(_[A-Za-z0-9_]+)?[(<]' <<<"$lines" |
    grep -vE "fn ($allowed)\(" || true)
if [ -n "$forks" ]; then
    note "per-kind functions outside the benchmark-pinned names:"
    echo "$forks" >&2
fi

declared=$(grep -cE "enum $record_enum\b" <<<"$lines" || true)
[ "$declared" -eq 1 ] || note "expected exactly one \`enum $record_enum\`, found $declared"
variants=$(grep -cE '^[^:]+:[0-9]+: *(Plain\(TaggedValue\)|Signed\(SignedValue\)),' <<<"$lines" || true)
[ "$variants" -eq 2 ] || note "a second enum declares the record variants ($variants variant lines, expected 2)"
aliases=$(grep -E "(type [A-Za-z0-9_]+ *= *$record_enum\b|$record_enum as [A-Za-z0-9_]+|enum (GossipRecord|WriteRecord)\b)" <<<"$lines" || true)
if [ -n "$aliases" ]; then
    note "the record enum has a second name:"
    echo "$aliases" >&2
fi

if [ "$fail" -eq 0 ]; then
    echo "check_record_forks: one record path, one record enum"
fi
exit "$fail"
