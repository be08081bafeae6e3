#!/usr/bin/env bash
# Fails if the libraries fork on the build profile.
#
# A debug build must run the engine path a release build runs: the spine,
# queues and slabs the benchmark times are the ones the debug test suite
# checks. Slow oracles are tests that diff the engine against a reference
# (see "The slow oracle" in docs/ARCHITECTURE.md), not a second path
# selected by `cfg(debug_assertions)`. This gate fails on any mention of
# `debug_assertions` (`cfg(...)`, `cfg!(...)`, `cfg_attr(...)`) in the
# non-test code of pqs-sim, pqs-protocols and pqs-apps, outside the files
# allowed below, each with its reason.
set -euo pipefail
cd "$(dirname "$0")/.."

# crates/sim/src/time.rs: the event queue's debug shadow heap receives every
# entry the production queue does and checks each pop against its own; it
# touches no payload and never changes what the queue pops.
allowed='^crates/sim/src/time\.rs:'

# The sources as `file:line:text`, without test-only items (`#[cfg(test)]`
# mod blocks and free functions) and without comment lines.
non_test_lines() {
    find crates/sim/src crates/protocols/src crates/apps/src -name '*.rs' | sort |
        while IFS= read -r file; do
            awk -v file="$file" -f scripts/non_test_lines.awk "$file"
        done
}
found=$(non_test_lines | grep -vE '^[^:]+:[0-9]+: *//' | grep -E '\bdebug_assertions\b' |
    grep -vE "$allowed" || true)
if [ -n "$found" ]; then
    echo "check_one_build: debug-only code outside the allowed queue shadow:" >&2
    echo "$found" >&2
    exit 1
fi
echo "check_one_build: debug and release builds run one engine path"
