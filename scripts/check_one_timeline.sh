#!/usr/bin/env bash
# Fails if a second copy of the server behaviours reappears in pqs-sim.
#
# A run's failure plan is one transition list that every world walks with
# one cursor (see "The transition cursor's tie rule" in
# docs/ARCHITECTURE.md); the spine reads the behaviours off the first
# world and keeps no timeline of its own. Any other non-test code in
# crates/sim/src that changes a server's behaviour would be a second
# timeline, so this gate fails on a call to `set_behavior`, `join_server`,
# `corrupt_all` or `crash_all` outside crates/sim/src/world.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

calls='\b(set_behavior|join_server|corrupt_all|crash_all)\('

# The sources as `file:line:text`, without test-only items (`#[cfg(test)]`
# mod blocks and free functions) and without comment lines.
non_test_lines() {
    find crates/sim/src -name '*.rs' ! -name world.rs | sort |
        while IFS= read -r file; do
            awk -v file="$file" -f scripts/non_test_lines.awk "$file"
        done
}
found=$(non_test_lines | grep -vE '^[^:]+:[0-9]+: *//' | grep -E "$calls" || true)
if [ -n "$found" ]; then
    echo "check_one_timeline: behaviour changes outside crates/sim/src/world.rs:" >&2
    echo "$found" >&2
    exit 1
fi
echo "check_one_timeline: every behaviour change is a world's"
