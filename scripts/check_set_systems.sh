#!/usr/bin/env bash
# Fails if the set system R(n, q) is written a second time in pqs-core.
#
# Every q-subset of n servers under the uniform strategy (Definition 3.13)
# is crates/core/src/rnq.rs: one sampler, one load, one fault tolerance,
# one binomial crash tail, and the one macro that gives the six systems
# holding it (and the two Byzantine grids) their `QuorumSystem` impl — see
# "Layer 2" in docs/ARCHITECTURE.md. Three things would undo that, all
# cheap to spot in the non-test code of strict/, byzantine/ and
# probabilistic/:
#   1. A q-subset sampler (`sample_k_of_n(` feeding `Quorum::from_indices`).
#      Named exception: the Byzantine grids draw r of d rows and columns.
#   2. A `Binomial::new(` crash tail. Named exception: the Byzantine grids'
#      union bound over clean rows.
#   3. A hand-written `impl QuorumSystem for` one of the six systems.
set -euo pipefail
cd "$(dirname "$0")/.."

core=crates/core/src/rnq.rs
systems='EpsilonIntersecting|ProbabilisticDissemination|ProbabilisticMasking|Majority|DisseminationThreshold|MaskingThreshold'
fail=0
note() {
    echo "check_set_systems: $1" >&2
    fail=1
}

non_test_lines() {
    find "$@" -name '*.rs' | sort | while IFS= read -r file; do
        awk -v file="$file" -f scripts/non_test_lines.awk "$file"
    done
}
lines=$(non_test_lines crates/core/src/strict crates/core/src/byzantine crates/core/src/probabilistic)
core_lines=$(non_test_lines "$core")

samplers=$(grep -F 'sample_k_of_n(' <<<"$lines" |
    grep -vE '^crates/core/src/byzantine/grid_byzantine\.rs:[0-9]+: *let (rows|cols): Vec<u32> = sample_k_of_n\(rng, r, d\)$' || true)
if [ -n "$samplers" ]; then
    note "a subset sampler outside $core (only the grids' r-of-d rows and columns are excepted):"
    echo "$samplers" >&2
fi

tails=$(grep -F 'Binomial::new(' <<<"$lines" |
    grep -vE '^crates/core/src/byzantine/grid_byzantine\.rs:[0-9]+: *let rows = Binomial::new\(d, clean_row_prob\)' || true)
if [ -n "$tails" ]; then
    note "a binomial crash tail outside $core (only the grids' union bound is excepted):"
    echo "$tails" >&2
fi

impls=$(grep -E "impl +([A-Za-z_\$]+::)*QuorumSystem +for +($systems)\b" <<<"$lines" || true)
if [ -n "$impls" ]; then
    note "a hand-written QuorumSystem impl for an R(n, q) system (use quorum_system_via_core!):"
    echo "$impls" >&2
fi

for once in 'sample_k_of_n(' 'Quorum::from_indices(' 'Binomial::new('; do
    count=$(grep -cF "$once" <<<"$core_lines" || true)
    [ "$count" -eq 1 ] || note "expected exactly one \`$once\` in $core, found $count"
done

if [ "$fail" -eq 0 ]; then
    echo "check_set_systems: R(n, q) is written once"
fi
exit "$fail"
