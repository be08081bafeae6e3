#!/usr/bin/env bash
# Fails if one of pqs-core's two set systems is written a second time.
#
# Every q-subset of n servers under the uniform strategy (Definition 3.13)
# is crates/core/src/rnq.rs, and every union of r rows and r columns of a
# d x d array is crates/core/src/grid_core.rs: each has one sampler, one
# load, one fault tolerance and one exact crash-failure probability, and the
# one macro next to R(n, q) gives the nine systems holding a core their
# `QuorumSystem` impl — see "Layer 2" in docs/ARCHITECTURE.md. What would
# undo that is cheap to spot in non-test code:
#   1. A subset sampler (`sample_k_of_n(`), a `Binomial::new(` crash tail or
#      a perfect-square check (`.sqrt().round()`) in strict/, byzantine/ or
#      probabilistic/; each core has exactly one of what it needs.
#   2. A hand-written `impl QuorumSystem for` one of the nine systems.
#   3. A random number drawn inside a measure: `seed_from_u64(` or
#      `gen_bool(` anywhere in crates/core/src. Named exception:
#      `measures::failure_probability_monte_carlo`, which is handed its RNG.
#   4. A second latency law: more than one enum with a `Pareto` variant in
#      crates/{math,sim}/src and crates/bench/src outside bin/benchmark/
#      (`pqs_sim::latency::LatencyModel` is `pqs_math::plan::ProbeLatency`).
set -euo pipefail
cd "$(dirname "$0")/.."

rnq=crates/core/src/rnq.rs
grid=crates/core/src/grid_core.rs
systems='EpsilonIntersecting|ProbabilisticDissemination|ProbabilisticMasking|Majority|DisseminationThreshold|MaskingThreshold|Grid|DisseminationGrid|MaskingGrid'
fail=0
note() {
    echo "check_set_systems: $1" >&2
    fail=1
}

# `file:line:text` of the non-test, non-comment lines of the `*.rs` files
# under the arguments.
code_lines() {
    find "$@" -name '*.rs' | sort | while IFS= read -r file; do
        awk -v file="$file" -f scripts/non_test_lines.awk "$file"
    done | grep -vE '^[^:]+:[0-9]+: *//' || true
}
lines=$(code_lines crates/core/src/strict crates/core/src/byzantine crates/core/src/probabilistic)

for second in 'sample_k_of_n(' 'Binomial::new(' '.sqrt().round()'; do
    copies=$(grep -F "$second" <<<"$lines" || true)
    if [ -n "$copies" ]; then
        note "\`$second\` outside $rnq and $grid:"
        echo "$copies" >&2
    fi
done

impls=$(grep -E "impl +([A-Za-z_\$]+::)*QuorumSystem +for +($systems)\b" <<<"$lines" || true)
if [ -n "$impls" ]; then
    note "a hand-written QuorumSystem impl for a system that holds a core (use quorum_system_via_core!):"
    echo "$impls" >&2
fi

expect_once() {
    local file=$1 lines count
    shift
    lines=$(code_lines "$file")
    for once in "$@"; do
        count=$(grep -cF "$once" <<<"$lines" || true)
        [ "$count" -eq 1 ] || note "expected exactly one \`$once\` in $file, found $count"
    done
}
expect_once "$rnq" 'sample_k_of_n(' 'Quorum::from_indices(' 'Binomial::new('
expect_once "$grid" 'sample_k_of_n(' 'Quorum::from_indices(' 'Binomial::new(' '.sqrt().round()'

draws=$(code_lines crates/core/src | grep -E 'seed_from_u64\(|gen_bool\(' |
    grep -vE '^crates/core/src/measures/failure_prob\.rs:[0-9]+: *\*c = rng\.gen_bool\(p\);$' || true)
if [ -n "$draws" ]; then
    note "a measure draws random numbers (only measures::failure_probability_monte_carlo may, from the RNG it is handed):"
    echo "$draws" >&2
fi

laws=$(code_lines crates/math/src crates/sim/src crates/bench/src |
    grep -v '^crates/bench/src/bin/benchmark/' | grep -E '^[^:]+:[0-9]+: *Pareto\b' || true)
if [ "$(grep -c . <<<"$laws" || true)" -ne 1 ]; then
    note "expected exactly one enum with a \`Pareto\` variant (pqs_math::plan::ProbeLatency), found:"
    echo "$laws" >&2
fi

if [ "$fail" -eq 0 ]; then
    echo "check_set_systems: R(n, q) and the r x r grid are each written once; one latency law"
fi
exit "$fail"
