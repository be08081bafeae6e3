//! The set system `R(n, q)`, written once.
//!
//! Definition 3.13 of the paper: over a universe of `n` servers *every*
//! `q`-subset is a quorum and the access strategy is uniform.  The paper
//! defines no other set system — Sections 4 and 5 reuse it unchanged and
//! alter only the intersection event and the read threshold — and the strict
//! threshold systems it is compared against are the same family with `q`
//! large enough that quorums must overlap.  So the mechanics live here, in
//! [`Rnq`], and the six named systems
//! ([`EpsilonIntersecting`](crate::probabilistic::EpsilonIntersecting),
//! [`ProbabilisticDissemination`](crate::probabilistic::ProbabilisticDissemination),
//! [`ProbabilisticMasking`](crate::probabilistic::ProbabilisticMasking),
//! [`Majority`](crate::strict::Majority),
//! [`DisseminationThreshold`](crate::byzantine::DisseminationThreshold),
//! [`MaskingThreshold`](crate::byzantine::MaskingThreshold)) each hold one
//! plus what the paper says differs.  `scripts/check_set_systems.sh` keeps a
//! second copy from growing back.

use crate::quorum::Quorum;
use crate::universe::Universe;
use crate::CoreError;
use pqs_math::binomial::Binomial;
use pqs_math::sampling::sample_k_of_n;
use rand::RngCore;

/// All `q`-subsets of `n` servers under the uniform access strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rnq {
    universe: Universe,
    quorum_size: u32,
}

impl Rnq {
    /// `R(n, q)`; an error unless `0 < q ≤ n`.
    #[inline]
    pub(crate) fn new(n: u32, q: u32) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::invalid("universe must be non-empty"));
        }
        if q == 0 || q > n {
            return Err(CoreError::invalid(format!(
                "quorum size {q} must be in 1..={n}"
            )));
        }
        Ok(Rnq {
            universe: Universe::new(n),
            quorum_size: q,
        })
    }

    /// `R(n, q)` analysed against `b` Byzantine servers: an error unless
    /// `b > 0` and the crash fault tolerance `n − q + 1` exceeds `b`, as
    /// Definitions 4.1 and 5.1 require.
    pub(crate) fn against_byzantine(n: u32, q: u32, b: u32) -> crate::Result<Self> {
        if b == 0 {
            return Err(CoreError::invalid(
                "b must be positive; use EpsilonIntersecting when no Byzantine failures are expected",
            ));
        }
        let core = Self::new(n, q)?;
        if core.fault_tolerance() <= b {
            return Err(CoreError::invalid(format!(
                "fault tolerance n-q+1 = {} must exceed b = {b} (Definitions 4.1 and 5.1)",
                core.fault_tolerance()
            )));
        }
        Ok(core)
    }

    pub(crate) fn universe(&self) -> Universe {
        self.universe
    }

    /// The universe size `n`.
    pub(crate) fn n(&self) -> u32 {
        self.universe.size()
    }

    /// The quorum size `q` (also [`quorum_size`](Self::quorum_size), as the
    /// `usize` the public interfaces use).
    pub(crate) fn q(&self) -> u32 {
        self.quorum_size
    }

    pub(crate) fn quorum_size(&self) -> usize {
        self.quorum_size as usize
    }

    /// The paper's parameter `ℓ = q/√n`.
    pub(crate) fn ell(&self) -> f64 {
        self.quorum_size as f64 / self.universe.sqrt()
    }

    /// Whether any two quorums must intersect: `2q > n`, written so that it
    /// cannot overflow.
    pub(crate) fn always_intersects(&self) -> bool {
        self.quorum_size > self.n() - self.quorum_size
    }

    /// One uniformly random `q`-subset.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut dyn RngCore) -> Quorum {
        let indices = sample_k_of_n(rng, self.quorum_size as u64, self.n() as u64)
            .expect("0 < q <= n was checked at construction");
        Quorum::from_indices(self.universe, indices.into_iter().map(|i| i as u32))
            .expect("sampled indices are below n")
    }

    /// Every server lies in the same share of the quorums, so the load is
    /// exactly `q/n` (Section 3.4; it does not depend on `b`, `k` or ε).
    pub(crate) fn load(&self) -> f64 {
        self.quorum_size as f64 / self.n() as f64
    }

    /// `n − q + 1`: while `q` servers survive some quorum is fully alive.
    /// The system is symmetric, so all its quorums are high quality and the
    /// probabilistic measure (Definition 3.7) equals the strict one.
    pub(crate) fn fault_tolerance(&self) -> u32 {
        self.n() - self.quorum_size + 1
    }

    /// Exact: the system fails iff more than `n − q` servers crash, a
    /// `Binomial(n, p)` tail.  See
    /// [`QuorumSystem::failure_probability`](crate::system::QuorumSystem::failure_probability)
    /// for the treatment of `p` outside `[0, 1]`.
    pub(crate) fn failure_probability(&self, p: f64) -> f64 {
        if p.is_nan() {
            return f64::NAN;
        }
        Binomial::new(self.n() as u64, p.clamp(0.0, 1.0))
            .expect("p was clamped to [0, 1]")
            .sf((self.n() - self.quorum_size) as u64)
    }
}

/// The quorum size `ℓ·unit`, rounded to the nearest integer and at least 1,
/// for the paper's parameter `ℓ` (`unit` is `√n` in Sections 3 and 4 and `b`
/// in Section 5); an error unless `ℓ > min_ell`.
pub(crate) fn quorum_size_for_ell(ell: f64, unit: f64, min_ell: f64) -> crate::Result<u32> {
    if ell.is_nan() || ell <= min_ell {
        return Err(CoreError::invalid(format!(
            "ell must exceed {min_ell}, got {ell}"
        )));
    }
    Ok((ell * unit).round().max(1.0) as u32)
}

/// Gives a type that holds its set system in a field `core` — an [`Rnq`] or
/// a grid core — its public `quorum_size()` and its [`QuorumSystem`] impl;
/// only the name differs from type to type.
///
/// [`QuorumSystem`]: crate::system::QuorumSystem
macro_rules! quorum_system_via_core {
    ($ty:ty, |$this:ident| $name:expr) => {
        impl $ty {
            /// The fixed size of every quorum.
            pub fn quorum_size(&self) -> usize {
                self.core.quorum_size()
            }
        }

        impl $crate::system::QuorumSystem for $ty {
            fn universe(&self) -> $crate::universe::Universe {
                self.core.universe()
            }
            fn sample_quorum(&self, rng: &mut dyn rand::RngCore) -> $crate::quorum::Quorum {
                self.core.sample(rng)
            }
            fn name(&self) -> String {
                let $this = self;
                $name
            }
            fn min_quorum_size(&self) -> usize {
                self.quorum_size()
            }
            fn load(&self) -> f64 {
                self.core.load()
            }
            fn fault_tolerance(&self) -> u32 {
                self.core.fault_tolerance()
            }
            fn failure_probability(&self, p: f64) -> f64 {
                self.core.failure_probability(p)
            }
        }
    };
}
pub(crate) use quorum_system_via_core;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{exact_fault_tolerance, failure_probability_exact, induced_load};
    use crate::prelude::*;
    use crate::probabilistic::params::{exact_epsilon_intersecting, smallest_quorum_masking};
    use crate::strategy::WeightedStrategy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Every quorum of `R(n, q)`, as a bit mask over `0..n`.
    fn quorum_masks(n: u32, q: u32) -> Vec<u32> {
        (0..1u32 << n).filter(|m| m.count_ones() == q).collect()
    }

    /// The brute-force twin (ROADMAP 1(b)): the closed forms against the
    /// generic measures over every enumerated quorum, n ≤ 7.  Load and the
    /// inclusion–exclusion failure probability agree to 1e-12; fault
    /// tolerance exactly.  Inclusion–exclusion visits every subset of the
    /// quorums, so it is run up to 15 of them (2¹⁵ subsets; the 20 and 21 of
    /// R(6, 3), R(7, 2) and R(7, 5) take seconds each in a debug build) —
    /// the sum over crash sets below covers those.
    #[test]
    fn closed_forms_match_enumeration_of_all_quorums() {
        for n in 1..=7u32 {
            for q in 1..=n {
                let core = Rnq::new(n, q).unwrap();
                let quorums: Vec<Quorum> = quorum_masks(n, q)
                    .iter()
                    .map(|m| (0..n).filter(move |i| m >> i & 1 == 1))
                    .map(|members| Quorum::from_indices(core.universe(), members).unwrap())
                    .collect();
                let uniform = WeightedStrategy::uniform(quorums.len());
                let load = induced_load(&quorums, &uniform).unwrap();
                assert!((core.load() - load).abs() < 1e-12, "R({n}, {q}) load");
                assert_eq!(
                    core.fault_tolerance(),
                    exact_fault_tolerance(&quorums).unwrap(),
                    "R({n}, {q}) fault tolerance"
                );
                if quorums.len() <= 15 {
                    for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
                        let exact = failure_probability_exact(&quorums, p).unwrap();
                        let closed = core.failure_probability(p);
                        assert!((closed - exact).abs() < 1e-12, "R({n}, {q}) F_{p}");
                    }
                }
            }
        }
    }

    /// The binomial tail against the sum over all `2ⁿ` crash sets (n ≤ 12,
    /// to 1e-12), and the exact ε against the count of disjoint ordered
    /// quorum pairs (n ≤ 8, to 1e-12).
    #[test]
    fn failure_probability_and_epsilon_match_exhaustive_sums() {
        for n in 1..=12u32 {
            for q in 1..=n {
                let core = Rnq::new(n, q).unwrap();
                for p in [0.05f64, 0.3, 0.5, 0.8] {
                    let summed: f64 = (0..1u32 << n)
                        .map(|crashed| crashed.count_ones())
                        .filter(|&dead| n - dead < q)
                        .map(|dead| p.powi(dead as i32) * (1.0 - p).powi((n - dead) as i32))
                        .sum();
                    let closed = core.failure_probability(p);
                    assert!((closed - summed).abs() < 1e-12, "R({n}, {q}) F_{p}");
                }
                if n <= 8 {
                    let masks = quorum_masks(n, q);
                    let disjoint = masks
                        .iter()
                        .flat_map(|a| masks.iter().map(move |b| a & b))
                        .filter(|&shared| shared == 0)
                        .count();
                    let counted = disjoint as f64 / (masks.len() * masks.len()) as f64;
                    let exact = exact_epsilon_intersecting(n, q).unwrap();
                    assert!((exact - counted).abs() < 1e-12, "R({n}, {q}) epsilon");
                }
            }
        }
    }

    /// The stream did not move: three quorums of `R(100, 16)` at seed 22 and
    /// the draw after them, captured on the commit before the six systems
    /// were folded onto [`Rnq`] — from the core and from a system holding it.
    #[test]
    fn sampler_reproduces_quorums_captured_before_the_refactor() {
        const CAPTURED: [[u32; 16]; 3] = [
            [5, 6, 20, 22, 35, 42, 57, 58, 59, 61, 62, 69, 70, 81, 83, 89],
            [
                4, 14, 22, 36, 43, 44, 45, 56, 60, 70, 78, 81, 83, 85, 91, 98,
            ],
            [0, 4, 5, 29, 32, 34, 35, 40, 52, 59, 68, 72, 78, 86, 89, 93],
        ];
        let core = Rnq::new(100, 16).unwrap();
        let system = EpsilonIntersecting::new(100, 16).unwrap();
        let samplers: [&dyn Fn(&mut ChaCha8Rng) -> Quorum; 2] =
            [&|rng| core.sample(rng), &|rng| system.sample_quorum(rng)];
        for sample in samplers {
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            for expected in CAPTURED {
                let members: Vec<u32> = sample(&mut rng).iter().map(|s| s.index()).collect();
                assert_eq!(members, expected);
            }
            assert_eq!(rng.next_u64(), 10_097_825_136_171_920_485);
        }
    }

    /// `failure_probability` on every construction of the prelude: no `p`
    /// panics, `NaN` gives `NaN`, anything else a probability.
    #[test]
    fn failure_probability_is_total_on_every_construction() {
        let systems: Vec<Box<dyn QuorumSystem>> = vec![
            Box::new(EpsilonIntersecting::new(100, 22).unwrap()),
            Box::new(ProbabilisticDissemination::new(100, 24, 4).unwrap()),
            Box::new(ProbabilisticMasking::new(100, 38, 4).unwrap()),
            Box::new(Majority::new(100).unwrap()),
            Box::new(Grid::new(100).unwrap()),
            Box::new(DisseminationThreshold::new(100, 4).unwrap()),
            Box::new(MaskingThreshold::new(100, 4).unwrap()),
            Box::new(DisseminationGrid::new(25, 2).unwrap()),
            Box::new(MaskingGrid::new(25, 2).unwrap()),
        ];
        for system in &systems {
            assert!(
                system.failure_probability(f64::NAN).is_nan(),
                "{}",
                system.name()
            );
            for p in [-1.0, 0.0, 0.3, 1.0, 2.0, f64::INFINITY, f64::NEG_INFINITY] {
                let f = system.failure_probability(p);
                assert!((0.0..=1.0).contains(&f), "{}: F_{p} = {f}", system.name());
            }
        }
    }

    /// The validators hold up to `n = u32::MAX` (nothing is sampled): `2q`,
    /// `n + b + 1` and `2b + 1` used to be computed in `u32`.
    #[test]
    fn validators_do_not_overflow_at_the_largest_universe() {
        const N: u32 = u32::MAX;
        const HALF: u32 = 1 << 31;
        assert_eq!(Majority::new(N).unwrap().quorum_size(), HALF as usize);
        assert!(Majority::with_quorum_size(N, N).is_ok());
        assert!(Majority::with_quorum_size(N, HALF - 1).is_err());
        assert_eq!(exact_epsilon_intersecting(N, HALF + 5).unwrap(), 0.0);
        assert!((exact_epsilon_intersecting(N, 1).unwrap() - 1.0).abs() < 1e-3);

        let b = (N - 1) / 3;
        let d = DisseminationThreshold::new(N, b).unwrap();
        assert_eq!(
            d.quorum_size() as u64,
            (N as u64 + b as u64 + 1).div_ceil(2)
        );
        assert!(DisseminationThreshold::new(N, b + 1).is_err());
        let b = (N - 1) / 4;
        let m = MaskingThreshold::new(N, b).unwrap();
        assert_eq!(
            m.quorum_size() as u64,
            (N as u64 + 2 * b as u64 + 1).div_ceil(2)
        );
        assert!(MaskingThreshold::new(N, b + 1).is_err());

        // ℓ = q/b ≤ 2 with b > 2³¹, and no masking candidate at all.
        assert!(ProbabilisticMasking::new(N, 2_000_000_000, 2_200_000_000).is_err());
        assert_eq!(smallest_quorum_masking(N, 2_200_000_000, 0.5), None);
    }
}
