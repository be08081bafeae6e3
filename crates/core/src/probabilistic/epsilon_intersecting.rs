//! The ε-intersecting construction `R(n, ℓ√n)` of Section 3.4.
//!
//! Quorums are *all* subsets of size `q = ℓ√n` and the access strategy is
//! uniform (Definition 3.13).  By the birthday-paradox argument of
//! Lemma 3.15, two uniformly chosen quorums fail to intersect with
//! probability at most `e^{−ℓ²}`, so choosing `ℓ` a small constant already
//! drives ε below any desired target while the quorums stay `Θ(√n)` — the
//! construction simultaneously achieves optimal load `O(1/√n)`, fault
//! tolerance `n − ℓ√n + 1 = Ω(n)` and failure probability `e^{−Ω(n)}` even
//! for crash probabilities `p > ½` (Section 3.4), which no strict quorum
//! system can do.

use crate::probabilistic::params::{self, exact_epsilon_intersecting};
use crate::rnq::{quorum_size_for_ell, quorum_system_via_core, Rnq};
use crate::system::ProbabilisticQuorumSystem;
use pqs_math::bounds;

/// The ε-intersecting quorum system `R(n, q)`: all `q`-subsets of `n`
/// servers accessed uniformly at random.
///
/// Beyond the shared set system it holds only its exact ε.  Its load is
/// `q/n = ℓ/√n`, its fault tolerance `n − q + 1` and its failure probability
/// the exact binomial tail of "more than `n − q` servers crash" (Section 3.4,
/// "Quality Measures"); the paper's Chernoff form of the last is
/// [`failure_probability_bound`](Self::failure_probability_bound).
///
/// # Examples
///
/// ```
/// use pqs_core::probabilistic::EpsilonIntersecting;
/// use pqs_core::system::{ProbabilisticQuorumSystem, QuorumSystem};
///
/// let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
/// assert!(sys.epsilon() <= 1e-3);
/// assert!(sys.quorum_size() < 30);             // ~ℓ√n, far below a majority
/// assert!(sys.fault_tolerance() > 70);         // Ω(n)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonIntersecting {
    core: Rnq,
    exact_epsilon: f64,
}

impl EpsilonIntersecting {
    /// Creates `R(n, q)` with an explicit quorum size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`](crate::CoreError) if `n` is
    /// zero or `q` is not in `1..=n`.
    pub fn new(n: u32, q: u32) -> crate::Result<Self> {
        Ok(EpsilonIntersecting {
            core: Rnq::new(n, q)?,
            exact_epsilon: exact_epsilon_intersecting(n, q)?,
        })
    }

    /// Creates `R(n, q)` with `q = ℓ√n` rounded to the nearest integer,
    /// from the paper's parameter `ℓ`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`](crate::CoreError) if
    /// `ℓ ≤ 0` or the implied quorum size falls outside `1..=n`.
    pub fn with_ell(n: u32, ell: f64) -> crate::Result<Self> {
        Self::new(n, quorum_size_for_ell(ell, (n as f64).sqrt(), 0.0)?)
    }

    /// Creates the smallest `R(n, q)` whose *exact* non-intersection
    /// probability is at most `target_epsilon` — the selection rule behind
    /// Table 2 ("ℓ was chosen as small as possible subject to ε ≤ .001").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`](crate::CoreError) if
    /// `target_epsilon` is not in `(0, 1)`.
    pub fn with_target_epsilon(n: u32, target_epsilon: f64) -> crate::Result<Self> {
        let q = params::smallest_quorum_intersecting(n, target_epsilon)
            .ok_or_else(|| params::unattainable("intersecting", n, 0, target_epsilon))?;
        Self::new(n, q)
    }

    /// The paper's parameter `ℓ = q/√n`.
    pub fn ell(&self) -> f64 {
        self.core.ell()
    }

    /// The exact non-intersection probability
    /// `C(n−q, q)/C(n, q)` (what [`ProbabilisticQuorumSystem::epsilon`]
    /// reports).
    pub fn exact_epsilon(&self) -> f64 {
        self.exact_epsilon
    }

    /// The analytical Lemma 3.15 / Theorem 3.16 bound `e^{−ℓ²}`, always at
    /// least [`exact_epsilon`](Self::exact_epsilon).
    pub fn epsilon_bound(&self) -> f64 {
        bounds::epsilon_intersecting_bound(self.ell())
    }

    /// The paper's Chernoff bound on the crash failure probability,
    /// `e^{−2n(1 − ℓ/√n − p)²}` for `p ≤ 1 − ℓ/√n` (Section 3.4); compare
    /// with the exact
    /// [`failure_probability`](crate::system::QuorumSystem::failure_probability).
    pub fn failure_probability_bound(&self, p: f64) -> f64 {
        pqs_math::tail::r_system_failure_bound(
            self.core.n() as u64,
            self.core.q() as u64,
            p.clamp(0.0, 1.0),
        )
    }
}

quorum_system_via_core!(EpsilonIntersecting, |s| format!(
    "R(n={}, q={})",
    s.core.n(),
    s.core.q()
));

impl ProbabilisticQuorumSystem for EpsilonIntersecting {
    /// The exact non-intersection probability of two quorums drawn by the
    /// uniform strategy.
    fn epsilon(&self) -> f64 {
        self.exact_epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QuorumSystem;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_validation() {
        assert!(EpsilonIntersecting::new(0, 1).is_err());
        assert!(EpsilonIntersecting::new(10, 0).is_err());
        assert!(EpsilonIntersecting::new(10, 11).is_err());
        assert!(EpsilonIntersecting::with_ell(100, 0.0).is_err());
        assert!(EpsilonIntersecting::with_ell(100, -1.0).is_err());
        assert!(EpsilonIntersecting::with_ell(100, f64::NAN).is_err());
        assert!(EpsilonIntersecting::with_target_epsilon(100, 0.0).is_err());
        assert!(EpsilonIntersecting::with_target_epsilon(100, 1.0).is_err());
    }

    #[test]
    fn with_ell_matches_paper_sizes() {
        // Table 2's quorum sizes are exactly l * sqrt(n).
        for &(n, ell, size) in &[
            (25u32, 1.80f64, 9usize),
            (100, 2.20, 22),
            (225, 2.40, 36),
            (400, 2.45, 49),
            (625, 2.48, 62),
            (900, 2.50, 75),
        ] {
            let sys = EpsilonIntersecting::with_ell(n, ell).unwrap();
            assert_eq!(sys.quorum_size(), size, "n={n}");
            // Fault tolerance column of Table 2: n − q + 1.
            assert_eq!(sys.fault_tolerance() as usize, n as usize - size + 1);
        }
    }

    #[test]
    fn epsilon_consistency() {
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        assert!(sys.exact_epsilon() <= sys.epsilon_bound());
        assert_eq!(sys.epsilon(), sys.exact_epsilon());
        assert!((sys.ell() - 2.2).abs() < 1e-12);
        assert!(sys.name().contains("R(n=100"));
    }

    #[test]
    fn with_target_epsilon_is_minimal() {
        let sys = EpsilonIntersecting::with_target_epsilon(400, 1e-3).unwrap();
        assert!(sys.epsilon() <= 1e-3);
        let smaller = EpsilonIntersecting::new(400, sys.quorum_size() as u32 - 1).unwrap();
        assert!(smaller.epsilon() > 1e-3);
    }

    #[test]
    fn sampling_uniformity_of_membership() {
        let sys = EpsilonIntersecting::new(50, 10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let trials = 20_000;
        let mut counts = [0u32; 50];
        for _ in 0..trials {
            for s in sys.sample_quorum(&mut rng).iter() {
                counts[s.as_usize()] += 1;
            }
        }
        let expected = trials as f64 * 10.0 / 50.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.06,
                "server {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn empirical_nonintersection_matches_epsilon() {
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let trials = 40_000;
        let mut disjoint = 0usize;
        for _ in 0..trials {
            let a = sys.sample_quorum(&mut rng);
            let b = sys.sample_quorum(&mut rng);
            if !a.intersects(&b) {
                disjoint += 1;
            }
        }
        let empirical = disjoint as f64 / trials as f64;
        assert!(
            (empirical - sys.epsilon()).abs() < 0.01,
            "empirical={empirical} exact={}",
            sys.epsilon()
        );
    }

    #[test]
    fn load_and_failure_probability() {
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        assert!((sys.load() - 0.22).abs() < 1e-12);
        assert_eq!(sys.failure_probability(0.0), 0.0);
        assert!((sys.failure_probability(1.0) - 1.0).abs() < 1e-12);
        // Exact failure probability is below the paper's Chernoff bound.
        for &p in &[0.3, 0.5, 0.7] {
            assert!(sys.failure_probability(p) <= sys.failure_probability_bound(p) + 1e-12);
        }
    }

    #[test]
    fn beats_strict_failure_probability_floor_beyond_one_half() {
        // Section 3.4 / Figure 1: for 1/2 <= p <= 1 − l/sqrt(n), the failure
        // probability of R(n, l sqrt(n)) is provably better than any strict
        // quorum system's (which is at least p for p >= 1/2).
        let sys = EpsilonIntersecting::with_ell(400, 2.45).unwrap();
        for &p in &[0.5, 0.6, 0.7, 0.8] {
            let strict_floor = pqs_math::bounds::strict_failure_probability_floor(400, p);
            assert!(
                sys.failure_probability(p) < strict_floor,
                "p={p}: {} !< {strict_floor}",
                sys.failure_probability(p)
            );
        }
    }

    #[test]
    fn quorum_larger_than_half_never_fails_to_intersect() {
        let sys = EpsilonIntersecting::new(20, 11).unwrap();
        assert_eq!(sys.epsilon(), 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..100 {
            let a = sys.sample_quorum(&mut rng);
            let b = sys.sample_quorum(&mut rng);
            assert!(a.intersects(&b));
        }
    }
}
