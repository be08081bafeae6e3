//! The (b, ε)-dissemination construction of Section 4.
//!
//! For self-verifying data (servers can suppress but not forge values) it is
//! enough that the overlap of a read quorum with the latest write quorum is
//! *not entirely faulty* (Definition 4.1).  The same uniform `R(n, ℓ√n)`
//! set system satisfies this with ε at most `2e^{−ℓ²/6}` when `b = n/3`
//! (Theorem 4.4) and `ε_α = 2/(1−α)·α^{ℓ²(1−√α)/2}` when `b = αn`
//! (Theorem 4.6) — so, unlike strict dissemination systems, it tolerates
//! *any constant fraction* of Byzantine servers while keeping `O(1/√n)` load
//! and `Θ(n)` crash fault tolerance.

use crate::probabilistic::params::{self, exact_epsilon_dissemination};
use crate::rnq::{quorum_size_for_ell, quorum_system_via_core, Rnq};
use crate::system::{ByzantineQuorumSystem, ProbabilisticQuorumSystem};
use pqs_math::bounds;

/// The (b, ε)-dissemination quorum system: `R(n, q)` analysed against a
/// Byzantine set of size `b`.
///
/// Beyond the shared set system it holds `b` and its exact ε: "load, fault
/// tolerance and failure probability do not depend on b or ε" (Section 4.1),
/// so the construction keeps `q/n` load and `Θ(n)` tolerance to *crash*
/// failures whatever Byzantine threshold it masks.
///
/// # Examples
///
/// ```
/// use pqs_core::probabilistic::ProbabilisticDissemination;
/// use pqs_core::system::{ByzantineQuorumSystem, ProbabilisticQuorumSystem, QuorumSystem};
///
/// // Tolerate a Byzantine *third* of the universe — impossible for any
/// // strict dissemination system beyond (n-1)/3 — with small quorums.
/// let sys = ProbabilisticDissemination::with_target_epsilon(900, 300, 1e-3).unwrap();
/// assert!(sys.epsilon() <= 1e-3);
/// assert_eq!(sys.byzantine_threshold(), 300);
/// assert!(sys.min_quorum_size() < 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticDissemination {
    core: Rnq,
    byzantine: u32,
    exact_epsilon: f64,
}

impl ProbabilisticDissemination {
    /// Creates the system with an explicit quorum size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`](crate::CoreError) if the
    /// parameters are out of range or the crash fault tolerance `n − q + 1`
    /// would not exceed `b` (Definition 4.1 requires `A(⟨Q, w⟩) > b`).
    pub fn new(n: u32, q: u32, b: u32) -> crate::Result<Self> {
        Ok(ProbabilisticDissemination {
            core: Rnq::against_byzantine(n, q, b)?,
            byzantine: b,
            exact_epsilon: exact_epsilon_dissemination(n, q, b)?,
        })
    }

    /// Creates the system with `q = ℓ√n` rounded to the nearest integer.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new), plus `ℓ` must be positive.
    pub fn with_ell(n: u32, ell: f64, b: u32) -> crate::Result<Self> {
        Self::new(n, quorum_size_for_ell(ell, (n as f64).sqrt(), 0.0)?, b)
    }

    /// Creates the smallest system whose exact ε (for the given `b`) is at
    /// most `target_epsilon` — the Table 3 selection rule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`](crate::CoreError) if no
    /// quorum size `q ≤ n − b` achieves the target.
    pub fn with_target_epsilon(n: u32, b: u32, target_epsilon: f64) -> crate::Result<Self> {
        let q = params::smallest_quorum_dissemination(n, b, target_epsilon)
            .ok_or_else(|| params::unattainable("dissemination", n, b, target_epsilon))?;
        Self::new(n, q, b)
    }

    /// The paper's parameter `ℓ = q/√n`.
    pub fn ell(&self) -> f64 {
        self.core.ell()
    }

    /// The Byzantine fraction `α = b/n`.
    pub fn alpha(&self) -> f64 {
        self.byzantine as f64 / self.core.n() as f64
    }

    /// The exact probability that `Q ∩ Q′ ⊆ B` for the configured `b`
    /// (what [`ProbabilisticQuorumSystem::epsilon`] reports).
    pub fn exact_epsilon(&self) -> f64 {
        self.exact_epsilon
    }

    /// The analytical bound of Theorem 4.4 (`2e^{−ℓ²/6}`, used when
    /// `α ≤ 1/3`) or Theorem 4.6 (`ε_α`, used when `α > 1/3`).
    pub fn epsilon_bound(&self) -> f64 {
        let alpha = self.alpha();
        if alpha <= 1.0 / 3.0 {
            bounds::dissemination_bound_one_third(self.ell())
        } else {
            bounds::dissemination_bound_alpha(self.ell(), alpha)
        }
    }
}

quorum_system_via_core!(ProbabilisticDissemination, |s| format!(
    "dissemination-R(n={}, q={}, b={})",
    s.core.n(),
    s.core.q(),
    s.byzantine
));

impl ByzantineQuorumSystem for ProbabilisticDissemination {
    fn byzantine_threshold(&self) -> u32 {
        self.byzantine
    }
}

impl ProbabilisticQuorumSystem for ProbabilisticDissemination {
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
        assert!(ProbabilisticDissemination::new(100, 24, 0).is_err());
        assert!(ProbabilisticDissemination::new(100, 24, 100).is_err());
        assert!(ProbabilisticDissemination::new(100, 0, 4).is_err());
        assert!(ProbabilisticDissemination::new(100, 101, 4).is_err());
        // Fault tolerance must exceed b: n - q + 1 > b.
        assert!(ProbabilisticDissemination::new(100, 97, 4).is_err());
        assert!(ProbabilisticDissemination::new(100, 96, 4).is_ok());
        assert!(ProbabilisticDissemination::with_ell(100, -2.0, 4).is_err());
    }

    #[test]
    fn table_three_sizes_from_ell() {
        // Table 3: (n, b, l, quorum size, fault tolerance).
        for &(n, b, ell, size, ft) in &[
            (25u32, 2u32, 2.20f64, 11usize, 15u32),
            (100, 4, 2.40, 24, 77),
            (225, 7, 2.47, 37, 189),
            (400, 9, 2.50, 50, 351),
            (625, 12, 2.52, 63, 563),
            (900, 14, 2.57, 77, 824),
        ] {
            let sys = ProbabilisticDissemination::with_ell(n, ell, b).unwrap();
            assert_eq!(sys.quorum_size(), size, "n={n}");
            assert_eq!(sys.fault_tolerance(), ft, "n={n}");
        }
    }

    #[test]
    fn exact_epsilon_below_analytic_bound() {
        // One-third regime.
        let third = ProbabilisticDissemination::with_ell(900, 4.0, 300).unwrap();
        assert!(third.exact_epsilon() <= third.epsilon_bound() + 1e-12);
        // Larger-fraction regime (alpha = 0.5).
        let half = ProbabilisticDissemination::with_ell(900, 6.0, 450).unwrap();
        assert!((half.alpha() - 0.5).abs() < 1e-12);
        assert!(half.exact_epsilon() <= half.epsilon_bound() + 1e-12);
    }

    #[test]
    fn tolerates_byzantine_fractions_beyond_strict_limit() {
        // Strict dissemination systems cap at b = (n-1)/3; the probabilistic
        // construction reaches b = n/2 with a small quorum and tiny epsilon.
        let n = 2500u32;
        let b = 1250u32;
        let sys = ProbabilisticDissemination::with_target_epsilon(n, b, 1e-3).unwrap();
        assert!(sys.epsilon() <= 1e-3);
        assert!(sys.min_quorum_size() < (n / 2) as usize);
        assert!(sys.byzantine_threshold() > crate::byzantine::max_dissemination_threshold(n));
    }

    #[test]
    fn with_target_epsilon_is_minimal() {
        let sys = ProbabilisticDissemination::with_target_epsilon(100, 4, 1e-3).unwrap();
        assert!(sys.epsilon() <= 1e-3);
        if sys.quorum_size() > 1 {
            let smaller =
                ProbabilisticDissemination::new(100, sys.quorum_size() as u32 - 1, 4).unwrap();
            assert!(smaller.epsilon() > 1e-3);
        }
    }

    #[test]
    fn graceful_degradation_with_fewer_faults() {
        // Remark after Theorem 4.6: with fewer actual faults the achieved
        // intersection probability only improves.
        let strong = ProbabilisticDissemination::new(400, 50, 100).unwrap();
        let weaker_adversary = ProbabilisticDissemination::new(400, 50, 9).unwrap();
        assert!(weaker_adversary.epsilon() < strong.epsilon());
    }

    #[test]
    fn sampling_and_measures() {
        let sys = ProbabilisticDissemination::new(100, 24, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let q = sys.sample_quorum(&mut rng);
        assert_eq!(q.len(), 24);
        assert!((sys.load() - 0.24).abs() < 1e-12);
        assert!((sys.ell() - 2.4).abs() < 1e-12);
        assert!((sys.alpha() - 0.04).abs() < 1e-12);
        assert!(sys.name().contains("dissemination-R"));
        assert_eq!(sys.failure_probability(0.0), 0.0);
        assert!((sys.failure_probability(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_containment_rate_matches_epsilon() {
        // Monte-Carlo check of Definition 4.1 for a moderately small system.
        let sys = ProbabilisticDissemination::new(60, 12, 20).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let b_set = crate::quorum::Quorum::from_indices(sys.universe(), 0u32..20).unwrap();
        let trials = 40_000;
        let mut contained = 0usize;
        for _ in 0..trials {
            let q1 = sys.sample_quorum(&mut rng);
            let q2 = sys.sample_quorum(&mut rng);
            if q1.intersection(&q2).is_subset_of(&b_set) {
                contained += 1;
            }
        }
        let empirical = contained as f64 / trials as f64;
        assert!(
            (empirical - sys.epsilon()).abs() < 0.012,
            "empirical={empirical} exact={}",
            sys.epsilon()
        );
    }
}
