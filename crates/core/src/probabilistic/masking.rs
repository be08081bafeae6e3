//! The (b, ε)-masking construction `R_k(n, q)` of Section 5.
//!
//! For arbitrary (non-self-verifying) data a reading client must be able to
//! *out-vote* the faulty servers: it only accepts a value returned by at
//! least `k` servers (Definition 5.1 and the modified read protocol of
//! Section 5).  The construction keeps the uniform `R(n, q)` set system,
//! sets `q = ℓ·b` with `ℓ > 2`, and uses the threshold `k = q²/2n`, which
//! sits strictly between `E[|Q ∩ B|] = q²/ℓn` and
//! `E[|Q ∩ Q′∖B|] ≈ q²/n·(1 − q/ℓn)` (Section 5.3).  Theorem 5.10 bounds
//! the error probability by `2·exp(−(q²/n)·min{ψ₁(ℓ), ψ₂(ℓ)})`, so any
//! `b < n/2` can be masked with arbitrarily small ε, and for `b = ω(√n)` the
//! load `ℓb/n` beats the `Ω(√(b/n))` lower bound of strict masking systems.

use crate::probabilistic::params::{self, exact_epsilon_masking, worst_case_epsilon_masking};
use crate::rnq::{quorum_size_for_ell, quorum_system_via_core, Rnq};
use crate::system::{ByzantineQuorumSystem, ProbabilisticQuorumSystem};
use crate::CoreError;
use pqs_math::bounds;

/// The (b, ε)-masking quorum system `R_k(n, q)`: all `q`-subsets accessed
/// uniformly, with read-acceptance threshold `k`.
///
/// Beyond the shared set system it holds `b`, `k` and its exact ε; load
/// (`q/n = ℓb/n`), fault tolerance and failure probability are those of
/// `R(n, q)` (Section 5.5, which quotes the Chernoff form
/// `e^{−2n(1−q/n−p)²}` of the last).
///
/// # Examples
///
/// ```
/// use pqs_core::probabilistic::ProbabilisticMasking;
/// use pqs_core::system::{ByzantineQuorumSystem, ProbabilisticQuorumSystem, QuorumSystem};
///
/// // Mask b = sqrt(n) Byzantine servers with load well below the strict
/// // masking lower bound sqrt(2b+1/n).
/// let sys = ProbabilisticMasking::with_target_epsilon(400, 20, 1e-3).unwrap();
/// assert!(sys.epsilon() <= 1e-3);
/// assert!(sys.read_threshold() >= 1);
/// assert_eq!(sys.byzantine_threshold(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticMasking {
    core: Rnq,
    byzantine: u32,
    threshold: u32,
    exact_epsilon: f64,
}

impl ProbabilisticMasking {
    /// Creates `R_k(n, q)` with the paper's threshold `k = ⌈q²/2n⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if the parameters are out
    /// of range: requires `0 < b < q`, `q ≤ n`, `ℓ = q/b > 2`, fault
    /// tolerance `n − q + 1 > b`, and `k ≤ q`.
    pub fn new(n: u32, q: u32, b: u32) -> crate::Result<Self> {
        let k = bounds::masking_threshold_k(n as u64, q as u64) as u32;
        Self::with_threshold(n, q, b, k)
    }

    /// Creates `R_k(n, q)` with an explicit read threshold `k`.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new); additionally `k` must be in `1..=q`.
    pub fn with_threshold(n: u32, q: u32, b: u32, k: u32) -> crate::Result<Self> {
        let core = Rnq::against_byzantine(n, q, b)?;
        if q as u64 <= 2 * b as u64 {
            return Err(CoreError::invalid(format!(
                "masking construction requires l = q/b > 2 (got q={q}, b={b})"
            )));
        }
        if k == 0 || k > q {
            return Err(CoreError::invalid(format!(
                "read threshold k={k} must be in 1..=q={q}"
            )));
        }
        Ok(ProbabilisticMasking {
            core,
            byzantine: b,
            threshold: k,
            exact_epsilon: exact_epsilon_masking(n, q, b, k)?,
        })
    }

    /// Creates the system with `q = ℓ·b` rounded to the nearest integer and
    /// `k = ⌈q²/2n⌉`.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new); additionally `ℓ` must exceed 2.
    pub fn with_ell(n: u32, ell: f64, b: u32) -> crate::Result<Self> {
        Self::new(n, quorum_size_for_ell(ell, b as f64, 2.0)?, b)
    }

    /// Creates the smallest system (scanning `q` upward from `2b + 1`) whose
    /// exact ε is at most `target_epsilon` — the Table 4 selection rule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if no quorum size achieves
    /// the target for this `n` and `b`.
    pub fn with_target_epsilon(n: u32, b: u32, target_epsilon: f64) -> crate::Result<Self> {
        let (q, k) = params::smallest_quorum_masking(n, b, target_epsilon)
            .ok_or_else(|| params::unattainable("masking", n, b, target_epsilon))?;
        Self::with_threshold(n, q, b, k)
    }

    /// The read-acceptance threshold `k`: a reading client only accepts a
    /// value reported by at least `k` servers of its quorum.
    pub fn read_threshold(&self) -> usize {
        self.threshold as usize
    }

    /// The paper's parameter `ℓ = q/b` (Section 5 measures quorums in units
    /// of `b`, not of `√n`).
    pub fn ell(&self) -> f64 {
        self.core.q() as f64 / self.byzantine as f64
    }

    /// The exact probability that the Definition 5.1 event fails (what
    /// [`ProbabilisticQuorumSystem::epsilon`] reports).
    pub fn exact_epsilon(&self) -> f64 {
        self.exact_epsilon
    }

    /// The pessimistic ε in which all `b` faulty servers lie inside the
    /// previous write quorum (the coupling of Lemma 5.9); an upper bound on
    /// [`exact_epsilon`](Self::exact_epsilon).
    pub fn worst_case_epsilon(&self) -> f64 {
        worst_case_epsilon_masking(self.core.n(), self.core.q(), self.byzantine, self.threshold)
            .expect("parameters validated at construction")
    }

    /// The Theorem 5.10 analytical bound
    /// `2·exp(−(q²/n)·min{ψ₁(ℓ), ψ₂(ℓ)})`.
    pub fn epsilon_bound(&self) -> f64 {
        bounds::masking_bound(self.core.n() as u64, self.core.q() as u64, self.ell())
    }
}

quorum_system_via_core!(ProbabilisticMasking, |s| format!(
    "masking-R(n={}, q={}, b={}, k={})",
    s.core.n(),
    s.core.q(),
    s.byzantine,
    s.threshold
));

impl ByzantineQuorumSystem for ProbabilisticMasking {
    fn byzantine_threshold(&self) -> u32 {
        self.byzantine
    }
}

impl ProbabilisticQuorumSystem for ProbabilisticMasking {
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
        assert!(ProbabilisticMasking::new(100, 38, 0).is_err());
        assert!(ProbabilisticMasking::new(100, 0, 4).is_err());
        assert!(ProbabilisticMasking::new(100, 101, 4).is_err());
        // l <= 2 rejected.
        assert!(ProbabilisticMasking::new(100, 8, 4).is_err());
        // Fault tolerance must exceed b.
        assert!(ProbabilisticMasking::new(100, 97, 4).is_err());
        assert!(ProbabilisticMasking::with_ell(100, 2.0, 4).is_err());
        assert!(ProbabilisticMasking::with_threshold(100, 38, 4, 0).is_err());
        assert!(ProbabilisticMasking::with_threshold(100, 38, 4, 39).is_err());
        assert!(ProbabilisticMasking::new(100, 38, 4).is_ok());
    }

    #[test]
    fn table_four_sizes_and_fault_tolerance() {
        // Table 4: (n, b, l, quorum size, fault tolerance). Note that in the
        // Section 6 tables l denotes q/sqrt(n) (consistent with Tables 2 and
        // 3), not the q/b ratio used inside the Section 5 analysis, so the
        // quorum size is l*sqrt(n).
        for &(n, b, ell_table, size, ft) in &[
            (25u32, 2u32, 3.00f64, 15usize, 11u32),
            (100, 4, 3.80, 38, 63),
            (225, 7, 4.27, 64, 162),
            (400, 9, 4.70, 94, 307),
            (625, 12, 4.92, 123, 503),
            (900, 14, 5.07, 152, 749),
        ] {
            let q = (ell_table * (n as f64).sqrt()).round() as u32;
            let sys = ProbabilisticMasking::new(n, q, b).unwrap();
            assert_eq!(sys.quorum_size(), size, "n={n}");
            assert_eq!(sys.fault_tolerance(), ft, "n={n}");
        }
    }

    #[test]
    fn threshold_is_paper_default() {
        let sys = ProbabilisticMasking::new(400, 94, 9).unwrap();
        // k = ceil(94^2 / 800) = ceil(11.045) = 12.
        assert_eq!(sys.read_threshold(), 12);
        let custom = ProbabilisticMasking::with_threshold(400, 94, 9, 10).unwrap();
        assert_eq!(custom.read_threshold(), 10);
    }

    #[test]
    fn epsilon_relations() {
        let sys = ProbabilisticMasking::new(400, 94, 9).unwrap();
        assert!(sys.exact_epsilon() <= sys.worst_case_epsilon() + 1e-12);
        assert!(sys.worst_case_epsilon() <= sys.epsilon_bound() + 1e-9);
        assert_eq!(sys.epsilon(), sys.exact_epsilon());
        assert!((sys.ell() - 94.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn with_target_epsilon_meets_target() {
        let sys = ProbabilisticMasking::with_target_epsilon(400, 20, 1e-3).unwrap();
        assert!(sys.epsilon() <= 1e-3);
        assert!(sys.quorum_size() > 40);
        assert!(ProbabilisticMasking::with_target_epsilon(20, 9, 1e-6).is_err());
    }

    #[test]
    fn masks_byzantine_thresholds_beyond_strict_limit() {
        // Strict masking caps at (n-1)/4; the probabilistic construction
        // handles b well beyond that (here n=900, b=250 > 224).
        let n = 900u32;
        let b = 250u32;
        let sys = ProbabilisticMasking::with_ell(n, 2.2, b).unwrap();
        assert!(sys.byzantine_threshold() > crate::byzantine::max_masking_threshold(n));
        assert!(sys.epsilon() < 1.0);
    }

    #[test]
    fn beats_strict_masking_load_for_b_omega_sqrt_n() {
        // Section 5.5: for b = sqrt(n) and l = n^{1/5} the load is O(n^-0.3),
        // beating the strict lower bound Omega(n^-0.25).
        let n = 10_000u32;
        let b = 100u32; // sqrt(n)
        let ell = (n as f64).powf(0.2);
        let sys = ProbabilisticMasking::with_ell(n, ell, b).unwrap();
        let strict_lower_bound = ((2 * b + 1) as f64 / n as f64).sqrt();
        assert!(
            sys.load() < strict_lower_bound,
            "load {} should beat strict bound {}",
            sys.load(),
            strict_lower_bound
        );
    }

    #[test]
    fn sampling_and_measures() {
        let sys = ProbabilisticMasking::new(100, 38, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let q = sys.sample_quorum(&mut rng);
        assert_eq!(q.len(), 38);
        assert!((sys.load() - 0.38).abs() < 1e-12);
        assert_eq!(sys.fault_tolerance(), 63);
        assert!(sys.name().contains("masking-R"));
        assert_eq!(sys.failure_probability(0.0), 0.0);
        assert!((sys.failure_probability(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_masking_event_matches_epsilon() {
        // Monte-Carlo check of Definition 5.1 on a moderate system.
        let sys = ProbabilisticMasking::new(80, 26, 8).unwrap();
        let k = sys.read_threshold();
        let b_set = crate::quorum::Quorum::from_indices(sys.universe(), 0u32..8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let trials = 40_000;
        let mut bad = 0usize;
        for _ in 0..trials {
            let read = sys.sample_quorum(&mut rng);
            let write = sys.sample_quorum(&mut rng);
            let x = read.faulty_overlap(&b_set);
            let y = read.correct_overlap(&write, &b_set);
            if !(x < k && y >= k) {
                bad += 1;
            }
        }
        let empirical = bad as f64 / trials as f64;
        assert!(
            (empirical - sys.epsilon()).abs() < 0.012,
            "empirical={empirical} exact={}",
            sys.epsilon()
        );
    }
}
