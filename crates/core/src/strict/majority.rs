//! Threshold (majority) quorum systems.
//!
//! The quorums are *all* subsets of a fixed size `q` with `2q > n`, so any
//! two quorums intersect.  With `q = ⌈(n+1)/2⌉` this is the classical
//! majority system of Thomas and Gifford; it has the best failure
//! probability of any strict quorum system when `p < ½` (\[BG87\], \[PW95\]) and
//! is the "Threshold" comparator of Tables 2–4 and Figures 1–3.
//!
//! The system is *implicit*: its `C(n, q)` quorums are never enumerated; the
//! uniform access strategy samples a random `q`-subset directly.  It is the
//! paper's `R(n, q)` set system with `2q > n`, so it adds nothing to the
//! shared core but that condition.

use crate::rnq::{quorum_system_via_core, Rnq};
use crate::CoreError;

/// The threshold quorum system: all `q`-subsets of `n` servers, `2q > n`,
/// accessed uniformly at random.
///
/// Load `q/n` (the general formula `E[|Q|]/n` of Lemma 3.10 holds with
/// equality), fault tolerance `n − q + 1` and the exact binomial-tail failure
/// probability come from the shared `R(n, q)` core.
///
/// # Examples
///
/// ```
/// use pqs_core::strict::Majority;
/// use pqs_core::system::QuorumSystem;
/// let m = Majority::new(100).unwrap();
/// assert_eq!(m.min_quorum_size(), 51);
/// assert_eq!(m.fault_tolerance(), 50);
/// assert!((m.load() - 0.51).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Majority {
    core: Rnq,
}

impl Majority {
    /// The classical majority system with quorums of size `⌈(n+1)/2⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if `n` is zero.
    pub fn new(n: u32) -> crate::Result<Self> {
        Self::with_quorum_size(n, n / 2 + 1)
    }

    /// A threshold system with an explicit quorum size `q`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] unless `0 < q ≤ n` and
    /// `2q > n` (the condition for any two `q`-subsets to intersect).
    pub fn with_quorum_size(n: u32, q: u32) -> crate::Result<Self> {
        let core = Rnq::new(n, q)?;
        if !core.always_intersects() {
            return Err(CoreError::invalid(format!(
                "quorum size {q} over {n} servers does not guarantee intersection (need 2q > n)"
            )));
        }
        Ok(Majority { core })
    }
}

quorum_system_via_core!(Majority, |s| format!(
    "threshold(n={}, q={})",
    s.core.n(),
    s.core.q()
));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QuorumSystem;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_validations() {
        assert!(Majority::new(0).is_err());
        assert!(Majority::with_quorum_size(10, 0).is_err());
        assert!(Majority::with_quorum_size(10, 11).is_err());
        assert!(
            Majority::with_quorum_size(10, 5).is_err(),
            "2q <= n rejected"
        );
        assert!(Majority::with_quorum_size(10, 6).is_ok());
        assert!(Majority::with_quorum_size(1, 1).is_ok());
    }

    #[test]
    fn majority_sizes_match_table_two() {
        // Table 2 threshold quorum sizes: 13, 51, 113, 201, 313, 451.
        let expected = [
            (25, 13),
            (100, 51),
            (225, 113),
            (400, 201),
            (625, 313),
            (900, 451),
        ];
        for (n, size) in expected {
            let m = Majority::new(n).unwrap();
            assert_eq!(m.quorum_size(), size as usize, "n={n}");
            // Fault tolerance equals quorum size for odd-majority systems
            // (Table 2 lists identical columns).
            assert_eq!(m.fault_tolerance(), n - size + 1);
        }
    }

    #[test]
    fn sampling_produces_valid_quorums() {
        let m = Majority::new(30).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            let q = m.sample_quorum(&mut rng);
            assert_eq!(q.len(), 16);
            assert!(q.iter().all(|s| s.index() < 30));
        }
    }

    #[test]
    fn load_and_expected_size() {
        let m = Majority::new(99).unwrap();
        assert_eq!(m.min_quorum_size(), 50);
        assert!((m.load() - 50.0 / 99.0).abs() < 1e-12);
        assert_eq!(m.expected_quorum_size(), 50.0);
        assert!(m.name().contains("threshold"));
    }

    #[test]
    fn failure_probability_extremes_and_monotonicity() {
        let m = Majority::new(50).unwrap();
        assert_eq!(m.failure_probability(0.0), 0.0);
        assert!((m.failure_probability(1.0) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let f = m.failure_probability(p);
            assert!(f + 1e-12 >= prev, "p={p}");
            prev = f;
        }
    }

    #[test]
    fn failure_probability_at_half_is_about_half_for_odd_n() {
        // For odd n and q = (n+1)/2, failure iff more than (n-1)/2 crash,
        // which at p = 1/2 has probability exactly 1/2.
        let m = Majority::new(101).unwrap();
        let f = m.failure_probability(0.5);
        assert!((f - 0.5).abs() < 1e-9, "f={f}");
    }

    #[test]
    fn bigger_majorities_fail_more_often() {
        // A threshold system with larger q (e.g. masking-style sizes) has
        // strictly worse failure probability at the same p.
        let small = Majority::new(100).unwrap();
        let large = Majority::with_quorum_size(100, 80).unwrap();
        for &p in &[0.1, 0.2, 0.3] {
            assert!(large.failure_probability(p) > small.failure_probability(p));
        }
    }
}
