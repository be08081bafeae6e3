//! Threshold constructions of strict Byzantine quorum systems.
//!
//! The quorums are all subsets of size `q`, with `q` chosen so that any two
//! quorums overlap in enough servers:
//!
//! * dissemination: `q = ⌈(n + b + 1)/2⌉` gives `|Q ∩ Q′| ≥ 2q − n ≥ b + 1`;
//! * masking: `q = ⌈(n + 2b + 1)/2⌉` gives `|Q ∩ Q′| ≥ 2b + 1`.
//!
//! These are the "Threshold" comparators of Tables 3 and 4 and the strict
//! curves on the right of Figures 2 and 3.  Both are the paper's `R(n, q)`
//! set system: what each adds to the shared core is `b` and the overlap that
//! fixes `q`.

use crate::rnq::{quorum_system_via_core, Rnq};
use crate::system::ByzantineQuorumSystem;
use crate::CoreError;

/// `R(n, q)` with the smallest `q` for which any two quorums share at least
/// `overlap` servers — they share `2q − n`, so `q = ⌈(n + overlap)/2⌉` — or
/// an error if `b` exceeds the resilience bound `max_b` (which is also what
/// keeps `q ≤ n`).
fn strict_threshold(kind: &str, n: u32, b: u32, max_b: u32, overlap: u64) -> crate::Result<Rnq> {
    if b > max_b {
        return Err(CoreError::invalid(format!(
            "b={b} exceeds the {kind} resilience bound {max_b} for n={n}"
        )));
    }
    Rnq::new(n, (n as u64 + overlap).div_ceil(2) as u32)
}

/// Strict b-dissemination threshold system: all subsets of size
/// `⌈(n + b + 1)/2⌉`.
///
/// # Examples
///
/// ```
/// use pqs_core::byzantine::DisseminationThreshold;
/// use pqs_core::system::{ByzantineQuorumSystem, QuorumSystem};
/// let d = DisseminationThreshold::new(100, 4).unwrap();
/// assert_eq!(d.min_quorum_size(), 53);           // Table 3
/// assert_eq!(d.fault_tolerance(), 48);           // Table 3
/// assert_eq!(d.byzantine_threshold(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisseminationThreshold {
    core: Rnq,
    byzantine: u32,
}

impl DisseminationThreshold {
    /// Creates a b-dissemination threshold system over `n` servers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if `n` is zero or
    /// `b > ⌊(n − 1)/3⌋` (beyond the resilience bound of Table I, the
    /// required quorums would have to overlap in more servers than they
    /// contain).
    pub fn new(n: u32, b: u32) -> crate::Result<Self> {
        let max_b = super::max_dissemination_threshold(n);
        Ok(DisseminationThreshold {
            core: strict_threshold("dissemination", n, b, max_b, b as u64 + 1)?,
            byzantine: b,
        })
    }
}

quorum_system_via_core!(DisseminationThreshold, |s| format!(
    "dissemination-threshold(n={}, b={})",
    s.core.n(),
    s.byzantine
));

impl ByzantineQuorumSystem for DisseminationThreshold {
    fn byzantine_threshold(&self) -> u32 {
        self.byzantine
    }
}

/// Strict b-masking threshold system: all subsets of size
/// `⌈(n + 2b + 1)/2⌉`.
///
/// # Examples
///
/// ```
/// use pqs_core::byzantine::MaskingThreshold;
/// use pqs_core::system::{ByzantineQuorumSystem, QuorumSystem};
/// let m = MaskingThreshold::new(100, 4).unwrap();
/// assert_eq!(m.min_quorum_size(), 55);           // Table 4
/// assert_eq!(m.fault_tolerance(), 46);           // Table 4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskingThreshold {
    core: Rnq,
    byzantine: u32,
}

impl MaskingThreshold {
    /// Creates a b-masking threshold system over `n` servers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if `n` is zero or
    /// `b > ⌊(n − 1)/4⌋`.
    pub fn new(n: u32, b: u32) -> crate::Result<Self> {
        let max_b = super::max_masking_threshold(n);
        Ok(MaskingThreshold {
            core: strict_threshold("masking", n, b, max_b, 2 * b as u64 + 1)?,
            byzantine: b,
        })
    }
}

quorum_system_via_core!(MaskingThreshold, |s| format!(
    "masking-threshold(n={}, b={})",
    s.core.n(),
    s.byzantine
));

impl ByzantineQuorumSystem for MaskingThreshold {
    fn byzantine_threshold(&self) -> u32 {
        self.byzantine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QuorumSystem;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dissemination_sizes_match_table_three() {
        // Table 3 threshold quorum sizes and fault tolerances
        // (n=225 row corrected for the obvious typo in the scanned table).
        let expected = [
            (25u32, 2u32, 14usize, 12u32),
            (100, 4, 53, 48),
            (225, 7, 117, 109),
            (400, 9, 205, 196),
            (625, 12, 319, 307),
            (900, 14, 458, 443),
        ];
        for (n, b, size, ft) in expected {
            let d = DisseminationThreshold::new(n, b).unwrap();
            assert_eq!(d.quorum_size(), size, "n={n}");
            assert_eq!(d.fault_tolerance(), ft, "n={n}");
        }
    }

    #[test]
    fn masking_sizes_match_table_four() {
        let expected = [
            (25u32, 2u32, 15usize, 11u32),
            (100, 4, 55, 46),
            (225, 7, 120, 106),
            (400, 9, 210, 191),
            (625, 12, 325, 301),
            (900, 14, 465, 436),
        ];
        for (n, b, size, ft) in expected {
            let m = MaskingThreshold::new(n, b).unwrap();
            assert_eq!(m.quorum_size(), size, "n={n}");
            assert_eq!(m.fault_tolerance(), ft, "n={n}");
        }
    }

    #[test]
    fn resilience_bounds_enforced() {
        assert!(DisseminationThreshold::new(100, 33).is_ok());
        assert!(DisseminationThreshold::new(100, 34).is_err());
        assert!(MaskingThreshold::new(100, 24).is_ok());
        assert!(MaskingThreshold::new(100, 25).is_err());
        assert!(DisseminationThreshold::new(0, 0).is_err());
        assert!(MaskingThreshold::new(0, 0).is_err());
    }

    #[test]
    fn overlap_guarantees_hold_for_worst_case_quorums() {
        // The two "extreme" quorums 0..q and n-q..n overlap in exactly 2q-n
        // servers, which must still meet the requirement.
        let n = 100u32;
        let b = 4u32;
        let d = DisseminationThreshold::new(n, b).unwrap();
        assert!(2 * d.quorum_size() as i64 - n as i64 >= (b + 1) as i64);
        let m = MaskingThreshold::new(n, b).unwrap();
        assert!(2 * m.quorum_size() as i64 - n as i64 >= (2 * b + 1) as i64);
    }

    #[test]
    fn sampling_and_measures() {
        let d = DisseminationThreshold::new(25, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let q = d.sample_quorum(&mut rng);
        assert_eq!(q.len(), 14);
        assert!((d.load() - 14.0 / 25.0).abs() < 1e-12);
        assert!(d.failure_probability(0.0).abs() < 1e-12);
        assert!((d.failure_probability(1.0) - 1.0).abs() < 1e-12);
        assert!(d.name().contains("dissemination"));

        let m = MaskingThreshold::new(25, 2).unwrap();
        let q = m.sample_quorum(&mut rng);
        assert_eq!(q.len(), 15);
        assert!(m.name().contains("masking"));
    }

    #[test]
    fn byzantine_threshold_accessor() {
        use crate::system::ByzantineQuorumSystem;
        assert_eq!(
            DisseminationThreshold::new(100, 7)
                .unwrap()
                .byzantine_threshold(),
            7
        );
        assert_eq!(
            MaskingThreshold::new(100, 7).unwrap().byzantine_threshold(),
            7
        );
    }

    #[test]
    fn masking_failure_probability_worse_than_dissemination() {
        // Larger quorums -> worse availability at the same p.
        let d = DisseminationThreshold::new(100, 4).unwrap();
        let m = MaskingThreshold::new(100, 4).unwrap();
        for &p in &[0.2, 0.4] {
            assert!(m.failure_probability(p) >= d.failure_probability(p));
        }
    }
}
