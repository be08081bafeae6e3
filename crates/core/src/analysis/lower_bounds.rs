//! Lower-bound formulas: Table I and the probabilistic load bounds.

/// Table I: lower bound `√(1/n)` on the load of any strict quorum system
/// (\[NW98\]).
pub fn strict_load_lower_bound(n: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (1.0 / n as f64).sqrt()
}

/// Table I: lower bound `√((b+1)/n)` on the load of any strict
/// b-dissemination quorum system (\[MR98a\]).
pub fn dissemination_load_lower_bound(n: u32, b: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    ((b as f64 + 1.0) / n as f64).sqrt().min(1.0)
}

/// Table I: lower bound `√((2b+1)/n)` on the load of any strict b-masking
/// quorum system (\[MRW00\]).
pub fn masking_load_lower_bound(n: u32, b: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    ((2.0 * b as f64 + 1.0) / n as f64).sqrt().min(1.0)
}

/// Corollary 3.12: the load of any ε-intersecting system is at least
/// `(1 − √ε)/√n`.
pub fn corollary_3_12_bound(n: u32, epsilon: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (1.0 - epsilon.clamp(0.0, 1.0).sqrt()) / (n as f64).sqrt()
}

/// Theorem 5.5: the load of any (b, ε)-masking quorum system is larger than
/// `((1 − 2ε)/(1 − ε)) · b/n`.
pub fn masking_probabilistic_load_lower_bound(n: u32, b: u32, epsilon: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let eps = epsilon.clamp(0.0, 0.5);
    ((1.0 - 2.0 * eps) / (1.0 - eps)) * b as f64 / n as f64
}

/// One row of Table I, for the harness that regenerates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOneRow {
    /// Universe size the row is evaluated for.
    pub n: u32,
    /// Byzantine threshold used for the dissemination/masking columns.
    pub b: u32,
    /// `√(1/n)`.
    pub strict_load: f64,
    /// `√((b+1)/n)`.
    pub dissemination_load: f64,
    /// `√((2b+1)/n)`.
    pub masking_load: f64,
    /// `⌊(n−1)/3⌋`.
    pub dissemination_max_b: u32,
    /// `⌊(n−1)/4⌋`.
    pub masking_max_b: u32,
}

/// Computes one row of Table I.
pub fn table_one_row(n: u32, b: u32) -> TableOneRow {
    TableOneRow {
        n,
        b,
        strict_load: strict_load_lower_bound(n),
        dissemination_load: dissemination_load_lower_bound(n, b),
        masking_load: masking_load_lower_bound(n, b),
        dissemination_max_b: crate::byzantine::max_dissemination_threshold(n),
        masking_max_b: crate::byzantine::max_masking_threshold(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::{DisseminationThreshold, MaskingThreshold};
    use crate::strict::{Grid, Majority};
    use crate::system::QuorumSystem;

    #[test]
    fn strict_bound_values() {
        assert!((strict_load_lower_bound(100) - 0.1).abs() < 1e-12);
        assert_eq!(strict_load_lower_bound(0), 0.0);
        assert!((dissemination_load_lower_bound(100, 4) - (5.0f64 / 100.0).sqrt()).abs() < 1e-12);
        assert!((masking_load_lower_bound(100, 4) - (9.0f64 / 100.0).sqrt()).abs() < 1e-12);
        // Clamped to 1 for absurd b (`b + 1` and `2b + 1` are not computed
        // in `u32`).
        assert_eq!(dissemination_load_lower_bound(10, 100), 1.0);
        assert_eq!(dissemination_load_lower_bound(10, u32::MAX), 1.0);
        assert_eq!(masking_load_lower_bound(10, u32::MAX), 1.0);
    }

    #[test]
    fn strict_constructions_respect_their_bounds() {
        for &n in &[25u32, 100, 400] {
            let b = ((n as f64).sqrt() as u32 - 1) / 2;
            assert!(Majority::new(n).unwrap().load() + 1e-12 >= strict_load_lower_bound(n));
            assert!(Grid::new(n).unwrap().load() + 1e-12 >= strict_load_lower_bound(n));
            assert!(
                DisseminationThreshold::new(n, b).unwrap().load() + 1e-12
                    >= dissemination_load_lower_bound(n, b)
            );
            assert!(
                MaskingThreshold::new(n, b).unwrap().load() + 1e-12
                    >= masking_load_lower_bound(n, b)
            );
        }
    }

    #[test]
    fn probabilistic_masking_beats_strict_bound_but_not_theorem_5_5() {
        use crate::probabilistic::ProbabilisticMasking;
        use crate::system::ProbabilisticQuorumSystem;
        // b = sqrt(n), l chosen so that the quorum is o(sqrt(bn)).
        let n = 10_000u32;
        let b = 100u32;
        let sys = ProbabilisticMasking::with_ell(n, (n as f64).powf(0.2), b).unwrap();
        // Beats the strict masking bound...
        assert!(sys.load() < masking_load_lower_bound(n, b));
        // ...but still respects Theorem 5.5.
        assert!(sys.load() + 1e-12 >= masking_probabilistic_load_lower_bound(n, b, sys.epsilon()));
    }

    #[test]
    fn corollary_3_12_and_theorem_3_9_consistency() {
        use crate::probabilistic::EpsilonIntersecting;
        use crate::system::ProbabilisticQuorumSystem;
        let sys = EpsilonIntersecting::with_target_epsilon(400, 1e-3).unwrap();
        let cor = corollary_3_12_bound(400, sys.epsilon());
        let thm = crate::measures::probabilistic_load_lower_bound(
            400,
            sys.expected_quorum_size(),
            sys.epsilon(),
        );
        // The theorem's bound is at least as strong as the corollary's.
        assert!(thm + 1e-12 >= cor);
        assert!(sys.load() + 1e-12 >= thm);
        assert_eq!(corollary_3_12_bound(0, 0.1), 0.0);
    }

    #[test]
    fn table_one_row_is_consistent() {
        let row = table_one_row(100, 4);
        assert_eq!(row.n, 100);
        assert_eq!(row.b, 4);
        assert_eq!(row.dissemination_max_b, 33);
        assert_eq!(row.masking_max_b, 24);
        assert!(row.strict_load < row.dissemination_load);
        assert!(row.dissemination_load < row.masking_load);
    }

    #[test]
    fn theorem_5_5_degenerate_epsilon() {
        // Epsilon >= 1/2 gives a vacuous (zero) bound.
        assert_eq!(masking_probabilistic_load_lower_bound(100, 10, 0.5), 0.0);
        assert_eq!(masking_probabilistic_load_lower_bound(0, 10, 0.1), 0.0);
    }
}
