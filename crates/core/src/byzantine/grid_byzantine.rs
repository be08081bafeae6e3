//! Grid constructions of strict Byzantine quorum systems (\[MRW00\]).
//!
//! The `n = d²` servers are laid out in a `d × d` grid and a quorum is the
//! union of `r` full rows and `r` full columns.  Two such quorums always
//! share at least `2r²` cells (the rows of one crossed with the columns of
//! the other), so
//!
//! * `r = ⌈√((b+1)/2)⌉` yields a strict b-dissemination system, and
//! * `r = ⌈√((2b+1)/2)⌉` yields a strict b-masking system.
//!
//! Quorums have `2rd − r²` servers.  These are the "Grid" comparators of
//! Tables 3 and 4 (e.g. for `n = 400`, `b = 9` the dissemination grid quorum
//! has `2·3·20 − 9 = 111` servers and the masking grid `2·4·20 − 16 = 144`).
//!
//! Both are the crate's row-and-column core (`grid_core.rs`): what each
//! adds is `b` and the overlap that fixes `r`.

use crate::grid_core::GridCore;
use crate::quorum::Quorum;
use crate::rnq::quorum_system_via_core;
use crate::system::ByzantineQuorumSystem;

macro_rules! byzantine_grid_system {
    ($name:ident, $label:literal, $overlap:expr, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            core: GridCore,
            byzantine: u32,
        }

        impl $name {
            /// Creates the system over `n = d²` servers tolerating `b`
            /// Byzantine failures.
            ///
            /// # Errors
            ///
            /// Returns [`InvalidConstruction`](crate::CoreError::InvalidConstruction)
            /// if `n` is not a perfect square, the required number of
            /// rows/columns exceeds the grid side, or the resulting fault
            /// tolerance would not exceed `b`.
            pub fn new(n: u32, b: u32) -> crate::Result<Self> {
                let overlap: u64 = $overlap(b as u64);
                Ok(Self {
                    core: GridCore::against_byzantine(concat!($label, " grid"), n, b, overlap)?,
                    byzantine: b,
                })
            }

            /// Number of rows (equivalently columns) in each quorum.
            pub fn rows_and_cols(&self) -> u32 {
                self.core.rows_and_cols()
            }

            /// The quorum formed by the given rows and columns.
            ///
            /// # Errors
            ///
            /// Returns an error unless exactly `r` in-range rows and `r`
            /// in-range columns are supplied.
            pub fn quorum_for(&self, rows: &[u32], cols: &[u32]) -> crate::Result<Quorum> {
                self.core.quorum_for(rows, cols)
            }

            /// Analytical upper bound on the failure probability
            /// (union bound over "too few clean rows" / "too few clean
            /// columns"); `failure_probability` itself is exact.
            pub fn failure_probability_upper_bound(&self, p: f64) -> f64 {
                self.core.failure_probability_union_bound(p)
            }
        }

        quorum_system_via_core!($name, |s| format!(
            concat!($label, "-grid(n={}, b={})"),
            s.core.universe().size(),
            s.byzantine
        ));

        impl ByzantineQuorumSystem for $name {
            fn byzantine_threshold(&self) -> u32 {
                self.byzantine
            }
        }
    };
}

byzantine_grid_system!(
    DisseminationGrid,
    "dissemination",
    |b: u64| b + 1,
    "Strict b-dissemination grid system: quorums are `⌈√((b+1)/2)⌉` rows plus as many columns, so any two quorums overlap in at least `b + 1` servers.  Sampler, sizes and the exact failure probability come from the shared grid core.\n\n# Examples\n\n```\nuse pqs_core::byzantine::DisseminationGrid;\nuse pqs_core::system::QuorumSystem;\nlet g = DisseminationGrid::new(400, 9).unwrap();\nassert_eq!(g.min_quorum_size(), 111); // Table 3\n```"
);

byzantine_grid_system!(
    MaskingGrid,
    "masking",
    |b: u64| 2 * b + 1,
    "Strict b-masking grid system: quorums are `⌈√((2b+1)/2)⌉` rows plus as many columns, so any two quorums overlap in at least `2b + 1` servers.  Sampler, sizes and the exact failure probability come from the shared grid core.\n\n# Examples\n\n```\nuse pqs_core::byzantine::MaskingGrid;\nuse pqs_core::system::QuorumSystem;\nlet g = MaskingGrid::new(400, 9).unwrap();\nassert_eq!(g.min_quorum_size(), 144); // Table 4\n```"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QuorumSystem;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dissemination_grid_sizes_match_table_three() {
        // (n, b, quorum size); n=900 entry corrected for the scanned table's
        // obvious typo (771 -> 171 = 2*3*30 - 9).
        let expected = [
            (25u32, 2u32, 16usize),
            (100, 4, 36),
            (225, 7, 56),
            (400, 9, 111),
            (625, 12, 141),
            (900, 14, 171),
        ];
        for (n, b, size) in expected {
            let g = DisseminationGrid::new(n, b).unwrap();
            assert_eq!(g.quorum_size(), size, "n={n} b={b}");
        }
    }

    #[test]
    fn masking_grid_sizes_match_table_four() {
        let expected = [
            (25u32, 2u32, 16usize),
            (100, 4, 51),
            (225, 7, 81),
            (400, 9, 144),
            (625, 12, 184),
            (900, 14, 224),
        ];
        for (n, b, size) in expected {
            let g = MaskingGrid::new(n, b).unwrap();
            assert_eq!(g.quorum_size(), size, "n={n} b={b}");
        }
    }

    #[test]
    fn construction_validation() {
        assert!(DisseminationGrid::new(0, 1).is_err());
        assert!(DisseminationGrid::new(26, 2).is_err(), "not a square");
        // b so large that r would exceed the side.
        assert!(DisseminationGrid::new(25, 24).is_err());
        // b exceeding the fault tolerance d - r + 1.
        assert!(MaskingGrid::new(25, 4).is_err());
        assert!(MaskingGrid::new(25, 2).is_ok());
    }

    #[test]
    fn sampled_quorums_have_expected_size_and_structure() {
        let g = DisseminationGrid::new(100, 4).unwrap();
        assert_eq!(g.rows_and_cols(), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..50 {
            let q = g.sample_quorum(&mut rng);
            assert_eq!(q.len(), 36);
        }
    }

    #[test]
    fn explicit_quorum_for_overlap_requirement() {
        let g = MaskingGrid::new(100, 4).unwrap();
        let r = g.rows_and_cols();
        assert_eq!(r, 3);
        // Two quorums with disjoint rows and columns: worst-case overlap 2r².
        let q1 = g.quorum_for(&[0, 1, 2], &[0, 1, 2]).unwrap();
        let q2 = g.quorum_for(&[3, 4, 5], &[3, 4, 5]).unwrap();
        assert!(q1.intersection_size(&q2) >= (2 * 4 + 1) as usize);
        assert_eq!(q1.intersection_size(&q2), (2 * r * r) as usize);
        // Argument validation.
        assert!(g.quorum_for(&[0, 1], &[0, 1, 2]).is_err());
        assert!(g.quorum_for(&[0, 1, 99], &[0, 1, 2]).is_err());
    }

    #[test]
    fn fault_tolerance_is_d_minus_r_plus_one() {
        let g = DisseminationGrid::new(400, 9).unwrap();
        assert_eq!(g.rows_and_cols(), 3);
        assert_eq!(g.fault_tolerance(), 18);
        let m = MaskingGrid::new(400, 9).unwrap();
        assert_eq!(m.rows_and_cols(), 4);
        assert_eq!(m.fault_tolerance(), 17);
    }

    #[test]
    fn load_equals_quorum_fraction() {
        let g = DisseminationGrid::new(225, 7).unwrap();
        assert!((g.load() - 56.0 / 225.0).abs() < 1e-12);
    }

    #[test]
    fn failure_probability_extremes_and_bound() {
        let g = MaskingGrid::new(100, 4).unwrap();
        assert_eq!(g.failure_probability(0.0), 0.0);
        assert_eq!(g.failure_probability(1.0), 1.0);
        // Exact, so below the union bound with no slack (the lattice up to
        // d = 30 is walked beside the core).
        let (exact, ub) = (
            g.failure_probability(0.15),
            g.failure_probability_upper_bound(0.15),
        );
        assert!(0.0 < exact && exact <= ub, "exact={exact} ub={ub}");
    }

    #[test]
    fn byzantine_threshold_accessors() {
        assert_eq!(
            DisseminationGrid::new(100, 4)
                .unwrap()
                .byzantine_threshold(),
            4
        );
        assert_eq!(MaskingGrid::new(100, 4).unwrap().byzantine_threshold(), 4);
        assert!(DisseminationGrid::new(100, 4)
            .unwrap()
            .name()
            .contains("grid"));
    }
}
