//! The Maekawa-style grid quorum system.
//!
//! The `n = d²` servers are laid out in a `d × d` grid; a quorum is the
//! union of one full row and one full column (\[Mae85\], \[CAA90\]).  Any two
//! quorums intersect (the row of one meets the column of the other), quorums
//! have size `2d − 1 = O(√n)` — so the load is near-optimal — but the fault
//! tolerance is only `d = √n`: crashing one server per row disables every
//! quorum.  This is the "Grid" comparator of Table 2.
//!
//! It is the crate's row-and-column core (`grid_core.rs`) with one row and
//! one column; what it adds is that its `d²` quorums are few enough to
//! enumerate.

use crate::grid_core::GridCore;
use crate::quorum::Quorum;
use crate::rnq::quorum_system_via_core;
use crate::strategy::WeightedStrategy;
use crate::system::ExplicitQuorumSystem;

/// The grid quorum system over `n = d²` servers.
///
/// Load `(2d − 1)/d²`, fault tolerance `d` (one crash per row, or per
/// column, hits every quorum) and the exact failure probability come from
/// the shared grid core.
///
/// # Examples
///
/// ```
/// use pqs_core::strict::Grid;
/// use pqs_core::system::QuorumSystem;
/// let g = Grid::new(100).unwrap();
/// assert_eq!(g.min_quorum_size(), 19);   // 2·10 − 1
/// assert_eq!(g.fault_tolerance(), 10);   // one crash per row suffices
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    core: GridCore,
}

impl Grid {
    /// Creates a grid system over `n` servers.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConstruction`](crate::CoreError::InvalidConstruction)
    /// if `n` is not a positive perfect square.
    pub fn new(n: u32) -> crate::Result<Self> {
        // One row and one column always cross: any two quorums share a server.
        Ok(Grid {
            core: GridCore::new("grid system", n, 1)?,
        })
    }

    /// The side length `d = √n` of the grid.
    pub fn side(&self) -> u32 {
        self.core.side()
    }

    /// The quorum formed by row `row` and column `col` (both `0..d`).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConstruction`](crate::CoreError::InvalidConstruction)
    /// if either index is out of range.
    pub fn quorum_for(&self, row: u32, col: u32) -> crate::Result<Quorum> {
        self.core.quorum_for(&[row], &[col])
    }
}

quorum_system_via_core!(Grid, |s| format!("grid(n={})", s.core.universe().size()));

impl ExplicitQuorumSystem for Grid {
    /// The `d²` (row, column) pairs, row-major.
    fn quorums(&self) -> Vec<Quorum> {
        let d = self.side();
        (0..d)
            .flat_map(|row| (0..d).map(move |col| (row, col)))
            .map(|(row, col)| self.quorum_for(row, col).expect("in range"))
            .collect()
    }

    fn strategy(&self) -> WeightedStrategy {
        WeightedStrategy::uniform(self.core.universe().size() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QuorumSystem;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_non_square_universes() {
        assert!(Grid::new(0).is_err());
        assert!(Grid::new(26).is_err());
        assert!(Grid::new(99).is_err());
        assert!(Grid::new(25).is_ok());
        assert!(Grid::new(1).is_ok());
    }

    #[test]
    fn table_two_grid_columns() {
        // Table 2 grid quorum sizes 9, 19, 29, 39, 49, 59 and fault
        // tolerances 5, 10, 15, 20, 25, 30.
        let expected = [
            (25u32, 9usize, 5u32),
            (100, 19, 10),
            (225, 29, 15),
            (400, 39, 20),
            (625, 49, 25),
            (900, 59, 30),
        ];
        for (n, size, ft) in expected {
            let g = Grid::new(n).unwrap();
            assert_eq!(g.min_quorum_size(), size, "n={n}");
            assert_eq!(g.fault_tolerance(), ft, "n={n}");
        }
    }

    #[test]
    fn quorum_for_is_row_plus_column() {
        let g = Grid::new(25).unwrap();
        let q = g.quorum_for(1, 2).unwrap();
        assert_eq!(q.len(), 9);
        // Row 1 is servers 5..10; column 2 is servers 2, 7, 12, 17, 22.
        for idx in [5u32, 6, 7, 8, 9, 2, 12, 17, 22] {
            assert!(q.contains(crate::universe::ServerId::new(idx)), "{idx}");
        }
        assert!(g.quorum_for(5, 0).is_err());
        assert!(g.quorum_for(0, 5).is_err());
    }

    #[test]
    fn enumerated_quorums_count_and_sizes() {
        let g = Grid::new(16).unwrap();
        let quorums = g.quorums();
        assert_eq!(quorums.len(), 16);
        assert!(quorums.iter().all(|q| q.len() == 7));
        assert_eq!(g.strategy().len(), 16);
    }

    #[test]
    fn sampling_matches_enumeration() {
        let g = Grid::new(25).unwrap();
        let all = g.quorums();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let q = g.sample_quorum(&mut rng);
            assert!(all.contains(&q));
        }
    }

    #[test]
    fn load_matches_induced_load_formula() {
        let g = Grid::new(100).unwrap();
        assert!((g.load() - 19.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn failure_probability_extremes() {
        let g = Grid::new(25).unwrap();
        assert!(g.failure_probability(0.0).abs() < 1e-12);
        assert!((g.failure_probability(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failure_probability_matches_monte_carlo() {
        let g = Grid::new(25).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for &p in &[0.1, 0.3, 0.5] {
            let analytic = g.failure_probability(p);
            let trials = 20_000;
            let mut failures = 0usize;
            for _ in 0..trials {
                // Simulate crashes and check whether some quorum survives:
                // need a fully-alive row and a fully-alive column.
                let crashed: Vec<bool> = (0..25).map(|_| rng.gen_bool(p)).collect();
                let clean_row = (0..5).any(|r| (0..5).all(|c| !crashed[r * 5 + c]));
                let clean_col = (0..5).any(|c| (0..5).all(|r| !crashed[r * 5 + c]));
                if !(clean_row && clean_col) {
                    failures += 1;
                }
            }
            let empirical = failures as f64 / trials as f64;
            assert!(
                (empirical - analytic).abs() < 0.015,
                "p={p} analytic={analytic} empirical={empirical}"
            );
        }
    }

    #[test]
    fn grid_worse_fault_tolerance_than_majority_despite_lower_load() {
        use crate::strict::Majority;
        let g = Grid::new(400).unwrap();
        let m = Majority::new(400).unwrap();
        assert!(g.load() < m.load());
        assert!(g.fault_tolerance() < m.fault_tolerance());
    }
}
