//! Strict Byzantine quorum systems of Malkhi–Reiter (\[MR98a\], \[MRW00\]).
//!
//! When servers can fail arbitrarily, a non-empty intersection is not
//! enough: the overlap of a read quorum and the latest write quorum could
//! consist entirely of faulty servers.  Definition 2.7 therefore strengthens
//! the intersection requirement:
//!
//! * a **b-dissemination** quorum system has `|Q ∩ Q′| ≥ b + 1` for every
//!   pair of quorums (enough for *self-verifying* data, where faulty servers
//!   can suppress but not forge values);
//! * a **b-masking** quorum system has `|Q ∩ Q′| ≥ 2b + 1` (enough for
//!   arbitrary data, because correct servers outnumber faulty ones in the
//!   overlap).
//!
//! This module provides the threshold and grid constructions of both kinds;
//! they are the strict comparators of Tables 3 and 4 and Figures 2 and 3.
//! The two threshold systems are the paper's `R(n, q)` set system (the
//! crate-private `rnq.rs`) with `q` fixed by the required overlap; the two
//! grids are the crate's other core, `r` rows plus `r` columns of a
//! `√n × √n` array (`grid_core.rs`, shared with the strict
//! [`Grid`](crate::strict::Grid)), with `r` fixed by the required overlap —
//! their failure probability is exact, like the thresholds'.  All four get
//! their `QuorumSystem` impl from the one macro next to `R(n, q)`.
//! Their resilience is capped at `b ≤ ⌊(n−1)/3⌋` (dissemination) and
//! `b ≤ ⌊(n−1)/4⌋` (masking), and their load is at least `√((b+1)/n)` /
//! `√((2b+1)/n)` (Table I) — precisely the limitations the probabilistic
//! constructions of [`crate::probabilistic`] overcome.

mod grid_byzantine;
mod threshold_byzantine;

pub use grid_byzantine::{DisseminationGrid, MaskingGrid};
pub use threshold_byzantine::{DisseminationThreshold, MaskingThreshold};

/// The largest `b` for which a strict b-dissemination quorum system over `n`
/// servers exists: `⌊(n − 1)/3⌋` (Table I).
pub fn max_dissemination_threshold(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        (n - 1) / 3
    }
}

/// The largest `b` for which a strict b-masking quorum system over `n`
/// servers exists: `⌊(n − 1)/4⌋` (Table I).
pub fn max_masking_threshold(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        (n - 1) / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ByzantineQuorumSystem, QuorumSystem};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn resilience_caps_match_table_one() {
        assert_eq!(max_dissemination_threshold(100), 33);
        assert_eq!(max_masking_threshold(100), 24);
        assert_eq!(max_dissemination_threshold(4), 1);
        assert_eq!(max_masking_threshold(5), 1);
        assert_eq!(max_dissemination_threshold(0), 0);
        assert_eq!(max_masking_threshold(0), 0);
    }

    /// Dissemination systems: every sampled pair overlaps in at least b+1
    /// servers; masking systems: in at least 2b+1 (Definition 2.7).
    #[test]
    fn sampled_overlaps_meet_byzantine_requirements() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let dis: Vec<Box<dyn ByzantineQuorumSystem>> = vec![
            Box::new(DisseminationThreshold::new(25, 2).unwrap()),
            Box::new(DisseminationThreshold::new(100, 4).unwrap()),
            Box::new(DisseminationGrid::new(100, 4).unwrap()),
            Box::new(DisseminationGrid::new(400, 9).unwrap()),
        ];
        for system in &dis {
            let b = system.byzantine_threshold() as usize;
            for _ in 0..100 {
                let q1 = system.sample_quorum(&mut rng);
                let q2 = system.sample_quorum(&mut rng);
                assert!(
                    q1.intersection_size(&q2) > b,
                    "{}: overlap {} < b+1",
                    system.name(),
                    q1.intersection_size(&q2)
                );
            }
        }
        let mask: Vec<Box<dyn ByzantineQuorumSystem>> = vec![
            Box::new(MaskingThreshold::new(25, 2).unwrap()),
            Box::new(MaskingThreshold::new(100, 4).unwrap()),
            Box::new(MaskingGrid::new(100, 4).unwrap()),
            Box::new(MaskingGrid::new(625, 12).unwrap()),
        ];
        for system in &mask {
            let b = system.byzantine_threshold() as usize;
            for _ in 0..100 {
                let q1 = system.sample_quorum(&mut rng);
                let q2 = system.sample_quorum(&mut rng);
                assert!(
                    q1.intersection_size(&q2) > 2 * b,
                    "{}: overlap {} < 2b+1",
                    system.name(),
                    q1.intersection_size(&q2)
                );
            }
        }
    }

    /// Table I: the load of strict Byzantine systems is bounded below by
    /// sqrt((b+1)/n) and sqrt((2b+1)/n) respectively.
    #[test]
    fn loads_respect_table_one_lower_bounds() {
        for &(n, b) in &[(100u32, 4u32), (400, 9), (900, 14)] {
            let d = DisseminationThreshold::new(n, b).unwrap();
            assert!(d.load() + 1e-9 >= ((b + 1) as f64 / n as f64).sqrt());
            let m = MaskingThreshold::new(n, b).unwrap();
            assert!(m.load() + 1e-9 >= ((2 * b + 1) as f64 / n as f64).sqrt());
            let dg = DisseminationGrid::new(n, b).unwrap();
            assert!(dg.load() + 1e-9 >= ((b + 1) as f64 / n as f64).sqrt());
            let mg = MaskingGrid::new(n, b).unwrap();
            assert!(mg.load() + 1e-9 >= ((2 * b + 1) as f64 / n as f64).sqrt());
        }
    }
}
