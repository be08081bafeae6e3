//! Strict quorum systems (Definition 2.2) used as baselines.
//!
//! These are the classical constructions the paper compares its
//! probabilistic systems against in Section 6:
//!
//! * [`Majority`] — the threshold system with quorums of size
//!   `⌈(n+1)/2⌉` (\[Tho79\], \[Gif79\]); optimal failure probability for
//!   `p < ½` and the comparator on the right-hand side of Figure 1.  It is
//!   the paper's `R(n, q)` set system with `2q > n`: the sampler and the
//!   three measures come from the crate's one `R(n, q)` core (`rnq.rs`) and
//!   the type adds only that condition.
//! * [`Grid`] — Maekawa-style `√n × √n` grid where a quorum is one full row
//!   plus one full column (\[Mae85\], \[CAA90\]); near-optimal load but low
//!   fault tolerance (the Table 2 comparator).  It is the crate's other
//!   core, `r` rows plus `r` columns (`grid_core.rs`), at `r = 1`: sampler,
//!   measures and the exact failure probability come from there and the
//!   type adds only the enumeration of its `d²` quorums.
//!
//! (The strict floor of Figures 1–3 — the better of the majority and of a
//! single server, footnote 3 — is
//! `pqs_math::bounds::strict_failure_probability_floor`; it needs no system
//! of its own.)

mod grid;
mod majority;

pub use grid::Grid;
pub use majority::Majority;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ExplicitQuorumSystem, QuorumSystem};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Every strict construction must satisfy the defining pairwise
    /// intersection property (Definition 2.2) on sampled quorums.
    #[test]
    fn sampled_quorums_of_strict_systems_always_intersect() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let systems: Vec<Box<dyn QuorumSystem>> = vec![
            Box::new(Majority::new(10).unwrap()),
            Box::new(Majority::new(25).unwrap()),
            Box::new(Grid::new(25).unwrap()),
            Box::new(Grid::new(100).unwrap()),
        ];
        for system in &systems {
            for _ in 0..200 {
                let a = system.sample_quorum(&mut rng);
                let b = system.sample_quorum(&mut rng);
                assert!(
                    a.intersects(&b),
                    "{} produced disjoint quorums {a} and {b}",
                    system.name()
                );
            }
        }
    }

    /// Explicit systems' enumerated quorums must pairwise intersect, too.
    #[test]
    fn enumerated_quorums_pairwise_intersect() {
        let grid = Grid::new(25).unwrap();
        let quorums = grid.quorums();
        for (i, a) in quorums.iter().enumerate() {
            for b in &quorums[i..] {
                assert!(a.intersects(b));
            }
        }
    }

    /// The load lower bound L(Q) >= max(1/c(Q), c(Q)/n) from \[NW98\] must be
    /// respected by every reported load.
    #[test]
    fn reported_load_respects_naor_wool_lower_bound() {
        let systems: Vec<Box<dyn QuorumSystem>> = vec![
            Box::new(Majority::new(49).unwrap()),
            Box::new(Grid::new(49).unwrap()),
        ];
        for system in &systems {
            let c = system.min_quorum_size() as f64;
            let n = system.universe().size() as f64;
            let bound = (1.0 / c).max(c / n);
            assert!(
                system.load() + 1e-12 >= bound,
                "{}: load {} below bound {}",
                system.name(),
                system.load(),
                bound
            );
        }
    }

    /// Fault tolerance can never exceed the smallest quorum size
    /// (killing one full quorum disables every quorum it intersects —
    /// Section 2.2).
    #[test]
    fn fault_tolerance_at_most_min_quorum_size() {
        let systems: Vec<Box<dyn QuorumSystem>> = vec![
            Box::new(Majority::new(100).unwrap()),
            Box::new(Grid::new(100).unwrap()),
        ];
        for system in &systems {
            assert!(
                system.fault_tolerance() as usize <= system.min_quorum_size(),
                "{}",
                system.name()
            );
        }
    }
}
