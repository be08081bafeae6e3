//! The paper's probabilistic quorum constructions.
//!
//! All three constructions share the same set system `R(n, q)` — *every*
//! `q`-subset of the universe is a quorum and the access strategy is uniform
//! (Definition 3.13) — and differ only in the intersection event they are
//! required to make likely and, for masking systems, in the read threshold
//! `k` applied by clients:
//!
//! | Type | Intersection requirement | ε bound | Construction |
//! |---|---|---|---|
//! | [`EpsilonIntersecting`] | `Q ∩ Q′ ≠ ∅` | `e^{−ℓ²}` (Thm 3.16) | `R(n, ℓ√n)` |
//! | [`ProbabilisticDissemination`] | `Q ∩ Q′ ⊄ B` | `2e^{−ℓ²/6}` for `b=n/3` (Thm 4.4), `ε_α` for `b=αn` (Thm 4.6) | `R(n, ℓ√n)` |
//! | [`ProbabilisticMasking`] | `|Q∩B| < k ∧ |Q∩Q′∖B| ≥ k` | `2e^{−(q²/n)·min(ψ₁,ψ₂)}` (Thm 5.10) | `R_k(n, ℓb)`, `k = q²/2n` |
//!
//! That shared set system is written once, in the crate-private `rnq.rs`
//! (validation of `0 < q ≤ n`, the uniform `q`-subset sampler, load `q/n`,
//! fault tolerance `n − q + 1`, the binomial crash tail); each type here
//! holds it and adds only its row of the table: [`EpsilonIntersecting`] its
//! exact ε, [`ProbabilisticDissemination`] `b` and its ε,
//! [`ProbabilisticMasking`] `b`, `k` and its ε.
//!
//! [`params`] provides the exact ε values used to size the systems for the
//! paper's concrete comparisons (Tables 2–4).

pub mod params;

mod dissemination;
mod epsilon_intersecting;
mod masking;

pub use dissemination::ProbabilisticDissemination;
pub use epsilon_intersecting::EpsilonIntersecting;
pub use masking::ProbabilisticMasking;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ProbabilisticQuorumSystem, QuorumSystem};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// All three constructions sample fixed-size quorums from the right
    /// universe and report an epsilon consistent with their exact value.
    #[test]
    fn constructions_share_r_n_q_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let systems: Vec<(Box<dyn ProbabilisticQuorumSystem>, usize)> = vec![
            (
                Box::new(EpsilonIntersecting::new(100, 22).unwrap()),
                22usize,
            ),
            (
                Box::new(ProbabilisticDissemination::new(100, 24, 4).unwrap()),
                24,
            ),
            (Box::new(ProbabilisticMasking::new(100, 38, 4).unwrap()), 38),
        ];
        for (system, size) in &systems {
            assert_eq!(system.min_quorum_size(), *size);
            assert!(system.epsilon() > 0.0 && system.epsilon() < 1.0);
            for _ in 0..20 {
                let q = system.sample_quorum(&mut rng);
                assert_eq!(q.len(), *size);
                assert_eq!(q.universe().size(), 100);
            }
        }
    }

    /// The headline comparison of the paper: at matched epsilon, the
    /// probabilistic systems have far better fault tolerance than any strict
    /// system with comparable load, and far smaller quorums than strict
    /// systems with comparable fault tolerance.
    #[test]
    fn probabilistic_beats_strict_tradeoff() {
        use crate::strict::{Grid, Majority};
        let n = 400;
        let eps = EpsilonIntersecting::with_target_epsilon(n, 1e-3).unwrap();
        let majority = Majority::new(n).unwrap();
        let grid = Grid::new(n).unwrap();
        // Much smaller quorums (hence lower load) than the majority system...
        assert!(eps.min_quorum_size() * 3 < majority.min_quorum_size());
        assert!(eps.load() < majority.load() / 3.0);
        // ...with far better fault tolerance than the grid, whose load is
        // comparable.
        assert!(eps.fault_tolerance() > 10 * grid.fault_tolerance());
    }
}
