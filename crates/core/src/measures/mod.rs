//! Quality measures for quorum systems.
//!
//! The paper assesses quorum systems by three measures (Section 2): **load**
//! (Definition 2.4), **fault tolerance** (Definition 2.5) and **failure
//! probability** (Definition 2.6), and extends all three to the
//! probabilistic setting (Definitions 3.3, 3.7, 3.8) via the notion of
//! *δ-high-quality quorums* (Definition 3.4).
//!
//! The concrete constructions in this crate report their measures through
//! the [`crate::system::QuorumSystem`] trait using closed forms.  This
//! module provides the *generic* computations that work on any explicitly
//! enumerated system — they are used to cross-check the closed forms in
//! tests, to analyse hand-built systems, and to reproduce the Section 3.2
//! discussion of why the naive strict definitions break down for
//! probabilistic systems.

mod failure_prob;
mod fault_tolerance;
mod load;

pub use failure_prob::{failure_probability_exact, failure_probability_monte_carlo};
pub use fault_tolerance::{
    exact_fault_tolerance, high_quality_quorum_indices, probabilistic_fault_tolerance,
};
pub use load::{induced_load, load_lower_bound, per_server_load, probabilistic_load_lower_bound};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::WeightedStrategy;
    use crate::strict::{Grid, Majority};
    use crate::system::{ExplicitQuorumSystem, QuorumSystem};
    use crate::universe::Universe;

    /// The generic computations must agree with the closed forms reported by
    /// the concrete constructions.
    #[test]
    fn generic_measures_agree_with_closed_forms_for_grid() {
        let g = Grid::new(25).unwrap();
        let quorums = g.quorums();
        let strategy = g.strategy();
        assert!((induced_load(&quorums, &strategy).unwrap() - g.load()).abs() < 1e-12);
        assert_eq!(
            exact_fault_tolerance(&quorums).unwrap(),
            g.fault_tolerance()
        );
        // The exact (inclusion–exclusion) failure probability is limited to
        // 22 quorums, so cross-check it on the 4x4 grid.
        let small = Grid::new(16).unwrap();
        for &p in &[0.1, 0.4, 0.7] {
            let exact = failure_probability_exact(&small.quorums(), p).unwrap();
            assert!(
                (exact - small.failure_probability(p)).abs() < 1e-9,
                "p={p}: {exact} vs {}",
                small.failure_probability(p)
            );
        }
    }

    #[test]
    fn generic_measures_agree_for_singleton() {
        // The one-quorum system {0} over six servers.
        let quorums = [crate::quorum::Quorum::from_indices(Universe::new(6), [0]).unwrap()];
        let strategy = WeightedStrategy::uniform(1);
        assert!((induced_load(&quorums, &strategy).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(exact_fault_tolerance(&quorums).unwrap(), 1);
        assert!((failure_probability_exact(&quorums, 0.25).unwrap() - 0.25).abs() < 1e-12);
    }

    /// Section 3.2: adding rarely-used singleton quorums inflates the strict
    /// fault tolerance to n, but the probabilistic fault tolerance (computed
    /// over high-quality quorums only) is unaffected.
    #[test]
    fn probabilistic_fault_tolerance_resists_inflation() {
        let n = 9u32;
        let m = Majority::new(n).unwrap();
        // Enumerate a handful of majority quorums explicitly (all 5-subsets
        // would be 126; a symmetric sample of them is enough for the test).
        let universe = m.universe();
        let mut quorums: Vec<crate::quorum::Quorum> = (0..n)
            .map(|start| {
                crate::quorum::Quorum::from_indices(universe, (0..5u32).map(|i| (start + i) % n))
                    .unwrap()
            })
            .collect();
        let base_len = quorums.len();
        let base_strategy = WeightedStrategy::uniform(base_len);
        let base_ft = probabilistic_fault_tolerance(&quorums, &base_strategy, 0.01).unwrap();

        // Inflate: add all singletons, used with tiny total probability gamma.
        for i in 0..n {
            quorums.push(crate::quorum::Quorum::from_indices(universe, [i]).unwrap());
        }
        let gamma = 1e-6;
        let mut weights = vec![(1.0 - gamma) / base_len as f64; base_len];
        weights.extend(std::iter::repeat_n(gamma / n as f64, n as usize));
        let inflated_strategy = WeightedStrategy::from_weights(weights).unwrap();

        // The strict measure is fooled: now only killing all n servers
        // disables every quorum.
        assert_eq!(exact_fault_tolerance(&quorums).unwrap(), n);
        // The probabilistic measure is not: singletons are not high quality.
        let inflated_ft =
            probabilistic_fault_tolerance(&quorums, &inflated_strategy, 0.01).unwrap();
        assert_eq!(inflated_ft, base_ft);
        assert!(inflated_ft < n);
    }
}
