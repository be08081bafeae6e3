//! Access strategies (Definition 2.3).
//!
//! An access strategy `w` assigns each quorum a probability of being chosen
//! for an access; the paper's probabilistic guarantees are stated *with
//! respect to* a designated strategy (Definition 3.1 pairs the set system
//! with its strategy), and the remark after Theorem 3.2 stresses that the
//! strategy must actually be enforced to obtain the advertised ε.
//!
//! Two kinds of strategies appear in this workspace:
//!
//! * [`WeightedStrategy`] — an explicit probability vector over an
//!   enumerated list of quorums (used by grid and other explicit systems,
//!   and by the counter-example of Section 3.2 that motivates the
//!   high-quality-quorum definitions);
//! * implicit uniform strategies — the `R(n, q)` constructions never
//!   enumerate their quorums; they sample a uniform `q`-subset directly
//!   (see [`crate::probabilistic`]).

use crate::CoreError;
use serde::{Deserialize, Serialize};

/// An explicit access strategy: a normalised probability vector over the
/// quorums of an explicit quorum system.
///
/// # Examples
///
/// ```
/// use pqs_core::strategy::WeightedStrategy;
/// let s = WeightedStrategy::uniform(4);
/// assert!((s.probability(2) - 0.25).abs() < 1e-12);
/// assert_eq!(s.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedStrategy {
    weights: Vec<f64>,
}

impl WeightedStrategy {
    /// The uniform strategy over `m` quorums.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn uniform(m: usize) -> Self {
        assert!(m > 0, "a strategy needs at least one quorum");
        WeightedStrategy {
            weights: vec![1.0 / m as f64; m],
        }
    }

    /// Builds a strategy from arbitrary non-negative weights, normalising
    /// them to sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if the weights are empty,
    /// contain negative or non-finite entries, or sum to zero.
    pub(crate) fn from_weights(weights: Vec<f64>) -> crate::Result<Self> {
        if weights.is_empty() {
            return Err(CoreError::invalid("strategy weights must be non-empty"));
        }
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::invalid(format!(
                    "strategy weight {i} is invalid: {w}"
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(CoreError::invalid("strategy weights sum to zero"));
        }
        Ok(WeightedStrategy {
            weights: weights.into_iter().map(|w| w / total).collect(),
        })
    }

    /// Number of quorums the strategy ranges over.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the strategy ranges over no quorums
    /// (never true for a validly constructed strategy).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Probability assigned to quorum `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn probability(&self, index: usize) -> f64 {
        self.weights[index]
    }

    /// Mixes this strategy with another: with probability `1 − gamma` use
    /// `self`, with probability `gamma` use `other`.
    ///
    /// This is the operation used in Section 3.2's discussion of artificially
    /// inflating fault tolerance by mixing in rarely-used singleton quorums;
    /// it is exposed so tests and experiments can reproduce that argument.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConstruction`] if `gamma` is not in
    /// `[0, 1]`. The two strategies may range over different quorum counts;
    /// the result ranges over `self.len() + other.len()` quorums
    /// (self's quorums first).
    pub fn mix(&self, other: &WeightedStrategy, gamma: f64) -> crate::Result<WeightedStrategy> {
        if !(0.0..=1.0).contains(&gamma) || gamma.is_nan() {
            return Err(CoreError::invalid(format!(
                "mixing probability must be in [0,1], got {gamma}"
            )));
        }
        let mut weights = Vec::with_capacity(self.len() + other.len());
        weights.extend(self.weights.iter().map(|w| w * (1.0 - gamma)));
        weights.extend(other.weights.iter().map(|w| w * gamma));
        WeightedStrategy::from_weights(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_strategy_probabilities() {
        let s = WeightedStrategy::uniform(5);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        for i in 0..5 {
            assert!((s.probability(i) - 0.2).abs() < 1e-12);
        }
        let total: f64 = (0..s.len()).map(|i| s.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one quorum")]
    fn uniform_zero_panics() {
        let _ = WeightedStrategy::uniform(0);
    }

    #[test]
    fn from_weights_normalises() {
        let s = WeightedStrategy::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((s.probability(0) - 0.25).abs() < 1e-12);
        assert!((s.probability(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_weights_validation() {
        assert!(WeightedStrategy::from_weights(vec![]).is_err());
        assert!(WeightedStrategy::from_weights(vec![0.0, 0.0]).is_err());
        assert!(WeightedStrategy::from_weights(vec![-1.0, 2.0]).is_err());
        assert!(WeightedStrategy::from_weights(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn mix_reproduces_section_3_2_inflation_setup() {
        // Original strategy over 2 quorums, mixed with singletons at gamma.
        let base = WeightedStrategy::uniform(2);
        let singletons = WeightedStrategy::uniform(4);
        let gamma = 0.01;
        let mixed = base.mix(&singletons, gamma).unwrap();
        assert_eq!(mixed.len(), 6);
        // Base quorums get (1-gamma)/2 each, singletons gamma/4 each.
        assert!((mixed.probability(0) - 0.495).abs() < 1e-12);
        assert!((mixed.probability(2) - 0.0025).abs() < 1e-12);
        let total: f64 = (0..mixed.len()).map(|i| mixed.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mix_rejects_bad_gamma() {
        let a = WeightedStrategy::uniform(2);
        let b = WeightedStrategy::uniform(2);
        assert!(a.mix(&b, -0.1).is_err());
        assert!(a.mix(&b, 1.1).is_err());
        assert!(a.mix(&b, f64::NAN).is_err());
    }
}
