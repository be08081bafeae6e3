//! The quorum-system trait family.
//!
//! [`QuorumSystem`] is the object-safe interface shared by every
//! construction in this crate: it couples a set system with its access
//! strategy (per Definition 3.1 the two travel together) and exposes the
//! three quality measures the paper uses to compare systems — load
//! (Definition 2.4 / 3.3), fault tolerance (Definition 2.5 / 3.7) and
//! failure probability (Definition 2.6 / 3.8).
//!
//! Sub-traits refine the interface:
//!
//! * [`ExplicitQuorumSystem`] — systems small enough to enumerate their
//!   quorums (grid, hand-built systems), enabling exact generic
//!   measure computations in [`crate::measures`];
//! * [`ByzantineQuorumSystem`] — systems designed to mask `b` arbitrary
//!   failures (strict or probabilistic dissemination/masking systems);
//! * [`ProbabilisticQuorumSystem`] — systems whose intersection guarantee is
//!   probabilistic, exposing their ε.

use crate::quorum::Quorum;
use crate::strategy::WeightedStrategy;
use crate::universe::Universe;
use rand::RngCore;

/// A quorum system paired with its access strategy.
///
/// Implementations must guarantee that [`sample_quorum`](Self::sample_quorum)
/// draws quorums according to the system's designated strategy `w`; all the
/// probabilistic guarantees (and the measured load) are relative to that
/// strategy.
///
/// The trait requires `Send + Sync`: a system description is immutable data
/// shared read-only by every shard of the parallel simulation engine, so all
/// constructions must be safe to reference from multiple worker threads.
pub trait QuorumSystem: Send + Sync {
    /// The universe of servers the system is defined over.
    fn universe(&self) -> Universe;

    /// Draws one quorum according to the system's access strategy.
    fn sample_quorum(&self, rng: &mut dyn RngCore) -> Quorum;

    /// A short human-readable name used in experiment output
    /// (e.g. `"majority(n=100)"` or `"R(100, 22)"`).
    fn name(&self) -> String;

    /// Size of the smallest quorum, `c(Q)` in the paper's notation.
    fn min_quorum_size(&self) -> usize;

    /// Expected size of a quorum drawn by the access strategy, `E[|Q|]`.
    ///
    /// Defaults to the minimum size, which is exact for all fixed-size
    /// constructions in this crate.
    fn expected_quorum_size(&self) -> f64 {
        self.min_quorum_size() as f64
    }

    /// The load `L(⟨Q, w⟩)` induced by the system's access strategy
    /// (Definitions 2.4 and 3.3): the access probability of the busiest
    /// server.
    fn load(&self) -> f64;

    /// The fault tolerance `A(Q)` (Definitions 2.5 and 3.7): the minimum
    /// number of crash failures that can disable every (high-quality)
    /// quorum.  The system survives any `A(Q) − 1` crashes.
    fn fault_tolerance(&self) -> u32;

    /// The failure probability `F_p(Q)` (Definitions 2.6 and 3.8): the
    /// probability that every (high-quality) quorum contains at least one
    /// crashed server when servers crash independently with probability `p`.
    ///
    /// Implementations may return an exact value or a tight analytical
    /// expression; each documents which (every construction in this crate is
    /// exact, and none draws a random number).  None panics on any `p`: a `p`
    /// outside `[0, 1]` (the infinities included) is clamped into it, so the
    /// result is a probability, and `NaN` yields `NaN`.
    fn failure_probability(&self, p: f64) -> f64;
}

/// A quorum system whose quorums can be explicitly enumerated.
pub trait ExplicitQuorumSystem: QuorumSystem {
    /// All quorums of the system, in a fixed order matching
    /// [`strategy`](Self::strategy).
    fn quorums(&self) -> Vec<Quorum>;

    /// The access strategy over [`quorums`](Self::quorums).
    fn strategy(&self) -> WeightedStrategy;
}

/// A quorum system designed for Byzantine environments.
pub trait ByzantineQuorumSystem: QuorumSystem {
    /// The number `b` of arbitrary (Byzantine) server failures the system is
    /// configured to mask.
    fn byzantine_threshold(&self) -> u32;
}

/// A quorum system whose consistency guarantee is probabilistic.
pub trait ProbabilisticQuorumSystem: QuorumSystem {
    /// An upper bound on the probability ε that two quorums drawn by the
    /// access strategy fail to satisfy the system's intersection requirement
    /// (non-empty intersection, intersection outside `B`, or the masking
    /// threshold event, per Definitions 3.1, 4.1 and 5.1).
    fn epsilon(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    /// A minimal hand-rolled system used to exercise the trait object
    /// surface: the single quorum {0} over a universe of 3 servers.
    #[derive(Debug)]
    struct Trivial {
        universe: Universe,
    }

    impl QuorumSystem for Trivial {
        fn universe(&self) -> Universe {
            self.universe
        }
        fn sample_quorum(&self, _rng: &mut dyn RngCore) -> Quorum {
            Quorum::from_indices(self.universe, [0u32]).expect("valid")
        }
        fn name(&self) -> String {
            "trivial".to_string()
        }
        fn min_quorum_size(&self) -> usize {
            1
        }
        fn load(&self) -> f64 {
            1.0
        }
        fn fault_tolerance(&self) -> u32 {
            1
        }
        fn failure_probability(&self, p: f64) -> f64 {
            p
        }
    }

    #[test]
    fn trait_is_object_safe_and_default_expected_size_works() {
        let t = Trivial {
            universe: Universe::new(3),
        };
        let boxed: Box<dyn QuorumSystem> = Box::new(t);
        assert_eq!(boxed.min_quorum_size(), 1);
        assert_eq!(boxed.expected_quorum_size(), 1.0);
        assert_eq!(boxed.name(), "trivial");
        let mut rng = rand::thread_rng();
        let q = boxed.sample_quorum(&mut rng);
        assert_eq!(q.len(), 1);
        assert_eq!(boxed.failure_probability(0.3), 0.3);
    }
}
