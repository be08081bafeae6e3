//! # pqs-core
//!
//! Quorum systems — strict, Byzantine and **probabilistic** — as defined in
//! *Probabilistic Quorum Systems* (Malkhi, Reiter, Wool and Wright,
//! PODC '97 / Information and Computation 170, 2001).
//!
//! A *quorum system* is a set of subsets ("quorums") of a universe of `n`
//! servers, every two of which intersect; clients perform reads and writes at
//! a quorum instead of at every server, trading consistency machinery for
//! load reduction and availability (Section 2 of the paper).  The paper's
//! contribution — reproduced by this crate — is to relax the intersection
//! property so that two quorums chosen by a designated *access strategy*
//! intersect only with probability `1 − ε`, and to show that this relaxation
//! buys dramatic improvements in fault tolerance and failure probability
//! while keeping the load optimal.
//!
//! ## What lives where
//!
//! * [`universe`], [`quorum`], [`bitset`] — servers, server sets and the
//!   bitset machinery underlying them.
//! * [`strategy`] — access strategies (Definition 2.3): explicit weighted
//!   strategies over enumerated quorums and implicit uniform samplers.
//! * [`system`] — the [`system::QuorumSystem`] trait family tying a set
//!   system to its strategy and quality measures.
//! * [`strict`] — classical strict constructions used as baselines: the
//!   majority/threshold system and the Maekawa grid.
//! * [`byzantine`] — strict `b`-dissemination and `b`-masking systems of
//!   Malkhi–Reiter, in threshold and grid variants (the comparators of
//!   Tables 3 and 4).
//! * [`probabilistic`] — the paper's constructions: ε-intersecting
//!   `R(n, ℓ√n)`, (b, ε)-dissemination, and (b, ε)-masking `R_k(n, q)`
//!   systems, plus parameter selection.  The set system `R(n, q)` itself —
//!   every `q`-subset, drawn uniformly — is one crate-private core
//!   (`rnq.rs`) that these three and the three threshold systems of
//!   [`strict`] and [`byzantine`] hold; the three grids hold the other
//!   (`grid_core.rs`: `r` rows plus `r` columns of a `√n × √n` array).
//! * [`measures`] — load, fault tolerance and failure probability, both the
//!   strict definitions (2.4–2.6) and the probabilistic ones (3.3, 3.7, 3.8).
//! * [`analysis`] — Monte-Carlo estimators of intersection events and the
//!   paper's load lower bounds (Theorems 3.9 and 5.5, Table I).
//!
//! ## Quickstart
//!
//! ```rust
//! use pqs_core::prelude::*;
//! use rand::SeedableRng;
//!
//! // An ε-intersecting system over 100 servers with ε ≤ 0.001.
//! let system = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
//! assert!(system.epsilon() <= 1e-3);
//!
//! // Sample two quorums; with probability ≥ 0.999 they intersect.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let q1 = system.sample_quorum(&mut rng);
//! let q2 = system.sample_quorum(&mut rng);
//! assert_eq!(q1.len(), system.quorum_size());
//! let _ = q1.intersects(&q2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod bitset;
pub mod byzantine;
pub mod measures;
pub mod probabilistic;
pub mod quorum;
pub mod strategy;
pub mod strict;
pub mod system;
pub mod universe;

mod error;
mod grid_core;
mod rnq;

pub use error::CoreError;

/// Convenience result alias for fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// A convenience prelude exporting the types most users need.
pub mod prelude {
    pub use crate::byzantine::{
        DisseminationGrid, DisseminationThreshold, MaskingGrid, MaskingThreshold,
    };
    pub use crate::probabilistic::{
        EpsilonIntersecting, ProbabilisticDissemination, ProbabilisticMasking,
    };
    pub use crate::quorum::Quorum;
    pub use crate::strict::{Grid, Majority};
    pub use crate::system::{
        ByzantineQuorumSystem, ExplicitQuorumSystem, ProbabilisticQuorumSystem, QuorumSystem,
    };
    pub use crate::universe::{ServerId, Universe};
}
