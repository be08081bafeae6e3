//! # pqs-math
//!
//! Combinatorial and probabilistic machinery used throughout the
//! probabilistic-quorum-systems workspace.
//!
//! The paper *Probabilistic Quorum Systems* (Malkhi, Reiter, Wool, Wright)
//! analyses its constructions with a small toolbox of probability facts:
//! binomial coefficients and their ratios (Proposition 3.14), the
//! hypergeometric distribution of `|Q ∩ B|` when a quorum `Q` is sampled
//! uniformly (Section 5.3), Chernoff and Hoeffding tail bounds
//! (Lemmas 5.7 and 5.9, and the failure-probability analysis of
//! Section 3.4), and Monte-Carlo estimation for the concrete comparisons of
//! Section 6.  This crate implements that toolbox with a documented,
//! deterministic API so the rest of the workspace (constructions, measures,
//! simulator, benchmark harness) can share a single, well-tested source of
//! numerical truth.
//!
//! ## Module map
//!
//! * [`comb`] — log-factorials, log-binomials, exact and floating
//!   binomial coefficients, the ratio bound of Proposition 3.14.
//! * [`binomial`] — the Binomial(n, p) distribution: pmf, cdf, survival
//!   function, sampling.
//! * [`hypergeometric`] — the Hypergeometric(N, K, n) distribution: pmf,
//!   cdf, tails, sampling; this is the law of `|Q ∩ B|` for uniform quorums.
//! * [`tail`] — Chernoff and Hoeffding tail bounds used by the paper's
//!   lemmas, plus the relative-entropy (exact exponent) variants.
//! * [`bounds`] — the paper-specific ε bounds: Lemma 3.15 / Theorem 3.16,
//!   Lemma 4.3 / Theorem 4.4, Lemma 4.5 / Theorem 4.6 and
//!   Lemmas 5.7–5.9 / Theorem 5.10 (ψ₁, ψ₂).
//! * [`sampling`] — uniform random k-subset sampling (Floyd's algorithm),
//!   the building block of the uniform access strategy.
//! * [`mc`] — Monte-Carlo estimation helpers: Bernoulli estimators with
//!   Wilson confidence intervals, and running mean / variance statistics.
//! * [`plan`] — the capacity planner: inverts the tail bounds to solve for
//!   the minimal `(n, q, probe_margin, gossip)` meeting an ε target and a
//!   p99 SLO, with a predicted report the simulator is CI-checked against.
//!
//! ## Example
//!
//! ```rust
//! use pqs_math::bounds::epsilon_intersecting_bound;
//! use pqs_math::hypergeometric::Hypergeometric;
//!
//! // Probability that two uniformly random quorums of size 2.2·√100 = 22
//! // out of 100 servers fail to intersect, per Lemma 3.15 (upper bound) and
//! // the exact hypergeometric computation.
//! let n = 100u64;
//! let q = 22u64;
//! let bound = epsilon_intersecting_bound(2.2);
//! let exact = Hypergeometric::new(n, q, q).unwrap().pmf(0);
//! assert!(exact <= bound);
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binomial;
pub mod bounds;
pub mod comb;
pub mod hypergeometric;
pub mod mc;
pub mod plan;
pub mod sampling;
pub mod tail;

mod error;

pub use error::MathError;

/// Convenience result alias used by fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, MathError>;
