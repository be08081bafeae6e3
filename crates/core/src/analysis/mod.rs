//! Monte-Carlo estimators and lower-bound formulas used by the experiment
//! harness.
//!
//! * [`intersection`] — empirical estimation of the three intersection
//!   events (Definitions 3.1, 4.1 and 5.1) for any
//!   [`crate::system::QuorumSystem`]; used to validate the analytical ε
//!   bounds (experiments V1–V3 of DESIGN.md).
//! * [`lower_bounds`] — Table I's load bounds and the load lower bounds for
//!   probabilistic systems (Corollary 3.12, Theorem 5.5; Theorem 3.9 is
//!   [`crate::measures::probabilistic_load_lower_bound`] and Table I's
//!   resilience caps are [`crate::byzantine::max_dissemination_threshold`]
//!   and [`crate::byzantine::max_masking_threshold`]).

pub mod intersection;
pub mod lower_bounds;
