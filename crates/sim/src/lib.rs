//! # pqs-sim
//!
//! A discrete-event simulator for quorum-replicated services.
//!
//! The paper's evaluation (Section 6) is analytical; this crate provides the
//! dynamic counterpart used by the protocol-level experiments (V4/V5 in
//! DESIGN.md): clients issue read and write operations over time against a
//! replica cluster, every client–server probe is an individually scheduled
//! message with its own latency draw, servers crash or recover **mid-run**
//! according to a failure plan, and the simulator records per-kind latency
//! percentiles, stale-read rates, per-server load, in-flight concurrency
//! and availability.  One run drives a whole *key space* of replicated
//! variables (uniform or Zipf popularity), each with its own writer and
//! per-key metrics, so the simulator is a key–value store under test, not
//! just a register.
//!
//! ## Layout
//!
//! * [`time`] — simulation time and the deterministic event queue.
//! * [`event`] — the event vocabulary (`OpArrival`, `ProbeReply`,
//!   `OpTimeout`, `RetryAttempt`, `FailureTransition`, the gossip
//!   deliveries) and the slab that holds in-flight gossip payloads.
//! * [`latency`] — per-message latency models (fixed, uniform, exponential,
//!   Pareto long-tail).
//! * [`workload`] — open-loop workload generation (Poisson arrivals,
//!   read/write mix) sharded over a [`workload::KeySpace`].
//! * [`failure`] — failure plans: initial Byzantine placement, crash
//!   schedules, crash waves and independent crash probabilities.
//! * [`metrics`] — what the simulator measures, including p50/p95/p99 and
//!   the per-key breakdown ([`metrics::VariableReport`]).
//! * [`runner`] — the public configuration surface
//!   ([`runner::SimConfig`] and its builder, [`runner::DiffusionPolicy`]
//!   in full-push or digest/delta gossip mode with per-key advertisement
//!   policies, [`runner::ProtocolKind`]) and [`runner::Simulation`].
//!
//! Behind [`runner::Simulation::run`] there is one engine (crate-private
//! modules): `world` owns the event handlers — many concurrent client
//! sessions over a per-variable register table, first-`q`-of-probed quorum
//! access, timeout-and-resample retry with optional exponential backoff,
//! partition gating and gossip delivery — for the keys it is given;
//! `parallel` cuts the key space into [`runner::SimConfig::num_shards`]
//! worlds, drains them (on worker threads, if asked) between deterministic
//! spine barriers where gossip is planned, and merges their accumulators;
//! `staleness` keeps the write logs reads are classified against.  The
//! report is bit-identical for any shard count ≥ 1 and any thread count.
//!
//! ## Example
//!
//! ```rust
//! use pqs_core::probabilistic::EpsilonIntersecting;
//! use pqs_sim::latency::LatencyModel;
//! use pqs_sim::runner::{ProtocolKind, SimConfig, Simulation};
//!
//! let system = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
//! let config = SimConfig::builder()
//!     .with_duration(100.0)
//!     .with_arrival_rate(5.0)
//!     .with_read_fraction(0.9)
//!     .with_latency(LatencyModel::Uniform { min: 1e-3, max: 5e-3 })
//!     .with_crash_probability(0.1)
//!     // Probe two spare servers per operation and finish on the first
//!     // q replies: lower tail latency, crash masking.
//!     .with_probe_margin(2)
//!     .with_seed(42)
//!     .build();
//! let report = Simulation::new(&system, ProtocolKind::Safe, config).run();
//! assert!(report.completed_reads + report.completed_writes > 0);
//! assert!(report.stale_read_rate() <= 0.05);
//! assert!(report.read_latency.p99() >= report.read_latency.p50());
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod failure;
pub mod latency;
pub mod metrics;
pub(crate) mod parallel;
pub mod runner;
pub(crate) mod staleness;
pub mod time;
pub mod workload;
pub(crate) mod world;
