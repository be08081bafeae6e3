//! The simulator's public configuration surface and its entry point.
//!
//! A [`Simulation`] ties together a quorum system, one of the three register
//! protocols, a latency model, a keyed workload and a failure plan, and
//! produces a [`SimReport`].  This module holds what a caller sets — the
//! [`SimConfig`] and its builder, the [`DiffusionPolicy`] family, the
//! [`ProtocolKind`] — and [`Simulation::run`]; the engine behind it is one
//! path for every configuration: `crate::world` owns the event handlers of
//! the keys it is given, `crate::parallel` cuts the key space into
//! [`SimConfig::num_shards`] such worlds and drives them between
//! gossip-round barriers.  See `docs/ARCHITECTURE.md`.
//!
//! ## The access model
//!
//! Unlike the seed simulator — which applied each quorum exchange atomically
//! at its arrival instant and merely *derived* a latency — the engine
//! schedules one [`Event`](crate::event::Event) per client–server message:
//!
//! 1. At the operation's arrival — drawn lazily from its key's own arrival
//!    stream, in time order, never queued — the client samples a probe set (a quorum drawn
//!    by the access strategy plus [`SimConfig::probe_margin`] spare
//!    servers) and sends one probe per member, each with its own latency
//!    draw.
//! 2. Each [`Event::ProbeReply`](crate::event::Event::ProbeReply) evaluates
//!    the server *at the message's round-trip completion time*: a server
//!    crashed by an intervening transition of the [`FailurePlan`] — read
//!    off its schedule like the arrivals — simply fails to answer, and a
//!    write probe mutates the replica at that instant — so concurrent
//!    operations genuinely interleave.
//! 3. The operation completes on the **first `q` responders** (the
//!    incremental sessions of [`pqs_protocols::register::session`]), or —
//!    when the probe set is exhausted or [`SimConfig::op_timeout`] fires —
//!    condenses the partial reply set, exactly like the paper's protocols
//!    under partial quorum responses.
//! 4. An attempt that gathered *zero* replies resamples a fresh probe set
//!    (timeout-and-resample), up to [`SimConfig::max_retries`] times, before
//!    the operation counts as unavailable.  With a positive
//!    [`SimConfig::retry_backoff`] each resample waits an exponentially
//!    growing delay first
//!    ([`Event::RetryAttempt`](crate::event::Event::RetryAttempt)).
//!
//! ## The key space
//!
//! One run drives **many replicated variables concurrently**: the workload
//! spreads operations over a [`KeySpace`] (uniform or Zipf popularity), and
//! the engine keeps one register client — with its own writer timestamp
//! chain, write log, staleness accounting and **RNG stream** — per key.
//! Sessions for different keys interleave freely; the report carries a
//! per-variable breakdown ([`SimReport::per_variable`]) next to the
//! aggregates.  Because a key's trajectory is a function of the seed and its
//! own event history alone, the report is bit-identical for every
//! [`SimConfig::num_shards`] ≥ 1 and every [`SimConfig::threads`].
//!
//! Many operations are in flight at once; the report's
//! `mean_in_flight`/`max_in_flight` gauges and per-kind latency percentiles
//! quantify exactly the regimes the atomic model could not reach.
//!
//! ## Write diffusion
//!
//! With a [`DiffusionPolicy`] configured, the engine additionally runs the
//! Section 1.1 anti-entropy mechanism *inside* simulated time: every
//! `period` seconds the spine snapshots the correct servers' stored records
//! and turns them into gossip messages — each with its own latency draw —
//! that interleave with in-flight client probes.  Crashed servers skip
//! rounds and drop in-flight pushes; Byzantine servers receive but never
//! push — the same semantics as the synchronous
//! [`diffuse`](pqs_protocols::diffusion::diffuse) harness.  All
//! three register flavors diffuse (signed records for the dissemination
//! protocol).  Gossip draws come from a **separate** RNG stream, so a
//! diffusion run replays the exact foreground trajectory (same workload,
//! probe sets, latencies and per-server accesses) of the diffusion-off run
//! with the same seed — only the staleness outcomes differ, which is what
//! makes the with/without comparison of
//! [`VariableReport`](crate::metrics::VariableReport) stale-read rates
//! meaningful.  `diffusion: None` (the default) schedules no gossip
//! at all.
//!
//! ## The scenario engine
//!
//! Beyond fail-stop crashes, a [`FailurePlan`] can schedule **membership
//! churn** (joiners come up with wiped record stores and bootstrap through
//! gossip, and the probe margin is re-solved against the ε budget for the
//! new present count), **healing partitions** (component windows that gate
//! probe and gossip *delivery* — never planning, so every RNG draw of the
//! unpartitioned same-seed run still happens and its trajectory is
//! undisturbed; post-heal re-convergence is tracked per gossip round into
//! [`SimReport::post_heal_coverage`]), and an adaptive
//! [`ByzantineStrategy`](crate::failure::ByzantineStrategy) (sleeper servers
//! that serve stale data for exactly one probe delivery when a
//! foreground-statistics predicate fires — a pure read-side overlay, so
//! the diffusion-off adaptive run replays its static twin's foreground
//! exactly and staleness is provably monotone).  All scenario machinery
//! defaults off and adds no events or draws to existing configurations.

use crate::failure::FailurePlan;
use crate::latency::LatencyModel;
use crate::metrics::{EngineStageTimings, SimReport};
use crate::time::SimTime;
use crate::workload::KeySpace;
use pqs_core::system::QuorumSystem;

/// What each gossip round puts on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GossipMode {
    /// Blind push gossip (the classic mechanism): every correct server
    /// pushes every record it holds to `fanout` peers each round.  The
    /// default.
    #[default]
    PushAll,
    /// Digest/delta gossip: every correct server sends a per-key version
    /// *summary* to `fanout` peers; each peer answers with only the records
    /// the summary proves its sender lacks.  The [`KeyGossipPolicy`] shapes
    /// which keys the summaries advertise.
    DigestDelta,
}

/// Which keys digest-mode summaries advertise each round — the per-key
/// gossip rate knob.  Ignored in [`GossipMode::PushAll`], which always
/// pushes everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyGossipPolicy {
    /// Every digest advertises every key its sender holds.
    Uniform,
    /// Gossip hot keys faster: every round advertises the `hot_keys` keys
    /// with the most observed writes so far (foreground state only, so the
    /// policy never perturbs the gossip RNG stream); every `cold_every`-th
    /// round falls back to a complete digest so cold keys still converge.
    HotFirst {
        /// How many of the most-written keys ride in every digest.
        hot_keys: u32,
        /// Period (in rounds, ≥ 1) of the complete catch-up digests; 1
        /// degenerates to [`KeyGossipPolicy::Uniform`].
        cold_every: u64,
    },
    /// Advertise only keys written within the trailing `window` simulated
    /// seconds; every `cold_every`-th round falls back to a complete digest
    /// so keys whose writes predate the window still converge.
    RecentWrites {
        /// Length of the trailing write window in simulated seconds.
        window: SimTime,
        /// Period (in rounds, ≥ 1) of the complete catch-up digests.
        cold_every: u64,
    },
}

/// How the engine schedules epidemic write-diffusion (anti-entropy) rounds
/// between the servers, competing for simulated time with foreground
/// client traffic.  `None` in [`SimConfig::diffusion`] disables the
/// mechanism entirely; the foreground trajectory is the same either way.
///
/// Build one with the builder methods instead of hand-rolling the struct:
///
/// ```rust
/// use pqs_sim::latency::LatencyModel;
/// use pqs_sim::runner::{DiffusionPolicy, KeyGossipPolicy};
///
/// let push = DiffusionPolicy::full_push(0.1, 3);
/// let digest = DiffusionPolicy::digest_delta(0.1, 3)
///     .with_key_policy(KeyGossipPolicy::HotFirst { hot_keys: 4, cold_every: 8 })
///     .with_push_latency(LatencyModel::Exponential { mean: 2e-3 });
/// assert_ne!(push, digest);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionPolicy {
    /// Simulated seconds between gossip rounds (> 0); round `r` fires at
    /// `r · period`, and rounds stop firing once foreground arrivals stop
    /// ([`SimConfig::duration`]).
    pub period: SimTime,
    /// Peers each correct server gossips to per round (≥ 1): push targets
    /// in [`GossipMode::PushAll`], digest targets in
    /// [`GossipMode::DigestDelta`].
    pub fanout: u32,
    /// Latency model for individual server-to-server gossip messages
    /// (pushes, digests and deltas; drawn once per message from the
    /// dedicated gossip RNG stream).
    pub push_latency: LatencyModel,
    /// Whether rounds push blindly or run the digest/delta exchange.
    pub mode: GossipMode,
    /// Which keys digest-mode summaries advertise (ignored in
    /// [`GossipMode::PushAll`]).
    pub key_policy: KeyGossipPolicy,
}

impl Default for DiffusionPolicy {
    /// A full-push round every 250 ms, fanout 2, 1 ms fixed push latency.
    fn default() -> Self {
        DiffusionPolicy {
            period: 0.25,
            fanout: 2,
            push_latency: LatencyModel::Fixed(1e-3),
            mode: GossipMode::PushAll,
            key_policy: KeyGossipPolicy::Uniform,
        }
    }
}

impl DiffusionPolicy {
    /// Classic blind-push gossip with the given round period and fanout.
    pub fn full_push(period: SimTime, fanout: u32) -> Self {
        DiffusionPolicy {
            period,
            fanout,
            ..DiffusionPolicy::default()
        }
    }

    /// Digest/delta gossip with the given round period and fanout, under
    /// the [`KeyGossipPolicy::Uniform`] advertisement policy.
    pub fn digest_delta(period: SimTime, fanout: u32) -> Self {
        DiffusionPolicy {
            period,
            fanout,
            mode: GossipMode::DigestDelta,
            ..DiffusionPolicy::default()
        }
    }

    /// Replaces the per-message gossip latency model.
    pub fn with_push_latency(mut self, push_latency: LatencyModel) -> Self {
        self.push_latency = push_latency;
        self
    }

    /// Replaces the digest advertisement policy (only meaningful together
    /// with [`GossipMode::DigestDelta`]).
    pub fn with_key_policy(mut self, key_policy: KeyGossipPolicy) -> Self {
        self.key_policy = key_policy;
        self
    }
}

/// Which register protocol the simulated clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The Section 3.1 safe-register protocol (crash failures only).
    Safe,
    /// The Section 4 protocol over self-verifying (signed) data.
    Dissemination,
    /// The Section 5 protocol with read-acceptance threshold `k`.
    Masking {
        /// The read threshold `k` (use the system's
        /// [`read_threshold`](pqs_core::probabilistic::ProbabilisticMasking::read_threshold)
        /// for `R_k(n, q)`, or `b + 1` for a strict masking system).
        threshold: usize,
    },
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Length of the run in simulated seconds (operations stop *arriving*
    /// at this point; in-flight operations still drain).
    pub duration: SimTime,
    /// Mean operation arrival rate (operations per second).
    pub arrival_rate: f64,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// The key space operations shard over: number of replicated variables
    /// and their popularity law.  [`KeySpace::single`] (the default) drives
    /// one variable, reproducing the classic single-register run.
    pub keyspace: KeySpace,
    /// Latency model for individual client–server probes (drawn once per
    /// probe, not once per quorum).
    pub latency: LatencyModel,
    /// Each server crashes independently with this probability at time 0
    /// (the Definition 2.6 model).
    pub crash_probability: f64,
    /// Number of servers made Byzantine at time 0 (random placement).
    pub byzantine: u32,
    /// Extra servers probed beyond the quorum on every attempt; the
    /// operation completes on the first `q` responders.  0 reproduces the
    /// classic access.
    pub probe_margin: u32,
    /// An attempt that has not completed this long after it started is cut
    /// short: the replies gathered so far are condensed, or — if there are
    /// none — the attempt is retried on a fresh probe set.
    pub op_timeout: SimTime,
    /// How many times a zero-reply attempt is resampled onto a fresh probe
    /// set before the operation counts as unavailable.
    pub max_retries: u32,
    /// Exponential-backoff factor between resampled attempts: retry `k`
    /// (1-based) waits `retry_backoff · op_timeout · 2^(k−1)` simulated
    /// seconds before sampling its fresh probe set.  The default `0.0`
    /// retries immediately — the classic behaviour, preserved event for
    /// event.
    pub retry_backoff: f64,
    /// Epidemic write-diffusion between the servers, scheduled as engine
    /// events (see the [module docs](self)).  `None` — the default —
    /// schedules no gossip at all.
    pub diffusion: Option<DiffusionPolicy>,
    /// RNG seed; the run is fully deterministic given the seed.
    pub seed: u64,
    /// Number of worlds the key space is cut into (≥ 1; 0 is read as 1):
    /// per-variable events go to world `variable % num_shards`, every world
    /// walks the failure plan's one transition list, and the spine plans
    /// gossip at barriers between the worlds' drains.  Purely a
    /// layout knob: every variable draws from its own RNG stream, so the
    /// report is bit-identical for a given seed across all shard counts
    /// and all thread counts.  `1` — the default — is the smallest layout,
    /// not a different engine.
    pub num_shards: u32,
    /// Worker threads draining the worlds' queues between spine barriers
    /// (≥ 1; at most one per world is used).  Purely an execution knob:
    /// the report never depends on it.
    pub threads: u32,
}

impl Default for SimConfig {
    /// 60 simulated seconds, 10 op/s, 90% reads, one key, 1 ms fixed
    /// latency, no failures, no probe margin, a 1-second timeout with one
    /// immediate retry, no diffusion, seed 0, one shard on one thread.
    fn default() -> Self {
        SimConfig {
            duration: 60.0,
            arrival_rate: 10.0,
            read_fraction: 0.9,
            keyspace: KeySpace::single(),
            latency: LatencyModel::default(),
            crash_probability: 0.0,
            byzantine: 0,
            probe_margin: 0,
            op_timeout: 1.0,
            max_retries: 1,
            retry_backoff: 0.0,
            diffusion: None,
            seed: 0,
            num_shards: 1,
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Starts a fluent builder seeded with [`SimConfig::default`].
    ///
    /// This is the intended way to construct a configuration — the
    /// `with_*` chain names exactly the knobs a run changes, and new
    /// fields default sensibly instead of breaking call sites:
    ///
    /// ```rust
    /// use pqs_sim::runner::SimConfig;
    /// use pqs_sim::workload::KeySpace;
    ///
    /// let config = SimConfig::builder()
    ///     .with_duration(30.0)
    ///     .with_arrival_rate(200.0)
    ///     .with_keyspace(KeySpace::zipf(64, 1.0))
    ///     .with_seed(42)
    ///     .build();
    /// assert_eq!(config.duration, 30.0);
    /// assert_eq!(config.num_shards, 1);
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Renders this configuration as the `SimConfig::builder()` chain that
    /// reconstructs it — one `with_*` call per field that differs from
    /// [`SimConfig::default`], floats printed in round-trip form.
    ///
    /// This is the capacity planner's serialization format: the `plan` bin
    /// emits a ready-to-paste chain alongside its predicted report, and
    /// `validate_plan` rebuilds the configuration through the builder and
    /// checks the rendering agrees with the struct before running it.
    ///
    /// ```rust
    /// use pqs_sim::runner::SimConfig;
    ///
    /// assert_eq!(
    ///     SimConfig::default().to_builder_chain(),
    ///     "SimConfig::builder().build()"
    /// );
    /// let config = SimConfig::builder()
    ///     .with_arrival_rate(200.0)
    ///     .with_seed(7)
    ///     .build();
    /// assert_eq!(
    ///     config.to_builder_chain(),
    ///     "SimConfig::builder().with_arrival_rate(200.0).with_seed(7).build()"
    /// );
    /// ```
    pub fn to_builder_chain(&self) -> String {
        fn latency(model: &LatencyModel) -> String {
            match *model {
                LatencyModel::Fixed(v) => format!("LatencyModel::Fixed({v:?})"),
                LatencyModel::Uniform { min, max } => {
                    format!("LatencyModel::Uniform {{ min: {min:?}, max: {max:?} }}")
                }
                LatencyModel::Exponential { mean } => {
                    format!("LatencyModel::Exponential {{ mean: {mean:?} }}")
                }
                LatencyModel::Pareto { scale, shape } => {
                    format!("LatencyModel::Pareto {{ scale: {scale:?}, shape: {shape:?} }}")
                }
            }
        }
        fn keyspace(ks: &KeySpace) -> String {
            match ks.skew {
                crate::workload::Skew::Uniform if ks.keys == 1 => "KeySpace::single()".into(),
                crate::workload::Skew::Uniform => format!("KeySpace::uniform({})", ks.keys),
                crate::workload::Skew::Zipf { exponent } => {
                    format!("KeySpace::zipf({}, {exponent:?})", ks.keys)
                }
            }
        }
        fn diffusion_policy(p: &DiffusionPolicy) -> String {
            let defaults = DiffusionPolicy::default();
            let mut out = match p.mode {
                GossipMode::PushAll => {
                    format!("DiffusionPolicy::full_push({:?}, {})", p.period, p.fanout)
                }
                GossipMode::DigestDelta => {
                    format!(
                        "DiffusionPolicy::digest_delta({:?}, {})",
                        p.period, p.fanout
                    )
                }
            };
            if p.push_latency != defaults.push_latency {
                out.push_str(&format!(".with_push_latency({})", latency(&p.push_latency)));
            }
            match p.key_policy {
                KeyGossipPolicy::Uniform => {}
                KeyGossipPolicy::HotFirst {
                    hot_keys,
                    cold_every,
                } => out.push_str(&format!(
                    ".with_key_policy(KeyGossipPolicy::HotFirst {{ \
                     hot_keys: {hot_keys}, cold_every: {cold_every} }})"
                )),
                KeyGossipPolicy::RecentWrites { window, cold_every } => out.push_str(&format!(
                    ".with_key_policy(KeyGossipPolicy::RecentWrites {{ \
                     window: {window:?}, cold_every: {cold_every} }})"
                )),
            }
            out
        }

        let defaults = SimConfig::default();
        let mut chain = String::from("SimConfig::builder()");
        if self.duration != defaults.duration {
            chain.push_str(&format!(".with_duration({:?})", self.duration));
        }
        if self.arrival_rate != defaults.arrival_rate {
            chain.push_str(&format!(".with_arrival_rate({:?})", self.arrival_rate));
        }
        if self.read_fraction != defaults.read_fraction {
            chain.push_str(&format!(".with_read_fraction({:?})", self.read_fraction));
        }
        if self.keyspace != defaults.keyspace {
            chain.push_str(&format!(".with_keyspace({})", keyspace(&self.keyspace)));
        }
        if self.latency != defaults.latency {
            chain.push_str(&format!(".with_latency({})", latency(&self.latency)));
        }
        if self.crash_probability != defaults.crash_probability {
            chain.push_str(&format!(
                ".with_crash_probability({:?})",
                self.crash_probability
            ));
        }
        if self.byzantine != defaults.byzantine {
            chain.push_str(&format!(".with_byzantine({})", self.byzantine));
        }
        if self.probe_margin != defaults.probe_margin {
            chain.push_str(&format!(".with_probe_margin({})", self.probe_margin));
        }
        if self.op_timeout != defaults.op_timeout {
            chain.push_str(&format!(".with_op_timeout({:?})", self.op_timeout));
        }
        if self.max_retries != defaults.max_retries {
            chain.push_str(&format!(".with_max_retries({})", self.max_retries));
        }
        if self.retry_backoff != defaults.retry_backoff {
            chain.push_str(&format!(".with_retry_backoff({:?})", self.retry_backoff));
        }
        if let Some(policy) = &self.diffusion {
            chain.push_str(&format!(".with_diffusion({})", diffusion_policy(policy)));
        }
        if self.seed != defaults.seed {
            chain.push_str(&format!(".with_seed({})", self.seed));
        }
        if self.num_shards != defaults.num_shards {
            chain.push_str(&format!(".with_num_shards({})", self.num_shards));
        }
        if self.threads != defaults.threads {
            chain.push_str(&format!(".with_threads({})", self.threads));
        }
        chain.push_str(".build()");
        chain
    }
}

/// Fluent builder for [`SimConfig`], following the [`DiffusionPolicy`]
/// `with_*` idiom.  Obtained from [`SimConfig::builder`]; finished with
/// [`build`](SimConfigBuilder::build), which validates the combination.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Replaces the run length in simulated seconds (> 0, finite).
    pub fn with_duration(mut self, duration: SimTime) -> Self {
        self.config.duration = duration;
        self
    }

    /// Replaces the mean operation arrival rate (operations/second, > 0).
    pub fn with_arrival_rate(mut self, arrival_rate: f64) -> Self {
        self.config.arrival_rate = arrival_rate;
        self
    }

    /// Replaces the fraction of operations that are reads (within [0, 1]).
    pub fn with_read_fraction(mut self, read_fraction: f64) -> Self {
        self.config.read_fraction = read_fraction;
        self
    }

    /// Replaces the key space operations shard over.
    pub fn with_keyspace(mut self, keyspace: KeySpace) -> Self {
        self.config.keyspace = keyspace;
        self
    }

    /// Replaces the per-probe latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.config.latency = latency;
        self
    }

    /// Replaces the independent time-0 crash probability (within [0, 1]).
    pub fn with_crash_probability(mut self, crash_probability: f64) -> Self {
        self.config.crash_probability = crash_probability;
        self
    }

    /// Replaces the number of servers made Byzantine at time 0.
    pub fn with_byzantine(mut self, byzantine: u32) -> Self {
        self.config.byzantine = byzantine;
        self
    }

    /// Replaces the probe margin (extra servers probed beyond the quorum).
    pub fn with_probe_margin(mut self, probe_margin: u32) -> Self {
        self.config.probe_margin = probe_margin;
        self
    }

    /// Replaces the per-attempt timeout in simulated seconds (≥ 0, finite).
    pub fn with_op_timeout(mut self, op_timeout: SimTime) -> Self {
        self.config.op_timeout = op_timeout;
        self
    }

    /// Replaces the zero-reply retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.config.max_retries = max_retries;
        self
    }

    /// Replaces the exponential retry-backoff factor (≥ 0, finite).
    pub fn with_retry_backoff(mut self, retry_backoff: f64) -> Self {
        self.config.retry_backoff = retry_backoff;
        self
    }

    /// Enables epidemic write-diffusion under the given policy.
    pub fn with_diffusion(mut self, policy: DiffusionPolicy) -> Self {
        self.config.diffusion = Some(policy);
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the engine shard count (≥ 1; see
    /// [`SimConfig::num_shards`]).
    pub fn with_num_shards(mut self, num_shards: u32) -> Self {
        self.config.num_shards = num_shards;
        self
    }

    /// Replaces the worker-thread count (≥ 1; see [`SimConfig::threads`]).
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.config.threads = threads;
        self
    }

    /// Validates the configuration and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the duration or arrival rate is not positive and finite,
    /// a probability (`read_fraction`, `crash_probability`) leaves [0, 1],
    /// the timeout or backoff factor is negative or non-finite, a parameter
    /// of the probe latency law is negative or non-finite, the shard or
    /// thread count is 0, or a configured diffusion policy has a
    /// non-positive period, zero fanout, a push latency law with a negative
    /// or non-finite parameter or a
    /// [`RecentWrites`](KeyGossipPolicy::RecentWrites) window that is
    /// negative or NaN.  A run checks every field but the shard and thread
    /// counts again, since the fields may be written after `build()`.
    pub fn build(self) -> SimConfig {
        let c = &self.config;
        assert!(c.num_shards >= 1, "num_shards must be at least 1");
        assert!(c.threads >= 1, "threads must be at least 1");
        c.validate();
        self.config
    }
}

impl SimConfig {
    /// Panics on any field [`SimConfigBuilder::build`] rejects, except the
    /// shard and thread counts, which a run reads as 1 when 0.
    /// `build()` calls it, and so does every run: the fields are public
    /// and may be written after `build()`.
    pub(crate) fn validate(&self) {
        assert!(
            self.duration > 0.0 && self.duration.is_finite(),
            "duration must be positive and finite, got {}",
            self.duration
        );
        assert!(
            self.arrival_rate > 0.0 && self.arrival_rate.is_finite(),
            "arrival_rate must be positive and finite, got {}",
            self.arrival_rate
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read_fraction must lie in [0, 1], got {}",
            self.read_fraction
        );
        assert!(
            (0.0..=1.0).contains(&self.crash_probability),
            "crash_probability must lie in [0, 1], got {}",
            self.crash_probability
        );
        assert!(
            self.op_timeout >= 0.0 && self.op_timeout.is_finite(),
            "op_timeout must be non-negative and finite, got {}",
            self.op_timeout
        );
        assert!(
            self.retry_backoff >= 0.0 && self.retry_backoff.is_finite(),
            "retry_backoff must be non-negative and finite, got {}",
            self.retry_backoff
        );
        check_latency(&self.latency, "latency");
        if let Some(policy) = &self.diffusion {
            assert!(
                policy.period > 0.0 && policy.period.is_finite(),
                "diffusion period must be positive and finite"
            );
            check_latency(&policy.push_latency, "diffusion push_latency");
            assert!(policy.fanout >= 1, "diffusion fanout must be at least 1");
            if let KeyGossipPolicy::RecentWrites { window, .. } = policy.key_policy {
                assert!(
                    window >= 0.0,
                    "recent-writes window must be non-negative, got {window}"
                );
            }
        }
    }
}

/// Panics unless every parameter of `law` is finite and non-negative,
/// naming `field`: a NaN or infinite draw would otherwise surface as the
/// event queue's panic at the first message scheduled with it.  Degenerate
/// laws — a zero mean, equal or swapped uniform endpoints, a Pareto shape
/// at most 1 — stay valid: sampling them is total.
fn check_latency(law: &LatencyModel, field: &str) {
    let parameters = match *law {
        LatencyModel::Fixed(v) => [v, 0.0],
        LatencyModel::Uniform { min, max } => [min, max],
        LatencyModel::Exponential { mean } => [mean, 0.0],
        LatencyModel::Pareto { scale, shape } => [scale, shape],
    };
    assert!(
        parameters.iter().all(|p| p.is_finite() && *p >= 0.0),
        "{field} parameters must be finite and non-negative, got {law:?}"
    );
}

/// A configured simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation<'a, S: QuorumSystem + ?Sized> {
    pub(crate) system: &'a S,
    pub(crate) kind: ProtocolKind,
    pub(crate) config: SimConfig,
    pub(crate) plan: Option<FailurePlan>,
}

impl<'a, S: QuorumSystem + ?Sized> Simulation<'a, S> {
    /// Creates a simulation over the given system and protocol.
    pub fn new(system: &'a S, kind: ProtocolKind, config: SimConfig) -> Self {
        Simulation {
            system,
            kind,
            config,
            plan: None,
        }
    }

    /// Overrides the failure plan derived from the configuration with an
    /// explicit one (Byzantine placement and crash schedule).  A schedule
    /// is a set of timed events: the order a struct literal lists them in
    /// does not matter.
    ///
    /// # Panics
    ///
    /// Panics if a transition time is NaN or negative, a partition window
    /// is one [`FailurePlan::with_partition`] refuses, or a Byzantine,
    /// transition or sleeper server lies outside the system's universe.
    pub fn with_failure_plan(mut self, mut plan: FailurePlan) -> Self {
        plan.check(self.system.universe());
        plan.sort_schedules();
        self.plan = Some(plan);
        self
    }

    /// Runs the simulation to completion and returns its report.
    pub fn run(&self) -> SimReport {
        self.run_with_stats().0
    }

    /// Runs the simulation and additionally returns the engine's
    /// wall-clock stage timings.
    ///
    /// Each gossip barrier splits into drain / plan / route; a
    /// diffusion-free run has no barrier and its spine stages stay zero.
    /// The report half is bit-identical to [`Simulation::run`]; the
    /// timings half is wall-clock measurement and never feeds back into
    /// the simulation.
    pub fn run_with_stats(&self) -> (SimReport, EngineStageTimings) {
        crate::parallel::run(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_core::probabilistic::{
        EpsilonIntersecting, ProbabilisticDissemination, ProbabilisticMasking,
    };
    use pqs_core::strict::Majority;
    use pqs_core::system::ProbabilisticQuorumSystem;
    use pqs_core::universe::ServerId;

    fn quick_config(seed: u64) -> SimConfig {
        SimConfig::builder()
            .with_duration(50.0)
            .with_arrival_rate(20.0)
            .with_read_fraction(0.8)
            .with_latency(LatencyModel::Uniform {
                min: 1e-4,
                max: 1e-3,
            })
            .with_crash_probability(0.0)
            .with_byzantine(0)
            .with_seed(seed)
            .build()
    }

    #[test]
    fn failure_free_safe_run_has_no_stale_reads_beyond_epsilon() {
        let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
        let report = Simulation::new(&sys, ProtocolKind::Safe, quick_config(1)).run();
        assert!(report.completed_reads > 500);
        assert!(report.completed_writes > 100);
        assert_eq!(report.unavailable_ops, 0);
        assert!(report.stale_read_rate() < 0.01);
        assert!(report.mean_latency() > 0.0);
        assert!(report.empirical_load() > 0.0);
        // Every op probes |Q| servers and the engine processes one event per
        // probe plus arrival and timeout events.
        assert!(report.events_processed > report.total_operations);
        // The single-key run books everything under variable 0.
        assert_eq!(report.per_variable.len(), 1);
        assert_eq!(
            report.summed_per_variable_ops(),
            report.completed_reads + report.completed_writes + report.unavailable_ops
        );
    }

    #[test]
    fn determinism_per_seed() {
        let sys = EpsilonIntersecting::new(64, 16).unwrap();
        let a = Simulation::new(&sys, ProtocolKind::Safe, quick_config(7)).run();
        let b = Simulation::new(&sys, ProtocolKind::Safe, quick_config(7)).run();
        assert_eq!(a, b, "same seed must give bit-identical reports");
        let c = Simulation::new(&sys, ProtocolKind::Safe, quick_config(8)).run();
        assert_ne!(a.per_server_accesses, c.per_server_accesses);
    }

    #[test]
    fn loose_system_shows_staleness_tight_system_does_not() {
        let mut config = quick_config(3);
        config.read_fraction = 0.5;
        config.latency = LatencyModel::Fixed(1e-6);
        let loose = EpsilonIntersecting::new(64, 8).unwrap();
        let loose_report = Simulation::new(&loose, ProtocolKind::Safe, config).run();
        let majority = Majority::new(64).unwrap();
        let strict_report = Simulation::new(&majority, ProtocolKind::Safe, config).run();
        assert_eq!(strict_report.stale_reads, 0);
        assert!(
            loose_report.stale_read_rate() > strict_report.stale_read_rate(),
            "loose {} vs strict {}",
            loose_report.stale_read_rate(),
            strict_report.stale_read_rate()
        );
        // And the loose rate tracks epsilon.
        assert!((loose_report.stale_read_rate() - loose.epsilon()).abs() < 0.05);
    }

    #[test]
    fn operations_keep_completing_under_heavy_crashes() {
        // Half of the servers crash at time 0. Because the protocols accept
        // partial quorum responses, both systems keep completing operations;
        // consistency degrades (stale reads appear) but availability of the
        // small-quorum probabilistic system stays near-perfect.
        let mut config = quick_config(4);
        config.crash_probability = 0.5;
        config.read_fraction = 0.5;
        let majority = Majority::new(25).unwrap();
        let strict_report = Simulation::new(&majority, ProtocolKind::Safe, config).run();
        let sys = EpsilonIntersecting::with_target_epsilon(25, 1e-2).unwrap();
        let prob_report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert!(strict_report.completed_writes > 0);
        assert!(prob_report.completed_writes > 0);
        assert!(prob_report.unavailability() < 0.05);
        // Staleness rises well above the failure-free epsilon for both, but
        // stays far from total inconsistency.
        assert!(strict_report.stale_read_rate() < 0.6);
        assert!(prob_report.stale_read_rate() < 0.6);
    }

    #[test]
    fn byzantine_masking_run_returns_no_forgeries() {
        let sys = ProbabilisticMasking::with_target_epsilon(100, 5, 1e-3).unwrap();
        let mut config = quick_config(5);
        config.byzantine = 5;
        let report = Simulation::new(
            &sys,
            ProtocolKind::Masking {
                threshold: sys.read_threshold(),
            },
            config,
        )
        .run();
        assert!(report.completed_reads > 0);
        // Forgeries would show up as stale reads with absurd sequence
        // numbers; the rate must stay near epsilon.
        assert!(
            report.stale_read_rate() < 0.02,
            "{}",
            report.stale_read_rate()
        );
    }

    #[test]
    fn byzantine_dissemination_run_stays_consistent() {
        let sys = ProbabilisticDissemination::with_target_epsilon(100, 20, 1e-3).unwrap();
        let mut config = quick_config(6);
        config.byzantine = 20;
        let report = Simulation::new(&sys, ProtocolKind::Dissemination, config).run();
        assert!(report.completed_reads > 0);
        assert!(
            report.stale_read_rate() < 0.02,
            "{}",
            report.stale_read_rate()
        );
    }

    #[test]
    fn empirical_load_tracks_analytic_load() {
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        let mut config = quick_config(9);
        config.duration = 100.0;
        config.arrival_rate = 50.0;
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        use pqs_core::system::QuorumSystem;
        assert!(
            (report.empirical_load() - sys.load()).abs() < 0.05,
            "empirical {} analytic {}",
            report.empirical_load(),
            sys.load()
        );
    }

    #[test]
    fn explicit_failure_plan_with_recovery() {
        use crate::failure::FailurePlan;
        let sys = Majority::new(9).unwrap();
        // Crash 7 of 9 servers at t=10, recover at t=30: inside the window a
        // noticeable fraction of 5-server quorums contains no live server at
        // all, so some operations fail outright (even after a resample);
        // outside the window none do.
        let mut plan = FailurePlan::none();
        for i in 0..7 {
            plan = plan
                .with_transition(10.0, ServerId::new(i), true)
                .with_transition(30.0, ServerId::new(i), false);
        }
        let mut config = quick_config(11);
        config.duration = 60.0;
        let report = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(plan)
            .run();
        assert!(report.unavailable_ops > 0);
        assert!(report.unavailability() < 0.5);
        assert!(report.retries > 0, "zero-reply attempts must resample");
    }

    #[test]
    fn mid_run_crash_wave_changes_the_report() {
        // The acceptance scenario: an identical plan applied at t = D/2
        // versus applied never (after the run ends). The mid-run wave must
        // observably raise unavailability.
        let sys = Majority::new(15).unwrap();
        let mut config = quick_config(12);
        config.duration = 40.0;
        config.read_fraction = 0.5;
        let wave_servers = || (0..15).map(ServerId::new);
        let mid = FailurePlan::none().with_crash_wave(20.0, wave_servers());
        let never = FailurePlan::none().with_crash_wave(1e6, wave_servers());
        let hit = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(mid)
            .run();
        let clean = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(never)
            .run();
        assert_eq!(clean.unavailable_ops, 0);
        assert!(
            hit.unavailable_ops > 100,
            "every op after the wave must fail, got {}",
            hit.unavailable_ops
        );
        assert!(hit.unavailability() > clean.unavailability());
        // Before the wave the runs are identical: same seed, same draws.
        assert_eq!(
            hit.completed_writes + hit.completed_reads + hit.unavailable_ops,
            clean.completed_writes + clean.completed_reads
        );
    }

    #[test]
    fn probe_margin_cuts_tail_latency_under_long_tails() {
        // The second acceptance scenario: under a heavy-tailed latency
        // model, probing q + margin servers and finishing on the first q
        // replies yields a lower p99 than probing exactly q (which must wait
        // for its slowest member).
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        let mut config = quick_config(13);
        config.latency = LatencyModel::Pareto {
            scale: 1e-3,
            shape: 1.8,
        };
        config.op_timeout = 10.0;
        let exact = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.probe_margin = 8;
        let margined = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert!(exact.completed_reads > 500 && margined.completed_reads > 500);
        assert!(
            margined.p99_latency() < exact.p99_latency(),
            "margin 8 p99 {} should beat margin 0 p99 {}",
            margined.p99_latency(),
            exact.p99_latency()
        );
        assert!(margined.read_latency.p99() < exact.read_latency.p99());
        // The price is load: more probes per op on the wire.
        assert!(margined.total_operations <= exact.total_operations + exact.retries);
        let margined_accesses: u64 = margined.per_server_accesses.iter().sum();
        let exact_accesses: u64 = exact.per_server_accesses.iter().sum();
        assert!(margined_accesses > exact_accesses);
    }

    #[test]
    fn concurrent_sessions_overlap_in_flight() {
        // 500 op/s against millisecond-scale probe latency: many operations
        // must be in flight simultaneously — the regime the atomic-loop
        // simulator could not express.
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        let config = SimConfig::builder()
            .with_duration(20.0)
            .with_arrival_rate(500.0)
            .with_read_fraction(0.9)
            .with_latency(LatencyModel::Exponential { mean: 5e-3 })
            .with_seed(14)
            .build();
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert!(report.max_in_flight > 1, "ops must overlap");
        assert!(report.mean_in_flight > 0.5, "{}", report.mean_in_flight);
        assert!(report.concurrent_reads > 0, "reads must overlap writes");
        assert_eq!(report.unavailable_ops, 0);
        // Percentiles are ordered and populated.
        assert!(report.read_latency.p50() <= report.read_latency.p95());
        assert!(report.read_latency.p95() <= report.read_latency.p99());
        assert!(report.write_latency.p99() > 0.0);
    }

    #[test]
    fn per_probe_latency_is_the_qth_order_statistic() {
        // With fixed latency every probe takes the same time, so operation
        // latency equals the fixed value regardless of quorum size.
        let sys = EpsilonIntersecting::new(64, 16).unwrap();
        let mut config = quick_config(15);
        config.latency = LatencyModel::Fixed(2e-3);
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert!((report.mean_latency() - 2e-3).abs() < 1e-9);
        assert!((report.read_latency.p99() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn sharded_run_books_every_op_under_its_variable() {
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        let mut config = quick_config(16);
        config.duration = 100.0;
        config.arrival_rate = 60.0;
        config.read_fraction = 0.7;
        config.keyspace = KeySpace::zipf(64, 1.0);
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert_eq!(report.per_variable.len(), 64);
        // No operation is lost or double-counted across the breakdown.
        assert_eq!(
            report.summed_per_variable_ops(),
            report.completed_reads + report.completed_writes + report.unavailable_ops
        );
        let sum_reads: u64 = report.per_variable.iter().map(|v| v.completed_reads).sum();
        let sum_writes: u64 = report.per_variable.iter().map(|v| v.completed_writes).sum();
        let sum_stale: u64 = report.per_variable.iter().map(|v| v.stale_reads).sum();
        let sum_concurrent: u64 = report.per_variable.iter().map(|v| v.concurrent_reads).sum();
        assert_eq!(sum_reads, report.completed_reads);
        assert_eq!(sum_writes, report.completed_writes);
        assert_eq!(sum_stale, report.stale_reads);
        assert_eq!(sum_concurrent, report.concurrent_reads);
        // Zipf(1) over 64 keys: the hottest key dominates the mean share.
        let hot = report.hottest_variable().unwrap();
        assert_eq!(hot.variable, 0, "Zipf rank 0 must be hottest");
        assert!(
            report.key_load_imbalance() > 5.0,
            "imbalance {}",
            report.key_load_imbalance()
        );
        // Cross-key isolation: per-key staleness stays near epsilon even
        // though 64 write chains interleave in one event queue.
        assert!(report.stale_read_rate() < 0.05);
    }

    #[test]
    fn sharding_does_not_change_server_load_balance() {
        // The paper's load bound is per-server; spreading the same op
        // stream over many keys must leave the per-server empirical load
        // unchanged (all keys share the access strategy).
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        let mut config = quick_config(17);
        config.duration = 100.0;
        config.arrival_rate = 50.0;
        let one = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.keyspace = KeySpace::zipf(256, 1.2);
        let many = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        use pqs_core::system::QuorumSystem;
        assert!((one.empirical_load() - sys.load()).abs() < 0.05);
        assert!((many.empirical_load() - sys.load()).abs() < 0.05);
    }

    #[test]
    fn retry_backoff_delays_resamples_through_an_outage() {
        // All servers down from t=10 to t=30. Immediate retries burn every
        // attempt inside the outage and the op dies; backed-off retries
        // reach past the recovery and complete.
        let sys = Majority::new(9).unwrap();
        let wave = || {
            let mut plan = FailurePlan::none();
            for i in 0..9 {
                plan = plan
                    .with_transition(10.0, ServerId::new(i), true)
                    .with_transition(30.0, ServerId::new(i), false);
            }
            plan
        };
        let mut config = quick_config(18);
        config.duration = 60.0;
        config.op_timeout = 0.5;
        config.max_retries = 6;
        let immediate = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(wave())
            .run();
        config.retry_backoff = 2.0;
        let backed_off = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(wave())
            .run();
        assert!(immediate.unavailable_ops > 0, "immediate retries give up");
        assert!(
            backed_off.unavailable_ops < immediate.unavailable_ops,
            "backoff {} vs immediate {}",
            backed_off.unavailable_ops,
            immediate.unavailable_ops
        );
        assert!(backed_off.retries > 0);
        // Ops that waited out the outage pay for it in latency.
        assert!(backed_off.p99_latency() > immediate.p99_latency());
    }

    #[test]
    fn diffusion_cuts_stale_reads_without_touching_the_foreground() {
        // A loose system (epsilon ~ 0.3) over a skewed key space: gossip
        // must cut staleness, and because it draws from its own RNG stream
        // the foreground trajectory (completions, accesses, latencies) of
        // the diffusion run replays the diffusion-off run exactly.
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let mut config = quick_config(30);
        config.duration = 40.0;
        config.arrival_rate = 50.0;
        config.read_fraction = 0.85;
        config.keyspace = KeySpace::zipf(8, 1.0);
        config.latency = LatencyModel::Exponential { mean: 2e-3 };
        let off = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.diffusion = Some(DiffusionPolicy::full_push(0.1, 3));
        let on = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        // Identical foreground: gossip never consumes main-stream RNG,
        // never answers client probes and never counts as an access.
        assert_eq!(on.completed_reads, off.completed_reads);
        assert_eq!(on.completed_writes, off.completed_writes);
        assert_eq!(on.unavailable_ops, off.unavailable_ops);
        assert_eq!(on.retries, off.retries);
        assert_eq!(on.per_server_accesses, off.per_server_accesses);
        assert_eq!(on.total_operations, off.total_operations);
        // Gossip genuinely ran and did work.
        assert!(on.gossip_rounds > 100, "rounds {}", on.gossip_rounds);
        assert!(on.gossip_pushes > on.gossip_rounds);
        assert!(on.gossip_stores > 0);
        assert!(on.events_processed > off.events_processed);
        // Staleness: dominated per read (gossip only freshens servers), so
        // the cut is deterministic, and it must be substantial.
        assert!(off.stale_reads > 50, "baseline stale {}", off.stale_reads);
        assert!(
            (on.stale_reads as f64) < 0.7 * off.stale_reads as f64,
            "diffusion stale {} vs baseline {}",
            on.stale_reads,
            off.stale_reads
        );
        // Per-key: the hot key converges and its metrics are populated.
        let hot = &on.per_variable[0];
        assert!(hot.gossip_pushes > 0 && hot.gossip_stores > 0);
        assert!(hot.coverage_events > 0);
        assert!(hot.mean_rounds_to_coverage().is_some());
        assert!(hot.stale_reads <= off.per_variable[0].stale_reads);
    }

    #[test]
    fn digest_mode_cuts_staleness_like_full_push_at_a_fraction_of_the_volume() {
        // Same loose system, same period and fanout: the digest/delta
        // exchange must match full-push's consistency benefit while
        // transferring far fewer records — the ~85% of blind pushes that
        // freshen nobody never go on the wire.
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let mut config = quick_config(33);
        config.duration = 40.0;
        config.arrival_rate = 50.0;
        config.read_fraction = 0.85;
        config.keyspace = KeySpace::zipf(8, 1.0);
        config.latency = LatencyModel::Exponential { mean: 2e-3 };
        let off = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.diffusion = Some(DiffusionPolicy::full_push(0.1, 3));
        let push = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.diffusion = Some(DiffusionPolicy::digest_delta(0.1, 3));
        let digest = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        // Identical foreground across all three runs.
        assert_eq!(digest.completed_reads, off.completed_reads);
        assert_eq!(digest.completed_writes, off.completed_writes);
        assert_eq!(digest.per_server_accesses, off.per_server_accesses);
        // Digest traffic ran: summaries out, deltas back, redundancy
        // proven instead of transferred.
        assert!(digest.gossip_digests > 0);
        assert!(digest.gossip_pushes > 0);
        assert!(digest.gossip_redundant_pushes_avoided > digest.gossip_pushes);
        assert_eq!(push.gossip_digests, 0);
        assert_eq!(push.gossip_redundant_pushes_avoided, 0);
        // The volume cut is massive at equal policy settings...
        assert!(
            (digest.gossip_pushes as f64) < 0.25 * push.gossip_pushes as f64,
            "digest transferred {} records vs full-push {}",
            digest.gossip_pushes,
            push.gossip_pushes
        );
        // ...while consistency stays in the same band: both dominate the
        // gossip-free baseline, and digest stays within 2x of full-push's
        // residual staleness (both tiny against the baseline).
        assert!(off.stale_reads > 50);
        assert!(digest.stale_reads + digest.empty_reads <= off.stale_reads + off.empty_reads);
        assert!(
            (digest.stale_reads as f64) <= (2.0 * push.stale_reads as f64).max(10.0),
            "digest stale {} vs full-push stale {}",
            digest.stale_reads,
            push.stale_reads
        );
        // Nearly every digest-mode transfer freshens its receiver (the
        // whole point); blind pushes mostly do not.
        let digest_hit = digest.gossip_stores as f64 / digest.gossip_pushes as f64;
        let push_hit = push.gossip_stores as f64 / push.gossip_pushes as f64;
        assert!(
            digest_hit > 0.5 && digest_hit > 5.0 * push_hit,
            "digest hit rate {digest_hit:.3} vs push {push_hit:.3}"
        );
        // Per-key delta accounting sums to the aggregate volume.
        let deltas: u64 = digest
            .per_variable
            .iter()
            .map(|v| v.gossip_delta_records)
            .sum();
        assert_eq!(deltas, digest.gossip_pushes);
        assert!(digest.per_variable[0].mean_rounds_to_coverage().is_some());
    }

    #[test]
    fn selective_policies_gossip_fewer_records_and_still_converge_hot_keys() {
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let mut config = quick_config(34);
        config.duration = 40.0;
        config.arrival_rate = 50.0;
        config.read_fraction = 0.85;
        config.keyspace = KeySpace::zipf(16, 1.2);
        config.latency = LatencyModel::Exponential { mean: 2e-3 };
        config.diffusion = Some(DiffusionPolicy::digest_delta(0.1, 3));
        let uniform = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.diffusion = Some(DiffusionPolicy::digest_delta(0.1, 3).with_key_policy(
            KeyGossipPolicy::HotFirst {
                hot_keys: 2,
                cold_every: 16,
            },
        ));
        let hot_first = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.diffusion = Some(DiffusionPolicy::digest_delta(0.1, 3).with_key_policy(
            KeyGossipPolicy::RecentWrites {
                window: 0.3,
                cold_every: 16,
            },
        ));
        let recent = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        // All three replay the same foreground (selection is RNG-free).
        assert_eq!(uniform.completed_reads, hot_first.completed_reads);
        assert_eq!(uniform.per_server_accesses, recent.per_server_accesses);
        // Selective digests advertise fewer keys, so fewer redundant
        // transfers are even possible — and the hot key still converges.
        for (name, run) in [("hot-first", &hot_first), ("recent", &recent)] {
            assert!(run.gossip_digests > 0, "{name}");
            assert!(run.gossip_stores > 0, "{name}");
            assert!(
                run.per_variable[0].coverage_events > 0,
                "{name}: hot key never converged"
            );
            assert!(
                run.gossip_redundant_pushes_avoided < uniform.gossip_redundant_pushes_avoided,
                "{name}: selective digests must prove less redundancy than complete ones"
            );
        }
        // The hot key's staleness stays comparable to uniform digests even
        // though cold keys gossip 16x less often.
        let hot_uniform = uniform.per_variable[0].stale_reads;
        for run in [&hot_first, &recent] {
            assert!(
                run.per_variable[0].stale_reads <= hot_uniform + 10,
                "hot key staleness {} vs uniform {}",
                run.per_variable[0].stale_reads,
                hot_uniform
            );
        }
    }

    #[test]
    fn signed_records_flow_through_digest_gossip_in_dissemination_runs() {
        let sys = ProbabilisticDissemination::with_target_epsilon(100, 10, 1e-3).unwrap();
        let mut config = quick_config(35);
        config.byzantine = 10;
        config.diffusion = Some(DiffusionPolicy::digest_delta(0.25, 2));
        let report = Simulation::new(&sys, ProtocolKind::Dissemination, config).run();
        assert!(report.completed_reads > 0);
        assert!(report.gossip_digests > 0);
        assert!(
            report.gossip_stores > 0,
            "signed records must spread through digest gossip"
        );
    }

    #[test]
    fn digest_selector_resolves_policies_from_foreground_state() {
        use crate::parallel::digest_selector;
        use pqs_protocols::diffusion::KeySelector;
        use std::collections::BTreeSet;
        let writes = [5u64, 0, 9, 2];
        let last = [10.0, f64::NEG_INFINITY, 11.8, 4.0];
        let state = |v: usize| (writes[v], last[v]);
        assert_eq!(
            digest_selector(KeyGossipPolicy::Uniform, 3, 12.0, 4, state),
            KeySelector::All
        );
        // Hot-first: top keys by write count, never-written keys excluded;
        // every cold_every-th round is a complete catch-up digest.
        let hot = KeyGossipPolicy::HotFirst {
            hot_keys: 2,
            cold_every: 4,
        };
        assert_eq!(
            digest_selector(hot, 3, 12.0, 4, state),
            KeySelector::Only(BTreeSet::from([2, 0]))
        );
        assert_eq!(digest_selector(hot, 4, 12.0, 4, state), KeySelector::All);
        // A hot_keys budget beyond the written keys takes what exists.
        let wide = KeyGossipPolicy::HotFirst {
            hot_keys: 10,
            cold_every: 4,
        };
        assert_eq!(
            digest_selector(wide, 1, 12.0, 4, state),
            KeySelector::Only(BTreeSet::from([0, 2, 3]))
        );
        // Recent-writes: only keys written inside the trailing window.
        let recent = KeyGossipPolicy::RecentWrites {
            window: 1.0,
            cold_every: 4,
        };
        assert_eq!(
            digest_selector(recent, 2, 12.0, 4, state),
            KeySelector::Only(BTreeSet::from([2]))
        );
        assert_eq!(digest_selector(recent, 8, 12.0, 4, state), KeySelector::All);
        // cold_every <= 1 degenerates to uniform for both policies.
        let degenerate = KeyGossipPolicy::HotFirst {
            hot_keys: 1,
            cold_every: 1,
        };
        assert_eq!(
            digest_selector(degenerate, 3, 12.0, 4, state),
            KeySelector::All
        );
    }

    /// Every rejection of [`SimConfigBuilder::build`]: each row spoils one
    /// field of a valid builder and names the panic that must follow.
    #[test]
    fn build_rejects_each_invalid_field_with_its_message() {
        type Spoil = fn(SimConfigBuilder) -> SimConfigBuilder;
        let duration = "duration must be positive and finite";
        let rate = "arrival_rate must be positive and finite";
        let reads = "read_fraction must lie in [0, 1]";
        let crash = "crash_probability must lie in [0, 1]";
        let timeout = "op_timeout must be non-negative and finite";
        let backoff = "retry_backoff must be non-negative and finite";
        let period = "diffusion period must be positive and finite";
        let window = "recent-writes window must be non-negative";
        fn recent(window: SimTime) -> DiffusionPolicy {
            DiffusionPolicy::digest_delta(0.1, 3).with_key_policy(KeyGossipPolicy::RecentWrites {
                window,
                cold_every: 8,
            })
        }
        let latency = "latency parameters must be finite and non-negative";
        let push_latency = "diffusion push_latency parameters must be finite and non-negative";
        fn pushing(law: LatencyModel) -> DiffusionPolicy {
            DiffusionPolicy::full_push(0.25, 2).with_push_latency(law)
        }
        let rows: [(Spoil, &str); 33] = [
            (|b| b.with_duration(f64::NAN), duration),
            (|b| b.with_duration(f64::INFINITY), duration),
            (|b| b.with_duration(-1.0), duration),
            (|b| b.with_arrival_rate(f64::NAN), rate),
            (|b| b.with_arrival_rate(f64::INFINITY), rate),
            (|b| b.with_arrival_rate(-1.0), rate),
            (|b| b.with_read_fraction(-0.1), reads),
            (|b| b.with_read_fraction(1.1), reads),
            (|b| b.with_read_fraction(f64::NAN), reads),
            (|b| b.with_crash_probability(-0.1), crash),
            (|b| b.with_crash_probability(1.1), crash),
            (|b| b.with_crash_probability(f64::NAN), crash),
            (|b| b.with_op_timeout(-1.0), timeout),
            (|b| b.with_op_timeout(f64::NAN), timeout),
            (|b| b.with_retry_backoff(-1.0), backoff),
            (|b| b.with_retry_backoff(f64::NAN), backoff),
            (|b| b.with_num_shards(0), "num_shards must be at least 1"),
            (|b| b.with_threads(0), "threads must be at least 1"),
            (
                |b| b.with_diffusion(DiffusionPolicy::full_push(0.0, 2)),
                period,
            ),
            (
                |b| b.with_diffusion(DiffusionPolicy::full_push(-0.25, 2)),
                period,
            ),
            (
                |b| b.with_diffusion(DiffusionPolicy::full_push(f64::NAN, 2)),
                period,
            ),
            (
                |b| b.with_diffusion(DiffusionPolicy::full_push(0.25, 0)),
                "diffusion fanout must be at least 1",
            ),
            (|b| b.with_diffusion(recent(f64::NAN)), window),
            (|b| b.with_diffusion(recent(-1.0)), window),
            (|b| b.with_latency(LatencyModel::Fixed(-1e-3)), latency),
            (
                |b| b.with_latency(LatencyModel::Fixed(f64::INFINITY)),
                latency,
            ),
            (
                |b| {
                    b.with_latency(LatencyModel::Uniform {
                        min: 1e-3,
                        max: f64::NAN,
                    })
                },
                latency,
            ),
            (
                |b| b.with_latency(LatencyModel::Exponential { mean: f64::NAN }),
                latency,
            ),
            (
                |b| {
                    b.with_latency(LatencyModel::Exponential {
                        mean: f64::INFINITY,
                    })
                },
                latency,
            ),
            (
                |b| {
                    b.with_latency(LatencyModel::Pareto {
                        scale: 1e-3,
                        shape: f64::NAN,
                    })
                },
                latency,
            ),
            (
                |b| b.with_diffusion(pushing(LatencyModel::Exponential { mean: f64::NAN })),
                push_latency,
            ),
            (
                |b| b.with_diffusion(pushing(LatencyModel::Fixed(f64::INFINITY))),
                push_latency,
            ),
            (
                |b| {
                    b.with_diffusion(pushing(LatencyModel::Pareto {
                        scale: -1e-3,
                        shape: 2.0,
                    }))
                },
                push_latency,
            ),
        ];
        let valid = || SimConfig::builder().with_diffusion(DiffusionPolicy::default());
        valid().build();
        // Degenerate laws that sample to a constant stay valid.
        for law in [
            LatencyModel::Fixed(0.0),
            LatencyModel::Uniform {
                min: 2e-3,
                max: 1e-3,
            },
            LatencyModel::Exponential { mean: 0.0 },
            LatencyModel::Pareto {
                scale: 1e-3,
                shape: 0.5,
            },
        ] {
            valid()
                .with_latency(law)
                .with_diffusion(pushing(law))
                .build();
        }
        for (row, (spoil, expected)) in rows.into_iter().enumerate() {
            let builder = spoil(valid());
            let panic = std::panic::catch_unwind(move || builder.build())
                .expect_err(&format!("row {row} built"));
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.starts_with(expected), "row {row}: {message:?}");
        }
    }

    /// The fields are public, so a value written after `build()` is checked
    /// again where the run starts, with `build()`'s message.
    #[test]
    #[should_panic(expected = "recent-writes window must be non-negative, got NaN")]
    fn a_nan_window_written_after_build_is_rejected_at_run() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let policy = DiffusionPolicy::digest_delta(0.1, 2);
        let mut config = SimConfig::builder()
            .with_duration(1.0)
            .with_diffusion(policy)
            .build();
        config.diffusion = Some(policy.with_key_policy(KeyGossipPolicy::RecentWrites {
            window: f64::NAN,
            cold_every: 8,
        }));
        Simulation::new(&sys, ProtocolKind::Safe, config).run();
    }

    /// A push latency law written after `build()` is checked at `run()`
    /// too, with `build()`'s message, before any message is scheduled.
    #[test]
    #[should_panic(expected = "diffusion push_latency parameters must be finite and non-negative")]
    fn a_nan_push_latency_written_after_build_is_rejected_at_run() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let mut config = SimConfig::builder()
            .with_duration(1.0)
            .with_diffusion(DiffusionPolicy::full_push(0.1, 2))
            .build();
        if let Some(policy) = &mut config.diffusion {
            policy.push_latency = LatencyModel::Exponential { mean: f64::NAN };
        }
        Simulation::new(&sys, ProtocolKind::Safe, config).run();
    }

    #[test]
    fn diffusion_policy_builders_compose() {
        let policy = DiffusionPolicy::default();
        assert_eq!(policy.mode, GossipMode::PushAll);
        assert_eq!(policy.key_policy, KeyGossipPolicy::Uniform);
        assert_eq!(DiffusionPolicy::full_push(0.25, 2), policy);
        let digest = DiffusionPolicy::digest_delta(0.1, 3)
            .with_key_policy(KeyGossipPolicy::RecentWrites {
                window: 0.5,
                cold_every: 8,
            })
            .with_push_latency(LatencyModel::Fixed(5e-4));
        assert_eq!(digest.mode, GossipMode::DigestDelta);
        assert_eq!(digest.period, 0.1);
        assert_eq!(digest.fanout, 3);
        // The key policy survives unrelated builder calls.
        assert_eq!(
            digest.key_policy,
            KeyGossipPolicy::RecentWrites {
                window: 0.5,
                cold_every: 8
            }
        );
    }

    #[test]
    fn diffusion_off_schedules_no_gossip_and_stays_bit_identical() {
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let config = quick_config(31);
        assert_eq!(config.diffusion, None, "off is the default");
        let a = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        let b = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert_eq!(a, b);
        assert_eq!(a.gossip_rounds, 0);
        assert_eq!(a.gossip_pushes, 0);
        assert_eq!(a.gossip_stores, 0);
        assert!(a.per_variable[0].mean_rounds_to_coverage().is_none());
    }

    #[test]
    fn signed_records_diffuse_in_dissemination_runs() {
        // The dissemination protocol stores signed records; the engine's
        // gossip must diffuse those (the plain path would find nothing).
        let sys = ProbabilisticDissemination::with_target_epsilon(100, 10, 1e-3).unwrap();
        let mut config = quick_config(32);
        config.byzantine = 10;
        config.diffusion = Some(DiffusionPolicy::default());
        let report = Simulation::new(&sys, ProtocolKind::Dissemination, config).run();
        assert!(report.completed_reads > 0);
        assert!(report.gossip_rounds > 0);
        assert!(
            report.gossip_stores > 0,
            "signed records must spread through gossip"
        );
    }

    #[test]
    fn larger_backoff_factors_stretch_the_retry_schedule() {
        // Same 20-second outage, same retry budget: a larger factor spreads
        // the budget over a longer horizon, so more operations survive into
        // the recovery instead of burning every attempt inside the outage.
        let sys = Majority::new(9).unwrap();
        let wave = || {
            let mut plan = FailurePlan::none();
            for i in 0..9 {
                plan = plan
                    .with_transition(10.0, ServerId::new(i), true)
                    .with_transition(30.0, ServerId::new(i), false);
            }
            plan
        };
        let mut config = quick_config(19);
        config.duration = 60.0;
        config.op_timeout = 0.5;
        config.max_retries = 4;
        let mut unavailable = Vec::new();
        for factor in [1.0, 8.0] {
            config.retry_backoff = factor;
            let report = Simulation::new(&sys, ProtocolKind::Safe, config)
                .with_failure_plan(wave())
                .run();
            assert!(report.retries > 0, "factor {factor} must retry");
            unavailable.push(report.unavailable_ops);
        }
        assert!(
            unavailable[1] < unavailable[0],
            "factor 8 unavailable {} must beat factor 1 {}",
            unavailable[1],
            unavailable[0]
        );
    }

    #[test]
    fn builder_chain_renders_only_non_default_fields() {
        assert_eq!(
            SimConfig::default().to_builder_chain(),
            "SimConfig::builder().build()"
        );
        let chain = SimConfig::builder()
            .with_duration(30.0)
            .with_keyspace(KeySpace::zipf(64, 1.2))
            .with_probe_margin(4)
            .build()
            .to_builder_chain();
        assert_eq!(
            chain,
            "SimConfig::builder().with_duration(30.0)\
             .with_keyspace(KeySpace::zipf(64, 1.2)).with_probe_margin(4).build()"
        );
        assert!(!chain.contains("with_seed"), "default seed must not render");
    }

    #[test]
    fn builder_chain_round_trips_a_planner_style_config() {
        let config = SimConfig::builder()
            .with_duration(45.0)
            .with_arrival_rate(200.0)
            .with_read_fraction(0.9)
            .with_keyspace(KeySpace::zipf(64, 0.8))
            .with_latency(LatencyModel::Exponential { mean: 5e-3 })
            .with_crash_probability(0.02)
            .with_probe_margin(6)
            .with_op_timeout(0.08)
            .with_diffusion(
                DiffusionPolicy::digest_delta(0.05, 3)
                    .with_push_latency(LatencyModel::Exponential { mean: 5e-3 }),
            )
            .with_seed(42)
            .build();
        let chain = config.to_builder_chain();
        // The rendered chain names exactly the non-default knobs…
        for needle in [
            ".with_duration(45.0)",
            ".with_arrival_rate(200.0)",
            ".with_keyspace(KeySpace::zipf(64, 0.8))",
            ".with_latency(LatencyModel::Exponential { mean: 0.005 })",
            ".with_crash_probability(0.02)",
            ".with_probe_margin(6)",
            ".with_op_timeout(0.08)",
            ".with_diffusion(DiffusionPolicy::digest_delta(0.05, 3)\
             .with_push_latency(LatencyModel::Exponential { mean: 0.005 }))",
            ".with_seed(42)",
        ] {
            assert!(chain.contains(needle), "missing {needle} in {chain}");
        }
        // …and rebuilding from the struct's own fields reproduces both the
        // config and its rendering (the round-trip contract validate_plan
        // re-checks on every emitted plan).
        let rebuilt = SimConfig::builder()
            .with_duration(config.duration)
            .with_arrival_rate(config.arrival_rate)
            .with_read_fraction(config.read_fraction)
            .with_keyspace(config.keyspace)
            .with_latency(config.latency)
            .with_crash_probability(config.crash_probability)
            .with_probe_margin(config.probe_margin)
            .with_op_timeout(config.op_timeout)
            .with_diffusion(config.diffusion.unwrap())
            .with_seed(config.seed)
            .build();
        assert_eq!(rebuilt, config);
        assert_eq!(rebuilt.to_builder_chain(), chain);
    }

    #[test]
    fn builder_chain_renders_every_latency_and_policy_shape() {
        let uniform = SimConfig::builder()
            .with_latency(LatencyModel::Uniform {
                min: 1e-4,
                max: 2e-3,
            })
            .build()
            .to_builder_chain();
        assert!(uniform.contains("LatencyModel::Uniform { min: 0.0001, max: 0.002 }"));
        let pareto = SimConfig::builder()
            .with_latency(LatencyModel::Pareto {
                scale: 1e-3,
                shape: 2.5,
            })
            .build()
            .to_builder_chain();
        assert!(pareto.contains("LatencyModel::Pareto { scale: 0.001, shape: 2.5 }"));
        let push = SimConfig::builder()
            .with_diffusion(DiffusionPolicy::full_push(0.1, 2).with_key_policy(
                KeyGossipPolicy::HotFirst {
                    hot_keys: 4,
                    cold_every: 8,
                },
            ))
            .build()
            .to_builder_chain();
        assert!(push.contains(
            "DiffusionPolicy::full_push(0.1, 2)\
             .with_key_policy(KeyGossipPolicy::HotFirst { hot_keys: 4, cold_every: 8 })"
        ));
        let recent = SimConfig::builder()
            .with_diffusion(DiffusionPolicy::digest_delta(0.25, 2).with_key_policy(
                KeyGossipPolicy::RecentWrites {
                    window: 1.5,
                    cold_every: 4,
                },
            ))
            .build()
            .to_builder_chain();
        assert!(recent.contains("KeyGossipPolicy::RecentWrites { window: 1.5, cold_every: 4 }"));
        assert!(
            KeySpace::uniform(16) == KeySpace::uniform(16)
                && SimConfig::builder()
                    .with_keyspace(KeySpace::uniform(16))
                    .build()
                    .to_builder_chain()
                    .contains(".with_keyspace(KeySpace::uniform(16))")
        );
    }
}
