//! One world of the engine: a self-contained event loop for the variables
//! it owns, and the **only** copy of the arrival / probe-reply / timeout /
//! retry / membership / partition-gating / gossip-delivery / finalize
//! logic.
//!
//! The engine (see [`crate::parallel`]) partitions the key space by
//! `variable % num_shards`; one shard is simply the layout in which a
//! single world owns every key.  Each [`World`] owns an event queue, a
//! full replica-cluster copy and the per-key client state for its
//! variables, and drains independently between spine barriers — no locks,
//! no channels, no shared mutable state.  Per-variable events (arrivals,
//! probe replies, timeouts, retries) never leave their world; cross-world
//! traffic (gossip messages) is injected by the spine.
//!
//! The queue holds only messages in flight: probe replies, timeouts,
//! retries and gossip deliveries.  An attempt sends to its whole probe set
//! at once, so its replies enter the queue as one train
//! ([`EventQueue::schedule_train`]), keyed by its earliest reply only.
//! Beside the queue head the drain loop walks two timelines: the owned
//! keys' [`Arrivals`], drawn lazily one pending arrival per key, and the
//! plan's one list of crash, recovery, join and leave transitions, walked
//! with a cursor.  Every world applies every transition, so every world
//! holds the run's behaviours at every barrier — the spine reads them off
//! the first world and keeps no timeline of its own.  Queue memory is
//! proportional to the traffic in flight rather than to the run's length.
//!
//! The same holds for client state: an operation takes a slot of the
//! world's op slab when it arrives and gives it back once it is done and
//! its last probe reply has landed, so the slab's size follows the
//! operations in flight.  What an operation leaves behind is order-free:
//! counters, a latency-histogram bucket, its time in the system added to a
//! fixed-point sum, and its start and end times in the current window's
//! transition buffers, which the spine's in-flight gauge empties at every
//! window.  Nothing in a world grows with the run's length.
//!
//! Every variable draws all of its randomness from its **own** ChaCha8
//! streams seeded by [`key_stream_seed`] — its arrivals from one, its
//! probe sets and probe latencies from another — so a variable's
//! trajectory is a function of the seed and its own event history alone —
//! the property that makes the merged report bit-identical across all
//! shard counts and all thread counts.

use crate::event::{BufferPool, Event, OpId, PendingSlab};
use crate::failure::{ByzantineStrategy, FailurePlan, Transition, TransitionKind};
use crate::metrics::{fixed_point, ShardAccumulator, SimReport, VariableReport};
use crate::runner::{ProtocolKind, SimConfig, Simulation};
use crate::staleness::WriteLog;
use crate::time::{EventQueue, SimTime};
use crate::workload::{key_stream_seed, Arrivals, OpKind};
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_math::plan::{smallest_u64_where, timeout_probability, tolerance};
use pqs_protocols::cluster::Cluster;
use pqs_protocols::crypto::KeyRegistry;
use pqs_protocols::diffusion;
use pqs_protocols::register::session::{self, ReadSession, WriteSession};
use pqs_protocols::register::{RegisterFlavor, RegisterMap};
use pqs_protocols::server::{AnyRecord, Behavior, VariableId};
use pqs_protocols::timestamp::Timestamp;
use pqs_protocols::value::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// What one in-flight operation sends to servers and how it tracks replies.
/// The write record is plain or signed according to the protocol flavor
/// ([`AnyRecord`]), so one variant covers all three protocols.
#[derive(Debug)]
enum OpSession {
    Read(ReadSession),
    Write(AnyRecord, WriteSession),
}

/// Book-keeping for one client operation across its attempts, held in a
/// slot of its world's op slab from its arrival until it is done and its
/// last probe reply has landed.
#[derive(Debug)]
struct OpState {
    /// The operation: what a timeout or retry checks the slot's occupant
    /// against.
    op: OpId,
    /// Arrival time.
    start: SimTime,
    kind: OpKind,
    /// The key the operation targets.
    variable: VariableId,
    attempt: u32,
    /// The current attempt's probes whose replies the session still
    /// awaits.
    outstanding: usize,
    /// Probe replies of every attempt still in flight; the slot is
    /// released once the operation is done and this reaches 0.
    pending: usize,
    done: bool,
    /// The current attempt's session.  `finalize` releases a read's (its
    /// reply buffer is dead weight once condensed); a write's stays until
    /// the slot is released, since its record is what late probes still
    /// store and a retry re-sends.
    session: Option<OpSession>,
    /// The value a write pushes: its variable's write sequence number,
    /// assigned at arrival (reads leave it 0).
    sequence: u64,
    /// Handle into the variable's write log (writes only).
    window: Option<usize>,
}

/// Online quorum-parameter recompute for membership churn: the smallest
/// probe margin at (or above) the configured one that keeps the
/// hypergeometric timeout probability within the planner's ε budget
/// ([`tolerance::TIMEOUT_BUDGET`]) for the current count of present
/// servers.  Falls back to probing everything beyond the quorum when no
/// margin satisfies the budget.  Pure arithmetic — every world calls it
/// with identical inputs at identical simulated times, so churn runs stay
/// deterministic.
fn churn_probe_margin(base_margin: u64, n: u64, quorum: u64, present: u64) -> usize {
    let hi = n.saturating_sub(quorum);
    let lo = base_margin.min(hi);
    smallest_u64_where(lo, hi, |m| {
        timeout_probability(n, present, quorum, m) <= tolerance::TIMEOUT_BUDGET
    })
    .unwrap_or(hi) as usize
}

/// Whether an adaptive-adversary sleeper fires for this probe: evaluated at
/// probe-reply time from **foreground-only** statistics (per-variable write
/// sequence counters and last-write arrival times — the same state the
/// digest policies read), so the decision never touches any RNG stream and
/// diffusion-off replay invariants survive.  A firing sleeper answers this
/// one probe as [`Behavior::ByzantineStale`] (ack-without-storing, stale
/// replies) — the strongest *undetectable* deviation, and one that leaves
/// the event flow of the same-seed static run untouched.
fn strategy_fires(
    strategy: &ByzantineStrategy,
    server: ServerId,
    variable: VariableId,
    now: SimTime,
    sequences: &[u64],
    last_write_at: &[SimTime],
) -> bool {
    match strategy {
        ByzantineStrategy::Static => false,
        ByzantineStrategy::HotKeyTargeting {
            sleepers,
            min_writes,
        } => sequences[variable as usize] >= *min_writes && sleepers.contains(&server),
        ByzantineStrategy::StaleSigned { sleepers, window } => {
            sequences[variable as usize] > 0
                && now - last_write_at[variable as usize] <= *window
                && sleepers.contains(&server)
        }
    }
}

/// A digest injected by the spine, waiting for its delivery event: the
/// sub-digest itself (its entries in a buffer from the world's pool), its
/// **global** digest id (events carry slab slots, so the id used for the
/// cross-shard one-delta-per-digest accounting rides here) and the
/// pre-drawn latency of the answering delta (drawn on the spine so the
/// gossip RNG stream never depends on shard outcomes).
#[derive(Debug)]
struct PendingDigest {
    global_id: u64,
    digest: diffusion::GossipDigest,
    delta_rtt: SimTime,
}

/// A set of global digest ids as a dense bitset: the ids run
/// `0..digests planned`, so a bit per id is both smaller and cheaper to
/// insert into than an ordered set, and the spine's cross-shard union is
/// a word-wise OR.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct DigestIds {
    words: Vec<u64>,
}

impl DigestIds {
    /// Adds `id` to the set.
    pub(crate) fn insert(&mut self, id: u64) {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id % 64);
    }

    /// The number of ids in the union of `sets`.
    pub(crate) fn union_len<'s>(sets: impl IntoIterator<Item = &'s DigestIds>) -> u64 {
        let mut union: Vec<u64> = Vec::new();
        for set in sets {
            if set.words.len() > union.len() {
                union.resize(set.words.len(), 0);
            }
            for (acc, word) in union.iter_mut().zip(&set.words) {
                *acc |= word;
            }
        }
        union.iter().map(|word| u64::from(word.count_ones())).sum()
    }
}

/// One gossip round's cross-shard traffic bound for a single shard,
/// accumulated by the spine during planning and bulk-scheduled by
/// [`World::schedule_round_batch`].  A sub-digest's entries are a range
/// of the batch's own entry arena, not a vector of their own.  The
/// buffers are drained each round and keep their capacity, so
/// steady-state routing allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RoundBatch {
    /// `(delivery time, push)` in plan order.
    pub(crate) pushes: Vec<(SimTime, diffusion::GossipPush)>,
    /// `(delivery time, global digest id, sub-digest, delta latency)` in
    /// plan order; each sub-digest's range indexes `entries`.
    pub(crate) digests: Vec<(SimTime, u64, diffusion::PlannedDigest, SimTime)>,
    /// The sub-digests' `(key, timestamp)` entries, back to back.
    pub(crate) entries: Vec<(VariableId, Timestamp)>,
}

/// One world's complete simulation state.
#[derive(Debug)]
pub(crate) struct World<'a, S: QuorumSystem + ?Sized> {
    config: SimConfig,
    /// Messages in flight; the arrivals and the schedules known before the
    /// run are walked beside it instead.
    queue: EventQueue<Event>,
    /// The pending arrivals of the keys this world owns.
    arrivals: Arrivals,
    /// Operations arrived so far: the next arrival's [`OpId`].
    arrived: OpId,
    /// Index into `plan.transitions` of the next transition to apply.
    next_transition: usize,
    /// The shard's replica-cluster copy.  Per-key server records live only
    /// on the key's owning shard — the spine plans gossip from them there —
    /// and every transition is applied in every shard, so all worlds hold
    /// the same behaviours, which the spine reads off the first world.
    pub(crate) cluster: Cluster,
    registers: RegisterMap<'a, S>,
    /// The state of the operations in flight, one slot each from arrival
    /// until the operation is done and its last probe reply has landed, so
    /// the slab follows the operations in flight, not the operations run.
    ops: PendingSlab<OpState>,
    writes: Vec<WriteLog>,
    /// Per-variable write sequence counters (authoritative for owned
    /// variables; the spine reads them for the digest key policies).
    pub(crate) sequences: Vec<u64>,
    /// Per-variable latest write arrival time (authoritative for owned
    /// variables).
    pub(crate) last_write_at: Vec<SimTime>,
    /// One private RNG stream per variable.
    key_rngs: Vec<ChaCha8Rng>,
    acc: ShardAccumulator,
    pending_pushes: PendingSlab<diffusion::GossipPush>,
    pending_digests: PendingSlab<PendingDigest>,
    /// Answering deltas in flight, each carrying its global digest id so
    /// blocked deliveries can be attributed once per message.
    pending_deltas: PendingSlab<(u64, diffusion::GossipDelta)>,
    /// Recycled entry buffers of the pending digests.
    digest_entries: BufferPool<(VariableId, Timestamp)>,
    /// Recycled record buffers of the pending deltas.
    delta_records: BufferPool<(VariableId, AnyRecord)>,
    /// Global ids of digests this shard answered with a non-empty delta;
    /// the spine counts the union as delta *events* (a digest's delta is
    /// one message, however many shards contribute records to it).
    pub(crate) deltas_sent: DigestIds,
    /// Global ids of deltas whose delivery a partition window blocked;
    /// the spine counts the union once per id (a blocked delta is one
    /// dropped message, however many shards its records span).
    pub(crate) deltas_blocked: DigestIds,
    /// The run's failure plan, borrowed: its transitions are one of the
    /// timelines the drain loop walks (applied in every shard), and its
    /// partition windows and adversary strategy are consulted at delivery
    /// time.
    plan: &'a FailurePlan,
    /// Present-server mask for the membership-churn margin recompute
    /// (empty when the plan has no join or leave — churn-free runs never
    /// touch the probe margin).
    present: Vec<bool>,
    /// Count of `true` entries in `present`.
    present_count: u64,
    /// Universe size, for the margin recompute.
    universe_n: u64,
    /// The system's minimum quorum size, for the margin recompute.
    min_quorum: u64,
    /// Arrival time and whether it is done, of every operation from the
    /// earliest-arrived one that may be unfinished on: the front is the
    /// write logs' horizon.  Operation `op` sits at `op - unfinished_base`.
    unfinished: VecDeque<(SimTime, bool)>,
    /// The [`OpId`] of `unfinished`'s front.
    unfinished_base: OpId,
    /// Arrival times of the operations that arrived since the spine's
    /// in-flight gauge last read them, in time order.
    pub(crate) starts: Vec<SimTime>,
    /// Times operations left the system since the gauge last read them, in
    /// time order.
    pub(crate) ends: Vec<SimTime>,
}

impl<'a, S: QuorumSystem + ?Sized> World<'a, S> {
    /// Builds a world of `sim` that owns the keys `arrivals` draws for:
    /// points the transition cursor at the start of the plan's schedule,
    /// and derives the per-variable RNG streams from the run seed.  The
    /// queue and the op slab start empty.
    pub(crate) fn new(
        sim: &Simulation<'a, S>,
        arrivals: Arrivals,
        plan: &'a FailurePlan,
        byz_behavior: Behavior,
    ) -> Self {
        debug_assert!(
            plan.transitions.windows(2).all(|w| {
                let rank = |t: &Transition| (t.at, t.kind.is_membership());
                rank(&w[0]) <= rank(&w[1])
            }),
            "the transition cursor walks a sorted timeline"
        );
        let config = sim.config;
        let mut cluster = Cluster::new(sim.system.universe());
        cluster.reserve_variables(config.keyspace.keys);
        cluster.corrupt_all(plan.byzantine.iter().copied(), byz_behavior);
        // Servers whose first membership event is a join have not joined
        // yet: they start dark and bootstrap through gossip when they do.
        cluster.crash_all(plan.initially_absent());

        let mut registry = KeyRegistry::new();
        let signing_key = registry.register(1, config.seed ^ 0xabcdef);
        let flavor = match sim.kind {
            ProtocolKind::Safe => RegisterFlavor::Safe,
            ProtocolKind::Dissemination => RegisterFlavor::Dissemination {
                key: signing_key,
                registry: registry.clone(),
            },
            ProtocolKind::Masking { threshold } => RegisterFlavor::Masking { threshold },
        };
        let registers =
            RegisterMap::new(sim.system, flavor, 1).with_probe_margin(config.probe_margin as usize);

        let universe_n = sim.system.universe().size() as u64;
        let min_quorum = sim.system.min_quorum_size() as u64;
        let mut present: Vec<bool> = Vec::new();
        let mut present_count = 0u64;
        if plan.transitions.iter().any(|t| t.kind.is_membership()) {
            present = vec![true; universe_n as usize];
            for absent in plan.initially_absent() {
                present[absent.index() as usize] = false;
            }
            present_count = present.iter().filter(|&&p| p).count() as u64;
        }

        let nvars = config.keyspace.keys as usize;
        let report = SimReport {
            per_variable: (0..nvars)
                .map(|i| VariableReport {
                    variable: i as VariableId,
                    ..VariableReport::default()
                })
                .collect(),
            per_component_stale_reads: vec![
                0;
                plan.partitions
                    .iter()
                    .map(|w| w.components as usize)
                    .max()
                    .unwrap_or(0)
            ],
            ..SimReport::default()
        };
        World {
            config,
            queue: EventQueue::new(),
            arrivals,
            arrived: 0,
            next_transition: 0,
            cluster,
            registers,
            ops: PendingSlab::new(),
            writes: (0..nvars).map(|_| WriteLog::default()).collect(),
            sequences: vec![0; nvars],
            last_write_at: vec![f64::NEG_INFINITY; nvars],
            key_rngs: (0..nvars as u64)
                .map(|v| ChaCha8Rng::seed_from_u64(key_stream_seed(config.seed, v)))
                .collect(),
            acc: ShardAccumulator {
                report,
                ..ShardAccumulator::default()
            },
            pending_pushes: PendingSlab::new(),
            pending_digests: PendingSlab::new(),
            pending_deltas: PendingSlab::new(),
            digest_entries: BufferPool::default(),
            delta_records: BufferPool::default(),
            deltas_sent: DigestIds::default(),
            deltas_blocked: DigestIds::default(),
            plan,
            present,
            present_count,
            universe_n,
            min_quorum,
            unfinished: VecDeque::new(),
            unfinished_base: 0,
            starts: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Handles this shard's events up to (strictly before) `barrier`, or
    /// all of them with `None`, then applies the crashes and recoveries due
    /// exactly at `barrier`.  The other events *at* the barrier belong to
    /// the next window: the spine plans its round at the barrier time
    /// before them, against behaviours that already include that instant's
    /// crashes.  Taking those crashes ahead of the same-time arrivals
    /// changes nothing: an arrival samples its probe set without reading
    /// any behaviour, so the two commute.  Joins and leaves at the barrier
    /// wait for the next window, because a join wipes records the round
    /// is planned from.
    ///
    /// Each step takes the earliest of the two timeline heads and the
    /// queue head.  Ties go arrival → transition → queue: the order of
    /// `(time, insertion sequence)` had the two timelines been queued, in
    /// that order, before any event of the run.
    pub(crate) fn drain_until(&mut self, barrier: Option<SimTime>) {
        let end = barrier.unwrap_or(SimTime::INFINITY);
        loop {
            let arrival = self.arrivals.peek();
            let transition = self.plan.transitions.get(self.next_transition);
            let arrival_at = arrival.map_or(SimTime::INFINITY, |a| a.at);
            let transition_at = transition.map_or(SimTime::INFINITY, |next| next.at);
            let queued_at = self.queue.peek_time().unwrap_or(SimTime::INFINITY);
            let t = arrival_at.min(transition_at).min(queued_at);
            if t >= end {
                break;
            }
            match (arrival, transition) {
                (Some(a), _) if arrival_at == t => {
                    self.arrivals.pop();
                    self.arrive(t, a.kind, a.variable);
                }
                (_, Some(&transition)) if transition_at == t => self.apply(transition),
                _ => {
                    let (_, event) = self.queue.pop().expect("peeked event must pop");
                    self.handle(t, event);
                }
            }
        }
        // Crashes and recoveries sort ahead of membership changes at equal
        // times, so the ones due at the barrier are next in line.
        while let Some(&transition) = self
            .plan
            .transitions
            .get(self.next_transition)
            .filter(|next| next.at == end && !next.kind.is_membership())
        {
            self.apply(transition);
        }
    }

    /// Bulk-schedules one spine-planned round of cross-shard gossip:
    /// payloads go into the pending slabs, and the round's pushes enter
    /// the queue as one train and its digests as another.
    ///
    /// Each sub-digest's entries are copied out of the batch arena into a
    /// recycled buffer that travels with the pending digest.
    ///
    /// Determinism: a train's entries take consecutive sequence numbers in
    /// plan order and pop by `(time, sequence)`, so equal-time messages
    /// keep their plan order and the pop order is bit-identical to
    /// per-message injection.  The batch buffers are drained with capacity
    /// kept for the next round.
    pub(crate) fn schedule_round_batch(&mut self, batch: &mut RoundBatch) {
        self.queue
            .schedule_train(batch.pushes.drain(..).map(|(at, push)| {
                let slot = self.pending_pushes.insert(push);
                (at, Event::GossipPush { push: slot })
            }));
        self.queue.schedule_train(batch.digests.drain(..).map(
            |(at, global_id, planned, delta_rtt)| {
                let mut entries = self.digest_entries.take();
                entries.extend_from_slice(planned.entries(&batch.entries));
                let slot = self.pending_digests.insert(PendingDigest {
                    global_id,
                    digest: diffusion::GossipDigest {
                        from: planned.from,
                        to: planned.to,
                        signed: planned.signed,
                        complete: planned.complete,
                        entries,
                    },
                    delta_rtt,
                });
                (at, Event::GossipDigest { digest: slot })
            },
        ));
        batch.entries.clear();
    }

    /// Finishes the shard: stamps the cluster-side tallies into the report
    /// and releases the accumulator for merging.
    pub(crate) fn into_accumulator(mut self) -> ShardAccumulator {
        self.acc.report.per_server_accesses = self.cluster.access_counts().to_vec();
        self.acc.report.total_operations = self.cluster.total_accesses();
        self.acc
    }

    /// An operation, taken off the arrivals, enters the system: it takes
    /// the next [`OpId`] and a slot of the op slab, a write takes its
    /// variable's next sequence number, and the first attempt starts.
    fn arrive(&mut self, t: SimTime, kind: OpKind, variable: VariableId) {
        self.acc.logical_events += 1;
        let op = self.arrived;
        self.arrived += 1;
        self.starts.push(t);
        // Operations arrive in time order, so the first unfinished one
        // bounds the earliest start of any unfinished op this world's
        // write logs care about (staleness is per-variable and variables
        // never cross worlds).  The walk stops at this arrival at the
        // latest.
        self.unfinished.push_back((t, false));
        while self.unfinished.front().is_some_and(|&(_, done)| done) {
            self.unfinished.pop_front();
            self.unfinished_base += 1;
        }
        let horizon = self
            .unfinished
            .front()
            .expect("this arrival is unfinished")
            .0;
        let var = variable as usize;
        self.writes[var].advance(horizon);
        let (mut sequence, mut window) = (0, None);
        if kind == OpKind::Write {
            self.sequences[var] += 1;
            sequence = self.sequences[var];
            self.last_write_at[var] = t;
            window = Some(self.writes[var].open(t, sequence));
        }
        let slot = self.ops.insert(OpState {
            op,
            start: t,
            kind,
            variable,
            attempt: 0,
            outstanding: 0,
            pending: 0,
            done: false,
            session: None,
            sequence,
            window,
        });
        self.start_attempt(slot, t);
    }

    /// Applies the plan's next transition, `transition`, and steps the
    /// cursor past it.  Every shard applies every transition (each owns a
    /// full cluster copy); the spine counts each once.  A joiner comes up
    /// correct with reset stores, a leaver goes dark, and on either the
    /// probe margin is recomputed online against the ε budget — pure
    /// arithmetic, so every shard lands on the same margin at the same
    /// simulated time.
    fn apply(&mut self, transition: Transition) {
        self.next_transition += 1;
        let server = transition.server;
        match transition.kind {
            TransitionKind::Crash | TransitionKind::Leave => {
                self.cluster.set_behavior(server, Behavior::Crashed);
            }
            TransitionKind::Recover => self.cluster.set_behavior(server, Behavior::Correct),
            TransitionKind::Join => self.cluster.join_server(server),
        }
        if !transition.kind.is_membership() {
            return;
        }
        let joined = transition.kind == TransitionKind::Join;
        let si = server.index() as usize;
        if self.present[si] != joined {
            self.present[si] = joined;
            if joined {
                self.present_count += 1;
            } else {
                self.present_count -= 1;
            }
        }
        self.registers.set_probe_margin(churn_probe_margin(
            self.config.probe_margin as u64,
            self.universe_n,
            self.min_quorum,
            self.present_count,
        ));
    }

    /// Processes one message popped off the queue.  Randomness comes from
    /// the event's variable's own stream; round planning lives on the
    /// spine, which injects the gossip deliveries handled here.
    fn handle(&mut self, t: SimTime, event: Event) {
        match event {
            Event::ProbeReply {
                slot,
                attempt,
                server,
            } => {
                self.acc.logical_events += 1;
                let variable = self.ops[slot].variable;
                self.ops[slot].pending -= 1;
                let fed = if self.plan.blocks_probe(t, variable, server) {
                    // The message never crossed the partition: no
                    // server-side effect, and the client sees one more
                    // silent server (exactly like a crashed replier).
                    self.acc.report.dropped_probes += 1;
                    !self.ops[slot].done && self.ops[slot].attempt == attempt
                } else {
                    // An adaptive sleeper answers exactly this probe as a
                    // stale replier when its foreground predicate fires —
                    // `sequences`/`last_write_at` are authoritative here,
                    // on the variable's owning shard.
                    let flip = !matches!(self.plan.strategy, ByzantineStrategy::Static)
                        && self.cluster.server(server).behavior() == Behavior::Correct
                        && strategy_fires(
                            &self.plan.strategy,
                            server,
                            variable,
                            t,
                            &self.sequences,
                            &self.last_write_at,
                        );
                    if flip {
                        self.cluster.set_behavior(server, Behavior::ByzantineStale);
                        self.acc.report.adaptive_activations += 1;
                    }
                    let fed =
                        deliver_probe(&mut self.ops[slot], server, &mut self.cluster, attempt);
                    if flip {
                        self.cluster.set_behavior(server, Behavior::Correct);
                    }
                    fed
                };
                if fed {
                    let state = &mut self.ops[slot];
                    state.outstanding -= 1;
                    let complete = match state.session.as_ref() {
                        Some(OpSession::Read(s)) => s.is_complete(),
                        Some(OpSession::Write(_, s)) => s.is_complete(),
                        None => false,
                    };
                    if complete {
                        self.finalize(slot, t);
                    } else if state.outstanding == 0 {
                        self.end_attempt(slot, t);
                    }
                }
                self.release_if_idle(slot);
            }
            Event::OpTimeout { slot, op, attempt } => {
                self.acc.logical_events += 1;
                if self.is_live(slot, op, attempt) {
                    let var = self.ops[slot].variable as usize;
                    self.acc.report.per_variable[var].timed_out_attempts += 1;
                    self.end_attempt(slot, t);
                    self.release_if_idle(slot);
                }
            }
            Event::RetryAttempt { slot, op, attempt } => {
                self.acc.logical_events += 1;
                if self.is_live(slot, op, attempt) {
                    self.start_attempt(slot, t);
                }
            }
            Event::GossipPush { push } => {
                self.acc.logical_events += 1;
                if let Some(p) = self.pending_pushes.take(push) {
                    // Partitions gate gossip at delivery time only, so
                    // spine planning (and the gossip RNG stream) is
                    // untouched.  A push is one message on one shard, so
                    // the per-shard counter sums exactly.
                    if self.plan.blocks_link(t, p.from, p.to) {
                        self.acc.report.partition_blocked_gossip += 1;
                        return;
                    }
                    let var = p.variable as usize;
                    self.acc.report.per_variable[var].gossip_pushes += 1;
                    if diffusion::deliver(&mut self.cluster, &p) {
                        self.acc.report.per_variable[var].gossip_stores += 1;
                    }
                }
            }
            Event::GossipDigest { digest } => {
                // Digest deliveries are spine-level events (counted there:
                // one digest may fan out to several shards but is one
                // message); only its per-variable outcomes happen here.
                if let Some(p) = self.pending_digests.take(digest) {
                    let mut records = self.delta_records.take();
                    let report = &mut self.acc.report;
                    diffusion::diff_digest_into(&self.cluster, &p.digest, &mut records, |var| {
                        report.per_variable[var as usize].gossip_redundant_pushes_avoided += 1;
                    });
                    if records.is_empty() {
                        self.delta_records.give(records);
                    } else {
                        self.deltas_sent.insert(p.global_id);
                        let delta = diffusion::GossipDelta {
                            from: p.digest.to,
                            to: p.digest.from,
                            records,
                        };
                        let slot = self.pending_deltas.insert((p.global_id, delta));
                        self.queue
                            .schedule(t + p.delta_rtt, Event::GossipDelta { delta: slot });
                    }
                    self.digest_entries.give(p.digest.entries);
                }
            }
            Event::GossipDelta { delta } => {
                // Likewise counted as one spine-level event per digest id;
                // the per-record push/store accounting happens here.
                if let Some((global_id, d)) = self.pending_deltas.take(delta) {
                    // Re-checked at delivery (the delta may cross a window
                    // boundary its digest did not); blocked ids are
                    // deduplicated on the spine into one dropped message.
                    if self.plan.blocks_link(t, d.from, d.to) {
                        self.deltas_blocked.insert(global_id);
                    } else {
                        for (var, record) in &d.records {
                            let vi = *var as usize;
                            self.acc.report.per_variable[vi].gossip_pushes += 1;
                            self.acc.report.per_variable[vi].gossip_delta_records += 1;
                            if diffusion::deliver_record(&mut self.cluster, d.to, *var, record) {
                                self.acc.report.per_variable[vi].gossip_stores += 1;
                            }
                        }
                    }
                    self.delta_records.give(d.records);
                }
            }
        }
    }

    /// Whether `slot` still holds operation `op`, unfinished, at
    /// `attempt` — what a timeout or retry must find to act.
    fn is_live(&self, slot: u64, op: OpId, attempt: u32) -> bool {
        self.ops
            .get(slot)
            .is_some_and(|state| state.op == op && !state.done && state.attempt == attempt)
    }

    /// Frees `slot` once its operation is done and no probe reply of it is
    /// in flight.
    fn release_if_idle(&mut self, slot: u64) {
        let state = &self.ops[slot];
        if state.done && state.pending == 0 {
            self.ops.take(slot);
        }
    }

    /// Samples a probe set from the operation's variable's stream, creates
    /// the attempt's session through the per-variable register table, and
    /// schedules the probe replies, as one train, plus the attempt
    /// timeout.
    fn start_attempt(&mut self, slot: u64, now: SimTime) {
        self.cluster.note_operation();
        let state = &mut self.ops[slot];
        let rng = &mut self.key_rngs[state.variable as usize];
        let probe = self.registers.sample_probe_set(rng);
        match state.kind {
            OpKind::Write => {
                // A retried write re-sends its original record under its
                // original timestamp (it is the *same* logical write, aimed
                // at a fresh probe set); only the first attempt issues a
                // fresh record through the variable's timestamp chain.
                let (record, session) = match state.session.take() {
                    Some(OpSession::Write(record, old)) => {
                        let session =
                            WriteSession::new(old.timestamp(), probe.needed, probe.probed());
                        (record, session)
                    }
                    _ => self.registers.begin_write(
                        state.variable,
                        Value::from_u64(state.sequence),
                        probe.needed,
                        probe.probed(),
                    ),
                };
                state.session = Some(OpSession::Write(record, session));
            }
            OpKind::Read => {
                state.session = Some(OpSession::Read(self.registers.begin_read(probe.needed)));
            }
        }
        state.outstanding = probe.probed();
        state.pending += probe.probed();
        let attempt = state.attempt;
        let latency = &self.config.latency;
        self.queue
            .schedule_train(probe.servers.iter().map(|&server| {
                let reply = Event::ProbeReply {
                    slot,
                    attempt,
                    server,
                };
                (now + latency.sample(rng), reply)
            }));
        self.queue.schedule(
            now + self.config.op_timeout.max(0.0),
            Event::OpTimeout {
                slot,
                op: state.op,
                attempt,
            },
        );
    }

    /// An attempt ran out of probes or timed out: condense partial replies,
    /// retry on a fresh probe set (immediately or after the backoff delay),
    /// or give up.
    fn end_attempt(&mut self, slot: u64, now: SimTime) {
        let state = &mut self.ops[slot];
        let responders = match state.session.as_ref() {
            Some(OpSession::Read(s)) => s.responders(),
            Some(OpSession::Write(_, s)) => s.acks(),
            None => 0,
        };
        let var = state.variable as usize;
        if responders > 0 {
            self.finalize(slot, now);
        } else if state.attempt < self.config.max_retries {
            state.attempt += 1;
            let (op, attempt) = (state.op, state.attempt);
            self.acc.report.per_variable[var].retries += 1;
            let delay = retry_delay(&self.config, attempt);
            if delay > 0.0 {
                self.queue
                    .schedule(now + delay, Event::RetryAttempt { slot, op, attempt });
            } else {
                self.start_attempt(slot, now);
            }
        } else {
            if let Some(handle) = state.window {
                self.writes[var].fail(handle, now);
            }
            self.acc.report.per_variable[var].unavailable_ops += 1;
            self.leave(slot, now);
        }
    }

    /// The operation in `slot` is done at `now`, completed or given up: it
    /// no longer holds back the write logs' horizon, and its time in the
    /// system goes to the in-flight gauge.  Returns its arrival time.
    fn leave(&mut self, slot: u64, now: SimTime) -> SimTime {
        let state = &mut self.ops[slot];
        state.done = true;
        let (op, start) = (state.op, state.start);
        self.unfinished[(op - self.unfinished_base) as usize].1 = true;
        self.ends.push(now);
        self.acc.op_time += u128::from(fixed_point(now - start));
        self.acc.busy_until = self.acc.busy_until.max(now);
        start
    }

    /// A session gathered its replies (all `q`, or a non-empty partial set):
    /// close the operation and account for it.  Every aggregate it feeds
    /// is order-free — counters, histograms, fixed-point sums — so the
    /// world records straight into its report.
    fn finalize(&mut self, slot: u64, now: SimTime) {
        let read_start = self.leave(slot, now);
        let state = &mut self.ops[slot];
        let latency = now - read_start;
        let var = state.variable as usize;
        match state.session.as_ref() {
            Some(OpSession::Write(_, _)) => {
                self.acc.report.write_latency.record(latency);
                let pv = &mut self.acc.report.per_variable[var];
                pv.completed_writes += 1;
                pv.latency.record(latency);
                if let Some(handle) = state.window {
                    self.writes[var].close(handle, now);
                }
            }
            Some(OpSession::Read(session)) => {
                let result = session
                    .finish()
                    .expect("finalize is only called with at least one responder");
                // The replies are condensed: release the buffer now rather
                // than with the slot.  A probe of this read still in
                // flight finds no session and only counts its access.
                state.session = None;
                self.acc.report.read_latency.record(latency);
                let pv = &mut self.acc.report.per_variable[var];
                pv.completed_reads += 1;
                pv.latency.record(latency);
                let read_end = now;
                if self.writes[var].concurrent_with(read_start, read_end) {
                    self.acc.report.per_variable[var].concurrent_reads += 1;
                } else {
                    // The freshest write of this variable completed before
                    // this read started is the expected result.
                    let expected = self.writes[var].latest_completed_before(read_start);
                    match (expected, result) {
                        (None, _) => {
                            self.acc.report.per_variable[var].unwritten_reads += 1;
                        }
                        (Some(seq), Some(tv)) => {
                            let got = tv.value.as_u64().unwrap_or(0);
                            if got < seq {
                                self.acc.report.per_variable[var].stale_reads += 1;
                                note_component_staleness(self.plan, now, var, &mut self.acc.report);
                            }
                        }
                        (Some(_), None) => {
                            self.acc.report.per_variable[var].empty_reads += 1;
                            note_component_staleness(self.plan, now, var, &mut self.acc.report);
                        }
                    }
                }
            }
            None => unreachable!("finalized operation must have a session"),
        }
    }
}

/// Attributes one stale/empty read finalized inside an active partition
/// window to its client's component (`variable % components`), so reports
/// break consistency loss down by partition side; a no-op outside partition
/// windows.  A free function so `finalize` can call it while its op state
/// is borrowed.
fn note_component_staleness(plan: &FailurePlan, now: SimTime, var: usize, report: &mut SimReport) {
    let Some(window) = plan.active_partition(now) else {
        return;
    };
    report.per_component_stale_reads[(var as u64 % window.components as u64) as usize] += 1;
}

/// Applies one probe's server-side effect and, if the client still cares
/// about this attempt, feeds the reply into the session.  Returns whether
/// the session consumed the probe.
fn deliver_probe(
    state: &mut OpState,
    server: ServerId,
    cluster: &mut Cluster,
    attempt: u32,
) -> bool {
    let live = !state.done && state.attempt == attempt;
    let variable = state.variable;
    match state.session.as_mut() {
        Some(OpSession::Write(record, session)) => {
            let acked = session::apply_write(cluster, server, variable, record);
            if live {
                session.on_ack(acked);
            }
            live
        }
        // A silent (crashed) server feeds nothing, but the probe resolved:
        // the attempt's outstanding count still drops.
        Some(OpSession::Read(session)) if live => {
            session.probe(cluster, server, variable);
            true
        }
        // A read nobody waits for — its attempt superseded or given up, or
        // its session already released by `finalize`: the reply would be
        // dropped, so all that is left of the probe is the server's load.
        Some(OpSession::Read(_)) | None => {
            cluster.note_access(server);
            false
        }
    }
}

/// The simulated-seconds delay before retry number `attempt` (1-based)
/// starts: `retry_backoff · op_timeout · 2^(attempt−1)`, 0 with the
/// default immediate-retry policy.
fn retry_delay(config: &SimConfig, attempt: u32) -> SimTime {
    if config.retry_backoff <= 0.0 {
        return 0.0;
    }
    let doublings = attempt.saturating_sub(1).min(62);
    config.retry_backoff * config.op_timeout.max(0.0) * (1u64 << doublings) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::PartitionWindow;
    use crate::latency::LatencyModel;
    use crate::metrics::LatencySamples;
    use crate::workload::{Operation, WorkloadConfig};
    use pqs_core::probabilistic::EpsilonIntersecting;
    use pqs_protocols::value::TaggedValue;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// The ordered-set union [`DigestIds::union_len`] replaced, kept as its
    /// oracle.
    fn union_len_oracle(sets: &[BTreeSet<u64>]) -> u64 {
        let mut union: BTreeSet<u64> = BTreeSet::new();
        for set in sets {
            union.extend(set.iter().copied());
        }
        union.len() as u64
    }

    #[test]
    fn bitset_union_counts_what_the_ordered_set_union_counts() {
        // Random id sets over 1–8 worlds, with the word-boundary ids mixed
        // in and some worlds left empty.
        let boundary = [0u64, 63, 64, 127, 128, 191, 192];
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for case in 0..500 {
            let worlds = rng.gen_range(1..=8usize);
            let top = [1u64, 64, 129, 1000][case % 4];
            let sets: Vec<BTreeSet<u64>> = (0..worlds)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        return BTreeSet::new();
                    }
                    let mut set: BTreeSet<u64> = (0..rng.gen_range(0..40))
                        .map(|_| rng.gen_range(0..top))
                        .collect();
                    set.extend(boundary.iter().filter(|_| rng.gen_bool(0.3)));
                    set
                })
                .collect();
            let bits: Vec<DigestIds> = sets
                .iter()
                .map(|set| {
                    let mut ids = DigestIds::default();
                    for &id in set {
                        ids.insert(id);
                        ids.insert(id);
                    }
                    ids
                })
                .collect();
            assert_eq!(
                DigestIds::union_len(&bits),
                union_len_oracle(&sets),
                "case {case}: {sets:?}"
            );
        }
        assert_eq!(DigestIds::union_len(&[]), 0, "no worlds");
    }

    fn op(at: SimTime, kind: OpKind) -> Operation {
        Operation {
            at,
            kind,
            variable: 0,
        }
    }

    /// The one world of a one-shard layout of `config` over the scripted
    /// arrivals `ops` under `plan`.
    fn sole_world<'a>(
        sys: &'a EpsilonIntersecting,
        config: SimConfig,
        ops: &[Operation],
        plan: &'a FailurePlan,
    ) -> World<'a, EpsilonIntersecting> {
        let sim = Simulation::new(sys, ProtocolKind::Safe, config);
        World::new(
            &sim,
            Arrivals::scripted(ops),
            plan,
            Behavior::ByzantineForge,
        )
    }

    /// The slot holding operation `op`, if it holds one.
    fn slot_of(world: &World<'_, EpsilonIntersecting>, op: OpId) -> Option<u64> {
        (0..world.ops.high_water() as u64)
            .find(|&slot| world.ops.get(slot).is_some_and(|state| state.op == op))
    }

    /// The state of operation `op`, looked up through its slot.
    fn state<'w>(world: &'w World<'_, EpsilonIntersecting>, op: OpId) -> Option<&'w OpState> {
        slot_of(world, op).map(|slot| &world.ops[slot])
    }

    /// Hands the world's next arrival, operation `op`, to the arrival
    /// handler, as the drain loop would, and returns the slot it took.
    fn arrive(world: &mut World<'_, EpsilonIntersecting>, op: OpId) -> u64 {
        let a = world.arrivals.pop().expect("a scripted arrival is pending");
        world.arrive(a.at, a.kind, a.variable);
        slot_of(world, op).expect("an arrived op holds a slot")
    }

    fn fixed_latency() -> SimConfig {
        SimConfig::builder()
            .with_latency(LatencyModel::Fixed(1e-3))
            .build()
    }

    #[test]
    fn key_streams_differ_per_variable_and_per_seed() {
        let a = key_stream_seed(42, 0);
        let b = key_stream_seed(42, 1);
        let c = key_stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And the mapping is a pure function of (seed, variable).
        assert_eq!(a, key_stream_seed(42, 0));
    }

    #[test]
    fn finalize_releases_a_read_session_and_keeps_a_write_record() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let ops = [op(0.0, OpKind::Write), op(0.3, OpKind::Read)];
        let plan = FailurePlan::none();
        let mut world = sole_world(&sys, SimConfig::default(), &ops, &plan);
        let (near, far) = (ServerId::new(3), ServerId::new(17));

        // A retried write is the same logical write: same record, same
        // timestamp, a fresh acknowledgement count.  Its arrival assigns
        // the write its sequence number and starts the first attempt.
        let w = arrive(&mut world, 0);
        assert_eq!(world.ops[w].sequence, 1);
        let Some(OpSession::Write(first, _)) = &world.ops[w].session else {
            panic!("a started write holds a write session");
        };
        let first = first.clone();
        world.ops[w].attempt += 1;
        world.start_attempt(w, 0.1);
        let Some(OpSession::Write(resent, session)) = &world.ops[w].session else {
            panic!("a retried write holds a write session");
        };
        assert_eq!(*resent, first, "the retry re-sends the original record");
        assert_eq!(session.timestamp(), first.timestamp());
        assert_eq!(session.acks(), 0);
        // Finalizing the write keeps its session: a probe still in flight
        // delivers the record to its server.
        let deliver = |world: &mut World<'_, EpsilonIntersecting>, slot: u64, server, attempt| {
            deliver_probe(&mut world.ops[slot], server, &mut world.cluster, attempt)
        };
        assert!(deliver(&mut world, w, near, 1));
        world.finalize(w, 0.2);
        assert!(world.ops[w].done && world.ops[w].session.is_some());
        assert!(!deliver(&mut world, w, far, 1));
        assert_eq!(
            world.cluster.server(far).stored_timestamp::<TaggedValue>(0),
            first.timestamp()
        );

        // Finalizing a read releases its session; a probe still in flight
        // counts its server access and nothing else.
        let r = arrive(&mut world, 1);
        assert!(deliver(&mut world, r, near, 0));
        world.finalize(r, 0.4);
        assert!(world.ops[r].done && world.ops[r].session.is_none());
        let row = &world.acc.report.per_variable[0];
        assert_eq!((row.completed_writes, row.completed_reads), (1, 1));
        let before = world.cluster.access_counts()[far.as_usize()];
        assert!(!deliver(&mut world, 1, far, 0));
        assert_eq!(world.cluster.access_counts()[far.as_usize()], before + 1);

        // Each op left its latency in its kind's histogram, its time in
        // the system in the gauge's sum, and its two transitions.
        let latencies = |xs: &[f64]| {
            let mut h = LatencySamples::new();
            xs.iter().for_each(|&x| h.record(x));
            h
        };
        let report = &world.acc.report;
        assert_eq!(report.write_latency, latencies(&[0.2]));
        assert_eq!(report.read_latency, latencies(&[0.4 - 0.3]));
        assert_eq!(
            world.acc.op_time,
            u128::from(fixed_point(0.2) + fixed_point(0.4 - 0.3))
        );
        assert_eq!(
            (world.starts.as_slice(), world.ends.as_slice()),
            (&[0.0, 0.3][..], &[0.2, 0.4][..])
        );
        assert_eq!(world.acc.busy_until, 0.4);
    }

    #[test]
    fn schedules_known_before_the_run_never_enter_the_queue() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let s = ServerId::new;
        let plan = FailurePlan::none()
            .with_crash_wave(0.5, [s(1), s(2)])
            .with_transition(2.0, s(1), false)
            .with_join(1.0, s(9))
            .with_leave(3.0, s(4));
        let ops = [op(0.1, OpKind::Write), op(2.5, OpKind::Read)];
        let mut world = sole_world(&sys, fixed_latency(), &ops, &plan);
        assert!(world.queue.is_empty());
        assert_eq!(world.cluster.server(s(9)).behavior(), Behavior::Crashed);

        // The cursor applies every transition, in time order.
        world.drain_until(None);
        assert!(world.queue.is_empty());
        let behavior = |i| world.cluster.server(s(i)).behavior();
        assert_eq!(behavior(1), Behavior::Correct);
        assert_eq!(behavior(2), Behavior::Crashed);
        assert_eq!(behavior(4), Behavior::Crashed);
        assert_eq!(behavior(9), Behavior::Correct);
        let row = &world.acc.report.per_variable[0];
        assert_eq!((row.completed_writes, row.completed_reads), (1, 1));
    }

    #[test]
    fn an_arrival_wins_its_tie_with_a_membership_leave() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let plan = FailurePlan::none().with_leave(1.0, ServerId::new(7));
        let ops = [op(1.0, OpKind::Read), op(1.5, OpKind::Read)];
        let mut world = sole_world(&sys, fixed_latency(), &ops, &plan);
        let q = sys.min_quorum_size();

        // The arrival samples before the leave recomputes the margin: q
        // probes, the configured margin being 0.  Had the leave gone first,
        // it would have probed q + 1.
        world.drain_until(Some(1.0005));
        assert_eq!(world.next_transition, 1);
        assert_eq!(state(&world, 0).map(|s| s.outstanding), Some(q));
        // With one of 20 servers gone, only a margin of 1 keeps the timeout
        // probability inside the budget: the next arrival probes q + 1.
        world.drain_until(Some(1.5005));
        assert_eq!(state(&world, 1).map(|s| s.outstanding), Some(q + 1));
    }

    #[test]
    fn an_arrival_at_a_barrier_starts_in_the_next_window() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let plan = FailurePlan::none();
        let ops = [op(0.5, OpKind::Write)];
        let mut world = sole_world(&sys, fixed_latency(), &ops, &plan);
        world.drain_until(Some(0.5));
        assert!(state(&world, 0).is_none());
        assert_eq!(world.acc.logical_events, 0);
        // Its probes are in flight until 0.501.
        world.drain_until(Some(0.5005));
        assert!(state(&world, 0).is_some_and(|s| s.session.is_some()));
        world.drain_until(Some(1.0));
        assert_eq!(world.acc.report.per_variable[0].completed_writes, 1);
        assert!(world.ops.is_empty(), "the last reply released the slot");
    }

    /// A barrier takes the crashes and recoveries due exactly at it — the
    /// round planned there sees them — and leaves that instant's joins,
    /// leaves and arrivals to the next window.
    #[test]
    fn a_barrier_applies_its_own_crashes_and_recoveries_only() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let s = ServerId::new;
        let plan = FailurePlan::none()
            .with_transition(0.5, s(3), true)
            .with_transition(1.0, s(3), false)
            .with_transition(1.0, s(4), true)
            .with_join(1.0, s(9))
            .with_leave(1.0, s(7));
        let ops = [op(1.0, OpKind::Read)];
        let mut world = sole_world(&sys, fixed_latency(), &ops, &plan);
        let behavior =
            |world: &World<'_, EpsilonIntersecting>, i| world.cluster.server(s(i)).behavior();
        assert_eq!(
            behavior(&world, 9),
            Behavior::Crashed,
            "absent until it joins"
        );

        world.drain_until(Some(1.0));
        assert_eq!(
            behavior(&world, 3),
            Behavior::Correct,
            "recovered at the barrier"
        );
        assert_eq!(
            behavior(&world, 4),
            Behavior::Crashed,
            "crashed at the barrier"
        );
        assert_eq!(behavior(&world, 9), Behavior::Crashed, "the join waits");
        assert_eq!(behavior(&world, 7), Behavior::Correct, "the leave waits");
        assert_eq!(world.arrived, 0, "the arrival waits");
        assert_eq!(world.next_transition, 3);

        world.drain_until(Some(1.0005));
        assert_eq!(behavior(&world, 9), Behavior::Correct);
        assert_eq!(behavior(&world, 7), Behavior::Crashed);
        assert_eq!(world.arrived, 1);
        assert_eq!(world.next_transition, 5);
    }

    /// The op slab's high-water mark after a whole `seq_foreground`-shaped
    /// run of `duration` simulated seconds (n = 100, q = 16, 2000 ops/s,
    /// 90 % reads, exponential 2 ms probe latency), and the ops it ran.
    fn op_slots_used(duration: SimTime) -> (usize, usize) {
        let sys = EpsilonIntersecting::new(100, 16).unwrap();
        let config = SimConfig::builder()
            .with_duration(duration)
            .with_arrival_rate(2000.0)
            .with_read_fraction(0.9)
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_seed(1)
            .build();
        let workload = WorkloadConfig {
            duration,
            arrival_rate: config.arrival_rate,
            read_fraction: config.read_fraction,
            keyspace: config.keyspace,
        };
        let arrivals = Arrivals::new(&workload, &[1.0], config.seed, 0..1);
        let plan = FailurePlan::none();
        let sim = Simulation::new(&sys, ProtocolKind::Safe, config);
        let mut world = World::new(&sim, arrivals, &plan, Behavior::ByzantineForge);
        world.drain_until(None);
        assert!(world.ops.is_empty(), "every slot is released by the end");
        assert!(world.queue.is_empty());
        (world.ops.high_water(), world.arrived as usize)
    }

    #[test]
    fn op_memory_follows_the_ops_in_flight_not_the_run_length() {
        let (short_slots, short_ops) = op_slots_used(5.0);
        let (long_slots, long_ops) = op_slots_used(50.0);
        assert!(long_ops > 9 * short_ops, "{short_ops} → {long_ops} ops");
        assert!(
            long_slots < 2 * short_slots,
            "{short_slots} → {long_slots} op slots over a 10× longer run"
        );
    }

    fn run_under(plan: FailurePlan) {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let config = SimConfig::builder().with_duration(1.0).build();
        Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(plan)
            .run();
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_nan_crash_time_is_rejected() {
        run_under(FailurePlan::none().with_transition(f64::NAN, ServerId::new(3), true));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_negative_join_time_is_rejected() {
        run_under(FailurePlan::none().with_join(-1.0, ServerId::new(3)));
    }

    /// A struct-literal plan whose one partition window splits the
    /// universe into `components` groups over `[from, heals_at)`, past the
    /// builder's checks.
    fn partitioned(from: SimTime, heals_at: SimTime, components: u32) -> FailurePlan {
        FailurePlan {
            partitions: vec![PartitionWindow {
                from,
                heals_at,
                components,
            }],
            ..FailurePlan::none()
        }
    }

    #[test]
    #[should_panic(expected = "partition window [NaN, 1) is empty")]
    fn a_nan_partition_window_is_rejected() {
        run_under(partitioned(f64::NAN, 1.0, 2));
    }

    #[test]
    #[should_panic(expected = "a partition needs at least 2 components")]
    fn a_partition_of_zero_components_is_rejected() {
        run_under(partitioned(0.2, 0.6, 0));
    }

    /// A run applies one partition at a time, so a second window open at
    /// the same instant would go silently unapplied: overlapping windows
    /// are rejected by the builder and where a plan enters a run, and
    /// windows that only touch (each is half-open) stay valid.
    #[test]
    fn overlapping_partition_windows_are_rejected() {
        let message = |body: fn()| {
            let panic = std::panic::catch_unwind(body).expect_err("an overlap was accepted");
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let built = message(|| {
            let plan = FailurePlan::none().with_partition(0.5, 0.9, 2);
            _ = plan.with_partition(0.2, 0.6, 3);
        });
        assert_eq!(built, "partition windows [0.2, 0.6) and [0.5, 0.9) overlap");
        let literal = message(|| {
            let mut plan = partitioned(0.2, 0.6, 2);
            plan.partitions.push(PartitionWindow {
                from: 0.3,
                heals_at: 0.4,
                components: 3,
            });
            run_under(plan);
        });
        assert_eq!(
            literal,
            "partition windows [0.2, 0.6) and [0.3, 0.4) overlap"
        );
        let touching = FailurePlan::none()
            .with_partition(0.6, 0.8, 3)
            .with_partition(0.2, 0.6, 2);
        run_under(touching);
    }

    #[test]
    #[should_panic(expected = "server 20 is outside the universe of 20 servers")]
    fn a_transition_of_a_server_outside_the_universe_is_rejected() {
        run_under(FailurePlan::none().with_transition(0.5, ServerId::new(20), true));
    }

    /// A NaN or negative `StaleSigned` window would keep every sleeper
    /// asleep, so an adaptive run would silently read like the static one;
    /// `+∞` fires on every written key and stays valid.
    #[test]
    #[should_panic(expected = "StaleSigned window must be non-negative seconds, got NaN")]
    fn a_nan_or_negative_stale_signed_window_is_rejected() {
        let stale = |window| {
            FailurePlan::none().with_strategy(ByzantineStrategy::StaleSigned {
                sleepers: vec![ServerId::new(3)],
                window,
            })
        };
        run_under(stale(f64::INFINITY));
        let negative = std::panic::catch_unwind(|| run_under(stale(-0.5)));
        let message = negative.expect_err("a negative window ran");
        let message = message
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.ends_with("non-negative seconds, got -0.5"),
            "{message:?}"
        );
        run_under(stale(f64::NAN));
    }

    /// Byzantine and sleeper ids are checked like transition ids.
    #[test]
    fn byzantine_and_sleeper_servers_outside_the_universe_are_rejected() {
        let sleepers = ByzantineStrategy::StaleSigned {
            sleepers: vec![ServerId::new(25)],
            window: 0.5,
        };
        let plans = [
            FailurePlan {
                byzantine: vec![ServerId::new(1), ServerId::new(20)],
                ..FailurePlan::none()
            },
            FailurePlan::none().with_strategy(sleepers),
        ];
        for plan in plans {
            let panic = std::panic::catch_unwind(|| run_under(plan.clone()))
                .expect_err(&format!("{plan:?} ran"));
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                message.contains("is outside the universe of 20 servers"),
                "{message:?}"
            );
        }
    }
}
