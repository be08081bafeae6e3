//! One world of the engine: a self-contained event loop for the variables
//! it owns, and the **only** copy of the arrival / probe-reply / timeout /
//! retry / membership / partition-gating / gossip-delivery / finalize
//! logic.
//!
//! The engine (see [`crate::parallel`]) partitions the key space by
//! `variable % num_shards`; one shard is simply the layout in which a
//! single world owns every key.  Each [`World`] owns a full event queue, a
//! full replica-cluster copy and the per-key client state for its
//! variables, and drains independently between spine barriers — no locks,
//! no channels, no shared mutable state.  Per-variable events (arrivals,
//! probe replies, timeouts, retries) never leave their world; cross-world
//! traffic (gossip messages, crash waves) is injected by the spine.
//!
//! Every variable draws all of its randomness (probe sets, probe
//! latencies) from its **own** ChaCha8 stream seeded by
//! [`key_stream_seed`], so a variable's trajectory is a function of the
//! seed and its own event history alone — the property that makes the
//! merged report bit-identical across all shard counts and all thread
//! counts.

use crate::event::{Event, OpId, PendingSlab};
use crate::failure::{ByzantineStrategy, FailurePlan};
use crate::metrics::{OpOutcome, OpRecord, ShardAccumulator, SimReport, VariableReport};
use crate::runner::{ProtocolKind, SimConfig, Simulation};
use crate::staleness::WriteLog;
use crate::time::{EventQueue, SimTime};
use crate::workload::{OpKind, Operation};
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_math::plan::{smallest_u64_where, timeout_probability, tolerance};
use pqs_protocols::cluster::Cluster;
use pqs_protocols::crypto::KeyRegistry;
use pqs_protocols::diffusion;
use pqs_protocols::register::session::{self, ReadSession, WriteSession};
use pqs_protocols::register::{RegisterFlavor, RegisterMap};
use pqs_protocols::server::{AnyRecord, Behavior, Record, VariableId};
use pqs_protocols::value::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Seed of variable `var`'s private RNG stream: a splitmix64-style mix of
/// the run seed and the variable id, so neighbouring variables get
/// statistically independent streams and the mapping is stable across
/// shard counts (it depends on the *variable*, never on the shard).
fn key_stream_seed(seed: u64, var: VariableId) -> u64 {
    let mut z = seed ^ var.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one in-flight operation sends to servers and how it tracks replies.
/// The write record is plain or signed according to the protocol flavor
/// ([`AnyRecord`]), so one variant covers all three protocols.
#[derive(Debug)]
enum OpSession {
    Read(ReadSession),
    Write(AnyRecord, WriteSession),
}

/// Book-keeping for one client operation across its attempts (its arrival
/// time is in its [`OpRecord`]).
#[derive(Debug)]
struct OpState {
    kind: OpKind,
    /// The key the operation targets.
    variable: VariableId,
    attempt: u32,
    outstanding: usize,
    done: bool,
    /// The current attempt's session.  `finalize` releases a read's (its
    /// reply buffer is dead weight once condensed); a write's stays, since
    /// its record is what late probes and retries still deliver.
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
/// sub-digest itself, its **global** digest id (events carry slab slots,
/// so the id used for the cross-shard one-delta-per-digest accounting
/// rides here) and the pre-drawn latency of the answering delta (drawn on
/// the spine so the gossip RNG stream never depends on shard outcomes).
#[derive(Debug)]
struct PendingDigest {
    global_id: u64,
    digest: diffusion::GossipDigest,
    delta_rtt: SimTime,
}

/// A full-push message travelling through a shard queue.
///
/// In release builds that is only ever a push the spine could not settle
/// at planning time.  Debug builds also queue every push the spine *did*
/// settle, as a shadow that re-checks the spine's reasoning at the exact
/// queue position the real delivery would have had — the slow oracle of
/// the plan-time fast path.
#[derive(Debug)]
pub(crate) struct QueuedPush {
    pub(crate) push: diffusion::GossipPush,
    /// `Some(blocked)` marks a shadow: the spine already counted this push,
    /// as partition-blocked or as delivered without a store.
    #[cfg(debug_assertions)]
    pub(crate) resolved: Option<bool>,
}

/// One gossip round's cross-shard traffic bound for a single shard,
/// accumulated by the spine during planning and bulk-scheduled by
/// [`World::schedule_round_batch`].  The buffers are drained each
/// round and keep their capacity, so steady-state routing allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct RoundBatch {
    /// `(delivery time, push)` in plan order.
    pub(crate) pushes: Vec<(SimTime, QueuedPush)>,
    /// `(delivery time, global digest id, sub-digest, delta latency)` in
    /// plan order.
    pub(crate) digests: Vec<(SimTime, u64, diffusion::GossipDigest, SimTime)>,
}

/// One world's complete simulation state.
#[derive(Debug)]
pub(crate) struct World<'a, S: QuorumSystem + ?Sized> {
    config: SimConfig,
    queue: EventQueue<Event>,
    /// The shard's replica-cluster copy.  Per-key server records live only
    /// on the key's owning shard; failure transitions are replayed in
    /// every shard so behaviour timelines agree everywhere.
    pub(crate) cluster: Cluster,
    registers: RegisterMap<'a, S>,
    /// Compact op table: one entry per *owned* op, in arrival order.  A
    /// world never inspects other worlds' op states, so a full-size table
    /// would cost `num_shards×` the memory and cold-page time for nothing.
    /// `acc.ops` runs parallel to it (same index).
    states: Vec<OpState>,
    /// Global op id → index into `states` (meaningful for owned ops only).
    local: Vec<OpId>,
    writes: Vec<WriteLog>,
    /// Per-variable write sequence counters (authoritative for owned
    /// variables; the spine gathers them for the digest key policies).
    pub(crate) sequences: Vec<u64>,
    /// Per-variable latest write arrival time (authoritative for owned
    /// variables).
    pub(crate) last_write_at: Vec<SimTime>,
    /// One private RNG stream per variable.
    key_rngs: Vec<ChaCha8Rng>,
    acc: ShardAccumulator,
    pending_pushes: PendingSlab<QueuedPush>,
    pending_digests: PendingSlab<PendingDigest>,
    /// Answering deltas in flight, each carrying its global digest id so
    /// blocked deliveries can be attributed once per message.
    pending_deltas: PendingSlab<(u64, diffusion::GossipDelta)>,
    /// Global ids of digests this shard answered with a non-empty delta;
    /// the spine counts the union as delta *events* (a digest's delta is
    /// one message, however many shards contribute records to it).
    pub(crate) deltas_sent: BTreeSet<u64>,
    /// Global ids of deltas whose delivery a partition window blocked;
    /// the spine counts the union once per id (a blocked delta is one
    /// dropped message, however many shards its records span).
    pub(crate) deltas_blocked: BTreeSet<u64>,
    /// Scenario state the shard consults at delivery time: the partition
    /// windows and adversary strategy.  Crash, Byzantine and membership
    /// entries are applied or seeded at construction and left empty here.
    plan: FailurePlan,
    /// Present-server mask for the membership-churn margin recompute
    /// (empty when the membership schedule is — churn-free runs never
    /// touch the probe margin).
    present: Vec<bool>,
    /// Count of `true` entries in `present`.
    present_count: u64,
    /// Universe size, for the margin recompute.
    universe_n: u64,
    /// The system's minimum quorum size, for the margin recompute.
    min_quorum: u64,
    /// `(server index, variable)` pairs whose stored record may have
    /// changed since the last spine barrier — the write-probe, push and
    /// delta delivery sites append here.  Marking is conservative (a write
    /// probe to a crashed server changes nothing) but store-if-fresher is
    /// monotone, so re-syncing an unchanged record is a no-op and the
    /// incremental spine sync stays bit-identical to a full resync.
    ///
    /// `Some` only while a spine exists to read and clear it: `None`
    /// without diffusion, and again after the last barrier
    /// ([`World::end_sync`]) — nothing would ever drain the list then.
    dirty: Option<Vec<(u32, VariableId)>>,
    oldest_active: usize,
}

impl<'a, S: QuorumSystem + ?Sized> World<'a, S> {
    /// Builds shard `shard` of `num_shards` of `sim`: seeds owned arrivals
    /// (in op order) and the full crash schedule, and derives the
    /// per-variable RNG streams from the run seed.
    pub(crate) fn new(
        sim: &Simulation<'a, S>,
        ops: &[Operation],
        plan: &FailurePlan,
        byz_behavior: Behavior,
        shard: u64,
        num_shards: u64,
    ) -> Self {
        let config = sim.config;
        let mut cluster = Cluster::new(sim.system.universe());
        cluster.reserve_variables(config.keyspace.keys);
        cluster.corrupt_all(plan.byzantine.iter().copied(), byz_behavior);
        // Servers whose first membership event is a join have not joined
        // yet: they start dark and bootstrap through gossip when they do.
        for absent in plan.initially_absent() {
            cluster.set_behavior(absent, Behavior::Crashed);
        }

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

        let mut queue = EventQueue::new();
        let mut local = vec![0 as OpId; ops.len()];
        let owned = ops
            .iter()
            .filter(|op| op.variable % num_shards == shard)
            .count();
        let mut states = Vec::with_capacity(owned);
        let mut records = Vec::with_capacity(owned);
        for (i, op) in ops.iter().enumerate() {
            if op.variable % num_shards == shard {
                local[i] = states.len() as OpId;
                queue.schedule(op.at, Event::OpArrival { op: i as OpId });
                records.push(OpRecord {
                    op: i as OpId,
                    start: op.at,
                    end: op.at,
                    outcome: OpOutcome::Pending,
                });
                states.push(OpState {
                    kind: op.kind,
                    variable: op.variable,
                    attempt: 0,
                    outstanding: 0,
                    done: false,
                    session: None,
                    sequence: 0,
                    window: None,
                });
            }
        }
        for transition in &plan.crashes {
            queue.schedule(
                transition.at,
                Event::FailureTransition {
                    server: transition.server,
                    crash: transition.crash,
                },
            );
        }
        // Membership transitions are replayed in every shard, like crash
        // transitions: each shard applies them to its own cluster copy and
        // recomputes the same probe margin from the same pure inputs.
        for membership in &plan.memberships {
            queue.schedule(
                membership.at,
                Event::MembershipTransition {
                    server: membership.server,
                    join: membership.join,
                },
            );
        }
        let universe_n = sim.system.universe().size() as u64;
        let min_quorum = sim.system.min_quorum_size() as u64;
        let mut present: Vec<bool> = Vec::new();
        let mut present_count = 0u64;
        if !plan.memberships.is_empty() {
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
            queue,
            cluster,
            registers,
            states,
            local,
            writes: (0..nvars).map(|_| WriteLog::default()).collect(),
            sequences: vec![0; nvars],
            last_write_at: vec![f64::NEG_INFINITY; nvars],
            key_rngs: (0..nvars as u64)
                .map(|v| ChaCha8Rng::seed_from_u64(key_stream_seed(config.seed, v)))
                .collect(),
            acc: ShardAccumulator {
                report,
                ops: records,
                logical_events: 0,
            },
            pending_pushes: PendingSlab::new(),
            pending_digests: PendingSlab::new(),
            pending_deltas: PendingSlab::new(),
            deltas_sent: BTreeSet::new(),
            deltas_blocked: BTreeSet::new(),
            plan: FailurePlan {
                partitions: plan.partitions.clone(),
                strategy: plan.strategy.clone(),
                ..FailurePlan::none()
            },
            present,
            present_count,
            universe_n,
            min_quorum,
            dirty: config.diffusion.map(|_| Vec::new()),
            oldest_active: 0,
        }
    }

    /// Drains this shard's queue up to (strictly before) `barrier`, or
    /// completely with `None`.  Events *at* the barrier belong to the next
    /// window: the spine's own work at a barrier time (crash application,
    /// round planning) happens before them — a round precedes the
    /// same-time foreground events, like the upfront-seeded transitions
    /// that the queue's FIFO tie-break pops first.
    pub(crate) fn drain_until(&mut self, barrier: Option<SimTime>) {
        while let Some(next) = self.queue.peek_time() {
            if let Some(b) = barrier {
                if next >= b {
                    break;
                }
            }
            let (t, event) = self.queue.pop().expect("peeked event must pop");
            self.handle(t, event);
        }
    }

    /// Bulk-schedules one spine-planned round of cross-shard gossip:
    /// payloads go into the pending slabs and delivery events are inserted
    /// in ascending-time order (an O(1) append each, whichever queue
    /// backend serves).
    ///
    /// Determinism: the queue pops by `(time, insertion sequence)` and the
    /// sort is **stable**, so equal-time messages keep their plan order —
    /// the pop order is bit-identical to unsorted per-message injection.
    /// The batch buffers are drained with capacity kept for the next round.
    pub(crate) fn schedule_round_batch(&mut self, batch: &mut RoundBatch) {
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN draw
        // must not scramble the sort before `schedule`'s validation
        // rejects it.
        batch.pushes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (at, push) in batch.pushes.drain(..) {
            let slot = self.pending_pushes.insert(push);
            self.queue.schedule(at, Event::GossipPush { push: slot });
        }
        batch.digests.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (at, global_id, digest, delta_rtt) in batch.digests.drain(..) {
            let slot = self.pending_digests.insert(PendingDigest {
                global_id,
                digest,
                delta_rtt,
            });
            self.queue
                .schedule(at, Event::GossipDigest { digest: slot });
        }
    }

    /// Applies this shard's record changes since the last barrier to the
    /// spine's planning cluster and clears the dirty list.
    ///
    /// The list is sorted and deduplicated first (a hot key can be marked
    /// many times per window); each surviving `(server, variable)` pair
    /// re-stores the shard's current record into the spine.  Because
    /// stores are strictly-fresher-wins and shard records are monotone in
    /// time, replaying only the dirty pairs leaves the spine bit-identical
    /// to a from-scratch full resync — an invariant the debug builds check
    /// at every barrier and the property suite exercises under random
    /// interleavings.
    pub(crate) fn sync_dirty_into<R: Record>(&mut self, spine: &mut Cluster) {
        let dirty = self
            .dirty
            .as_mut()
            .expect("the spine syncs only between the first and the last barrier");
        dirty.sort_unstable();
        dirty.dedup();
        for &(server, var) in dirty.iter() {
            let id = ServerId::new(server);
            // Marking is conservative, so most pairs hold nothing newer
            // than the spine does: the merge compares before it copies.
            if let Some(record) = self.cluster.server(id).record::<R>(var) {
                spine.server_mut(id).merge(var, record);
            }
        }
        dirty.clear();
    }

    /// The spine has passed its last barrier and will not sync again: stop
    /// marking and release the list, which nothing would drain any more.
    pub(crate) fn end_sync(&mut self) {
        self.dirty = None;
    }

    /// Marks `(server, var)` as possibly changed since the last barrier,
    /// while a spine exists to read the mark.
    fn mark_dirty(&mut self, server: ServerId, var: VariableId) {
        if let Some(dirty) = &mut self.dirty {
            dirty.push((server.index(), var));
        }
    }

    /// Finishes the shard: stamps the cluster-side tallies into the report
    /// and releases the accumulator for merging.
    pub(crate) fn into_accumulator(mut self) -> ShardAccumulator {
        debug_assert!(
            self.dirty.is_none(),
            "a finished world still marks dirty pairs nobody will read"
        );
        self.acc.report.per_server_accesses = self.cluster.access_counts().to_vec();
        self.acc.report.total_operations = self.cluster.total_accesses();
        self.acc
    }

    /// Processes one event.  Randomness comes from the event's variable's
    /// own stream; round planning lives on the spine, which injects the
    /// gossip deliveries handled here.
    fn handle(&mut self, t: SimTime, event: Event) {
        match event {
            Event::OpArrival { op } => {
                self.acc.logical_events += 1;
                let idx = self.local[op as usize] as usize;
                // The compact table holds owned ops in arrival order, so
                // the first not-done entry bounds the earliest start of
                // any unfinished op this shard's write logs care about
                // (staleness is per-variable and variables never cross
                // shards).
                while self.oldest_active < self.states.len() && self.states[self.oldest_active].done
                {
                    self.oldest_active += 1;
                }
                let horizon = self.acc.ops[self.oldest_active.min(idx)].start;
                let var = self.states[idx].variable as usize;
                self.writes[var].advance(horizon);
                if self.states[idx].kind == OpKind::Write {
                    self.sequences[var] += 1;
                    self.states[idx].sequence = self.sequences[var];
                    self.last_write_at[var] = t;
                    let handle = self.writes[var].open(t, self.sequences[var]);
                    self.states[idx].window = Some(handle);
                }
                self.start_attempt(op, t);
            }
            Event::ProbeReply {
                op,
                attempt,
                server,
            } => {
                self.acc.logical_events += 1;
                let idx = self.local[op as usize] as usize;
                let fed = if self.plan.blocks_probe(t, self.states[idx].variable, server) {
                    // The message never crossed the partition: no
                    // server-side effect, and the client sees one more
                    // silent server (exactly like a crashed replier).
                    self.acc.report.dropped_probes += 1;
                    !self.states[idx].done && self.states[idx].attempt == attempt
                } else {
                    if self.states[idx].kind == OpKind::Write {
                        // The probe's server-side store (which happens
                        // whether or not the client still cares) may
                        // freshen this record; non-correct receivers store
                        // nothing, but the over-mark is harmless — see
                        // `dirty`.
                        self.mark_dirty(server, self.states[idx].variable);
                    }
                    // An adaptive sleeper answers exactly this probe as a
                    // stale replier when its foreground predicate fires —
                    // `sequences`/`last_write_at` are authoritative here,
                    // on the variable's owning shard.
                    let flip = !matches!(self.plan.strategy, ByzantineStrategy::Static)
                        && self.cluster.server(server).behavior() == Behavior::Correct
                        && strategy_fires(
                            &self.plan.strategy,
                            server,
                            self.states[idx].variable,
                            t,
                            &self.sequences,
                            &self.last_write_at,
                        );
                    if flip {
                        self.cluster.set_behavior(server, Behavior::ByzantineStale);
                        self.acc.report.adaptive_activations += 1;
                    }
                    let fed =
                        deliver_probe(&mut self.states[idx], server, &mut self.cluster, attempt);
                    if flip {
                        self.cluster.set_behavior(server, Behavior::Correct);
                    }
                    fed
                };
                if fed {
                    let state = &mut self.states[idx];
                    state.outstanding -= 1;
                    let complete = match state.session.as_ref() {
                        Some(OpSession::Read(s)) => s.is_complete(),
                        Some(OpSession::Write(_, s)) => s.is_complete(),
                        None => false,
                    };
                    if complete {
                        self.finalize(op, t);
                    } else if self.states[idx].outstanding == 0 {
                        self.end_attempt(op, t);
                    }
                }
            }
            Event::OpTimeout { op, attempt } => {
                self.acc.logical_events += 1;
                let idx = self.local[op as usize] as usize;
                if !self.states[idx].done && self.states[idx].attempt == attempt {
                    let var = self.states[idx].variable as usize;
                    self.acc.report.timed_out_attempts += 1;
                    self.acc.report.per_variable[var].timed_out_attempts += 1;
                    self.end_attempt(op, t);
                }
            }
            Event::RetryAttempt { op, attempt } => {
                self.acc.logical_events += 1;
                let idx = self.local[op as usize] as usize;
                if !self.states[idx].done && self.states[idx].attempt == attempt {
                    self.start_attempt(op, t);
                }
            }
            Event::FailureTransition { server, crash } => {
                // Replayed in every shard (each owns a full cluster copy);
                // counted once, by the spine.
                let behavior = if crash {
                    Behavior::Crashed
                } else {
                    Behavior::Correct
                };
                self.cluster.set_behavior(server, behavior);
            }
            Event::MembershipTransition { server, join } => {
                // Replayed in every shard, like crash transitions (and
                // counted once, by the spine): a joiner comes up correct
                // with reset stores, a leaver goes dark, and the probe
                // margin is recomputed online against the ε budget — pure
                // arithmetic, so every shard lands on the same margin at
                // the same simulated time.
                let si = server.index() as usize;
                if join {
                    self.cluster.join_server(server, self.config.keyspace.keys);
                    if !self.present[si] {
                        self.present[si] = true;
                        self.present_count += 1;
                    }
                } else {
                    self.cluster.set_behavior(server, Behavior::Crashed);
                    if self.present[si] {
                        self.present[si] = false;
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
            Event::GossipPush { push } => {
                let queued = self.pending_pushes.take(push);
                #[cfg(debug_assertions)]
                if let Some(QueuedPush {
                    push: p,
                    resolved: Some(blocked),
                }) = &queued
                {
                    // Uncounted: the spine tallied this delivery when it
                    // planned it.  Neither check touches a counter, the
                    // dirty list or an RNG, so debug and release reports
                    // stay equal.
                    assert_eq!(
                        self.plan.blocks_link(t, p.from, p.to),
                        *blocked,
                        "partition verdict of plan-resolved {p:?} changed by its delivery at {t}"
                    );
                    assert!(
                        !diffusion::deliver(&mut self.cluster, p),
                        "plan-resolved {p:?} stored at its delivery at {t}"
                    );
                    return;
                }
                self.acc.logical_events += 1;
                if let Some(QueuedPush { push: p, .. }) = queued {
                    // Partitions gate gossip at delivery time only, so
                    // spine planning (and the gossip RNG stream) is
                    // untouched.  A push is one message on one shard, so
                    // the per-shard counter sums exactly.
                    if self.plan.blocks_link(t, p.from, p.to) {
                        self.acc.report.partition_blocked_gossip += 1;
                        return;
                    }
                    let var = p.variable as usize;
                    self.acc.report.gossip_pushes += 1;
                    self.acc.report.per_variable[var].gossip_pushes += 1;
                    if diffusion::deliver(&mut self.cluster, &p) {
                        self.acc.report.gossip_stores += 1;
                        self.acc.report.per_variable[var].gossip_stores += 1;
                        self.mark_dirty(p.to, p.variable);
                    }
                }
            }
            Event::GossipDigest { digest } => {
                // Digest deliveries are spine-level events (counted there:
                // one digest may fan out to several shards but is one
                // message); only its per-variable outcomes happen here.
                if let Some(p) = self.pending_digests.take(digest) {
                    if let Some(diff) = diffusion::diff_digest(&self.cluster, &p.digest) {
                        for &var in &diff.avoided {
                            self.acc.report.gossip_redundant_pushes_avoided += 1;
                            self.acc.report.per_variable[var as usize]
                                .gossip_redundant_pushes_avoided += 1;
                        }
                        if !diff.delta.records.is_empty() {
                            self.deltas_sent.insert(p.global_id);
                            let slot = self.pending_deltas.insert((p.global_id, diff.delta));
                            self.queue
                                .schedule(t + p.delta_rtt, Event::GossipDelta { delta: slot });
                        }
                    }
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
                        return;
                    }
                    for (var, record) in &d.records {
                        let vi = *var as usize;
                        self.acc.report.gossip_pushes += 1;
                        self.acc.report.per_variable[vi].gossip_pushes += 1;
                        self.acc.report.per_variable[vi].gossip_delta_records += 1;
                        if diffusion::deliver_record(&mut self.cluster, d.to, *var, record) {
                            self.acc.report.gossip_stores += 1;
                            self.acc.report.per_variable[vi].gossip_stores += 1;
                            self.mark_dirty(d.to, *var);
                        }
                    }
                }
            }
        }
    }

    /// Samples a probe set from the operation's variable's stream, creates
    /// the attempt's session through the per-variable register table, and
    /// schedules one probe-reply event per probed server plus the attempt
    /// timeout.
    fn start_attempt(&mut self, op: OpId, now: SimTime) {
        self.cluster.note_operation();
        let state = &mut self.states[self.local[op as usize] as usize];
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
        for &server in &probe.servers {
            let rtt = self.config.latency.sample(rng);
            self.queue.schedule(
                now + rtt,
                Event::ProbeReply {
                    op,
                    attempt: state.attempt,
                    server,
                },
            );
        }
        self.queue.schedule(
            now + self.config.op_timeout.max(0.0),
            Event::OpTimeout {
                op,
                attempt: state.attempt,
            },
        );
    }

    /// An attempt ran out of probes or timed out: condense partial replies,
    /// retry on a fresh probe set (immediately or after the backoff delay),
    /// or give up.
    fn end_attempt(&mut self, op: OpId, now: SimTime) {
        let idx = self.local[op as usize] as usize;
        let responders = match self.states[idx].session.as_ref() {
            Some(OpSession::Read(s)) => s.responders(),
            Some(OpSession::Write(_, s)) => s.acks(),
            None => 0,
        };
        if responders > 0 {
            self.finalize(op, now);
        } else if self.states[idx].attempt < self.config.max_retries {
            self.states[idx].attempt += 1;
            let attempt = self.states[idx].attempt;
            let var = self.states[idx].variable as usize;
            self.acc.report.retries += 1;
            self.acc.report.per_variable[var].retries += 1;
            let delay = retry_delay(&self.config, attempt);
            if delay > 0.0 {
                self.queue
                    .schedule(now + delay, Event::RetryAttempt { op, attempt });
            } else {
                self.start_attempt(op, now);
            }
        } else {
            let var = self.states[idx].variable as usize;
            self.states[idx].done = true;
            self.acc.ops[idx].finish(now, OpOutcome::Unavailable);
            self.acc.report.unavailable_ops += 1;
            self.acc.report.per_variable[var].unavailable_ops += 1;
            if let Some(handle) = self.states[idx].window {
                self.writes[var].fail(handle, now);
            }
        }
    }

    /// A session gathered its replies (all `q`, or a non-empty partial set):
    /// close the operation and account for it.  The order-sensitive
    /// aggregate latencies are left to the merge, which replays the op log
    /// canonically; per-variable stats record directly, their order being
    /// the variable's own completion order regardless of sharding.
    fn finalize(&mut self, op: OpId, now: SimTime) {
        let idx = self.local[op as usize] as usize;
        let state = &mut self.states[idx];
        state.done = true;
        let read_start = self.acc.ops[idx].start;
        let latency = now - read_start;
        let var = state.variable as usize;
        match state.session.as_ref() {
            Some(OpSession::Write(_, _)) => {
                self.acc.report.completed_writes += 1;
                self.acc.ops[idx].finish(now, OpOutcome::Write);
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
                // than at the end of the run.  A probe of this read still
                // in flight finds no session and only counts its access.
                state.session = None;
                self.acc.report.completed_reads += 1;
                self.acc.ops[idx].finish(now, OpOutcome::Read);
                let pv = &mut self.acc.report.per_variable[var];
                pv.completed_reads += 1;
                pv.latency.record(latency);
                let read_end = now;
                if self.writes[var].concurrent_with(read_start, read_end) {
                    self.acc.report.concurrent_reads += 1;
                    self.acc.report.per_variable[var].concurrent_reads += 1;
                } else {
                    // The freshest write of this variable completed before
                    // this read started is the expected result.
                    let expected = self.writes[var].latest_completed_before(read_start);
                    match (expected, result) {
                        (None, _) => {
                            self.acc.report.unwritten_reads += 1;
                            self.acc.report.per_variable[var].unwritten_reads += 1;
                        }
                        (Some(seq), Some(tv)) => {
                            let got = tv.value.as_u64().unwrap_or(0);
                            if got < seq {
                                self.acc.report.stale_reads += 1;
                                self.acc.report.per_variable[var].stale_reads += 1;
                                note_component_staleness(
                                    &self.plan,
                                    now,
                                    var,
                                    &mut self.acc.report,
                                );
                            }
                        }
                        (Some(_), None) => {
                            self.acc.report.empty_reads += 1;
                            self.acc.report.per_variable[var].empty_reads += 1;
                            note_component_staleness(&self.plan, now, var, &mut self.acc.report);
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
    use crate::latency::LatencyModel;
    use crate::runner::DiffusionPolicy;
    use pqs_core::probabilistic::EpsilonIntersecting;
    use pqs_protocols::value::TaggedValue;

    fn op(at: SimTime, kind: OpKind) -> Operation {
        Operation {
            at,
            kind,
            variable: 0,
        }
    }

    /// The one world of a one-shard layout of `config` over `ops`.
    fn sole_world<'a>(
        sys: &'a EpsilonIntersecting,
        config: SimConfig,
        ops: &[Operation],
    ) -> World<'a, EpsilonIntersecting> {
        let sim = Simulation::new(sys, ProtocolKind::Safe, config);
        World::new(
            &sim,
            ops,
            &FailurePlan::none(),
            Behavior::ByzantineForge,
            0,
            1,
        )
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
        let mut world = sole_world(&sys, SimConfig::default(), &ops);
        let (near, far) = (ServerId::new(3), ServerId::new(17));

        // A retried write is the same logical write: same record, same
        // timestamp, a fresh acknowledgement count.
        world.states[0].sequence = 1;
        world.start_attempt(0, 0.0);
        let Some(OpSession::Write(first, _)) = &world.states[0].session else {
            panic!("a started write holds a write session");
        };
        let first = first.clone();
        world.states[0].attempt += 1;
        world.start_attempt(0, 0.1);
        let Some(OpSession::Write(resent, session)) = &world.states[0].session else {
            panic!("a retried write holds a write session");
        };
        assert_eq!(*resent, first, "the retry re-sends the original record");
        assert_eq!(session.timestamp(), first.timestamp());
        assert_eq!(session.acks(), 0);
        // Finalizing the write keeps its session: a probe still in flight
        // delivers the record to its server.
        let deliver = |world: &mut World<'_, EpsilonIntersecting>, idx: usize, server, attempt| {
            deliver_probe(&mut world.states[idx], server, &mut world.cluster, attempt)
        };
        assert!(deliver(&mut world, 0, near, 1));
        world.finalize(0, 0.2);
        assert!(world.states[0].done && world.states[0].session.is_some());
        assert!(!deliver(&mut world, 0, far, 1));
        assert_eq!(
            world.cluster.server(far).stored_timestamp::<TaggedValue>(0),
            first.timestamp()
        );

        // Finalizing a read releases its session; a probe still in flight
        // counts its server access and nothing else.
        world.start_attempt(1, 0.3);
        assert!(deliver(&mut world, 1, near, 0));
        world.finalize(1, 0.4);
        assert!(world.states[1].done && world.states[1].session.is_none());
        let report = &world.acc.report;
        assert_eq!((report.completed_writes, report.completed_reads), (1, 1));
        let before = world.cluster.access_counts()[far.as_usize()];
        assert!(!deliver(&mut world, 1, far, 0));
        assert_eq!(world.cluster.access_counts()[far.as_usize()], before + 1);

        // Each op left exactly one log entry: when it ended, and how.
        let logged = |op, start, end, outcome| OpRecord {
            op,
            start,
            end,
            outcome,
        };
        assert_eq!(
            world.acc.ops,
            [
                logged(0, 0.0, 0.2, OpOutcome::Write),
                logged(1, 0.3, 0.4, OpOutcome::Read)
            ]
        );
    }

    #[test]
    fn dirty_pairs_are_marked_only_while_a_spine_reads_them() {
        let sys = EpsilonIntersecting::new(20, 5).unwrap();
        let ops: Vec<Operation> = (0..40)
            .map(|i| op(0.01 * i as f64, OpKind::Write))
            .collect();
        let config = SimConfig::builder()
            .with_latency(LatencyModel::Fixed(1e-3))
            .build();

        // Without diffusion no spine exists: 200 write probes, no list.
        let mut off = sole_world(&sys, config, &ops);
        off.drain_until(None);
        assert_eq!(off.acc.report.completed_writes, 40);
        assert!(off.dirty.is_none());

        // With diffusion the list fills between barriers, a sync empties
        // it, and after the last barrier nothing is marked any more.
        let mut gossiping = config;
        gossiping.diffusion = Some(DiffusionPolicy::default());
        let mut on = sole_world(&sys, gossiping, &ops);
        on.drain_until(Some(0.2));
        assert!(on.dirty.as_ref().is_some_and(|d| !d.is_empty()));
        let mut spine = Cluster::new(sys.universe());
        spine.reserve_variables(1);
        on.sync_dirty_into::<TaggedValue>(&mut spine);
        assert!(on.dirty.as_ref().is_some_and(Vec::is_empty));
        on.end_sync();
        on.drain_until(None);
        assert_eq!(on.acc.report.completed_writes, 40);
        assert!(on.dirty.is_none());
        assert_eq!(on.into_accumulator().ops.len(), 40);
    }
}
