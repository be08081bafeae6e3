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
//! The timelines known before the run — the owned arrivals in the workload
//! trace, the crash schedule and the membership schedule — stay where they
//! already are, in time order, and the drain loop walks them with three
//! cursors beside the queue head, so queue memory is proportional to the
//! traffic in flight rather than to the run's length.
//!
//! The same holds for client state: an operation takes a slot of the
//! world's op slab when it arrives and gives it back once it is done and
//! its last probe reply has landed, so the slab's size follows the
//! operations in flight.  What still grows with the run is the op log
//! (one [`OpRecord`] per owned op, for the merge) and the trace itself.
//!
//! Every variable draws all of its randomness (probe sets, probe
//! latencies) from its **own** ChaCha8 stream seeded by
//! [`key_stream_seed`], so a variable's trajectory is a function of the
//! seed and its own event history alone — the property that makes the
//! merged report bit-identical across all shard counts and all thread
//! counts.

use crate::event::{BufferPool, Event, OpId, PendingSlab};
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
use pqs_protocols::timestamp::Timestamp;
use pqs_protocols::value::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// Book-keeping for one client operation across its attempts, held in a
/// slot of its world's op slab from its arrival until it is done and its
/// last probe reply has landed (its arrival time is in its [`OpRecord`]).
#[derive(Debug)]
struct OpState {
    /// The operation: what a timeout or retry checks the slot's occupant
    /// against.
    op: OpId,
    /// Index of the operation's record in the world's op log.
    record: usize,
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
/// [`World::schedule_round_batch`].  A sub-digest's entries are a range
/// of the batch's own entry arena, not a vector of their own.  The
/// buffers are drained each round and keep their capacity, so
/// steady-state routing allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RoundBatch {
    /// `(delivery time, push)` in plan order.
    pub(crate) pushes: Vec<(SimTime, QueuedPush)>,
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
    /// Messages in flight; the timelines known before the run are walked
    /// by the cursors below instead.
    queue: EventQueue<Event>,
    /// The run's workload trace, in arrival order (shared by every world).
    trace: &'a [Operation],
    /// Index into `trace` of the next arrival this world owns (the trace's
    /// length once every owned op has arrived).
    next_arrival: usize,
    /// Owned ops arrived so far: the index into `acc.ops` of the next
    /// arrival's record.
    arrived: usize,
    /// This world's shard and the shard count: the world owns the ops on
    /// variables `v` with `v % num_shards == shard`.
    shard: u64,
    num_shards: u64,
    /// Index into `plan.crashes` of the next crash transition to replay.
    next_crash: usize,
    /// Index into `plan.memberships` of the next membership transition to
    /// replay.
    next_membership: usize,
    /// The shard's replica-cluster copy.  Per-key server records live only
    /// on the key's owning shard; failure transitions are replayed in
    /// every shard so behaviour timelines agree everywhere.
    pub(crate) cluster: Cluster,
    registers: RegisterMap<'a, S>,
    /// The state of the operations in flight, one slot each from arrival
    /// until the operation is done and its last probe reply has landed, so
    /// the slab follows the operations in flight, not the operations run.
    ops: PendingSlab<OpState>,
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
    /// The run's failure plan, borrowed: its crash and membership
    /// schedules are two of the cursor timelines (replayed in every
    /// shard), and its partition windows and adversary strategy are
    /// consulted at delivery time.
    plan: &'a FailurePlan,
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
    /// Index into `acc.ops` of the earliest-arrived op that may still be
    /// unfinished.
    oldest_active: usize,
}

impl<'a, S: QuorumSystem + ?Sized> World<'a, S> {
    /// Builds shard `shard` of `num_shards` of `sim`: lays out the op log
    /// of the owned arrivals (in op order, which is arrival order), points
    /// the three cursors at the first owned arrival of the trace and the
    /// starts of the plan's crash and membership schedules, and derives the
    /// per-variable RNG streams from the run seed.  The queue and the op
    /// slab start empty.
    pub(crate) fn new(
        sim: &Simulation<'a, S>,
        ops: &'a [Operation],
        plan: &'a FailurePlan,
        byz_behavior: Behavior,
        shard: u64,
        num_shards: u64,
    ) -> Self {
        debug_assert!(
            ops.windows(2).all(|w| w[0].at <= w[1].at)
                && plan.crashes.windows(2).all(|w| w[0].at <= w[1].at)
                && plan.memberships.windows(2).all(|w| w[0].at <= w[1].at),
            "the arrival, crash and membership cursors walk time-sorted timelines"
        );
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

        let owned = ops
            .iter()
            .filter(|op| op.variable % num_shards == shard)
            .count();
        let mut records = Vec::with_capacity(owned);
        for (i, op) in ops.iter().enumerate() {
            if op.variable % num_shards == shard {
                records.push(OpRecord {
                    op: i as OpId,
                    start: op.at,
                    end: op.at,
                    outcome: OpOutcome::Pending,
                });
            }
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
        let mut world = World {
            config,
            queue: EventQueue::new(),
            trace: ops,
            next_arrival: 0,
            arrived: 0,
            shard,
            num_shards,
            next_crash: 0,
            next_membership: 0,
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
                ops: records,
                logical_events: 0,
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
            dirty: config.diffusion.map(|_| Vec::new()),
            oldest_active: 0,
        };
        world.next_arrival = world.owned_arrival_from(0);
        world
    }

    /// Index into the trace of the first op this world owns at or after
    /// `from` (the trace's length if there is none).
    fn owned_arrival_from(&self, from: usize) -> usize {
        let rest = &self.trace[from..];
        from + rest
            .iter()
            .position(|op| op.variable % self.num_shards == self.shard)
            .unwrap_or(rest.len())
    }

    /// Handles this shard's events up to (strictly before) `barrier`, or
    /// all of them with `None`.  Events *at* the barrier belong to the next
    /// window: the spine's own work at a barrier time (crash application,
    /// round planning) happens before them — a round precedes the
    /// same-time foreground events, like the cursor transitions that win
    /// their ties with the queue.
    ///
    /// Each step takes the earliest of the three cursor heads and the
    /// queue head.  Ties go arrival → crash → membership → queue: the order
    /// of `(time, insertion sequence)` had the three timelines been
    /// queued, in that order, before any event of the run.
    pub(crate) fn drain_until(&mut self, barrier: Option<SimTime>) {
        let end = barrier.unwrap_or(SimTime::INFINITY);
        loop {
            let arrival = self.trace.get(self.next_arrival);
            let crash = self.plan.crashes.get(self.next_crash);
            let membership = self.plan.memberships.get(self.next_membership);
            let arrival_at = arrival.map_or(SimTime::INFINITY, |a| a.at);
            let crash_at = crash.map_or(SimTime::INFINITY, |c| c.at);
            let membership_at = membership.map_or(SimTime::INFINITY, |m| m.at);
            let queued_at = self.queue.peek_time().unwrap_or(SimTime::INFINITY);
            let t = arrival_at.min(crash_at).min(membership_at).min(queued_at);
            if t >= end {
                break;
            }
            let event = match (arrival, crash, membership) {
                (Some(&a), _, _) if arrival_at == t => {
                    let op = self.next_arrival as OpId;
                    self.next_arrival = self.owned_arrival_from(self.next_arrival + 1);
                    Event::OpArrival {
                        op,
                        kind: a.kind,
                        variable: a.variable,
                    }
                }
                (_, Some(&c), _) if crash_at == t => {
                    self.next_crash += 1;
                    Event::FailureTransition {
                        server: c.server,
                        crash: c.crash,
                    }
                }
                (_, _, Some(&m)) if membership_at == t => {
                    self.next_membership += 1;
                    Event::MembershipTransition {
                        server: m.server,
                        join: m.join,
                    }
                }
                _ => self.queue.pop().expect("peeked event must pop").1,
            };
            self.handle(t, event);
        }
    }

    /// Bulk-schedules one spine-planned round of cross-shard gossip:
    /// payloads go into the pending slabs and delivery events are inserted
    /// in ascending-time order (an O(1) bucket push each past the
    /// calendar's live day; the ones due in it cost one placement plus
    /// at most one sort of that day between them).
    ///
    /// Each sub-digest's entries are copied out of the batch arena into a
    /// recycled buffer that travels with the pending digest.
    ///
    /// Determinism: the queue pops by `(time, insertion sequence)` and
    /// equal-time messages keep their plan order — the pushes' sort is
    /// **stable**, and the digests' breaks ties by global id, which rises
    /// in plan order — so the pop order is bit-identical to unsorted
    /// per-message injection.  The batch buffers are drained with capacity
    /// kept for the next round.
    pub(crate) fn schedule_round_batch(&mut self, batch: &mut RoundBatch) {
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN draw
        // must not scramble the sort before `schedule`'s validation
        // rejects it.
        batch.pushes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (at, push) in batch.pushes.drain(..) {
            let slot = self.pending_pushes.insert(push);
            self.queue.schedule(at, Event::GossipPush { push: slot });
        }
        // A shard gets at most one sub-digest per id, so the key is total
        // and the unstable sort (which needs no scratch buffer) is exact.
        batch
            .digests
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (at, global_id, planned, delta_rtt) in batch.digests.drain(..) {
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
            self.queue
                .schedule(at, Event::GossipDigest { digest: slot });
        }
        batch.entries.clear();
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
            Event::OpArrival { op, kind, variable } => {
                self.acc.logical_events += 1;
                let record = self.arrived;
                self.arrived += 1;
                debug_assert_eq!(self.acc.ops[record].op, op, "arrivals follow the op log");
                // The op log holds owned ops in arrival order, so the first
                // unfinished entry bounds the earliest start of any
                // unfinished op this shard's write logs care about
                // (staleness is per-variable and variables never cross
                // shards).  The walk stops at this arrival's own record at
                // the latest.
                while self.acc.ops[self.oldest_active].outcome != OpOutcome::Pending {
                    self.oldest_active += 1;
                }
                let horizon = self.acc.ops[self.oldest_active].start;
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
                    record,
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
                    if self.ops[slot].kind == OpKind::Write {
                        // The probe's server-side store (which happens
                        // whether or not the client still cares) may
                        // freshen this record; non-correct receivers store
                        // nothing, but the over-mark is harmless — see
                        // `dirty`.
                        self.mark_dirty(server, variable);
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
                    self.acc.report.timed_out_attempts += 1;
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
                    self.cluster.join_server(server);
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
                    let mut records = self.delta_records.take();
                    let report = &mut self.acc.report;
                    diffusion::diff_digest_into(&self.cluster, &p.digest, &mut records, |var| {
                        report.gossip_redundant_pushes_avoided += 1;
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
            self.acc.report.retries += 1;
            self.acc.report.per_variable[var].retries += 1;
            let delay = retry_delay(&self.config, attempt);
            if delay > 0.0 {
                self.queue
                    .schedule(now + delay, Event::RetryAttempt { slot, op, attempt });
            } else {
                self.start_attempt(slot, now);
            }
        } else {
            state.done = true;
            self.acc.ops[state.record].finish(now, OpOutcome::Unavailable);
            self.acc.report.unavailable_ops += 1;
            self.acc.report.per_variable[var].unavailable_ops += 1;
            if let Some(handle) = state.window {
                self.writes[var].fail(handle, now);
            }
        }
    }

    /// A session gathered its replies (all `q`, or a non-empty partial set):
    /// close the operation and account for it.  The order-sensitive
    /// aggregate latencies are left to the merge, which replays the op log
    /// canonically; per-variable stats record directly, their order being
    /// the variable's own completion order regardless of sharding.
    fn finalize(&mut self, slot: u64, now: SimTime) {
        let state = &mut self.ops[slot];
        state.done = true;
        let record = &mut self.acc.ops[state.record];
        let read_start = record.start;
        let latency = now - read_start;
        let var = state.variable as usize;
        match state.session.as_ref() {
            Some(OpSession::Write(_, _)) => {
                self.acc.report.completed_writes += 1;
                record.finish(now, OpOutcome::Write);
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
                self.acc.report.completed_reads += 1;
                record.finish(now, OpOutcome::Read);
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
                                note_component_staleness(self.plan, now, var, &mut self.acc.report);
                            }
                        }
                        (Some(_), None) => {
                            self.acc.report.empty_reads += 1;
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
    use crate::latency::LatencyModel;
    use crate::runner::DiffusionPolicy;
    use crate::workload::WorkloadConfig;
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

    /// The one world of a one-shard layout of `config` over `ops` under
    /// `plan`.
    fn sole_world<'a>(
        sys: &'a EpsilonIntersecting,
        config: SimConfig,
        ops: &'a [Operation],
        plan: &'a FailurePlan,
    ) -> World<'a, EpsilonIntersecting> {
        let sim = Simulation::new(sys, ProtocolKind::Safe, config);
        World::new(&sim, ops, plan, Behavior::ByzantineForge, 0, 1)
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

    /// Hands operation `op` of the world's trace to the arrival handler,
    /// as the drain loop would, and returns the slot it took.
    fn arrive(world: &mut World<'_, EpsilonIntersecting>, op: OpId) -> u64 {
        let a = world.trace[op as usize];
        let arrival = Event::OpArrival {
            op,
            kind: a.kind,
            variable: a.variable,
        };
        world.handle(a.at, arrival);
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
        let config = fixed_latency();
        let plan = FailurePlan::none();

        // Without diffusion no spine exists: 200 write probes, no list.
        let mut off = sole_world(&sys, config, &ops, &plan);
        off.drain_until(None);
        assert_eq!(off.acc.report.completed_writes, 40);
        assert!(off.dirty.is_none());

        // With diffusion the list fills between barriers, a sync empties
        // it, and after the last barrier nothing is marked any more.
        let mut gossiping = config;
        gossiping.diffusion = Some(DiffusionPolicy::default());
        let mut on = sole_world(&sys, gossiping, &ops, &plan);
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

        // The cursors replay every transition, in time order.
        world.drain_until(None);
        assert!(world.queue.is_empty());
        let behavior = |i| world.cluster.server(s(i)).behavior();
        assert_eq!(behavior(1), Behavior::Correct);
        assert_eq!(behavior(2), Behavior::Crashed);
        assert_eq!(behavior(4), Behavior::Crashed);
        assert_eq!(behavior(9), Behavior::Correct);
        let report = &world.acc.report;
        assert_eq!((report.completed_writes, report.completed_reads), (1, 1));
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
        assert_eq!(world.next_membership, 1);
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
        assert_eq!(world.acc.report.completed_writes, 1);
        assert!(world.ops.is_empty(), "the last reply released the slot");
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
        let ops = WorkloadConfig {
            duration,
            arrival_rate: config.arrival_rate,
            read_fraction: config.read_fraction,
            keyspace: config.keyspace,
        }
        .generate(&mut ChaCha8Rng::seed_from_u64(1));
        let plan = FailurePlan::none();
        let mut world = sole_world(&sys, config, &ops, &plan);
        world.drain_until(None);
        assert!(world.ops.is_empty(), "every slot is released by the end");
        assert!(world.queue.is_empty());
        (world.ops.high_water(), ops.len())
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
}
