//! Epidemic diffusion of updates between servers.
//!
//! Section 1.1 notes that "a system built with probabilistic quorum systems
//! can be strengthened by a properly designed diffusion mechanism, which
//! propagates updates to replicated data lazily, i.e., outside the critical
//! path of client operations", citing the classical anti-entropy / gossip
//! literature (\[DGH+87\], \[MMR99\]).  This module implements push gossip
//! between *correct* servers: in each round every correct server pushes its
//! freshest record for a variable to `fanout` uniformly chosen peers, which
//! keep it if it is newer.  Coupled with the register protocols this drives
//! the probability that a read misses the latest write toward zero once the
//! write has had a few rounds to spread.
//!
//! # Two drivers, one mechanism
//!
//! The gossip process is factored into two incremental steps so that both
//! the synchronous harness and the discrete-event engine run the *same*
//! mechanism:
//!
//! * [`plan_pushes`] — the one planning loop: snapshot the senders and
//!   draw the peers of one round, handing each push, without its payload,
//!   to a caller-owned sink (no state is mutated while planning, so a
//!   round is a synchronous exchange).  What a push becomes is the
//!   driver's: [`PlannedPush::materialise`] turns it into a
//!   [`GossipPush`] message carrying the sender's record, and a driver
//!   that can tell from timestamps which pushes are worth sending keeps
//!   only those.  It and [`plan_digest_into`] read the servers through
//!   [`Holdings`], so a driver that keeps records outside one [`Cluster`]
//!   plans from them where they are.
//! * [`deliver`] — apply one push to its receiver, evaluated at delivery
//!   time (the engine delays each push by its own latency draw, so a
//!   receiver that crashed mid-flight simply drops the message).
//!
//! The run-to-completion helper [`diffuse`] composes the two steps back
//! into the classic synchronous-rounds loop, keeping one variable's
//! pushes of each planned round.
//!
//! # Digest/delta gossip
//!
//! Blind push gossip is wasteful once the cluster is mostly converged:
//! almost every push carries a record its receiver already holds.  The
//! digest/delta protocol replaces the blind push with a two-leg exchange
//! (the classic anti-entropy optimisation of the gossip literature):
//!
//! * [`plan_digest`] — each correct server sends a [`GossipDigest`] — a
//!   compact per-key *version summary* of its own store — to `fanout`
//!   uniform peers.  A [`KeySelector`] filters which keys are advertised,
//!   which is how per-key gossip policies (hot-first, recent-writes-only)
//!   plug in.
//! * [`diff_digest`] — the digest receiver compares the summary against its
//!   own store and answers with a [`GossipDelta`] carrying **only the
//!   records the digest sender provably lacks** (its stored timestamp beats
//!   the advertised one).  The records the receiver holds but does *not*
//!   send — because the digest proved them redundant — are counted as
//!   avoided pushes, the savings metric.
//! * [`deliver_delta`] — the delta is applied back at the digest sender,
//!   evaluated at delivery time like every other gossip message.
//!
//! Information therefore flows *toward* the digest sender (pull-style
//! anti-entropy); a fresh write spreads because every correct server keeps
//! digesting random peers each round.  The run-to-completion helper
//! [`diffuse_digest`] composes the three steps into synchronous rounds,
//! exactly like [`diffuse`] does for the push protocol.
//!
//! [`plan_digest`] and [`diff_digest`] return owned messages.  Each wraps a
//! core that writes into caller-owned buffers instead — [`plan_digest_into`]
//! plans a round into a reused [`DigestArena`], where a sender's `fanout`
//! digests share one range of entries, and [`diff_digest_into`] appends a
//! delta's records to a reused buffer and reports avoided keys through a
//! callback — which is how the discrete-event engine gossips without a
//! heap request per message.
//!
//! Failure semantics are identical in both drivers and both protocols:
//! **crashed** servers neither initiate nor answer, and **Byzantine**
//! servers receive digests and pushes (harmlessly — they drop or suppress
//! them) but never push and never answer with a delta, modelling the fact
//! that correct servers cannot rely on them to help dissemination.
//!
//! # One path for both record kinds
//!
//! Both the plain records of the safe/masking protocols and the signed,
//! self-verifying records of the dissemination protocol diffuse, through
//! the same code: every step is generic over the [`Record`] kind.  The
//! functions whose signatures the repo benchmark compiles against
//! ([`plan_cluster_round`], [`plan_digest`], [`diff_digest`]) take the kind
//! at run time — a `signed: bool`, or the [`GossipDigest::signed`] it was
//! planned with — and turn it into a type on their first line; a message's
//! payload is an [`AnyRecord`], typed again where it is delivered
//! ([`deliver_record`]).

use crate::cluster::Cluster;
use crate::crypto::SignedValue;
use crate::server::{AnyRecord, Behavior, Record, ReplicaServer, VariableId};
use crate::timestamp::Timestamp;
use crate::value::TaggedValue;
use pqs_core::universe::ServerId;
use rand::Rng;
use rand::RngCore;
use std::collections::BTreeSet;

/// Configuration of the gossip process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffusionConfig {
    /// Number of peers each correct server pushes to per round.
    pub fanout: usize,
    /// Number of gossip rounds to run.
    pub rounds: usize,
}

impl Default for DiffusionConfig {
    /// Two peers per round for five rounds — enough for near-complete
    /// coverage of clusters with a few hundred servers.
    fn default() -> Self {
        DiffusionConfig {
            fanout: 2,
            rounds: 5,
        }
    }
}

/// One server-to-server gossip message: `from` pushes its freshest record
/// for `variable` to `to`.  Planned by [`plan_pushes`] and
/// [`PlannedPush::materialise`], applied by [`deliver`].
#[derive(Debug, Clone, PartialEq)]
pub struct GossipPush {
    /// The (correct) sender.
    pub from: ServerId,
    /// The receiver.
    pub to: ServerId,
    /// The variable the record belongs to.
    pub variable: VariableId,
    /// The sender's record at planning (send) time.
    pub record: AnyRecord,
}

/// The freshest timestamp held by correct servers for one variable, and how
/// many of them hold it — the unit of the engine's per-key
/// rounds-to-coverage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariableCoverage {
    /// The variable.
    pub variable: VariableId,
    /// The freshest timestamp any correct server holds for it.
    pub freshest: Timestamp,
    /// Number of correct servers holding exactly that timestamp.
    pub holders: u32,
}

/// Dense per-variable coverage accumulator shared by the round planners.
///
/// Variable ids are dense (`0..keys`), so a slot vector replaces the
/// `HashMap` the planners used to rebuild every round: no hash per
/// (sender, key) visit, and the final snapshot falls out in ascending id
/// order without a sort.
#[derive(Debug, Default)]
struct CoverageScratch {
    slots: Vec<(Timestamp, u32)>,
}

impl CoverageScratch {
    /// Forgets the last round's counts, keeping the slots.
    fn reset(&mut self) {
        self.slots.fill((Timestamp::ZERO, 0));
    }

    /// Records that one correct server holds `variable` at `ts`
    /// (non-initial: callers skip [`Timestamp::ZERO`] records).
    fn note(&mut self, variable: VariableId, ts: Timestamp) {
        let idx = variable as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, (Timestamp::ZERO, 0));
        }
        let entry = &mut self.slots[idx];
        if ts > entry.0 {
            *entry = (ts, 1);
        } else if ts == entry.0 {
            entry.1 += 1;
        }
    }

    /// The snapshot, sorted by variable id (slots come out ascending).
    fn snapshot(&self) -> Vec<VariableCoverage> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &(_, holders))| holders > 0)
            .map(|(variable, &(freshest, holders))| VariableCoverage {
                variable: variable as VariableId,
                freshest,
                holders,
            })
            .collect()
    }
}

/// Where a round planner reads the servers it plans for: their behaviours
/// and the `R` records each holds.  A [`Cluster`] is the plain case, for
/// either record kind; a driver that keeps each key's records elsewhere —
/// the simulator keeps them on the key's owning shard — plans through its
/// own view instead of a merged copy, and need only serve the kind it
/// stores.
pub trait Holdings<R: Record> {
    /// Number of servers.
    fn servers(&self) -> usize;
    /// Server `id`'s current behaviour.
    fn behavior(&self, id: ServerId) -> Behavior;
    /// The record server `id` holds for `var`, `None` when unheld.
    fn record(&self, id: ServerId, var: VariableId) -> Option<&R>;
    /// The variables server `id` holds a record for, ascending, each with
    /// its record's timestamp — one lookup per held key.
    fn held(&self, id: ServerId) -> impl Iterator<Item = (VariableId, Timestamp)> + '_;

    /// Timestamp of [`record`](Self::record), [`Timestamp::ZERO`] when
    /// unheld.
    fn timestamp(&self, id: ServerId, var: VariableId) -> Timestamp {
        self.record(id, var)
            .map_or(Timestamp::ZERO, Record::timestamp)
    }
}

impl<R: Record> Holdings<R> for Cluster {
    fn servers(&self) -> usize {
        self.len()
    }
    fn behavior(&self, id: ServerId) -> Behavior {
        self.server(id).behavior()
    }
    fn record(&self, id: ServerId, var: VariableId) -> Option<&R> {
        self.server(id).record(var)
    }
    fn held(&self, id: ServerId) -> impl Iterator<Item = (VariableId, Timestamp)> + '_ {
        self.server(id).held::<R>()
    }
}

/// One push of an engine round without its payload — what
/// [`plan_pushes`] hands its sink.  Timestamps alone decide whether a
/// delivery can store anything, so a driver that can read the receivers'
/// records can settle most pushes before a record is ever copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedPush {
    /// The (correct) sender.
    pub from: ServerId,
    /// The receiver.
    pub to: ServerId,
    /// The variable the record belongs to.
    pub variable: VariableId,
    /// Timestamp of the sender's record at planning (send) time.
    pub timestamp: Timestamp,
    /// Whether the receiver's own record was already at least as fresh at
    /// planning time.  Store-if-fresher never lowers a stored timestamp, so
    /// a covered push stores nothing whenever it is delivered — unless the
    /// receiver's stores are wiped in between
    /// ([`Cluster::join_server`]), the one case a driver must exclude.
    pub covered: bool,
}

impl PlannedPush {
    /// The full message: the sender's `R` record as `holdings` hold it,
    /// which is the planned one as long as they have not changed since
    /// planning.
    pub fn materialise<R: Record>(&self, holdings: &impl Holdings<R>) -> GossipPush {
        let record = holdings.record(self.from, self.variable);
        GossipPush {
            from: self.from,
            to: self.to,
            variable: self.variable,
            record: record.cloned().unwrap_or_else(R::initial).into(),
        }
    }
}

/// One planned engine round: the pushes of every correct server for every
/// variable it holds, plus the coverage snapshot the planner computed on
/// the way.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// The round's messages, in deterministic (sender id, variable) order.
    pub pushes: Vec<GossipPush>,
    /// Per-variable coverage among correct servers at planning time,
    /// sorted by variable id.
    pub coverage: Vec<VariableCoverage>,
    /// Number of correct servers at planning time (the coverage
    /// denominator).
    pub correct_servers: u32,
}

/// The one planning loop of a full-push round: each correct server pushes
/// its freshest `R` record for each variable it stores to `fanout` uniform
/// peers, and each push goes to `sink` the moment its peer is drawn, with
/// [`covered`](PlannedPush::covered) read off the receiver's record.  What
/// a push becomes is the caller's: [`plan_cluster_round`] copies the
/// sender's record into a message, a driver that can settle covered pushes
/// keeps only the others.
///
/// Variables are visited in ascending order per sender, so the draws (and
/// hence the whole simulation) are deterministic: each push's peer is the
/// round's next draw, and self-draws are consumed but skipped.  The same
/// pass produces the per-variable [`VariableCoverage`] snapshot used by the
/// convergence metrics, returned with the number of correct servers.
pub fn plan_pushes<R: Record, G: RngCore + ?Sized>(
    holdings: &impl Holdings<R>,
    fanout: usize,
    rng: &mut G,
    mut sink: impl FnMut(PlannedPush),
) -> (Vec<VariableCoverage>, u32) {
    let n = holdings.servers();
    let mut coverage = CoverageScratch::default();
    let mut correct_servers = 0u32;
    for i in 0..n as u32 {
        let sender = ServerId::new(i);
        if holdings.behavior(sender) != Behavior::Correct {
            continue;
        }
        correct_servers += 1;
        for (variable, timestamp) in holdings.held(sender) {
            if timestamp == Timestamp::ZERO {
                continue;
            }
            coverage.note(variable, timestamp);
            for _ in 0..fanout {
                let peer = rng.gen_range(0..n);
                if peer == i as usize {
                    continue;
                }
                let to = ServerId::new(peer as u32);
                sink(PlannedPush {
                    from: sender,
                    to,
                    variable,
                    timestamp,
                    covered: holdings.timestamp(to, variable) >= timestamp,
                });
            }
        }
    }
    (coverage.snapshot(), correct_servers)
}

/// Plans one engine round of push gossip over **every** variable held
/// anywhere in the cluster: each correct server pushes its freshest record
/// for each variable it stores to `fanout` uniform peers, in deterministic
/// (sender id, variable) order.
///
/// The simulator's spine plans through [`plan_pushes`] and materialises
/// only the pushes it queues, so nothing inside the workspace libraries
/// calls this any more; it stays as the record-carrying form of the round
/// that tests check the pushes against, and the repo benchmark times it.
pub fn plan_cluster_round(
    cluster: &Cluster,
    fanout: usize,
    signed: bool,
    rng: &mut dyn RngCore,
) -> RoundPlan {
    fn plan<R: Record>(cluster: &Cluster, fanout: usize, rng: &mut dyn RngCore) -> RoundPlan {
        let mut pushes = Vec::new();
        let (coverage, correct_servers) = plan_pushes::<R, _>(cluster, fanout, rng, |push| {
            pushes.push(push.materialise::<R>(cluster));
        });
        RoundPlan {
            pushes,
            coverage,
            correct_servers,
        }
    }
    if signed {
        plan::<SignedValue>(cluster, fanout, rng)
    } else {
        plan::<TaggedValue>(cluster, fanout, rng)
    }
}

/// Delivers one gossip record to `to`, evaluating the receiver's behaviour
/// *now*: correct receivers merge by freshest-timestamp, crashed receivers
/// are unreachable and Byzantine receivers drop the record (all they can do
/// undetectably is suppress it).  Returns `true` if the receiver's stored
/// record actually became fresher.  The shared core of [`deliver`] (push
/// gossip) and [`deliver_delta`] (digest/delta gossip).
pub fn deliver_record(
    cluster: &mut Cluster,
    to: ServerId,
    variable: VariableId,
    record: &AnyRecord,
) -> bool {
    if cluster.server(to).behavior() != Behavior::Correct {
        return false;
    }
    // The merge compares timestamps before it copies anything: most
    // full-push deliveries find the receiver already as fresh.
    match record {
        AnyRecord::Plain(tv) => cluster.server_mut(to).merge(variable, tv),
        AnyRecord::Signed(sv) => cluster.server_mut(to).merge(variable, sv),
    }
}

/// Delivers one gossip push ([`deliver_record`] on the push's payload).
pub fn deliver(cluster: &mut Cluster, push: &GossipPush) -> bool {
    deliver_record(cluster, push.to, push.variable, &push.record)
}

/// Which keys a digest advertises — the hook the per-key gossip policies
/// (uniform, hot-first, recent-writes-only) use to shape digest traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySelector {
    /// Advertise every key the sender holds: the digest is *complete*, so
    /// its receiver may also answer with records for keys the digest never
    /// mentioned (the sender provably holds nothing for them).
    All,
    /// Advertise exactly the listed keys — held or not (an unheld key is
    /// advertised at [`Timestamp::ZERO`], i.e. "send me anything you
    /// have").  The digest is *incomplete*: keys outside the set are not
    /// part of the exchange at all.
    Only(BTreeSet<VariableId>),
}

impl KeySelector {
    /// Whether the digest covers everything its sender holds.
    pub fn is_complete(&self) -> bool {
        matches!(self, KeySelector::All)
    }
}

/// A per-key version summary of one server's store, sent to a peer as a
/// pull request: "here is what I hold — answer with anything fresher".
#[derive(Debug, Clone, PartialEq)]
pub struct GossipDigest {
    /// The (correct) digest sender — the server that will receive the
    /// answering [`GossipDelta`].
    pub from: ServerId,
    /// The receiver, which computes the delta via [`diff_digest`].
    pub to: ServerId,
    /// Whether the exchange covers signed (dissemination) or plain records.
    pub signed: bool,
    /// `true` if `entries` covers every key the sender holds, so an absent
    /// key means "I hold nothing for it" and the receiver may volunteer
    /// records beyond the entries.
    pub complete: bool,
    /// `(key, freshest stored timestamp)` pairs, sorted by key.  Keys the
    /// sender does not hold appear at [`Timestamp::ZERO`] when a
    /// [`KeySelector::Only`] policy advertises them explicitly.
    pub entries: Vec<(VariableId, Timestamp)>,
}

/// The answer to a [`GossipDigest`]: only the records the digest sender
/// provably lacks, plus the count of transfers the digest made unnecessary.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipDelta {
    /// The responder (the digest's receiver).
    pub from: ServerId,
    /// The original digest sender, where [`deliver_delta`] applies the
    /// records.
    pub to: ServerId,
    /// `(key, record)` pairs the digest sender provably lacks, sorted by
    /// key.
    pub records: Vec<(VariableId, AnyRecord)>,
}

/// One planned round of digest gossip: every correct server's digests to
/// its `fanout` drawn peers, plus the same coverage snapshot
/// [`plan_cluster_round`] produces (over **all** held keys, regardless of
/// the selector, so convergence metrics stay comparable across policies).
#[derive(Debug, Clone, PartialEq)]
pub struct DigestRoundPlan {
    /// The round's digest messages, in deterministic sender-id order.
    pub digests: Vec<GossipDigest>,
    /// Per-variable coverage among correct servers at planning time,
    /// sorted by variable id.
    pub coverage: Vec<VariableCoverage>,
    /// Number of correct servers at planning time.
    pub correct_servers: u32,
}

/// One digest of a planned round without its entries: they are the range
/// `start..end` of an entry arena ([`DigestArena::entries`], or the
/// engine's per-shard batch the spine routes them to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedDigest {
    /// The (correct) digest sender.
    pub from: ServerId,
    /// The receiver.
    pub to: ServerId,
    /// Whether the exchange covers signed (dissemination) or plain records.
    pub signed: bool,
    /// Whether the entries cover every key the sender holds (see
    /// [`GossipDigest::complete`]).
    pub complete: bool,
    /// First arena index of the digest's entries.
    pub start: u32,
    /// One past its last arena index.
    pub end: u32,
}

impl PlannedDigest {
    /// The digest's entries in `arena`.
    pub fn entries<'a>(
        &self,
        arena: &'a [(VariableId, Timestamp)],
    ) -> &'a [(VariableId, Timestamp)] {
        &arena[self.start as usize..self.end as usize]
    }

    /// The full message, its entries copied out of `arena`.
    pub fn materialise(&self, arena: &[(VariableId, Timestamp)]) -> GossipDigest {
        GossipDigest {
            from: self.from,
            to: self.to,
            signed: self.signed,
            complete: self.complete,
            entries: self.entries(arena).to_vec(),
        }
    }
}

/// Caller-owned buffers one round of digest gossip is planned into by
/// [`plan_digest_into`], reused round after round: each sender's entries
/// are written once, back to back, and its `fanout` digests share them as
/// one range.  Once the buffers have grown to a round's size, planning the
/// next allocates only the coverage snapshot it returns.
#[derive(Debug, Default)]
pub struct DigestArena {
    /// Every sender's advertised `(key, timestamp)` entries, sorted by key
    /// within each sender's range.
    pub entries: Vec<(VariableId, Timestamp)>,
    /// The round's digests, in deterministic sender-id order.
    pub digests: Vec<PlannedDigest>,
    coverage: CoverageScratch,
}

/// Plans one round of digest gossip: each correct server summarises the
/// keys admitted by `selector` and addresses the summary to `fanout`
/// uniformly drawn peers (self-draws are consumed but skipped, like the
/// push planner's).  One digest per (sender, peer) pair covers every
/// advertised key — this is where digest gossip spends messages, instead of
/// one record-bearing push per (sender, peer, key).
///
/// Nothing is mutated; apply the exchange with [`diff_digest`] at each
/// receiver and [`deliver_delta`] back at each sender.  A thin wrapper
/// over [`plan_digest_into`] that copies each digest's entries out of a
/// fresh arena.
pub fn plan_digest(
    cluster: &Cluster,
    fanout: usize,
    signed: bool,
    selector: &KeySelector,
    rng: &mut dyn RngCore,
) -> DigestRoundPlan {
    let mut arena = DigestArena::default();
    let (coverage, correct_servers) = if signed {
        plan_digest_into::<SignedValue, _>(cluster, fanout, selector, rng, &mut arena)
    } else {
        plan_digest_into::<TaggedValue, _>(cluster, fanout, selector, rng, &mut arena)
    };
    DigestRoundPlan {
        digests: arena
            .digests
            .iter()
            .map(|digest| digest.materialise(&arena.entries))
            .collect(),
        coverage,
        correct_servers,
    }
}

/// [`plan_digest`] over the stores of `R` records, into `arena` (cleared
/// first): the round's digests and their entries land there, and the
/// coverage snapshot and the number of correct servers are returned.
pub fn plan_digest_into<R: Record, G: RngCore + ?Sized>(
    holdings: &impl Holdings<R>,
    fanout: usize,
    selector: &KeySelector,
    rng: &mut G,
    arena: &mut DigestArena,
) -> (Vec<VariableCoverage>, u32) {
    let n = holdings.servers();
    let complete = selector.is_complete();
    arena.entries.clear();
    arena.digests.clear();
    arena.coverage.reset();
    let mut correct_servers = 0u32;
    for i in 0..n as u32 {
        let sender = ServerId::new(i);
        if holdings.behavior(sender) != Behavior::Correct {
            continue;
        }
        correct_servers += 1;
        // One pass builds the coverage snapshot (over everything held,
        // selector or not) and, for complete digests, the entry list —
        // timestamps only, no record is ever cloned while planning.  Held
        // keys come out ascending — no sort.
        let start = arena_index(arena.entries.len());
        for (variable, ts) in holdings.held(sender) {
            if ts == Timestamp::ZERO {
                continue;
            }
            arena.coverage.note(variable, ts);
            if complete {
                arena.entries.push((variable, ts));
            }
        }
        if let KeySelector::Only(keys) = selector {
            arena
                .entries
                .extend(keys.iter().map(|&v| (v, holdings.timestamp(sender, v))));
        }
        let end = arena_index(arena.entries.len());
        for _ in 0..fanout {
            let peer = rng.gen_range(0..n);
            if peer == i as usize {
                continue;
            }
            arena.digests.push(PlannedDigest {
                from: sender,
                to: ServerId::new(peer as u32),
                signed: R::SIGNED,
                complete,
                start,
                end,
            });
        }
    }
    (arena.coverage.snapshot(), correct_servers)
}

/// An entry-arena length as a [`PlannedDigest`] bound.
fn arena_index(len: usize) -> u32 {
    u32::try_from(len).expect("a round's digest entries fit a u32 index")
}

/// What [`diff_digest`] computed at a digest's receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestDiff {
    /// The records the digest sender provably lacks, to be sent back.
    pub delta: GossipDelta,
    /// Keys (sorted) whose records the receiver holds within the
    /// exchange's scope but the digest proved the sender already has —
    /// exactly the transfers a blind push round would have wasted on this
    /// pair, at most one per key per exchange.
    pub avoided: Vec<VariableId>,
}

/// Computes the delta a digest's receiver owes its sender, evaluating the
/// receiver's behaviour *now*: a crashed receiver is unreachable and a
/// Byzantine receiver suppresses the exchange (it cannot forge a verifying
/// signed record, and the model conservatively assumes it refuses to help
/// on the plain path too) — both yield `None`, no reply.
///
/// For every advertised key the receiver answers with its stored record iff
/// that record is strictly fresher than the advertised timestamp; when the
/// digest is [`complete`](GossipDigest::complete) it additionally
/// volunteers records for keys it holds that the digest never mentioned
/// (the sender provably holds nothing for them).  A wrapper over
/// [`diff_digest_into`] that collects into fresh vectors.
pub fn diff_digest(cluster: &Cluster, digest: &GossipDigest) -> Option<DigestDiff> {
    let mut records = Vec::new();
    let mut avoided = Vec::new();
    diff_digest_into(cluster, digest, &mut records, |variable| {
        avoided.push(variable)
    })
    .then_some(DigestDiff {
        delta: GossipDelta {
            from: digest.to,
            to: digest.from,
            records,
        },
        avoided,
    })
}

/// The diff behind [`diff_digest`], into caller-owned storage: appends the
/// delta's `(key, record)` pairs to `records` in key order and calls
/// `avoided` once per key the digest proved redundant, in key order.
/// Returns `false`, touching neither, when the receiver does not answer.
/// With `records` already large enough it allocates nothing.
pub fn diff_digest_into(
    cluster: &Cluster,
    digest: &GossipDigest,
    records: &mut Vec<(VariableId, AnyRecord)>,
    avoided: impl FnMut(VariableId),
) -> bool {
    let receiver = cluster.server(digest.to);
    if receiver.behavior() != Behavior::Correct {
        return false;
    }
    if digest.signed {
        diff_entries::<SignedValue>(receiver, digest, records, avoided);
    } else {
        diff_entries::<TaggedValue>(receiver, digest, records, avoided);
    }
    true
}

/// The diff itself, against the receiver's store of `R` records.
///
/// `digest.entries` and the held keys are both ascending, so one merge walk
/// visits advertised and (for a complete digest) volunteered keys in key
/// order and the delta comes out sorted without a set or a sort.
/// Timestamps decide the diff; a record is cloned only when it actually
/// rides in the delta (proving redundancy — the common case — is free).
fn diff_entries<R: Record>(
    receiver: ReplicaServer<'_>,
    digest: &GossipDigest,
    records: &mut Vec<(VariableId, AnyRecord)>,
    mut avoided: impl FnMut(VariableId),
) {
    debug_assert!(
        digest.entries.windows(2).all(|w| w[0].0 < w[1].0),
        "digest entries must be sorted by key"
    );
    // Only a complete digest lets the receiver volunteer what it holds.
    let mut held = receiver
        .variables::<R>()
        .filter(|_| digest.complete)
        .peekable();
    let lookup = |variable| receiver.record::<R>(variable);
    let volunteer = |variable: VariableId, records: &mut Vec<_>| {
        if let Some(mine) = lookup(variable).filter(|r| r.timestamp() != Timestamp::ZERO) {
            records.push((variable, mine.clone().into()));
        }
    };
    for &(variable, advertised) in &digest.entries {
        // Held keys the digest never mentioned that sort before this entry.
        while let Some(unadvertised) = held.next_if(|&h| h < variable) {
            volunteer(unadvertised, records);
        }
        held.next_if_eq(&variable);
        match lookup(variable) {
            Some(mine) if mine.timestamp() > advertised => {
                records.push((variable, mine.clone().into()))
            }
            Some(mine) if mine.timestamp() != Timestamp::ZERO => avoided(variable),
            _ => {}
        }
    }
    for unadvertised in held {
        volunteer(unadvertised, records);
    }
}

/// The set-and-sort implementation [`diff_digest`] replaced, kept as the
/// oracle its merge walk is tested against.
#[cfg(test)]
fn diff_digest_oracle(cluster: &Cluster, digest: &GossipDigest) -> Option<DigestDiff> {
    fn diff<R: Record>(
        receiver: ReplicaServer<'_>,
        digest: &GossipDigest,
    ) -> (Vec<(VariableId, AnyRecord)>, Vec<VariableId>) {
        let mut records = Vec::new();
        let mut avoided = Vec::new();
        for &(variable, advertised) in &digest.entries {
            let mine = receiver.stored_timestamp::<R>(variable);
            if mine > advertised {
                records.push((variable, receiver.stored::<R>(variable).into()));
            } else if mine != Timestamp::ZERO {
                avoided.push(variable);
            }
        }
        if digest.complete {
            let advertised: BTreeSet<VariableId> = digest.entries.iter().map(|&(v, _)| v).collect();
            for variable in receiver.variables::<R>() {
                let unheld = receiver.stored_timestamp::<R>(variable) == Timestamp::ZERO;
                if advertised.contains(&variable) || unheld {
                    continue;
                }
                records.push((variable, receiver.stored::<R>(variable).into()));
            }
            records.sort_unstable_by_key(|&(v, _)| v);
        }
        (records, avoided)
    }
    let receiver = cluster.server(digest.to);
    if receiver.behavior() != Behavior::Correct {
        return None;
    }
    let (records, avoided) = if digest.signed {
        diff::<SignedValue>(receiver, digest)
    } else {
        diff::<TaggedValue>(receiver, digest)
    };
    Some(DigestDiff {
        delta: GossipDelta {
            from: digest.to,
            to: digest.from,
            records,
        },
        avoided,
    })
}

/// Applies a delta back at the digest sender, evaluating its behaviour at
/// delivery time ([`deliver_record`] per record).  Returns the number of
/// records that actually freshened the receiver's store — with a truthful
/// responder that is every record, unless the sender's store moved while
/// the delta was in flight.
pub fn deliver_delta(cluster: &mut Cluster, delta: &GossipDelta) -> u64 {
    delta
        .records
        .iter()
        .filter(|(variable, record)| deliver_record(cluster, delta.to, *variable, record))
        .count() as u64
}

/// Traffic accounting of one digest-gossip run: what [`diffuse_digest`]
/// did on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestDiffusionStats {
    /// Digest messages delivered.
    pub digests: u64,
    /// Records transferred inside deltas.
    pub delta_records: u64,
    /// Delta records that actually freshened their receiver.
    pub stores: u64,
    /// Redundant transfers a blind push exchange would have made that the
    /// digests proved unnecessary.
    pub redundant_avoided: u64,
}

/// Runs synchronous digest/delta gossip of `R` records over the whole
/// store (a [`KeySelector::All`] digest per pair) for `config.rounds`
/// rounds, returning the traffic stats.  The same failure semantics as
/// [`diffuse`]: crashed servers neither initiate nor answer, Byzantine
/// servers never answer.
pub fn diffuse_digest<R: Record>(
    cluster: &mut Cluster,
    config: DiffusionConfig,
    rng: &mut dyn RngCore,
) -> DigestDiffusionStats {
    let mut stats = DigestDiffusionStats::default();
    for _ in 0..config.rounds {
        let plan = plan_digest(cluster, config.fanout, R::SIGNED, &KeySelector::All, rng);
        for digest in &plan.digests {
            stats.digests += 1;
            if let Some(diff) = diff_digest(cluster, digest) {
                stats.redundant_avoided += diff.avoided.len() as u64;
                stats.delta_records += diff.delta.records.len() as u64;
                stats.stores += deliver_delta(cluster, &diff.delta);
            }
        }
    }
    stats
}

/// Runs synchronous push-gossip of `R` records for one variable and
/// returns the number of *correct* servers holding the globally freshest
/// record after the final round.
///
/// Each round is planned by [`plan_pushes`] over every variable the
/// servers hold, so other variables' peer draws advance `rng` too, and
/// only `variable`'s pushes are delivered.  Crashed servers neither push
/// nor receive; Byzantine servers receive
/// pushes (harmlessly) but never push, modelling the fact that correct
/// servers cannot rely on them to help dissemination — for signed records
/// too: a Byzantine server cannot forge a verifying record, so the worst it
/// does there is exactly what it does on the plain path.
pub fn diffuse<R: Record>(
    cluster: &mut Cluster,
    variable: VariableId,
    config: DiffusionConfig,
    rng: &mut dyn RngCore,
) -> usize {
    let mut pushes = Vec::new();
    for _ in 0..config.rounds {
        let planned: &Cluster = cluster;
        plan_pushes::<R, _>(planned, config.fanout, rng, |push| {
            if push.variable == variable {
                pushes.push(push.materialise::<R>(planned));
            }
        });
        for push in pushes.drain(..) {
            deliver(cluster, &push);
        }
    }
    count_fresh_correct::<R>(cluster, variable)
}

/// Number of correct servers holding the freshest `R` record currently
/// present anywhere in the cluster for `variable`.
pub fn count_fresh_correct<R: Record>(cluster: &Cluster, variable: VariableId) -> usize {
    let servers = || (0..cluster.len() as u32).map(|i| cluster.server(ServerId::new(i)));
    let freshest = servers()
        .map(|s| s.stored_timestamp::<R>(variable))
        .max()
        .unwrap_or(Timestamp::ZERO);
    if freshest == Timestamp::ZERO {
        return 0;
    }
    servers()
        .filter(|s| {
            s.behavior() == Behavior::Correct && s.stored_timestamp::<R>(variable) == freshest
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyRegistry;
    use crate::register::SafeRegister;
    use crate::server::tests::Make;
    use crate::value::Value;
    use pqs_core::probabilistic::EpsilonIntersecting;
    use pqs_core::system::{ProbabilisticQuorumSystem, QuorumSystem};
    use pqs_core::universe::Universe;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn diffusion_spreads_the_latest_write_to_almost_everyone() {
        let sys = EpsilonIntersecting::new(100, 22).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut reg = SafeRegister::new(&sys, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        reg.write(&mut cluster, &mut rng, Value::from_u64(9))
            .unwrap();
        let before = count_fresh_correct::<TaggedValue>(&cluster, 0);
        assert!(before <= 22);
        let after = diffuse::<TaggedValue>(&mut cluster, 0, DiffusionConfig::default(), &mut rng);
        assert!(after > 90, "only {after} servers fresh after diffusion");
        assert!(after >= before);
    }

    #[test]
    fn diffusion_lowers_stale_read_rate() {
        // Theorem 3.2 gives a stale-read rate of about epsilon without
        // diffusion; with diffusion between write and read it collapses to
        // (essentially) zero.
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let eps = sys.epsilon();
        assert!(eps > 0.05, "test needs a loose system to be meaningful");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut cluster = Cluster::new(sys.universe());
        let mut reg = SafeRegister::new(&sys, 1);
        let trials = 500u64;
        let mut stale = 0u64;
        for i in 1..=trials {
            reg.write(&mut cluster, &mut rng, Value::from_u64(i))
                .unwrap();
            diffuse::<TaggedValue>(
                &mut cluster,
                0,
                DiffusionConfig {
                    fanout: 2,
                    rounds: 4,
                },
                &mut rng,
            );
            match reg.read(&mut cluster, &mut rng).unwrap() {
                Some(tv) if tv.value == Value::from_u64(i) => {}
                _ => stale += 1,
            }
        }
        let rate = stale as f64 / trials as f64;
        assert!(rate < eps / 4.0, "rate {rate} not much below epsilon {eps}");
    }

    #[test]
    fn crashed_and_byzantine_servers_do_not_push() {
        let universe = Universe::new(20);
        let mut cluster = Cluster::new(universe);
        // Server 0 holds the only copy but is Byzantine; server 1 holds it
        // and is crashed; nothing should spread.
        use crate::server::Behavior;
        use crate::timestamp::Timestamp;
        use crate::value::TaggedValue;
        let record = TaggedValue::new(Value::from_u64(5), Timestamp::new(1, 1));
        cluster
            .server_mut(ServerId::new(0))
            .store_plain_if_fresher(0, record.clone());
        cluster
            .server_mut(ServerId::new(1))
            .store_plain_if_fresher(0, record);
        cluster.set_behavior(ServerId::new(0), Behavior::ByzantineStale);
        cluster.set_behavior(ServerId::new(1), Behavior::Crashed);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let fresh = diffuse::<TaggedValue>(
            &mut cluster,
            0,
            DiffusionConfig {
                fanout: 3,
                rounds: 5,
            },
            &mut rng,
        );
        assert_eq!(
            fresh, 0,
            "no correct server should have received the record"
        );
    }

    #[test]
    fn empty_cluster_state_counts_zero_fresh() {
        let cluster = Cluster::new(Universe::new(5));
        assert_eq!(count_fresh_correct::<TaggedValue>(&cluster, 0), 0);
        assert_eq!(count_fresh_correct::<SignedValue>(&cluster, 0), 0);
        let mut cluster = cluster;
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(
            diffuse::<TaggedValue>(&mut cluster, 0, DiffusionConfig::default(), &mut rng),
            0
        );
        assert_eq!(
            diffuse::<SignedValue>(&mut cluster, 0, DiffusionConfig::default(), &mut rng),
            0
        );
    }

    #[test]
    fn signed_records_diffuse_like_plain_ones() {
        // Identical initial holders, identical RNG seed: the signed and
        // plain planners draw the same peers (record kind never touches the
        // RNG), so coverage after diffusion is identical.
        use crate::timestamp::Timestamp;
        let universe = Universe::new(40);
        let mut plain_cluster = Cluster::new(universe);
        let mut signed_cluster = Cluster::new(universe);
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 11);
        let tv = TaggedValue::new(Value::from_u64(7), Timestamp::new(3, 1));
        let sv = SignedValue::create(&key, Value::from_u64(7), Timestamp::new(3, 1));
        for i in [0u32, 5, 9] {
            plain_cluster
                .server_mut(ServerId::new(i))
                .store_plain_if_fresher(2, tv.clone());
            signed_cluster
                .server_mut(ServerId::new(i))
                .store_signed_if_fresher(2, sv.clone());
        }
        let config = DiffusionConfig {
            fanout: 2,
            rounds: 4,
        };
        let mut rng_a = ChaCha8Rng::seed_from_u64(8);
        let mut rng_b = ChaCha8Rng::seed_from_u64(8);
        let plain = diffuse::<TaggedValue>(&mut plain_cluster, 2, config, &mut rng_a);
        let signed = diffuse::<SignedValue>(&mut signed_cluster, 2, config, &mut rng_b);
        assert_eq!(plain, signed);
        assert!(plain > 3, "diffusion must actually spread, got {plain}");
        // The signed records survive verification after gossip hops.
        for i in 0..40u32 {
            let stored = signed_cluster
                .server(ServerId::new(i))
                .stored::<SignedValue>(2);
            if stored.tagged.timestamp != Timestamp::ZERO {
                assert!(registry.verifies(&stored));
            }
        }
    }

    #[test]
    fn byzantine_receivers_drop_pushes_in_both_flavors() {
        use crate::timestamp::Timestamp;
        let mut cluster = Cluster::new(Universe::new(4));
        cluster.set_behavior(ServerId::new(1), Behavior::ByzantineForge);
        cluster.set_behavior(ServerId::new(2), Behavior::Crashed);
        let tv = TaggedValue::new(Value::from_u64(1), Timestamp::new(1, 1));
        let push = |to: u32| GossipPush {
            from: ServerId::new(0),
            to: ServerId::new(to),
            variable: 0,
            record: AnyRecord::Plain(tv.clone()),
        };
        assert!(!deliver(&mut cluster, &push(1)), "byzantine receiver");
        assert!(!deliver(&mut cluster, &push(2)), "crashed receiver");
        assert!(deliver(&mut cluster, &push(3)), "correct receiver stores");
        assert!(!deliver(&mut cluster, &push(3)), "duplicate is a no-op");
        assert_eq!(
            cluster
                .server(ServerId::new(1))
                .stored_timestamp::<TaggedValue>(0),
            Timestamp::ZERO
        );
    }

    #[test]
    fn cluster_round_plan_covers_all_variables_and_skips_faulty_senders() {
        use crate::timestamp::Timestamp;
        let mut cluster = Cluster::new(Universe::new(10));
        let record = |v: u64, c: u64| TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1));
        // Server 0 holds vars 3 and 7; server 1 holds var 3 (staler);
        // server 2 holds var 7 but is Byzantine.
        cluster
            .server_mut(ServerId::new(0))
            .store_plain_if_fresher(3, record(30, 2));
        cluster
            .server_mut(ServerId::new(0))
            .store_plain_if_fresher(7, record(70, 1));
        cluster
            .server_mut(ServerId::new(1))
            .store_plain_if_fresher(3, record(29, 1));
        cluster
            .server_mut(ServerId::new(2))
            .store_plain_if_fresher(7, record(70, 1));
        cluster.set_behavior(ServerId::new(2), Behavior::ByzantineStale);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let plan = plan_cluster_round(&cluster, 2, false, &mut rng);
        assert_eq!(plan.correct_servers, 9);
        // Coverage rows are sorted and count only correct holders of the
        // per-variable freshest timestamp.
        assert_eq!(plan.coverage.len(), 2);
        assert_eq!(plan.coverage[0].variable, 3);
        assert_eq!(plan.coverage[0].freshest, Timestamp::new(2, 1));
        assert_eq!(plan.coverage[0].holders, 1);
        assert_eq!(plan.coverage[1].variable, 7);
        assert_eq!(plan.coverage[1].holders, 1, "byzantine holder not counted");
        // Every push originates from a correct holder of a real record.
        assert!(!plan.pushes.is_empty());
        for push in &plan.pushes {
            assert_ne!(push.from, ServerId::new(2), "byzantine servers never push");
            assert_ne!(push.from, push.to);
            assert_ne!(push.record.timestamp(), Timestamp::ZERO);
        }
        // Applying the whole plan only ever freshens receivers.
        let before = count_fresh_correct::<TaggedValue>(&cluster, 3);
        for push in &plan.pushes {
            deliver(&mut cluster, push);
        }
        assert!(count_fresh_correct::<TaggedValue>(&cluster, 3) >= before);
    }

    #[test]
    fn planned_pushes_are_the_round_plan_minus_payloads_and_know_what_stores() {
        // Random stores of mixed age in both flavors, some receivers
        // faulty: the sink sees the plan's peers and names the plan's
        // records, and `covered` is exactly "delivery stores nothing" at a
        // correct receiver.
        fn check<R: Make>(rng: &mut ChaCha8Rng, case: u64) {
            let mut cluster = Cluster::new(Universe::new(12));
            for i in 0..12u32 {
                for var in 0..6u64 {
                    if rng.gen_bool(0.3) {
                        continue;
                    }
                    let age = rng.gen_range(1..4u64);
                    cluster
                        .server_mut(ServerId::new(i))
                        .merge(var, &R::make(var, age));
                }
            }
            cluster.set_behavior(ServerId::new(3), Behavior::Crashed);
            cluster.set_behavior(ServerId::new(7), Behavior::ByzantineStale);
            let mut rng_a = ChaCha8Rng::seed_from_u64(case);
            let mut rng_b = ChaCha8Rng::seed_from_u64(case);
            let mut pushes = Vec::new();
            let (coverage, correct_servers) =
                plan_pushes::<R, _>(&cluster, 2, &mut rng_a, |p| pushes.push(p));
            let plan = plan_cluster_round(&cluster, 2, R::SIGNED, &mut rng_b);
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same draws");
            assert_eq!(coverage, plan.coverage);
            assert_eq!(correct_servers, plan.correct_servers);
            assert_eq!(pushes.len(), plan.pushes.len());
            assert!(pushes.iter().any(|p| p.covered));
            assert!(pushes.iter().any(|p| !p.covered));
            for (planned, push) in pushes.iter().zip(&plan.pushes) {
                assert_eq!(planned.materialise::<R>(&cluster), *push);
                assert_eq!(planned.timestamp, push.record.timestamp());
                let correct = cluster.server(push.to).behavior() == Behavior::Correct;
                let stored = deliver(&mut cluster.clone(), push);
                assert_eq!(stored, correct && !planned.covered, "case {case}: {push:?}");
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for case in 0..20u64 {
            check::<TaggedValue>(&mut rng, 2 * case);
            check::<SignedValue>(&mut rng, 2 * case + 1);
        }
    }

    #[test]
    fn digest_diffusion_converges_like_full_push() {
        // One holder of the freshest record per key; after enough digest
        // rounds every correct server holds every key's freshest record —
        // the same fixed point full-push gossip reaches.
        let universe = Universe::new(40);
        let mut cluster = Cluster::new(universe);
        for (var, holder) in [(0u64, 3u32), (5, 11), (9, 27)] {
            cluster
                .server_mut(ServerId::new(holder))
                .store_plain_if_fresher(
                    var,
                    TaggedValue::new(Value::from_u64(var), Timestamp::new(4, 1)),
                );
        }
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let stats = diffuse_digest::<TaggedValue>(
            &mut cluster,
            DiffusionConfig {
                fanout: 3,
                rounds: 8,
            },
            &mut rng,
        );
        for var in [0u64, 5, 9] {
            assert_eq!(
                count_fresh_correct::<TaggedValue>(&cluster, var),
                40,
                "key {var}"
            );
        }
        assert!(stats.digests > 0);
        // Deltas carried each record at most once per (receiver, key) that
        // lacked it: far fewer transfers than 8 rounds of blind pushes.
        // Every correct (server, key) pair went from empty to fresh exactly
        // once; a few transfers race within a round (two exchanges planned
        // against the same stale snapshot), so transfers ≥ stores.
        assert_eq!(stats.stores, 39 * 3);
        assert!(stats.delta_records >= stats.stores, "{stats:?}");
        assert!(stats.redundant_avoided > 0, "{stats:?}");
        let blind = 8 * 40 * 3 * 3; // rounds x servers x keys x fanout
        assert!(
            stats.delta_records < blind as u64 / 4,
            "digest transfers {} should be far below blind {blind}",
            stats.delta_records
        );
    }

    #[test]
    fn diff_digest_sends_only_what_the_sender_provably_lacks() {
        let mut cluster = Cluster::new(Universe::new(4));
        let record = |v: u64, c: u64| TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1));
        // Receiver 1 holds: key 0 fresher than advertised, key 1 staler,
        // key 2 equal, key 3 unadvertised.
        let receiver = ServerId::new(1);
        cluster
            .server_mut(receiver)
            .store_plain_if_fresher(0, record(10, 5));
        cluster
            .server_mut(receiver)
            .store_plain_if_fresher(1, record(11, 1));
        cluster
            .server_mut(receiver)
            .store_plain_if_fresher(2, record(12, 2));
        cluster
            .server_mut(receiver)
            .store_plain_if_fresher(3, record(13, 7));
        let digest = GossipDigest {
            from: ServerId::new(0),
            to: receiver,
            signed: false,
            complete: true,
            entries: vec![
                (0, Timestamp::new(2, 1)),
                (1, Timestamp::new(9, 1)),
                (2, Timestamp::new(2, 1)),
            ],
        };
        let diff = diff_digest(&cluster, &digest).unwrap();
        // Keys 0 (fresher) and 3 (volunteered: digest is complete) flow
        // back; keys 1 and 2 are proven redundant.
        let keys: Vec<VariableId> = diff.delta.records.iter().map(|&(v, _)| v).collect();
        assert_eq!(keys, vec![0, 3]);
        assert_eq!(diff.avoided, vec![1, 2]);
        assert_eq!(diff.delta.from, receiver);
        assert_eq!(diff.delta.to, ServerId::new(0));
        // An incomplete digest must not volunteer unadvertised keys.
        let partial = GossipDigest {
            complete: false,
            ..digest.clone()
        };
        let diff = diff_digest(&cluster, &partial).unwrap();
        let keys: Vec<VariableId> = diff.delta.records.iter().map(|&(v, _)| v).collect();
        assert_eq!(keys, vec![0], "key 3 is outside the exchange's scope");
        // Applying the delta freshens the digest sender exactly once.
        let full = diff_digest(&cluster, &digest).unwrap();
        assert_eq!(deliver_delta(&mut cluster, &full.delta), 2);
        assert_eq!(deliver_delta(&mut cluster, &full.delta), 0, "idempotent");
        assert_eq!(
            cluster
                .server(ServerId::new(0))
                .stored_timestamp::<TaggedValue>(3),
            Timestamp::new(7, 1)
        );
    }

    #[test]
    fn merge_walk_diff_equals_the_set_and_sort_oracle() {
        // Random stores and digests in both flavors: entries mix keys the
        // receiver holds fresher, staler, equal and not at all; the
        // receiver holds keys below, between and above the advertised
        // ones, on both slab tiers.
        fn check<R: Make>(rng: &mut ChaCha8Rng, case: u64) {
            let sparse = u64::MAX / 5;
            let mut cluster = Cluster::new(Universe::new(3));
            let receiver = ServerId::new(1);
            let mut universe: Vec<VariableId> = (0..24).collect();
            universe.extend([sparse, sparse + 4]);
            for &var in &universe {
                if rng.gen_bool(0.5) {
                    let age = rng.gen_range(1..4u64);
                    cluster.server_mut(receiver).merge(var, &R::make(var, age));
                }
            }
            let mut entries: Vec<(VariableId, Timestamp)> = Vec::new();
            for &var in &universe {
                if rng.gen_bool(0.4) {
                    entries.push((var, Timestamp::new(rng.gen_range(0..4u64), 1)));
                }
            }
            let digest = GossipDigest {
                from: ServerId::new(0),
                to: receiver,
                signed: R::SIGNED,
                complete: !case.is_multiple_of(3),
                entries,
            };
            let diff = diff_digest(&cluster, &digest);
            assert!(diff.is_some());
            assert_eq!(diff, diff_digest_oracle(&cluster, &digest), "case {case}");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for case in 0..300u64 {
            check::<TaggedValue>(&mut rng, 2 * case);
            check::<SignedValue>(&mut rng, 2 * case + 1);
        }
    }

    #[test]
    fn faulty_receivers_never_answer_digests() {
        let mut cluster = Cluster::new(Universe::new(5));
        let record = TaggedValue::new(Value::from_u64(5), Timestamp::new(3, 1));
        for i in 1..=2u32 {
            cluster
                .server_mut(ServerId::new(i))
                .store_plain_if_fresher(0, record.clone());
        }
        cluster.set_behavior(ServerId::new(1), Behavior::Crashed);
        cluster.set_behavior(ServerId::new(2), Behavior::ByzantineForge);
        let digest = |to: u32| GossipDigest {
            from: ServerId::new(0),
            to: ServerId::new(to),
            signed: false,
            complete: true,
            entries: Vec::new(),
        };
        assert!(diff_digest(&cluster, &digest(1)).is_none(), "crashed");
        assert!(diff_digest(&cluster, &digest(2)).is_none(), "byzantine");
        // A correct but empty receiver answers with an empty delta.
        let diff = diff_digest(&cluster, &digest(3)).unwrap();
        assert!(diff.delta.records.is_empty());
        assert!(diff.avoided.is_empty());
        // A delta aimed at a server that crashed mid-flight stores nothing.
        let fresh = GossipDelta {
            from: ServerId::new(3),
            to: ServerId::new(1),
            records: vec![(0, AnyRecord::Plain(record))],
        };
        assert_eq!(deliver_delta(&mut cluster, &fresh), 0);
    }

    #[test]
    fn selective_digests_advertise_unheld_keys_at_timestamp_zero() {
        use std::collections::BTreeSet;
        let mut cluster = Cluster::new(Universe::new(6));
        // Server 2 holds keys 1 and 4; the policy only admits keys 1 and 7.
        let record = |v: u64, c: u64| TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1));
        cluster
            .server_mut(ServerId::new(2))
            .store_plain_if_fresher(1, record(1, 2));
        cluster
            .server_mut(ServerId::new(2))
            .store_plain_if_fresher(4, record(4, 3));
        let selector = KeySelector::Only(BTreeSet::from([1u64, 7]));
        assert!(!selector.is_complete());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plan = plan_digest(&cluster, 2, false, &selector, &mut rng);
        assert_eq!(plan.correct_servers, 6);
        // The coverage snapshot still sees key 4 even though the selector
        // filtered it from the digests (metrics stay policy-blind).
        assert!(plan.coverage.iter().any(|c| c.variable == 4));
        for digest in &plan.digests {
            assert!(!digest.complete);
            let vars: Vec<VariableId> = digest.entries.iter().map(|&(v, _)| v).collect();
            assert_eq!(vars, vec![1, 7], "exactly the selected keys");
            let ts7 = digest.entries.iter().find(|&&(v, _)| v == 7).unwrap().1;
            assert_eq!(ts7, Timestamp::ZERO, "unheld keys pull from scratch");
            if digest.from == ServerId::new(2) {
                assert_eq!(digest.entries[0].1, Timestamp::new(2, 1));
            }
        }
        // Round-trip: a holder of key 7 answers the pull.
        cluster
            .server_mut(ServerId::new(5))
            .store_plain_if_fresher(7, record(7, 9));
        let digest = plan
            .digests
            .iter()
            .find(|d| d.to == ServerId::new(5))
            .cloned()
            .unwrap_or_else(|| GossipDigest {
                from: ServerId::new(0),
                to: ServerId::new(5),
                signed: false,
                complete: false,
                entries: vec![(1, Timestamp::ZERO), (7, Timestamp::ZERO)],
            });
        let diff = diff_digest(&cluster, &digest).unwrap();
        assert!(diff.delta.records.iter().any(|&(v, _)| v == 7));
    }

    #[test]
    fn a_reused_arena_plans_what_the_wrapper_plans_fresh() {
        // Rounds planned into one arena, over stores that change between
        // rounds and under complete and selective digests, equal the
        // wrapper's rounds from fresh buffers: the arena keeps capacity,
        // never contents, and a sender's digests share one entry range.
        fn check<R: Make>(rng: &mut ChaCha8Rng, case: u64) {
            let mut cluster = Cluster::new(Universe::new(10));
            cluster.set_behavior(ServerId::new(4), Behavior::Crashed);
            let mut arena = DigestArena::default();
            for round in 0..6u64 {
                for _ in 0..8 {
                    let server = ServerId::new(rng.gen_range(0..10));
                    let var = rng.gen_range(0..12u64);
                    let age = rng.gen_range(1..2 + round);
                    cluster.server_mut(server).merge(var, &R::make(var, age));
                }
                let selector = if round % 3 == 2 {
                    KeySelector::Only(BTreeSet::from([1, 5, 30]))
                } else {
                    KeySelector::All
                };
                let seed = 100 * case + round;
                let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
                let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
                let (coverage, correct_servers) =
                    plan_digest_into::<R, _>(&cluster, 2, &selector, &mut rng_a, &mut arena);
                let fresh = plan_digest(&cluster, 2, R::SIGNED, &selector, &mut rng_b);
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same draws");
                assert_eq!(coverage, fresh.coverage, "case {case} round {round}");
                assert_eq!(correct_servers, fresh.correct_servers);
                let digests: Vec<GossipDigest> = arena
                    .digests
                    .iter()
                    .map(|d| d.materialise(&arena.entries))
                    .collect();
                assert_eq!(digests, fresh.digests, "case {case} round {round}");
                for pair in arena.digests.windows(2) {
                    if pair[0].from == pair[1].from {
                        assert_eq!((pair[0].start, pair[0].end), (pair[1].start, pair[1].end));
                    }
                }
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        for case in 0..20u64 {
            check::<TaggedValue>(&mut rng, 2 * case);
            check::<SignedValue>(&mut rng, 2 * case + 1);
        }
    }

    #[test]
    fn signed_digest_diffusion_matches_plain() {
        // Mirrored clusters, same seed: record flavor never touches the
        // RNG, so digest gossip spreads identically and the stats agree.
        let universe = Universe::new(30);
        let mut plain_cluster = Cluster::new(universe);
        let mut signed_cluster = Cluster::new(universe);
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 31);
        let ts = Timestamp::new(6, 1);
        for i in [2u32, 8] {
            plain_cluster
                .server_mut(ServerId::new(i))
                .store_plain_if_fresher(3, TaggedValue::new(Value::from_u64(5), ts));
            signed_cluster
                .server_mut(ServerId::new(i))
                .store_signed_if_fresher(3, SignedValue::create(&key, Value::from_u64(5), ts));
        }
        let config = DiffusionConfig {
            fanout: 2,
            rounds: 6,
        };
        let mut rng_a = ChaCha8Rng::seed_from_u64(14);
        let mut rng_b = ChaCha8Rng::seed_from_u64(14);
        let plain = diffuse_digest::<TaggedValue>(&mut plain_cluster, config, &mut rng_a);
        let signed = diffuse_digest::<SignedValue>(&mut signed_cluster, config, &mut rng_b);
        assert_eq!(plain, signed);
        assert_eq!(
            count_fresh_correct::<TaggedValue>(&plain_cluster, 3),
            count_fresh_correct::<SignedValue>(&signed_cluster, 3)
        );
        // Gossip hops preserve signature validity.
        for i in 0..30u32 {
            let stored = signed_cluster
                .server(ServerId::new(i))
                .stored::<SignedValue>(3);
            if stored.tagged.timestamp != Timestamp::ZERO {
                assert!(registry.verifies(&stored));
            }
        }
    }

    #[test]
    fn incremental_rounds_match_the_run_to_completion_loop() {
        // Stepping plan_cluster_round + deliver by hand is exactly diffuse
        // on a cluster that holds one variable.
        let universe = Universe::new(30);
        let seed_cluster = || {
            let mut c = Cluster::new(universe);
            c.server_mut(ServerId::new(4)).store_plain_if_fresher(
                1,
                TaggedValue::new(Value::from_u64(9), Timestamp::new(5, 2)),
            );
            c
        };
        let config = DiffusionConfig {
            fanout: 2,
            rounds: 3,
        };
        let mut rng_a = ChaCha8Rng::seed_from_u64(12);
        let mut rng_b = ChaCha8Rng::seed_from_u64(12);
        let mut whole = seed_cluster();
        let fresh = diffuse::<TaggedValue>(&mut whole, 1, config, &mut rng_a);
        let mut stepped = seed_cluster();
        let mut last = 0;
        for _ in 0..config.rounds {
            let plan = plan_cluster_round(&stepped, config.fanout, false, &mut rng_b);
            for push in &plan.pushes {
                deliver(&mut stepped, push);
            }
            let now = count_fresh_correct::<TaggedValue>(&stepped, 1);
            assert!(now >= last, "coverage is monotone in rounds");
            last = now;
        }
        assert_eq!(fresh, last);
    }
}
