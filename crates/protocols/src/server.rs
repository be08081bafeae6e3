//! A replica server — a failure behaviour plus one record per variable —
//! seen through a borrowed view into the [`Cluster`](crate::cluster::Cluster)
//! that owns both.
//!
//! A server owns no storage. Its cluster keeps the behaviours in one
//! vector and the records in one **var-major** slab per record kind:
//! slot `var · n + server` holds a four-byte handle to that server's
//! record for `var`, and the slab interns each distinct record once, with
//! a count of the slots that hold it. An operation touches one key at a
//! quorum of servers, so its probes land in one block of `n` slots rather
//! than in `q` separate per-server arrays, and the quorum's copies of one
//! write are one record.
//! [`ReplicaServer`] (read) and [`ReplicaServerMut`] (write) are views onto
//! one server's column of those slabs, with the per-server operations
//! (`record`, `handle_read`, `merge`, …); every record operation on them is
//! generic over the [`Record`] kind.
//!
//! The paper's model (Section 2) distinguishes *correct* servers, which
//! follow their specification, from *crashed* servers (benign failures) and
//! *Byzantine* servers, which "may deviate from \[their\] specification
//! arbitrarily".  The behaviours implemented here are the canonical
//! adversaries for the three protocols:
//!
//! * [`Behavior::Crashed`] — never answers; exercises the availability /
//!   failure-probability analysis.
//! * [`Behavior::ByzantineForge`] — answers with a fabricated value carrying
//!   an inflated timestamp (all forging servers collude on the same value),
//!   the worst case for the masking analysis of Section 5.
//! * [`Behavior::ByzantineStale`] — suppresses updates and keeps answering
//!   with stale data; the worst a Byzantine server can do against
//!   *self-verifying* data (Section 4), since it cannot forge signatures.

use crate::crypto::SignedValue;
use crate::timestamp::Timestamp;
use crate::value::{TaggedValue, Value};
use pqs_core::universe::ServerId;
use std::fmt::Debug;

/// Identifier of a replicated variable (register) held by the servers.
pub type VariableId = u64;

/// How a server behaves when accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Halted: ignores every request (benign failure model of Section 2).
    Crashed,
    /// Byzantine: answers reads with a fabricated value under an inflated
    /// timestamp and acknowledges writes without storing them.  All servers
    /// with this behaviour return the *same* fabricated value, modelling a
    /// colluding adversary.
    ByzantineForge,
    /// Byzantine: acknowledges writes without storing them and answers reads
    /// with whatever (old) state it has — i.e. it suppresses updates, which
    /// is all it can do undetectably against self-verifying data.
    ByzantineStale,
}

/// The value colluding [`Behavior::ByzantineForge`] servers fabricate.
pub(crate) fn forged_value() -> Value {
    Value::from_str_value("FORGED")
}

/// The inflated timestamp attached to the fabricated value: far ahead of any
/// honest write in a test run, attributed to a bogus writer id.
fn forged_timestamp() -> Timestamp {
    Timestamp::new(u64::MAX / 2, u32::MAX)
}

/// A stored record: the plain ⟨v, t⟩ pair of the safe and masking protocols
/// ([`TaggedValue`]) or the self-verifying pair of the dissemination
/// protocol ([`SignedValue`]).  Servers, the cluster, gossip and the
/// register clients are written once against this trait; what a forging
/// server can answer with is the only place the two kinds behave
/// differently.  Sealed: the slab selector is private to this module.
pub trait Record: Clone + PartialEq + Debug + Into<AnyRecord> + store::Stored + 'static {
    /// The `signed: bool` flag that names this kind where a signature the
    /// repo benchmark compiles against ([`plan_digest`](crate::diffusion::plan_digest),
    /// [`GossipDigest::signed`](crate::diffusion::GossipDigest::signed), …)
    /// takes the kind at run time.
    const SIGNED: bool;

    /// The timestamp the record was written under — what the
    /// freshest-wins merge rule compares.
    fn timestamp(&self) -> Timestamp;

    /// The never-written record every replica starts with (timestamp zero).
    fn initial() -> Self;

    /// What colluding [`Behavior::ByzantineForge`] servers fabricate, or
    /// `None` when a fabrication could not pass for a record of this kind
    /// and the worst a forger can do is replay what it stores.
    fn forged() -> Option<Self>;
}

impl Record for TaggedValue {
    const SIGNED: bool = false;

    #[inline]
    fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    fn initial() -> Self {
        TaggedValue::initial()
    }

    fn forged() -> Option<Self> {
        Some(TaggedValue::new(forged_value(), forged_timestamp()))
    }
}

impl Record for SignedValue {
    const SIGNED: bool = true;

    #[inline]
    fn timestamp(&self) -> Timestamp {
        self.tagged.timestamp
    }

    fn initial() -> Self {
        SignedValue::unsigned_initial()
    }

    /// A forging server cannot produce a verifying signature; the most
    /// damaging thing it can return is stale-but-valid data (or garbage,
    /// which readers would discard anyway).
    fn forged() -> Option<Self> {
        None
    }
}

/// A record whose kind is known only at run time: what a write pushes to
/// each probed server and what a gossip message carries — plain for the
/// safe and masking protocols, signed for dissemination.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyRecord {
    /// An unsigned value–timestamp pair.
    Plain(TaggedValue),
    /// A signed, self-verifying value–timestamp pair.
    Signed(SignedValue),
}

impl AnyRecord {
    /// The timestamp the record was written under.
    #[inline]
    pub fn timestamp(&self) -> Timestamp {
        match self {
            AnyRecord::Plain(tv) => tv.timestamp,
            AnyRecord::Signed(sv) => sv.tagged.timestamp,
        }
    }
}

impl From<TaggedValue> for AnyRecord {
    #[inline]
    fn from(record: TaggedValue) -> Self {
        AnyRecord::Plain(record)
    }
}

impl From<SignedValue> for AnyRecord {
    #[inline]
    fn from(record: SignedValue) -> Self {
        AnyRecord::Signed(record)
    }
}

/// The per-kind record slabs and the selector that seals [`Record`].
mod store {
    use super::{Record, VariableId};
    use crate::crypto::SignedValue;
    use crate::timestamp::Timestamp;
    use crate::value::TaggedValue;
    use pqs_core::universe::ServerId;
    use std::collections::BTreeMap;
    use std::num::NonZeroU32;

    /// Variable ids below this bound live in the dense tier of a [`Slab`];
    /// ids at or above it (the apps hash entity names into the full `u64`
    /// space) spill into the ordered sparse tier.  2^16 var blocks cover
    /// every simulator key space.
    pub(crate) const DENSE_LIMIT: VariableId = 1 << 16;

    /// What a dense slot holds: a reference to entry `handle - 1` of its
    /// slab's [`Arena`].  An `Option<Handle>` is four bytes, `None` for a
    /// slot that holds nothing.
    pub type Handle = NonZeroU32;

    /// One entry of an [`Arena`]: a record and the number of slots that
    /// hold its handle, or a link of the free list.
    #[derive(Debug, Clone)]
    enum Entry<T> {
        Live { record: T, refs: u32 },
        Free { next: Option<Handle> },
    }

    /// The interned records of a slab's dense tier.  A write stores the
    /// same record at every server of its quorum, so the `n` slots of a
    /// key point at a few entries, each counting its holders.  An entry
    /// whose last holder lets go joins the free list, and the arena reuses
    /// freed entries before it grows, so its length is bounded by the
    /// occupied slots, not by the run's length.
    #[derive(Debug, Clone)]
    struct Arena<T> {
        entries: Vec<Entry<T>>,
        free: Option<Handle>,
    }

    fn index(handle: Handle) -> usize {
        handle.get() as usize - 1
    }

    impl<T: Record> Arena<T> {
        const fn new() -> Self {
            Arena {
                entries: Vec::new(),
                free: None,
            }
        }

        /// The record a slot holding `handle` holds.
        #[inline]
        fn get(&self, handle: Handle) -> &T {
            match &self.entries[index(handle)] {
                Entry::Live { record, .. } => record,
                Entry::Free { .. } => unreachable!("a slot holds the freed entry {handle}"),
            }
        }

        /// Whether `handle`'s entry is live and holds exactly `record`.
        /// Timestamps are compared first, which settles nearly every
        /// mismatch without looking at the values.
        #[inline]
        fn holds(&self, handle: Handle, record: &T) -> bool {
            matches!(&self.entries[index(handle)], Entry::Live { record: held, .. }
                if held.timestamp() == record.timestamp() && held == record)
        }

        /// One more slot holds `handle`, a live entry.
        #[inline]
        fn share(&mut self, handle: Handle) -> Handle {
            let Entry::Live { refs, .. } = &mut self.entries[index(handle)] else {
                unreachable!("a slot shares the freed entry {handle}")
            };
            *refs += 1;
            handle
        }

        /// Overwrites the record of `handle`'s entry with `record` when
        /// exactly one slot holds it, which is the caller's: whether it did.
        #[inline]
        fn overwrite_sole(&mut self, handle: Handle, record: &T) -> bool {
            match &mut self.entries[index(handle)] {
                Entry::Live {
                    record: held,
                    refs: 1,
                } => {
                    held.clone_from(record);
                    true
                }
                _ => false,
            }
        }

        /// A new entry holding `record`, held by one slot: the head of the
        /// free list, or a new entry at the end when none is free.
        fn intern(&mut self, record: T) -> Handle {
            let entry = Entry::Live { record, refs: 1 };
            match self.free {
                Some(handle) => {
                    let slot = &mut self.entries[index(handle)];
                    let Entry::Free { next } = *slot else {
                        unreachable!("the free list reaches the live entry {handle}")
                    };
                    self.free = next;
                    *slot = entry;
                    handle
                }
                None => {
                    self.entries.push(entry);
                    u32::try_from(self.entries.len())
                        .ok()
                        .and_then(Handle::new)
                        .expect("fewer than 2^32 distinct records")
                }
            }
        }

        /// One slot fewer holds `handle`; the entry is freed with its last.
        #[inline]
        fn release(&mut self, handle: Handle) {
            let entry = &mut self.entries[index(handle)];
            let Entry::Live { refs, .. } = entry else {
                unreachable!("a slot released the freed entry {handle}")
            };
            *refs -= 1;
            if *refs == 0 {
                *entry = Entry::Free { next: self.free };
                self.free = Some(handle);
            }
        }
    }

    /// Every server's records of one kind.
    ///
    /// The dense tier is **var-major**: slot `var · servers + server`
    /// holds a handle to `server`'s record for `var`, so the probes of one
    /// operation share one block of four-byte slots.  The records
    /// themselves are interned in the slab's arena, one entry per distinct
    /// record with a count of the slots that hold it: the hundred stores
    /// of one masking write share one entry.  The slots are allocated on
    /// the kind's first store, at the capacity [`Records::reserve`]
    /// planned, and grow in whole var blocks up to the highest dense id
    /// stored.  Per block the slab keeps the handle it interned or shared
    /// there last, `None` while no server has stored into the block, so a
    /// column scan skips the blocks nobody holds without touching them (a
    /// shard's cluster holds only its own keys) and the next store of the
    /// same record into the block finds its entry without a search.  The
    /// sparse tier keeps records by value, keyed server-major, so one
    /// server's ids come out of a range scan ascending.
    ///
    /// A slot is occupied exactly when it holds a record fresher than
    /// [`Timestamp::ZERO`] (the only insertion path is [`merge`](Self::merge)).
    /// A server's held ids iterate **ascending** by construction — its
    /// dense slots in var order, then its sparse ids, which all exceed the
    /// dense tier's — which is what lets the gossip planners skip their
    /// per-sender sorts.
    #[derive(Debug, Clone)]
    pub struct Slab<T> {
        servers: usize,
        /// Var blocks to allocate on the first dense store.
        planned_blocks: usize,
        dense: Vec<Option<Handle>>,
        /// Per var block of `dense`: the handle last stored into it, `None`
        /// while no server ever has.  A join's wipe leaves it set, which
        /// costs a scan a look at the block and nothing else.
        last: Vec<Option<Handle>>,
        arena: Arena<T>,
        sparse: BTreeMap<(ServerId, VariableId), T>,
    }

    impl<T: Record> Slab<T> {
        fn new(servers: usize) -> Self {
            Slab {
                servers,
                planned_blocks: 0,
                dense: Vec::new(),
                last: Vec::new(),
                arena: Arena::new(),
                sparse: BTreeMap::new(),
            }
        }

        #[inline]
        pub fn get(&self, server: ServerId, var: VariableId) -> Option<&T> {
            if var < DENSE_LIMIT {
                let slot = var as usize * self.servers + server.as_usize();
                self.resolve(*self.dense.get(slot)?)
            } else {
                self.sparse.get(&(server, var))
            }
        }

        /// The record a dense slot holding `slot` holds.
        #[inline]
        pub(super) fn resolve(&self, slot: Option<Handle>) -> Option<&T> {
            slot.map(|handle| self.arena.get(handle))
        }

        /// `var`'s var-major block — one slot per server — or `None` for
        /// an id of the sparse tier.  A block not allocated yet reads as
        /// empty: no server holds the key.
        #[inline]
        pub(super) fn block(&self, var: VariableId) -> Option<&[Option<Handle>]> {
            (var < DENSE_LIMIT).then(|| {
                let start = var as usize * self.servers;
                self.dense.get(start..start + self.servers).unwrap_or(&[])
            })
        }

        /// Timestamp of the record `server` holds for `var`,
        /// [`Timestamp::ZERO`] when unheld.
        #[inline]
        pub fn timestamp(&self, server: ServerId, var: VariableId) -> Timestamp {
            self.get(server, var)
                .map_or(Timestamp::ZERO, Record::timestamp)
        }

        /// The freshest-wins merge rule: `incoming` replaces the held record
        /// iff it is strictly fresher.  The comparison comes first, so the
        /// record is cloned only when it is actually stored.
        #[inline]
        pub fn merge(&mut self, server: ServerId, var: VariableId, incoming: &T) -> bool {
            let fresher = incoming.timestamp() > self.timestamp(server, var);
            if fresher {
                self.set(server, var, incoming);
            }
            fresher
        }

        /// Stores `incoming`, strictly fresher than what `server` holds for
        /// `var`.  A dense store shares the entry its block stored last when
        /// that holds the same record, overwrites the slot's entry in place
        /// when the slot is its only holder, and otherwise interns a new
        /// entry and lets go of the old one.
        fn set(&mut self, server: ServerId, var: VariableId, incoming: &T) {
            if var >= DENSE_LIMIT {
                self.sparse.insert((server, var), incoming.clone());
                return;
            }
            let var = var as usize;
            let blocks = self.last.len();
            if var >= blocks {
                if var >= self.last.capacity() && var < self.planned_blocks {
                    let more = self.planned_blocks - blocks;
                    self.dense.reserve_exact(more * self.servers);
                    self.last.reserve_exact(more);
                }
                self.dense.resize((var + 1) * self.servers, None);
                self.last.resize(var + 1, None);
            }
            let slot = var * self.servers + server.as_usize();
            let old = self.dense[slot];
            // `incoming` is strictly fresher than `old`'s record, so the
            // entry shared here is never `old`'s.
            let handle = match (self.last[var], old) {
                (Some(last), _) if self.arena.holds(last, incoming) => self.arena.share(last),
                (_, Some(old)) if self.arena.overwrite_sole(old, incoming) => old,
                _ => self.arena.intern(incoming.clone()),
            };
            if let Some(old) = old.filter(|&old| old != handle) {
                self.arena.release(old);
            }
            self.dense[slot] = Some(handle);
            self.last[var] = Some(handle);
        }

        /// `server`'s held variable ids and their records' timestamps,
        /// ascending by id: a strided scan of its dense column over the
        /// stored blocks, then its range of the sparse tier.
        pub fn held(&self, server: ServerId) -> impl Iterator<Item = (VariableId, Timestamp)> + '_ {
            let slot = move |var: usize| self.dense[var * self.servers + server.as_usize()];
            let sparse = self.sparse.range((server, 0)..=(server, VariableId::MAX));
            (self.last.iter().enumerate())
                .filter(|(_, last)| last.is_some())
                .filter_map(move |(var, _)| {
                    (self.resolve(slot(var))).map(|r| (var as VariableId, r.timestamp()))
                })
                .chain(sparse.map(|(&(_, var), r)| (var, r.timestamp())))
        }

        /// Drops every record `server` holds, releasing its whole column.
        fn wipe(&mut self, server: ServerId) {
            let column = (self.dense.iter_mut())
                .skip(server.as_usize())
                .step_by(self.servers);
            for handle in column.filter_map(Option::take) {
                self.arena.release(handle);
            }
            self.sparse.retain(|&(holder, _), _| holder != server);
        }
    }

    /// What [`Slab::audit`] counted.
    #[cfg(test)]
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Audit {
        /// Arena entries some slot holds.
        pub live: usize,
        /// Arena entries, live or free.
        pub entries: usize,
        /// Dense slots that hold a handle.
        pub occupied: usize,
    }

    #[cfg(test)]
    impl<T: Record> Slab<T> {
        /// Checks the arena's books and counts them: each live entry's
        /// count equals the number of slots that hold its handle, no slot
        /// holds a freed entry, and the free list chains every freed one.
        fn audit(&self) -> Audit {
            let mut holders = vec![0u32; self.arena.entries.len()];
            for handle in self.dense.iter().flatten() {
                holders[index(*handle)] += 1;
            }
            let mut free = 0;
            let mut next = self.arena.free;
            while let Some(handle) = next {
                let Entry::Free { next: link } = self.arena.entries[index(handle)] else {
                    panic!("the free list reaches the live entry {handle}");
                };
                free += 1;
                next = link;
            }
            let mut live = 0;
            for (i, (entry, &held)) in self.arena.entries.iter().zip(&holders).enumerate() {
                match entry {
                    Entry::Live { refs, .. } => {
                        assert_eq!(*refs, held, "entry {} counts {refs} holders", i + 1);
                        live += 1;
                    }
                    Entry::Free { .. } => {
                        assert_eq!(held, 0, "slots hold the freed entry {}", i + 1)
                    }
                }
            }
            assert_eq!(
                live + free,
                self.arena.entries.len(),
                "free entries off the free list"
            );
            Audit {
                live,
                entries: self.arena.entries.len(),
                occupied: holders.iter().map(|&h| h as usize).sum(),
            }
        }
    }

    /// A cluster's records: one [`Slab`] per record kind.
    #[derive(Debug, Clone)]
    pub struct Records {
        plain: Slab<TaggedValue>,
        signed: Slab<SignedValue>,
    }

    impl Records {
        /// Empty slabs for a cluster of `servers` servers; nothing is
        /// allocated until a kind's first store.
        pub fn new(servers: usize) -> Self {
            Records {
                plain: Slab::new(servers),
                signed: Slab::new(servers),
            }
        }

        /// Plans each slab's dense tier for `keys` variable ids, so
        /// steady-state stores never reallocate.  Allocates nothing: a
        /// kind's slab takes the planned capacity on its first store.
        pub fn reserve(&mut self, keys: u64) {
            let blocks = keys.min(DENSE_LIMIT) as usize;
            self.plain.planned_blocks = blocks;
            self.signed.planned_blocks = blocks;
        }

        /// Drops every record `server` holds, of either kind.
        pub fn wipe(&mut self, server: ServerId) {
            self.plain.wipe(server);
            self.signed.wipe(server);
        }

        /// [`Slab::audit`] of the `R` slab.
        #[cfg(test)]
        pub(crate) fn audit<R: Record>(&self) -> Audit {
            R::slab(self).audit()
        }
    }

    /// Which of a cluster's two slabs holds records of this kind.
    pub trait Stored: Sized {
        fn slab(records: &Records) -> &Slab<Self>;
        fn slab_mut(records: &mut Records) -> &mut Slab<Self>;
    }

    impl Stored for TaggedValue {
        #[inline]
        fn slab(records: &Records) -> &Slab<Self> {
            &records.plain
        }
        #[inline]
        fn slab_mut(records: &mut Records) -> &mut Slab<Self> {
            &mut records.plain
        }
    }

    impl Stored for SignedValue {
        #[inline]
        fn slab(records: &Records) -> &Slab<Self> {
            &records.signed
        }
        #[inline]
        fn slab_mut(records: &mut Records) -> &mut Slab<Self> {
            &mut records.signed
        }
    }
}

pub(crate) use store::Records;

/// A read view of one replica server: its behaviour and its column of the
/// cluster's record slabs, from [`Cluster::server`](crate::cluster::Cluster::server).
///
/// The view is `Copy`, and what it lends out borrows the cluster, not the
/// view, so `cluster.server(id).record(var)` outlives the temporary view.
#[derive(Clone, Copy)]
pub struct ReplicaServer<'a> {
    id: ServerId,
    behavior: Behavior,
    records: &'a Records,
}

impl<'a> ReplicaServer<'a> {
    pub(crate) fn new(id: ServerId, behavior: Behavior, records: &'a Records) -> Self {
        ReplicaServer {
            id,
            behavior,
            records,
        }
    }

    /// The server's id.
    pub fn id(self) -> ServerId {
        self.id
    }

    /// The server's current behaviour.
    pub fn behavior(self) -> Behavior {
        self.behavior
    }

    /// The record of kind `R` held for `var` by reference, `None` when
    /// unheld — the copy-free form of [`stored`](Self::stored).
    #[inline]
    pub fn record<R: Record>(self, var: VariableId) -> Option<&'a R> {
        R::slab(self.records).get(self.id, var)
    }

    /// The record the server *actually* stores for `var`, regardless of
    /// behaviour — useful for assertions and diffusion.
    #[inline]
    pub fn stored<R: Record>(self, var: VariableId) -> R {
        self.record(var).cloned().unwrap_or_else(R::initial)
    }

    /// Timestamp of the stored record of kind `R` for `var`
    /// ([`Timestamp::ZERO`] when unheld) — a clone-free accessor for the
    /// gossip planners' per-key version summaries.
    #[inline]
    pub fn stored_timestamp<R: Record>(self, var: VariableId) -> Timestamp {
        R::slab(self.records).timestamp(self.id, var)
    }

    /// Handles a read request. Returns `None` if the server does not answer
    /// (crashed).
    pub fn handle_read<R: Record>(self, var: VariableId) -> Option<R> {
        match self.behavior {
            Behavior::Crashed => None,
            Behavior::Correct | Behavior::ByzantineStale => Some(self.stored(var)),
            Behavior::ByzantineForge => Some(R::forged().unwrap_or_else(|| self.stored(var))),
        }
    }

    /// All variables for which this server holds a record of kind `R`, in
    /// **ascending id order** — a strided scan of its dense column, which
    /// the gossip planners rely on to skip re-sorting per sender.
    pub fn variables<R: Record>(self) -> impl Iterator<Item = VariableId> + 'a {
        self.held::<R>().map(|(var, _)| var)
    }

    /// [`variables`](Self::variables) with each held record's timestamp —
    /// one scan of the column for the gossip planners, which need both.
    pub fn held<R: Record>(self) -> impl Iterator<Item = (VariableId, Timestamp)> + 'a {
        R::slab(self.records).held(self.id)
    }
}

/// Prints the server, not the whole cluster's slabs the view borrows.
impl Debug for ReplicaServer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("id", &self.id)
            .field("behavior", &self.behavior)
            .finish_non_exhaustive()
    }
}

/// Every server's record of kind `R` for one variable, from
/// [`Cluster::key_records`](crate::cluster::Cluster::key_records).  For a
/// dense id it is the slab's var-major block of handles itself, so a
/// reader of many servers' records of one key — a gossip planner comparing
/// a round's receivers — finds the key once instead of once per server and
/// resolves one handle per server.
pub struct KeyRecords<'a, R> {
    var: VariableId,
    slab: &'a store::Slab<R>,
    /// The key's block, `None` for an id of the sparse tier.
    block: Option<&'a [Option<store::Handle>]>,
}

impl<'a, R: Record> KeyRecords<'a, R> {
    pub(crate) fn new(var: VariableId, records: &'a Records) -> Self {
        let slab = R::slab(records);
        KeyRecords {
            var,
            slab,
            block: slab.block(var),
        }
    }

    /// The record server `id` holds for the key, `None` when unheld.
    #[inline]
    pub fn get(&self, id: ServerId) -> Option<&'a R> {
        match self.block {
            Some(block) => self.slab.resolve(*block.get(id.as_usize())?),
            None => self.slab.get(id, self.var),
        }
    }
}

/// Prints the key, not the slab the view borrows.
impl<R> Debug for KeyRecords<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyRecords")
            .field("var", &self.var)
            .finish_non_exhaustive()
    }
}

/// A write view of one replica server, from
/// [`Cluster::server_mut`](crate::cluster::Cluster::server_mut): the store
/// rules over its column of the cluster's record slabs.
pub struct ReplicaServerMut<'a> {
    id: ServerId,
    behavior: Behavior,
    records: &'a mut Records,
}

impl Debug for ReplicaServerMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServerMut")
            .field("id", &self.id)
            .field("behavior", &self.behavior)
            .finish_non_exhaustive()
    }
}

impl<'a> ReplicaServerMut<'a> {
    pub(crate) fn new(id: ServerId, behavior: Behavior, records: &'a mut Records) -> Self {
        ReplicaServerMut {
            id,
            behavior,
            records,
        }
    }

    /// Handles a write request. Returns `true` if the write was
    /// acknowledged (Byzantine servers acknowledge without necessarily
    /// storing anything).  The record is copied only if it is stored.
    pub fn handle_write<R: Record>(&mut self, var: VariableId, incoming: &R) -> bool {
        match self.behavior {
            Behavior::Crashed => false,
            Behavior::Correct => {
                self.merge(var, incoming);
                true
            }
            // Byzantine servers acknowledge but drop the update.
            Behavior::ByzantineForge | Behavior::ByzantineStale => true,
        }
    }

    /// Stores `incoming` if it is fresher than the current record — the
    /// write rule and the merge rule of the diffusion mechanism alike.
    /// Returns `true` if it replaced the stored one (it was strictly
    /// fresher), which the gossip layer uses to count effective pushes.
    /// Timestamps are compared first and the record is cloned only when it
    /// is stored, so a delivery that stores nothing copies nothing.
    #[inline]
    pub fn merge<R: Record>(&mut self, var: VariableId, incoming: &R) -> bool {
        R::slab_mut(self.records).merge(self.id, var, incoming)
    }

    /// [`merge`](Self::merge) of a plain record by value — the name and
    /// signature the repo benchmark compiles against.
    pub fn store_plain_if_fresher(&mut self, var: VariableId, incoming: TaggedValue) -> bool {
        self.merge(var, &incoming)
    }

    /// [`merge`](Self::merge) of a signed record by value — the name and
    /// signature the repo benchmark compiles against.
    pub fn store_signed_if_fresher(&mut self, var: VariableId, incoming: SignedValue) -> bool {
        self.merge(var, &incoming)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::crypto::{KeyRegistry, SigningKey};
    use pqs_core::universe::Universe;
    use std::collections::BTreeMap;

    pub(crate) use super::store::DENSE_LIMIT;

    /// A record of either kind carrying value `v` under counter `c` of
    /// writer 1 — signed, where the kind is, by one fixed key.
    pub(crate) trait Make: Record {
        fn make(v: u64, c: u64) -> Self;
    }

    impl Make for TaggedValue {
        fn make(v: u64, c: u64) -> Self {
            TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1))
        }
    }

    impl Make for SignedValue {
        fn make(v: u64, c: u64) -> Self {
            let key = SigningKey::derive(1, 7);
            SignedValue::create(&key, Value::from_u64(v), Timestamp::new(c, 1))
        }
    }

    fn tv(v: u64, c: u64) -> TaggedValue {
        TaggedValue::make(v, c)
    }

    /// The slab the interned one replaced, one `Option<T>` per dense slot
    /// and a stored flag per var block: the reference the cluster's slabs
    /// are diffed against.
    #[derive(Debug)]
    pub(crate) struct ReferenceSlab<T> {
        servers: usize,
        dense: Vec<Option<T>>,
        stored_blocks: Vec<bool>,
        sparse: BTreeMap<(ServerId, VariableId), T>,
    }

    impl<T: Record> ReferenceSlab<T> {
        pub(crate) fn new(servers: usize) -> Self {
            ReferenceSlab {
                servers,
                dense: Vec::new(),
                stored_blocks: Vec::new(),
                sparse: BTreeMap::new(),
            }
        }

        pub(crate) fn get(&self, server: ServerId, var: VariableId) -> Option<&T> {
            if var < DENSE_LIMIT {
                let slot = var as usize * self.servers + server.as_usize();
                self.dense.get(slot).and_then(Option::as_ref)
            } else {
                self.sparse.get(&(server, var))
            }
        }

        pub(crate) fn merge(&mut self, server: ServerId, var: VariableId, incoming: &T) -> bool {
            let held = self.get(server, var).map_or(Timestamp::ZERO, T::timestamp);
            let fresher = incoming.timestamp() > held;
            if fresher {
                self.set(server, var, incoming.clone());
            }
            fresher
        }

        fn set(&mut self, server: ServerId, var: VariableId, value: T) {
            if var >= DENSE_LIMIT {
                self.sparse.insert((server, var), value);
                return;
            }
            let var = var as usize;
            if var >= self.stored_blocks.len() {
                self.dense.resize_with((var + 1) * self.servers, || None);
                self.stored_blocks.resize(var + 1, false);
            }
            self.stored_blocks[var] = true;
            self.dense[var * self.servers + server.as_usize()] = Some(value);
        }

        pub(crate) fn held(
            &self,
            server: ServerId,
        ) -> impl Iterator<Item = (VariableId, Timestamp)> + '_ {
            let slot = move |var: usize| &self.dense[var * self.servers + server.as_usize()];
            let sparse = self.sparse.range((server, 0)..=(server, VariableId::MAX));
            (self.stored_blocks.iter().enumerate())
                .filter(|&(_, &stored)| stored)
                .filter_map(move |(var, _)| {
                    (slot(var).as_ref()).map(|r| (var as VariableId, r.timestamp()))
                })
                .chain(sparse.map(|(&(_, var), r)| (var, r.timestamp())))
        }

        pub(crate) fn wipe(&mut self, server: ServerId) {
            self.dense
                .iter_mut()
                .skip(server.as_usize())
                .step_by(self.servers)
                .for_each(|slot| *slot = None);
            self.sparse.retain(|&(holder, _), _| holder != server);
        }
    }

    /// What a server that held `old` when it turned to a behaviour, and was
    /// then sent `new`, answers a read with.
    #[derive(Debug, Clone, Copy)]
    enum Reply {
        Silent,
        New,
        Old,
        /// The kind's fabrication — or `old` replayed, for a kind that has
        /// none.
        Forged,
    }

    /// Behaviour × (acknowledges a write, stores it, answers a read with):
    /// the whole of `handle_write` / `handle_read`, for every record kind.
    const TABLE: [(Behavior, bool, bool, Reply); 4] = [
        (Behavior::Correct, true, true, Reply::New),
        (Behavior::Crashed, false, false, Reply::Silent),
        (Behavior::ByzantineForge, true, false, Reply::Forged),
        (Behavior::ByzantineStale, true, false, Reply::Old),
    ];

    /// Drives one row of [`TABLE`] on records of kind `R`, at the one
    /// server of a one-server cluster.
    fn check_row<R: Make>(behavior: Behavior) {
        let &(_, acks, stores, reply) = TABLE
            .iter()
            .find(|row| row.0 == behavior)
            .expect("every behaviour has a row");
        let (old, new, newest) = (R::make(1, 1), R::make(2, 2), R::make(3, 3));
        let mut c = Cluster::new(Universe::new(1));
        let s = ServerId::new(0);
        assert_eq!(c.server(s).handle_read::<R>(0), Some(R::initial()));
        assert!(c.server_mut(s).handle_write(0, &old));
        c.set_behavior(s, behavior);
        assert_eq!(
            c.server_mut(s).handle_write(0, &new),
            acks,
            "{behavior:?} ack"
        );
        let held = if stores { &new } else { &old };
        assert_eq!(c.server(s).record::<R>(0), Some(held), "{behavior:?} store");
        assert_eq!(c.server(s).stored_timestamp::<R>(0), held.timestamp());
        let expected = match reply {
            Reply::Silent => None,
            Reply::New => Some(new.clone()),
            Reply::Old => Some(old.clone()),
            Reply::Forged => Some(R::forged().unwrap_or_else(|| old.clone())),
        };
        assert_eq!(
            c.server(s).handle_read::<R>(0),
            expected,
            "{behavior:?} reply"
        );
        // Stale writes are ignored whatever the behaviour, and `merge` is
        // the bare store rule: it asks no behaviour.
        c.server_mut(s).handle_write(0, &old);
        assert_eq!(c.server(s).record::<R>(0), Some(held));
        assert!(!c.server_mut(s).merge(0, held));
        assert!(c.server_mut(s).merge(0, &newest));
        assert_eq!(c.server(s).stored::<R>(0), newest);
        // The other kind's slab and other variables are untouched.
        assert_eq!(c.server(s).variables::<R>().count(), 1);
        assert_eq!(c.server(s).stored::<R>(7), R::initial());
    }

    fn check_both_kinds(behavior: Behavior) {
        check_row::<TaggedValue>(behavior);
        check_row::<SignedValue>(behavior);
    }

    #[test]
    fn correct_server_stores_and_serves() {
        check_both_kinds(Behavior::Correct);
        let mut c = Cluster::new(Universe::new(4));
        let id = ServerId::new(3);
        assert_eq!(c.server(id).id(), id);
        assert_eq!(c.server(id).behavior(), Behavior::Correct);
        // Independent variables and kinds do not interfere.
        let mut w = c.server_mut(id);
        assert!(w.handle_write(0, &tv(9, 2)));
        assert!(w.handle_write(7, &tv(1, 1)));
        assert!(w.handle_write(7, &SignedValue::make(4, 4)));
        let s = c.server(id);
        assert_eq!(s.handle_read(0), Some(tv(9, 2)));
        assert_eq!(s.handle_read(7), Some(tv(1, 1)));
        assert_eq!(s.variables::<TaggedValue>().count(), 2);
        assert!(s.variables::<SignedValue>().eq([7]));
        // Neither do servers: the neighbouring slots of the same var
        // blocks stay empty.
        let other = c.server(ServerId::new(2));
        assert_eq!(other.handle_read(0), Some(TaggedValue::initial()));
        assert_eq!(other.variables::<TaggedValue>().count(), 0);
    }

    #[test]
    fn crashed_server_is_silent() {
        check_both_kinds(Behavior::Crashed);
    }

    #[test]
    fn forging_server_returns_colluding_fabrication() {
        check_both_kinds(Behavior::ByzantineForge);
        // Collusion: every forger answers with the identical fabricated
        // value and timestamp, whatever it stores.
        let forged = TaggedValue::forged().expect("plain data can be fabricated");
        assert_eq!(forged.value, forged_value());
        assert!(forged.timestamp > Timestamp::new(1_000_000, 0));
        // Against self-verifying data the forger can only keep serving what
        // it has: it cannot fabricate a verifying record.
        let mut registry = KeyRegistry::new();
        registry.register(1, 7);
        let mut c = Cluster::new(Universe::new(1));
        let s = ServerId::new(0);
        c.server_mut(s).merge(0, &SignedValue::make(10, 1));
        c.set_behavior(s, Behavior::ByzantineForge);
        let served: SignedValue = c.server(s).handle_read(0).unwrap();
        assert!(registry.verifies(&served));
        assert_eq!(served, SignedValue::make(10, 1));
    }

    #[test]
    fn stale_server_suppresses_updates() {
        check_both_kinds(Behavior::ByzantineStale);
    }

    #[test]
    fn default_behavior_is_correct() {
        assert_eq!(Behavior::default(), Behavior::Correct);
    }

    #[test]
    fn held_variables_iterate_in_ascending_id_order() {
        // The gossip planners skip per-sender sorts on the strength of
        // this: a server's dense column yields ids ascending no matter the
        // insertion order, and unheld ids in between never appear.
        let mut c = Cluster::new(Universe::new(3));
        c.reserve_variables(16);
        let id = ServerId::new(1);
        for var in [9u64, 2, 11, 0, 5] {
            assert!(c.server_mut(id).store_plain_if_fresher(var, tv(var, 1)));
        }
        // Neighbours in the same var blocks stay out of this column.
        c.server_mut(ServerId::new(0))
            .store_plain_if_fresher(3, tv(3, 1));
        c.server_mut(ServerId::new(2))
            .store_plain_if_fresher(14, tv(14, 1));
        let held = |c: &Cluster| c.server(id).variables::<TaggedValue>().collect::<Vec<_>>();
        assert_eq!(held(&c), [0u64, 2, 5, 9, 11]);
        // A stale store (timestamp ZERO never beats an empty slot) does
        // not occupy a slot.
        assert!(!c
            .server_mut(id)
            .store_plain_if_fresher(13, TaggedValue::initial()));
        assert_eq!(held(&c), [0u64, 2, 5, 9, 11]);
        assert_eq!(
            c.server(id).stored_timestamp::<TaggedValue>(13),
            Timestamp::ZERO
        );
        // Hashed ids (the apps namespace entities into the full u64
        // space) land in the sparse tier, still iterated in order, and
        // another server's sparse ids stay out of this column too.
        let huge = u64::MAX / 3;
        assert!(c.server_mut(id).store_plain_if_fresher(huge, tv(1, 4)));
        c.server_mut(ServerId::new(2))
            .store_plain_if_fresher(huge - 1, tv(1, 4));
        assert_eq!(c.server(id).stored::<TaggedValue>(huge), tv(1, 4));
        assert_eq!(held(&c), [0u64, 2, 5, 9, 11, huge]);
    }

    #[test]
    fn store_if_fresher_reports_whether_it_stored() {
        let mut c = Cluster::new(Universe::new(1));
        let id = ServerId::new(0);
        let mut s = c.server_mut(id);
        assert!(s.store_plain_if_fresher(0, tv(1, 1)));
        // Same timestamp or older: kept, not replaced.
        assert!(!s.store_plain_if_fresher(0, tv(9, 1)));
        assert!(!s.store_plain_if_fresher(0, tv(9, 0)));
        assert!(s.store_plain_if_fresher(0, tv(2, 2)));
        let (v1, v2) = (SignedValue::make(1, 1), SignedValue::make(2, 2));
        assert!(s.store_signed_if_fresher(3, v1.clone()));
        assert!(!s.store_signed_if_fresher(3, v1));
        assert!(s.store_signed_if_fresher(3, v2.clone()));
        // The by-value forwarders and `merge` are one rule.
        assert!(!s.merge(0, &tv(9, 2)));
        assert!(s.merge(0, &tv(3, 3)));
        assert!(!s.merge(3, &v2));
        let s = c.server(id);
        assert!(s.variables::<SignedValue>().eq(std::iter::once(3)));
        assert_eq!(s.record(0), Some(&tv(3, 3)));
        assert_eq!(s.record::<TaggedValue>(1), None);
        assert_eq!(s.record(3), Some(&v2));
    }
}
