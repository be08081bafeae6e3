//! A single replica server: per-variable storage plus a failure behaviour.
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

impl Behavior {
    /// Returns `true` for the two Byzantine variants.
    pub fn is_byzantine(self) -> bool {
        matches!(self, Behavior::ByzantineForge | Behavior::ByzantineStale)
    }
}

/// The value colluding [`Behavior::ByzantineForge`] servers fabricate.
pub fn forged_value() -> Value {
    Value::from_str_value("FORGED")
}

/// The inflated timestamp attached to the fabricated value: far ahead of any
/// honest write in a test run, attributed to a bogus writer id.
pub fn forged_timestamp() -> Timestamp {
    Timestamp::new(u64::MAX / 2, u32::MAX)
}

/// A stored record: the plain ⟨v, t⟩ pair of the safe and masking protocols
/// ([`TaggedValue`]) or the self-verifying pair of the dissemination
/// protocol ([`SignedValue`]).  Servers, the cluster, gossip and the
/// register clients are written once against this trait; what a forging
/// server can answer with is the only place the two kinds behave
/// differently.  Sealed: the store selector is private to this module.
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

/// The per-kind record stores and the selector that seals [`Record`].
mod store {
    use super::{Record, ReplicaServer, VariableId};
    use crate::crypto::SignedValue;
    use crate::timestamp::Timestamp;
    use crate::value::TaggedValue;
    use std::collections::BTreeMap;

    /// Variable ids below this bound live in the dense slot tier of a
    /// [`RecordStore`]; ids at or above it (the apps hash entity names into
    /// the full `u64` space) spill into the ordered sparse tier.  2^16 slots
    /// comfortably covers every simulator key space while capping the dense
    /// tier's worst-case footprint per server.
    const DENSE_LIMIT: VariableId = 1 << 16;

    /// Per-variable record storage: a dense slot vector for the workload
    /// layer's ids (`0..keys`, so a direct index replaces the hash-and-probe
    /// a map would pay on every probe and gossip delivery) plus an ordered
    /// sparse overflow for hashed ids beyond [`DENSE_LIMIT`].
    ///
    /// A slot is occupied exactly when it holds a record fresher than
    /// [`Timestamp::ZERO`] (the only insertion path is [`merge`](Self::merge)).
    /// Iteration is **ascending by id** by construction — dense slots scan
    /// in index order, the sparse tier is a `BTreeMap` whose keys all exceed
    /// the dense tier's — which is what lets the gossip planners drop their
    /// per-sender sorts.
    #[derive(Debug, Clone)]
    pub struct RecordStore<T> {
        dense: Vec<Option<T>>,
        sparse: BTreeMap<VariableId, T>,
    }

    impl<T> Default for RecordStore<T> {
        fn default() -> Self {
            RecordStore {
                dense: Vec::new(),
                sparse: BTreeMap::new(),
            }
        }
    }

    impl<T: Record> RecordStore<T> {
        #[inline]
        pub fn get(&self, var: VariableId) -> Option<&T> {
            if var < DENSE_LIMIT {
                self.dense.get(var as usize).and_then(Option::as_ref)
            } else {
                self.sparse.get(&var)
            }
        }

        fn set(&mut self, var: VariableId, value: T) {
            if var < DENSE_LIMIT {
                let idx = var as usize;
                if idx >= self.dense.len() {
                    self.dense.resize_with(idx + 1, || None);
                }
                self.dense[idx] = Some(value);
            } else {
                self.sparse.insert(var, value);
            }
        }

        /// Capacity hint for a key space of `keys` dense ids.
        pub fn reserve(&mut self, keys: u64) {
            let cap = keys.min(DENSE_LIMIT) as usize;
            self.dense.reserve(cap.saturating_sub(self.dense.len()));
        }

        /// Timestamp of the record held for `var`, [`Timestamp::ZERO`] when
        /// unheld.
        #[inline]
        pub fn timestamp(&self, var: VariableId) -> Timestamp {
            self.get(var).map_or(Timestamp::ZERO, Record::timestamp)
        }

        /// The freshest-wins merge rule: `incoming` replaces the held record
        /// iff it is strictly fresher.  The comparison comes first, so the
        /// record is cloned only when it is actually stored.
        #[inline]
        pub fn merge(&mut self, var: VariableId, incoming: &T) -> bool {
            let fresher = incoming.timestamp() > self.timestamp(var);
            if fresher {
                self.set(var, incoming.clone());
            }
            fresher
        }

        /// Held variable ids, ascending.
        pub fn variables(&self) -> impl Iterator<Item = VariableId> + '_ {
            self.dense
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_some())
                .map(|(idx, _)| idx as VariableId)
                .chain(self.sparse.keys().copied())
        }
    }

    /// Which of a server's two stores holds records of this kind.
    pub trait Stored: Sized {
        fn store(server: &ReplicaServer) -> &RecordStore<Self>;
        fn store_mut(server: &mut ReplicaServer) -> &mut RecordStore<Self>;
    }

    impl Stored for TaggedValue {
        #[inline]
        fn store(server: &ReplicaServer) -> &RecordStore<Self> {
            &server.plain
        }
        #[inline]
        fn store_mut(server: &mut ReplicaServer) -> &mut RecordStore<Self> {
            &mut server.plain
        }
    }

    impl Stored for SignedValue {
        #[inline]
        fn store(server: &ReplicaServer) -> &RecordStore<Self> {
            &server.signed
        }
        #[inline]
        fn store_mut(server: &mut ReplicaServer) -> &mut RecordStore<Self> {
            &mut server.signed
        }
    }
}

/// A replica server.
///
/// Per-variable records live in a two-tier record store per record kind:
/// dense `Vec` slots indexed directly by [`VariableId`] (with a sparse
/// overflow tier for hashed ids), lazily grown to the highest id actually
/// stored — see [`reserve_variables`](Self::reserve_variables) for
/// pre-sizing.  Every record operation is generic over the [`Record`] kind.
#[derive(Debug, Clone)]
pub struct ReplicaServer {
    id: ServerId,
    behavior: Behavior,
    plain: store::RecordStore<TaggedValue>,
    signed: store::RecordStore<SignedValue>,
}

impl ReplicaServer {
    /// Creates a correct server with the given id and empty storage.
    pub fn new(id: ServerId) -> Self {
        ReplicaServer {
            id,
            behavior: Behavior::Correct,
            plain: Default::default(),
            signed: Default::default(),
        }
    }

    /// Pre-allocates both record stores for a key space of `keys` dense
    /// variable ids, so steady-state stores never reallocate.  Purely a
    /// capacity hint: occupancy (and hence iteration) is unchanged.
    pub fn reserve_variables(&mut self, keys: u64) {
        self.plain.reserve(keys);
        self.signed.reserve(keys);
    }

    /// Wipes both record stores and re-reserves capacity for `keys` dense
    /// variable ids: the state of a server (re)joining the cluster, which
    /// must bootstrap everything it once held back through gossip rather
    /// than resurrect pre-departure records.
    pub fn reset_stores(&mut self, keys: u64) {
        self.plain = Default::default();
        self.signed = Default::default();
        self.reserve_variables(keys);
    }

    /// The server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The server's current behaviour.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Changes the server's behaviour (crash it, corrupt it, or repair it).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// The record of kind `R` held for `var` by reference, `None` when
    /// unheld — the copy-free form of [`stored`](Self::stored).
    #[inline]
    pub fn record<R: Record>(&self, var: VariableId) -> Option<&R> {
        R::store(self).get(var)
    }

    /// The record the server *actually* stores for `var`, regardless of
    /// behaviour — useful for assertions and diffusion.
    #[inline]
    pub fn stored<R: Record>(&self, var: VariableId) -> R {
        self.record(var).cloned().unwrap_or_else(R::initial)
    }

    /// Timestamp of the stored record of kind `R` for `var`
    /// ([`Timestamp::ZERO`] when unheld) — a clone-free accessor for the
    /// gossip planners' per-key version summaries.
    #[inline]
    pub fn stored_timestamp<R: Record>(&self, var: VariableId) -> Timestamp {
        R::store(self).timestamp(var)
    }

    /// Handles a read request. Returns `None` if the server does not answer
    /// (crashed).
    pub fn handle_read<R: Record>(&self, var: VariableId) -> Option<R> {
        match self.behavior {
            Behavior::Crashed => None,
            Behavior::Correct | Behavior::ByzantineStale => Some(self.stored(var)),
            Behavior::ByzantineForge => Some(R::forged().unwrap_or_else(|| self.stored(var))),
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
        R::store_mut(self).merge(var, incoming)
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

    /// All variables for which this server holds a record of kind `R`, in
    /// **ascending id order** — a linear scan over the dense slots, which
    /// the gossip planners rely on to skip re-sorting per sender.
    pub fn variables<R: Record>(&self) -> impl Iterator<Item = VariableId> + '_ {
        R::store(self).variables()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::crypto::{KeyRegistry, SigningKey};

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

    /// Drives one row of [`TABLE`] on records of kind `R`.
    fn check_row<R: Make>(behavior: Behavior) {
        let &(_, acks, stores, reply) = TABLE
            .iter()
            .find(|row| row.0 == behavior)
            .expect("every behaviour has a row");
        let (old, new, newest) = (R::make(1, 1), R::make(2, 2), R::make(3, 3));
        let mut s = ReplicaServer::new(ServerId::new(4));
        assert_eq!(s.handle_read::<R>(0), Some(R::initial()));
        assert!(s.handle_write(0, &old));
        s.set_behavior(behavior);
        assert_eq!(s.handle_write(0, &new), acks, "{behavior:?} ack");
        let held = if stores { &new } else { &old };
        assert_eq!(s.record::<R>(0), Some(held), "{behavior:?} store");
        assert_eq!(s.stored_timestamp::<R>(0), held.timestamp());
        let expected = match reply {
            Reply::Silent => None,
            Reply::New => Some(new.clone()),
            Reply::Old => Some(old.clone()),
            Reply::Forged => Some(R::forged().unwrap_or_else(|| old.clone())),
        };
        assert_eq!(s.handle_read::<R>(0), expected, "{behavior:?} reply");
        // Stale writes are ignored whatever the behaviour, and `merge` is
        // the bare store rule: it asks no behaviour.
        s.handle_write(0, &old);
        assert_eq!(s.record::<R>(0), Some(held));
        assert!(!s.merge(0, held));
        assert!(s.merge(0, &newest));
        assert_eq!(s.stored::<R>(0), newest);
        // The other kind's store and other variables are untouched.
        assert_eq!(s.variables::<R>().count(), 1);
        assert_eq!(s.stored::<R>(7), R::initial());
    }

    fn check_both_kinds(behavior: Behavior) {
        check_row::<TaggedValue>(behavior);
        check_row::<SignedValue>(behavior);
    }

    #[test]
    fn correct_server_stores_and_serves() {
        check_both_kinds(Behavior::Correct);
        let mut s = ReplicaServer::new(ServerId::new(3));
        assert_eq!(s.id(), ServerId::new(3));
        assert_eq!(s.behavior(), Behavior::Correct);
        // Independent variables and kinds do not interfere.
        assert!(s.handle_write(0, &tv(9, 2)));
        assert!(s.handle_write(7, &tv(1, 1)));
        assert!(s.handle_write(7, &SignedValue::make(4, 4)));
        assert_eq!(s.handle_read(0), Some(tv(9, 2)));
        assert_eq!(s.handle_read(7), Some(tv(1, 1)));
        assert_eq!(s.variables::<TaggedValue>().count(), 2);
        assert!(s.variables::<SignedValue>().eq([7]));
    }

    #[test]
    fn crashed_server_is_silent() {
        check_both_kinds(Behavior::Crashed);
        assert!(!Behavior::Crashed.is_byzantine());
    }

    #[test]
    fn forging_server_returns_colluding_fabrication() {
        check_both_kinds(Behavior::ByzantineForge);
        assert!(Behavior::ByzantineForge.is_byzantine());
        // Collusion: every forger answers with the identical fabricated
        // value and timestamp, whatever it stores.
        let forged = TaggedValue::forged().expect("plain data can be fabricated");
        assert_eq!(forged.value, forged_value());
        assert!(forged.timestamp > Timestamp::new(1_000_000, 0));
        // Against self-verifying data the forger can only keep serving what
        // it has: it cannot fabricate a verifying record.
        let mut registry = KeyRegistry::new();
        registry.register(1, 7);
        let mut s = ReplicaServer::new(ServerId::new(1));
        s.merge(0, &SignedValue::make(10, 1));
        s.set_behavior(Behavior::ByzantineForge);
        let served: SignedValue = s.handle_read(0).unwrap();
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
        // this: dense slots yield ids ascending no matter the insertion
        // order, and unheld ids in between never appear.
        let mut s = ReplicaServer::new(ServerId::new(0));
        s.reserve_variables(16);
        for var in [9u64, 2, 11, 0, 5] {
            assert!(s.store_plain_if_fresher(var, tv(var, 1)));
        }
        assert!(s.variables::<TaggedValue>().eq([0u64, 2, 5, 9, 11]));
        // A stale store (timestamp ZERO never beats an empty slot) does
        // not occupy a slot.
        assert!(!s.store_plain_if_fresher(13, TaggedValue::initial()));
        assert!(s.variables::<TaggedValue>().eq([0u64, 2, 5, 9, 11]));
        assert_eq!(s.stored_timestamp::<TaggedValue>(13), Timestamp::ZERO);
        // Hashed ids (the apps namespace entities into the full u64
        // space) land in the sparse tier, still iterated in order.
        let huge = u64::MAX / 3;
        assert!(s.store_plain_if_fresher(huge, tv(1, 4)));
        assert_eq!(s.stored::<TaggedValue>(huge), tv(1, 4));
        assert!(s.variables::<TaggedValue>().eq([0u64, 2, 5, 9, 11, huge]));
    }

    #[test]
    fn store_if_fresher_reports_whether_it_stored() {
        let mut s = ReplicaServer::new(ServerId::new(0));
        assert!(s.store_plain_if_fresher(0, tv(1, 1)));
        // Same timestamp or older: kept, not replaced.
        assert!(!s.store_plain_if_fresher(0, tv(9, 1)));
        assert!(!s.store_plain_if_fresher(0, tv(9, 0)));
        assert!(s.store_plain_if_fresher(0, tv(2, 2)));
        let (v1, v2) = (SignedValue::make(1, 1), SignedValue::make(2, 2));
        assert!(s.store_signed_if_fresher(3, v1.clone()));
        assert!(!s.store_signed_if_fresher(3, v1));
        assert!(s.store_signed_if_fresher(3, v2.clone()));
        assert!(s.variables::<SignedValue>().eq(std::iter::once(3)));
        // The by-value forwarders and `merge` are one rule.
        assert!(!s.merge(0, &tv(9, 2)));
        assert!(s.merge(0, &tv(3, 3)));
        assert_eq!(s.record(0), Some(&tv(3, 3)));
        assert_eq!(s.record::<TaggedValue>(1), None);
        assert!(!s.merge(3, &v2));
        assert_eq!(s.record(3), Some(&v2));
    }
}
