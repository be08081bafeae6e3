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
use std::collections::BTreeMap;

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
/// [`Timestamp::ZERO`] (the only insertion paths are the server's
/// `store_*_if_fresher` merge rules).  Iteration is **ascending by id**
/// by construction — dense slots scan in index order, the sparse tier is
/// a `BTreeMap` whose keys all exceed the dense tier's — which is what
/// lets the gossip planners drop their per-sender sorts.
/// A stored record that knows the timestamp it was written under — what
/// the freshest-wins merge rule compares.
pub(crate) trait Stamped {
    fn stamp(&self) -> Timestamp;
}

impl Stamped for TaggedValue {
    fn stamp(&self) -> Timestamp {
        self.timestamp
    }
}

impl Stamped for SignedValue {
    fn stamp(&self) -> Timestamp {
        self.tagged.timestamp
    }
}

#[derive(Debug, Clone, Default)]
struct RecordStore<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<VariableId, T>,
}

impl<T> RecordStore<T> {
    fn new() -> Self {
        RecordStore {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }

    #[inline]
    fn get(&self, var: VariableId) -> Option<&T> {
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
    fn reserve(&mut self, keys: u64) {
        let cap = keys.min(DENSE_LIMIT) as usize;
        self.dense.reserve(cap.saturating_sub(self.dense.len()));
    }

    /// Timestamp of the record held for `var`, [`Timestamp::ZERO`] when
    /// unheld.
    #[inline]
    fn timestamp(&self, var: VariableId) -> Timestamp
    where
        T: Stamped,
    {
        self.get(var).map_or(Timestamp::ZERO, Stamped::stamp)
    }

    /// The freshest-wins merge rule: `incoming` replaces the held record
    /// iff it is strictly fresher.
    #[inline]
    fn store_if_fresher(&mut self, var: VariableId, incoming: T) -> bool
    where
        T: Stamped,
    {
        let fresher = incoming.stamp() > self.timestamp(var);
        if fresher {
            self.set(var, incoming);
        }
        fresher
    }

    /// [`store_if_fresher`](Self::store_if_fresher) for a borrowed record:
    /// the comparison comes first, so the record is cloned only when it is
    /// actually stored.
    #[inline]
    fn merge(&mut self, var: VariableId, incoming: &T) -> bool
    where
        T: Stamped + Clone,
    {
        let fresher = incoming.stamp() > self.timestamp(var);
        if fresher {
            self.set(var, incoming.clone());
        }
        fresher
    }

    /// Held variable ids, ascending.
    fn variables(&self) -> impl Iterator<Item = VariableId> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(idx, _)| idx as VariableId)
            .chain(self.sparse.keys().copied())
    }
}

/// A replica server.
///
/// Per-variable records live in a two-tier record store: dense `Vec`
/// slots indexed directly by [`VariableId`] (with a sparse overflow tier
/// for hashed ids), lazily grown to the highest id actually stored — see
/// [`reserve_variables`](Self::reserve_variables) for pre-sizing.
#[derive(Debug, Clone)]
pub struct ReplicaServer {
    id: ServerId,
    behavior: Behavior,
    plain: RecordStore<TaggedValue>,
    signed: RecordStore<SignedValue>,
}

impl ReplicaServer {
    /// Creates a correct server with the given id and empty storage.
    pub fn new(id: ServerId) -> Self {
        ReplicaServer {
            id,
            behavior: Behavior::Correct,
            plain: RecordStore::new(),
            signed: RecordStore::new(),
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
        self.plain = RecordStore::new();
        self.signed = RecordStore::new();
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

    /// The plain record held for `var` by reference, `None` when unheld —
    /// the copy-free form of [`stored_plain`](Self::stored_plain).
    #[inline]
    pub fn plain_record(&self, var: VariableId) -> Option<&TaggedValue> {
        self.plain.get(var)
    }

    /// The signed record held for `var` by reference, `None` when unheld.
    #[inline]
    pub fn signed_record(&self, var: VariableId) -> Option<&SignedValue> {
        self.signed.get(var)
    }

    /// The plain (unsigned) record the server *actually* stores for `var`,
    /// regardless of behaviour — useful for assertions and diffusion.
    pub fn stored_plain(&self, var: VariableId) -> TaggedValue {
        self.plain_record(var)
            .cloned()
            .unwrap_or_else(TaggedValue::initial)
    }

    /// The signed record the server actually stores for `var`.
    pub fn stored_signed(&self, var: VariableId) -> SignedValue {
        self.signed_record(var)
            .cloned()
            .unwrap_or_else(SignedValue::unsigned_initial)
    }

    /// Timestamp of the stored plain record for `var`
    /// ([`Timestamp::ZERO`] when unheld) — a clone-free accessor for the
    /// digest planner's per-key version summaries.
    pub fn stored_plain_timestamp(&self, var: VariableId) -> Timestamp {
        self.plain.timestamp(var)
    }

    /// Timestamp of the stored signed record for `var`
    /// ([`Timestamp::ZERO`] when unheld), without cloning the signature.
    pub fn stored_signed_timestamp(&self, var: VariableId) -> Timestamp {
        self.signed.timestamp(var)
    }

    /// Handles a plain read request. Returns `None` if the server does not
    /// answer (crashed).
    pub fn handle_read_plain(&self, var: VariableId) -> Option<TaggedValue> {
        match self.behavior {
            Behavior::Crashed => None,
            Behavior::Correct => Some(self.stored_plain(var)),
            Behavior::ByzantineForge => Some(TaggedValue::new(forged_value(), forged_timestamp())),
            Behavior::ByzantineStale => Some(self.stored_plain(var)),
        }
    }

    /// Handles a plain write request. Returns `true` if the write was
    /// acknowledged (Byzantine servers acknowledge without necessarily
    /// storing anything).  The record is copied only if it is stored.
    pub fn handle_write_plain(&mut self, var: VariableId, incoming: &TaggedValue) -> bool {
        match self.behavior {
            Behavior::Crashed => false,
            Behavior::Correct => {
                self.merge_plain(var, incoming);
                true
            }
            // Byzantine servers acknowledge but drop the update.
            Behavior::ByzantineForge | Behavior::ByzantineStale => true,
        }
    }

    /// Handles a signed read request (dissemination protocol).
    pub fn handle_read_signed(&self, var: VariableId) -> Option<SignedValue> {
        match self.behavior {
            Behavior::Crashed => None,
            Behavior::Correct => Some(self.stored_signed(var)),
            // A forging server cannot produce a verifying signature; the
            // most damaging thing it can return is stale-but-valid data (or
            // garbage, which readers would discard anyway). Both Byzantine
            // behaviours therefore reply with their (stale) stored record.
            Behavior::ByzantineForge | Behavior::ByzantineStale => Some(self.stored_signed(var)),
        }
    }

    /// Handles a signed write request (dissemination protocol).
    pub fn handle_write_signed(&mut self, var: VariableId, incoming: &SignedValue) -> bool {
        match self.behavior {
            Behavior::Crashed => false,
            Behavior::Correct => {
                self.merge_signed(var, incoming);
                true
            }
            Behavior::ByzantineForge | Behavior::ByzantineStale => true,
        }
    }

    /// Stores a plain record if it is fresher than the current one — also
    /// the merge rule used by the diffusion mechanism.  Returns `true` if
    /// the incoming record replaced the stored one (it was strictly
    /// fresher), which the gossip layer uses to count effective pushes.
    pub fn store_plain_if_fresher(&mut self, var: VariableId, incoming: TaggedValue) -> bool {
        self.plain.store_if_fresher(var, incoming)
    }

    /// Stores a signed record if it is fresher than the current one.
    /// Returns `true` if the incoming record replaced the stored one.
    pub fn store_signed_if_fresher(&mut self, var: VariableId, incoming: SignedValue) -> bool {
        self.signed.store_if_fresher(var, incoming)
    }

    /// [`store_plain_if_fresher`](Self::store_plain_if_fresher) for a
    /// caller that only borrows the record (a write probe fanned out to a
    /// quorum, a gossip push, the spine sync): timestamps are compared
    /// first and the record is cloned only when it is stored, so a delivery
    /// that stores nothing copies nothing.
    pub fn merge_plain(&mut self, var: VariableId, incoming: &TaggedValue) -> bool {
        self.plain.merge(var, incoming)
    }

    /// [`merge_plain`](Self::merge_plain) for signed records.
    pub fn merge_signed(&mut self, var: VariableId, incoming: &SignedValue) -> bool {
        self.signed.merge(var, incoming)
    }

    /// All variables for which this server holds a plain record, in
    /// **ascending id order** — a linear scan over the dense slots, which
    /// the gossip planners rely on to skip re-sorting per sender.
    pub fn plain_variables(&self) -> impl Iterator<Item = VariableId> + '_ {
        self.plain.variables()
    }

    /// All variables for which this server holds a signed record, in
    /// **ascending id order** (see [`plain_variables`](Self::plain_variables)).
    pub fn signed_variables(&self) -> impl Iterator<Item = VariableId> + '_ {
        self.signed.variables()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyRegistry;

    fn tv(v: u64, c: u64) -> TaggedValue {
        TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1))
    }

    #[test]
    fn correct_server_stores_and_serves() {
        let mut s = ReplicaServer::new(ServerId::new(3));
        assert_eq!(s.id(), ServerId::new(3));
        assert_eq!(s.behavior(), Behavior::Correct);
        assert_eq!(s.handle_read_plain(0).unwrap().timestamp, Timestamp::ZERO);
        assert!(s.handle_write_plain(0, &tv(5, 1)));
        assert_eq!(s.handle_read_plain(0).unwrap(), tv(5, 1));
        // Stale writes are ignored (keep the freshest record).
        assert!(s.handle_write_plain(0, &tv(9, 1)));
        assert_eq!(s.handle_read_plain(0).unwrap(), tv(5, 1));
        assert!(s.handle_write_plain(0, &tv(9, 2)));
        assert_eq!(s.handle_read_plain(0).unwrap(), tv(9, 2));
        // Independent variables do not interfere.
        assert!(s.handle_write_plain(7, &tv(1, 1)));
        assert_eq!(s.handle_read_plain(0).unwrap(), tv(9, 2));
        assert_eq!(s.plain_variables().count(), 2);
    }

    #[test]
    fn crashed_server_is_silent() {
        let mut s = ReplicaServer::new(ServerId::new(0));
        s.set_behavior(Behavior::Crashed);
        assert!(s.handle_read_plain(0).is_none());
        assert!(!s.handle_write_plain(0, &tv(1, 1)));
        assert!(s.handle_read_signed(0).is_none());
        assert!(!s.behavior().is_byzantine());
    }

    #[test]
    fn forging_server_returns_colluding_fabrication() {
        let mut a = ReplicaServer::new(ServerId::new(1));
        let mut b = ReplicaServer::new(ServerId::new(2));
        a.set_behavior(Behavior::ByzantineForge);
        b.set_behavior(Behavior::ByzantineForge);
        assert!(a.behavior().is_byzantine());
        let ra = a.handle_read_plain(0).unwrap();
        let rb = b.handle_read_plain(0).unwrap();
        // Collusion: identical fabricated value and timestamp.
        assert_eq!(ra, rb);
        assert_eq!(ra.value, forged_value());
        assert!(ra.timestamp > Timestamp::new(1_000_000, 0));
        // It acknowledges writes but does not store them.
        assert!(a.handle_write_plain(0, &tv(3, 1)));
        assert_eq!(a.stored_plain(0).timestamp, Timestamp::ZERO);
    }

    #[test]
    fn stale_server_suppresses_updates() {
        let mut s = ReplicaServer::new(ServerId::new(1));
        assert!(s.handle_write_plain(0, &tv(1, 1)));
        s.set_behavior(Behavior::ByzantineStale);
        assert!(s.handle_write_plain(0, &tv(2, 2)));
        // Still serves the old record.
        assert_eq!(s.handle_read_plain(0).unwrap(), tv(1, 1));
    }

    #[test]
    fn signed_records_and_byzantine_suppression() {
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 7);
        let mut s = ReplicaServer::new(ServerId::new(4));
        let v1 = SignedValue::create(&key, Value::from_u64(10), Timestamp::new(1, 1));
        let v2 = SignedValue::create(&key, Value::from_u64(20), Timestamp::new(2, 1));
        assert!(s.handle_write_signed(0, &v1));
        assert!(s.handle_write_signed(0, &v2));
        assert_eq!(s.handle_read_signed(0).unwrap(), v2);
        // Regression to Byzantine: the server can only keep serving what it
        // has (or suppress); it cannot fabricate a verifying record.
        s.set_behavior(Behavior::ByzantineForge);
        assert!(s.handle_write_signed(0, &v1));
        let served = s.handle_read_signed(0).unwrap();
        assert!(registry.verify_signed(&served));
        assert_eq!(served, v2);
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
        assert!(s.plain_variables().eq([0u64, 2, 5, 9, 11]));
        // A stale store (timestamp ZERO never beats an empty slot) does
        // not occupy a slot.
        assert!(!s.store_plain_if_fresher(13, TaggedValue::initial()));
        assert!(s.plain_variables().eq([0u64, 2, 5, 9, 11]));
        assert_eq!(s.stored_plain_timestamp(13), Timestamp::ZERO);
        // Hashed ids (the apps namespace entities into the full u64
        // space) land in the sparse tier, still iterated in order.
        let huge = u64::MAX / 3;
        assert!(s.store_plain_if_fresher(huge, tv(1, 4)));
        assert_eq!(s.stored_plain(huge), tv(1, 4));
        assert!(s.plain_variables().eq([0u64, 2, 5, 9, 11, huge]));
    }

    #[test]
    fn store_if_fresher_reports_whether_it_stored() {
        let mut s = ReplicaServer::new(ServerId::new(0));
        assert!(s.store_plain_if_fresher(0, tv(1, 1)));
        // Same timestamp or older: kept, not replaced.
        assert!(!s.store_plain_if_fresher(0, tv(9, 1)));
        assert!(!s.store_plain_if_fresher(0, tv(9, 0)));
        assert!(s.store_plain_if_fresher(0, tv(2, 2)));
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 5);
        let v1 = SignedValue::create(&key, Value::from_u64(1), Timestamp::new(1, 1));
        let v2 = SignedValue::create(&key, Value::from_u64(2), Timestamp::new(2, 1));
        assert!(s.store_signed_if_fresher(3, v1.clone()));
        assert!(!s.store_signed_if_fresher(3, v1));
        assert!(s.store_signed_if_fresher(3, v2.clone()));
        assert!(s.signed_variables().eq(std::iter::once(3)));
        // The by-reference forms apply the same rule.
        assert!(!s.merge_plain(0, &tv(9, 2)));
        assert!(s.merge_plain(0, &tv(3, 3)));
        assert_eq!(s.plain_record(0), Some(&tv(3, 3)));
        assert_eq!(s.plain_record(1), None);
        assert!(!s.merge_signed(3, &v2));
        assert_eq!(s.signed_record(3), Some(&v2));
    }
}
