//! A sharded, multi-variable key–value facade over the register protocol.
//!
//! The paper's motivating application (the Section 1.1 location directory)
//! is inherently multi-key: one replicated variable per device, all sharing
//! the same universe of replicas.  [`RegisterMap`] is that lift from "a
//! register" to "a key–value store": it exposes [`get`](RegisterMap::get) /
//! [`put`](RegisterMap::put) over an arbitrary [`VariableId`] space.  The
//! only per-key client state is the key's **own writer timestamp chain** (a
//! [`TimestampIssuer`] created the first time the key is written), so
//! writes to different keys never contend on a shared counter, while all
//! keys share the quorum system, the access strategy, the probe margin and
//! the replica cluster — exactly the sharding model under which the paper's
//! per-server load bounds are stated.
//!
//! The protocol every key speaks is fixed at construction by
//! [`RegisterFlavor`], and every operation is the [`Register`](super::Register)
//! one: a map and a register of the same flavor driven alike cannot be told
//! apart.  Besides the atomic `get`/`put`, the facade exposes the
//! incremental session API ([`begin_read`](RegisterMap::begin_read) /
//! [`begin_write`](RegisterMap::begin_write)) that the discrete-event
//! simulator drives one message at a time, with sessions for different keys
//! interleaving freely.

use super::client::{read_quorum, write_quorum};
use super::session::{self, ProbeSet, ReadSession, WriteSession};
use super::{RegisterFlavor, WriteReceipt};
use crate::cluster::Cluster;
use crate::server::{AnyRecord, VariableId};
use crate::timestamp::TimestampIssuer;
use crate::value::{TaggedValue, Value};
use crate::ClientId;
use pqs_core::system::QuorumSystem;
use rand::RngCore;
use std::collections::HashMap;

/// A key–value store over one quorum system: one writer timestamp chain per
/// key, created on first write (see the [module docs](self)).
#[derive(Debug)]
pub struct RegisterMap<'a, S: QuorumSystem + ?Sized> {
    system: &'a S,
    flavor: RegisterFlavor,
    writer: ClientId,
    probe_margin: usize,
    chains: HashMap<VariableId, TimestampIssuer>,
}

impl<'a, S: QuorumSystem + ?Sized> RegisterMap<'a, S> {
    /// Creates an empty map over `system`; every key speaks `flavor` and is
    /// written as `writer` (as the signing key's owner for the
    /// dissemination flavor).
    pub fn new(system: &'a S, flavor: RegisterFlavor, writer: ClientId) -> Self {
        RegisterMap {
            system,
            writer: flavor.writer(writer),
            flavor,
            probe_margin: 0,
            chains: HashMap::new(),
        }
    }

    /// Probes `margin` extra servers beyond the quorum on every operation
    /// and completes on the first `q` responders (first-q-of-probed access).
    pub fn with_probe_margin(mut self, margin: usize) -> Self {
        self.set_probe_margin(margin);
        self
    }

    /// Changes the probe margin of every key, written before or not.
    pub fn set_probe_margin(&mut self, margin: usize) {
        self.probe_margin = margin;
    }

    /// The configured probe margin.
    pub fn probe_margin(&self) -> usize {
        self.probe_margin
    }

    /// The quorum system all keys share.
    pub fn system(&self) -> &'a S {
        self.system
    }

    /// The protocol every key speaks.
    pub fn flavor(&self) -> &RegisterFlavor {
        &self.flavor
    }

    /// Number of keys that have been written (and therefore hold a
    /// timestamp chain).
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// Returns `true` if no key has been written yet.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Whether the given key already holds a timestamp chain.
    pub fn contains(&self, var: VariableId) -> bool {
        self.chains.contains_key(&var)
    }

    /// The keys that have been written, in unspecified order.
    pub fn variables(&self) -> impl Iterator<Item = VariableId> + '_ {
        self.chains.keys().copied()
    }

    /// Draws the servers the next operation attempt should contact: a
    /// quorum by the access strategy plus the configured margin of spares.
    /// Key-independent — all keys share the access strategy.
    pub fn sample_probe_set(&self, rng: &mut dyn RngCore) -> ProbeSet {
        session::probe_set(self.system, rng, self.probe_margin)
    }

    /// Starts an incremental write of `value` to `var`: issues the next
    /// timestamp of the key's own chain and returns the record to push to
    /// each probed server ([`session::apply_write`]) plus the
    /// acknowledgement-tracking session.
    pub fn begin_write(
        &mut self,
        var: VariableId,
        value: Value,
        needed: usize,
        probed: usize,
    ) -> (AnyRecord, WriteSession) {
        let chain = self
            .chains
            .entry(var)
            .or_insert_with(|| TimestampIssuer::new(self.writer));
        self.flavor.begin_write(chain, value, needed, probed)
    }

    /// Starts an incremental read that completes after `needed` replies and
    /// condenses them by the flavor's rule.  Reads need no per-key state —
    /// only writes hold a timestamp chain — so looking up a never-written
    /// key allocates nothing (a read-mostly client probing millions of
    /// unknown keys stays empty).
    pub fn begin_read(&self, needed: usize) -> ReadSession {
        ReadSession::new(self.flavor.read_mode(), needed)
    }

    /// Writes `value` to key `var` through one quorum access (the atomic
    /// form of the session API).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuorumUnavailable`](crate::ProtocolError::QuorumUnavailable)
    /// if no probed server acknowledged the write.
    pub fn put(
        &mut self,
        cluster: &mut Cluster,
        rng: &mut dyn RngCore,
        var: VariableId,
        value: Value,
    ) -> crate::Result<WriteReceipt> {
        let probe = self.sample_probe_set(rng);
        let (record, session) = self.begin_write(var, value, probe.needed, probe.probed());
        write_quorum(cluster, &probe, var, &record, session)
    }

    /// Reads key `var` through one quorum access; `Ok(None)` means no
    /// acceptable value was visible (nothing written yet, or — for the
    /// masking flavor — no pair reached the threshold).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuorumUnavailable`](crate::ProtocolError::QuorumUnavailable)
    /// if no probed server replied at all.
    pub fn get(
        &self,
        cluster: &mut Cluster,
        rng: &mut dyn RngCore,
        var: VariableId,
    ) -> crate::Result<Option<TaggedValue>> {
        let probe = self.sample_probe_set(rng);
        read_quorum(cluster, &probe, var, self.begin_read(probe.needed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyRegistry;
    use crate::register::SafeRegister;
    use crate::server::Behavior;
    use crate::ProtocolError;
    use pqs_core::probabilistic::{
        EpsilonIntersecting, ProbabilisticDissemination, ProbabilisticMasking,
    };
    use pqs_core::strict::Majority;
    use pqs_core::system::QuorumSystem;
    use pqs_core::universe::ServerId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn per_key_round_trips_are_independent() {
        // A strict system makes the round trips deterministic: every key
        // returns exactly its own latest value.
        let sys = Majority::new(9).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Safe, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(map.is_empty());
        for key in 0..32u64 {
            map.put(&mut cluster, &mut rng, key, Value::from_u64(1000 + key))
                .unwrap();
        }
        assert_eq!(map.len(), 32);
        assert!(map.contains(7) && !map.contains(99));
        for key in 0..32u64 {
            let got = map.get(&mut cluster, &mut rng, key).unwrap().unwrap();
            assert_eq!(got.value, Value::from_u64(1000 + key), "key {key}");
        }
        // Untouched keys read as never-written — and reading them leaves no
        // client state behind (reads are stateless on the client).
        assert_eq!(map.get(&mut cluster, &mut rng, 999).unwrap(), None);
        assert_eq!(map.len(), 32, "a read of an unknown key allocates nothing");
        assert!(!map.contains(999));
    }

    #[test]
    fn each_key_has_its_own_timestamp_chain() {
        let sys = Majority::new(5).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Safe, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Five writes to key 0, then one to key 1: key 1 starts its chain at
        // counter 1, unaffected by key 0's history.
        for i in 1..=5u64 {
            let receipt = map
                .put(&mut cluster, &mut rng, 0, Value::from_u64(i))
                .unwrap();
            assert_eq!(receipt.timestamp.counter(), i);
            assert_eq!(receipt.timestamp.writer(), 3);
        }
        let receipt = map
            .put(&mut cluster, &mut rng, 1, Value::from_u64(9))
            .unwrap();
        assert_eq!(receipt.timestamp.counter(), 1);
    }

    #[test]
    fn map_matches_standalone_register_rng_stream() {
        // Driving variable 0 through the map consumes the RNG exactly like
        // the standalone register: same seed, same replies.
        let sys = EpsilonIntersecting::new(64, 16).unwrap();
        let mut c1 = Cluster::new(sys.universe());
        let mut c2 = Cluster::new(sys.universe());
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Safe, 1);
        let mut reg = SafeRegister::new(&sys, 1);
        let mut rng1 = ChaCha8Rng::seed_from_u64(5);
        let mut rng2 = ChaCha8Rng::seed_from_u64(5);
        for i in 1..=20u64 {
            let a = map.put(&mut c1, &mut rng1, 0, Value::from_u64(i)).unwrap();
            let b = reg.write(&mut c2, &mut rng2, Value::from_u64(i)).unwrap();
            assert_eq!(a, b);
            let x = map.get(&mut c1, &mut rng1, 0).unwrap();
            let y = reg.read(&mut c2, &mut rng2).unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(c1.access_counts(), c2.access_counts());
    }

    #[test]
    fn dissemination_flavor_signs_and_verifies_per_key() {
        let sys = ProbabilisticDissemination::with_target_epsilon(64, 8, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        cluster.corrupt_all((0..8).map(ServerId::new), Behavior::ByzantineStale);
        let mut registry = KeyRegistry::new();
        let key = registry.register(2, 77);
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Dissemination { key, registry }, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for k in 0..8u64 {
            map.put(&mut cluster, &mut rng, k, Value::from_u64(k * 11))
                .unwrap();
        }
        for k in 0..8u64 {
            if let Some(tv) = map.get(&mut cluster, &mut rng, k).unwrap() {
                assert_eq!(tv.value, Value::from_u64(k * 11));
            }
        }
    }

    #[test]
    fn masking_flavor_applies_threshold_per_key() {
        let sys = ProbabilisticMasking::with_target_epsilon(100, 4, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        cluster.corrupt_all((0..4).map(ServerId::new), Behavior::ByzantineForge);
        let mut map = RegisterMap::new(
            &sys,
            RegisterFlavor::Masking {
                threshold: sys.read_threshold(),
            },
            1,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for k in 0..16u64 {
            map.put(&mut cluster, &mut rng, k, Value::from_u64(k + 1))
                .unwrap();
            if let Some(tv) = map.get(&mut cluster, &mut rng, k).unwrap() {
                assert_ne!(tv.value, crate::server::forged_value());
            }
        }
    }

    #[test]
    fn margin_changes_propagate_to_cached_registers() {
        let sys = Majority::new(5).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Safe, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        map.put(&mut cluster, &mut rng, 0, Value::from_u64(1))
            .unwrap();
        // Two servers die; margin 2 makes every probe set cover all five.
        cluster.crash_all([ServerId::new(0), ServerId::new(1)]);
        map.set_probe_margin(2);
        assert_eq!(map.probe_margin(), 2);
        let receipt = map
            .put(&mut cluster, &mut rng, 0, Value::from_u64(2))
            .unwrap();
        assert_eq!(receipt.acks, 3, "the already-written key 0 must probe 5");
        let got = map.get(&mut cluster, &mut rng, 0).unwrap().unwrap();
        assert_eq!(got.value, Value::from_u64(2));
    }

    #[test]
    fn unavailable_when_all_crash() {
        let sys = Majority::new(5).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        cluster.crash_all((0..5).map(ServerId::new));
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Safe, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert!(matches!(
            map.put(&mut cluster, &mut rng, 0, Value::from_u64(1)),
            Err(ProtocolError::QuorumUnavailable { .. })
        ));
        assert!(matches!(
            map.get(&mut cluster, &mut rng, 0),
            Err(ProtocolError::QuorumUnavailable { .. })
        ));
    }

    #[test]
    fn write_record_exposes_its_timestamp() {
        let sys = Majority::new(5).unwrap();
        let mut map = RegisterMap::new(&sys, RegisterFlavor::Safe, 4);
        let (record, session) = map.begin_write(9, Value::from_u64(1), 3, 3);
        assert_eq!(record.timestamp(), session.timestamp());
        assert_eq!(record.timestamp().writer(), 4);
        assert!(map.variables().eq(std::iter::once(9)));
    }
}
