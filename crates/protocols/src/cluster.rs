//! A universe of replica servers addressed by quorum.
//!
//! [`Cluster`] owns the state of one replica server per element of a
//! [`Universe`] — a [`Behavior`] per server and every server's records, in
//! one var-major slab per record kind (see [`crate::server`]) — and hands
//! out borrowed [`ReplicaServer`] / [`ReplicaServerMut`] views onto one
//! server at a time.  On top it provides the per-server read/write probes
//! the register protocols fan out over a quorum, failure injection (crashes
//! and Byzantine corruption), and per-server access accounting used to
//! *measure* load (Definition 2.4) empirically.

use crate::server::{
    Behavior, KeyRecords, Record, Records, ReplicaServer, ReplicaServerMut, VariableId,
};
use pqs_core::universe::{ServerId, Universe};

/// A collection of replica servers covering a universe.
#[derive(Debug, Clone)]
pub struct Cluster {
    universe: Universe,
    behaviors: Vec<Behavior>,
    records: Records,
    access_counts: Vec<u64>,
    accesses: u64,
}

impl Cluster {
    /// Creates a cluster with one correct server per universe element.  No
    /// record storage is allocated until the first store.
    pub fn new(universe: Universe) -> Self {
        let n = universe.size() as usize;
        Cluster {
            universe,
            behaviors: vec![Behavior::Correct; n],
            records: Records::new(n),
            access_counts: vec![0; n],
            accesses: 0,
        }
    }

    /// The universe this cluster covers.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Plans the record slabs for a key space of `keys` variables — a
    /// capacity hint the simulation drivers apply once at start-up so the
    /// hot path never reallocates.  It allocates nothing itself: each
    /// record kind's slab takes this capacity on that kind's first store,
    /// so a kind no run stores is never allocated.
    pub fn reserve_variables(&mut self, keys: u64) {
        self.records.reserve(keys);
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.behaviors.len()
    }

    /// Returns `true` if the cluster has no servers (never the case for a
    /// validly constructed cluster).
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty()
    }

    /// A read view of one server (for probes, assertions and diffusion).
    #[inline]
    pub fn server(&self, id: ServerId) -> ReplicaServer<'_> {
        ReplicaServer::new(id, self.behaviors[id.as_usize()], &self.records)
    }

    /// Every server's `R` record for `var`: one key across the cluster, as
    /// [`server`](Self::server) is one server across its keys.
    #[inline]
    pub fn key_records<R: Record>(&self, var: VariableId) -> KeyRecords<'_, R> {
        KeyRecords::new(var, &self.records)
    }

    /// A write view of one server.
    #[inline]
    pub fn server_mut(&mut self, id: ServerId) -> ReplicaServerMut<'_> {
        ReplicaServerMut::new(id, self.behaviors[id.as_usize()], &mut self.records)
    }

    /// Sets the behaviour of a single server.
    pub fn set_behavior(&mut self, id: ServerId, behavior: Behavior) {
        self.behaviors[id.as_usize()] = behavior;
    }

    /// Brings a server (back) into membership with its records wiped: the
    /// joiner comes up correct and must bootstrap everything it once held
    /// back through gossip rather than resurrect pre-departure records.
    pub fn join_server(&mut self, id: ServerId) {
        self.records.wipe(id);
        self.set_behavior(id, Behavior::Correct);
    }

    /// Crashes every server in `ids`.
    pub fn crash_all<I: IntoIterator<Item = ServerId>>(&mut self, ids: I) {
        for id in ids {
            self.set_behavior(id, Behavior::Crashed);
        }
    }

    /// Makes every server in `ids` Byzantine with the given behaviour.
    pub fn corrupt_all<I: IntoIterator<Item = ServerId>>(&mut self, ids: I, behavior: Behavior) {
        for id in ids {
            self.set_behavior(id, behavior);
        }
    }

    /// Sends a read for records of kind `R` to a single server; returns its
    /// reply, or `None` if the server does not answer (crashed).  The access
    /// is counted whether or not the server replies.
    ///
    /// This is the per-message building block of the session-based access
    /// model ([`crate::register::session`]): the discrete-event simulator
    /// schedules one such probe per `(operation, server)` pair, so a
    /// server's behaviour is evaluated at the *message's* delivery time
    /// rather than at the operation's start.
    pub fn probe_read<R: Record>(&mut self, id: ServerId, var: VariableId) -> Option<R> {
        self.note_access(id);
        self.server(id).handle_read(var)
    }

    /// Sends a write of `record` to a single server; returns `true` if it
    /// acknowledged.
    pub fn probe_write<R: Record>(&mut self, id: ServerId, var: VariableId, record: &R) -> bool {
        self.note_access(id);
        self.server_mut(id).handle_write(var, record)
    }

    /// Total number of quorum accesses performed so far (each read or write
    /// of a quorum counts once).
    pub fn total_accesses(&self) -> u64 {
        self.accesses
    }

    /// Per-server access counts accumulated so far.
    pub fn access_counts(&self) -> &[u64] {
        &self.access_counts
    }

    /// The empirical load: the busiest server's access count divided by the
    /// number of quorum accesses (the measured counterpart of
    /// Definition 2.4).  Returns 0 if no accesses happened yet.
    pub fn empirical_load(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let max = self.access_counts.iter().copied().max().unwrap_or(0);
        max as f64 / self.accesses as f64
    }

    /// Counts one access at `id` without consulting the server: a probe
    /// whose reply nobody is waiting for any more still reached the server
    /// and still counts toward its load.
    pub fn note_access(&mut self, id: ServerId) {
        self.access_counts[id.as_usize()] += 1;
    }

    /// Marks the start of one client operation for load accounting (the
    /// register protocols call this once per read/write).
    pub fn note_operation(&mut self) {
        self.accesses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::{KeyRegistry, SignedValue};
    use crate::timestamp::Timestamp;
    use crate::value::{TaggedValue, Value};
    use pqs_core::quorum::Quorum;

    fn tv(v: u64, c: u64) -> TaggedValue {
        TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1))
    }

    /// Write-probes every member of `quorum`; returns the acknowledgements.
    fn write_all<R: Record>(c: &mut Cluster, quorum: &Quorum, record: &R) -> usize {
        quorum
            .iter()
            .filter(|&id| c.probe_write(id, 0, record))
            .count()
    }

    /// Read-probes every member of `quorum`; returns the replies that came.
    fn read_all<R: Record>(c: &mut Cluster, quorum: &Quorum) -> Vec<R> {
        quorum.iter().filter_map(|id| c.probe_read(id, 0)).collect()
    }

    #[test]
    fn construction_and_accessors() {
        let c = Cluster::new(Universe::new(10));
        assert_eq!(c.len(), 10);
        assert!(!c.is_empty());
        assert_eq!(c.universe().size(), 10);
        assert_eq!(c.server(ServerId::new(3)).id(), ServerId::new(3));
        assert!(c
            .universe()
            .servers()
            .all(|id| c.server(id).behavior() == Behavior::Correct));
        assert_eq!(c.empirical_load(), 0.0);
    }

    #[test]
    fn write_then_read_through_quorums() {
        let u = Universe::new(10);
        let mut c = Cluster::new(u);
        let write_q = Quorum::from_indices(u, [0u32, 1, 2, 3]).unwrap();
        let read_q = Quorum::from_indices(u, [3u32, 4, 5]).unwrap();
        c.note_operation();
        assert_eq!(write_all(&mut c, &write_q, &tv(7, 1)), 4);
        c.note_operation();
        let replies: Vec<TaggedValue> = read_all(&mut c, &read_q);
        assert_eq!(replies.len(), 3);
        // Server 3 observed the write; 4 and 5 still have the initial value.
        let best = replies.into_iter().max_by_key(|v| v.timestamp).unwrap();
        assert_eq!(best, tv(7, 1));
        assert_eq!(c.total_accesses(), 2);
        // Access counts: server 3 touched twice, server 0 once, server 9 never.
        assert_eq!(c.access_counts()[3], 2);
        assert_eq!(c.access_counts()[0], 1);
        assert_eq!(c.access_counts()[9], 0);
        assert!((c.empirical_load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_server_probes_respect_behavior_and_count_accesses() {
        let u = Universe::new(4);
        let mut c = Cluster::new(u);
        c.set_behavior(ServerId::new(1), Behavior::Crashed);
        // Write probes: correct server acks and stores, crashed server is
        // silent but still counted as an access.
        assert!(c.probe_write(ServerId::new(0), 0, &tv(5, 1)));
        assert!(!c.probe_write(ServerId::new(1), 0, &tv(5, 1)));
        assert_eq!(c.probe_read(ServerId::new(0), 0), Some(tv(5, 1)));
        assert_eq!(c.probe_read::<TaggedValue>(ServerId::new(1), 0), None);
        assert_eq!(c.access_counts()[0], 2);
        assert_eq!(c.access_counts()[1], 2);
        // Signed probes follow the same pattern.
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 42);
        let record = SignedValue::create(&key, Value::from_u64(9), Timestamp::new(1, 1));
        assert!(c.probe_write(ServerId::new(2), 0, &record));
        assert!(!c.probe_write(ServerId::new(1), 0, &record));
        assert_eq!(c.probe_read(ServerId::new(2), 0), Some(record));
        assert_eq!(c.probe_read::<SignedValue>(ServerId::new(1), 0), None);
    }

    #[test]
    fn crashed_servers_do_not_reply_or_ack() {
        let u = Universe::new(5);
        let mut c = Cluster::new(u);
        c.crash_all([ServerId::new(0), ServerId::new(1)]);
        let crashed = |c: &Cluster| {
            u.servers()
                .filter(|&id| c.server(id).behavior() == Behavior::Crashed)
                .count()
        };
        assert_eq!(crashed(&c), 2);
        let q = Quorum::from_indices(u, [0u32, 1, 2]).unwrap();
        assert_eq!(write_all(&mut c, &q, &tv(1, 1)), 1);
        assert_eq!(read_all::<TaggedValue>(&mut c, &q).len(), 1);
        // Silent servers were still accessed, once per probe.
        assert_eq!(c.access_counts()[..3], [2, 2, 2]);
        // Repair keeps the state: the write server 2 stored is still there.
        c.corrupt_all([ServerId::new(0), ServerId::new(1)], Behavior::Correct);
        assert_eq!(crashed(&c), 0);
        assert_eq!(read_all::<TaggedValue>(&mut c, &q).len(), 3);
        assert_eq!(
            c.server(ServerId::new(2)).stored::<TaggedValue>(0),
            tv(1, 1)
        );
    }

    #[test]
    fn byzantine_set_tracks_corruption() {
        let u = Universe::new(6);
        let mut c = Cluster::new(u);
        c.corrupt_all(
            [ServerId::new(1), ServerId::new(4)],
            Behavior::ByzantineForge,
        );
        let byzantine: Vec<u32> = u
            .servers()
            .filter(|&id| {
                matches!(
                    c.server(id).behavior(),
                    Behavior::ByzantineForge | Behavior::ByzantineStale
                )
            })
            .map(ServerId::index)
            .collect();
        assert_eq!(byzantine, [1, 4]);
        assert_eq!(
            c.server(ServerId::new(4)).behavior(),
            Behavior::ByzantineForge
        );
    }

    #[test]
    fn signed_paths_roundtrip() {
        let u = Universe::new(4);
        let mut c = Cluster::new(u);
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 99);
        let record = SignedValue::create(&key, Value::from_u64(5), Timestamp::new(1, 1));
        let q = Quorum::full(u);
        c.note_operation();
        assert_eq!(write_all(&mut c, &q, &record), 4);
        c.note_operation();
        let replies: Vec<SignedValue> = read_all(&mut c, &q);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|sv| *sv == record));
        // The plain stores never saw the signed write.
        assert!(read_all::<TaggedValue>(&mut c, &q)
            .iter()
            .all(|tv| *tv == TaggedValue::initial()));
        assert_eq!((c.total_accesses(), c.access_counts()[0]), (2, 3));
    }

    /// The premise the simulator's plan-time settlement of covered pushes
    /// rests on: store-if-fresher is a monotone join, so no mutator of a
    /// cluster's stores ever lowers a stored timestamp except
    /// [`Cluster::join_server`], which wipes its server.  Random sequences
    /// of every public mutator, over servers of every behaviour, for both
    /// record kinds.
    #[test]
    fn stored_timestamps_fall_only_at_a_join() {
        use crate::diffusion::{self, GossipDelta, GossipPush};
        use crate::register::session;
        use crate::server::tests::Make;
        use crate::server::AnyRecord;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        fn some(rng: &mut ChaCha8Rng, n: u32) -> Vec<ServerId> {
            (0..n)
                .filter(|_| rng.gen_bool(0.4))
                .map(ServerId::new)
                .collect()
        }
        fn check<R: Make>(seed: u64) {
            let (n, keys) = (6u32, 4 as VariableId);
            let universe = Universe::new(n);
            let mut c = Cluster::new(universe);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let behaviors = [
                Behavior::Correct,
                Behavior::Crashed,
                Behavior::ByzantineForge,
                Behavior::ByzantineStale,
            ];
            let stamps = |c: &Cluster| -> Vec<Timestamp> {
                let held = universe
                    .servers()
                    .flat_map(|id| (0..keys).map(move |v| (id, v)));
                held.map(|(id, v)| c.server(id).stored_timestamp::<R>(v))
                    .collect()
            };
            let (mut rises, mut wipes) = (0, 0);
            for step in 0..600 {
                let id = ServerId::new(rng.gen_range(0..n));
                let other = ServerId::new(rng.gen_range(0..n));
                let var = rng.gen_range(0..keys);
                // Counters creep up with the step, so records keep arriving
                // both older and fresher than what their receivers hold.
                let counter = |rng: &mut ChaCha8Rng| rng.gen_range(1..step / 8 + 3);
                let record = R::make(step, counter(&mut rng));
                let before = stamps(&c);
                // Joins wipe whole servers, so they come rarely.
                let op = if rng.gen_bool(0.03) {
                    8
                } else {
                    rng.gen_range(0..8)
                };
                match op {
                    0 => _ = c.server_mut(id).merge(var, &record),
                    1 => _ = c.probe_write(id, var, &record),
                    2 => _ = session::apply_write(&mut c, id, var, &record.into()),
                    3 => {
                        let push = GossipPush {
                            from: other,
                            to: id,
                            variable: var,
                            record: record.into(),
                        };
                        diffusion::deliver(&mut c, &push);
                    }
                    4 => {
                        let mut records: Vec<(VariableId, AnyRecord)> = Vec::new();
                        for v in 0..keys {
                            if rng.gen_bool(0.5) {
                                records.push((v, R::make(step, counter(&mut rng)).into()));
                            }
                        }
                        let delta = GossipDelta {
                            from: other,
                            to: id,
                            records,
                        };
                        diffusion::deliver_delta(&mut c, &delta);
                    }
                    5 => c.set_behavior(id, behaviors[rng.gen_range(0..4usize)]),
                    6 => c.crash_all(some(&mut rng, n)),
                    7 => {
                        let byzantine = behaviors[rng.gen_range(2..4usize)];
                        c.corrupt_all(some(&mut rng, n), byzantine);
                    }
                    _ => c.join_server(id),
                }
                let after = stamps(&c);
                for (slot, (was, is)) in before.iter().zip(&after).enumerate() {
                    let holder = ServerId::new(slot as u32 / keys as u32);
                    let joined = op == 8 && holder == id;
                    rises += u32::from(is > was);
                    wipes += u32::from(is < was);
                    assert!(
                        is >= was || (joined && *is == Timestamp::ZERO),
                        "step {step}: mutator {op} lowered {holder:?}'s key {} from {was:?} to {is:?}",
                        slot as VariableId % keys
                    );
                }
            }
            assert!(rises > 50 && wipes > 10, "{rises} rises, {wipes} wipes");
        }
        for seed in 0..4 {
            check::<TaggedValue>(seed);
            check::<SignedValue>(seed);
        }
    }
}
