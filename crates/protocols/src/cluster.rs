//! A universe of replica servers addressed by quorum.
//!
//! [`Cluster`] owns the state of one replica server per element of a
//! [`Universe`] — a [`Behavior`] per server and every server's records, in
//! one var-major slab per record kind whose slots hold handles to interned
//! records (see [`crate::server`]) — and hands out borrowed
//! [`ReplicaServer`] / [`ReplicaServerMut`] views onto one server at a
//! time.  On top it provides the per-server read/write probes the register
//! protocols fan out over a quorum, failure injection (crashes and
//! Byzantine corruption), and per-server access accounting used to
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
    use crate::diffusion::{self, GossipDelta, GossipPush};
    use crate::register::session;
    use crate::server::tests::{Make, ReferenceSlab, DENSE_LIMIT};
    use crate::server::AnyRecord;
    use crate::timestamp::Timestamp;
    use crate::value::{TaggedValue, Value};
    use pqs_core::quorum::Quorum;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// Keys of both slab tiers: four dense ids and two of the sparse tier.
    const VARS: [VariableId; 6] = [0, 1, 2, 3, DENSE_LIMIT, u64::MAX / 3];

    /// Each of `n` servers with probability 0.4.
    fn some(rng: &mut ChaCha8Rng, n: u32) -> Vec<ServerId> {
        (0..n)
            .filter(|_| rng.gen_bool(0.4))
            .map(ServerId::new)
            .collect()
    }

    /// What one [`random_step`] did to a cluster's stores.
    enum Mutation<R> {
        /// Each `(server, key, record)` was offered: by a bare merge
        /// (`bare`), which stores whatever the server's behaviour, or by a
        /// probe or a gossip delivery, which stores only at a correct one.
        Offers {
            bare: bool,
            offers: Vec<(ServerId, VariableId, R)>,
        },
        /// Behaviours changed and no record moved.
        Behave,
        /// The server joined: its records are wiped.
        Join(ServerId),
    }

    /// One random call of a public mutator of `c`'s stores at keys of
    /// [`VARS`], over servers of every behaviour.  Record counters creep up
    /// with `step`, so records keep arriving both older and fresher than
    /// what their receivers hold, and every step writes its own value, so
    /// distinct values meet under one timestamp.
    fn random_step<R: Make>(c: &mut Cluster, rng: &mut ChaCha8Rng, step: u64) -> Mutation<R> {
        const BEHAVIORS: [Behavior; 4] = [
            Behavior::Correct,
            Behavior::Crashed,
            Behavior::ByzantineForge,
            Behavior::ByzantineStale,
        ];
        let n = c.len() as u32;
        let id = ServerId::new(rng.gen_range(0..n));
        let other = ServerId::new(rng.gen_range(0..n));
        let var = VARS[rng.gen_range(0..VARS.len())];
        let counter = |rng: &mut ChaCha8Rng| rng.gen_range(1..step / 8 + 3);
        let record = R::make(step, counter(rng));
        let probed = |offers: Vec<_>| Mutation::Offers {
            bare: false,
            offers,
        };
        // Joins wipe whole servers, so they come rarely.
        let op = if rng.gen_bool(0.03) {
            10
        } else {
            rng.gen_range(0..10)
        };
        match op {
            0 => {
                c.server_mut(id).merge(var, &record);
                Mutation::Offers {
                    bare: true,
                    offers: vec![(id, var, record)],
                }
            }
            1 => {
                c.probe_write(id, var, &record);
                probed(vec![(id, var, record)])
            }
            2 => {
                session::apply_write(c, id, var, &record.clone().into());
                probed(vec![(id, var, record)])
            }
            3 => {
                // A whole write: one record to a quorum.
                let quorum = some(rng, n);
                for &to in &quorum {
                    c.probe_write(to, var, &record);
                }
                probed(
                    quorum
                        .into_iter()
                        .map(|to| (to, var, record.clone()))
                        .collect(),
                )
            }
            4 => {
                let push = GossipPush {
                    from: other,
                    to: id,
                    variable: var,
                    record: record.clone().into(),
                };
                diffusion::deliver(c, &push);
                probed(vec![(id, var, record)])
            }
            5 => {
                let mut offers = Vec::new();
                for v in VARS {
                    if rng.gen_bool(0.5) {
                        offers.push((id, v, R::make(step, counter(rng))));
                    }
                }
                let records: Vec<(VariableId, AnyRecord)> = (offers.iter())
                    .map(|(_, v, r)| (*v, r.clone().into()))
                    .collect();
                let delta = GossipDelta {
                    from: other,
                    to: id,
                    records,
                };
                diffusion::deliver_delta(c, &delta);
                probed(offers)
            }
            6 => {
                c.set_behavior(id, BEHAVIORS[rng.gen_range(0..4usize)]);
                Mutation::Behave
            }
            7 => {
                c.crash_all(some(rng, n));
                Mutation::Behave
            }
            8 => {
                let byzantine = BEHAVIORS[rng.gen_range(2..4usize)];
                c.corrupt_all(some(rng, n), byzantine);
                Mutation::Behave
            }
            9 => {
                // Every server recovers, so writes keep reaching correct
                // quorum members.
                c.corrupt_all(c.universe().servers(), Behavior::Correct);
                Mutation::Behave
            }
            _ => {
                c.join_server(id);
                Mutation::Join(id)
            }
        }
    }

    /// The premise the simulator's plan-time settlement of covered pushes
    /// rests on: store-if-fresher is a monotone join, so no mutator of a
    /// cluster's stores ever lowers a stored timestamp except
    /// [`Cluster::join_server`], which wipes its server.  Random sequences
    /// of every public mutator, over servers of every behaviour, for both
    /// record kinds.
    #[test]
    fn stored_timestamps_fall_only_at_a_join() {
        fn check<R: Make>(seed: u64) {
            let universe = Universe::new(6);
            let mut c = Cluster::new(universe);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let slots = |c: &Cluster| -> Vec<(ServerId, VariableId, Timestamp)> {
                let held = universe.servers().flat_map(|id| VARS.map(|v| (id, v)));
                held.map(|(id, v)| (id, v, c.server(id).stored_timestamp::<R>(v)))
                    .collect()
            };
            let (mut rises, mut wipes) = (0, 0);
            for step in 0..600 {
                let before = slots(&c);
                let joined = match random_step::<R>(&mut c, &mut rng, step) {
                    Mutation::Join(id) => Some(id),
                    _ => None,
                };
                for ((holder, var, was), (_, _, is)) in before.into_iter().zip(slots(&c)) {
                    rises += u32::from(is > was);
                    wipes += u32::from(is < was);
                    assert!(
                        is >= was || (joined == Some(holder) && is == Timestamp::ZERO),
                        "step {step}: a mutator lowered {holder:?}'s key {var} from {was:?} to {is:?}",
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

    /// The interned slabs against the slab they replaced
    /// ([`ReferenceSlab`], one `Option<R>` per slot): after every step of
    /// random mutator sequences each server's records, the records of
    /// each key and each server's held ids agree, on both tiers, and the
    /// arena's books balance.  Once every server has joined, no arena
    /// entry is live.
    #[test]
    fn interned_slabs_match_the_reference_slab() {
        fn agrees<R: Make>(c: &Cluster, reference: &ReferenceSlab<R>, step: u64) {
            for id in c.universe().servers() {
                for v in VARS {
                    let want = reference.get(id, v);
                    assert_eq!(
                        c.server(id).record::<R>(v),
                        want,
                        "step {step}: {id:?} key {v}"
                    );
                    assert_eq!(c.key_records::<R>(v).get(id), want, "step {step}: key {v}");
                }
                assert!(
                    c.server(id).held::<R>().eq(reference.held(id)),
                    "step {step}: {id:?}'s held ids"
                );
            }
            c.records.audit::<R>();
        }
        fn check<R: Make>(seed: u64) {
            let universe = Universe::new(6);
            let mut c = Cluster::new(universe);
            let mut reference = ReferenceSlab::<R>::new(c.len());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut shared = 0;
            for step in 0..600 {
                match random_step::<R>(&mut c, &mut rng, step) {
                    Mutation::Offers { bare, offers } => {
                        for (id, v, record) in &offers {
                            if bare || c.server(*id).behavior() == Behavior::Correct {
                                reference.merge(*id, *v, record);
                            }
                        }
                    }
                    Mutation::Behave => {}
                    Mutation::Join(id) => reference.wipe(id),
                }
                agrees(&c, &reference, step);
                let audit = c.records.audit::<R>();
                shared += u32::from(audit.live < audit.occupied);
            }
            assert!(shared > 100, "slots shared an entry after {shared} steps");
            for id in universe.servers() {
                c.join_server(id);
                reference.wipe(id);
            }
            agrees(&c, &reference, 600);
            assert_eq!(
                c.records.audit::<R>().live,
                0,
                "entries outlive every holder"
            );
        }
        for seed in 0..4 {
            check::<TaggedValue>(seed);
            check::<SignedValue>(seed);
        }
    }

    /// 10⁴ ever-fresher writes to random quorums over a few keys, with
    /// the odd stale gossip delivery: the arena frees and reuses its
    /// entries, so it stays no longer than the occupied slots + 1 and a
    /// slab's memory is flat in run length.
    #[test]
    fn ever_fresher_writes_keep_the_arena_as_short_as_its_slots() {
        fn check<R: Make>() {
            let (n, keys) = (8, 3);
            let mut c = Cluster::new(Universe::new(n));
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            for counter in 1..=10_000 {
                let var = rng.gen_range(0..keys);
                let record = R::make(counter, counter);
                for id in some(&mut rng, n) {
                    c.probe_write(id, var, &record);
                }
                let audit = c.records.audit::<R>();
                assert!(
                    audit.entries <= audit.occupied + 1,
                    "write {counter}: {audit:?}"
                );
            }
            assert!(c.records.audit::<R>().occupied > 0);
        }
        check::<TaggedValue>();
        check::<SignedValue>();
    }
}
