//! A universe of replica servers addressed by quorum.
//!
//! [`Cluster`] owns one [`ReplicaServer`] per element of a
//! [`Universe`], provides the per-server read/write probes the register
//! protocols fan out over a quorum, failure injection (crashes and
//! Byzantine corruption), and per-server access accounting used to
//! *measure* load (Definition 2.4) empirically.

use crate::server::{Behavior, Record, ReplicaServer, VariableId};
use pqs_core::quorum::Quorum;
use pqs_core::universe::{ServerId, Universe};
use rand::Rng;
use rand::RngCore;

/// A collection of replica servers covering a universe.
#[derive(Debug, Clone)]
pub struct Cluster {
    universe: Universe,
    servers: Vec<ReplicaServer>,
    access_counts: Vec<u64>,
    accesses: u64,
}

impl Cluster {
    /// Creates a cluster with one correct server per universe element.
    pub fn new(universe: Universe) -> Self {
        let servers = (0..universe.size())
            .map(|i| ReplicaServer::new(ServerId::new(i)))
            .collect();
        Cluster {
            universe,
            servers,
            access_counts: vec![0; universe.size() as usize],
            accesses: 0,
        }
    }

    /// The universe this cluster covers.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Pre-sizes every server's dense record stores for a key space of
    /// `keys` variables ([`ReplicaServer::reserve_variables`] per
    /// server) — a capacity hint the simulation drivers apply once at
    /// start-up so the hot path never reallocates.
    pub fn reserve_variables(&mut self, keys: u64) {
        for server in &mut self.servers {
            server.reserve_variables(keys);
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Returns `true` if the cluster has no servers (never the case for a
    /// validly constructed cluster).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Immutable access to a server (for assertions and diffusion).
    pub fn server(&self, id: ServerId) -> &ReplicaServer {
        &self.servers[id.as_usize()]
    }

    /// Mutable access to a server.
    pub fn server_mut(&mut self, id: ServerId) -> &mut ReplicaServer {
        &mut self.servers[id.as_usize()]
    }

    /// Sets the behaviour of a single server.
    pub fn set_behavior(&mut self, id: ServerId, behavior: Behavior) {
        self.servers[id.as_usize()].set_behavior(behavior);
    }

    /// Brings a server (back) into membership with freshly reset record
    /// stores sized for `keys` variables: the joiner comes up correct and
    /// must bootstrap its state through gossip (see
    /// [`ReplicaServer::reset_stores`]).
    pub fn join_server(&mut self, id: ServerId, keys: u64) {
        let server = self.server_mut(id);
        server.reset_stores(keys);
        server.set_behavior(Behavior::Correct);
    }

    /// Crashes every server in `ids`.
    pub fn crash_all<I: IntoIterator<Item = ServerId>>(&mut self, ids: I) {
        for id in ids {
            self.set_behavior(id, Behavior::Crashed);
        }
    }

    /// Crashes each server independently with probability `p`
    /// (the failure model of Definition 2.6); returns how many crashed.
    pub fn crash_independently(&mut self, rng: &mut dyn RngCore, p: f64) -> usize {
        let p = p.clamp(0.0, 1.0);
        let mut crashed = 0;
        for i in 0..self.servers.len() {
            if rng.gen_bool(p) {
                self.servers[i].set_behavior(Behavior::Crashed);
                crashed += 1;
            }
        }
        crashed
    }

    /// Makes every server in `ids` Byzantine with the given behaviour.
    pub fn corrupt_all<I: IntoIterator<Item = ServerId>>(&mut self, ids: I, behavior: Behavior) {
        for id in ids {
            self.set_behavior(id, behavior);
        }
    }

    /// Restores every server to correct behaviour (state is kept).
    pub fn heal_all(&mut self) {
        for s in &mut self.servers {
            s.set_behavior(Behavior::Correct);
        }
    }

    /// The set of servers currently exhibiting Byzantine behaviour.
    pub fn byzantine_set(&self) -> Quorum {
        Quorum::from_servers(
            self.universe,
            self.servers
                .iter()
                .filter(|s| s.behavior().is_byzantine())
                .map(|s| s.id()),
        )
        .expect("server ids are in range")
    }

    /// The set of currently crashed servers.
    pub fn crashed_set(&self) -> Quorum {
        Quorum::from_servers(
            self.universe,
            self.servers
                .iter()
                .filter(|s| s.behavior() == Behavior::Crashed)
                .map(|s| s.id()),
        )
        .expect("server ids are in range")
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
        self.servers[id.as_usize()].handle_read(var)
    }

    /// Sends a write of `record` to a single server; returns `true` if it
    /// acknowledged.
    pub fn probe_write<R: Record>(&mut self, id: ServerId, var: VariableId, record: &R) -> bool {
        self.note_access(id);
        self.servers[id.as_usize()].handle_write(var, record)
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

    /// Resets the access accounting (e.g. after a warm-up phase).
    pub fn reset_access_counts(&mut self) {
        self.access_counts.iter_mut().for_each(|c| *c = 0);
        self.accesses = 0;
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
    use rand::SeedableRng;
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
        assert!(c.byzantine_set().is_empty());
        assert!(c.crashed_set().is_empty());
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
        let mut c2 = c.clone();
        c2.reset_access_counts();
        assert_eq!(c2.total_accesses(), 0);
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
        assert_eq!(c.crashed_set().len(), 2);
        let q = Quorum::from_indices(u, [0u32, 1, 2]).unwrap();
        assert_eq!(write_all(&mut c, &q, &tv(1, 1)), 1);
        assert_eq!(read_all::<TaggedValue>(&mut c, &q).len(), 1);
        // Silent servers were still accessed, once per probe.
        assert_eq!(c.access_counts()[..3], [2, 2, 2]);
        c.heal_all();
        assert_eq!(read_all::<TaggedValue>(&mut c, &q).len(), 3);
    }

    #[test]
    fn independent_crashes_follow_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut total = 0usize;
        for _ in 0..200 {
            let mut c = Cluster::new(Universe::new(50));
            total += c.crash_independently(&mut rng, 0.3);
        }
        let avg = total as f64 / 200.0;
        assert!((avg - 15.0).abs() < 1.5, "avg={avg}");
    }

    #[test]
    fn byzantine_set_tracks_corruption() {
        let u = Universe::new(6);
        let mut c = Cluster::new(u);
        c.corrupt_all(
            [ServerId::new(1), ServerId::new(4)],
            Behavior::ByzantineForge,
        );
        let b = c.byzantine_set();
        assert_eq!(b.len(), 2);
        assert!(b.contains(ServerId::new(1)));
        assert!(b.contains(ServerId::new(4)));
        assert!(c.crashed_set().is_empty());
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
}
