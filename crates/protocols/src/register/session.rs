//! Incremental (session) forms of the register protocols.
//!
//! The quorum-granularity `read`/`write` methods on the registers treat one
//! quorum access as an atomic exchange.  Real deployments — and the
//! discrete-event simulator in `pqs-sim` — instead send one message per
//! server and make progress as replies trickle back.  This module provides
//! that decomposition:
//!
//! * [`ProbeSet`] — the servers one operation attempt contacts: a quorum
//!   drawn by the system's access strategy plus an optional `margin` of
//!   extra servers drawn uniformly from outside it.  The operation completes
//!   on the **first `q` responders**, whichever members of the probe set
//!   they happen to be, trading a little extra load for latency (the
//!   completion time drops from the maximum of `q` per-server latencies to
//!   the `q`-th order statistic of `q + margin`) and availability (crashed
//!   quorum members are masked by live spares).
//! * [`ReadSession`] / [`WriteSession`] — per-operation state machines: the
//!   caller sends one probe at a time ([`ReadSession::probe`],
//!   [`apply_write`] + [`WriteSession::on_ack`]) until the session reports
//!   [`SessionStatus::Complete`], then condenses the collected replies with
//!   [`ReadSession::finish`] / [`WriteSession::finish`].  A session that
//!   never gathers `q` replies (crashes, timeouts) can still be finished
//!   early; it condenses whatever arrived, exactly like the partial-quorum
//!   semantics of the atomic methods.
//!
//! Because the first `q` responders of a uniformly drawn probe set are
//! themselves (conditioned on the responder set) a uniformly distributed
//! `q`-subset of it, the ε-intersection analysis of the paper degrades only
//! marginally under small margins; the simulator's validation experiments
//! measure the effect directly.

use crate::cluster::Cluster;
use crate::crypto::{KeyRegistry, SignedValue};
use crate::server::{AnyRecord, VariableId};
use crate::timestamp::Timestamp;
use crate::value::TaggedValue;
use crate::ProtocolError;
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_math::sampling::sample_k_of_n_excluding;
use rand::RngCore;

/// The servers contacted by one operation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSet {
    /// Servers to contact, quorum members first, margin spares after.
    pub servers: Vec<ServerId>,
    /// Number of replies that completes the operation (the quorum size `q`).
    pub needed: usize,
}

impl ProbeSet {
    /// Number of servers this attempt contacts (`q + margin`).
    pub fn probed(&self) -> usize {
        self.servers.len()
    }
}

/// Draws the probe set for one operation attempt: a quorum sampled by the
/// system's access strategy plus `margin` distinct extra servers drawn
/// uniformly from outside the quorum (clamped to the universe size).
pub fn probe_set<S: QuorumSystem + ?Sized>(
    system: &S,
    rng: &mut dyn RngCore,
    margin: usize,
) -> ProbeSet {
    let quorum = system.sample_quorum(rng);
    let needed = quorum.len();
    let mut servers = quorum.to_vec();
    let n = system.universe().size() as u64;
    let margin = (margin as u64).min(n - servers.len() as u64);
    if margin > 0 {
        let members: Vec<u64> = servers.iter().map(|s| s.index() as u64).collect();
        let extras = sample_k_of_n_excluding(rng, margin, n, &members)
            .expect("margin clamped to the complement size");
        servers.extend(extras.into_iter().map(|i| ServerId::new(i as u32)));
    }
    ProbeSet { servers, needed }
}

/// Whether a session still wants more replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Fewer than `q` replies so far; keep feeding.
    InFlight,
    /// The session has its `q` replies (or acks); finish it.
    Complete,
}

/// How a [`ReadSession`] condenses its collected replies — one variant per
/// register protocol.
#[derive(Debug, Clone)]
pub enum ReadMode {
    /// Section 3.1: highest timestamp wins.
    Safe,
    /// Section 4: discard replies whose signature does not verify against
    /// the registry, then highest timestamp.
    Dissemination(KeyRegistry),
    /// Section 5: only value–timestamp pairs reported by at least
    /// `threshold` servers are considered.
    Masking {
        /// The read-acceptance threshold `k`.
        threshold: usize,
    },
}

/// An in-progress read operation: collects one reply per probed server until
/// `q` servers have responded.
#[derive(Debug)]
pub struct ReadSession {
    mode: ReadMode,
    needed: usize,
    plain: Vec<TaggedValue>,
    signed: Vec<SignedValue>,
}

impl ReadSession {
    /// Creates a session that completes after `needed` replies, condensing
    /// them according to `mode`.  The reply buffer the mode uses is sized
    /// for `needed` replies up front, so feeding them never reallocates.
    pub fn new(mode: ReadMode, needed: usize) -> Self {
        let needed = needed.max(1);
        let (plain, signed) = match mode {
            ReadMode::Dissemination(_) => (Vec::new(), Vec::with_capacity(needed)),
            ReadMode::Safe | ReadMode::Masking { .. } => (Vec::with_capacity(needed), Vec::new()),
        };
        ReadSession {
            mode,
            needed,
            plain,
            signed,
        }
    }

    /// Number of replies that completes the session.
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// Number of servers that have replied so far.
    pub fn responders(&self) -> usize {
        self.plain.len() + self.signed.len()
    }

    /// `true` once `needed` replies have arrived.
    pub fn is_complete(&self) -> bool {
        self.responders() >= self.needed
    }

    /// Sends this read's probe for `var` to `server` and feeds the reply,
    /// asking for the record kind the session's mode condenses — the one
    /// point where a read's record kind becomes a type.  A server that does
    /// not answer (crashed) leaves the session as it was.
    pub fn probe(
        &mut self,
        cluster: &mut Cluster,
        server: ServerId,
        var: VariableId,
    ) -> SessionStatus {
        match self.mode {
            ReadMode::Dissemination(_) => {
                if let Some(reply) = cluster.probe_read(server, var) {
                    self.on_signed_reply(server, reply);
                }
            }
            ReadMode::Safe | ReadMode::Masking { .. } => {
                if let Some(reply) = cluster.probe_read(server, var) {
                    self.on_plain_reply(server, reply);
                }
            }
        }
        self.status()
    }

    /// Feeds one plain reply (safe and masking modes).
    pub fn on_plain_reply(&mut self, _from: ServerId, reply: TaggedValue) -> SessionStatus {
        self.plain.push(reply);
        self.status()
    }

    /// Feeds one signed reply (dissemination mode).
    pub fn on_signed_reply(&mut self, _from: ServerId, reply: SignedValue) -> SessionStatus {
        self.signed.push(reply);
        self.status()
    }

    fn status(&self) -> SessionStatus {
        if self.is_complete() {
            SessionStatus::Complete
        } else {
            SessionStatus::InFlight
        }
    }

    /// Condenses the replies collected so far into the protocol's read
    /// result.  May be called before the session is complete (timeout,
    /// exhausted probe set): it then behaves exactly like the atomic read
    /// over the partial reply set.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuorumUnavailable`] if no server replied at
    /// all.
    pub fn finish(&self) -> crate::Result<Option<TaggedValue>> {
        if self.responders() == 0 {
            return Err(ProtocolError::QuorumUnavailable {
                contacted: self.needed,
                responded: 0,
            });
        }
        Ok(match &self.mode {
            ReadMode::Safe => self
                .plain
                .iter()
                .max_by(|a, b| a.timestamp.cmp(&b.timestamp))
                .filter(|tv| tv.timestamp != Timestamp::ZERO)
                .cloned(),
            ReadMode::Dissemination(registry) => self
                .signed
                .iter()
                .filter(|sv| registry.verifies(sv))
                .max_by(|a, b| a.tagged.timestamp.cmp(&b.tagged.timestamp))
                .map(|sv| sv.tagged.clone()),
            ReadMode::Masking { threshold } => {
                // Equal pairs sort next to each other, so a run's length is
                // its vote count.  The order — timestamp, then value bytes —
                // also settles which of two distinct pairs sharing a
                // timestamp wins when both reach the threshold.
                let mut replies: Vec<&TaggedValue> = self.plain.iter().collect();
                replies.sort_unstable_by(|a, b| {
                    (a.timestamp, a.value.as_bytes()).cmp(&(b.timestamp, b.value.as_bytes()))
                });
                replies
                    .chunk_by(|a, b| a == b)
                    .rfind(|votes| {
                        votes.len() >= (*threshold).max(1) && votes[0].timestamp != Timestamp::ZERO
                    })
                    .map(|votes| votes[0].clone())
            }
        })
    }
}

/// Applies one write probe to `server`: pushes the record to the server's
/// replica of `var` and returns whether it acknowledged.
pub fn apply_write(
    cluster: &mut Cluster,
    server: ServerId,
    var: VariableId,
    record: &AnyRecord,
) -> bool {
    match record {
        AnyRecord::Plain(tv) => cluster.probe_write(server, var, tv),
        AnyRecord::Signed(sv) => cluster.probe_write(server, var, sv),
    }
}

/// An in-progress write operation: counts acknowledgements until `q` of the
/// probed servers have acked.
#[derive(Debug)]
pub struct WriteSession {
    timestamp: Timestamp,
    needed: usize,
    probed: usize,
    acks: usize,
}

impl WriteSession {
    /// Creates a session for a write issued under `timestamp`, sent to
    /// `probed` servers and complete after `needed` acknowledgements.
    pub fn new(timestamp: Timestamp, needed: usize, probed: usize) -> Self {
        WriteSession {
            timestamp,
            needed: needed.max(1),
            probed,
            acks: 0,
        }
    }

    /// The timestamp the write was issued under.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Acknowledgements received so far.
    pub fn acks(&self) -> usize {
        self.acks
    }

    /// Number of acknowledgements that completes the session.
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// `true` once `needed` servers have acknowledged.
    pub fn is_complete(&self) -> bool {
        self.acks >= self.needed
    }

    /// Feeds one server's response: `acked == false` is a probed server
    /// that resolved without storing the value (crashed); it counts toward
    /// nothing but lets the caller's outstanding-probe accounting drain.
    pub fn on_ack(&mut self, acked: bool) -> SessionStatus {
        if acked {
            self.acks += 1;
        }
        if self.is_complete() {
            SessionStatus::Complete
        } else {
            SessionStatus::InFlight
        }
    }

    /// Produces the write receipt for the acknowledgements gathered so far.
    /// Like [`ReadSession::finish`], this may be called on a partially
    /// complete session: a write that reached at least one server counts as
    /// (weakly) completed, matching the atomic method's semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuorumUnavailable`] if no server
    /// acknowledged: the value is stored nowhere and the write had no
    /// effect.
    pub fn finish(&self) -> crate::Result<super::WriteReceipt> {
        if self.acks == 0 {
            return Err(ProtocolError::QuorumUnavailable {
                contacted: self.probed,
                responded: 0,
            });
        }
        Ok(super::WriteReceipt {
            timestamp: self.timestamp,
            acks: self.acks,
            quorum_size: self.needed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::SigningKey;
    use crate::value::Value;
    use pqs_core::probabilistic::EpsilonIntersecting;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tv(v: u64, c: u64) -> TaggedValue {
        TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1))
    }

    #[test]
    fn probe_set_contains_quorum_plus_distinct_margin() {
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let probe = probe_set(&sys, &mut rng, 5);
        assert_eq!(probe.needed, 8);
        assert_eq!(probe.probed(), 13);
        let mut ids: Vec<u32> = probe.servers.iter().map(|s| s.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13, "probe set members must be distinct");
        // Margin is clamped to the complement of the quorum.
        let huge = probe_set(&sys, &mut rng, 1000);
        assert_eq!(huge.probed(), 64);
    }

    #[test]
    fn read_session_completes_on_first_q_replies() {
        let mut s = ReadSession::new(ReadMode::Safe, 3);
        assert_eq!(s.needed(), 3);
        assert!(!s.is_complete());
        assert_eq!(
            s.on_plain_reply(ServerId::new(0), tv(1, 1)),
            SessionStatus::InFlight
        );
        assert_eq!(
            s.on_plain_reply(ServerId::new(1), tv(2, 2)),
            SessionStatus::InFlight
        );
        assert_eq!(
            s.on_plain_reply(ServerId::new(2), tv(1, 1)),
            SessionStatus::Complete
        );
        assert_eq!(s.responders(), 3);
        assert_eq!(s.finish().unwrap(), Some(tv(2, 2)));
    }

    #[test]
    fn safe_read_session_with_only_initial_records_returns_none() {
        let mut s = ReadSession::new(ReadMode::Safe, 2);
        s.on_plain_reply(ServerId::new(0), TaggedValue::initial());
        s.on_plain_reply(ServerId::new(1), TaggedValue::initial());
        assert_eq!(s.finish().unwrap(), None);
    }

    #[test]
    fn empty_sessions_report_unavailable() {
        let s = ReadSession::new(ReadMode::Safe, 2);
        assert!(matches!(
            s.finish(),
            Err(ProtocolError::QuorumUnavailable { responded: 0, .. })
        ));
        let w = WriteSession::new(Timestamp::new(1, 1), 2, 2);
        assert!(matches!(
            w.finish(),
            Err(ProtocolError::QuorumUnavailable { responded: 0, .. })
        ));
    }

    #[test]
    fn masking_session_applies_threshold() {
        let mut s = ReadSession::new(ReadMode::Masking { threshold: 2 }, 4);
        s.on_plain_reply(ServerId::new(0), tv(9, 9)); // lone (forged-like) reply
        s.on_plain_reply(ServerId::new(1), tv(5, 5));
        s.on_plain_reply(ServerId::new(2), tv(5, 5));
        s.on_plain_reply(ServerId::new(3), tv(4, 4));
        assert!(s.is_complete());
        assert_eq!(s.finish().unwrap(), Some(tv(5, 5)));
    }

    #[test]
    fn masking_tie_on_timestamp_is_settled_by_value_bytes() {
        // Two distinct pairs share a timestamp and both reach the
        // threshold: the answer must not depend on the process's hash seed
        // or on arrival order.
        let low = TaggedValue::new(Value::from_u64(1), Timestamp::new(7, 1));
        let high = TaggedValue::new(Value::from_u64(2), Timestamp::new(7, 1));
        for round in 0..100 {
            let mut s = ReadSession::new(ReadMode::Masking { threshold: 2 }, 5);
            let mut replies = vec![low.clone(), high.clone(), low.clone(), high.clone()];
            replies.rotate_left(round % 4);
            s.on_plain_reply(ServerId::new(9), tv(3, 3));
            for (i, reply) in replies.into_iter().enumerate() {
                s.on_plain_reply(ServerId::new(i as u32), reply);
            }
            assert_eq!(s.finish().unwrap(), Some(high.clone()), "round {round}");
        }
    }

    #[test]
    fn dissemination_session_discards_unverifiable_replies() {
        let mut registry = KeyRegistry::new();
        let key: SigningKey = registry.register(1, 7);
        let good = SignedValue::create(&key, Value::from_u64(10), Timestamp::new(2, 1));
        let bogus_key = SigningKey::derive(9, 999);
        let forged = SignedValue::create(&bogus_key, Value::from_u64(666), Timestamp::new(99, 9));
        let mut s = ReadSession::new(ReadMode::Dissemination(registry), 2);
        s.on_signed_reply(ServerId::new(0), forged);
        s.on_signed_reply(ServerId::new(1), good.clone());
        assert_eq!(s.finish().unwrap(), Some(good.tagged));
    }

    #[test]
    fn write_session_counts_acks_and_finishes_partially() {
        let mut w = WriteSession::new(Timestamp::new(3, 1), 3, 5);
        assert_eq!(w.timestamp(), Timestamp::new(3, 1));
        assert_eq!(w.on_ack(true), SessionStatus::InFlight);
        assert_eq!(w.on_ack(false), SessionStatus::InFlight);
        assert!(!w.is_complete());
        // Partial finish after one ack: weakly completed.
        let receipt = w.finish().unwrap();
        assert_eq!(receipt.acks, 1);
        assert_eq!(receipt.quorum_size, 3);
        assert_eq!(w.on_ack(true), SessionStatus::InFlight);
        assert_eq!(w.on_ack(true), SessionStatus::Complete);
        assert_eq!(w.acks(), 3);
        assert_eq!(w.needed(), 3);
    }
}
