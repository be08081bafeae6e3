//! The one register client.
//!
//! Sections 4 and 5 keep the Section 3.1 write "as before" and change only
//! whether the pushed pair is self-verifying and how a reader condenses the
//! replies.  [`Register`] is that one protocol; [`RegisterFlavor`] holds the
//! two things that vary.

use super::session::{self, ProbeSet, ReadMode, ReadSession, SessionStatus, WriteSession};
use crate::cluster::Cluster;
use crate::crypto::{KeyRegistry, SignedValue, SigningKey};
use crate::server::{AnyRecord, Record, VariableId};
use crate::timestamp::{Timestamp, TimestampIssuer};
use crate::value::{TaggedValue, Value};
use crate::ClientId;
use pqs_core::system::QuorumSystem;
use rand::RngCore;

/// The result of a write: the timestamp it was issued under and how many
/// servers of the chosen quorum acknowledged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Timestamp attached to the written value.
    pub timestamp: Timestamp,
    /// Number of servers that acknowledged the write.
    pub acks: usize,
    /// Size of the quorum the write was sent to.
    pub quorum_size: usize,
}

/// Which of the paper's three protocols a [`Register`] (or every key of a
/// [`RegisterMap`](super::RegisterMap)) speaks: which record a write pushes
/// and how a read condenses its replies.
#[derive(Debug, Clone)]
pub enum RegisterFlavor {
    /// Section 3.1 safe registers (plain data, crash failures).
    Safe,
    /// Section 4 dissemination registers (self-verifying data): values are
    /// signed under `key` and readers verify against `registry`.
    Dissemination {
        /// The writer's signing key (shared across all variables; each
        /// variable still gets its own timestamp chain).
        key: SigningKey,
        /// Verification material for readers.
        registry: KeyRegistry,
    },
    /// Section 5 masking registers (arbitrary data): readers only accept
    /// value–timestamp pairs reported by at least `threshold` servers.
    Masking {
        /// The read-acceptance threshold `k`.
        threshold: usize,
    },
}

impl RegisterFlavor {
    /// The record a write of `value` under `timestamp` pushes to each
    /// probed server: signed for dissemination, plain otherwise.
    fn record(&self, value: Value, timestamp: Timestamp) -> AnyRecord {
        match self {
            RegisterFlavor::Dissemination { key, .. } => {
                SignedValue::create(key, value, timestamp).into()
            }
            RegisterFlavor::Safe | RegisterFlavor::Masking { .. } => {
                TaggedValue::new(value, timestamp).into()
            }
        }
    }

    /// How a read condenses its replies.
    pub(super) fn read_mode(&self) -> ReadMode {
        match self {
            RegisterFlavor::Safe => ReadMode::Safe,
            RegisterFlavor::Dissemination { registry, .. } => {
                ReadMode::Dissemination(registry.clone())
            }
            RegisterFlavor::Masking { threshold } => ReadMode::Masking {
                threshold: (*threshold).max(1),
            },
        }
    }

    /// The id a client's timestamp chains are issued under: the signing
    /// key's owner where writes are signed, the given `writer` otherwise.
    pub(super) fn writer(&self, writer: ClientId) -> ClientId {
        match self {
            RegisterFlavor::Dissemination { key, .. } => key.owner(),
            RegisterFlavor::Safe | RegisterFlavor::Masking { .. } => writer,
        }
    }

    /// Starts an incremental write of `value` under the next timestamp of
    /// `chain`: the record to push to each probed server plus the session
    /// that tracks acknowledgements (complete at `needed` acks).
    pub(super) fn begin_write(
        &self,
        chain: &mut TimestampIssuer,
        value: Value,
        needed: usize,
        probed: usize,
    ) -> (AnyRecord, WriteSession) {
        let timestamp = chain.next();
        let session = WriteSession::new(timestamp, needed, probed);
        (self.record(value, timestamp), session)
    }
}

/// A client of one replicated variable: writes and reads it through quorums
/// of the given system, in the protocol its [`RegisterFlavor`] names.  The
/// per-protocol constructors are [`SafeRegister::new`](super::SafeRegister::new),
/// [`DisseminationRegister::new`](super::DisseminationRegister::new) and
/// [`MaskingRegister::new`](super::MaskingRegister::new).
#[derive(Debug)]
pub struct Register<'a, S: QuorumSystem + ?Sized> {
    system: &'a S,
    flavor: RegisterFlavor,
    chain: TimestampIssuer,
    variable: VariableId,
    probe_margin: usize,
}

impl<'a, S: QuorumSystem + ?Sized> Register<'a, S> {
    /// Creates a client of `variable` speaking `flavor`, writing as `writer`
    /// (as the signing key's owner for the dissemination flavor).
    pub fn new(
        system: &'a S,
        flavor: RegisterFlavor,
        writer: ClientId,
        variable: VariableId,
    ) -> Self {
        Register {
            system,
            chain: TimestampIssuer::new(flavor.writer(writer)),
            flavor,
            variable,
            probe_margin: 0,
        }
    }

    /// Probes `margin` extra servers beyond the quorum on every operation
    /// and completes on the first `q` responders (first-q-of-probed access).
    /// A margin of 0 (the default) reproduces the classic atomic access.
    pub fn with_probe_margin(mut self, margin: usize) -> Self {
        self.probe_margin = margin;
        self
    }

    /// The configured probe margin.
    pub fn probe_margin(&self) -> usize {
        self.probe_margin
    }

    /// The variable this client operates on.
    pub fn variable(&self) -> VariableId {
        self.variable
    }

    /// The protocol this client speaks.
    pub fn flavor(&self) -> &RegisterFlavor {
        &self.flavor
    }

    /// Draws the servers the next operation attempt should contact: a
    /// quorum by the access strategy plus the configured margin of spares.
    pub fn sample_probe_set(&self, rng: &mut dyn RngCore) -> ProbeSet {
        session::probe_set(self.system, rng, self.probe_margin)
    }

    /// Starts an incremental write: issues a fresh timestamp and returns
    /// the record to push to each probed server plus the session that
    /// tracks acknowledgements (complete at `needed` acks).
    pub fn begin_write(
        &mut self,
        value: Value,
        needed: usize,
        probed: usize,
    ) -> (AnyRecord, WriteSession) {
        self.flavor
            .begin_write(&mut self.chain, value, needed, probed)
    }

    /// Starts an incremental read that completes after `needed` replies and
    /// condenses them by the flavor's rule.
    pub fn begin_read(&self, needed: usize) -> ReadSession {
        ReadSession::new(self.flavor.read_mode(), needed)
    }

    /// Write protocol (Section 3.1, kept "as before" by Sections 4 and 5):
    /// choose a probe set by the access strategy, choose a fresh timestamp,
    /// push the record server by server and stop as soon as `q` servers
    /// acknowledged (with the default margin of 0 this updates every quorum
    /// member, exactly the classic protocol).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuorumUnavailable`](crate::ProtocolError::QuorumUnavailable)
    /// if *no* probed server acknowledged the write (the value is then not
    /// stored anywhere and the write had no effect).
    pub fn write(
        &mut self,
        cluster: &mut Cluster,
        rng: &mut dyn RngCore,
        value: Value,
    ) -> crate::Result<WriteReceipt> {
        let probe = self.sample_probe_set(rng);
        let (record, session) = self.begin_write(value, probe.needed, probe.probed());
        write_quorum(cluster, &probe, self.variable, &record, session)
    }

    /// Read protocol: probe the chosen servers, stop at the first `q`
    /// replies, condense them by the flavor's rule — highest timestamp
    /// (Section 3.1), highest *verifiable* timestamp (Section 4), or highest
    /// timestamp among pairs at least `k` servers vouch for (Section 5).
    ///
    /// Returns `Ok(None)` (≈ ⊥) if no reply qualifies: every reply still
    /// carries the initial record, none verifies, or no pair reaches `k`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuorumUnavailable`](crate::ProtocolError::QuorumUnavailable)
    /// if no probed server replied.
    pub fn read(
        &self,
        cluster: &mut Cluster,
        rng: &mut dyn RngCore,
    ) -> crate::Result<Option<TaggedValue>> {
        let probe = self.sample_probe_set(rng);
        let session = self.begin_read(probe.needed);
        read_quorum(cluster, &probe, self.variable, session)
    }
}

/// One write's quorum access: pushes `record` to the probed servers until
/// the session has its `q` acknowledgements.  The record's kind becomes a
/// type here, ahead of the loop.
pub(super) fn write_quorum(
    cluster: &mut Cluster,
    probe: &ProbeSet,
    var: VariableId,
    record: &AnyRecord,
    mut session: WriteSession,
) -> crate::Result<WriteReceipt> {
    fn push<R: Record>(
        cluster: &mut Cluster,
        probe: &ProbeSet,
        var: VariableId,
        record: &R,
        session: &mut WriteSession,
    ) {
        for &id in &probe.servers {
            let acked = cluster.probe_write(id, var, record);
            if session.on_ack(acked) == SessionStatus::Complete {
                break;
            }
        }
    }
    cluster.note_operation();
    match record {
        AnyRecord::Plain(tv) => push(cluster, probe, var, tv, &mut session),
        AnyRecord::Signed(sv) => push(cluster, probe, var, sv, &mut session),
    }
    session.finish()
}

/// One read's quorum access: probes the chosen servers until the session
/// has its `q` replies, then condenses them.
pub(super) fn read_quorum(
    cluster: &mut Cluster,
    probe: &ProbeSet,
    var: VariableId,
    mut session: ReadSession,
) -> crate::Result<Option<TaggedValue>> {
    cluster.note_operation();
    for &id in &probe.servers {
        if session.probe(cluster, id, var) == SessionStatus::Complete {
            break;
        }
    }
    session.finish()
}
