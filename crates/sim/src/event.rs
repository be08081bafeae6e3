//! The discrete-event core of the simulator.
//!
//! The seed simulator applied each quorum access atomically at its arrival
//! instant and *derived* a latency afterwards; nothing could interleave.
//! This module provides the machinery for the real thing: every
//! client–server exchange is its own scheduled [`Event`], so many client
//! sessions are in flight at once, server state changes in message-delivery
//! order, and crash/recovery transitions from a
//! [`FailurePlan`](crate::failure::FailurePlan) take effect *between* the
//! probes of an ongoing operation.
//!
//! Events travel through the deterministic
//! [`EventQueue`](crate::time::EventQueue) of the world that owns their
//! variable; the accounting the reports need (processed-event counts, the
//! time-weighted in-flight gauge) is rebuilt canonically when the worlds
//! merge (see [`crate::metrics`]).
//!
//! # Event vocabulary
//!
//! * [`Event::OpArrival`] — a client starts an operation: sample a probe
//!   set, send one message per probed server.
//! * [`Event::ProbeReply`] — the round trip to one server completes.  The
//!   server's behaviour is evaluated *now*, not at the operation's start:
//!   a server that crashed mid-flight simply fails to answer.
//! * [`Event::OpTimeout`] — the per-operation timer fires; the attempt is
//!   cut short (condense what arrived, or resample a fresh probe set).
//! * [`Event::RetryAttempt`] — an exponentially backed-off retry becomes
//!   due and starts its attempt on a fresh probe set.
//! * [`Event::FailureTransition`] — a scheduled crash or recovery flips a
//!   server's behaviour.
//! * [`Event::GossipPush`] — one server-to-server gossip message arrives
//!   at its receiver after its own latency draw, competing for simulated
//!   time with the foreground client probes.  (The periodic round that
//!   plans the messages is not an event: rounds are the spine's barriers,
//!   see [`DiffusionPolicy`](crate::runner::DiffusionPolicy).)
//! * [`Event::GossipDigest`] / [`Event::GossipDelta`] — the two legs of a
//!   digest/delta anti-entropy exchange
//!   ([`GossipMode::DigestDelta`](crate::runner::GossipMode)): a per-key
//!   version summary travels out, and only the records its sender provably
//!   lacks travel back.

use pqs_core::universe::ServerId;

/// Identifier of one simulated client operation (its index in the generated
/// workload trace).
pub type OpId = u64;

/// Everything that can happen in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A client operation arrives and starts its first attempt.
    OpArrival {
        /// The operation.
        op: OpId,
    },
    /// The round trip of one probe completes at the client.
    ProbeReply {
        /// The operation the probe belongs to.
        op: OpId,
        /// Which attempt of the operation sent the probe; replies of
        /// abandoned attempts still touch the server but no longer feed the
        /// session.
        attempt: u32,
        /// The probed server.
        server: ServerId,
    },
    /// The per-attempt timeout fires.
    OpTimeout {
        /// The operation.
        op: OpId,
        /// The attempt the timer was armed for.
        attempt: u32,
    },
    /// A backed-off retry becomes due: the operation starts the given
    /// attempt on a fresh probe set.  Only scheduled when
    /// [`SimConfig::retry_backoff`](crate::runner::SimConfig::retry_backoff)
    /// is positive — with the default immediate-retry policy the next
    /// attempt starts inline and no such event exists.
    RetryAttempt {
        /// The operation.
        op: OpId,
        /// The attempt to start (the op's attempt counter at scheduling
        /// time; a stale event — e.g. after the op finished — is ignored).
        attempt: u32,
    },
    /// A scheduled crash (`crash == true`) or recovery of one server.
    FailureTransition {
        /// The server.
        server: ServerId,
        /// `true` for a crash, `false` for a recovery.
        crash: bool,
    },
    /// A scheduled membership transition: a joining server comes up
    /// correct with freshly reset record stores (it bootstraps through
    /// gossip); a leaving server goes dark like a crash.  When the
    /// schedule is non-empty the engine also recomputes the probe margin
    /// online against the ε budget for the new cluster size.
    MembershipTransition {
        /// The server.
        server: ServerId,
        /// `true` for a join, `false` for a leave.
        join: bool,
    },
    /// One server-to-server gossip push arrives at its receiver.  The
    /// payload (sender, receiver, variable, record) lives in the engine's
    /// pending-message slab ([`PendingSlab`]) under this slot; the
    /// receiver's behaviour is evaluated at delivery time, so a server that
    /// crashed while the message was in flight simply drops it.
    GossipPush {
        /// Slot of the pending push being delivered.
        push: u64,
    },
    /// A gossip *digest* — a per-key version summary of its sender's store —
    /// arrives at its receiver (digest/delta mode,
    /// [`GossipMode::DigestDelta`](crate::runner::GossipMode)).  The
    /// receiver, evaluated at delivery time, answers with a
    /// [`Event::GossipDelta`] carrying only the records the digest's sender
    /// provably lacks; crashed and Byzantine receivers never answer.
    GossipDigest {
        /// Slot of the pending digest being delivered (in the engine's
        /// [`PendingSlab`]; the digest's global id, used for cross-shard
        /// delta accounting, travels inside the slab entry).
        digest: u64,
    },
    /// A gossip *delta* — the records a digest's sender provably lacked —
    /// arrives back at that sender, which merges each record by freshest
    /// timestamp (behaviour evaluated at delivery time).
    GossipDelta {
        /// Slot of the pending delta being delivered.
        delta: u64,
    },
}

/// A reusable slot-indexed store for in-flight gossip payloads.
///
/// Gossip events carry a `u64` handle instead of their (heap-allocated)
/// payload so [`Event`] stays small and `Copy`.  The slab is a plain
/// `Vec<Option<T>>` plus a free list: `insert` is a push or a free-slot
/// reuse, `take` is an indexed load, and the backing storage reaches the
/// high-water mark of in-flight messages once and is reused for the rest
/// of the run.
///
/// Slot reuse is safe because every scheduled gossip event is delivered
/// exactly once: a slot is freed only by the `take` of its own delivery,
/// so no two in-flight messages ever share a slot.  Slots never influence
/// event ordering (the queue orders by time and insertion sequence), so
/// switching ids to slots is invisible to the simulated trajectory.
#[derive(Debug)]
pub struct PendingSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
}

impl<T> Default for PendingSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        PendingSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value`, returning the slot to embed in its delivery event.
    pub fn insert(&mut self, value: T) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u64
            }
        }
    }

    /// Removes and returns the payload at `slot` (`None` if the slot is
    /// vacant or out of range), freeing the slot for reuse.
    pub fn take(&mut self, slot: u64) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take();
        if value.is_some() {
            self.free.push(slot);
        }
        value
    }

    /// Number of occupied slots (in-flight payloads).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` if no payload is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_slab_reuses_slots_without_aliasing() {
        let mut slab: PendingSlab<&str> = PendingSlab::new();
        assert!(slab.is_empty());
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.take(a), Some("a"));
        // A vacated or out-of-range slot yields nothing.
        assert_eq!(slab.take(a), None);
        assert_eq!(slab.take(999), None);
        // The freed slot is reused, but never while `b` is still in flight.
        let c = slab.insert("c");
        assert_eq!(c, a);
        assert_ne!(c, b);
        assert_eq!(slab.take(b), Some("b"));
        assert_eq!(slab.take(c), Some("c"));
        assert!(slab.is_empty());
    }
}
