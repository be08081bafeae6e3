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
//! Messages in flight travel through the deterministic
//! [`EventQueue`](crate::time::EventQueue) of the world that owns their
//! variable; the accounting the reports need (processed-event counts, the
//! in-flight gauge) is order-free, so the worlds' sums merge into the same
//! report whatever the layout (see [`crate::metrics`]).
//!
//! # Event vocabulary
//!
//! An [`Event`] is a message in flight: it goes through the queue.  What
//! is known before the run starts — the operations' arrivals, the crash
//! and recovery schedule and the membership schedule — is not an event: a
//! world draws its keys' arrivals lazily and walks the failure plan's two
//! schedules with cursors beside the queue head, and steps them directly.  The op
//! events name their operation by its slot in the world's op slab
//! ([`PendingSlab`]), which the operation holds from its arrival until it
//! is done and its last probe reply has landed.
//!
//! * [`Event::ProbeReply`] — the round trip to one server completes.  The
//!   server's behaviour is evaluated *now*, not at the operation's start:
//!   a server that crashed mid-flight simply fails to answer.
//! * [`Event::OpTimeout`] — the per-operation timer fires; the attempt is
//!   cut short (condense what arrived, or resample a fresh probe set).
//! * [`Event::RetryAttempt`] — an exponentially backed-off retry becomes
//!   due and starts its attempt on a fresh probe set.
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
use std::ops::{Index, IndexMut};

/// Identifier of one simulated client operation: its arrival count in its
/// world.  It only tells a slot's occupant from an earlier one, so a stale
/// timeout or retry can be recognised.
pub type OpId = u64;

/// A message in flight in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The round trip of one probe completes at the client.  Every probe
    /// an attempt sends is counted on its operation's slot until its reply
    /// lands, so the slot still holds the probe's operation when it does.
    ProbeReply {
        /// Slot of the operation's state in its world's op slab.
        slot: u64,
        /// Which attempt of the operation sent the probe; replies of
        /// abandoned attempts still touch the server but no longer feed the
        /// session.
        attempt: u32,
        /// The probed server.
        server: ServerId,
    },
    /// The per-attempt timeout fires.  Nothing holds the slot for it: the
    /// operation may have finished, and its slot may hold another
    /// operation by now, so the event names its operation too and is
    /// ignored unless the slot still holds that operation, unfinished, at
    /// this attempt.
    OpTimeout {
        /// Slot of the operation's state when the timer was armed.
        slot: u64,
        /// The operation, checked against the slot's occupant.
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
        /// Slot of the operation's state when the retry was scheduled.
        slot: u64,
        /// The operation, checked against the slot's occupant as a
        /// timeout's is.
        op: OpId,
        /// The attempt to start (the op's attempt counter at scheduling
        /// time; a stale event — e.g. after the op finished — is ignored).
        attempt: u32,
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

/// A reusable slot-indexed store for in-flight payloads: gossip messages,
/// and the state of the operations in flight.
///
/// Gossip and op events carry a `u64` handle instead of their payload so
/// [`Event`] stays small and `Copy`.  A gossip payload's variable-length
/// part (a digest's entries, a delta's records) is a buffer drawn from a
/// [`BufferPool`] and returned to it after delivery.  The slab is a plain
/// `Vec<Option<T>>` plus a free list: `insert` is a push or a free-slot
/// reuse, `take` is an indexed load, and the backing storage reaches the
/// high-water mark of in-flight payloads once and is reused for the rest
/// of the run.
///
/// Slot reuse is safe because every scheduled gossip event is delivered
/// exactly once: a slot is freed only by the `take` of its own delivery,
/// so no two in-flight messages ever share a slot.  An operation's slot is
/// freed once the operation is done and its last probe reply has landed;
/// the events that can outlive that (timeouts, retries) check the slot's
/// occupant.  Slots never influence event ordering (the queue orders by
/// time and insertion sequence), so switching ids to slots is invisible
/// to the simulated trajectory.
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

    /// The payload at `slot` (`None` if the slot is vacant or out of
    /// range).
    pub fn get(&self, slot: u64) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Slots ever used: the high-water mark of in-flight payloads.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
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

impl<T> Index<u64> for PendingSlab<T> {
    type Output = T;

    /// The payload at an occupied `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant or out of range.
    fn index(&self, slot: u64) -> &T {
        self.get(slot).expect("an occupied slab slot")
    }
}

impl<T> IndexMut<u64> for PendingSlab<T> {
    /// The payload at an occupied `slot`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant or out of range.
    fn index_mut(&mut self, slot: u64) -> &mut T {
        self.slots
            .get_mut(slot as usize)
            .and_then(Option::as_mut)
            .expect("an occupied slab slot")
    }
}

/// A free list of cleared buffers for in-flight payloads.
///
/// A message takes a buffer when it is sent and gives it back once it is
/// delivered or dropped, so after the run's high-water mark of in-flight
/// messages (each buffer at its largest payload) sending allocates
/// nothing.
#[derive(Debug)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        BufferPool { free: Vec::new() }
    }
}

impl<T> BufferPool<T> {
    /// An empty buffer: a recycled one, or a fresh one if none is free.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns `buffer` to the pool, emptied and with its capacity kept.
    pub fn give(&mut self, mut buffer: Vec<T>) {
        buffer.clear();
        self.free.push(buffer);
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

    #[test]
    fn buffer_pool_recycles_cleared_buffers() {
        let mut pool: BufferPool<u32> = BufferPool::default();
        let mut a = pool.take();
        a.extend([1, 2, 3]);
        let capacity = a.capacity();
        pool.give(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), capacity, "the same allocation comes back");
        assert_eq!(
            pool.take().capacity(),
            0,
            "an empty pool hands out fresh buffers"
        );
    }
}
