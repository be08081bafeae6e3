//! Simulation time and the pending-event queue.
//!
//! The future-event list is shaped like the traffic the engine sends.  A
//! client sends to a whole quorum at once and waits for the replies with a
//! timeout, and gossip runs in rounds, so almost every event is either one
//! of a batch sent together or scheduled no earlier than the event
//! scheduled before it.  The queue keeps three sources:
//!
//! - the **lane**, a FIFO of single entries.  [`EventQueue::schedule`]
//!   appends an entry to it when the lane is empty or the entry's time is
//!   no earlier than the lane tail's.  Timeouts (`now + op_timeout`, with a
//!   `now` that never decreases) all land here.
//! - the **trains**: the messages one send step puts in flight at once (an
//!   attempt's probe replies, a round's gossip pushes or digests), handed
//!   over together through [`EventQueue::schedule_train`].  A train is
//!   stored as one sorted buffer, and only its head — its earliest entry —
//!   is keyed, in a small heap of heads.  Its buffer is recycled when it
//!   runs dry.
//! - the **singles**, a binary heap of every other entry: one scheduled
//!   earlier than the lane tail, such as a gossip delta.
//!
//! `pop` and `peek_time` take the smallest `(time, sequence)` of the three
//! heads.  Every stamp takes a higher sequence number than all before it,
//! so an entry no earlier in time than the lane tail is also later in
//! `(time, sequence)`: the lane stays sorted for *any* input.  The routing
//! decides only how cheap an entry is, never when it pops.
//!
//! The contract is that pops are ordered by `(time, insertion sequence)`
//! — strictly by time, FIFO among equal times — which is what every
//! pinned determinism fingerprint in `tests/determinism.rs` rests on.  A
//! train's entries take consecutive sequence numbers in iteration order,
//! exactly as that many `schedule` calls would, so a train pops in the
//! same order its entries would have one by one.  Test code alone checks
//! the contract: `time::tests` and
//! `tests/properties.rs::event_queue_matches_heap_reference` replay random
//! interleavings against a reference that keeps the pending entries in
//! insertion order and pops the minimum `(time, sequence)` by a linear
//! scan.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// Simulation time in seconds since the start of the run.
pub type SimTime = f64;

/// The event queue's one implementation, a lane, trains and a heap of
/// singles.  The type and [`EventQueue::with_kind`] stay only because the
/// repo benchmark names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The lane/trains/singles queue.  The name is kept from the calendar
    /// queue it replaced.
    #[default]
    Calendar,
}

/// An entry in the event queue: a payload scheduled at a given time.
///
/// Entries compare by `(time, sequence)` only — the payload never
/// participates, so the queue accepts any event type.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    sequence: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The `(time, insertion sequence)` sort key, across payload types
    /// (a train's head key carries its slot).  `total_cmp` is safe here:
    /// scheduling rejects NaN, and for finite floats it agrees with the
    /// usual ordering.
    fn key_cmp<F>(&self, other: &Scheduled<F>) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.sequence.cmp(&other.sequence))
    }

    /// This entry's key, carrying `event` instead of the payload.
    fn key_with<F>(&self, event: F) -> Scheduled<F> {
        Scheduled {
            time: self.time,
            sequence: self.sequence,
            event,
        }
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key_cmp(self)
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The trains of the queue: each one a batch of entries scheduled
/// together, sorted once, with only its next entry keyed.
#[derive(Debug, Clone)]
struct Trains<E> {
    /// One buffer per slot, sorted by `(time, sequence)` **descending** so
    /// the train's next entry is the tail.  A vacant slot keeps its
    /// emptied buffer, capacity intact, for the next train it carries.
    slots: Vec<Vec<Scheduled<E>>>,
    /// Vacant slots.
    free: Vec<u32>,
    /// The key of each non-empty train's next entry; the payload is the
    /// train's slot.
    heads: BinaryHeap<Scheduled<u32>>,
    /// Total pending entries across trains.
    len: usize,
}

impl<E> Trains<E> {
    fn new() -> Self {
        Trains {
            slots: Vec::new(),
            free: Vec::new(),
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    /// A slot for a new train and its (empty, recycled) buffer.
    fn open(&mut self) -> (u32, Vec<Scheduled<E>>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            (self.slots.len() - 1) as u32
        });
        (slot, mem::take(&mut self.slots[slot as usize]))
    }

    /// Stores the filled `train` in `slot` and keys its earliest entry;
    /// an empty train gives its slot straight back.
    fn close(&mut self, slot: u32, mut train: Vec<Scheduled<E>>) {
        // The key is unique (sequence breaks ties), so an unstable sort
        // yields the exact serve order.
        train.sort_unstable_by(|a, b| b.key_cmp(a));
        match train.last() {
            Some(head) => {
                self.heads.push(head.key_with(slot));
                self.len += train.len();
            }
            None => self.free.push(slot),
        }
        self.slots[slot as usize] = train;
    }

    /// The key of the earliest pending train entry.
    fn head(&self) -> Option<&Scheduled<u32>> {
        self.heads.peek()
    }

    /// Pops the earliest pending train entry, re-keying its train on the
    /// next entry or vacating the slot when the train is done.
    fn pop(&mut self) -> Option<Scheduled<E>> {
        let mut head = self.heads.peek_mut()?;
        let train = &mut self.slots[head.event as usize];
        let s = train.pop().expect("a keyed train is non-empty");
        match train.last() {
            Some(next) => {
                head.time = next.time;
                head.sequence = next.sequence;
            }
            None => {
                self.free.push(head.event);
                PeekMut::pop(head);
            }
        }
        self.len -= 1;
        Some(s)
    }
}

/// Which source holds the earliest pending entry of an [`EventQueue`].
#[derive(Debug, Clone, Copy)]
enum Source {
    Lane,
    Train,
    Single,
}

/// A deterministic future-event list ordered by time (FIFO among equal
/// times): a FIFO lane, the trains and a heap of singles.
///
/// The invariant every method keeps: the lane is sorted by
/// `(time, sequence)`.  An entry joins it only when its time is no earlier
/// than the lane tail's, and sequence numbers rise on every stamp.
///
/// # Examples
///
/// ```
/// use pqs_sim::time::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Entries scheduled no earlier than the entry scheduled before them,
    /// served from the front.
    lane: VecDeque<Scheduled<E>>,
    /// Entries scheduled together as trains.
    trains: Trains<E>,
    /// Every other entry.
    singles: BinaryHeap<Scheduled<E>>,
    sequence: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            trains: Trains::new(),
            singles: BinaryHeap::new(),
            sequence: 0,
            now: 0.0,
        }
    }

    /// Creates an empty queue at time zero, as [`Self::new`] does: there
    /// is one queue, so `kind` changes nothing.
    pub fn with_kind(_kind: QueueKind) -> Self {
        Self::new()
    }

    /// The time of the most recently popped event (0 before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.trains.len + self.singles.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `time`: onto the lane if that
    /// keeps the lane sorted, into the singles heap otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let s = self.stamp(time, event);
        if self.lane.back().is_none_or(|tail| tail.key_cmp(&s).is_lt()) {
            self.lane.push_back(s);
        } else {
            self.singles.push(s);
        }
    }

    /// Schedules every `(time, event)` of `train` — the messages one send
    /// step puts in flight together, such as an attempt's probe replies —
    /// in any time order.
    ///
    /// The entries take consecutive insertion sequence numbers in
    /// iteration order, exactly as that many [`Self::schedule`] calls
    /// would, so the pop order is the one-by-one order, equal times
    /// included.  The train is sorted once into a recycled buffer and only
    /// its earliest entry is keyed.
    ///
    /// # Panics
    ///
    /// Panics if any entry's time is NaN or negative.
    pub fn schedule_train(&mut self, train: impl IntoIterator<Item = (SimTime, E)>) {
        let (slot, mut buffer) = self.trains.open();
        for (time, event) in train {
            buffer.push(self.stamp(time, event));
        }
        self.trains.close(slot, buffer);
    }

    /// Checks `time` and gives `event` the next insertion sequence number.
    fn stamp(&mut self, time: SimTime, event: E) -> Scheduled<E> {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative, got {time}"
        );
        self.sequence += 1;
        Scheduled {
            time,
            sequence: self.sequence,
            event,
        }
    }

    /// The source holding the earliest pending entry, and its time.
    ///
    /// Written out head by head: a `min_by` over the three heads as
    /// `Option`s ran `seq_foreground` about 30 % slower.
    fn first(&self) -> Option<(Source, SimTime)> {
        // Times are finite, so the infinite key stands for "no entry".
        let mut first = Scheduled {
            time: SimTime::INFINITY,
            sequence: u64::MAX,
            event: Source::Lane,
        };
        if let Some(s) = self.lane.front() {
            first = s.key_with(Source::Lane);
        }
        if let Some(s) = self.trains.head().filter(|s| s.key_cmp(&first).is_lt()) {
            first = s.key_with(Source::Train);
        }
        if let Some(s) = self.singles.peek().filter(|s| s.key_cmp(&first).is_lt()) {
            first = s.key_with(Source::Single);
        }
        first.time.is_finite().then_some((first.event, first.time))
    }

    /// Pops the earliest pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = match self.first()?.0 {
            Source::Lane => self.lane.pop_front(),
            Source::Train => self.trains.pop(),
            Source::Single => self.singles.pop(),
        }?;
        self.now = self.now.max(popped.time);
        Some((popped.time, popped.event))
    }

    /// Time of the earliest pending event without popping it.
    ///
    /// The engine drains each shard queue up to a window barrier;
    /// peeking lets the drain loop stop without disturbing the queue.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|(_, time)| time)
    }

    /// Drains `batch` into the queue as one train
    /// ([`Self::schedule_train`]): the pop order is that of scheduling the
    /// entries one by one, in batch order.  No library code calls it; the
    /// repo benchmark and the queue tests drive it.
    ///
    /// The batch vector is left empty with its capacity intact, ready for
    /// reuse.
    ///
    /// # Panics
    ///
    /// Panics if any entry's time is NaN or negative.
    pub fn schedule_batch(&mut self, batch: &mut Vec<(SimTime, E)>) {
        self.schedule_train(batch.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue's contract written the slow way: the pending entries in
    /// insertion order, where a pop takes the minimum `(time, sequence)`
    /// by a linear scan — the first of the earliest entries.
    struct Reference<E> {
        pending: Vec<(SimTime, E)>,
        now: SimTime,
    }

    impl<E> Reference<E> {
        fn new() -> Self {
            Reference {
                pending: Vec::new(),
                now: 0.0,
            }
        }

        fn schedule(&mut self, time: SimTime, event: E) {
            self.pending.push((time, event));
        }

        fn len(&self) -> usize {
            self.pending.len()
        }

        /// The index of the earliest entry; insertion order breaks ties.
        fn first(&self) -> Option<usize> {
            (0..self.pending.len()).reduce(|best, i| {
                if self.pending[i].0 < self.pending[best].0 {
                    i
                } else {
                    best
                }
            })
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.first().map(|i| self.pending[i].0)
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let (time, event) = self.pending.remove(self.first()?);
            self.now = self.now.max(time);
            Some((time, event))
        }
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a1");
        q.schedule(1.0, "a2");
        q.schedule(3.0, "b");
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().1, "a1");
        assert_eq!(q.pop().unwrap().1, "a2");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.now(), 3.0);
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan_times_in_a_train() {
        let mut q = EventQueue::new();
        q.schedule_train([(1.0, ()), (f64::NAN, ())]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_times() {
        let mut q = EventQueue::new();
        q.schedule(-1.0, ());
    }

    #[test]
    fn clock_is_monotone_even_with_out_of_order_inserts() {
        let mut q = EventQueue::new();
        q.schedule(10.0, 1u32);
        assert_eq!(q.pop().unwrap().0, 10.0);
        // A straggler scheduled in the "past" does not move the clock back.
        q.schedule(4.0, 2u32);
        let _ = q.pop();
        assert_eq!(q.now(), 10.0);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0.0);
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
        assert!(EventQueue::<u8>::with_kind(QueueKind::Calendar).is_empty());
    }

    #[test]
    fn batch_scheduling_preserves_fifo_among_equal_times() {
        // The same events scheduled one by one and as a batch must pop in
        // the reference's order: equal-time entries keep their relative
        // (insertion) order.
        let entries = [(2.0, "b1"), (1.0, "a1"), (2.0, "b2"), (1.0, "a2")];
        let mut reference = Reference::new();
        let mut one_by_one = EventQueue::new();
        for (t, e) in entries {
            reference.schedule(t, e);
            one_by_one.schedule(t, e);
        }
        let mut batched = EventQueue::new();
        let mut batch: Vec<(SimTime, &str)> = entries.to_vec();
        batched.schedule_batch(&mut batch);
        assert!(batch.is_empty(), "the batch buffer is drained for reuse");
        for _ in 0..entries.len() {
            let want = reference.pop();
            assert_eq!(one_by_one.pop(), want);
            assert_eq!(batched.pop(), want);
        }
        assert!(batched.pop().is_none() && one_by_one.pop().is_none());
    }

    #[test]
    fn peek_reports_earliest_time_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(7.0, "later");
        q.schedule(2.0, "sooner");
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "sooner");
        assert_eq!(q.peek_time(), Some(7.0));
    }

    /// The queue and the reference pop the same `(time, event)` stream
    /// under an adversarial mix of clustered, equal and far-future times
    /// with interleaved pops, so entries fall to the lane and to the
    /// singles heap alike.
    #[test]
    fn calendar_matches_heap_under_interleaved_load() {
        let mut queue = EventQueue::new();
        let mut reference = Reference::new();
        let mut next = splitmix(0x1234_5678);
        let mut popped = 0u64;
        for i in 0..5000u64 {
            let r = next();
            let t = match r % 4 {
                // Clustered around a handful of centres (many exact ties).
                0 => ((r >> 8) % 8) as f64 * 0.5,
                // Dense sub-millisecond spacing.
                1 => ((r >> 8) % 1000) as f64 * 1e-4,
                // Spread over a wide window.
                2 => ((r >> 8) % 1000) as f64,
                // Far future: pushes the lane tail out of reach.
                _ => 1e6 + ((r >> 8) % 100) as f64 * 1e3,
            };
            queue.schedule(t, i);
            reference.schedule(t, i);
            if r.is_multiple_of(3) {
                assert_eq!(queue.peek_time(), reference.peek_time());
                assert_eq!(queue.pop(), reference.pop());
                popped += 1;
            }
        }
        assert_eq!(queue.len(), reference.len());
        while let Some(got) = queue.pop() {
            assert_eq!(Some(got), reference.pop());
            popped += 1;
        }
        assert!(reference.pop().is_none());
        assert_eq!(popped, 5000);
        assert_eq!(queue.now(), reference.now);
    }

    /// A splitmix64 stream: a cheap deterministic scramble for the
    /// property-style tests.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Trains pop exactly as their entries would one by one: random
    /// interleavings of single schedules, trains (empty, of one entry, of
    /// equal times, of random times), peeks and pops give the queue and
    /// the reference (which takes a train entry by entry) the same `(time, event)` stream and the same `len()`.  Times come
    /// from a small grid, so trains and singles tie often, and after a
    /// far-future single has joined the lane, entries are scheduled before
    /// it.
    #[test]
    fn trains_pop_in_the_heap_oracles_order() {
        for case in 0..200u64 {
            let mut next = splitmix(case);
            let mut queue = EventQueue::new();
            let mut reference = Reference::new();
            let mut id = 0u64;
            let time = |now: SimTime, r: u64| match r % 3 {
                // A grid of 0.25 s steps: ties within and across trains.
                0 => now + ((r >> 8) % 8) as f64 * 0.25,
                // Continuous, near the clock.
                1 => now + ((r >> 8) % 10_000) as f64 * 1e-4,
                // Far future: a lane tail the near-term entries scheduled
                // next fall below.
                _ => now + 1e3 + ((r >> 8) % 4) as f64,
            };
            for _ in 0..300 {
                let r = next();
                let now = reference.now;
                match r % 8 {
                    0 | 1 => {
                        let t = time(now, next());
                        queue.schedule(t, id);
                        reference.schedule(t, id);
                        id += 1;
                    }
                    2 | 3 => {
                        let len = match (r >> 8) % 4 {
                            0 => 0,
                            1 => 1,
                            _ => ((r >> 16) % 24) as usize,
                        };
                        let equal = (r >> 24).is_multiple_of(4);
                        let first = time(now, next());
                        let train: Vec<(SimTime, u64)> = (0..len)
                            .map(|i| {
                                let t = if equal { first } else { time(now, next()) };
                                (t, id + i as u64)
                            })
                            .collect();
                        id += len as u64;
                        queue.schedule_train(train.iter().copied());
                        for (t, e) in train {
                            reference.schedule(t, e);
                        }
                    }
                    4 => assert_eq!(queue.peek_time(), reference.peek_time(), "case {case}"),
                    _ => {
                        assert_eq!(queue.peek_time(), reference.peek_time(), "case {case}");
                        assert_eq!(queue.pop(), reference.pop(), "case {case}");
                    }
                }
                assert_eq!(queue.len(), reference.len(), "case {case}");
            }
            while let Some(got) = queue.pop() {
                assert_eq!(Some(got), reference.pop(), "case {case}");
            }
            assert!(reference.pop().is_none() && queue.is_empty(), "case {case}");
            assert_eq!(queue.now(), reference.now);
        }
    }

    /// A straggler scheduled before every pending event still pops first
    /// (it goes to the singles heap, ahead of the lane's head).
    #[test]
    fn straggler_in_the_past_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(1000.0 + i as f64, i);
        }
        assert_eq!(q.pop(), Some((1000.0, 0)));
        q.schedule(1.5, 999);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.pop(), Some((1.5, 999)));
        assert_eq!(q.pop(), Some((1001.0, 1)));
    }

    /// A train due before everything in the lane pops first, in
    /// `(time, sequence)` order, even after a peek has read the lane's head.
    #[test]
    fn a_train_due_before_the_live_day_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(1000.0 + i as f64, i);
        }
        assert_eq!(q.peek_time(), Some(1000.0));
        q.schedule_train([(2.0, 200), (1.5, 201), (2.0, 202)]);
        assert_eq!(q.len(), 103);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.pop(), Some((1.5, 201)));
        assert_eq!(q.pop(), Some((2.0, 200)));
        assert_eq!(q.pop(), Some((2.0, 202)));
        assert_eq!(q.pop(), Some((1000.0, 0)));
    }

    /// Singles scheduled in non-decreasing time order all ride the lane,
    /// equal times included, and the singles heap stays empty.
    #[test]
    fn a_non_decreasing_stream_rides_the_lane() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(f64::from(i / 3), i);
            if i % 10 == 9 {
                assert_eq!(q.pop().map(|(_, e)| e), Some(i / 10));
            }
        }
        assert_eq!(q.lane.len(), 90);
        assert!(q.singles.is_empty());
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (10..100).collect::<Vec<_>>());
    }

    /// An entry earlier than the lane tail goes to the singles heap, and
    /// the two sources interleave in `(time, sequence)` order, ties across
    /// them included.
    #[test]
    fn an_entry_before_the_lane_tail_goes_to_the_singles_heap() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "lane 1");
        q.schedule(3.0, "lane 3");
        q.schedule(2.0, "single 2");
        q.schedule(3.0, "lane 3 again");
        q.schedule(1.0, "single 1");
        assert_eq!(q.lane.len(), 3);
        assert_eq!(q.singles.len(), 2);
        let popped: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            popped,
            ["lane 1", "single 1", "single 2", "lane 3", "lane 3 again"]
        );
    }
}
