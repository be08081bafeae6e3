//! Simulation time and the pending-event queue.
//!
//! The future-event list is a **calendar queue** (Brown's classic
//! discrete-event-simulation structure, the one ns-2-style simulators
//! use): pending events of later days live in power-of-two time buckets
//! of one "day" each, so scheduling past the live day is an O(1) bucket
//! push.  Everything due up to the live day — the day `pop` is serving,
//! and any earlier day an out-of-order `schedule` lands in — sits in one
//! sorted buffer that `pop` serves in order.  A lone insert into
//! that buffer is placed by binary search; a burst of them is appended
//! and sorted once, at the next pop or peek.  That is O(1) amortized at a
//! healthy load factor, against the two O(log n) sifts a binary heap pays
//! per event.
//!
//! Beside the calendar sit **trains**: the messages one send step puts in
//! flight at once (an attempt's probe replies), handed over together
//! through [`EventQueue::schedule_train`].  A train is stored as one
//! sorted buffer, and only its head — its earliest entry — is keyed, in a
//! small heap of heads; `pop` serves the smaller of the calendar's head
//! and the earliest train head.  A train costs one small sort and one
//! heap push, its buffer is recycled when it runs dry, and the calendar's
//! population is left to the traffic that is not sent in batches.
//!
//! The heap survives behind [`QueueKind::Heap`] as a reference backend
//! (it schedules a train's entries one by one): property tests replay
//! random interleavings against it, and debug builds shadow every
//! calendar-backed queue with a heap of `(time, sequence)` keys — train
//! entries included — asserting each pop agrees.
//!
//! Both backends honour the exact same contract: pops are ordered by
//! `(time, insertion sequence)` — strictly by time, FIFO among equal
//! times — which is what every pinned determinism fingerprint in
//! `tests/determinism.rs` rests on.  A train's entries take consecutive
//! sequence numbers in iteration order, exactly as that many `schedule`
//! calls would, so a train pops in the same order its entries would have
//! one by one.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::mem;

/// Simulation time in seconds since the start of the run.
pub type SimTime = f64;

/// Which backend an [`EventQueue`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The calendar queue: O(1) amortized schedule/pop (the default).
    #[default]
    Calendar,
    /// The binary heap: O(log n) sifts, kept as the reference backend
    /// (escape hatch and equivalence oracle).
    Heap,
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

/// The debug-build equivalence oracle: a heap of `(time, sequence)` keys
/// shadowing a calendar-backed queue, payload-free so it imposes no extra
/// bounds on `E`.
#[cfg(debug_assertions)]
type Shadow = BinaryHeap<Scheduled<()>>;

/// Number of buckets a calendar starts with (and never shrinks below).
const MIN_BUCKETS: usize = 16;

/// Hard cap on the bucket directory, so a pathological backlog cannot
/// grow the directory unboundedly (2^20 buckets ≈ 24 MiB of empty Vecs).
const MAX_BUCKETS: usize = 1 << 20;

/// The bucket a time falls into: its "day" index.  Multiplying by the
/// precomputed reciprocal is monotone in `t` (for `t ≥ 0` and a positive
/// width) and the saturating float→int cast keeps monotonicity at the
/// far end, which is all correctness needs — equal times always share a
/// day, and an earlier time never lands in a later day.
#[inline]
fn day_of(time: SimTime, inv_width: f64) -> u64 {
    (time * inv_width) as u64
}

/// The trains of a calendar-backed queue: each one a batch of entries
/// scheduled together, sorted once, with only its next entry keyed.
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
                self.heads.push(Scheduled {
                    time: head.time,
                    sequence: head.sequence,
                    event: slot,
                });
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

/// The calendar backend: one `Vec` lane per day modulo the bucket count
/// for the days after the live one, plus a sorted buffer holding
/// everything due up to the end of the live day, plus the trains.
///
/// The invariant every method keeps: an entry of day `d` is in `day` if
/// `d <= cursor_day` and in bucket `d % buckets.len()` otherwise.
#[derive(Debug, Clone)]
struct Calendar<E> {
    /// Power-of-two bucket directory; bucket `d % buckets.len()` holds
    /// every pending event of each day `d > cursor_day` mapping to it
    /// (all laps mixed, unsorted).
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Seconds covered by one day/bucket.
    width: SimTime,
    /// `1.0 / width`, precomputed for the hot path.
    inv_width: f64,
    /// The live day: the last day whose entries have left the buckets.
    cursor_day: u64,
    /// Every pending entry of a day `<= cursor_day`, served in
    /// `(time, sequence)` **descending** order so the next pop is an O(1)
    /// `Vec::pop` off the tail.  An insert here that pops before all of
    /// it is a push onto the tail.  Any other insert is placed by binary
    /// search if it is the first since the last pop (one shift of the
    /// entries that pop before it); a later one is a burst, appended
    /// unsorted, and the next pop/peek sorts the buffer once — so k
    /// inserts between two pops cost at most one shift plus one
    /// O(k log k) sort, never k shifts.
    day: Vec<Scheduled<E>>,
    /// Whether `day` is currently in descending key order.
    day_sorted: bool,
    /// Whether an entry has been placed into `day` by binary search since
    /// the last pop.
    placed_since_pop: bool,
    /// Total pending events across buckets and the day buffer (trains
    /// count their own).
    len: usize,
    /// Entries scheduled as trains, outside the buckets and the day
    /// buffer.
    trains: Trains<E>,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            inv_width: 1.0,
            cursor_day: 0,
            day: Vec::new(),
            day_sorted: true,
            placed_since_pop: false,
            len: 0,
            trains: Trains::new(),
        }
    }

    /// Adds an entry.  One of a later day is an O(1) push onto its
    /// bucket.  One due by the end of the live day goes into the day
    /// buffer (see [`Self::day`] for how) — including one scheduled into
    /// an earlier day, which `World::drain_until` does after a
    /// `peek_time` has advanced the cursor.
    fn insert(&mut self, s: Scheduled<E>) {
        let d = day_of(s.time, self.inv_width);
        if d > self.cursor_day {
            let b = (d % self.buckets.len() as u64) as usize;
            self.buckets[b].push(s);
        } else if !self.day_sorted || self.day.last().is_none_or(|last| last.key_cmp(&s).is_gt()) {
            self.day.push(s);
        } else if !self.placed_since_pop {
            let at = self.day.partition_point(|e| e.key_cmp(&s).is_gt());
            self.day.insert(at, s);
            self.placed_since_pop = true;
        } else {
            self.day.push(s);
            self.day_sorted = false;
        }
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Ensures the day buffer ends with the earliest pending entry
    /// (no-op when it already does).  An empty buffer means every pending
    /// entry is in a bucket of a later day, so the cursor scans forward
    /// day by day; after one fruitless lap over the directory it jumps
    /// straight to the earliest pending day, so sparse far-future
    /// backlogs cost one O(len) scan instead of an unbounded walk over
    /// empty days.
    fn prepare(&mut self) {
        if self.day.is_empty() && self.len > 0 {
            let mut scanned = 0usize;
            while self.day.is_empty() {
                if scanned == self.buckets.len() {
                    // A whole lap found nothing: the earliest pending day
                    // (it exists — len > 0, and it is after the cursor).
                    self.cursor_day = self.min_pending_day() - 1;
                }
                self.cursor_day += 1;
                let b = (self.cursor_day % self.buckets.len() as u64) as usize;
                let (inv_width, cursor) = (self.inv_width, self.cursor_day);
                let bucket = &mut self.buckets[b];
                let mut i = 0;
                while i < bucket.len() {
                    if day_of(bucket[i].time, inv_width) == cursor {
                        self.day.push(bucket.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                scanned += 1;
            }
            self.day_sorted = self.day.len() < 2;
        }
        if !self.day_sorted {
            #[cfg(test)]
            tests::SORTED_ENTRIES.with(|count| count.set(count.get() + self.day.len()));
            // The key is unique (sequence breaks ties), so an unstable
            // sort yields the exact `(time, sequence)` serve order.
            self.day.sort_unstable_by(|a, b| Scheduled::key_cmp(b, a));
            self.day_sorted = true;
        }
    }

    /// Day of the earliest pending entry across all buckets.
    fn min_pending_day(&self) -> u64 {
        let mut min_time = f64::INFINITY;
        for bucket in &self.buckets {
            for s in bucket {
                if s.time < min_time {
                    min_time = s.time;
                }
            }
        }
        debug_assert!(min_time.is_finite(), "min_pending_day on an empty calendar");
        day_of(min_time, self.inv_width)
    }

    /// Whether the earliest pending entry is a train's rather than the
    /// day buffer's (call after [`Self::prepare`]).
    fn train_first(&self) -> bool {
        self.trains.head().is_some_and(|head| {
            self.day
                .last()
                .is_none_or(|s| head.key_cmp(s) == Ordering::Less)
        })
    }

    /// Pops the earliest pending entry.
    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.prepare();
        if self.train_first() {
            return self.trains.pop();
        }
        let s = self.day.pop()?;
        self.len -= 1;
        self.placed_since_pop = false;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        Some(s)
    }

    /// Time of the earliest pending entry.
    fn peek_time(&mut self) -> Option<SimTime> {
        self.prepare();
        if self.train_first() {
            return self.trains.head().map(|head| head.time);
        }
        self.day.last().map(|s| s.time)
    }

    /// Rebuilds the directory for the current population: bucket count
    /// tracks `len` (load factor ~1) and the day width tracks the mean
    /// spacing of pending events, so a day holds a small constant number
    /// of entries whether the backlog is clustered or spread out.  The
    /// cursor restarts at the earliest pending day, whose entries form
    /// the new day buffer.
    fn resize(&mut self) {
        let mut entries: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        entries.append(&mut self.day);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        debug_assert_eq!(entries.len(), self.len);
        let nbuckets = entries
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        }
        if let (Some(min), Some(max)) = (
            entries.iter().map(|s| s.time).min_by(f64::total_cmp),
            entries.iter().map(|s| s.time).max_by(f64::total_cmp),
        ) {
            let span = max - min;
            if span > 0.0 {
                // Two mean gaps per day: ~2 entries per bucket on average.
                let width = span / entries.len() as f64 * 2.0;
                if width.is_finite() && width > 0.0 && width.recip().is_finite() {
                    self.width = width;
                    self.inv_width = width.recip();
                }
            }
            self.cursor_day = day_of(min, self.inv_width);
        }
        let nbuckets = self.buckets.len() as u64;
        for s in entries {
            let d = day_of(s.time, self.inv_width);
            if d <= self.cursor_day {
                self.day.push(s);
            } else {
                self.buckets[(d % nbuckets) as usize].push(s);
            }
        }
        self.day_sorted = self.day.len() < 2;
    }
}

/// The two interchangeable backends (see [`QueueKind`]).
#[derive(Debug, Clone)]
enum Backend<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    Calendar(Calendar<E>),
}

/// A deterministic future-event list ordered by time (FIFO among equal
/// times).
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
    backend: Backend<E>,
    sequence: u64,
    now: SimTime,
    /// Debug builds shadow the calendar with a key-only heap and assert
    /// every pop agrees — the continuous equivalence check the tentpole
    /// refactor is gated on.  `None` on heap-backed queues.
    #[cfg(debug_assertions)]
    shadow: Option<Shadow>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar-backed queue at time zero.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// Creates an empty queue on the chosen backend at time zero.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            backend: match kind {
                QueueKind::Heap => Backend::Heap(BinaryHeap::new()),
                QueueKind::Calendar => Backend::Calendar(Calendar::new()),
            },
            sequence: 0,
            now: 0.0,
            #[cfg(debug_assertions)]
            shadow: match kind {
                QueueKind::Heap => None,
                QueueKind::Calendar => Some(Shadow::new()),
            },
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.backend {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// The time of the most recently popped event (0 before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Calendar(cal) => cal.len + cal.trains.len,
        }
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let s = self.stamp(time, event);
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(s),
            Backend::Calendar(cal) => cal.insert(s),
        }
    }

    /// Schedules every `(time, event)` of `train` — the messages one send
    /// step puts in flight together, such as an attempt's probe replies —
    /// in any time order.
    ///
    /// The entries take consecutive insertion sequence numbers in
    /// iteration order, exactly as that many [`Self::schedule`] calls
    /// would, so the pop order is the one-by-one order, equal times
    /// included.  On the calendar the train is sorted once into a recycled
    /// buffer and only its earliest entry is keyed; the heap backend
    /// schedules the entries one by one.
    ///
    /// # Panics
    ///
    /// Panics if any entry's time is NaN or negative.
    pub fn schedule_train(&mut self, train: impl IntoIterator<Item = (SimTime, E)>) {
        let Backend::Calendar(cal) = &mut self.backend else {
            for (time, event) in train {
                self.schedule(time, event);
            }
            return;
        };
        let (slot, mut buffer) = cal.trains.open();
        for (time, event) in train {
            let s = self.stamp(time, event);
            buffer.push(s);
        }
        if let Backend::Calendar(cal) = &mut self.backend {
            cal.trains.close(slot, buffer);
        }
    }

    /// Checks `time` and gives `event` the next insertion sequence
    /// number, entering its key into the debug shadow.
    fn stamp(&mut self, time: SimTime, event: E) -> Scheduled<E> {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative, got {time}"
        );
        self.sequence += 1;
        #[cfg(debug_assertions)]
        if let Some(shadow) = &mut self.shadow {
            shadow.push(Scheduled {
                time,
                sequence: self.sequence,
                event: (),
            });
        }
        Scheduled {
            time,
            sequence: self.sequence,
            event,
        }
    }

    /// Pops the earliest pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => heap.pop(),
            Backend::Calendar(cal) => cal.pop(),
        };
        #[cfg(debug_assertions)]
        if let Some(shadow) = &mut self.shadow {
            let expect = shadow.pop();
            match (&popped, &expect) {
                (None, None) => {}
                (Some(got), Some(want)) => debug_assert!(
                    got.time == want.time && got.sequence == want.sequence,
                    "calendar pop ({}, #{}) disagrees with the heap oracle ({}, #{})",
                    got.time,
                    got.sequence,
                    want.time,
                    want.sequence,
                ),
                _ => debug_assert!(false, "calendar and heap oracle disagree on emptiness"),
            }
        }
        popped.map(|s| {
            self.now = self.now.max(s.time);
            (s.time, s.event)
        })
    }

    /// Time of the earliest pending event without popping it.
    ///
    /// The engine drains each shard queue up to a window barrier;
    /// peeking lets the drain loop stop without disturbing the queue.
    /// (Takes `&mut self`: the calendar backend may rotate the earliest
    /// day into its serve buffer — observable state is untouched.)
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|s| s.time),
            Backend::Calendar(cal) => cal.peek_time(),
        }
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
    use std::cell::Cell;

    thread_local! {
        /// Entries the calendars on this thread (each test runs on its
        /// own) have passed through a lazy day sort, so a test can bound
        /// the sorting work a traffic pattern costs.
        pub(super) static SORTED_ENTRIES: Cell<usize> = const { Cell::new(0) };
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
        assert_eq!(q.kind(), QueueKind::Calendar);
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
    }

    #[test]
    fn batch_scheduling_preserves_fifo_among_equal_times() {
        // The same events scheduled one by one and as a sorted batch must
        // pop in the same order — the sort is stable, so equal-time
        // entries keep their relative (insertion) order.
        let entries = [(2.0, "b1"), (1.0, "a1"), (2.0, "b2"), (1.0, "a2")];
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut one_by_one = EventQueue::with_kind(kind);
            for (t, e) in entries {
                one_by_one.schedule(t, e);
            }
            let mut batched = EventQueue::with_kind(kind);
            let mut batch: Vec<(SimTime, &str)> = entries.to_vec();
            batched.schedule_batch(&mut batch);
            assert!(batch.is_empty(), "the batch buffer is drained for reuse");
            for _ in 0..entries.len() {
                assert_eq!(one_by_one.pop(), batched.pop());
            }
            assert!(batched.pop().is_none());
        }
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

    /// Both backends pop the same `(time, event)` stream under an
    /// adversarial mix of clustered, equal and far-future times with
    /// interleaved pops — enough traffic to force calendar resizes in
    /// both directions.
    #[test]
    fn calendar_matches_heap_under_interleaved_load() {
        let mut calendar = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        // A cheap deterministic scramble (splitmix64) for times.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
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
                // Far future: forces wide spans and directory jumps.
                _ => 1e6 + ((r >> 8) % 100) as f64 * 1e3,
            };
            calendar.schedule(t, i);
            heap.schedule(t, i);
            if r % 3 == 0 {
                assert_eq!(calendar.peek_time(), heap.peek_time());
                assert_eq!(calendar.pop(), heap.pop());
                popped += 1;
            }
        }
        assert_eq!(calendar.len(), heap.len());
        while let Some(got) = calendar.pop() {
            assert_eq!(Some(got), heap.pop());
            popped += 1;
        }
        assert!(heap.pop().is_none());
        assert_eq!(popped, 5000);
        assert_eq!(calendar.now(), heap.now());
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
    /// equal times, of random times), peeks and pops give a calendar and
    /// the heap oracle (which schedules a train entry by entry) the same
    /// `(time, event)` stream and the same `len()`.  Times come from a
    /// small grid, so trains and singles tie often, and after a peek has
    /// moved the calendar's cursor to a far-future day, entries are
    /// scheduled before it.
    #[test]
    fn trains_pop_in_the_heap_oracles_order() {
        for case in 0..200u64 {
            let mut next = splitmix(case);
            let mut calendar = EventQueue::with_kind(QueueKind::Calendar);
            let mut heap = EventQueue::with_kind(QueueKind::Heap);
            let mut id = 0u64;
            let time = |now: SimTime, r: u64| match r % 3 {
                // A grid of 0.25 s steps: ties within and across trains.
                0 => now + ((r >> 8) % 8) as f64 * 0.25,
                // Continuous, near the clock.
                1 => now + ((r >> 8) % 10_000) as f64 * 1e-4,
                // Far future: peeking there moves the live day past the
                // near-term entries scheduled next.
                _ => now + 1e3 + ((r >> 8) % 4) as f64,
            };
            for _ in 0..300 {
                let r = next();
                let now = heap.now();
                match r % 8 {
                    0 | 1 => {
                        let t = time(now, next());
                        calendar.schedule(t, id);
                        heap.schedule(t, id);
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
                        calendar.schedule_train(train.iter().copied());
                        heap.schedule_train(train);
                    }
                    4 => assert_eq!(calendar.peek_time(), heap.peek_time(), "case {case}"),
                    _ => {
                        assert_eq!(calendar.peek_time(), heap.peek_time(), "case {case}");
                        assert_eq!(calendar.pop(), heap.pop(), "case {case}");
                    }
                }
                assert_eq!(calendar.len(), heap.len(), "case {case}");
            }
            while let Some(got) = calendar.pop() {
                assert_eq!(Some(got), heap.pop(), "case {case}");
            }
            assert!(heap.pop().is_none() && calendar.is_empty(), "case {case}");
            assert_eq!(calendar.now(), heap.now());
        }
    }

    /// A straggler scheduled before every pending event still pops first
    /// on the calendar backend (it joins the live day buffer, ahead of
    /// the cursor day's own entries).
    #[test]
    fn straggler_in_the_past_pops_first() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        for i in 0..100u32 {
            q.schedule(1000.0 + i as f64, i);
        }
        assert_eq!(q.pop(), Some((1000.0, 0)));
        q.schedule(1.5, 999);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.pop(), Some((1.5, 999)));
        assert_eq!(q.pop(), Some((1001.0, 1)));
    }

    /// A train due before the calendar's live day — the cursor already
    /// peeked far ahead — pops first, in `(time, sequence)` order.
    #[test]
    fn a_train_due_before_the_live_day_pops_first() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
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

    /// The digest/delta traffic shape: a burst of equal-time deliveries,
    /// each of which schedules a successor into the day being served.
    /// Each successor is one placement, not a re-sort of the day, so the
    /// sorting work stays linear in the burst rather than quadratic, and
    /// the pop stream is the heap's.
    #[test]
    fn successors_into_the_live_day_are_placed_not_resorted() {
        const BURST: usize = 200;
        let mut calendar = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        for i in 0..BURST {
            calendar.schedule(5.0, i);
            heap.schedule(5.0, i);
        }
        SORTED_ENTRIES.with(|count| count.set(0));
        for i in 0..BURST {
            let got = calendar.pop();
            assert_eq!(got, heap.pop());
            // Day 5 like the burst (a one-time backlog keeps the default
            // 1 s day).  The offsets cycle, so a successor ties the
            // burst's time, sorts after everything, or sorts before an
            // earlier successor.
            let t = 5.0 + (i % 7) as f64 * 0.01;
            calendar.schedule(t, BURST + i);
            heap.schedule(t, BURST + i);
        }
        while let Some(got) = calendar.pop() {
            assert_eq!(Some(got), heap.pop());
        }
        assert!(heap.pop().is_none());
        let sorted = SORTED_ENTRIES.with(Cell::get);
        assert!(
            sorted <= 2 * BURST,
            "{sorted} entries sorted for a {BURST}-entry burst"
        );
    }
}
