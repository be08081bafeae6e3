//! Simulation time and the pending-event queue.
//!
//! The future-event list is a **calendar queue** (Brown's classic
//! discrete-event-simulation structure, the one ns-2-style simulators
//! use): pending events live in power-of-two time buckets of one "day"
//! each, so `schedule` is an O(1) bucket push and `pop` serves the
//! current day from a presorted buffer — O(1) amortized at a healthy
//! load factor, against the two O(log n) sifts a binary heap pays per
//! event.  The heap survives behind [`QueueKind::Heap`] as a reference
//! backend: property tests replay random interleavings against it, and
//! debug builds shadow every calendar-backed queue with a heap of
//! `(time, sequence)` keys, asserting each pop agrees.
//!
//! Both backends honour the exact same contract: pops are ordered by
//! `(time, insertion sequence)` — strictly by time, FIFO among equal
//! times — which is what every pinned determinism fingerprint in
//! `tests/determinism.rs` rests on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// The `(time, insertion sequence)` sort key.  `total_cmp` is safe
    /// here: `schedule` rejects NaN, and for finite floats it agrees
    /// with the usual ordering.
    fn key_cmp(&self, other: &Self) -> Ordering {
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

/// The calendar backend: one `Vec` lane per day modulo the bucket count,
/// plus a presorted buffer for the day currently being served.
#[derive(Debug, Clone)]
struct Calendar<E> {
    /// Power-of-two bucket directory; bucket `d % buckets.len()` holds
    /// every pending event of day `d` (all laps mixed, unsorted).
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Seconds covered by one day/bucket.
    width: SimTime,
    /// `1.0 / width`, precomputed for the hot path.
    inv_width: f64,
    /// The day `pop` is currently serving.
    cursor_day: u64,
    /// The current day's events, served in `(time, sequence)`
    /// **descending** order so the next pop is an O(1) `Vec::pop` off the
    /// tail.  Kept *lazily* sorted: inserts into the live day append and
    /// clear [`Self::day_sorted`], and the next pop/peek re-sorts once —
    /// so a burst of k same-day inserts costs one O(k log k) sort, not k
    /// O(k) memmoves.
    day: Vec<Scheduled<E>>,
    /// Whether `day` is currently in descending key order.
    day_sorted: bool,
    /// Total pending events across buckets and the day buffer.
    len: usize,
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
            len: 0,
        }
    }

    /// O(1) insert: push onto the day's bucket — with two cold
    /// exceptions that keep the pop order exact.  An entry landing in
    /// the day currently being served is appended to the day buffer,
    /// which re-sorts lazily on the next pop/peek (so bulk-scheduling a
    /// gossip round into the live day stays O(1) per message).  An entry
    /// landing *before* the cursor (a straggler scheduled in the past)
    /// rewinds the cursor to its day, flushing the live day buffer back
    /// to its buckets first.
    fn insert(&mut self, s: Scheduled<E>) {
        let d = day_of(s.time, self.inv_width);
        if d < self.cursor_day {
            self.flush_day();
            self.cursor_day = d;
        } else if d == self.cursor_day && !self.day.is_empty() {
            // The buffer holds *every* remaining entry of the cursor day
            // (its bucket was emptied when the day was prepared), so the
            // append keeps that invariant and the lazy sort restores the
            // serve order.
            self.day.push(s);
            self.day_sorted = false;
            self.len += 1;
            return;
        }
        let b = (d % self.buckets.len() as u64) as usize;
        self.buckets[b].push(s);
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Returns the unserved day buffer to its buckets (order within a
    /// bucket is irrelevant — entries carry their own sort key).
    fn flush_day(&mut self) {
        let nbuckets = self.buckets.len() as u64;
        let inv_width = self.inv_width;
        for s in self.day.drain(..) {
            let b = (day_of(s.time, inv_width) % nbuckets) as usize;
            self.buckets[b].push(s);
        }
        self.day_sorted = true;
    }

    /// Ensures the day buffer ends with the earliest pending entry
    /// (no-op when it already does).  Scans forward from the cursor day;
    /// after one fruitless lap over the directory it jumps straight to
    /// the earliest pending day, so sparse far-future backlogs cost one
    /// O(len) scan instead of an unbounded walk over empty days.
    fn prepare(&mut self) {
        if self.len == 0 {
            return;
        }
        if self.day.is_empty() {
            let nbuckets = self.buckets.len() as u64;
            let mut scanned = 0usize;
            loop {
                let b = (self.cursor_day % nbuckets) as usize;
                if !self.buckets[b].is_empty() {
                    let inv_width = self.inv_width;
                    let cursor = self.cursor_day;
                    let bucket = &mut self.buckets[b];
                    let mut i = 0;
                    while i < bucket.len() {
                        if day_of(bucket[i].time, inv_width) == cursor {
                            self.day.push(bucket.swap_remove(i));
                        } else {
                            i += 1;
                        }
                    }
                    if !self.day.is_empty() {
                        self.day_sorted = false;
                        break;
                    }
                }
                scanned += 1;
                if scanned > self.buckets.len() {
                    // A whole lap found nothing in-day: jump to the
                    // earliest pending day (it exists — len > 0).
                    self.cursor_day = self.min_pending_day();
                    scanned = 0;
                    continue;
                }
                self.cursor_day = self.cursor_day.saturating_add(1);
            }
        }
        if !self.day_sorted {
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

    /// Pops the earliest pending entry.
    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.prepare();
        let s = self.day.pop()?;
        self.len -= 1;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        Some(s)
    }

    /// Time of the earliest pending entry.
    fn peek_time(&mut self) -> Option<SimTime> {
        self.prepare();
        self.day.last().map(|s| s.time)
    }

    /// Rebuilds the directory for the current population: bucket count
    /// tracks `len` (load factor ~1) and the day width tracks the mean
    /// spacing of pending events, so a day holds a small constant number
    /// of entries whether the backlog is clustered or spread out.
    fn resize(&mut self) {
        let mut entries: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        entries.append(&mut self.day);
        self.day_sorted = true;
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
        for s in entries {
            let b = (day_of(s.time, self.inv_width) % self.buckets.len() as u64) as usize;
            self.buckets[b].push(s);
        }
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
            Backend::Calendar(cal) => cal.len,
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
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative, got {time}"
        );
        self.sequence += 1;
        let s = Scheduled {
            time,
            sequence: self.sequence,
            event,
        };
        #[cfg(debug_assertions)]
        if let Some(shadow) = &mut self.shadow {
            shadow.push(Scheduled {
                time,
                sequence: self.sequence,
                event: (),
            });
        }
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(s),
            Backend::Calendar(cal) => cal.insert(s),
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

    /// Drains `batch` into the queue after **stably** sorting it by time.
    ///
    /// This is how to bulk-schedule one round's worth of same-typed
    /// messages (no caller inside this library any more: a world routes
    /// its round batch by payload type through `schedule`; the repo
    /// benchmark and the queue tests drive this entry point).  Inserting
    /// in ascending time order appends to the tail of each calendar day
    /// (and turns a heap backend's pushes into O(1) sifts).  Determinism
    /// is preserved exactly — pops are ordered by `(time, insertion
    /// sequence)` and a stable sort keeps the relative order of equal-time
    /// entries, so the pop order is identical to scheduling the batch
    /// unsorted.  The sort uses `f64::total_cmp`: unlike a
    /// `partial_cmp(..).unwrap_or(Equal)` comparator, a NaN in the batch
    /// cannot scramble the surrounding entries before `schedule`'s
    /// validation rejects it.
    ///
    /// The batch vector is left empty with its capacity intact, ready for
    /// reuse by the next round.
    ///
    /// # Panics
    ///
    /// Panics if any entry's time is NaN or negative.
    pub fn schedule_batch(&mut self, batch: &mut Vec<(SimTime, E)>) {
        batch.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Backend::Heap(heap) = &mut self.backend {
            heap.reserve(batch.len());
        }
        for (time, event) in batch.drain(..) {
            self.schedule(time, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A straggler scheduled before every pending event still pops first
    /// on the calendar backend (the cursor rewinds to its day).
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
}
