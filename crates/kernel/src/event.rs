//! The future event list.
//!
//! Implemented as a bucketed two-level (calendar-style) queue: a timing
//! wheel of `NBUCKETS` buckets, each `1 << BUCKET_BITS` picoseconds
//! wide, plus an overflow heap for events beyond the wheel's horizon.
//! Dense simulations (the common case: every CPU, bank, and protocol
//! engine keeps scheduling a few cycles ahead) insert and pop in
//! amortized O(1) instead of the O(log n) of the former `BinaryHeap`,
//! while the drain order — strictly `(time, seq)` — is bit-identical to
//! the heap's.
//!
//! A bucket is about one CPU cycle wide, so it rarely holds more than a
//! handful of events and its sorted insert stays short. An occupancy
//! bitmap over the buckets finds the next non-empty one in a few word
//! operations however far ahead it lies, which keeps narrow buckets
//! cheap across idle stretches.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use piranha_types::SimTime;

/// log2 of the bucket width in picoseconds: 2.048 ns per bucket, about
/// one cycle of the paper's 500 MHz Piranha core.
const BUCKET_BITS: u32 = 11;
/// Number of wheel buckets (a power of two and a multiple of 64, the
/// occupancy bitmap's word size). The horizon is
/// `NBUCKETS << BUCKET_BITS` ≈ 2.1 µs: beyond a memory round trip or a
/// multi-hop network delivery, so the overflow heap only sees the rare
/// far-future event.
const NBUCKETS: usize = 1024;
/// Words in the occupancy bitmap.
const WORDS: usize = NBUCKETS / 64;

/// A deterministic future event list.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO tie-breaking via a monotone sequence number), which
/// is what makes whole-system simulations reproducible.
///
/// # Examples
///
/// ```
/// use piranha_kernel::EventQueue;
/// use piranha_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime(100), 1u32);
/// q.schedule(SimTime(100), 2u32);
/// q.schedule(SimTime(50), 3u32);
/// let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, [3, 1, 2]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The wheel. Invariant: every entry's day (`time >> BUCKET_BITS`)
    /// lies in `[day(now), day(now) + NBUCKETS)`, and because two days
    /// in that window never share a slot, each bucket holds entries of
    /// exactly one day, sorted ascending by `(time, seq)`.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Bit `s % 64` of word `s / 64` is set exactly when bucket `s` is
    /// non-empty.
    occupied: [u64; WORDS],
    /// Entries in the wheel (the rest are in `overflow`).
    wheel_len: usize,
    /// Events at or past the horizon, ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    scheduled: u64,
    popped: u64,
    migrated: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The wheel day (bucket-granularity timestamp) of an instant.
fn day(t: SimTime) -> u64 {
    t.0 >> BUCKET_BITS
}

/// The wheel slot of a day.
fn slot(day: u64) -> usize {
    (day as usize) & (NBUCKETS - 1)
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NBUCKETS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            scheduled: 0,
            popped: 0,
            migrated: 0,
        }
    }

    /// The day one past the last the wheel can currently hold.
    fn horizon(&self) -> u64 {
        day(self.now) + NBUCKETS as u64
    }

    /// Insert into the wheel bucket for `entry.time`, keeping the bucket
    /// sorted by `(time, seq)`.
    fn wheel_insert(&mut self, entry: Entry<E>) {
        debug_assert!(day(entry.time) >= day(self.now) && day(entry.time) < self.horizon());
        let s = slot(day(entry.time));
        let bucket = &mut self.buckets[s];
        // Sequence numbers only grow, so an insert usually lands last.
        if bucket.back().is_none_or(|b| b.key() <= entry.key()) {
            bucket.push_back(entry);
        } else {
            let key = entry.key();
            let at = bucket.partition_point(|e| e.key() <= key);
            bucket.insert(at, entry);
        }
        self.occupied[s / 64] |= 1 << (s % 64);
        self.wheel_len += 1;
    }

    /// The slot of the wheel's earliest bucket: the first occupied one
    /// at or cyclically after now's slot. Every wheel day lies in
    /// `[day(now), day(now) + NBUCKETS)`, so cyclic slot order from
    /// now's slot is day order.
    fn first_slot(&self) -> usize {
        debug_assert!(self.wheel_len > 0, "first_slot on an empty wheel");
        let start = slot(day(self.now));
        let (w0, b0) = (start / 64, start % 64);
        let ahead = self.occupied[w0] & (!0u64 << b0);
        if ahead != 0 {
            return w0 * 64 + ahead.trailing_zeros() as usize;
        }
        for i in 1..WORDS {
            let w = (w0 + i) % WORDS;
            if self.occupied[w] != 0 {
                return w * 64 + self.occupied[w].trailing_zeros() as usize;
            }
        }
        // All the way round: the bits below `start` in its own word.
        let behind = self.occupied[w0] & !(!0u64 << b0);
        debug_assert_ne!(behind, 0, "a non-empty wheel has an occupied bucket");
        w0 * 64 + behind.trailing_zeros() as usize
    }

    /// Move every overflow event that now fits the wheel into it.
    /// Each event migrates at most once over its lifetime.
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon();
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| day(e.time) < horizon)
        {
            let Reverse(e) = self.overflow.pop().expect("peeked entry present");
            self.wheel_insert(e);
            self.migrated += 1;
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the time of the last event popped —
    /// the simulation may never schedule into the past.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_seq(time, seq, event);
    }

    /// Schedule `event` at `time` with an externally allocated sequence
    /// number. This is the [`Scheduler`](crate::Scheduler) entry point:
    /// sub-queues of a per-node scheduler share one global seq counter
    /// so the merged drain order is identical to a single queue's.
    ///
    /// # Panics
    ///
    /// Panics like [`EventQueue::schedule`] on a past `time`. Callers
    /// must keep `seq` unique; equal-time entries drain in `seq` order.
    pub(crate) fn schedule_seq(&mut self, time: SimTime, seq: u64, event: E) {
        assert!(
            time >= self.now,
            "event scheduled at {time} is in the past (now = {})",
            self.now
        );
        self.scheduled += 1;
        let entry = Entry { time, seq, event };
        if day(time) >= self.horizon() {
            self.overflow.push(Reverse(entry));
        } else {
            self.wheel_insert(entry);
        }
    }

    /// Remove and return the earliest event, advancing the queue's notion
    /// of "now" to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| true)
    }

    /// Remove and return the earliest event if it fires strictly before
    /// `horizon`; otherwise return `None`, removing nothing and leaving
    /// [`now`](EventQueue::now) alone. The one-scan form of
    /// `peek_time() < horizon` followed by `pop()`, for loops that drain
    /// a window of simulated time.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.pop_if(|t| t < horizon)
    }

    /// Pop the earliest event if `take` accepts its time.
    #[inline]
    fn pop_if(&mut self, take: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let e = if self.wheel_len == 0 {
            // The overflow min is the global min when the wheel is empty.
            if !take(self.overflow.peek()?.0.time) {
                return None;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry present");
            self.now = e.time;
            self.migrate_overflow();
            e
        } else {
            // Events the horizon slid over since the last pop come first;
            // after that the wheel min is the global min.
            self.migrate_overflow();
            let s = self.first_slot();
            let bucket = &mut self.buckets[s];
            let front = bucket.front().expect("occupied bucket has a front");
            debug_assert_eq!(
                day(front.time),
                day(self.now) + ((s + NBUCKETS - slot(day(self.now))) % NBUCKETS) as u64,
                "one bucket holds one day, within the horizon"
            );
            if !take(front.time) {
                return None;
            }
            let e = bucket.pop_front().expect("front exists");
            if bucket.is_empty() {
                self.occupied[s / 64] &= !(1 << (s % 64));
            }
            self.wheel_len -= 1;
            self.now = e.time;
            e
        };
        self.popped += 1;
        Some((e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the earliest pending event, if any —
    /// the key [`pop`](EventQueue::pop) would deliver next. The merge
    /// loop of [`Scheduler`](crate::Scheduler) compares these keys
    /// across sub-queues.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        // Migration is lazy, so the overflow min can precede the wheel
        // min; take the smaller of the two keys.
        let over = self.overflow.peek().map(|Reverse(e)| e.key());
        if self.wheel_len == 0 {
            return over;
        }
        let wheel = self.buckets[self.first_slot()]
            .front()
            .expect("occupied bucket has a front")
            .key();
        Some(match over {
            Some(o) if o < wheel => o,
            _ => wheel,
        })
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime. At quiescence
    /// `scheduled() == popped() + len() as u64` — the accounting
    /// invariant the kernel tests assert, for standalone queues and for
    /// every sub-queue of a [`Scheduler`](crate::Scheduler) alike.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Events that migrated from the overflow heap into the wheel (a
    /// health signal: near zero in steady state).
    pub fn migrated(&self) -> u64 {
        self.migrated
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 'c');
        q.schedule(SimTime(10), 'a');
        q.schedule(SimTime(20), 'b');
        assert_eq!(q.pop(), Some((SimTime(10), 'a')));
        assert_eq!(q.pop(), Some((SimTime(20), 'b')));
        assert_eq!(q.pop(), Some((SimTime(30), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn ties_break_fifo_across_the_horizon() {
        // Same instant, scheduled both before and after the time lands
        // inside the wheel: seq order must still win.
        let far = (NBUCKETS as u64 + 5) << BUCKET_BITS;
        let mut q = EventQueue::new();
        q.schedule(SimTime(far), 0); // goes to overflow
        q.schedule(SimTime(1), 100);
        assert_eq!(q.pop(), Some((SimTime(1), 100)));
        // `far` is now within the horizon of `now`; this insert goes to
        // the wheel while event 0 migrates from overflow.
        q.schedule(SimTime(far), 1);
        assert_eq!(
            q.pop(),
            Some((SimTime(far), 0)),
            "overflow entry keeps FIFO priority"
        );
        assert_eq!(q.pop(), Some((SimTime(far), 1)));
    }

    #[test]
    fn overflow_entries_interleave_correctly_with_wheel() {
        // An event far beyond the horizon must not be overtaken by a
        // later-time wheel event once the horizon slides past it.
        let mut q = EventQueue::new();
        let far = (NBUCKETS as u64 + 100) << BUCKET_BITS; // beyond horizon
        q.schedule(SimTime(far), "far");
        // A dense stream of near events dragging `now` forward so `far`
        // enters the horizon while the wheel is still busy.
        let step = 1u64 << BUCKET_BITS;
        for i in 1..=(NBUCKETS as u64 + 150) {
            q.schedule(SimTime(i * step), "near");
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = q.pop() {
            popped.push((t.0, e));
        }
        let all_sorted = popped.windows(2).all(|w| w[0].0 <= w[1].0);
        assert!(all_sorted, "drain order must be globally time-sorted");
        let far_pos = popped.iter().position(|&(t, _)| t == far).unwrap();
        assert_eq!(popped[far_pos].1, "far");
        assert!(popped[..far_pos].iter().all(|&(t, _)| t < far));
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        // Scheduling at exactly `now` is allowed.
        q.schedule(SimTime(5), ());
        assert_eq!(q.peek_time(), Some(SimTime(5)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(9), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        q.schedule(SimTime(1), 0);
        q.schedule(SimTime(2), 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn lifetime_counters_track_traffic() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let far = (NBUCKETS as u64 + 5) << BUCKET_BITS;
        q.schedule(SimTime(far), 0); // lands in overflow
        q.schedule(SimTime(1), 1);
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.popped(), 0);
        q.pop(); // t = 1
                 // Drag `now` forward until `far` fits the horizon, with the
                 // wheel kept non-empty so the pop path performs the migration.
        q.schedule(SimTime(6 << BUCKET_BITS), 2);
        q.pop();
        q.schedule(SimTime(7 << BUCKET_BITS), 3);
        q.pop();
        assert_eq!(q.migrated(), 1, "overflow entry migrated into the wheel");
        assert_eq!(q.pop(), Some((SimTime(far), 0)));
        assert_eq!(q.popped(), 4);
        assert_eq!(q.scheduled(), 4);
    }

    #[test]
    fn scheduled_equals_popped_plus_pending() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..50 {
            q.schedule(SimTime(i * 7), i as u32);
        }
        for _ in 0..20 {
            q.pop();
        }
        assert_eq!(q.scheduled(), q.popped() + q.len() as u64);
        while q.pop().is_some() {}
        assert_eq!(q.scheduled(), q.popped() + q.len() as u64);
        assert_eq!(q.popped(), 50);
    }

    #[test]
    fn len_counts_overflow() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime(1), 0);
        q.schedule(SimTime(u64::MAX / 2), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// The old `BinaryHeap<Reverse<Entry>>` future event list, kept as a
    /// drain-order oracle for the calendar queue.
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        seq: u64,
    }

    impl HeapOracle {
        fn new() -> Self {
            HeapOracle {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn schedule(&mut self, t: SimTime, e: u32) {
            self.heap.push(Reverse((t, self.seq, e)));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|Reverse((t, _, e))| (t, e))
        }
        fn peek_key(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|Reverse((t, s, _))| (*t, *s))
        }
        fn pop_before(&mut self, h: SimTime) -> Option<(SimTime, u32)> {
            if self.peek_key()?.0 < h {
                self.pop()
            } else {
                None
            }
        }
    }

    /// A tiny deterministic PRNG (splitmix64) for the randomized oracle
    /// comparison.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn randomized_drain_order_matches_heap_oracle() {
        let width = 1u64 << BUCKET_BITS;
        let horizon = (NBUCKETS as u64) << BUCKET_BITS;
        for seed in 0..8u64 {
            let mut rng = Rng(seed);
            let mut q = EventQueue::new();
            let mut oracle = HeapOracle::new();
            let mut now = 0u64;
            // A delta from now, drawn to straddle both the bucket width
            // and the wheel horizon, where the slot arithmetic and the
            // overflow migration have their edge cases.
            let delta = |rng: &mut Rng| match rng.next() % 10 {
                0 => (rng.next() % 4) << (BUCKET_BITS + 12),     // far
                1 => horizon - width + rng.next() % (2 * width), // at the horizon
                2 => width - 2 + rng.next() % 4,                 // at a bucket edge
                3 | 4 => 0,                                      // tie
                _ => rng.next() % (width << 4),                  // near
            };
            for i in 0..5_000u32 {
                // Mixed workload: mostly near-future schedules with
                // occasional far (past-horizon) ones, interleaved with
                // pops, bounded pops and peeks, mimicking a real
                // simulation's pattern.
                let roll = rng.next() % 100;
                if roll < 55 || q.is_empty() {
                    let t = SimTime(now + delta(&mut rng));
                    q.schedule(t, i);
                    oracle.schedule(t, i);
                } else if roll < 75 {
                    let got = q.pop();
                    let want = oracle.pop();
                    assert_eq!(got, want, "divergence from heap oracle (seed {seed})");
                    if let Some((t, _)) = got {
                        now = t.0;
                    }
                } else if roll < 90 {
                    let h = SimTime(now + delta(&mut rng));
                    let got = q.pop_before(h);
                    let want = oracle.pop_before(h);
                    assert_eq!(got, want, "bounded pop diverged (seed {seed})");
                    if let Some((t, _)) = got {
                        now = t.0;
                    }
                } else {
                    assert_eq!(q.peek_key(), oracle.peek_key(), "peek_key (seed {seed})");
                    assert_eq!(
                        q.peek_time(),
                        oracle.peek_key().map(|(t, _)| t),
                        "peek_time (seed {seed})"
                    );
                }
                assert_eq!(q.len(), oracle.heap.len());
            }
            loop {
                assert_eq!(q.peek_key(), oracle.peek_key(), "tail peek (seed {seed})");
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "tail drain divergence (seed {seed})");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(q.scheduled(), q.popped());
        }
    }

    #[test]
    fn pop_before_is_strict_and_leaves_later_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 'a');
        q.schedule(SimTime(20), 'b');
        assert_eq!(q.pop_before(SimTime(10)), None, "the horizon is exclusive");
        assert_eq!(q.pop_before(SimTime(11)), Some((SimTime(10), 'a')));
        assert_eq!(q.pop_before(SimTime(11)), None);
        assert_eq!(q.now(), SimTime(10), "a refused pop leaves now alone");
        assert_eq!(q.len(), 1);
        // An overflow-only queue answers bounded pops too.
        let far = SimTime((NBUCKETS as u64 + 3) << BUCKET_BITS);
        q.schedule(far, 'c');
        assert_eq!(q.pop(), Some((SimTime(20), 'b')));
        assert_eq!(q.pop_before(far), None);
        assert_eq!(q.pop_before(SimTime(far.0 + 1)), Some((far, 'c')));
        assert!(q.is_empty());
        assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
    }
}
