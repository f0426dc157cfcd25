//! Per-partition future event lists for parallel-in-space execution.
//!
//! A [`Partition`] is one lane's private event queue: unlike
//! [`Scheduler`](crate::Scheduler), whose sub-queues share one global
//! sequence counter so the merged drain is bit-identical to a single
//! queue, partitions allocate sequence numbers **locally**. That is what
//! lets a lane run on its own worker thread without synchronizing on a
//! shared allocator — and it forces an explicit, deterministic merge
//! rule at quantum barriers: cross-partition events are delivered in
//! ascending `(time, source partition, intra-quantum seq)` order (see
//! `piranha-parsim`), a total key that no thread interleaving can
//! perturb.
//!
//! [`Lookahead`] holds the conservative synchronization bounds: a full
//! per-pair matrix of minimum cross-partition delivery latencies,
//! computed from the interconnect topology at wiring time. Events a
//! partition emits at time `t` for partition `d` are due no earlier
//! than `t + bound(src, d)`; the matrix minimum (the *quantum*) is the
//! window every partition may safely advance through — to
//! `horizon = t_min + quantum` — before the next barrier, because
//! nothing another lane does inside that window can affect it.

use piranha_types::{Duration, SimTime};

use crate::EventQueue;

/// One lane's private, deterministically ordered future event list.
///
/// A thin wrapper over [`EventQueue`] that fixes the sequence space to
/// be partition-local: every `(time, seq)` key is allocated and consumed
/// by the owning lane alone, so two partitions never contend and their
/// drains are reproducible independently of each other.
///
/// # Examples
///
/// ```
/// use piranha_kernel::Partition;
/// use piranha_types::SimTime;
///
/// let mut p = Partition::new();
/// p.schedule(SimTime(30), "b");
/// p.schedule(SimTime(10), "a");
/// assert_eq!(p.peek_time(), Some(SimTime(10)));
/// assert_eq!(p.pop(), Some((SimTime(10), "a")));
/// ```
#[derive(Debug)]
pub struct Partition<E> {
    queue: EventQueue<E>,
}

impl<E> Default for Partition<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Partition<E> {
    /// An empty partition positioned at time zero.
    pub fn new() -> Self {
        Partition {
            queue: EventQueue::new(),
        }
    }

    /// Schedule `event` at absolute time `time`, stamping the next
    /// partition-local sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes this partition's last popped time. Note
    /// the guard is *local*: a barrier may legally deliver an event that
    /// is in another partition's past, as long as it is in this one's
    /// future — the quantum bound guarantees exactly that.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time, event);
    }

    /// Remove and return the earliest `(time, event)`, advancing the
    /// partition's local clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop()
    }

    /// Remove and return the earliest `(time, event)` if it fires
    /// strictly before `horizon` (see [`EventQueue::pop_before`]): one
    /// wheel scan per event for a lane draining its window.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.queue.pop_before(horizon)
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    /// Orderings across partitions must extend this with the partition
    /// index — local seqs from different partitions are not comparable
    /// on their own.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.queue.peek_key()
    }

    /// The time of the most recently popped event (the partition's local
    /// clock, which trails the global clock between barriers).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Lifetime scheduled-event count.
    pub fn scheduled(&self) -> u64 {
        self.queue.scheduled()
    }

    /// Lifetime popped-event count.
    pub fn popped(&self) -> u64 {
        self.queue.popped()
    }

    /// Overflow-to-wheel migrations (health signal; near zero in steady
    /// state).
    pub fn migrated(&self) -> u64 {
        self.queue.migrated()
    }
}

/// The conservative synchronization bounds for a partitioned run: the
/// per-pair lookahead matrix plus the derived per-destination and global
/// minima.
///
/// `bound(src, dst)` is a lower bound on how long any event partition
/// `src` emits takes to become visible at partition `dst` — topology
/// hop distance × per-hop minimum, derived from the interconnect at
/// wiring time. Two reductions matter operationally:
///
/// * [`quantum`](Lookahead::quantum) — the matrix minimum over distinct
///   pairs. The window `[t_min, t_min + quantum)` is safe for *every*
///   partition simultaneously, which is what the barrier engine steps
///   by.
/// * [`min_into`](Lookahead::min_into) — the minimum over sources that
///   can reach one destination. Diagnostic of how much slack each lane
///   has beyond the global quantum (on asymmetric topologies some lanes
///   could run further ahead than the fleet).
///
/// Every off-diagonal bound must be strictly positive: a zero-latency
/// cross-partition path would let one lane affect another *inside* a
/// window, and no parallel schedule could be conservative.
#[derive(Debug, Clone)]
pub struct Lookahead {
    /// `bounds[src][dst]`; zero on the diagonal (never consulted).
    bounds: Vec<Vec<Duration>>,
    /// Minimum off-diagonal bound: the global window quantum.
    quantum: Duration,
    /// `min_into[dst]` = min over `src != dst` of `bounds[src][dst]`.
    min_into: Vec<Duration>,
}

impl Lookahead {
    /// A lookahead from a full per-pair bound matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with at least two partitions,
    /// or if any off-diagonal bound is zero — asserted here, at wiring
    /// time, so a misconfigured interconnect fails fast instead of
    /// producing subtly non-deterministic parallel runs.
    pub fn from_bounds(bounds: Vec<Vec<Duration>>) -> Self {
        let n = bounds.len();
        assert!(n >= 2, "a lookahead matrix needs at least two partitions");
        let mut quantum = Duration(u64::MAX);
        let mut min_into = vec![Duration(u64::MAX); n];
        for (s, row) in bounds.iter().enumerate() {
            assert_eq!(row.len(), n, "lookahead matrix must be square");
            for (d, &b) in row.iter().enumerate() {
                if s == d {
                    continue;
                }
                assert!(
                    b > Duration::ZERO,
                    "conservative lookahead requires a strictly positive quantum \
                     (minimum cross-node delivery latency), but {s}->{d} is zero"
                );
                quantum = quantum.min(b);
                min_into[d] = min_into[d].min(b);
            }
        }
        Lookahead {
            bounds,
            quantum,
            min_into,
        }
    }

    /// The degenerate uniform matrix: every distinct pair bounded by the
    /// same `quantum` (the fixed-quantum engine's view of the world, and
    /// exactly what [`from_bounds`](Lookahead::from_bounds) yields for a
    /// fully connected topology).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `nodes < 2`.
    pub fn uniform(nodes: usize, quantum: Duration) -> Self {
        let bounds = (0..nodes)
            .map(|s| {
                (0..nodes)
                    .map(|d| if s == d { Duration::ZERO } else { quantum })
                    .collect()
            })
            .collect();
        Self::from_bounds(bounds)
    }

    /// Number of partitions the matrix covers.
    pub fn nodes(&self) -> usize {
        self.bounds.len()
    }

    /// The global lookahead bound: the matrix minimum over distinct
    /// pairs.
    pub fn quantum(&self) -> Duration {
        self.quantum
    }

    /// The conservative delivery bound from `src` to `dst` (zero when
    /// `src == dst`).
    pub fn bound(&self, src: usize, dst: usize) -> Duration {
        self.bounds[src][dst]
    }

    /// The earliest any *other* partition's traffic can land at `dst`,
    /// relative to its send time.
    pub fn min_into(&self, dst: usize) -> Duration {
        self.min_into[dst]
    }

    /// Whether every distinct pair shares the global quantum (true for
    /// fully connected topologies, where the matrix buys nothing over
    /// the fixed-quantum engine).
    pub fn is_uniform(&self) -> bool {
        self.bounds.iter().enumerate().all(|(s, row)| {
            row.iter()
                .enumerate()
                .all(|(d, &b)| s == d || b == self.quantum)
        })
    }

    /// The horizon of the window starting at `earliest`: partitions may
    /// process every event strictly before it. Using the *global*
    /// earliest pending event as the base (rather than a fixed cadence)
    /// makes idle stretches skip ahead in one window.
    pub fn horizon(&self, earliest: SimTime) -> SimTime {
        earliest + self.quantum
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::Scheduler;

    #[test]
    fn partition_seqs_are_local() {
        let mut a: Partition<u32> = Partition::new();
        let mut b: Partition<u32> = Partition::new();
        a.schedule(SimTime(5), 0);
        b.schedule(SimTime(5), 1);
        // Both partitions hand out seq 0: the spaces are independent.
        assert_eq!(a.peek_key(), Some((SimTime(5), 0)));
        assert_eq!(b.peek_key(), Some((SimTime(5), 0)));
    }

    #[test]
    fn uniform_lookahead_horizon() {
        let la = Lookahead::uniform(3, Duration::from_ns(20));
        assert_eq!(la.nodes(), 3);
        assert_eq!(la.quantum(), Duration::from_ns(20));
        assert!(la.is_uniform());
        assert_eq!(la.horizon(SimTime::from_ns(100)), SimTime::from_ns(120));
        for d in 0..3 {
            assert_eq!(la.min_into(d), Duration::from_ns(20));
        }
    }

    #[test]
    fn matrix_lookahead_minima() {
        // A 3-node line: 0-1-2. Pair (0,2) is two hops.
        let q = Duration::from_ns(20);
        let la = Lookahead::from_bounds(vec![
            vec![Duration::ZERO, q, q.times(2)],
            vec![q, Duration::ZERO, q],
            vec![q.times(2), q, Duration::ZERO],
        ]);
        assert_eq!(la.quantum(), q, "global quantum is the matrix minimum");
        assert!(!la.is_uniform());
        assert_eq!(la.bound(0, 2), q.times(2));
        assert_eq!(la.bound(2, 0), q.times(2));
        // The middle node is reachable in one hop from both ends; the
        // ends only see one-hop traffic from the middle.
        for d in 0..3 {
            assert_eq!(la.min_into(d), q);
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive quantum")]
    fn zero_quantum_rejected() {
        let _ = Lookahead::uniform(2, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_rejected() {
        let _ = Lookahead::from_bounds(vec![vec![Duration::ZERO, Duration(1)], vec![Duration(1)]]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn partition_guards_its_local_past() {
        let mut p: Partition<()> = Partition::new();
        p.schedule(SimTime(10), ());
        p.pop();
        p.schedule(SimTime(9), ());
    }

    /// A tiny deterministic PRNG (splitmix64) for the oracle test.
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

    /// Pop the globally next event from a set of partitions under the
    /// barrier merge rule: minimum `(time, partition, local seq)`.
    fn pop_partitioned<E>(parts: &mut [Partition<E>]) -> Option<(SimTime, usize, E)> {
        let best = parts
            .iter()
            .enumerate()
            .filter_map(|(n, p)| p.peek_key().map(|(t, s)| (t, n, s)))
            .min()?;
        let (t, e) = parts[best.1].pop().expect("peeked entry exists");
        Some((t, best.1, e))
    }

    /// The head-cache oracle, interleaved with the partition API: the
    /// same randomized op stream drives (a) a `Scheduler`, whose
    /// `Head::Unknown` invalidation must reproduce a single binary
    /// heap's global-seq order, and (b) a set of `Partition`s, whose
    /// per-partition seq spaces must reproduce a binary heap ordered by
    /// the barrier merge key `(time, partition, local seq)`. Schedules
    /// right at `now` and repeated pops on one node force head-cache
    /// recomputation through every `Head` state.
    #[test]
    fn scheduler_and_partitions_match_binary_heap_oracles() {
        for seed in 0..12u64 {
            let mut rng = Rng(seed);
            let nodes = 2 + (seed as usize % 4);
            let mut sched: Scheduler<u32> = Scheduler::new(nodes);
            let mut parts: Vec<Partition<u32>> = (0..nodes).map(|_| Partition::new()).collect();
            let mut part_seq = vec![0u64; nodes];
            // Oracles: plain binary heaps over the two merge keys.
            let mut heap_global: BinaryHeap<Reverse<(SimTime, u64, usize, u32)>> =
                BinaryHeap::new();
            let mut heap_part: BinaryHeap<Reverse<(SimTime, usize, u64, u32)>> = BinaryHeap::new();
            let mut gseq = 0u64;
            let mut now = 0u64;
            let mut part_now = vec![0u64; nodes];
            for i in 0..4_000u32 {
                let roll = rng.next() % 100;
                if roll < 55 || sched.is_empty() {
                    let node = (rng.next() as usize) % nodes;
                    let delta = match rng.next() % 8 {
                        0 => (rng.next() % 3) << 28, // far (past the wheel horizon)
                        1..=3 => 0,                  // tie at now
                        _ => rng.next() % (1 << 16), // near
                    };
                    let t = SimTime(now.max(part_now[node]) + delta);
                    sched.schedule(node, t, i);
                    heap_global.push(Reverse((t, gseq, node, i)));
                    gseq += 1;
                    parts[node].schedule(t, i);
                    heap_part.push(Reverse((t, node, part_seq[node], i)));
                    part_seq[node] += 1;
                } else {
                    // Scheduler vs global-seq heap (head cache under test).
                    let got = sched.pop();
                    let want = heap_global.pop().map(|Reverse((t, _, n, e))| (t, n, e));
                    assert_eq!(got, want, "scheduler diverged from heap (seed {seed})");
                    if let Some((t, _, _)) = got {
                        now = t.0;
                    }
                    // Partitions vs barrier-merge-key heap.
                    let got = pop_partitioned(&mut parts);
                    let want = heap_part.pop().map(|Reverse((t, n, _, e))| (t, n, e));
                    assert_eq!(got, want, "partitions diverged from heap (seed {seed})");
                    if let Some((t, n, _)) = got {
                        part_now[n] = t.0;
                    }
                }
            }
            loop {
                let got = sched.pop();
                let want = heap_global.pop().map(|Reverse((t, _, n, e))| (t, n, e));
                assert_eq!(got, want, "scheduler tail divergence (seed {seed})");
                let gotp = pop_partitioned(&mut parts);
                let wantp = heap_part.pop().map(|Reverse((t, n, _, e))| (t, n, e));
                assert_eq!(gotp, wantp, "partition tail divergence (seed {seed})");
                if got.is_none() && gotp.is_none() {
                    break;
                }
            }
        }
    }
}
