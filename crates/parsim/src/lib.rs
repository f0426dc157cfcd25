//! Conservative parallel-in-space execution with deterministic window
//! barriers (the parti-gem5 / ScaleSimulator recipe adapted to Piranha).
//!
//! The model: a simulation is split into *lanes* (one simulated node —
//! chip plus its memory/protocol/router adapters — per lane). Every lane
//! advances independently through the events of one *window* — the span
//! `[t_min, t_min + quantum)` where `quantum` is the minimum cross-lane
//! delivery latency — and then the lanes synchronize. Cross-lane events
//! generated inside the window are buffered in each lane's [`Outbox`]
//! and merged at the barrier in a deterministic order keyed by `(time,
//! source lane, intra-window seq)`. Because no buffered event can be due
//! before the barrier (the quantum is a conservative lookahead bound),
//! the parallel schedule is *race-free by construction*: every lane sees
//! exactly the event order a serial execution of the same engine would
//! produce, so fingerprints are bit-identical for any worker count,
//! including one.
//!
//! # The train protocol
//!
//! Windows are tens of simulated nanoseconds, so a multi-chip run
//! executes hundreds of thousands of them; making each one cheap is
//! what decides whether `--parallel` beats serial. [`run_windows`]
//! therefore separates the two costs a window can incur:
//!
//! * **Per window** (every ~5 µs of wall-clock): a lock-free gate
//!   handoff — the sequencer publishes the next horizon on an atomic,
//!   workers pick it up, advance their lanes, and bump a completion
//!   counter. No mutex, no condvar in the common case, and the
//!   sequencer thread doubles as worker 0 so the control closure never
//!   migrates off the calling thread.
//! * **Per round** (every [`TRAIN_WINDOWS`] windows): a full
//!   [`SpinBarrier`] rendezvous where stall time is flushed to the
//!   optional probe callback. Rounds are the engine's unit of *real*
//!   synchronization, reported as `EngineStats::rounds`.
//!
//! The control closure receives the lanes as a plain `&mut [L]` — at a
//! barrier every worker is provably parked, so the coordinator drains
//! outboxes and injects arrivals with ordinary exclusive access, no
//! per-lane locking.
//!
//! The crate is deliberately ignorant of what a lane *is*: the system
//! crate supplies the lane type and the advance/control closures;
//! everything here is scheduling glue — the gates, the outbox buffers,
//! the deterministic merge, and the window driver.

#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use piranha_types::SimTime;

/// Windows executed between two full barrier rendezvous ("one train").
/// Within a train, consecutive windows hand off through lock-free
/// gates; the blocking rendezvous — and the probe flush — happens only
/// at train boundaries, dividing the engine's synchronization rounds by
/// this factor.
pub const TRAIN_WINDOWS: u64 = 8;

/// Execution counters of one [`run_windows`] drive, identical for every
/// worker count (they describe the simulation's window structure, not
/// the thread schedule).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Barrier rendezvous executed: `windows.div_ceil(TRAIN_WINDOWS)`.
    /// This is the engine's real synchronization count — the number the
    /// fixed-quantum engine paid *per window*.
    pub rounds: u64,
    /// Logical windows executed (one horizon publication each).
    pub windows: u64,
    /// Control passes that found no cross-lane traffic to merge
    /// (maintained by the control closure).
    pub empty_windows: u64,
    /// Cross-lane events merged at barriers (maintained by the control
    /// closure).
    pub merged_events: u64,
}

/// A hybrid spin/block barrier for tightly coupled window loops.
///
/// Train rendezvous fire every few hundred simulated nanoseconds — many
/// thousands of times per wall-clock second — so rendezvous latency is
/// on the critical path. When the host has a core per party, waiters
/// spin briefly on the generation word (the common case: lanes finish a
/// train within microseconds of each other) before blocking. On an
/// *oversubscribed* host spinning is skipped entirely and waiters go
/// straight to a [`Condvar`]: a spinning or `yield_now`-ing waiter on a
/// shared core steals exactly the timeslices the straggler needs (CFS
/// `sched_yield` readily reschedules the yielder), turning every
/// rendezvous into milliseconds — a real sleep keeps the penalty at a
/// futex round-trip instead.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    /// Spin iterations before blocking; 0 when oversubscribed.
    spin: u32,
    /// Arrival count of the current generation, guarded for the condvar.
    count: Mutex<usize>,
    cv: Condvar,
    generation: AtomicU64,
}

impl SpinBarrier {
    /// A barrier releasing once `parties` threads have called
    /// [`wait`](SpinBarrier::wait).
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            parties,
            spin: if parties <= cores { 1 << 12 } else { 0 },
            count: Mutex::new(0),
            cv: Condvar::new(),
            generation: AtomicU64::new(0),
        }
    }

    /// Block until all parties have arrived.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        {
            let mut count = self.count.lock().unwrap();
            *count += 1;
            if *count == self.parties {
                // Last arriver resets the count for the next round, then
                // releases everyone: the generation advances under the
                // lock (so a blocked waiter cannot miss it) and spinners
                // see the atomic store without touching the lock.
                *count = 0;
                self.generation.fetch_add(1, Ordering::Release);
                drop(count);
                self.cv.notify_all();
                return;
            }
        }
        for _ in 0..self.spin {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut count = self.count.lock().unwrap();
        while self.generation.load(Ordering::Acquire) == gen {
            count = self.cv.wait(count).unwrap();
        }
    }
}

/// A monotone epoch gate: one side publishes increasing values, the
/// other waits for the value to reach a threshold. This is the
/// per-window synchronization primitive of the train protocol — the
/// fast path is a single `SeqCst` load, the slow path a bounded spin,
/// and only a waiter that outlasts the spin (or any waiter on an
/// oversubscribed host) touches the mutex/condvar pair. The publisher
/// takes the lock only when a sleeper has registered, so an in-phase
/// train advances with zero lock traffic.
///
/// Lost-wakeup freedom is a `SeqCst` exchange argument: the publisher
/// stores the value *then* loads the sleeper count; a waiter increments
/// the sleeper count *then* re-checks the value (under the lock). If
/// the waiter missed the value, its load preceded the store in the
/// total order, so its increment preceded the publisher's sleeper load
/// — the publisher sees it and notifies.
#[derive(Debug)]
struct Gate {
    value: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    /// Spin iterations before sleeping; 0 when oversubscribed.
    spin: u32,
}

impl Gate {
    fn new(spin: u32) -> Self {
        Gate {
            value: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            spin,
        }
    }

    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this wakeup against a waiter that
            // registered but has not reached `cv.wait` yet: it holds the
            // lock while re-checking the value, so it either sees the
            // new value or is parked when the notify lands.
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Publish a new (strictly larger) value.
    fn publish(&self, v: u64) {
        self.value.store(v, Ordering::SeqCst);
        self.wake_sleepers();
    }

    /// Add `n` to the value (concurrent counting from many threads).
    fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::SeqCst);
        self.wake_sleepers();
    }

    fn wait_min_slow(&self, v: u64) {
        for _ in 0..self.spin {
            if self.value.load(Ordering::SeqCst) >= v {
                return;
            }
            std::hint::spin_loop();
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap();
        while self.value.load(Ordering::SeqCst) < v {
            guard = self.cv.wait(guard).unwrap();
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wait until the value reaches `v`, accumulating any wall-clock
    /// spent waiting (beyond the instant fast path) into `stall_ns`.
    fn wait_min(&self, v: u64, stall_ns: &AtomicU64) {
        if self.value.load(Ordering::SeqCst) >= v {
            return;
        }
        let t0 = Instant::now();
        self.wait_min_slow(v);
        stall_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A raw lane-slice handle shared across the round protocol's threads.
///
/// Soundness rests on the protocol, not the type: the issue/done gates
/// and the train barrier hand each lane to exactly one thread per
/// window, with a happens-before edge (the gates' `SeqCst` traffic)
/// between consecutive owners, so every temporary `&mut` derived below
/// is exclusive for its lifetime. All access goes through this one raw
/// pointer — the caller's original `&mut [L]` is not touched again
/// until the drive returns.
struct LaneSlice<L> {
    base: *mut L,
    len: usize,
}

unsafe impl<L: Send> Send for LaneSlice<L> {}
unsafe impl<L: Send> Sync for LaneSlice<L> {}

impl<L> LaneSlice<L> {
    /// Exclusive access to lane `i`.
    ///
    /// # Safety
    ///
    /// The round protocol must guarantee no other thread accesses lane
    /// `i` for the returned borrow's lifetime.
    #[allow(clippy::mut_from_ref)]
    unsafe fn lane(&self, i: usize) -> &mut L {
        debug_assert!(i < self.len);
        &mut *self.base.add(i)
    }

    /// Exclusive access to every lane at once (coordinator only, with
    /// all workers parked).
    ///
    /// # Safety
    ///
    /// The round protocol must guarantee no other thread accesses any
    /// lane for the returned borrow's lifetime.
    #[allow(clippy::mut_from_ref)]
    unsafe fn all(&self) -> &mut [L] {
        std::slice::from_raw_parts_mut(self.base, self.len)
    }
}

/// A cross-lane event buffered inside a window: send time plus the
/// intra-window sequence number that makes the barrier merge total.
#[derive(Debug, Clone)]
pub struct Outbound<T> {
    /// When the source lane emitted the event.
    pub time: SimTime,
    /// Position in the source lane's send order (monotone per lane).
    pub seq: u64,
    /// The buffered payload.
    pub payload: T,
}

/// Per-lane buffer of cross-lane events awaiting the next barrier.
///
/// Events are pushed in the source lane's execution order, which is
/// nondecreasing in time, so each outbox is already sorted by
/// `(time, seq)`; the barrier merge only interleaves sources.
#[derive(Debug)]
pub struct Outbox<T> {
    entries: Vec<Outbound<T>>,
    next_seq: u64,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Outbox<T> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Buffer `payload`, emitted at `time`, stamping the next sequence
    /// number. The sequence space is per-lane and never resets, so an
    /// entry's `(time, source, seq)` key is unique for a whole run.
    pub fn push(&mut self, time: SimTime, payload: T) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.time <= time),
            "outbox pushes must be nondecreasing in time"
        );
        self.entries.push(Outbound {
            time,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Take every buffered event, leaving the outbox empty (sequence
    /// numbering continues where it left off).
    pub fn drain(&mut self) -> Vec<Outbound<T>> {
        std::mem::take(&mut self.entries)
    }

    /// Drain every buffered event into `out` as [`Merged`] entries
    /// tagged with `source`, leaving the outbox empty but keeping its
    /// allocation. The allocation-free sibling of
    /// [`drain`](Outbox::drain) + [`merge_outboxes`] for the hot barrier
    /// path: the caller reuses one merge buffer across windows and sorts
    /// it once with [`sort_merged`].
    pub fn drain_into(&mut self, source: usize, out: &mut Vec<Merged<T>>) {
        out.extend(self.entries.drain(..).map(|e| Merged {
            time: e.time,
            source,
            seq: e.seq,
            payload: e.payload,
        }));
    }
}

/// A buffered event tagged with its source lane, ready for delivery.
#[derive(Debug, Clone)]
pub struct Merged<T> {
    /// When the source lane emitted the event.
    pub time: SimTime,
    /// The lane that emitted it.
    pub source: usize,
    /// The source lane's intra-window sequence number.
    pub seq: u64,
    /// The payload to deliver.
    pub payload: T,
}

/// Sort a merge buffer into the canonical barrier order: ascending
/// `(time, source, seq)`. This single total order is what makes a
/// parallel window bit-identical to a serial one — the interleaving of
/// cross-lane traffic is a pure function of the simulation, never of
/// thread scheduling. `(source, seq)` is unique, so the key is total
/// and the unstable sort is deterministic.
pub fn sort_merged<T>(buf: &mut [Merged<T>]) {
    buf.sort_unstable_by_key(|m| (m.time, m.source, m.seq));
}

/// Merge per-source outbox drains into the canonical barrier order
/// (allocating convenience over [`Outbox::drain_into`] +
/// [`sort_merged`]).
pub fn merge_outboxes<T>(
    per_source: impl IntoIterator<Item = (usize, Vec<Outbound<T>>)>,
) -> Vec<Merged<T>> {
    let mut merged: Vec<Merged<T>> = per_source
        .into_iter()
        .flat_map(|(source, entries)| {
            entries.into_iter().map(move |e| Merged {
                time: e.time,
                source,
                seq: e.seq,
                payload: e.payload,
            })
        })
        .collect();
    sort_merged(&mut merged);
    merged
}

/// How many sweep-level threads a harness should use when each run may
/// itself spawn `per_run` lane workers: the two levels multiply, so they
/// share one budget rather than both claiming all of it.
pub fn sweep_share(total_threads: usize, per_run: usize) -> usize {
    (total_threads / per_run.max(1)).max(1)
}

/// Stash the first panic payload; later panics are dropped (the first
/// is the one that matters, and it is the one re-raised).
fn stash_panic(slot: &Mutex<Option<Box<dyn Any + Send>>>, payload: Box<dyn Any + Send>) {
    let mut guard = slot.lock().unwrap();
    guard.get_or_insert(payload);
}

/// Drive lanes through barrier windows until `control` stops the run,
/// returning the execution counters.
///
/// Each window: `control` runs on the calling thread with exclusive
/// `&mut` access to every lane (merge the previous window's outboxes,
/// check stop conditions, pick the next horizon); if it returns a
/// horizon, every lane is advanced to it — across `workers` threads
/// when `workers > 1` (the caller doubles as worker 0), inline
/// otherwise — and the cycle repeats. Returning `None` ends the run
/// *after* the previous window's traffic has been merged, so no
/// buffered event is ever lost.
///
/// Lanes are distributed to workers round-robin by index; each lane is
/// touched by exactly one worker per window, and the gate pair orders
/// every worker's lane mutations before the next `control` call. The
/// worker count therefore cannot change *what* a lane computes, only
/// *when* — determinism is structural, and the returned [`EngineStats`]
/// are identical for every worker count.
///
/// `stall_probe`, when present, is called at every train rendezvous (and
/// once at shutdown) with `(worker index, gate-wait nanoseconds since
/// the last flush)` for each worker — the raw material for per-lane
/// barrier-stall histograms. Worker `w` owns lanes `w, w + workers, …`.
///
/// # Panics
///
/// Re-raises the first panic from `advance` (on any worker) or from
/// `control`; either way every worker thread is released and joined
/// first, so a panicking simulation cannot leak parked threads.
pub fn run_windows<L: Send>(
    workers: usize,
    lanes: &mut [L],
    advance: impl Fn(&mut L, SimTime) + Sync,
    mut control: impl FnMut(&mut [L], &mut EngineStats) -> Option<SimTime>,
    mut stall_probe: Option<&mut dyn FnMut(usize, u64)>,
) -> EngineStats {
    let workers = workers.clamp(1, lanes.len().max(1));
    let mut stats = EngineStats::default();
    if workers == 1 {
        while let Some(horizon) = control(lanes, &mut stats) {
            for lane in lanes.iter_mut() {
                advance(lane, horizon);
            }
            stats.windows += 1;
            if stats.windows.is_multiple_of(TRAIN_WINDOWS) {
                stats.rounds += 1;
            }
        }
        if !stats.windows.is_multiple_of(TRAIN_WINDOWS) {
            stats.rounds += 1;
        }
        return stats;
    }

    let slice = LaneSlice {
        base: lanes.as_mut_ptr(),
        len: lanes.len(),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spin = if workers <= cores { 1 << 12 } else { 0 };
    // `issue` counts windows published (window k is live once the value
    // passes k); `done` counts per-worker window completions (after
    // window k, it reads `workers * (k + 1)`).
    let issue = Gate::new(spin);
    let done = Gate::new(spin);
    let horizon_ps = AtomicU64::new(0);
    let stop = AtomicU64::new(0);
    let train = SpinBarrier::new(workers);
    let stalls: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    std::thread::scope(|s| {
        for w in 1..workers {
            let (issue, done, train) = (&issue, &done, &train);
            let (horizon_ps, stop, stalls) = (&horizon_ps, &stop, &stalls);
            let (advance, slice, panic_slot) = (&advance, &slice, &panic_slot);
            s.spawn(move || {
                let mut next: u64 = 0;
                loop {
                    issue.wait_min(next + 1, &stalls[w]);
                    if stop.load(Ordering::SeqCst) != 0 {
                        return;
                    }
                    let horizon = SimTime(horizon_ps.load(Ordering::SeqCst));
                    // Keep participating in the gate/barrier protocol
                    // even if a lane panics, or the sequencer and the
                    // other workers would wait forever; the payload is
                    // re-raised on the caller once everyone is joined.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        for i in (w..slice.len).step_by(workers) {
                            // SAFETY: lane i belongs to worker w for
                            // this window (round-robin ownership); the
                            // issue/done gates order this against every
                            // other thread's access.
                            advance(unsafe { slice.lane(i) }, horizon);
                        }
                    }));
                    if let Err(payload) = outcome {
                        stash_panic(panic_slot, payload);
                    }
                    done.add(1);
                    next += 1;
                    if next.is_multiple_of(TRAIN_WINDOWS) {
                        train.wait();
                    }
                }
            });
        }

        // The sequencer, doubling as worker 0.
        let mut window: u64 = 0;
        let flush_stalls = |probe: &mut Option<&mut dyn FnMut(usize, u64)>| {
            if let Some(cb) = probe.as_deref_mut() {
                for (w, stall) in stalls.iter().enumerate() {
                    cb(w, stall.swap(0, Ordering::Relaxed));
                }
            }
        };
        loop {
            let next = if panic_slot.lock().unwrap().is_some() {
                None
            } else {
                match catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: every worker is parked (all issued windows
                    // are done-counted and the last train barrier, if
                    // due, has been crossed), so the coordinator holds
                    // the only access until the next `issue.publish`.
                    control(unsafe { slice.all() }, &mut stats)
                })) {
                    Ok(next) => next,
                    Err(payload) => {
                        stash_panic(&panic_slot, payload);
                        None
                    }
                }
            };
            let Some(horizon) = next else {
                break;
            };
            horizon_ps.store(horizon.as_ps(), Ordering::SeqCst);
            issue.publish(window + 1);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for i in (0..slice.len).step_by(workers) {
                    // SAFETY: lane i belongs to worker 0 for this window.
                    advance(unsafe { slice.lane(i) }, horizon);
                }
            }));
            if let Err(payload) = outcome {
                stash_panic(&panic_slot, payload);
            }
            done.add(1);
            window += 1;
            stats.windows += 1;
            done.wait_min(workers as u64 * window, &stalls[0]);
            if window.is_multiple_of(TRAIN_WINDOWS) {
                train.wait();
                stats.rounds += 1;
                flush_stalls(&mut stall_probe);
            }
        }
        // Shutdown: release every worker parked on the next issue. The
        // stop flag is stored before the publish, so a worker that wakes
        // on this value observes it (SeqCst total order).
        stop.store(1, Ordering::SeqCst);
        issue.publish(window + 1);
        if !window.is_multiple_of(TRAIN_WINDOWS) {
            stats.rounds += 1;
        }
        flush_stalls(&mut stall_probe);
    });

    if let Some(payload) = panic_slot.into_inner().unwrap() {
        resume_unwind(payload);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy lane: consumes "events" (just times) up to the horizon and
    /// records the order.
    struct Toy {
        pending: Vec<u64>,
        log: Vec<u64>,
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let b = SpinBarrier::new(4);
        let hits = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                });
            }
            b.wait();
            assert_eq!(hits.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn gate_wakes_blocked_waiters() {
        // spin = 0 forces the condvar slow path, covering the
        // lost-wakeup-freedom argument rather than the spin loop.
        let g = Gate::new(0);
        let stall = AtomicU64::new(0);
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                g.wait_min(3, &stall);
                g.value.load(Ordering::SeqCst)
            });
            // Publish only once the waiter has registered as a sleeper:
            // a waiter scheduled after the last publish would take the
            // fast path and never exercise the wakeup.
            while g.sleepers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            for v in 1..=3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                g.publish(v);
            }
            assert!(t.join().unwrap() >= 3);
        });
        assert!(stall.load(Ordering::Relaxed) > 0, "slow path was timed");
    }

    #[test]
    fn outbox_merge_is_keyed_by_time_source_seq() {
        let mut a = Outbox::new();
        let mut b = Outbox::new();
        a.push(SimTime(30), "a0");
        a.push(SimTime(30), "a1");
        b.push(SimTime(10), "b0");
        b.push(SimTime(30), "b1");
        let merged = merge_outboxes([(1usize, a.drain()), (0usize, b.drain())]);
        let order: Vec<&str> = merged.iter().map(|m| m.payload).collect();
        // time first, then source, then per-source seq.
        assert_eq!(order, ["b0", "b1", "a0", "a1"]);
        // Seq numbering continues across drains.
        a.push(SimTime(40), "a2");
        assert_eq!(a.drain()[0].seq, 2);
    }

    #[test]
    fn drain_into_matches_the_allocating_merge() {
        let mut boxes = [Outbox::new(), Outbox::new()];
        boxes[1].push(SimTime(30), 10u32);
        boxes[0].push(SimTime(10), 20);
        boxes[0].push(SimTime(30), 30);
        let mut cloned = [Outbox::new(), Outbox::new()];
        for (c, b) in cloned.iter_mut().zip(&boxes) {
            for e in &b.entries {
                c.push(e.time, e.payload);
            }
        }
        let want = merge_outboxes(
            cloned
                .into_iter()
                .enumerate()
                .map(|(i, mut b)| (i, b.drain())),
        );
        let mut got = Vec::new();
        for (i, b) in boxes.iter_mut().enumerate() {
            b.drain_into(i, &mut got);
        }
        sort_merged(&mut got);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.time, g.source, g.seq, g.payload),
                (w.time, w.source, w.seq, w.payload)
            );
        }
        assert!(boxes.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn sweep_share_divides_the_budget() {
        assert_eq!(sweep_share(8, 2), 4);
        assert_eq!(sweep_share(8, 1), 8);
        assert_eq!(sweep_share(2, 8), 1);
        assert_eq!(sweep_share(8, 0), 8);
    }

    fn drive(workers: usize) -> (Vec<Vec<u64>>, EngineStats) {
        let mut lanes: Vec<Toy> = (0..5)
            .map(|i| Toy {
                pending: (0..20).map(|k| (k * 7 + i as u64) % 50).collect(),
                log: Vec::new(),
            })
            .collect();
        let mut horizon = 0u64;
        let stats = run_windows(
            workers,
            &mut lanes,
            |lane, h| {
                let mut due: Vec<u64> = lane
                    .pending
                    .iter()
                    .copied()
                    .filter(|&t| t < h.as_ps())
                    .collect();
                due.sort_unstable();
                lane.pending.retain(|&t| t >= h.as_ps());
                lane.log.extend(due);
            },
            |lanes, _| {
                let busy = lanes.iter().any(|l| !l.pending.is_empty());
                if !busy {
                    return None;
                }
                horizon += 13;
                Some(SimTime(horizon))
            },
            None,
        );
        (lanes.into_iter().map(|l| l.log).collect(), stats)
    }

    #[test]
    fn worker_count_changes_neither_outcomes_nor_stats() {
        let (serial, serial_stats) = drive(1);
        assert_eq!(serial_stats.windows, 4, "50/13 = 4 windows drain the toys");
        assert_eq!(serial_stats.rounds, 1, "4 windows fit in one train");
        for workers in [2, 3, 8] {
            let (log, stats) = drive(workers);
            assert_eq!(log, serial, "{workers} workers diverged");
            assert_eq!(stats, serial_stats, "{workers} workers changed stats");
        }
    }

    #[test]
    fn rounds_are_train_rendezvous_counts() {
        for workers in [1usize, 2] {
            let mut lanes = vec![0u64, 0u64];
            let mut issued = 0u64;
            let stats = run_windows(
                workers,
                &mut lanes,
                |lane, h| *lane = (*lane).max(h.as_ps()),
                |_, _| {
                    issued += 1;
                    (issued <= 20).then_some(SimTime(issued))
                },
                None,
            );
            assert_eq!(stats.windows, 20);
            assert_eq!(
                stats.rounds,
                20u64.div_ceil(TRAIN_WINDOWS),
                "rounds = ceil(windows / {TRAIN_WINDOWS}) at {workers} workers"
            );
        }
    }

    /// Two lanes whose events sit millions of picoseconds apart must
    /// drain in O(events) windows, not O(gap/quantum): the control
    /// closure bases each window on the earliest *pending* event, so an
    /// idle stretch is skipped in a single hop.
    #[test]
    fn idle_gaps_cost_windows_proportional_to_events_not_time() {
        let quantum = 20_000u64; // 20 ns in ps
        let times = [0u64, 50_000_000, 100_000_000]; // 50 ms gaps
        let mut lanes: Vec<Toy> = (0..2)
            .map(|_| Toy {
                pending: times.to_vec(),
                log: Vec::new(),
            })
            .collect();
        let stats = run_windows(
            2,
            &mut lanes,
            |lane, h| {
                let due: Vec<u64> = lane
                    .pending
                    .iter()
                    .copied()
                    .filter(|&t| t < h.as_ps())
                    .collect();
                lane.pending.retain(|&t| t >= h.as_ps());
                lane.log.extend(due);
            },
            |lanes, _| {
                let base = lanes.iter().filter_map(|l| l.pending.iter().min()).min()?;
                Some(SimTime(base + quantum))
            },
            None,
        );
        assert!(lanes.iter().all(|l| l.log == times));
        assert_eq!(
            stats.windows,
            times.len() as u64,
            "one window per event burst, independent of the gap width"
        );
        assert!(stats.rounds <= 1, "three windows fit in one train");
    }

    #[test]
    fn stall_probe_reports_every_worker() {
        let mut lanes = vec![(); 4];
        let mut issued = 0u64;
        let mut seen = std::collections::HashSet::new();
        let mut probe = |w: usize, _ns: u64| {
            seen.insert(w);
        };
        run_windows(
            4,
            &mut lanes,
            |_, _| std::thread::yield_now(),
            |_, _| {
                issued += 1;
                (issued <= TRAIN_WINDOWS + 1).then_some(SimTime(issued))
            },
            Some(&mut probe),
        );
        assert_eq!(seen, (0..4).collect(), "every worker flushed at least once");
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            let mut lanes = vec![0u32, 1u32];
            let mut rounds = 0;
            run_windows(
                2,
                &mut lanes,
                |lane, _| {
                    if *lane == 1 {
                        panic!("boom");
                    }
                },
                |_, _| {
                    rounds += 1;
                    (rounds <= 2).then_some(SimTime(1))
                },
                None,
            );
        });
        let payload = caught.expect_err("the lane panic must resurface");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the original payload is re-raised"
        );
    }

    #[test]
    fn control_panics_release_workers_and_propagate() {
        // A panic in the coordinator used to leave workers parked at the
        // start barrier forever; the shutdown path must release and join
        // them before re-raising.
        let caught = std::panic::catch_unwind(|| {
            let mut lanes = vec![0u32; 4];
            let mut calls = 0;
            run_windows(
                2,
                &mut lanes,
                |_, _| {},
                |_, _| {
                    calls += 1;
                    if calls == 3 {
                        panic!("control blew up");
                    }
                    Some(SimTime(calls))
                },
                None,
            );
        });
        let payload = caught.expect_err("the control panic must resurface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"control blew up"));
    }
}
