//! Conservative lookahead bounds for parallel-in-space execution.
//!
//! A multi-node run is partitioned into one lane per node, each with
//! its own [`EventQueue`](crate::EventQueue). Sequence numbers are
//! allocated **locally** by each lane's queue, which is what lets a lane
//! run on its own worker thread without synchronizing on a shared
//! allocator — and it forces an explicit, deterministic merge rule at
//! quantum barriers: cross-partition events are delivered in ascending
//! `(time, source partition, intra-quantum seq)` order (see
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
    use super::*;

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
}
