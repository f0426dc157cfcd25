//! The per-node traffic plane: arrival generation, bounded run queues,
//! and the birth→commit latency ledger.

use std::collections::VecDeque;

use piranha_kernel::{Histogram, Prng};
use piranha_types::time::Clock;

use crate::process::ArrivalProcess;
use crate::{OverflowPolicy, TrafficConfig};

/// What the plane tells the dispatcher when a parked core asks for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A transaction is admitted now.
    Admit,
    /// Nothing is runnable; re-poll at this cycle (the next arrival).
    WaitUntil(u64),
}

/// Conservation ledger of one plane (or the whole machine, summed).
/// Every generated arrival is classified exactly once, so
/// `accepted + dropped + deferred == generated` is structural.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    /// Arrivals produced by the arrival process.
    pub generated: u64,
    /// Arrivals that found run-queue space.
    pub accepted: u64,
    /// Arrivals shed at a full queue (`OverflowPolicy::Drop`).
    pub dropped: u64,
    /// Arrivals parked on the overflow queue (`OverflowPolicy::Defer`).
    pub deferred: u64,
    /// Transactions that ran to commit.
    pub completed: u64,
}

impl TrafficLedger {
    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        self.generated += other.generated;
        self.accepted += other.accepted;
        self.dropped += other.dropped;
        self.deferred += other.deferred;
        self.completed += other.completed;
    }

    /// Fraction of generated arrivals that were shed (0 if none
    /// generated).
    pub fn drop_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.dropped as f64 / self.generated as f64
        }
    }

    /// The structural conservation invariant.
    pub fn conserved(&self) -> bool {
        self.accepted + self.dropped + self.deferred == self.generated
    }
}

/// Whole-run traffic results: the merged ledger and the merged
/// birth→commit latency histogram (nanoseconds). Deliberately *not*
/// part of `RunResult::fingerprint()`: with traffic off it is `None`
/// and nothing changes; with traffic on, latency estimates are derived
/// observations like the sample estimate, not architectural state.
#[derive(Debug, Clone)]
pub struct TrafficSummary {
    /// Machine-wide conservation ledger.
    pub ledger: TrafficLedger,
    /// Merged transaction latency histogram, nanoseconds.
    pub latency: Histogram,
}

impl TrafficSummary {
    /// Median transaction latency, ns.
    pub fn p50_ns(&self) -> u64 {
        self.latency.p50()
    }

    /// 95th-percentile transaction latency, ns.
    pub fn p95_ns(&self) -> u64 {
        self.latency.p95()
    }

    /// 99th-percentile transaction latency, ns.
    pub fn p99_ns(&self) -> u64 {
        self.latency.p99()
    }

    /// Fraction of offered transactions shed.
    pub fn drop_rate(&self) -> f64 {
        self.ledger.drop_rate()
    }
}

/// Per-core open-loop state.
struct CoreLane {
    arrival_rng: Prng,
    process: Box<dyn ArrivalProcess + Send>,
    /// Cycle of the next not-yet-classified arrival.
    next_arrival: u64,
    /// Bounded run queue of birth cycles.
    queue: VecDeque<u64>,
    /// Unbounded overflow queue (Defer policy only).
    overflow: VecDeque<u64>,
    /// Birth cycle of the transaction currently in service.
    in_service: Option<u64>,
    ledger: TrafficLedger,
    latency: Histogram,
}

/// One node's traffic plane: per-core arrival processes and run queues,
/// consulted by the dispatcher when an open-loop stream parks. Mirrors
/// the fault plane's seeding discipline — node 0 uses the machine seed
/// directly, other nodes decorrelate by index — so schedules are
/// independent of lane-to-worker assignment.
pub struct TrafficPlane {
    cfg: TrafficConfig,
    clock: Clock,
    enabled: bool,
    cores: Vec<CoreLane>,
}

impl std::fmt::Debug for TrafficPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficPlane")
            .field("enabled", &self.enabled)
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

impl TrafficPlane {
    /// A disabled plane (no PRNG is ever seeded or drawn).
    pub fn disabled() -> Self {
        TrafficPlane {
            cfg: TrafficConfig::default(),
            clock: Clock::from_mhz(500),
            enabled: false,
            cores: Vec::new(),
        }
    }

    /// The plane for node `node` of a machine: per-core PRNG streams
    /// derived from `cfg.seed ^ machine_seed`, decorrelated across nodes
    /// exactly like `FaultPlane::for_node`.
    pub fn for_node(
        cfg: TrafficConfig,
        machine_seed: u64,
        node: usize,
        n_cpus: usize,
        clock: Clock,
    ) -> Self {
        if !cfg.enabled() {
            return Self::disabled();
        }
        let node_mix = (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let root = Prng::seed_from_u64(cfg.seed ^ machine_seed ^ node_mix ^ 0x7AFF_1C0A);
        let cores = (0..n_cpus)
            .map(|c| CoreLane {
                arrival_rng: root.derive(0x0A00 + c as u64),
                process: cfg.process.build(),
                next_arrival: 0,
                queue: VecDeque::new(),
                overflow: VecDeque::new(),
                in_service: None,
                ledger: TrafficLedger::default(),
                latency: Histogram::new(),
            })
            .collect();
        TrafficPlane {
            cfg,
            clock,
            enabled: true,
            cores,
        }
    }

    /// Whether this plane generates any traffic.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The configuration this plane was built from.
    pub fn cfg(&self) -> &TrafficConfig {
        &self.cfg
    }

    /// Generate and classify every arrival up to `now_cycle` on `core`.
    fn ingest(&mut self, core: usize, now_cycle: u64) {
        let base_gap = self.cfg.mean_gap_cycles();
        let lane = &mut self.cores[core];
        if lane.next_arrival == 0 {
            // Lazy first arrival: one gap past cycle 0.
            lane.next_arrival = lane.process.next_gap(
                scaled_gap(base_gap, &self.cfg.curve, 0),
                &mut lane.arrival_rng,
            );
        }
        while lane.next_arrival <= now_cycle {
            let birth = lane.next_arrival;
            lane.ledger.generated += 1;
            if lane.queue.len() < self.cfg.queue_depth {
                lane.ledger.accepted += 1;
                lane.queue.push_back(birth);
            } else {
                match self.cfg.overflow {
                    OverflowPolicy::Drop => lane.ledger.dropped += 1,
                    OverflowPolicy::Defer => {
                        lane.ledger.deferred += 1;
                        lane.overflow.push_back(birth);
                    }
                }
            }
            let gap = lane.process.next_gap(
                scaled_gap(base_gap, &self.cfg.curve, birth),
                &mut lane.arrival_rng,
            );
            lane.next_arrival = birth + gap;
        }
        // Promote deferred arrivals into freed queue slots, oldest first.
        while lane.queue.len() < self.cfg.queue_depth {
            let Some(birth) = lane.overflow.pop_front() else {
                break;
            };
            lane.queue.push_back(birth);
        }
    }

    /// A parked core asks for its next transaction at `now_cycle`.
    ///
    /// Generates every arrival up to now, then either admits the head of
    /// the run queue (stamping it in service) or reports the cycle of
    /// the next arrival so the dispatcher can schedule a re-poll.
    pub fn poll(&mut self, core: usize, now_cycle: u64) -> Admission {
        debug_assert!(self.enabled, "poll on a disabled traffic plane");
        self.ingest(core, now_cycle);
        let lane = &mut self.cores[core];
        debug_assert!(
            lane.in_service.is_none(),
            "poll while a transaction is in service"
        );
        if let Some(birth) = lane.queue.pop_front() {
            lane.in_service = Some(birth);
            Admission::Admit
        } else {
            Admission::WaitUntil(lane.next_arrival)
        }
    }

    /// The in-service transaction on `core` committed at `commit_cycle`.
    /// Records its birth→commit latency (ns) and returns it.
    pub fn complete(&mut self, core: usize, commit_cycle: u64) -> Option<u64> {
        let clock = self.clock;
        let lane = &mut self.cores[core];
        let birth = lane.in_service.take()?;
        let lat_cycles = commit_cycle.saturating_sub(birth);
        let lat = clock.cycles_dur(lat_cycles);
        lane.latency.record(lat.as_ns());
        lane.ledger.completed += 1;
        Some(lat.as_ns())
    }

    /// This plane's merged ledger.
    pub fn ledger(&self) -> TrafficLedger {
        let mut total = TrafficLedger::default();
        for lane in &self.cores {
            total.merge(&lane.ledger);
        }
        total
    }

    /// Merged summary of this plane (ledger + latency histogram).
    pub fn summary(&self) -> TrafficSummary {
        let mut latency = Histogram::new();
        for lane in &self.cores {
            latency.merge(&lane.latency);
        }
        TrafficSummary {
            ledger: self.ledger(),
            latency,
        }
    }
}

/// The instantaneous mean gap: base gap divided by the diurnal
/// multiplier at this cycle (higher multiplier ⇒ shorter gaps).
fn scaled_gap(base_gap: f64, curve: &Option<crate::DiurnalCurve>, cycle: u64) -> f64 {
    match curve {
        Some(c) => base_gap / c.multiplier(cycle),
        None => base_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(cfg: TrafficConfig) -> TrafficPlane {
        TrafficPlane::for_node(cfg, 99, 0, 1, Clock::from_mhz(500))
    }

    /// Drive one core: poll/complete in lock-step for `cycles`, with a
    /// fixed per-txn service time. Returns the plane.
    fn drive(cfg: TrafficConfig, cycles: u64, service: u64) -> TrafficPlane {
        let mut p = plane(cfg);
        let mut now = 0;
        while now < cycles {
            match p.poll(0, now) {
                Admission::Admit => {
                    now += service;
                    p.complete(0, now);
                }
                Admission::WaitUntil(c) => {
                    assert!(c > now, "re-poll must be in the future");
                    now = c;
                }
            }
        }
        p
    }

    #[test]
    fn disabled_plane_never_draws() {
        let p = TrafficPlane::for_node(TrafficConfig::default(), 1, 0, 8, Clock::from_mhz(500));
        assert!(!p.enabled());
        assert_eq!(p.ledger(), TrafficLedger::default());
    }

    #[test]
    fn underload_completes_everything_admitted() {
        // Service 100 cycles, mean gap 10_000: essentially no queueing.
        let p = drive(TrafficConfig::poisson(100.0), 2_000_000, 100);
        let l = p.ledger();
        assert!(l.generated > 100, "generated {}", l.generated);
        assert!(l.conserved());
        assert_eq!(l.dropped, 0, "underload sheds nothing");
        assert!(l.completed + 1 >= l.accepted, "at most one in flight");
    }

    #[test]
    fn overload_drops_at_bounded_depth() {
        // Service 10_000 cycles, mean gap 1_000: 10x oversubscribed.
        let cfg = TrafficConfig {
            queue_depth: 4,
            ..TrafficConfig::poisson(1000.0)
        };
        let p = drive(cfg, 2_000_000, 10_000);
        let l = p.ledger();
        assert!(l.conserved());
        assert!(l.dropped > 0, "overload must shed");
        assert!(l.drop_rate() > 0.5, "10x overload sheds most arrivals");
    }

    #[test]
    fn defer_policy_keeps_work_instead_of_dropping() {
        let cfg = TrafficConfig {
            queue_depth: 4,
            overflow: OverflowPolicy::Defer,
            ..TrafficConfig::poisson(1000.0)
        };
        let p = drive(cfg, 500_000, 10_000);
        let l = p.ledger();
        assert!(l.conserved());
        assert_eq!(l.dropped, 0);
        assert!(l.deferred > 0, "overflow defers instead");
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = drive(TrafficConfig::poisson(10.0), 4_000_000, 1000).summary();
        let hi = drive(
            TrafficConfig {
                queue_depth: 16,
                ..TrafficConfig::poisson(900.0)
            },
            4_000_000,
            1000,
        )
        .summary();
        assert!(lo.latency.count() > 10);
        assert!(hi.latency.count() > 10);
        assert!(
            hi.p99_ns() > lo.p99_ns(),
            "queueing delay must raise the tail: lo {} hi {}",
            lo.p99_ns(),
            hi.p99_ns()
        );
    }

    #[test]
    fn plane_is_deterministic_per_seed_and_decorrelated_per_node() {
        let cfg = TrafficConfig::poisson(200.0);
        let mut a = TrafficPlane::for_node(cfg.clone(), 7, 0, 1, Clock::from_mhz(500));
        let mut b = TrafficPlane::for_node(cfg.clone(), 7, 0, 1, Clock::from_mhz(500));
        let mut other = TrafficPlane::for_node(cfg, 7, 1, 1, Clock::from_mhz(500));
        let wa = a.poll(0, 1_000_000);
        let wb = b.poll(0, 1_000_000);
        assert_eq!(wa, wb, "same node, same seed, same schedule");
        assert_eq!(a.ledger().generated, b.ledger().generated);
        other.poll(0, 1_000_000);
        assert_ne!(
            a.ledger().generated,
            other.ledger().generated,
            "nodes are decorrelated (same count would be a coincidence \
             at ~200 arrivals; the schedules differ)"
        );
    }

    #[test]
    fn diurnal_curve_modulates_arrival_count() {
        let flat = drive(TrafficConfig::poisson(100.0), 4_000_000, 10).ledger();
        let curved = drive(
            TrafficConfig {
                curve: Some(crate::DiurnalCurve {
                    amplitude: 0.9,
                    period_cycles: 1_000_000,
                }),
                ..TrafficConfig::poisson(100.0)
            },
            4_000_000,
            10,
        )
        .ledger();
        // Whole periods average out to roughly the base rate, but the
        // schedule differs; both conserve.
        assert!(flat.conserved() && curved.conserved());
        let f = flat.generated as f64;
        let c = curved.generated as f64;
        assert!((c / f - 1.0).abs() < 0.35, "flat {f} curved {c}");
    }
}
