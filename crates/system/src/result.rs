//! Measured results of a simulation window — the quantities the paper's
//! figures are built from.

use piranha_cpu::CoreStats;
use piranha_faults::AvailabilityReport;
use piranha_probe::{MetricsSnapshot, StallTable};
use piranha_sample::SampleEstimate;
use piranha_traffic::TrafficSummary;
use piranha_types::time::Clock;
use piranha_types::Duration;

/// The Figure-5-style execution-time breakdown for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBreakdown {
    /// Fraction of cycles doing useful work (including branch
    /// penalties, as in the paper's "CPU busy").
    pub busy: f64,
    /// Fraction stalled on L2 hits + on-chip forwards ("L2 hit stall").
    pub l2_hit: f64,
    /// Fraction stalled past the L2 ("L2 miss stall").
    pub l2_miss: f64,
}

/// Statistics of one measured window.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration label.
    pub name: String,
    /// Simulated duration of the window.
    pub window: Duration,
    /// The CPU clock (to convert cycles ↔ time).
    pub clock: Clock,
    /// Per-CPU statistics over the window.
    pub cpus: Vec<CoreStats>,
    /// Mean RDRAM open-page hit rate over the whole run (§2.4); zero
    /// until a `Machine` populates it at the end of `Machine::run`.
    pub mem_page_hit_rate: f64,
    /// Observability snapshot sampled at the end of the run; empty
    /// unless a probe was attached. Deliberately excluded from
    /// [`RunResult::fingerprint`]: it describes the measurement, not the
    /// simulated machine state.
    pub metrics: MetricsSnapshot,
    /// The fault-injection availability ledger (all-zero when faults are
    /// disabled). Part of the fingerprint: two runs only match when they
    /// saw the same faults handled the same way.
    pub availability: AvailabilityReport,
    /// Workload-level units of work committed (bounded workloads run to
    /// completion); `None` for fixed-instruction-window runs. Part of
    /// the fingerprint.
    pub committed_txns: Option<u64>,
    /// The statistical estimate of a sampled run
    /// (`Machine::run_sampled`); `None` for full-detail runs.
    /// Deliberately excluded from [`RunResult::fingerprint`]: an
    /// estimate carries measurement error by construction, and the
    /// golden fingerprints certify the exact detailed model only.
    pub sample: Option<SampleEstimate>,
    /// Open-loop traffic results (conservation ledger + birth→commit
    /// latency histogram); `None` when traffic is off. Deliberately
    /// excluded from [`RunResult::fingerprint`]: latency percentiles are
    /// derived observations like the sample estimate, and with traffic
    /// off the field is `None`, so the goldens certify the closed-loop
    /// model untouched.
    pub traffic: Option<TrafficSummary>,
}

impl RunResult {
    /// Assemble a result (with no memory-page statistics).
    pub fn new(name: String, window: Duration, clock: Clock, cpus: Vec<CoreStats>) -> Self {
        RunResult {
            name,
            window,
            clock,
            cpus,
            mem_page_hit_rate: 0.0,
            metrics: MetricsSnapshot::default(),
            availability: AvailabilityReport::default(),
            committed_txns: None,
            sample: None,
            traffic: None,
        }
    }

    /// A fingerprint of every *simulated* quantity (name, window, clock,
    /// per-CPU statistics, memory page-hit rate) — and nothing about the
    /// probe. Two runs of the same configuration must produce the same
    /// fingerprint whether or not observability was enabled; the
    /// determinism guard test asserts exactly that.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical rendering of the simulated fields.
        // The availability digest and committed count are simulated
        // quantities too: a disabled fault plane digests identically to
        // the pre-fault-injection representation of the same run.
        let repr = format!(
            "{}|{:?}|{:?}|{:?}|{}|{}|{:?}",
            self.name,
            self.window,
            self.clock,
            self.cpus,
            self.mem_page_hit_rate.to_bits(),
            self.availability.digest(),
            self.committed_txns,
        );
        piranha_types::fnv1a(repr.as_bytes())
    }

    /// The per-core stall-attribution table (the Figure 5 breakdown at
    /// per-core granularity): each core's wall cycles split over busy
    /// and the five fill-service stall categories, plus an `all` row.
    /// Every row's fractions sum to 1.
    pub fn stall_table(&self) -> StallTable {
        let cats = [
            "busy",
            "l2_hit",
            "l2_fwd",
            "local_mem",
            "remote_mem",
            "remote_dirty",
        ];
        let mut t = StallTable::new(&cats);
        let wall = self.wall_cycles();
        let row = |s: &CoreStats, wall: u64| {
            let stalls = s.stall_cycles;
            let attributed: u64 = stalls.iter().sum();
            let busy = wall.saturating_sub(attributed);
            let mut cycles = vec![busy];
            cycles.extend_from_slice(&stalls);
            cycles
        };
        for (i, s) in self.cpus.iter().enumerate() {
            t.push_row(format!("cpu{i}"), row(s, wall), wall);
        }
        let merged = self.merged();
        let all_wall = wall * self.cpus.len() as u64;
        t.push_row("all", row(&merged, all_wall), all_wall);
        t
    }

    /// Total instructions retired in the window.
    pub fn total_instrs(&self) -> u64 {
        self.cpus.iter().map(|c| c.instrs).sum()
    }

    /// Aggregate throughput in instructions per nanosecond — the
    /// fixed-work execution-time metric: `time = work / throughput`.
    pub fn throughput_ipns(&self) -> f64 {
        let ns = self.window.as_ns().max(1);
        self.total_instrs() as f64 / ns as f64
    }

    /// Execution time normalized to `base` (matching the paper's
    /// "normalized execution time" axis: lower is faster).
    pub fn normalized_time_vs(&self, base: &RunResult) -> f64 {
        base.throughput_ipns() / self.throughput_ipns()
    }

    /// Speedup over `base` (higher is faster).
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        self.throughput_ipns() / base.throughput_ipns()
    }

    /// Merged statistics over all CPUs.
    pub fn merged(&self) -> CoreStats {
        let mut m = CoreStats::default();
        for c in &self.cpus {
            m.merge(c);
        }
        m
    }

    /// Wall cycles of the window (same for every CPU: one clock domain).
    pub fn wall_cycles(&self) -> u64 {
        self.clock.cycles(self.window)
    }

    /// The Figure-5 breakdown: CPU busy / L2-hit stall / L2-miss stall
    /// fractions of aggregate time.
    pub fn breakdown(&self) -> CpuBreakdown {
        let m = self.merged();
        let total = (self.wall_cycles() * self.cpus.len() as u64).max(1) as f64;
        let l2_hit = m.l2_hit_stall() as f64 / total;
        let l2_miss = m.l2_miss_stall() as f64 / total;
        CpuBreakdown {
            busy: (1.0 - l2_hit - l2_miss).max(0.0),
            l2_hit,
            l2_miss,
        }
    }

    /// The Figure-6(b) L1-miss breakdown: fractions of all L1 misses
    /// served by the L2, by another on-chip L1, and by memory.
    pub fn l1_miss_breakdown(&self) -> (f64, f64, f64) {
        let m = self.merged();
        let total = (m.fills_l2_hit() + m.fills_l2_fwd() + m.fills_l2_miss()).max(1) as f64;
        (
            m.fills_l2_hit() as f64 / total,
            m.fills_l2_fwd() as f64 / total,
            m.fills_l2_miss() as f64 / total,
        )
    }

    /// L1 misses per thousand instructions (both caches).
    pub fn mpki(&self) -> f64 {
        let m = self.merged();
        (m.l1i_misses + m.l1d_misses + m.sb_reqs) as f64 / (m.instrs.max(1) as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_types::FillSource;

    fn mk(name: &str, instrs: u64, window_ns: u64) -> RunResult {
        let mut s = CoreStats {
            instrs,
            ..Default::default()
        };
        s.record_fill(FillSource::L2Hit, 100);
        s.record_fill(FillSource::LocalMem, 300);
        RunResult::new(
            name.into(),
            Duration::from_ns(window_ns),
            Clock::from_mhz(500),
            vec![s],
        )
    }

    #[test]
    fn throughput_and_normalization() {
        let fast = mk("fast", 10_000, 1_000);
        let slow = mk("slow", 10_000, 2_900);
        assert!((fast.throughput_ipns() - 10.0).abs() < 1e-9);
        let norm = slow.normalized_time_vs(&fast);
        assert!((norm - 2.9).abs() < 0.01, "slow is 2.9x slower: {norm}");
        assert!((fast.speedup_over(&slow) - 2.9).abs() < 0.01);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let r = mk("x", 1000, 2_000); // 1000 cycles at 500MHz
        let b = r.breakdown();
        assert!((b.busy + b.l2_hit + b.l2_miss - 1.0).abs() < 1e-9);
        assert!((b.l2_hit - 0.1).abs() < 1e-9);
        assert!((b.l2_miss - 0.3).abs() < 1e-9);
    }

    #[test]
    fn miss_breakdown_normalizes() {
        let r = mk("x", 1000, 1_000);
        let (hit, fwd, miss) = r.l1_miss_breakdown();
        assert!((hit + fwd + miss - 1.0).abs() < 1e-9);
        assert_eq!(fwd, 0.0);
        assert!((hit - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stall_table_rows_partition_the_window() {
        let r = mk("x", 1000, 2_000); // 1000 wall cycles at 500 MHz
        let t = r.stall_table();
        assert_eq!(t.categories.len(), 6);
        assert_eq!(t.rows.len(), r.cpus.len() + 1, "per-core rows + all");
        assert!(t.sums_to_one(1e-6));
        let f = t.rows[0].fractions();
        // 100 cycles L2-hit stall + 300 local-mem stall of 1000.
        assert!((f[1] - 0.1).abs() < 1e-9, "l2_hit fraction: {}", f[1]);
        assert!((f[3] - 0.3).abs() < 1e-9, "local_mem fraction: {}", f[3]);
        assert!((f[0] - 0.6).abs() < 1e-9, "busy is the remainder: {}", f[0]);
    }

    #[test]
    fn fingerprint_ignores_metrics() {
        let a = mk("x", 1000, 2_000);
        let mut b = mk("x", 1000, 2_000);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.metrics = piranha_probe::MetricsSnapshot::from_entries(vec![(
            "kernel.events.popped".into(),
            piranha_probe::MetricValue::Count(42),
        )]);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "metrics must not affect the simulated fingerprint"
        );
        let c = mk("x", 1001, 2_000);
        assert_ne!(a.fingerprint(), c.fingerprint(), "simulated change shows");
    }

    #[test]
    fn fingerprint_ignores_sample_estimate() {
        let a = mk("x", 1000, 2_000);
        let mut b = mk("x", 1000, 2_000);
        b.sample = Some(piranha_sample::SampleEstimate {
            cpi_mean: 2.0,
            cpi_ci95: 0.1,
            stall_mean: 0.3,
            stall_ci: 0.02,
            windows: 8,
            detailed_fraction: 0.1,
            detailed_instrs: 1000,
            warmed_instrs: 9000,
        });
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "a sampling estimate must not affect the simulated fingerprint"
        );
    }

    #[test]
    fn fingerprint_ignores_traffic_summary() {
        let a = mk("x", 1000, 2_000);
        let mut b = mk("x", 1000, 2_000);
        let mut latency = piranha_kernel::Histogram::new();
        latency.record(1234);
        b.traffic = Some(TrafficSummary {
            ledger: piranha_traffic::TrafficLedger {
                generated: 10,
                accepted: 8,
                dropped: 2,
                deferred: 0,
                completed: 8,
            },
            latency,
        });
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "traffic observations must not affect the simulated fingerprint"
        );
    }

    #[test]
    fn fingerprint_reflects_availability_and_committed_work() {
        let a = mk("x", 1000, 2_000);
        let mut b = mk("x", 1000, 2_000);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.availability.injected = 1;
        b.availability.corrected = 1;
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "a recovered fault is a simulated difference"
        );
        let mut c = mk("x", 1000, 2_000);
        c.committed_txns = Some(17);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn mpki_counts_all_miss_classes() {
        let mut s = CoreStats {
            instrs: 10_000,
            l1i_misses: 5,
            l1d_misses: 10,
            sb_reqs: 5,
            ..Default::default()
        };
        s.record_fill(FillSource::L2Hit, 0);
        let r = RunResult::new(
            "m".into(),
            Duration::from_ns(1),
            Clock::from_mhz(500),
            vec![s],
        );
        assert!((r.mpki() - 2.0).abs() < 1e-9);
    }
}
