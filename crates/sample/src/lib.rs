//! SMARTS-style statistical sampling over a timing simulation.
//!
//! Full-detail simulation pays the detailed-model cost on every
//! instruction, which caps how much work a run can afford. Systematic
//! sampling fixes that: the machine spends most of its time in a cheap
//! **functional-warming** mode (instructions retire and keep the
//! caches, TLBs and directory warm, but no detailed timing events run)
//! and periodically drops into a short **detailed measurement window**.
//! Per-window CPI and stall-fraction samples are aggregated into a mean
//! with a 95% confidence interval via standard-error machinery, so the
//! estimate carries its own error bar.
//!
//! This crate is the statistics half of the scheme and is deliberately
//! dependency-free: [`SampleConfig`] describes the plan, [`SampleDriver`]
//! alternates any [`SampleTarget`] (the system crate implements it for
//! its `Machine`) between the two regimes, [`Estimator`] does the
//! standard-error arithmetic, and [`SampleEstimate`] is the result. The
//! driver is deterministic: the sample schedule is a pure function of
//! the configuration and the target's retirement progress, never of
//! wall-clock or randomness.

#![warn(missing_docs)]

/// How a run is sampled. All instruction counts are **per CPU**, like
/// the harness's `RunScale` fields; targets scale them to aggregate
/// counts internally.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleConfig {
    /// Functional-warming instructions before the first detailed window
    /// (caches, TLBs, directory, branch predictors).
    pub warmup: u64,
    /// Sampling period: instructions from one detailed-window start to
    /// the next. The functional share of each period is
    /// `period - detail_warmup - window`.
    pub period: u64,
    /// Detailed, *unmeasured* lead-in instructions before each window,
    /// re-establishing the timing state (queues, in-flight misses) that
    /// functional warming does not model.
    pub detail_warmup: u64,
    /// Measured detailed instructions per window.
    pub window: u64,
    /// Ceiling on measured windows. The driver samples one window every
    /// period until this ceiling, so windows span the whole stream, and
    /// warms the rest of the run functionally.
    pub max_windows: usize,
}

impl SampleConfig {
    /// A plan sampling `window` detailed instructions out of every
    /// `period`, with defaults for the remaining knobs: warming one full
    /// period before the first window, a detailed lead-in of a tenth of
    /// the window, at most 64 windows.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < window` and `window < period`.
    pub fn new(period: u64, window: u64) -> Self {
        assert!(window > 0, "a zero-length detailed window measures nothing");
        assert!(
            window < period,
            "the detailed window ({window}) must be shorter than the sampling period ({period})"
        );
        let detail_warmup = (window / 10).max(1).min(period - window);
        SampleConfig {
            warmup: period,
            period,
            detail_warmup,
            window,
            max_windows: 64,
        }
    }

    /// The functional-warming instructions in each period after the
    /// first (at least 1, so the driver always makes progress).
    pub fn warm_per_period(&self) -> u64 {
        self.period
            .saturating_sub(self.detail_warmup + self.window)
            .max(1)
    }
}

/// What one detailed measurement window observed, in aggregate
/// (summed over CPUs) core-cycle units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Instructions retired during the detailed lead-in (detailed cost,
    /// not measured).
    pub lead_instrs: u64,
    /// Instructions retired in the measured window.
    pub instrs: u64,
    /// Core cycles elapsed in the measured window, summed over CPUs.
    pub cycles: u64,
    /// Memory-stall cycles in the measured window, summed over CPUs.
    pub stall_cycles: u64,
}

impl WindowSample {
    /// The window's cycles-per-instruction sample.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instrs.max(1) as f64
    }

    /// The window's memory-stall fraction sample.
    pub fn stall_fraction(&self) -> f64 {
        self.stall_cycles as f64 / self.cycles.max(1) as f64
    }
}

/// A simulation the driver can alternate between regimes. Instruction
/// counts are per CPU, mirroring [`SampleConfig`].
pub trait SampleTarget {
    /// Fast-forward `instrs` instructions per CPU in functional-warming
    /// mode; returns the aggregate instructions actually retired (less
    /// than requested when streams end or a budget is hit).
    fn functional_warm(&mut self, instrs: u64) -> u64;

    /// Run one detailed window: `lead` unmeasured lead-in instructions
    /// per CPU, then `measure` measured ones. The target must leave
    /// itself ready to re-enter functional mode afterwards (drained of
    /// in-flight detailed work).
    fn detailed_window(&mut self, lead: u64, measure: u64) -> WindowSample;

    /// Whether the run is over: every stream ended, or the target's own
    /// instruction budget is exhausted.
    fn done(&self) -> bool;
}

/// Mean ± 95% confidence interval over a stream of samples, via the
/// standard error of the mean with Student-t critical values (so small
/// window counts get honestly wider intervals).
///
/// # Examples
///
/// ```
/// use piranha_sample::Estimator;
/// let mut e = Estimator::new();
/// for x in [1.0, 1.1, 0.9, 1.0] {
///     e.push(x);
/// }
/// assert!((e.mean() - 1.0).abs() < 1e-12);
/// assert!(e.ci95() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    n: u64,
    sum: f64,
    sum_sq: f64,
}

/// Two-sided 95% Student-t critical values for 1..=30 degrees of
/// freedom; beyond 30 the normal 1.96 is close enough.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 95% two-sided Student-t critical value for `df` degrees of
/// freedom (1.96 beyond the table; infinite below one degree).
pub fn t95(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => T95[(d - 1) as usize],
        _ => 1.96,
    }
}

impl Estimator {
    /// An empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0) // guard the tiny negative from cancellation
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }

    /// The 95% confidence-interval half-width. Infinite for a single
    /// sample (one window supports no interval), zero when empty.
    pub fn ci95(&self) -> f64 {
        match self.n {
            0 => 0.0,
            1 => f64::INFINITY,
            _ => t95(self.n - 1) * self.std_error(),
        }
    }
}

/// The sampled run's aggregate estimate: what a `RunResult` carries in
/// place of exact whole-run timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleEstimate {
    /// Mean cycles-per-instruction over the measured windows.
    pub cpi_mean: f64,
    /// 95% confidence-interval half-width of `cpi_mean`.
    pub cpi_ci95: f64,
    /// Mean memory-stall fraction over the measured windows.
    pub stall_mean: f64,
    /// 95% confidence-interval half-width of `stall_mean`.
    pub stall_ci: f64,
    /// Number of measured detailed windows.
    pub windows: u64,
    /// Fraction of all retired instructions executed under the detailed
    /// model (lead-ins included): the cost knob sampling exists to
    /// shrink.
    pub detailed_fraction: f64,
    /// Aggregate instructions retired under the detailed model.
    pub detailed_instrs: u64,
    /// Aggregate instructions retired in functional-warming mode.
    pub warmed_instrs: u64,
}

impl SampleEstimate {
    /// Whether `cpi` (e.g. a full-detail reference measurement) falls
    /// inside this estimate's 95% confidence interval.
    pub fn covers_cpi(&self, cpi: f64) -> bool {
        (cpi - self.cpi_mean).abs() <= self.cpi_ci95
    }

    /// Digest every field bit-exactly (f64s by `to_bits`), for
    /// determinism tests: two sampled runs with the same seed must
    /// produce bit-identical estimates.
    pub fn digest(&self) -> u64 {
        let repr = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.cpi_mean.to_bits(),
            self.cpi_ci95.to_bits(),
            self.stall_mean.to_bits(),
            self.stall_ci.to_bits(),
            self.windows,
            self.detailed_fraction.to_bits(),
            self.detailed_instrs,
            self.warmed_instrs,
        );
        piranha_types::fnv1a(repr.as_bytes())
    }
}

/// Drives a [`SampleTarget`] through a [`SampleConfig`]'s alternation of
/// functional warming and detailed windows, accumulating the estimate.
#[derive(Debug)]
pub struct SampleDriver<'a> {
    cfg: &'a SampleConfig,
    cpi: Estimator,
    stall: Estimator,
    windows: u64,
    detailed_instrs: u64,
    warmed_instrs: u64,
}

impl<'a> SampleDriver<'a> {
    /// A driver for one plan.
    pub fn new(cfg: &'a SampleConfig) -> Self {
        SampleDriver {
            cfg,
            cpi: Estimator::new(),
            stall: Estimator::new(),
            windows: 0,
            detailed_instrs: 0,
            warmed_instrs: 0,
        }
    }

    /// Run the full alternation until the target reports done, and
    /// package the estimate.
    pub fn run<T: SampleTarget>(mut self, target: &mut T) -> SampleEstimate {
        self.warmed_instrs += target.functional_warm(self.cfg.warmup);
        while !target.done() {
            // Sample every period until `max_windows`, so the windows
            // span the whole stream: measuring only the run's prologue
            // biases the estimate badly on non-stationary workloads
            // (OLTP CPI drifts as the caches and working set settle).
            if self.windows < self.cfg.max_windows as u64 {
                let s = target.detailed_window(self.cfg.detail_warmup, self.cfg.window);
                self.detailed_instrs += s.lead_instrs + s.instrs;
                if s.instrs > 0 && s.cycles > 0 {
                    self.windows += 1;
                    self.cpi.push(s.cpi());
                    self.stall.push(s.stall_fraction());
                }
                if target.done() {
                    break;
                }
                self.warmed_instrs += target.functional_warm(self.cfg.warm_per_period());
            } else {
                // Windows exhausted: fast-forward the remainder in
                // period-sized functional chunks.
                let n = target.functional_warm(self.cfg.period);
                if n == 0 {
                    break; // no retirement progress possible: stop
                }
                self.warmed_instrs += n;
            }
        }
        self.finish()
    }

    fn finish(self) -> SampleEstimate {
        let total = self.detailed_instrs + self.warmed_instrs;
        SampleEstimate {
            cpi_mean: self.cpi.mean(),
            cpi_ci95: self.cpi.ci95(),
            stall_mean: self.stall.mean(),
            stall_ci: self.stall.ci95(),
            windows: self.windows,
            detailed_fraction: if total == 0 {
                0.0
            } else {
                self.detailed_instrs as f64 / total as f64
            },
            detailed_instrs: self.detailed_instrs,
            warmed_instrs: self.warmed_instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_mean_and_ci() {
        let mut e = Estimator::new();
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.ci95(), 0.0);
        e.push(2.0);
        assert_eq!(e.mean(), 2.0);
        assert!(e.ci95().is_infinite(), "one sample supports no interval");
        e.push(4.0);
        assert!((e.mean() - 3.0).abs() < 1e-12);
        // var = 2, se = 1, t95(1) = 12.706
        assert!((e.std_error() - 1.0).abs() < 1e-12);
        assert!((e.ci95() - 12.706).abs() < 1e-9);
    }

    #[test]
    fn estimator_identical_samples_have_zero_interval() {
        let mut e = Estimator::new();
        for _ in 0..10 {
            e.push(1.5);
        }
        assert!((e.mean() - 1.5).abs() < 1e-12);
        assert!(e.variance() < 1e-18);
        assert!(e.ci95() < 1e-9);
    }

    #[test]
    fn t_table_shrinks_toward_normal() {
        assert!(t95(0).is_infinite());
        assert!(t95(1) > t95(2));
        assert!(t95(30) > t95(31));
        assert_eq!(t95(31), 1.96);
        assert_eq!(t95(1000), 1.96);
    }

    #[test]
    fn config_derives_sensible_defaults() {
        let c = SampleConfig::new(100_000, 10_000);
        assert_eq!(c.detail_warmup, 1_000);
        assert_eq!(c.warm_per_period(), 89_000);
        assert_eq!((c.warmup, c.max_windows), (100_000, 64));
    }

    #[test]
    #[should_panic(expected = "shorter than the sampling period")]
    fn window_must_fit_in_period() {
        let _ = SampleConfig::new(1_000, 1_000);
    }

    /// A fake target: constant-CPI detailed windows over a bounded
    /// instruction stream, counting the mode alternation.
    struct Fake {
        remaining: u64,
        cpi_x1000: u64,
        warms: u64,
        windows: u64,
    }

    impl Fake {
        fn new(total: u64, cpi_x1000: u64) -> Self {
            Fake {
                remaining: total,
                cpi_x1000,
                warms: 0,
                windows: 0,
            }
        }
        fn take(&mut self, n: u64) -> u64 {
            let got = n.min(self.remaining);
            self.remaining -= got;
            got
        }
    }

    impl SampleTarget for Fake {
        fn functional_warm(&mut self, instrs: u64) -> u64 {
            self.warms += 1;
            self.take(instrs)
        }
        fn detailed_window(&mut self, lead: u64, measure: u64) -> WindowSample {
            self.windows += 1;
            let lead_instrs = self.take(lead);
            let instrs = self.take(measure);
            let cycles = instrs * self.cpi_x1000 / 1000;
            WindowSample {
                lead_instrs,
                instrs,
                cycles,
                stall_cycles: cycles / 4,
            }
        }
        fn done(&self) -> bool {
            self.remaining == 0
        }
    }

    #[test]
    fn driver_fixed_mode_respects_max_windows() {
        let cfg = SampleConfig {
            warmup: 0,
            period: 10_000,
            detail_warmup: 100,
            window: 1_000,
            max_windows: 3,
        };
        let mut t = Fake::new(200_000, 1_500);
        let est = SampleDriver::new(&cfg).run(&mut t);
        assert_eq!(est.windows, 3, "fixed mode still honours the ceiling");
        assert!(t.done(), "remainder fast-forwarded functionally");
        assert_eq!(est.detailed_instrs + est.warmed_instrs, 200_000);
    }

    #[test]
    fn driver_fixed_mode_samples_across_the_whole_stream() {
        let cfg = SampleConfig {
            warmup: 50_000,
            period: 100_000,
            detail_warmup: 1_000,
            window: 10_000,
            max_windows: 64,
        };
        let mut t = Fake::new(2_000_000, 1_800);
        let est = SampleDriver::new(&cfg).run(&mut t);
        // One window per period over the whole stream: 50k warmup, then
        // 100k consumed per iteration until the 2M run out.
        assert_eq!(est.windows, 20);
        assert!((est.cpi_mean - 1.8).abs() < 1e-9);
        assert!(est.cpi_ci95 < 1e-6, "constant CPI has no spread");
        assert!((est.stall_mean - 0.25).abs() < 1e-9);
        assert!(t.done(), "driver fast-forwards to the end of the stream");
        assert_eq!(
            est.detailed_instrs + est.warmed_instrs,
            2_000_000,
            "every instruction is accounted to exactly one regime"
        );
        assert!(
            est.detailed_fraction < 0.2,
            "detailed share stays small: {}",
            est.detailed_fraction
        );
    }

    #[test]
    fn window_sample_ratios() {
        let s = WindowSample {
            lead_instrs: 10,
            instrs: 1_000,
            cycles: 2_500,
            stall_cycles: 500,
        };
        assert!((s.cpi() - 2.5).abs() < 1e-12);
        assert!((s.stall_fraction() - 0.2).abs() < 1e-12);
        let z = WindowSample::default();
        assert_eq!(z.cpi(), 0.0);
        assert_eq!(z.stall_fraction(), 0.0);
    }

    #[test]
    fn estimate_coverage_and_digest_determinism() {
        let mk = || SampleEstimate {
            cpi_mean: 2.0,
            cpi_ci95: 0.1,
            stall_mean: 0.3,
            stall_ci: 0.02,
            windows: 8,
            detailed_fraction: 0.1,
            detailed_instrs: 80_000,
            warmed_instrs: 720_000,
        };
        let a = mk();
        assert!(a.covers_cpi(2.05));
        assert!(!a.covers_cpi(2.2));
        assert_eq!(a.digest(), mk().digest());
        let mut b = mk();
        b.cpi_mean = 2.0 + 1e-12;
        assert_ne!(a.digest(), b.digest(), "digest is bit-exact");
    }
}
