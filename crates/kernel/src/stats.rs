//! Statistics primitives feeding the paper's tables and figures.

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use piranha_kernel::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A ratio of two counters (e.g. hit rate); avoids division-by-zero
/// footguns at reporting time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ratio {
    /// Numerator events.
    pub hits: Counter,
    /// Total events.
    pub total: Counter,
}

impl Ratio {
    /// A zeroed ratio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event which either counts toward the numerator or not.
    pub fn record(&mut self, hit: bool) {
        self.total.inc();
        if hit {
            self.hits.inc();
        }
    }

    /// The ratio as a fraction, or 0 if no events were recorded.
    pub fn value(&self) -> f64 {
        if self.total.get() == 0 {
            0.0
        } else {
            self.hits.get() as f64 / self.total.get() as f64
        }
    }
}

/// A power-of-two-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, hop counts, wait times).
///
/// Buckets by `log2(v)`: bucket *i* holds samples in `[2^(i-1), 2^i)`,
/// with a dedicated first bucket for zero; the last of the 40 buckets
/// also takes every larger sample.
///
/// # Examples
///
/// ```
/// use piranha_kernel::Histogram;
/// let mut h = Histogram::new();
/// h.record(80);
/// h.record(12);
/// assert_eq!(h.count(), 2);
/// assert!((h.mean() - 46.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 40],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        let b = b.min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// An approximate percentile (0..=100), linearly interpolated within
    /// the containing bucket (samples assumed uniform across the
    /// bucket's range) and clamped to the observed maximum so a
    /// single-bucket histogram never reports a quantile above its
    /// largest sample. Returns 0 for an empty histogram.
    ///
    /// Power-of-two buckets alone resolve a quantile only to a factor
    /// of 2; interpolation recovers most of that resolution — 1000
    /// uniform samples put the median near 500, not at the 1024 bucket
    /// edge — which is what makes latency-vs-load knees visible instead
    /// of stair-stepped.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - seen) as f64 / b as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v as u64).min(self.max);
            }
            seen += b;
        }
        self.max
    }

    /// Fold another histogram into this one, bucket by bucket, so
    /// per-window, per-lane or per-core histograms combine into a
    /// whole-run estimate without rescanning the samples. The sum
    /// saturates like [`Histogram::record`], and every derived quantity
    /// (count, mean, max, quantiles) afterwards reflects the union of
    /// both sample sets.
    ///
    /// # Examples
    ///
    /// ```
    /// use piranha_kernel::Histogram;
    /// let mut a = Histogram::new();
    /// a.record(10);
    /// let mut b = Histogram::new();
    /// b.record(30);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 2);
    /// assert!((a.mean() - 20.0).abs() < 1e-9);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Median sample (bucket-interpolated).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile sample (bucket-interpolated).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile sample (bucket-interpolated).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The raw per-bucket counts (bucket `i` covers `[2^(i-1), 2^i)`;
    /// bucket 0 holds zeros). Exposed so a histogram can be persisted
    /// field-for-field and rebuilt with [`Histogram::from_parts`] — the
    /// persistent result store round-trips latency histograms this way.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuild a histogram from persisted parts (the inverse of reading
    /// [`Histogram::bucket_counts`], [`Histogram::count`],
    /// [`Histogram::sum`], and [`Histogram::max`]). The caller is
    /// responsible for internal consistency (`count == Σ buckets`); a
    /// histogram rebuilt from the parts of another is indistinguishable
    /// from the original, which the store round-trip tests assert.
    pub fn from_parts(mut buckets: Vec<u64>, count: u64, sum: u64, max: u64) -> Self {
        // Normalize to the canonical 40-bucket geometry so `merge`'s
        // equal-length debug assertion holds against live histograms.
        buckets.resize(40, 0);
        Histogram {
            buckets,
            count,
            sum,
            max,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The nominal half-open range `[lo, hi)` of bucket `i`: bucket 0 holds
/// zero-valued samples, bucket `i >= 1` holds `[2^(i-1), 2^i)`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (1u64 << (i - 1), 1u64 << i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn ratio_handles_empty_and_counts() {
        let mut r = Ratio::new();
        assert_eq!(r.value(), 0.0);
        r.record(true);
        r.record(true);
        r.record(false);
        assert!((r.value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_mean_and_max() {
        let mut h = Histogram::new();
        for ns in [10u64, 20, 30] {
            h.record(ns);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.max(), 30);
        assert_eq!(h.sum(), 60);
    }

    #[test]
    fn histogram_percentile_is_monotone() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p99);
        // Interpolation puts the median of 1..=1000 near 500, not at the
        // 1024 bucket edge.
        assert!((450..=550).contains(&p50), "interpolated p50 was {p50}");
        assert!((950..=1000).contains(&p99), "interpolated p99 was {p99}");
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        let mut h = Histogram::new();
        // 100 samples spread across the [64, 128) bucket.
        for i in 0..100u64 {
            h.record(64 + (i * 64) / 100);
        }
        let p25 = h.percentile(25.0);
        let p75 = h.percentile(75.0);
        assert!(p25 < p75, "quantiles resolve inside one bucket");
        assert!((70..=90).contains(&p25), "p25 was {p25}");
        assert!((100..=120).contains(&p75), "p75 was {p75}");
    }

    #[test]
    fn histogram_zero_sample_goes_to_first_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        // The first bucket's nominal upper bound is 1, but the
        // quantile clamps to the observed maximum (0).
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_bucket_quantiles_clamp_to_max() {
        let mut h = Histogram::new();
        // All samples land in the 64..128 bucket; interpolated quantiles
        // stay within the bucket and never exceed the observed maximum.
        for _ in 0..10 {
            h.record(100);
        }
        let mut prev = 0;
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!((64..=100).contains(&v), "p{p} of a single bucket was {v}");
            assert!(v >= prev, "quantiles are monotone");
            prev = v;
        }
        assert_eq!(h.percentile(100.0), 100, "p100 clamps to the max");
    }

    #[test]
    fn named_quantiles_match_percentile_and_are_monotone() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.p50(), h.percentile(50.0));
        assert_eq!(h.p95(), h.percentile(95.0));
        assert_eq!(h.p99(), h.percentile(99.0));
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.percentile(-10.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
    }

    #[test]
    fn bucket_overflow_lands_in_last_bucket() {
        let mut h = Histogram::new();
        // Far beyond the last bucket's nominal range; must neither panic
        // nor report a quantile above the recorded sample.
        let big = 1u64 << 50;
        h.record(big);
        h.record(big);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), big);
        assert_eq!(h.percentile(99.0), (1u64 << 39).min(big));
    }

    #[test]
    fn merge_combines_counts_sums_and_quantiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for ns in 1..=500u64 {
            a.record(ns);
            whole.record(ns);
        }
        for ns in 501..=1000u64 {
            b.record(ns);
            whole.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.max(), whole.max());
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(
                a.percentile(p),
                whole.percentile(p),
                "p{p} of merged vs whole"
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        for ns in [10u64, 20, 30] {
            a.record(ns);
        }
        let before = (a.count(), a.sum(), a.max(), a.p50());
        a.merge(&Histogram::new());
        assert_eq!(before, (a.count(), a.sum(), a.max(), a.p50()));
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.count(), a.count());
        assert_eq!(e.mean(), a.mean());
    }

    #[test]
    fn merge_saturates_like_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let big = 1u64 << 50;
        for _ in 0..10_000 {
            a.record(big);
            b.record(big);
        }
        a.merge(&b);
        assert_eq!(a.sum(), u64::MAX, "merged sum saturates");
        assert_eq!(a.count(), 20_000);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        let big = 1u64 << 50;
        // 2^64 / 2^50 = 16384 records overflow a wrapping sum.
        for _ in 0..20_000 {
            h.record(big);
        }
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 20_000);
    }
}
