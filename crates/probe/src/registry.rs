//! The central metric registry.
//!
//! Subsystems register hierarchically-named histograms (dots as
//! separators: `sample.warm_host_ns`, `parsim.node0.barrier_wait_ns`)
//! and receive a [`HistogramHandle`]. Handles are cheap to clone, so
//! they can sit on simulation hot paths; registration and snapshotting
//! take a lock but happen at setup and reporting time only.
//!
//! Metrics are *pushed*: hold a handle and record into it as events
//! happen. Counters a subsystem already keeps itself are not copied in
//! here; the system crate's `Machine::metrics` reads them into a
//! [`MetricsSnapshot`] of its own, and a probed run merges the two
//! snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use piranha_kernel::Histogram;

/// A registered histogram of `u64` samples (latencies, sizes).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Mutex<Histogram>>>);

impl HistogramHandle {
    /// A handle that ignores updates.
    pub fn noop() -> Self {
        HistogramHandle(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().record(v);
        }
    }

    /// A snapshot of the accumulated distribution.
    pub fn core(&self) -> Histogram {
        self.0
            .as_ref()
            .map_or_else(Histogram::default, |h| h.lock().unwrap().clone())
    }
}

/// The value of one metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Count(u64),
    /// A gauge reading.
    Value(f64),
}

impl MetricValue {
    /// The value as `f64` regardless of kind.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Count(c) => *c as f64,
            MetricValue::Value(v) => *v,
        }
    }

    /// The counter reading, if this is a counter.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            MetricValue::Count(c) => Some(*c),
            MetricValue::Value(_) => None,
        }
    }
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Count(c) => write!(f, "{c}"),
            MetricValue::Value(v) => write!(f, "{v}"),
        }
    }
}

/// The registry: a name → histogram map.
///
/// # Examples
///
/// ```
/// use piranha_probe::MetricRegistry;
/// let reg = MetricRegistry::new();
/// let lat = reg.register_histogram("sample.warm_host_ns");
/// lat.record(3);
/// let snap = reg.snapshot();
/// assert_eq!(snap.get("sample.warm_host_ns.count").unwrap().as_count(), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct MetricRegistry {
    slots: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-fetch) a histogram. Registration is idempotent:
    /// the same name always resolves to the same underlying histogram.
    pub fn register_histogram(&self, name: &str) -> HistogramHandle {
        let mut slots = self.slots.lock().unwrap();
        let h = slots.entry(name.to_string()).or_default();
        HistogramHandle(Some(Arc::clone(h)))
    }

    /// Number of registered histograms.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether no histograms are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time reading of every histogram, sorted by name, each
    /// flattened into `<name>.count/.mean/.max/.p50/.p95/.p99`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().unwrap();
        let mut entries = Vec::with_capacity(6 * slots.len());
        for (name, h) in slots.iter() {
            let core = h.lock().unwrap();
            entries.push((format!("{name}.count"), MetricValue::Count(core.count())));
            entries.push((format!("{name}.mean"), MetricValue::Value(core.mean())));
            entries.push((format!("{name}.max"), MetricValue::Count(core.max())));
            for p in [50.0, 95.0, 99.0] {
                entries.push((
                    format!("{name}.p{p:.0}"),
                    MetricValue::Count(core.percentile(p)),
                ));
            }
        }
        // Flattening emits out of name order (`.mean` sorts after
        // `.max`); from_entries restores the sorted invariant that
        // `get`'s binary search relies on.
        MetricsSnapshot::from_entries(entries)
    }
}

/// A flat, name-sorted reading of every metric at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` rows, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// A snapshot assembled from explicit rows (sorted by name).
    pub fn from_entries(mut entries: Vec<(String, MetricValue)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }

    /// Look a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as `name,value` CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (name, v) in &self.entries {
            out.push_str(name);
            out.push(',');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// One `name value` line per row, the names padded to one width.
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in &self.entries {
            writeln!(f, "{name:<width$}  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let snap = MetricsSnapshot::from_entries(vec![
            ("a.b.util".into(), MetricValue::Value(0.75)),
            ("a.b.c".into(), MetricValue::Count(5)),
        ]);
        assert_eq!(snap.get("a.b.c"), Some(&MetricValue::Count(5)));
        assert_eq!(snap.get("a.b.util"), Some(&MetricValue::Value(0.75)));
        assert_eq!(snap.get("a.b.util").unwrap().as_count(), None);
        assert_eq!(snap.get("a.b.c").unwrap().as_f64(), 5.0);
        assert!(snap.get("missing").is_none());
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricRegistry::new();
        let a = reg.register_histogram("x");
        let b = reg.register_histogram("x");
        a.record(1);
        b.record(2);
        assert_eq!(a.core().count(), 2, "same histogram behind both handles");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn noop_handles_ignore_updates() {
        let h = HistogramHandle::noop();
        h.record(5);
        assert_eq!(h.core().count(), 0);
    }

    #[test]
    fn histogram_flattens_into_snapshot() {
        let reg = MetricRegistry::new();
        let h = reg.register_histogram("lat");
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.get("lat.count"), Some(&MetricValue::Count(4)));
        assert_eq!(snap.get("lat.max"), Some(&MetricValue::Count(100)));
        let p99 = snap.get("lat.p99").unwrap().as_count().unwrap();
        assert!(p99 <= 100, "percentile clamped to max: {p99}");
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        let reg = MetricRegistry::new();
        let a = reg.register_histogram("a");
        let b = reg.register_histogram("b");
        let both = reg.register_histogram("both");
        for v in [1u64, 7, 130] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 9, 4096] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.core();
        merged.merge(&b.core());
        let reference = both.core();
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.max(), reference.max());
        assert!((merged.mean() - reference.mean()).abs() < 1e-12);
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(merged.percentile(p), reference.percentile(p));
        }
    }

    #[test]
    fn snapshot_is_sorted_and_csv_renders() {
        let reg = MetricRegistry::new();
        reg.register_histogram("z.last").record(1);
        reg.register_histogram("a.first").record(2);
        let snap = reg.snapshot();
        assert!(snap.entries.windows(2).all(|w| w[0].0 <= w[1].0));
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("a.first.max,2\n"));
    }

    #[test]
    fn display_aligns_one_row_per_line() {
        let snap = MetricsSnapshot::from_entries(vec![
            ("net.mean_hops".into(), MetricValue::Value(1.5)),
            ("machine.instrs".into(), MetricValue::Count(42)),
        ]);
        assert_eq!(
            snap.to_string(),
            "machine.instrs  42\nnet.mean_hops   1.5\n"
        );
        assert_eq!(MetricsSnapshot::default().to_string(), "");
    }
}
