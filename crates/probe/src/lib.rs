//! # piranha-probe — cycle-accurate tracing & metrics
//!
//! The observability substrate of the simulator, in three parts:
//!
//! 1. a central [`MetricRegistry`] of hierarchically-named histograms
//!    with cheaply cloned handles ([`HistogramHandle`]);
//! 2. a cycle-stamped structured trace ring buffer ([`TraceBuffer`])
//!    recording subsystem spans, gated at run time by [`TraceLevel`];
//! 3. exporters: Chrome `trace_event` JSON ([`chrome::chrome_trace_json`],
//!    viewable in Perfetto), flat CSV/JSON metric dumps
//!    ([`MetricsSnapshot`]), and the per-core stall-attribution table
//!    ([`StallTable`]) that reproduces the paper's Figure 5 breakdown.
//!
//! Everything hangs off a [`Probe`]: a cheaply-cloneable handle that is
//! either *attached* (shared registry + trace buffer) or *disabled*
//! (every operation a no-op branch). The simulation proper never reads
//! the probe, so enabling it cannot perturb simulated results — the
//! determinism guard in `tests/probe_determinism.rs` asserts this.
//!
//! # Examples
//!
//! ```
//! use piranha_probe::{Probe, ProbeConfig, TraceLevel};
//!
//! let probe = Probe::new(ProbeConfig::with_level(TraceLevel::Spans));
//! let waits = probe.histogram("parsim.node0.barrier_wait_ns");
//! waits.record(1_250);
//! probe.span(TraceLevel::Spans, "cache", "bank.lookup", 3, 1_000, 500, 0xbeef);
//! let metrics = probe.metrics().unwrap();
//! let count = metrics.get("parsim.node0.barrier_wait_ns.count").unwrap();
//! assert_eq!(count.as_count(), Some(1));
//! assert_eq!(probe.trace_snapshot().unwrap().len(), 1);
//! ```

use std::sync::Arc;

pub mod chrome;
pub mod registry;
pub mod stall;
pub mod trace;

pub use registry::{HistogramHandle, MetricRegistry, MetricValue, MetricsSnapshot};
pub use stall::{StallRow, StallTable};
pub use trace::{TraceBuffer, TraceEvent, TraceLevel, TraceSnapshot};

/// Configuration of a probe at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Runtime trace level.
    pub level: TraceLevel,
    /// Maximum events held by the trace ring buffer.
    pub trace_capacity: usize,
}

impl ProbeConfig {
    /// Metrics on, tracing at `level`, with the default ring capacity.
    pub fn with_level(level: TraceLevel) -> Self {
        ProbeConfig {
            level,
            trace_capacity: 250_000,
        }
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self::with_level(TraceLevel::Off)
    }
}

#[derive(Debug)]
struct Inner {
    registry: MetricRegistry,
    trace: TraceBuffer,
}

/// The observability handle threaded through the simulator.
///
/// Clones share one registry and trace buffer. A disabled probe
/// ([`Probe::disabled`]) makes every operation a cheap no-op, which is
/// the default for every `Machine` — observability is strictly opt-in.
#[derive(Debug, Clone, Default)]
pub struct Probe(Option<Arc<Inner>>);

impl Probe {
    /// A probe with its own registry and trace buffer.
    pub fn new(cfg: ProbeConfig) -> Self {
        Probe(Some(Arc::new(Inner {
            registry: MetricRegistry::new(),
            trace: TraceBuffer::new(cfg.level, cfg.trace_capacity),
        })))
    }

    /// The no-op probe.
    pub fn disabled() -> Self {
        Probe(None)
    }

    /// Whether this probe is attached to a registry at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The shared registry, if attached.
    pub fn registry(&self) -> Option<&MetricRegistry> {
        self.0.as_deref().map(|i| &i.registry)
    }

    /// Register a histogram (no-op handle when disabled).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match &self.0 {
            Some(i) => i.registry.register_histogram(name),
            None => HistogramHandle::noop(),
        }
    }

    /// A flat snapshot of every metric (`None` when disabled).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.0.as_deref().map(|i| i.registry.snapshot())
    }

    /// Whether trace records at `level` would currently be kept. Always
    /// `false` when disabled.
    #[inline]
    pub fn trace_on(&self, level: TraceLevel) -> bool {
        match &self.0 {
            Some(i) => i.trace.enabled(level),
            None => false,
        }
    }

    /// Change the runtime trace level.
    pub fn set_trace_level(&self, level: TraceLevel) {
        if let Some(i) = &self.0 {
            i.trace.set_level(level);
        }
    }

    /// Name a track (Chrome-trace thread) for the exporters.
    pub fn name_track(&self, track: u32, label: impl Into<String>) {
        if let Some(i) = &self.0 {
            i.trace.name_track(track, label);
        }
    }

    /// Record a span of simulated time (`ts_ps`..`ts_ps + dur_ps`) on
    /// `track`: one atomic load when the runtime level is below `level`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        level: TraceLevel,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts_ps: u64,
        dur_ps: u64,
        arg: u64,
    ) {
        if let Some(i) = &self.0 {
            if i.trace.enabled(level) {
                i.trace.record(TraceEvent {
                    ts_ps,
                    dur_ps,
                    cat,
                    name,
                    track,
                    arg,
                });
            }
        }
    }

    /// Record an instant (zero-duration) event.
    #[inline]
    pub fn instant(
        &self,
        level: TraceLevel,
        cat: &'static str,
        name: &'static str,
        track: u32,
        ts_ps: u64,
        arg: u64,
    ) {
        self.span(level, cat, name, track, ts_ps, 0, arg);
    }

    /// Clone out the trace contents (`None` when disabled).
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.0.as_deref().map(|i| i.trace.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        assert!(!p.trace_on(TraceLevel::Spans));
        p.histogram("x").record(1);
        p.span(TraceLevel::Spans, "cpu", "step", 0, 0, 1, 0);
        assert!(p.metrics().is_none());
        assert!(p.trace_snapshot().is_none());
    }

    #[test]
    fn clones_share_state() {
        let p = Probe::new(ProbeConfig::with_level(TraceLevel::Spans));
        let q = p.clone();
        p.histogram("shared").record(2);
        q.histogram("shared").record(3);
        assert_eq!(
            p.metrics().unwrap().get("shared.count").unwrap().as_count(),
            Some(2)
        );
        q.span(TraceLevel::Spans, "net", "send", 1, 10, 5, 0);
        assert_eq!(p.trace_snapshot().unwrap().len(), 1);
    }

    #[test]
    fn runtime_level_gates_spans() {
        let p = Probe::new(ProbeConfig::with_level(TraceLevel::Spans));
        p.span(TraceLevel::Verbose, "cpu", "fine", 0, 0, 0, 0);
        assert_eq!(p.trace_snapshot().unwrap().len(), 0, "verbose filtered");
        p.set_trace_level(TraceLevel::Verbose);
        p.instant(TraceLevel::Verbose, "cpu", "fine", 0, 1, 0);
        assert_eq!(p.trace_snapshot().unwrap().len(), 1);
        p.set_trace_level(TraceLevel::Off);
        p.span(TraceLevel::Spans, "cpu", "step", 0, 2, 1, 0);
        assert_eq!(p.trace_snapshot().unwrap().len(), 1, "off records nothing");
    }

    #[test]
    fn off_level_probe_still_collects_metrics() {
        let p = Probe::new(ProbeConfig::default());
        p.histogram("sample.warm_host_ns").record(7);
        assert!(!p.trace_on(TraceLevel::Spans));
        assert_eq!(
            p.metrics()
                .unwrap()
                .get("sample.warm_host_ns.max")
                .unwrap()
                .as_count(),
            Some(7)
        );
    }
}
