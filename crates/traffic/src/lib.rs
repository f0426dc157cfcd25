//! Open-loop traffic for the Piranha simulator.
//!
//! Every workload in the original tree is *closed-loop*: a core finishes
//! one transaction and immediately begins the next, so the machine always
//! runs at 100% utilization and transaction latency equals service time.
//! Real datacenter load is *open-loop* — requests arrive on their own
//! schedule whether or not the server is ready — which is what produces
//! the classic hockey-stick: tail latency flat at low load, super-linear
//! once offered load approaches the saturation knee.
//!
//! This crate supplies that layer:
//!
//! * [`ArrivalProcess`] — deterministic, seeded inter-arrival generators:
//!   [`PoissonArrivals`] (exponential gaps) and [`LogNormalArrivals`]
//!   (heavier-tailed bursts), optionally modulated by a [`DiurnalCurve`]
//!   load multiplier.
//! * [`TrafficPlane`] — per-core bounded run queues with drop/defer
//!   accounting, consulted by the machine at dispatch exactly like the
//!   fault plane. Every generated arrival is classified exactly once as
//!   accepted, dropped, or deferred, so
//!   `accepted + dropped + deferred == generated` holds structurally.
//! * [`OpenLoopStream`] — wraps a closed-loop [`InstrStream`] and parks
//!   it at every transaction boundary; the plane decides when the next
//!   transaction is admitted, stamping birth and commit cycles so the
//!   machine can populate `traffic.txn_latency_ns` histograms. An
//!   admitted transaction starts at once; the plane adds no service
//!   time of its own.
//!
//! Determinism: all plane state is per-node and consulted only at
//! node-local dispatch points, so runs are bit-identical at any
//! `--parallel` worker count; a disabled plane ([`TrafficConfig`] with
//! rate 0) never touches a PRNG and never wraps a stream, leaving golden
//! fingerprints byte-for-byte unchanged.

#![warn(missing_docs)]

mod plane;
mod process;
mod stream;

pub use plane::{Admission, TrafficLedger, TrafficPlane, TrafficSummary};
pub use process::{ArrivalKind, ArrivalProcess, DiurnalCurve, LogNormalArrivals, PoissonArrivals};
pub use stream::OpenLoopStream;

use piranha_cpu::InstrStream;

/// What to do with an arrival that finds its core's run queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Shed the transaction (counted in `dropped`; it never executes).
    #[default]
    Drop,
    /// Park it on an unbounded overflow queue (counted in `deferred`;
    /// it executes later and its queueing delay lands in the tail).
    Defer,
}

/// Configuration of the open-loop traffic layer.
///
/// The zero-rate default disables the whole subsystem: no stream is
/// wrapped, no PRNG is seeded, and the machine's behaviour (and golden
/// fingerprints) are bit-identical to a build without this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Offered load in transactions per million CPU cycles, per core.
    /// `0.0` disables traffic mode.
    pub rate_tpmc: f64,
    /// Shape of the inter-arrival distribution.
    pub process: ArrivalKind,
    /// Optional diurnal (sinusoidal) modulation of the offered rate.
    pub curve: Option<DiurnalCurve>,
    /// Bounded run-queue depth per core.
    pub queue_depth: usize,
    /// What happens to arrivals past the depth limit.
    pub overflow: OverflowPolicy,
    /// Traffic-layer seed, mixed with the machine seed per node.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            rate_tpmc: 0.0,
            process: ArrivalKind::Poisson,
            curve: None,
            queue_depth: 16,
            overflow: OverflowPolicy::Drop,
            seed: 0x007A_FF1C,
        }
    }
}

impl TrafficConfig {
    /// A Poisson open-loop load at `rate` transactions per million
    /// cycles per core, defaults elsewhere.
    pub fn poisson(rate: f64) -> Self {
        TrafficConfig {
            rate_tpmc: rate,
            ..Self::default()
        }
    }

    /// Whether the traffic layer does anything at all.
    pub fn enabled(&self) -> bool {
        self.rate_tpmc > 0.0
    }

    /// Mean inter-arrival gap in cycles implied by the offered rate.
    pub fn mean_gap_cycles(&self) -> f64 {
        if self.rate_tpmc <= 0.0 {
            f64::INFINITY
        } else {
            1_000_000.0 / self.rate_tpmc
        }
    }
}

/// Wrap each processing-node stream in an [`OpenLoopStream`] when the
/// config enables traffic; pass streams through untouched otherwise.
pub fn wrap_streams(
    cfg: &TrafficConfig,
    streams: Vec<Box<dyn InstrStream>>,
) -> Vec<Box<dyn InstrStream>> {
    if !cfg.enabled() {
        return streams;
    }
    streams
        .into_iter()
        .map(|s| Box::new(OpenLoopStream::new(s)) as Box<dyn InstrStream>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let cfg = TrafficConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.mean_gap_cycles(), f64::INFINITY);
    }

    #[test]
    fn rate_implies_mean_gap() {
        let cfg = TrafficConfig::poisson(100.0);
        assert!(cfg.enabled());
        assert!((cfg.mean_gap_cycles() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn wrap_streams_is_identity_when_disabled() {
        let s: Vec<Box<dyn InstrStream>> = vec![Box::new(|| None)];
        let out = wrap_streams(&TrafficConfig::default(), s);
        assert_eq!(out.len(), 1);
        // An unwrapped stream keeps the default (non-parking) behaviour.
        assert!(!out[0].parked());
    }
}
