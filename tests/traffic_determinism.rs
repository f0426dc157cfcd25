//! Determinism guards for the open-loop traffic subsystem
//! (`piranha-traffic`):
//!
//! - same seed + same `TrafficConfig` ⇒ bit-identical
//!   `RunResult::fingerprint()` and identical latency estimates at any
//!   `--parallel` lane-worker count (1, 2, 4), equal to pinned values;
//! - the admission ledger conserves structurally under arbitrary rates,
//!   queue depths, and overflow policies:
//!   `accepted + dropped + deferred == generated`;
//! - a zero-rate traffic config — even with non-default seed, depth,
//!   and overflow fields — is *exactly* the closed-loop machine: no
//!   stream is wrapped, no PRNG is drawn, golden fingerprints are
//!   byte-for-byte unchanged.

use proptest::prelude::*;

use piranha::experiments;
use piranha::harness::{RunRequest, RunScale};
use piranha::{OverflowPolicy, SystemConfig, TrafficConfig, TrafficLedger};

/// The pinned outcome of the loaded run of
/// [`traffic_runs_are_worker_invariant`]: its fingerprint, admission
/// ledger and `(p50, p95, p99)` latency in ns. A change to the arrival
/// schedule, to admission or to the machine under the load moves them.
const PINNED_FINGERPRINT: u64 = 0xa18fa070a4128b81;
const PINNED_LEDGER: TrafficLedger = TrafficLedger {
    generated: 45,
    accepted: 45,
    dropped: 0,
    deferred: 0,
    completed: 32,
};
const PINNED_LATENCY_NS: (u64, u64, u64) = (13_863, 32_768, 34_298);

fn two_chip_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg
}

fn loaded_cfg(traffic: TrafficConfig) -> SystemConfig {
    let mut cfg = two_chip_cfg();
    cfg.traffic = traffic;
    cfg
}

/// The whole loaded run — event order, arrival schedule, latency
/// histogram — is invariant under the lane-worker count: the quantum
/// engine only changes wall-clock, never results. The serial run
/// matches the pinned values.
#[test]
fn traffic_runs_are_worker_invariant() {
    let w = experiments::oltp_bounded(8);
    let cfg = loaded_cfg(TrafficConfig::poisson(400.0));
    let req = RunRequest::new(cfg, w, RunScale::completion());
    let runs: Vec<_> = [1, 2, 4]
        .iter()
        .map(|&n| {
            let mut m = req.build();
            m.set_parallel_workers(n);
            req.drive(&mut m)
        })
        .collect();
    let t0 = runs[0].traffic.as_ref().expect("traffic summary present");
    assert!(t0.ledger.completed > 0, "the load actually ran");
    assert_eq!(
        (runs[0].fingerprint(), t0.ledger),
        (PINNED_FINGERPRINT, PINNED_LEDGER),
        "the loaded run moved from its pinned fingerprint or ledger"
    );
    assert_eq!(
        (t0.p50_ns(), t0.p95_ns(), t0.p99_ns()),
        PINNED_LATENCY_NS,
        "the loaded run's latency estimate moved from its pin"
    );
    for r in &runs[1..] {
        assert_eq!(
            runs[0].fingerprint(),
            r.fingerprint(),
            "lane workers changed a loaded run"
        );
        let t = r.traffic.as_ref().expect("traffic summary present");
        assert_eq!(t0.ledger, t.ledger, "admission ledger diverged");
        assert_eq!(
            (t0.p50_ns(), t0.p95_ns(), t0.p99_ns()),
            (t.p50_ns(), t.p95_ns(), t.p99_ns()),
            "latency estimate diverged"
        );
        assert_eq!(runs[0].window, r.window);
    }
}

/// Different traffic seeds draw different arrival schedules, which the
/// fingerprint (it folds in the run's timing) must expose.
#[test]
fn different_traffic_seeds_diverge() {
    let w = experiments::oltp_bounded(8);
    let mut a_cfg = TrafficConfig::poisson(400.0);
    a_cfg.seed = 1;
    let mut b_cfg = TrafficConfig::poisson(400.0);
    b_cfg.seed = 2;
    let a = RunRequest::new(loaded_cfg(a_cfg), w.clone(), RunScale::completion()).run();
    let b = RunRequest::new(loaded_cfg(b_cfg), w, RunScale::completion()).run();
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "independent arrival seeds produced identical runs"
    );
}

/// A zero-rate traffic config — with every *other* field perturbed — is
/// bit-identical to the closed-loop baseline, which is what keeps the
/// golden fingerprints valid whenever `--traffic` is absent.
#[test]
fn zero_rate_traffic_leaves_closed_loop_runs_unchanged() {
    let w = experiments::oltp_bounded(6);
    for cfg in [SystemConfig::piranha_pn(2), two_chip_cfg()] {
        let base = RunRequest::new(cfg.clone(), w.clone(), RunScale::completion()).run();
        let mut zero = cfg.clone();
        zero.traffic = TrafficConfig {
            rate_tpmc: 0.0,
            seed: 0xDEAD_BEEF,
            queue_depth: 2,
            overflow: OverflowPolicy::Defer,
            ..TrafficConfig::default()
        };
        let z = RunRequest::new(zero, w.clone(), RunScale::completion()).run();
        assert_eq!(
            base.fingerprint(),
            z.fingerprint(),
            "{}: a disabled traffic plane perturbed the simulation",
            cfg.name
        );
        assert!(z.traffic.is_none(), "no summary without traffic");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every generated arrival is classified exactly once, at any rate,
    /// queue depth, and overflow policy — and every commit was both
    /// admitted and latency-stamped.
    #[test]
    fn admission_ledger_conserves(
        seed in 0u64..10_000,
        rate in 50.0f64..2_000.0,
        depth in 1usize..32,
        defer in proptest::bool::ANY,
    ) {
        let w = experiments::oltp_bounded(5);
        let traffic = TrafficConfig {
            rate_tpmc: rate,
            seed,
            queue_depth: depth,
            overflow: if defer { OverflowPolicy::Defer } else { OverflowPolicy::Drop },
            ..TrafficConfig::default()
        };
        let r = RunRequest::new(loaded_cfg(traffic), w, RunScale::completion()).run();
        let t = r.traffic.as_ref().expect("traffic summary present");
        prop_assert!(t.ledger.conserved(), "seed {} rate {}: {:?}", seed, rate, t.ledger);
        prop_assert_eq!(
            t.ledger.accepted + t.ledger.dropped + t.ledger.deferred,
            t.ledger.generated,
            "classification must be exhaustive and exclusive"
        );
        prop_assert!(t.ledger.completed <= t.ledger.accepted + t.ledger.deferred);
        prop_assert_eq!(
            t.latency.count(),
            t.ledger.completed,
            "every commit carries exactly one latency sample"
        );
        prop_assert_eq!(
            r.committed_txns,
            Some(t.ledger.completed),
            "machine-level commits and plane-level completions agree"
        );
    }
}
