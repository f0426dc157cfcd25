//! Fault-injection determinism guards (paper §2.7 exercise):
//!
//! - same seed + same `FaultSchedule` ⇒ bit-identical
//!   `RunResult::fingerprint()`;
//! - a zero-rate schedule ⇒ fingerprint identical to the fault-free
//!   baseline (the disabled plane draws nothing and delays nothing);
//! - a scripted schedule fires every event exactly once and the
//!   availability ledger stays consistent;
//! - a bounded workload run to completion commits identical work with
//!   and without recoverable faults.

use piranha::experiments;
use piranha::harness::{RunRequest, RunScale};
use piranha::workloads::{SynthConfig, Workload};
use piranha::{FaultConfig, Machine, SystemConfig};

fn sharing_workload() -> Workload {
    Workload::Synth(SynthConfig {
        load_frac: 0.25,
        store_frac: 0.2,
        shared_frac: 0.5,
        shared_bytes: 512 << 10,
        private_bytes: 256 << 10,
        ..SynthConfig::light()
    })
}

fn two_chip_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg
}

fn faulted_cfg(seed: u64, rate: f64) -> SystemConfig {
    let mut cfg = two_chip_cfg();
    cfg.faults = FaultConfig::seeded(seed, rate);
    cfg
}

/// Same seed + same schedule ⇒ the whole run is bit-identical, faults,
/// recoveries, and all.
#[test]
fn same_seed_and_schedule_are_bit_identical() {
    let w = sharing_workload();
    let scale = RunScale::tiny();
    let a = RunRequest::new(faulted_cfg(42, 2e-3), w.clone(), scale).run();
    let b = RunRequest::new(faulted_cfg(42, 2e-3), w.clone(), scale).run();
    assert!(a.availability.injected > 0, "the rate actually injected");
    assert!(a.availability.is_consistent());
    assert_eq!(a.fingerprint(), b.fingerprint(), "replay diverged");
    assert_eq!(a.availability, b.availability);
}

/// A zero-rate, script-free schedule is *exactly* the fault-free
/// machine: the disabled plane performs no PRNG draws and adds no
/// latency anywhere.
#[test]
fn zero_rate_schedule_matches_the_fault_free_baseline() {
    let w = sharing_workload();
    let scale = RunScale::tiny();
    let base = RunRequest::new(two_chip_cfg(), w.clone(), scale).run();
    let zero = RunRequest::new(faulted_cfg(7, 0.0), w.clone(), scale).run();
    assert_eq!(
        base.fingerprint(),
        zero.fingerprint(),
        "a zero-rate fault plane perturbed the simulation"
    );
    assert_eq!(zero.availability.injected, 0);
}

/// Different fault seeds explore different injection points, which the
/// fingerprint (it folds in the availability digest) must expose.
#[test]
fn different_fault_seeds_diverge() {
    let w = sharing_workload();
    let scale = RunScale::tiny();
    let a = RunRequest::new(faulted_cfg(1, 2e-3), w.clone(), scale).run();
    let b = RunRequest::new(faulted_cfg(2, 2e-3), w.clone(), scale).run();
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "independent fault seeds produced identical runs"
    );
}

/// Every scripted event fires exactly once, is ledgered exactly once,
/// and the double-bit flip escalates to the mirroring failover.
#[test]
fn scripted_schedule_fires_every_event_once() {
    let mut cfg = two_chip_cfg();
    cfg.faults =
        FaultConfig::scripted("corrupt@50, flap@60, stall@80, hiccup@100, flip1@200, flip2@300")
            .expect("script parses");
    let mut m = Machine::new(cfg, &sharing_workload());
    let r = m.run(2_000, 10_000);
    assert_eq!(m.fault_plane().unfired_scripted(), 0, "events left behind");
    assert_eq!(r.availability.injected, 6);
    assert!(r.availability.is_consistent());
    assert!(
        r.availability.escalated >= 1,
        "the double-bit flip must escalate: {:?}",
        r.availability
    );
    assert!(r.availability.retransmits >= 2, "corrupt + flap retransmit");
    m.check_coherence();
}

/// Faults never lose work: a bounded OLTP run to completion commits the
/// same transaction count with and without a recoverable schedule, and
/// only the cycle counts may differ.
#[test]
fn completion_runs_commit_identical_work_under_faults() {
    let w = experiments::oltp_bounded(8);
    let scale = RunScale::completion();
    let base = RunRequest::new(two_chip_cfg(), w.clone(), scale).run();
    let faulted = RunRequest::new(faulted_cfg(42, 2e-3), w.clone(), scale).run();
    assert!(faulted.availability.injected > 0);
    assert!(faulted.availability.is_consistent());
    assert_eq!(
        faulted.committed_txns, base.committed_txns,
        "recoverable faults lost committed work"
    );
    assert!(
        base.committed_txns.unwrap_or(0) >= 8 * 4,
        "all streams ran out"
    );
}
