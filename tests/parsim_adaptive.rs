//! Integration tests for the adaptive-lookahead parallel engine: the
//! per-pair lookahead matrix wired from the fabric topology, the
//! engine's round/window accounting, and the parsim metrics surfaced
//! through the probe and the machine report.
//!
//! Bit-identity across worker counts is separately pinned by the golden
//! fingerprints (`golden_fingerprint.rs`); these tests cover the new
//! engine *structure* — counters that must be a function of the
//! simulation, never of the thread schedule.

use piranha::workloads::{OltpConfig, Workload};
use piranha::{Machine, ParsimStats, Probe, ProbeConfig, SystemConfig};

fn multichip(chips: usize) -> Machine {
    let cfg = SystemConfig::piranha_pn(2).scaled_to_chips(chips);
    Machine::new(cfg, &Workload::Oltp(OltpConfig::paper_default()))
}

/// Drive a small multi-chip run and return its engine counters.
fn run_tiny(workers: usize) -> (u64, ParsimStats) {
    let mut m = multichip(2);
    m.set_parallel_workers(workers);
    let r = m.run(2_000, 10_000);
    (r.fingerprint(), m.parsim_stats())
}

#[test]
fn rounds_are_one_per_train_of_windows() {
    let (_, stats) = run_tiny(1);
    assert!(
        stats.windows > 100,
        "a tiny multichip run should still execute many windows, got {}",
        stats.windows
    );
    // A round is a train of TRAIN_WINDOWS = 8 windows, after which the
    // stall probe hears about the gate waits: at least 5x fewer rounds
    // than windows.
    assert!(
        stats.rounds * 5 <= stats.windows,
        "{} rounds for {} windows: stall flushes are not batched >= 5x",
        stats.rounds,
        stats.windows
    );
    // `run` drives two engine segments (warmup, then measure); each
    // ends with at most one partial train.
    let full_trains = stats.windows.div_ceil(piranha::parsim::TRAIN_WINDOWS);
    assert!(
        stats.rounds >= full_trains && stats.rounds <= full_trains + 1,
        "rounds ({}) must be the train count of {} windows (+1 per segment)",
        stats.rounds,
        stats.windows
    );
}

#[test]
fn engine_counters_are_a_function_of_the_simulation_not_the_schedule() {
    let (fp1, s1) = run_tiny(1);
    for workers in [2usize, 4] {
        let (fp, s) = run_tiny(workers);
        assert_eq!(fp, fp1, "fingerprint diverged at {workers} workers");
        assert_eq!(s, s1, "engine counters diverged at {workers} workers");
    }
    // Every window pops at least the event at its base time, so the
    // window count is bounded by the event count — the machine-level
    // O(events) guarantee that idle stretches are skipped, not spun
    // through quantum by quantum.
    assert!(s1.windows <= s1.events);
    assert!(s1.merged_events <= s1.events);
    assert!(s1.empty_windows <= s1.windows + 1);
}

#[test]
fn lookahead_degenerates_to_the_global_quantum_on_paper_configs() {
    // Table 1 glueless configs are fully connected: every pair is one
    // hop, so the matrix collapses to the fabric-wide minimum latency.
    let m = multichip(4);
    let la = m.lookahead();
    assert!(la.is_uniform(), "fully connected => uniform matrix");
    assert_eq!(la.quantum(), m.network().config().min_delivery_latency());
    assert_eq!(m.quantum(), la.quantum());
    for s in 0..4 {
        for d in 0..4 {
            if s != d {
                assert_eq!(la.bound(s, d), la.quantum());
            }
        }
    }
}

#[test]
fn dual_homed_io_nodes_get_wider_pair_bounds() {
    // 4 processing chips in a clique plus 2 I/O nodes, each dual-homed
    // to two processing chips: I/O <-> I/O traffic crosses 2 hops, so
    // its lookahead bound is twice the quantum — the per-pair matrix is
    // strictly stronger than the fabric-wide minimum here.
    let cfg = SystemConfig::piranha_pn(1)
        .scaled_to_chips(4)
        .with_io_nodes(2);
    let m = Machine::new(cfg, &Workload::Oltp(OltpConfig::paper_default()));
    let la = m.lookahead();
    assert!(!la.is_uniform(), "a dual-homed I/O topology is not uniform");
    let (io0, io1) = (4, 5);
    assert_eq!(la.bound(io0, io1), la.quantum().times(2));
    for p in 0..4 {
        assert!(la.bound(io0, p) <= la.quantum().times(2));
    }
    assert_eq!(la.min_into(io0), la.quantum(), "its home chips are 1 hop");
}

#[test]
fn parsim_counters_surface_through_probe_and_report() {
    let mut m = multichip(2);
    m.set_probe(Probe::new(ProbeConfig::default()));
    m.set_parallel_workers(2);
    let r = m.run(2_000, 10_000);
    let stats = m.parsim_stats();
    assert!(stats.rounds > 0 && stats.windows > 0);

    // Statistics-table rows, merged into the result by finish_result.
    for (name, want) in [
        ("parsim.rounds", stats.rounds),
        ("parsim.windows", stats.windows),
        ("parsim.empty_windows", stats.empty_windows),
        ("parsim.merged_events", stats.merged_events),
        ("parsim.events", stats.events),
    ] {
        assert_eq!(
            r.metrics.get(name).and_then(|v| v.as_count()),
            Some(want),
            "metric {name} missing or wrong"
        );
    }

    // Per-worker barrier-stall histograms exist for both workers when a
    // probe is attached and a parallel run happened.
    let snap = m.probe().metrics().expect("probe enabled");
    for n in 0..2 {
        let name = format!("parsim.node{n}.barrier_wait_ns");
        assert!(
            snap.get(&format!("{name}.count")).is_some() || snap.get(&name).is_some(),
            "histogram {name} was not registered"
        );
    }

    // The table itself carries the same counters, probe or not.
    let table = m.metrics();
    assert_eq!(
        table.get("parsim.rounds").and_then(|v| v.as_count()),
        Some(stats.rounds)
    );
    assert!(table.to_string().contains("parsim.windows"));
}

/// Worker w's gate waits land in `parsim.node{w}.barrier_wait_ns` and
/// nowhere else, so a sum over the histograms counts each wait once: a
/// 2-worker P4x4 run records nothing under nodes 2 and 3, and a
/// 1-worker run, whose lone worker never waits, records nothing at all.
#[test]
fn gate_waits_are_recorded_once_per_worker() {
    let waits = |workers: usize| {
        let cfg = SystemConfig::piranha_pn(4).scaled_to_chips(4);
        let mut m = Machine::new(cfg, &Workload::Oltp(OltpConfig::paper_default()));
        m.set_probe(Probe::new(ProbeConfig::default()));
        m.set_parallel_workers(workers);
        m.run(500, 2_000);
        let snap = m.probe().metrics().expect("probe enabled");
        (0..4)
            .map(|n| {
                snap.get(&format!("parsim.node{n}.barrier_wait_ns.count"))
                    .and_then(|v| v.as_count())
                    .unwrap_or(0)
            })
            .collect::<Vec<u64>>()
    };
    let two = waits(2);
    assert!(two[0] > 0 && two[1] > 0, "both workers report: {two:?}");
    assert_eq!(two[2..], [0, 0], "lanes 2 and 3 are no worker's: {two:?}");
    assert_eq!(waits(1), [0; 4], "a lone worker never waits");
}

#[test]
fn serial_single_chip_machines_report_zero_rounds_but_real_events() {
    let cfg = SystemConfig::piranha_pn(2);
    let mut m = Machine::new(cfg, &Workload::Oltp(OltpConfig::paper_default()));
    m.run(1_000, 5_000);
    let stats = m.parsim_stats();
    assert_eq!(stats.rounds, 0);
    assert_eq!(stats.windows, 0);
    assert!(stats.events > 0, "the serial loop still counts its events");
}
