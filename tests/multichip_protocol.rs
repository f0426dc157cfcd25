//! Multi-chip (NUMA) integration tests: the inter-node directory
//! protocol of paper §2.5.3 exercised end-to-end — 3-hop transactions,
//! write-back races, cruise-missile invalidates, and glueless scaling.

use piranha::workloads::{OltpConfig, SynthConfig, Workload};
use piranha::{Machine, SystemConfig};

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

fn run_chips(chips: usize, instrs: u64) -> Machine {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(chips);
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &sharing_workload());
    m.run_until_total(instrs);
    m
}

/// Two chips sharing hot data: remote fills of both kinds occur, the
/// coherence invariants hold across the system, and everyone advances.
#[test]
fn two_chips_share_coherently() {
    let m = run_chips(2, 200_000);
    m.check_coherence();
    let s = m.cpu_stats();
    let remote_mem: u64 = s.iter().map(|c| c.fills[3]).sum();
    let remote_dirty: u64 = s.iter().map(|c| c.fills[4]).sum();
    assert!(remote_mem > 0, "reads of remote-homed clean lines occurred");
    assert!(remote_dirty > 0, "3-hop dirty transfers occurred");
    for c in &s {
        assert!(c.instrs > 10_000, "every CPU progresses");
    }
}

/// Four chips (the paper's fully-connected glueless maximum with a
/// spare channel): the protocol engines stay within their 16-entry TSRF
/// and the network delivers everything it accepted.
#[test]
fn four_chip_scaling_respects_tsrf_bounds() {
    let m = run_chips(4, 400_000);
    m.check_coherence();
    let (home_msgs, remote_msgs, home_hw, remote_hw) = m.engine_stats();
    assert!(home_msgs > 1_000, "home engines did real work: {home_msgs}");
    assert!(
        remote_msgs > 1_000,
        "remote engines did real work: {remote_msgs}"
    );
    assert!(home_hw <= 16 && remote_hw <= 16, "TSRF bound respected");
    assert!(m.fabric_stats().delivered > 1_000);
}

/// Write-back races and recalls: a migratory pattern (every CPU updates
/// the same hot lines in turn) forces exclusive ownership to bounce
/// between chips through forwards and write-backs.
#[test]
fn migratory_ownership_bounces_between_chips() {
    let w = Workload::Synth(SynthConfig {
        load_frac: 0.2,
        store_frac: 0.3,
        shared_frac: 0.9,
        shared_bytes: 8 << 10, // 128 lines, all hot
        ..SynthConfig::light()
    });
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 200;
    let mut m = Machine::new(cfg, &w);
    m.run_until_total(150_000);
    m.check_coherence();
    let dirty_3hop: u64 = m.cpu_stats().iter().map(|c| c.fills[4]).sum();
    assert!(
        dirty_3hop > 50,
        "migratory data moves by 3-hop forwards: {dirty_3hop}"
    );
}

/// The CMI route budget bounds invalidation fan-out without losing
/// correctness: a run with 1 route (worst-case chaining) matches the
/// coherence invariants of a run with unlimited routes.
#[test]
fn cmi_route_budget_is_correctness_neutral() {
    for routes in [1usize, 4, 64] {
        let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(4);
        cfg.cmi_routes = routes;
        cfg.cpu_quantum = 500;
        let mut m = Machine::new(cfg, &sharing_workload());
        m.run_until_total(150_000);
        m.check_coherence();
    }
}

/// OLTP across four chips completes with remote communication and a
/// better-than-OOO scaling trend (the Figure 7 claim, smoke-sized).
#[test]
fn oltp_scales_across_chips() {
    let w = Workload::Oltp(OltpConfig::paper_default());
    let mut one = Machine::new(SystemConfig::piranha_pn(2), &w);
    let r1 = one.run(30_000, 60_000);
    let mut four = Machine::new(SystemConfig::piranha_pn(2).scaled_to_chips(4), &w);
    let r4 = four.run(30_000, 60_000);
    let s = r4.speedup_over(&r1);
    assert!(s > 1.8, "4 chips should clearly beat 1: {s}");
    four.check_coherence();
}

/// Remote traffic is deterministic too.
#[test]
fn multichip_determinism() {
    let run = || {
        let m = run_chips(2, 100_000);
        let s = m.cpu_stats();
        (
            s.iter().map(|c| c.instrs).sum::<u64>(),
            s.iter().map(|c| c.fills[3] + c.fills[4]).sum::<u64>(),
            m.fabric_stats().delivered,
            m.now().as_ps(),
        )
    };
    assert_eq!(run(), run());
}
