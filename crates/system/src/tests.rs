//! Machine-level smoke, determinism, fault, and I/O-node tests.

use piranha_types::NodeId;
use piranha_workloads::{SynthConfig, Workload};

use crate::config::SystemConfig;
use crate::machine::Machine;
use crate::wiring::build_topology;

#[test]
fn single_cpu_synthetic_smoke() {
    let mut cfg = SystemConfig::piranha_p1();
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::light()));
    let r = m.run(2_000, 20_000);
    assert!(r.total_instrs() >= 20_000);
    assert!(r.throughput_ipns() > 0.0);
    m.check_coherence();
}

#[test]
fn eight_cpu_sharing_smoke() {
    let mut cfg = SystemConfig::piranha_p8();
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
    let r = m.run(2_000, 10_000);
    assert!(r.total_instrs() >= 80_000);
    let (hit, fwd, miss) = r.l1_miss_breakdown();
    assert!(hit + fwd + miss > 0.99);
    m.check_coherence();
}

#[test]
fn ooo_smoke() {
    let mut cfg = SystemConfig::ooo();
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::light()));
    let r = m.run(2_000, 20_000);
    assert!(r.total_instrs() >= 20_000);
}

#[test]
fn two_chip_coherence_smoke() {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
    let r = m.run(1_000, 5_000);
    assert!(r.total_instrs() >= 20_000);
    let merged = r.merged();
    assert!(
        merged.fills[3] + merged.fills[4] > 0,
        "multi-chip run must see remote fills"
    );
}

#[test]
fn determinism() {
    let run = || {
        let mut cfg = SystemConfig::piranha_pn(2);
        cfg.cpu_quantum = 500;
        let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
        let r = m.run(1_000, 5_000);
        (r.total_instrs(), r.window, m.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn faulted_run_recovers_and_stays_deterministic() {
    let run = || {
        let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
        cfg.cpu_quantum = 500;
        cfg.faults = piranha_faults::FaultConfig::seeded(42, 2e-3);
        let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
        let r = m.run(1_000, 5_000);
        assert!(r.availability.is_consistent());
        m.check_coherence();
        (r.fingerprint(), r.availability.injected)
    };
    let (fp_a, inj_a) = run();
    let (fp_b, inj_b) = run();
    assert!(inj_a > 0, "rate 2e-3 over a multichip run must inject");
    assert_eq!((fp_a, inj_a), (fp_b, inj_b), "same seed, same run");
}

#[test]
fn zero_rate_fault_config_is_bit_identical_to_disabled() {
    let run = |faults: piranha_faults::FaultConfig| {
        let mut cfg = SystemConfig::piranha_pn(2);
        cfg.cpu_quantum = 500;
        cfg.faults = faults;
        let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
        m.run(1_000, 5_000).fingerprint()
    };
    let off = run(piranha_faults::FaultConfig::default());
    let zero = run(piranha_faults::FaultConfig {
        seed: 99,
        ..piranha_faults::FaultConfig::default()
    });
    assert_eq!(off, zero, "a zero-rate plane draws nothing, costs nothing");
}

#[test]
fn scripted_faults_fire_and_are_ledgered() {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg.faults = piranha_faults::FaultConfig::scripted(
        "corrupt@50, flap@60, stall@80, hiccup@100, flip1@200, flip2@300",
    )
    .unwrap();
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
    let r = m.run(1_000, 5_000);
    assert_eq!(r.availability.injected, 6, "all six scripted events fired");
    assert!(r.availability.is_consistent());
    assert_eq!(m.fault_plane().unfired_scripted(), 0);
    assert!(
        r.availability.escalated >= 1,
        "the double-bit flip escalates past ECC"
    );
    assert!(r.availability.retransmits >= 2, "corrupt + flap retransmit");
}

/// An I/O node participates fully in global coherence: its DMA
/// traffic reaches memory homed on processing nodes and vice versa.
#[test]
fn io_node_is_a_coherence_citizen() {
    let cfg = SystemConfig::piranha_pn(2).with_io_nodes(1);
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
    m.run_until_total(120_000);
    m.check_coherence();
    // The I/O node's CPU (last in node-major order) made progress.
    let stats = m.cpu_stats();
    let io_cpu = stats.last().unwrap();
    assert!(io_cpu.instrs > 1_000, "I/O CPU ran its driver stream");
    let remote: u64 = io_cpu.fills[3] + io_cpu.fills[4];
    assert!(remote > 0, "I/O traffic crossed the interconnect");
}

/// Dual-homed I/O links: the custom topology keeps every node
/// reachable and within the channel budget.
#[test]
fn io_topology_shape() {
    let t = build_topology(piranha_net::TopologyKind::Auto, 4, 2);
    assert_eq!(t.nodes(), 6);
    assert!(
        t.max_degree() <= 5,
        "processing degree 3 + up to 2 io links"
    );
    assert_eq!(
        t.neighbours(NodeId(4)).len(),
        2,
        "io nodes have two channels"
    );
}

/// Regression: the auto mesh is exact. `mesh(w, ceil(total/w))` used to
/// round a 7-lane machine up to a 9-node 3×3 mesh — two phantom nodes
/// the machine doesn't have, silently widening the lookahead matrix.
#[test]
fn auto_mesh_node_count_is_exact() {
    use piranha_net::TopologyKind;
    for total in 6..=16 {
        let t = build_topology(TopologyKind::Auto, total, 0);
        assert_eq!(t.nodes(), total, "{total} lanes must get {total} nodes");
        assert_eq!(t.hosts(), total);
    }
}

/// Every explicit topology kind wires every lane count it's offered:
/// node counts are exact (fat tree aside, whose extra nodes are
/// documented phantom switches) and host pair bounds stay strictly
/// positive — the conservative engine's lookahead precondition.
#[test]
fn explicit_topologies_cover_sweep_sizes() {
    use piranha_net::TopologyKind;
    for kind in [
        TopologyKind::Ring,
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::FatTree,
    ] {
        for total in [2usize, 7, 16, 32, 64] {
            let t = build_topology(kind, total, 0);
            assert_eq!(t.hosts(), total, "{kind:?} over {total} lanes");
            if kind == TopologyKind::FatTree {
                assert!(t.nodes() >= total);
            } else {
                assert_eq!(t.nodes(), total);
            }
            let net: piranha_net::Network<u32> =
                piranha_net::Network::new(t, piranha_net::NetworkConfig::paper_default());
            let bounds = net.host_pair_bounds();
            assert_eq!(bounds.len(), total.max(2));
            for (s, row) in bounds.iter().enumerate() {
                for (d, b) in row.iter().enumerate() {
                    assert_eq!(
                        *b == piranha_types::Duration::ZERO,
                        s == d,
                        "{kind:?}/{total}: bound {s}->{d}"
                    );
                }
            }
        }
    }
}

/// The system controller can stop and restart cores mid-run.
#[test]
fn sc_stops_and_restarts_cores() {
    let cfg = SystemConfig::piranha_pn(2);
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::light()));
    m.run_until_total(20_000);
    m.stop_cpu(0, 1);
    let before = m.cpu_stats()[1].instrs;
    m.run_until_total(m.total_instrs() + 20_000);
    let after = m.cpu_stats()[1].instrs;
    assert!(
        after - before < 4_000,
        "stopped CPU must not keep executing: {before} -> {after}"
    );
    m.start_cpu(0, 1);
    m.run_until_total(m.total_instrs() + 20_000);
    assert!(m.cpu_stats()[1].instrs > after, "restarted CPU resumes");
    assert!(m.system_controller(0).packets_handled() > 0);
}

/// A sampled single-chip run: the machine alternates regimes, reaches
/// the budget, and reports an estimate with the detailed share small.
#[test]
fn sampled_run_single_chip_smoke() {
    let mut cfg = SystemConfig::piranha_p8();
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
    let sample = piranha_sample::SampleConfig {
        warmup: 2_000,
        period: 10_000,
        detail_warmup: 200,
        window: 1_000,
        max_windows: 16,
    };
    let r = m.run_sampled(&sample, Some(60_000));
    let est = r.sample.as_ref().expect("sampled run carries an estimate");
    // Fixed mode samples every period across the whole budget: 2k
    // warmup, then one window per 10k-instruction period within the
    // 60k-per-CPU budget.
    assert_eq!(est.windows, 6);
    assert!(est.cpi_mean > 0.5, "CPI estimate sane: {}", est.cpi_mean);
    assert!(
        est.detailed_fraction < 0.25,
        "detailed share stays small: {}",
        est.detailed_fraction
    );
    assert!(m.total_instrs() >= 8 * 60_000);
    let tally = m.tally;
    assert_eq!(tally.windows, 6);
    // In-order cores warm at exactly one cycle per instruction, so the
    // warming-cycle tally equals the warmed instruction count.
    assert_eq!(tally.warming_cycles, est.warmed_instrs);
    assert!(tally.detailed_cycles > 0);
    m.check_coherence();
}

/// Multi-chip sampled run keeps coherence across the regime switches
/// and sees remote traffic during both regimes.
#[test]
fn sampled_run_multichip_smoke() {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
    let sample = piranha_sample::SampleConfig {
        warmup: 1_000,
        period: 5_000,
        detail_warmup: 100,
        window: 500,
        max_windows: 8,
    };
    let r = m.run_sampled(&sample, Some(25_000));
    let est = r.sample.as_ref().unwrap();
    assert!(est.windows >= 3);
    let merged = r.merged();
    assert!(
        merged.fills[3] + merged.fills[4] > 0,
        "measured windows see remote fills"
    );
    m.check_coherence();
}

/// Open-loop traffic end to end on one chip: bounded OLTP streams run
/// to completion under plane admission, the conservation ledger holds,
/// and every committed transaction has a recorded latency.
#[test]
fn open_loop_traffic_single_chip_smoke() {
    let mut cfg = SystemConfig::piranha_pn(2);
    cfg.cpu_quantum = 500;
    cfg.traffic = piranha_traffic::TrafficConfig::poisson(200.0);
    let oltp = piranha_workloads::OltpConfig {
        txn_limit: 20,
        ..piranha_workloads::OltpConfig::paper_default()
    };
    let mut m = Machine::new(cfg, &Workload::Oltp(oltp));
    let r = m.run_to_completion();
    assert_eq!(r.committed_txns, Some(40), "both streams ran to the limit");
    let t = r.traffic.as_ref().expect("traffic summary present");
    assert!(t.ledger.conserved(), "ledger: {:?}", t.ledger);
    assert_eq!(t.ledger.completed, 40, "one completion per admitted txn");
    assert!(t.ledger.generated >= t.ledger.completed);
    assert_eq!(t.latency.count(), 40, "every commit has a latency sample");
    assert!(t.p99_ns() >= t.p50_ns());
    assert!(t.p50_ns() > 0);
    m.check_coherence();
    let table = m.metrics();
    let count = |name: &str| table.get(name).and_then(|v| v.as_count());
    assert_eq!(count("traffic.generated"), Some(t.ledger.generated));
    assert_eq!(count("traffic.completed"), Some(40));
    assert_eq!(count("traffic.txn_latency_ns.p50"), Some(t.p50_ns()));
    assert_eq!(count("traffic.txn_latency_ns.p99"), Some(t.p99_ns()));
    assert_eq!(
        table.get("traffic.drop_rate").map(|v| v.as_f64()),
        Some(t.drop_rate())
    );
    assert_eq!(count("cpu.node0.core1.units"), Some(20));
}

/// The statistics table's machine-wide protocol rows are the sums of
/// the per-engine counters, and every node contributes its rows.
#[test]
fn metrics_table_aggregates_the_engines() {
    let mut m = Machine::new(
        SystemConfig::piranha_pn(2).scaled_to_chips(2),
        &Workload::Synth(SynthConfig::heavy()),
    );
    m.run(1_000, 5_000);
    let table = m.metrics();
    let (mut msgs, mut instrs) = (0, 0);
    for lane in &m.lanes {
        let (home, remote) = (&lane.node.home, &lane.node.remote);
        msgs += home.msgs_handled() + remote.msgs_handled();
        instrs += home.instr_executed() + remote.instr_executed();
    }
    assert!(msgs > 0, "two chips exchanged protocol messages");
    assert_eq!(
        table.get("protocol.msgs").and_then(|v| v.as_count()),
        Some(msgs)
    );
    assert_eq!(
        table.get("protocol.mean_occupancy").map(|v| v.as_f64()),
        Some(instrs as f64 / msgs as f64)
    );
    for name in [
        "mem.node1.page_hit_rate",
        "sc.node1.packets",
        "protocol.node1.home_tsrf",
        "protocol.node1.remote_deferred",
    ] {
        assert!(table.get(name).is_some(), "missing {name}");
    }
    assert!(m.probe().metrics().is_none(), "the table needs no probe");
}

/// The same open-loop protocol across the multi-chip quantum engine:
/// idle-until-arrival events cross window barriers without deadlocking,
/// and results stay bit-identical at any worker count.
#[test]
fn open_loop_traffic_multichip_is_worker_invariant() {
    let run = |workers: usize| {
        let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
        cfg.cpu_quantum = 500;
        cfg.traffic = piranha_traffic::TrafficConfig::poisson(400.0);
        let oltp = piranha_workloads::OltpConfig {
            txn_limit: 8,
            ..piranha_workloads::OltpConfig::paper_default()
        };
        let mut m = Machine::new(cfg, &Workload::Oltp(oltp));
        m.set_parallel_workers(workers);
        let r = m.run_to_completion();
        let t = r.traffic.clone().expect("traffic summary");
        assert!(t.ledger.conserved());
        (r.fingerprint(), t.ledger, t.p99_ns(), m.now())
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a, b, "traffic schedules are worker-count invariant");
    assert_eq!(a.1.completed, 32, "8 txns x 4 cores");
}

/// A zero-rate traffic config must leave the machine bit-identical to
/// one built with traffic entirely absent (the golden-fingerprint
/// guarantee): no stream wrapped, no PRNG drawn, no event rescheduled.
#[test]
fn zero_rate_traffic_is_bit_identical_to_disabled() {
    let run = |traffic: piranha_traffic::TrafficConfig| {
        let mut cfg = SystemConfig::piranha_pn(2);
        cfg.cpu_quantum = 500;
        cfg.traffic = traffic;
        let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
        let r = m.run(1_000, 5_000);
        assert!(r.traffic.is_none(), "no summary when traffic is off");
        r.fingerprint()
    };
    let off = run(piranha_traffic::TrafficConfig::default());
    let zero = run(piranha_traffic::TrafficConfig {
        seed: 0xDEAD,
        queue_depth: 2,
        ..piranha_traffic::TrafficConfig::default()
    });
    assert_eq!(off, zero, "a zero-rate plane draws nothing, costs nothing");
}

/// Two sampled runs with the same seed are bit-identical, estimate
/// included.
#[test]
fn sampled_run_is_deterministic() {
    let run = || {
        let mut cfg = SystemConfig::piranha_pn(2);
        cfg.cpu_quantum = 500;
        let mut m = Machine::new(cfg, &Workload::Synth(SynthConfig::heavy()));
        let sample = piranha_sample::SampleConfig::new(10_000, 1_000);
        let r = m.run_sampled(&sample, Some(100_000));
        (
            r.sample.as_ref().unwrap().digest(),
            r.fingerprint(),
            m.now(),
        )
    };
    assert_eq!(run(), run());
}

/// Functional warming counts the instructions an out-of-order fill
/// retires (a fill can complete the window head and drain retirement),
/// so the lanes' retirement tally stays equal to the cores' own counts
/// across a sampled run: the run loops stop at instruction targets
/// measured on that tally.
#[test]
fn ooo_sampled_run_counts_what_warm_fills_retire() {
    let mut m = Machine::new(
        SystemConfig::ooo(),
        &Workload::Oltp(piranha_workloads::OltpConfig::paper_default()),
    );
    m.run_sampled(&piranha_sample::SampleConfig::new(2_500, 400), Some(20_000));
    let lanes: u64 = m.lanes.iter().map(|l| l.instrs_retired).sum();
    assert_eq!(lanes, m.total_instrs());
}

/// A memory read returns the line's version and directory summary as
/// they are at its data-return instant: a write and a directory update
/// made after the read was issued both show.
#[test]
fn read_return_reports_the_state_at_the_return_instant() {
    use piranha_cache::BankEvent;
    use piranha_mem::DirEntry;
    use piranha_types::{LineAddr, RemoteSummary, SimTime};

    let mut m = Machine::new(
        SystemConfig::piranha_p1(),
        &Workload::Synth(SynthConfig::light()),
    );
    let node = &mut m.lanes[0].node;
    let line = LineAddr(7);
    let bank = line.bank(node.mem.len());
    node.write_home(SimTime::ZERO, line, 3);
    // The read starts; a write and a remote grant land before its data
    // returns.
    node.mem[bank].access(SimTime::from_ns(10), line);
    node.write_home(SimTime::from_ns(20), line, 9);
    node.mem[bank].set_directory(line, DirEntry::Exclusive(NodeId(2)));
    assert_eq!(
        node.mem_data(bank, line),
        BankEvent::MemData {
            line,
            version: 9,
            remote: RemoteSummary::Exclusive,
        },
        "the version written after the read was issued"
    );
}

/// Whether every lane's inbox is empty: the arrivals the last barrier
/// routed are all on their lanes' queues.
fn inboxes_flushed(m: &Machine) -> bool {
    m.lanes.iter().all(|l| l.inbox.is_empty())
}

/// Every multi-chip run returns with the arrivals its last barrier
/// routed already queued, so what follows it (a CPU start, warming,
/// another run) finds them where the barrier routed them.
#[test]
fn runs_return_with_every_inbox_flushed() {
    let cfg = || {
        let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
        cfg.cpu_quantum = 500;
        cfg
    };
    let mut m = Machine::new(cfg(), &Workload::Synth(SynthConfig::heavy()));
    m.set_parallel_workers(2);
    m.run(1_000, 5_000);
    assert!(inboxes_flushed(&m), "after run");
    m.run_until_total(m.total_instrs() + 10_000);
    assert!(inboxes_flushed(&m), "after run_until_total");

    let oltp = piranha_workloads::OltpConfig {
        txn_limit: 4,
        ..piranha_workloads::OltpConfig::paper_default()
    };
    let mut m = Machine::new(cfg(), &Workload::Oltp(oltp));
    m.set_parallel_workers(2);
    m.run_to_completion();
    assert!(inboxes_flushed(&m), "after run_to_completion");

    let mut m = Machine::new(cfg(), &Workload::Synth(SynthConfig::heavy()));
    m.set_parallel_workers(2);
    let sample = piranha_sample::SampleConfig {
        warmup: 1_000,
        period: 5_000,
        detail_warmup: 100,
        window: 500,
        max_windows: 8,
    };
    m.run_sampled(&sample, Some(25_000));
    assert!(inboxes_flushed(&m), "after run_sampled");
}

/// A bounded P2x2 OLTP run in three segments, with a CPU stopped after
/// the first and restarted after the second, gives one result at every
/// worker count: the one pinned here, which the engine gave when the
/// barrier queued arrivals itself. A change of event order that every
/// worker count shares (the `Step` a restart schedules sorting
/// differently against the arrivals the previous barrier routed, say)
/// shows only against the pin.
#[test]
fn segmented_run_with_a_cpu_restart_is_pinned_at_every_worker_count() {
    let run = |workers: usize| {
        let oltp = piranha_workloads::OltpConfig {
            txn_limit: 20,
            ..piranha_workloads::OltpConfig::paper_default()
        };
        let mut m = Machine::new(
            SystemConfig::piranha_pn(2).scaled_to_chips(2),
            &Workload::Oltp(oltp),
        );
        m.set_parallel_workers(workers);
        m.run_until_total(10_000);
        m.stop_cpu(1, 0);
        m.run_until_total(m.total_instrs() + 10_000);
        m.start_cpu(1, 0);
        let r = m.run_to_completion();
        assert!(inboxes_flushed(&m));
        r.fingerprint()
    };
    for workers in [1, 2, 4] {
        assert_eq!(
            format!("{:016x}", run(workers)),
            "e4daa4f3b722c3df",
            "{workers} workers"
        );
    }
}
