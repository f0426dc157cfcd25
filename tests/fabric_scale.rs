//! Machine-level guards for the pluggable fabric (`piranha-net`):
//!
//! - bounded queue disciplines conserve work under a real OLTP
//!   workload: every run commits exactly the baseline's transactions,
//!   the packet ledger closes (`delivered + retransmits == walks`,
//!   `drops == retransmits` without link faults), PFC never drops, and
//!   each run reproduces its pinned fingerprint and fabric counters;
//! - fabric runs are worker-invariant: the same `nodes × topology ×
//!   queue` point fingerprints identically (and reports identical
//!   fabric counters) at 1, 2, and 4 lane workers;
//! - the pluggable machinery is invisible by default: an explicit
//!   `TopologyKind::Auto` + unbounded queue config is bit-identical to
//!   the untouched preset (the golden set itself is diffed by
//!   `tests/golden_fingerprint.rs`).

use piranha::experiments;
use piranha::harness::{RunRequest, RunScale};
use piranha::types::Duration;
use piranha::workloads::Workload;
use piranha::{Machine, QueueDiscipline, RunResult, SystemConfig, TopologyKind};

/// The pinned outcome of every `topology/queue` run of
/// [`bounded_disciplines_conserve_work`] (`unbounded` is its lossless
/// baseline): the run's fingerprint and the fabric's `[walks,
/// deflections, drops, pauses]`. A change to the router's port choice,
/// to a queue discipline or to anything the packets carry moves them.
const PINS: [(&str, u64, [u64; 4]); 12] = [
    ("mesh/unbounded", 0x95fb29163c818462, [3325, 436, 0, 0]),
    ("mesh/droptail", 0x95fb29163c818462, [3325, 436, 0, 0]),
    ("mesh/lossy", 0x95fb29163c818462, [3325, 436, 0, 0]),
    ("mesh/pfc", 0x95fb29163c818462, [3325, 436, 0, 0]),
    ("torus/unbounded", 0x17423f26e10e86c4, [3334, 259, 0, 0]),
    ("torus/droptail", 0x17423f26e10e86c4, [3334, 259, 0, 0]),
    ("torus/lossy", 0x17423f26e10e86c4, [3334, 259, 0, 0]),
    ("torus/pfc", 0x17423f26e10e86c4, [3334, 259, 0, 0]),
    ("fattree/unbounded", 0x447c2e385343f4de, [3321, 734, 0, 0]),
    ("fattree/droptail", 0x447c2e385343f4de, [3325, 734, 4, 0]),
    ("fattree/lossy", 0x447c2e385343f4de, [3325, 734, 4, 0]),
    ("fattree/pfc", 0x447c2e385343f4de, [3321, 734, 0, 4]),
];

/// Assert that the run labelled `label` reproduced its [`PINS`] row.
fn assert_pinned(label: &str, r: &RunResult, m: &Machine) {
    let fs = m.fabric_stats();
    let got = (
        r.fingerprint(),
        [fs.walks, fs.deflections, fs.drops, fs.pauses],
    );
    let want = PINS.iter().find(|p| p.0 == label).map(|p| (p.1, p.2));
    assert_eq!(
        Some(got),
        want,
        "{label}: fingerprint or fabric counters moved from the pin"
    );
}

/// A 16-node machine of single-CPU chips on an explicit fabric.
fn fabric_cfg(topology: TopologyKind, queue: QueueDiscipline) -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(1).scaled_to_chips(16);
    cfg.topology = topology;
    cfg.net.queue = queue;
    cfg
}

/// Run `w` to completion on `cfg` with `workers` lane threads; the
/// machine comes back for its fabric counters.
fn run(cfg: SystemConfig, w: &Workload, workers: usize) -> (RunResult, Machine) {
    let req = RunRequest::new(cfg, w.clone(), RunScale::completion());
    let mut m = req.build();
    m.set_parallel_workers(workers);
    (req.drive(&mut m), m)
}

fn congested() -> Duration {
    Duration::from_ns(piranha::net::CONGESTED_CAPACITY_NS)
}

/// Every bounded discipline commits exactly the work of the lossless
/// baseline — congestion delays packets, it never loses them — the
/// fabric's packet ledger closes on every combination, and every run
/// matches its [`PINS`] row.
#[test]
fn bounded_disciplines_conserve_work() {
    let w = experiments::oltp_bounded(2);
    for topology in [
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::FatTree,
    ] {
        let (base, bm) = run(fabric_cfg(topology, QueueDiscipline::unbounded()), &w, 1);
        assert_pinned(&format!("{}/unbounded", topology.label()), &base, &bm);
        let base_committed = base.committed_txns.expect("bounded workload reports work");
        assert!(base_committed > 0, "baseline must commit work");
        for queue in [
            QueueDiscipline::DropTail {
                capacity: congested(),
            },
            QueueDiscipline::LossyNack {
                capacity: congested(),
            },
            QueueDiscipline::Pfc {
                capacity: congested(),
            },
        ] {
            let (r, m) = run(fabric_cfg(topology, queue), &w, 1);
            let fs = m.fabric_stats();
            let label = format!("{}/{}", topology.label(), queue.label());
            assert_pinned(&label, &r, &m);
            assert_eq!(
                r.committed_txns,
                Some(base_committed),
                "{label}: a bounded fabric lost committed work"
            );
            assert_eq!(
                fs.delivered + fs.retransmits,
                fs.walks,
                "{label}: every walk must deliver or retransmit"
            );
            assert_eq!(
                fs.drops, fs.retransmits,
                "{label}: faultless runs retransmit only on drops"
            );
            if matches!(queue, QueueDiscipline::Pfc { .. }) {
                assert_eq!(fs.drops, 0, "{label}: PFC pauses instead of dropping");
            }
            assert!(
                fs.delivered > 0,
                "{label}: the fabric actually carried traffic"
            );
        }
    }
}

/// The same fabric point is bit-identical at any lane-worker count —
/// the per-pair lookahead bounds hold on every topology, so the
/// conservative engine never reorders an interaction.
#[test]
fn fabric_runs_are_worker_invariant() {
    let w = experiments::oltp_bounded(2);
    for (topology, queue) in [
        (
            TopologyKind::Torus,
            QueueDiscipline::DropTail {
                capacity: congested(),
            },
        ),
        (
            TopologyKind::FatTree,
            QueueDiscipline::Pfc {
                capacity: congested(),
            },
        ),
    ] {
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&n| run(fabric_cfg(topology, queue), &w, n))
            .collect();
        let (r0, m0) = &runs[0];
        let fs0 = m0.fabric_stats();
        for (r, m) in &runs[1..] {
            assert_eq!(
                r0.fingerprint(),
                r.fingerprint(),
                "{}/{}: lane workers changed a fabric run",
                topology.label(),
                queue.label()
            );
            let fs = m.fabric_stats();
            assert_eq!(
                (
                    fs0.delivered,
                    fs0.walks,
                    fs0.deflections,
                    fs0.drops,
                    fs0.pauses
                ),
                (fs.delivered, fs.walks, fs.deflections, fs.drops, fs.pauses),
                "{}/{}: fabric counters diverged across workers",
                topology.label(),
                queue.label()
            );
            assert_eq!(fs0.node_deflections, fs.node_deflections);
        }
    }
}

/// An explicit `Auto` topology with the unbounded default queue is the
/// *same machine* as the untouched preset — the pluggable fabric only
/// exists when asked for, which is what keeps every golden fingerprint
/// valid.
#[test]
fn default_fabric_is_bit_identical_to_presets() {
    let w = experiments::oltp_bounded(3);
    for cfg in [
        SystemConfig::piranha_p8(),
        SystemConfig::piranha_pn(2).scaled_to_chips(2),
    ] {
        let (base, _) = run(cfg.clone(), &w, 1);
        let mut explicit = cfg.clone();
        explicit.topology = TopologyKind::Auto;
        explicit.net.queue = QueueDiscipline::unbounded();
        let (e, _) = run(explicit, &w, 1);
        assert_eq!(
            base.fingerprint(),
            e.fingerprint(),
            "{}: spelling out the default fabric perturbed the run",
            cfg.name
        );
    }
}
