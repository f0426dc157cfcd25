//! Machine-level guards for the pluggable fabric (`piranha-net`):
//!
//! - bounded queue disciplines conserve work under a real OLTP
//!   workload: every run commits exactly the baseline's transactions,
//!   the packet ledger closes (`delivered + retransmits == walks`,
//!   `drops == retransmits` without link faults), and PFC never drops;
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
/// baseline — congestion delays packets, it never loses them — and the
/// fabric's packet ledger closes on every combination.
#[test]
fn bounded_disciplines_conserve_work() {
    let w = experiments::oltp_bounded(2);
    for topology in [
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::FatTree,
    ] {
        let (base, _) = run(fabric_cfg(topology, QueueDiscipline::unbounded()), &w, 1);
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
