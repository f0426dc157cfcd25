//! Fabric congestion at scale: bounded OLTP to completion on machines
//! of 16/32/64 single-CPU chips over every explicit topology
//! (mesh/torus/fat-tree) × queue discipline (drop-tail/lossy-NACK/PFC)
//! combination of the pluggable interconnect, reporting throughput,
//! deflection/drop/pause rates, and link occupancy.
//!
//! Reads `--quick`, `--topology`/`--queue` (narrow the sweep to one
//! shape or discipline), `--check` (exit nonzero unless some swept point
//! shows measurable congestion — nonzero drops or pause stalls; the CI
//! `scale-smoke` step runs this, and every row's packet-ledger
//! conservation is asserted inside the sweep regardless), `--metrics`
//! (the sweep as JSON), `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, ScaleReport};
use piranha::observe::{self, Flags};

fn main() {
    let flags = Flags::from_env();
    let rep = experiments::fig_scale(flags.quick, flags.topology, flags.queue);
    print!("{}", experiments::render_scale_report(&rep));
    flags.write_report("scale report", || observe::json::scale_report(&rep));
    if flags.check {
        check(&rep);
        println!("scale-smoke checks passed");
    }
    flags.finish();
}

/// The CI assertion: finite port buffers must actually bite somewhere
/// in the sweep — at least one row with drops (drop-tail/lossy) and at
/// least one with pause stalls (PFC). The packet-ledger conservation of
/// every row is already asserted inside `fig_scale` itself.
fn check(rep: &ScaleReport) {
    assert!(!rep.rows.is_empty(), "sweep produced no rows");
    assert!(
        rep.rows.iter().any(|r| r.fabric.drops > 0),
        "no swept point dropped a packet — port capacity never bit"
    );
    assert!(
        rep.rows
            .iter()
            .any(|r| r.fabric.pauses > 0 && r.fabric.drops == 0),
        "no PFC point paused without dropping"
    );
    for r in &rep.rows {
        assert!(
            r.fabric.delivered > 0 && r.committed > 0,
            "{}x{}x{}: degenerate row",
            r.nodes,
            r.topology,
            r.queue
        );
    }
}
