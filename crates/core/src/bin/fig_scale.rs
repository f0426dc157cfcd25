//! Fabric congestion at scale: bounded OLTP to completion on machines
//! of 16/32/64 single-CPU chips over every explicit topology
//! (mesh/torus/fat-tree) × queue discipline (drop-tail/lossy-NACK/PFC)
//! combination of the pluggable interconnect, reporting throughput,
//! deflection/drop/pause rates, and link occupancy.
//!
//! Reads `--quick`, `--topology`/`--queue` (narrow the sweep to one
//! shape or discipline; a topology the sweep does not cover exits with
//! status 2), `--check` (exit nonzero unless some swept point shows
//! measurable congestion — nonzero drops or pause stalls; the CI
//! `scale-smoke` step runs this, and every row's packet-ledger
//! conservation is asserted inside the sweep regardless), `--metrics`
//! (the table as JSON) and `--parallel`; see [`piranha::observe::Flags`].
use piranha::experiments::{self, SCALE_TOPOLOGIES};
use piranha::observe::{Flags, Table};
use piranha::serve::json::Json;

fn main() {
    let flags = Flags::from_env();
    if let Some(t) = flags.topology.filter(|t| !SCALE_TOPOLOGIES.contains(t)) {
        let swept: Vec<_> = SCALE_TOPOLOGIES.iter().map(|t| t.label()).collect();
        eprintln!(
            "error: --topology={}: fig_scale sweeps only {}",
            t.label(),
            swept.join("|")
        );
        std::process::exit(2);
    }
    let table = experiments::fig_scale(flags.quick, flags.topology, flags.queue);
    print!("{table}");
    flags.write_report("scale report", &table);
    if flags.check {
        check(&table);
        println!("scale-smoke checks passed");
    }
    flags.finish();
}

/// The CI assertion: finite port buffers must actually bite somewhere
/// in the sweep — at least one row with drops (drop-tail/lossy) and at
/// least one with pause stalls (PFC). The packet-ledger conservation of
/// every row is already asserted inside `fig_scale` itself.
fn check(t: &Table) {
    let count = |row: &[Json], c| t.cell(row, c).as_u64().expect("a count");
    assert!(!t.rows().is_empty(), "sweep produced no rows");
    assert!(
        t.rows().iter().any(|r| count(r, "drops") > 0),
        "no swept point dropped a packet — port capacity never bit"
    );
    assert!(
        t.rows()
            .iter()
            .any(|r| count(r, "pauses") > 0 && count(r, "drops") == 0),
        "no PFC point paused without dropping"
    );
    for r in t.rows() {
        let live = count(r, "delivered") > 0 && count(r, "committed") > 0;
        assert!(live, "degenerate row: {}", Json::Arr(r.clone()));
    }
}
