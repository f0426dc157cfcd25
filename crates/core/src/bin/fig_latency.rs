//! Tail latency versus offered load under open-loop traffic: calibrates
//! the closed-loop service rate of the two-chip P4 exemplar on a bounded
//! OLTP workload, then sweeps Poisson arrivals across fractions of that
//! rate and reports p50/p95/p99 transaction latency, drop rate, and the
//! saturation knee (the classic open-loop hockey-stick).
//!
//! Reads `--quick`, `--check` (exit nonzero unless p99 is monotone
//! non-decreasing across the sweep, within 10% sampling noise, and a
//! knee was detected — the CI `latency-smoke` step), `--metrics` (the
//! table as JSON), `--topology`/`--queue` (sweep an overridden fabric;
//! calibration reruns on it, so the load fractions stay anchored to
//! *its* service rate) and `--parallel`; see
//! [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::{self, Flags, Table};
use piranha::serve::json::Json;

fn main() {
    let flags = Flags::from_env();
    let mut cfg = observe::exemplar_config();
    flags.apply_fabric(&mut cfg);
    let table = experiments::fig_latency_on(cfg, flags.quick);
    print!("{table}");
    flags.write_report("latency report", &table);
    if flags.check {
        check(&table);
        println!("latency-smoke checks passed");
    }
    flags.finish();
}

/// The CI assertions: the hockey-stick must be monotone (within a 10%
/// sampling-noise tolerance between adjacent points) and must reach its
/// knee inside the swept range.
fn check(t: &Table) {
    let p99 = |row: &[Json]| t.cell(row, "p99_ns").as_u64().expect("p99_ns is a count");
    let fraction = |row: &[Json]| t.cell(row, "fraction").as_f64().expect("a load fraction");
    for pair in t.rows().windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        assert!(
            p99(hi) as f64 >= p99(lo) as f64 * 0.9,
            "p99 regressed with load: {} ns @ {:.2}x -> {} ns @ {:.2}x",
            p99(lo),
            fraction(lo),
            p99(hi),
            fraction(hi)
        );
    }
    assert!(
        t.fact("knee").is_some_and(|k| !k.is_null()),
        "no saturation knee detected within the swept range"
    );
}
