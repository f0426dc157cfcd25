//! Wall-clock comparison of two ways to regenerate the §4 evaluation:
//! each figure through its own serial harness, so baselines the figures
//! share are re-simulated per figure, versus all figures through one
//! parallel, memoizing harness (`experiments::tables`), which runs each
//! unique `(config, workload, scale)` tuple once and fans the unique
//! runs out over worker threads, so the gap widens with core count.
//! Prints one host wall time per path.
//!
//! Run with `cargo bench -p piranha-bench --bench harness_wallclock`.

use std::time::Instant;

use piranha::experiments::{self, Harness, RunScale};

fn main() {
    // Big enough that simulation dominates the harness bookkeeping.
    let scale = RunScale {
        warmup: 10_000,
        measure: 20_000,
        ..RunScale::tiny()
    };
    let reports = experiments::all_figures(scale);
    let t0 = Instant::now();
    let per_figure: Vec<_> = reports
        .iter()
        .map(|r| r.table(&mut Harness::serial()))
        .collect();
    let per_figure_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let shared = experiments::tables(&mut Harness::new(), &reports);
    let shared_s = t0.elapsed().as_secs_f64();
    assert_eq!(per_figure, shared, "the two paths must agree");
    println!("all_figures/serial: {per_figure_s:.2} s wall");
    println!("all_figures/parallel_memoized: {shared_s:.2} s wall");
}
