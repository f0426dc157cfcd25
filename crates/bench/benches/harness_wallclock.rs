//! Wall-clock comparison of the two full-evaluation paths: the old
//! per-figure serial loop (`all_figures_serial`) versus the parallel,
//! memoizing harness (`all_figures`). The memoized path runs each
//! unique `(config, workload, scale)` tuple once and fans the unique
//! runs out over worker threads, so the gap widens with core count.
//! Prints one host wall time per path.
//!
//! Run with `cargo bench -p piranha-bench --bench harness_wallclock`.

use std::time::Instant;

use piranha::experiments::{self, RunScale};

fn main() {
    // Big enough that simulation dominates the harness bookkeeping.
    let scale = RunScale {
        warmup: 10_000,
        measure: 20_000,
        ..RunScale::tiny()
    };
    let t0 = Instant::now();
    let serial = experiments::all_figures_serial(scale);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = experiments::all_figures(scale);
    let parallel_s = t0.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "the two paths must agree");
    println!("all_figures/serial: {serial_s:.2} s wall");
    println!("all_figures/parallel_memoized: {parallel_s:.2} s wall");
}
