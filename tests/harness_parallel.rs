//! Acceptance tests for the parallel, memoizing experiment harness:
//! determinism of repeated runs, bit-identical figure outputs between
//! per-figure private harnesses and one shared harness, and (on
//! multi-core hosts) the wall-clock win.

use piranha::experiments::{self, Harness, RunPlan, RunRequest, RunScale};
use piranha::observe::Table;
use piranha::workloads::{OltpConfig, Workload};
use piranha::SystemConfig;

fn small() -> RunScale {
    RunScale::tiny()
}

/// Two `RunResult`s from the same tuple must agree on every statistic.
fn assert_results_identical(a: &piranha::RunResult, b: &piranha::RunResult) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.window, b.window);
    assert_eq!(a.total_instrs(), b.total_instrs());
    assert_eq!(a.mem_page_hit_rate, b.mem_page_hit_rate);
    assert_eq!(a.cpus.len(), b.cpus.len());
    for (x, y) in a.cpus.iter().zip(&b.cpus) {
        assert_eq!(
            format!("{x:?}"),
            format!("{y:?}"),
            "per-CPU stats must match exactly"
        );
    }
}

/// Every §4 figure through its own serial harness, so runs the figures
/// share are simulated once per figure.
fn per_figure(scale: RunScale) -> Vec<Table> {
    experiments::all_figures(scale)
        .iter()
        .map(|r| r.table(&mut Harness::serial()))
        .collect()
}

#[test]
fn repeated_runs_are_deterministic() {
    let w = Workload::Oltp(OltpConfig::paper_default());
    let cfg = SystemConfig::piranha_pn(2);
    // Twice directly, on the calling thread.
    let req = RunRequest::new(cfg.clone(), w.clone(), small());
    let a = req.run();
    let b = req.run();
    assert_results_identical(&a, &b);
    // Once more through the parallel harness (worker thread + cache).
    let mut plan = RunPlan::new();
    plan.add(cfg.clone(), w.clone(), small());
    plan.add(SystemConfig::ooo(), w.clone(), small());
    let mut h = Harness::with_threads(4);
    h.execute(&plan);
    let c = h.fetch(&req);
    assert_results_identical(&a, &c);
}

#[test]
fn all_figures_bit_identical_to_serial_and_dedups() {
    let serial = per_figure(small());
    let mut h = Harness::new();
    let reports = experiments::all_figures(small());
    let shared = experiments::tables(&mut h, &reports);
    assert_eq!(
        serial, shared,
        "figures through one shared harness must be bit-identical"
    );
    // The shared cache must collapse the 31 per-figure runs into the
    // unique configurations.
    assert_eq!(h.unique_runs(), experiments::plan(&reports).len());
    assert!(
        h.unique_runs() < 25,
        "cross-figure dedup: {} unique runs",
        h.unique_runs()
    );
    assert!(h.cache_hits() > 10, "figure assembly is served from cache");
}

/// The quick-scale acceptance run: ≥2x wall-clock win on a multi-core
/// host, bit-identical output everywhere. Several minutes in debug
/// builds, so opt-in: `cargo test --release -- --ignored`.
#[test]
#[ignore = "long: quick-scale full-evaluation comparison; run with --ignored (ideally --release)"]
fn all_figures_quick_parallel_speedup() {
    let scale = RunScale::quick();
    let t0 = std::time::Instant::now();
    let serial = per_figure(scale);
    let t_serial = t0.elapsed();
    let t1 = std::time::Instant::now();
    let shared = experiments::tables(&mut Harness::new(), &experiments::all_figures(scale));
    let t_shared = t1.elapsed();
    assert_eq!(serial, shared, "quick-scale figures bit-identical");
    let speedup = t_serial.as_secs_f64() / t_shared.as_secs_f64().max(1e-9);
    eprintln!(
        "all_figures quick: per-figure serial {t_serial:?}, shared parallel {t_shared:?} ({speedup:.2}x)"
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >=2x on a {cores}-core host, got {speedup:.2}x"
        );
    } else {
        // Single- or dual-core host: memoization alone must still win.
        assert!(
            speedup > 1.3,
            "memoization alone beats serial: {speedup:.2}x"
        );
    }
}
