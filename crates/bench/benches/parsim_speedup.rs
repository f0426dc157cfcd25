//! Wall-clock speedup of the conservative parallel-in-space engine
//! (`piranha-parsim`) on a fig8-style multi-chip run: a 4-chip machine
//! of 4-CPU Piranha chips at quick scale, executed serially (1 lane
//! worker) and with 2 and 4 lane workers. The runs are bit-identical by
//! construction — the bench asserts the fingerprints *and* the
//! engine-structure counters (rounds, windows, merged events) match
//! before it trusts any timing — so the only thing that changes is
//! wall-clock.
//!
//! Writes the measurements to `BENCH_parsim.json` at the repo root,
//! including the coordination-cost profile CI keeps a ceiling on:
//! `rounds_per_us` (barrier rendezvous per simulated microsecond),
//! windows, the empty-window fraction, and mean events per window. On a
//! machine with ≥ 4 cores the 2-worker run must be ≥ 1.4× faster than
//! serial and the 4-worker run ≥ 2.0× (the ISSUE acceptance bar); on
//! smaller machines the speedups are reported but not asserted, since
//! oversubscribed lane threads cannot beat the serial loop.
//!
//! One quick-scale multi-chip run takes seconds, so a single timed run
//! per worker count is the measurement.

use std::time::Instant;

use piranha::experiments::{self, RunRequest, RunScale};
use piranha::{Machine, ParsimStats, RunResult, SystemConfig};

/// Build and run `req` with `workers` lane threads, returning the
/// machine too for its lifetime counters.
fn run(req: &RunRequest, workers: usize) -> (RunResult, Machine) {
    let mut m = req.build();
    m.set_parallel_workers(workers);
    (req.drive(&mut m), m)
}

fn main() {
    let cfg = SystemConfig::piranha_pn(4).scaled_to_chips(4);
    let req = RunRequest::new(cfg, experiments::oltp(), RunScale::quick());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parsim_speedup: {} on OLTP at quick scale, {cores} core(s)",
        req.cfg.name
    );

    let t0 = Instant::now();
    let (serial, m) = run(&req, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    let stats: ParsimStats = m.parsim_stats();
    let sim_us = m.now().as_ns() as f64 / 1000.0;
    let rounds_per_us = stats.rounds as f64 / sim_us;
    let empty_fraction = stats.empty_windows as f64 / stats.windows.max(1) as f64;
    let events_per_window = stats.events as f64 / stats.windows.max(1) as f64;
    println!(
        "  workers=1  {serial_s:>7.2}s  fp {:#018x}",
        serial.fingerprint()
    );
    println!(
        "  engine: {} rounds / {} windows over {sim_us:.0} simulated µs \
         ({rounds_per_us:.2} rounds/µs, {:.1}% windows empty, {events_per_window:.1} events/window)",
        stats.rounds,
        stats.windows,
        empty_fraction * 100.0
    );
    assert!(
        stats.rounds * 5 <= stats.windows,
        "train batching must cut rendezvous ≥ 5x below the per-window count \
         ({} rounds for {} windows)",
        stats.rounds,
        stats.windows
    );

    let mut rows = Vec::new();
    for workers in [2usize, 4] {
        let t0 = Instant::now();
        let (r, m) = run(&req, workers);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            r.fingerprint(),
            serial.fingerprint(),
            "parallel run at {workers} workers is not bit-identical to serial"
        );
        assert_eq!(
            m.parsim_stats(),
            stats,
            "engine counters diverged at {workers} workers — they must be a \
             function of the simulation, not the thread schedule"
        );
        let speedup = serial_s / secs;
        println!("  workers={workers}  {secs:>7.2}s  speedup {speedup:.2}x (bit-identical)");
        rows.push((workers, secs, speedup));
    }

    let asserted = cores >= 4;
    if asserted {
        let bars = [(2usize, 1.4f64), (4, 2.0)];
        for ((workers, _, speedup), (w2, bar)) in rows.iter().zip(bars) {
            assert_eq!(*workers, w2);
            assert!(
                *speedup >= bar,
                "{workers}-worker speedup {speedup:.2}x < {bar}x on a {cores}-core machine"
            );
        }
    } else {
        println!("  (speedup bars not asserted: {cores} core(s) < 4)");
        // Unasserted is not the same as fine: a sub-1.0 "speedup" means
        // the parallel engine *lost* to the serial loop, and silence
        // here would let that rot unnoticed on small CI machines.
        for (workers, _, speedup) in &rows {
            if *speedup < 1.0 {
                eprintln!(
                    "WARN: parsim {workers}-worker run was SLOWER than serial \
                     ({speedup:.2}x) on this {cores}-core host — unasserted, \
                     but investigate before trusting parallel-run timings"
                );
            }
        }
    }

    let worker_rows: Vec<String> = rows
        .iter()
        .map(|(workers, secs, speedup)| {
            format!("{{\"workers\":{workers},\"seconds\":{secs:.3},\"speedup\":{speedup:.3}}}")
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"parsim_speedup\",\"config\":\"{}\",\"workload\":\"oltp\",\
         \"scale\":\"quick\",\"cores\":{cores},\"host_cores\":{cores},\
         \"serial_seconds\":{serial_s:.3},\
         \"rounds\":{},\"windows\":{},\"merged_events\":{},\"events\":{},\
         \"simulated_us\":{sim_us:.3},\"rounds_per_us\":{rounds_per_us:.3},\
         \"empty_window_fraction\":{empty_fraction:.4},\
         \"events_per_window\":{events_per_window:.2},\
         \"bit_identical\":true,\"speedup_asserted\":{asserted},\
         \"min_required_speedup\":{{\"2\":1.4,\"4\":2.0}},\"runs\":[{}]}}\n",
        req.cfg.name,
        stats.rounds,
        stats.windows,
        stats.merged_events,
        stats.events,
        worker_rows.join(",")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parsim.json");
    std::fs::write(&path, &json).expect("writing BENCH_parsim.json");
    println!(
        "  report -> {}",
        path.canonicalize().unwrap_or(path).display()
    );
}
