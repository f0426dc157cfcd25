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
//! `rounds_per_us` (trains of [`TRAIN_WINDOWS`] windows per simulated
//! microsecond), windows, the empty-window fraction, and mean events
//! per window. On a
//! machine with ≥ 4 cores the 2-worker run must be ≥ 1.4× faster than
//! serial and the 4-worker run ≥ 2.0×. A host with 2 or 3 cores cannot
//! be held to those bars, but it can run two lane workers at once, so
//! there the 2-worker run must beat serial in at least
//! [`MIN_FASTER_ROUNDS`] of the [`ROUNDS`] timed rounds; its 4-worker
//! run, oversubscribed, is only warned about when it loses to serial.
//! A single-core host asserts no speedup at all. `speedup_gate` in the
//! report names the gate applied and `speedup_asserted` says whether
//! there was one.
//!
//! On a shared host one serial/2-worker pair can read anywhere from
//! 0.3x to 1.2x, so the 2-worker speedup is measured over
//! [`ROUNDS`] alternating rounds: each round times one serial and one
//! 2-worker run, the first of the two alternating between rounds, and
//! the reported speedup is the median of the per-round ratios. The
//! 4-worker run is timed once against the median serial time.
//!
//! A hypervisor that steals the host's cores mid-round skews that
//! round's ratio, so the bench reads the stolen time around every timed
//! run, as perfbench does, and times a round again (at most
//! [`MAX_RETIMES`] times) when more than [`STEAL_LIMIT`] of its wall
//! time was stolen. The report records each round's steal and re-times.

use std::time::Instant;

use piranha::experiments::{self, RunRequest, RunScale};
use piranha::parsim::TRAIN_WINDOWS;
use piranha::{Machine, ParsimStats, RunResult, SystemConfig};

/// Alternating serial / 2-worker rounds timed for the 2-worker speedup.
const ROUNDS: usize = 5;

/// Rounds the 2-worker run must win on a host with 2 or 3 cores.
const MIN_FASTER_ROUNDS: usize = 3;

/// Share of a round's wall time the hypervisor may steal before the
/// round is timed again (perfbench's limit for a repetition).
const STEAL_LIMIT: f64 = 0.02;

/// Re-times allowed per round; the last attempt counts whatever its
/// steal.
const MAX_RETIMES: usize = 2;

/// Seconds per `/proc/stat` jiffy (`USER_HZ` = 100).
const JIFFY_S: f64 = 0.01;

/// Jiffies the hypervisor stole from this guest, all CPUs together
/// (`/proc/stat`); 0 where the kernel does not report them.
fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Build and run `req` with `workers` lane threads, returning the
/// seconds the run took and the machine too for its lifetime counters.
fn run(req: &RunRequest, workers: usize) -> (f64, RunResult, Machine) {
    let t0 = Instant::now();
    let mut m = req.build();
    m.set_parallel_workers(workers);
    let r = req.drive(&mut m);
    (t0.elapsed().as_secs_f64(), r, m)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let cfg = SystemConfig::piranha_pn(4).scaled_to_chips(4);
    let req = RunRequest::new(cfg, experiments::oltp(), RunScale::quick());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parsim_speedup: {} on OLTP at quick scale, {cores} core(s)",
        req.cfg.name
    );

    let (first_s, serial, m) = run(&req, 1);
    let stats: ParsimStats = m.parsim_stats();
    let sim_us = m.now().as_ns() as f64 / 1000.0;
    let rounds_per_us = stats.rounds as f64 / sim_us;
    let empty_fraction = stats.empty_windows as f64 / stats.windows.max(1) as f64;
    let events_per_window = stats.events as f64 / stats.windows.max(1) as f64;
    println!(
        "  workers=1  {first_s:>7.2}s  fp {:#018x}",
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
        "a round must span ≥ 5 windows (a train of {TRAIN_WINDOWS}): \
         {} rounds for {} windows",
        stats.rounds,
        stats.windows
    );
    // Every run must match the first serial one bit for bit, engine
    // counters included, before its time counts. Returns the seconds
    // and the jiffies stolen meanwhile.
    let timed = |workers: usize| {
        let steal0 = steal_jiffies();
        let (secs, r, m) = run(&req, workers);
        let stolen = steal_jiffies().saturating_sub(steal0);
        assert_eq!(
            r.fingerprint(),
            serial.fingerprint(),
            "run at {workers} workers is not bit-identical to serial"
        );
        assert_eq!(
            m.parsim_stats(),
            stats,
            "engine counters diverged at {workers} workers — they must be a \
             function of the simulation, not the thread schedule"
        );
        (secs, stolen)
    };

    let (mut serial_times, mut two_times, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_steal, mut round_retimes) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let mut retimes = 0;
        let (one, two, stolen) = loop {
            let ((one, s1), (two, s2)) = if round % 2 == 0 {
                let one = timed(1);
                (one, timed(2))
            } else {
                let two = timed(2);
                (timed(1), two)
            };
            let stolen = s1 + s2;
            if stolen as f64 * JIFFY_S <= STEAL_LIMIT * (one + two) || retimes == MAX_RETIMES {
                break (one, two, stolen);
            }
            retimes += 1;
            println!(
                "  round {round}: {stolen} steal jiffies in {:.2}s, timing it again",
                one + two
            );
        };
        println!(
            "  round {round}: workers=1 {one:>6.2}s  workers=2 {two:>6.2}s  ratio {:.2}x \
             ({stolen} steal jiffies, {retimes} re-times)",
            one / two
        );
        serial_times.push(one);
        two_times.push(two);
        ratios.push(one / two);
        round_steal.push(stolen.to_string());
        round_retimes.push(retimes.to_string());
    }
    let faster = ratios.iter().filter(|&&r| r > 1.0).count();
    let serial_s = median(serial_times);
    let two_s = median(two_times);
    let two_speedup = median(ratios.clone());
    println!(
        "  workers=2  median {two_s:.2}s against serial {serial_s:.2}s: speedup {two_speedup:.2}x \
         (median of {ROUNDS} rounds, faster in {faster}/{ROUNDS}; bit-identical)"
    );
    let (four_s, four_steal) = timed(4);
    let four_speedup = serial_s / four_s;
    println!(
        "  workers=4  {four_s:>7.2}s  speedup {four_speedup:.2}x (bit-identical, \
         {four_steal} steal jiffies)"
    );
    let rows = [(2usize, two_s, two_speedup), (4, four_s, four_speedup)];

    let gate = if cores >= 4 {
        let bars = [(2usize, 1.4f64), (4, 2.0)];
        for ((workers, _, speedup), (w2, bar)) in rows.iter().zip(bars) {
            assert_eq!(*workers, w2);
            assert!(
                *speedup >= bar,
                "{workers}-worker speedup {speedup:.2}x < {bar}x on a {cores}-core machine"
            );
        }
        "1.4x at 2 workers, 2.0x at 4".to_string()
    } else if cores >= 2 {
        // Two workers fit on the host, so losing most rounds to the
        // serial loop means the parallel engine no longer pays.
        assert!(
            faster >= MIN_FASTER_ROUNDS,
            "2 workers beat serial in only {faster} of {ROUNDS} rounds on a {cores}-core host"
        );
        format!("2 workers faster in >= {MIN_FASTER_ROUNDS} of {ROUNDS} rounds")
    } else {
        "none".to_string()
    };
    let asserted = gate != "none";
    println!("  speedup gate ({cores} core(s)): {gate}");
    // An oversubscribed run is not gated, but a sub-1.0 "speedup" still
    // means the parallel engine *lost* to the serial loop, and silence
    // here would let that rot unnoticed on small CI machines.
    for (workers, _, speedup) in &rows {
        if *workers > cores && *speedup < 1.0 {
            eprintln!(
                "WARN: parsim {workers}-worker run was SLOWER than serial \
                 ({speedup:.2}x) on this {cores}-core host — unasserted, \
                 but investigate before trusting parallel-run timings"
            );
        }
    }

    let ratio_list: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    let worker_rows = [
        format!(
            "{{\"workers\":2,\"seconds\":{two_s:.3},\"speedup\":{two_speedup:.3},\
             \"timed_rounds\":{ROUNDS},\"faster_rounds\":{faster},\"round_ratios\":[{}],\
             \"steal_limit\":{STEAL_LIMIT},\"round_steal_jiffies\":[{}],\
             \"round_retimes\":[{}]}}",
            ratio_list.join(","),
            round_steal.join(","),
            round_retimes.join(",")
        ),
        format!(
            "{{\"workers\":4,\"seconds\":{four_s:.3},\"speedup\":{four_speedup:.3},\
             \"steal_jiffies\":{four_steal}}}"
        ),
    ];
    let json = format!(
        "{{\"bench\":\"parsim_speedup\",\"config\":\"{}\",\"workload\":\"oltp\",\
         \"scale\":\"quick\",\"cores\":{cores},\"host_cores\":{cores},\
         \"serial_seconds\":{serial_s:.3},\
         \"rounds\":{},\"windows\":{},\"merged_events\":{},\"events\":{},\
         \"simulated_us\":{sim_us:.3},\"rounds_per_us\":{rounds_per_us:.3},\
         \"empty_window_fraction\":{empty_fraction:.4},\
         \"events_per_window\":{events_per_window:.2},\
         \"bit_identical\":true,\"speedup_asserted\":{asserted},\
         \"speedup_gate\":\"{gate}\",\
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
