//! Availability under fault injection (paper §2.7): sweeps fault rate ×
//! configuration on a bounded OLTP workload run to completion, then runs
//! a headline faulted configuration **twice** to prove bit-identical
//! determinism, and reports the availability ledger.
//!
//! Reads `--quick`, `--faults`/`--fault-rate` (the headline schedule;
//! seed 42 at `1e-4` without them), `--metrics` (the headline
//! availability report as JSON, which the CI `fault-smoke` step
//! validates), `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, RunRequest, RunScale};
use piranha::observe::{self, Flags};
use piranha::{FaultConfig, SystemConfig};

fn main() {
    let flags = Flags::from_env();
    let txns: u64 = if flags.quick { 40 } else { 200 };
    // No schedule given: still exercise the recovery machinery.
    let faults = flags
        .faults
        .clone()
        .filter(FaultConfig::enabled)
        .unwrap_or_else(|| FaultConfig::seeded(42, 1e-4));

    // The sweep: fault rate × configuration, through the memoized
    // parallel harness, each paired against its fault-free baseline.
    let seed = faults.seed;
    let rows = experiments::fig_faults(seed, txns);
    println!(
        "{}",
        experiments::render_fault_rows(
            &format!(
                "Availability — fault rate x configuration \
                 (bounded OLTP, {txns} txns/CPU, run to completion, seed {seed})"
            ),
            &rows
        )
    );

    // The headline run: the CLI-selected schedule on the two-chip
    // exemplar, executed twice to prove bit-identical determinism, plus
    // the fault-free baseline of the same machine for slowdown.
    let run = |cfg: &SystemConfig| {
        let w = experiments::oltp_bounded(txns);
        RunRequest::new(cfg.clone(), w, RunScale::completion()).run()
    };
    let cfg = SystemConfig {
        faults,
        ..observe::exemplar_config()
    };
    let (r1, r2) = (run(&cfg), run(&cfg));
    let base = run(&SystemConfig {
        faults: FaultConfig::default(),
        ..cfg.clone()
    });

    assert_eq!(
        r1.fingerprint(),
        r2.fingerprint(),
        "same seed + same schedule must be bit-identical"
    );
    assert!(
        r1.availability.is_consistent(),
        "corrected + escalated != injected"
    );
    assert_eq!(
        r1.committed_txns, base.committed_txns,
        "a recoverable schedule must not lose work"
    );

    let slowdown = r1.window.as_ps() as f64 / base.window.as_ps().max(1) as f64;
    let av = &r1.availability;
    println!("Headline run: {} ({txns} txns/CPU)", cfg.name);
    println!(
        "  injected {}  corrected {}  escalated {}  retransmits {}  \
         mttr {} cycles  slowdown {slowdown:.4}x",
        av.injected,
        av.corrected,
        av.escalated,
        av.retransmits,
        av.mttr_cycles()
    );
    println!(
        "  fingerprint {:#018x} (repeat run identical: {})",
        r1.fingerprint(),
        r1.fingerprint() == r2.fingerprint()
    );

    flags.write_report("  availability report", || {
        observe::json::fault_headline(&cfg.name, txns, &r1, &r2, slowdown)
    });
    flags.finish();
}
