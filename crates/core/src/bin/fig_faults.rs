//! Availability under fault injection (paper §2.7): sweeps fault rate ×
//! configuration on a bounded OLTP workload run to completion, then runs
//! a headline faulted configuration **twice** to prove bit-identical
//! determinism, and reports the availability ledger.
//!
//! Reads `--quick`, `--faults`/`--fault-rate` (the headline schedule,
//! whose seed also seeds the sweep; seed 42 at `1e-4` without them),
//! `--metrics` (the table as JSON: the headline run's facts and
//! availability ledger, and the sweep's `rows`, which the CI
//! `fault-smoke` step validates), `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;
use piranha::FaultConfig;

fn main() {
    let flags = Flags::from_env();
    let txns: u64 = if flags.quick { 40 } else { 200 };
    // No schedule given: still exercise the recovery machinery.
    let faults = flags
        .faults
        .clone()
        .filter(FaultConfig::enabled)
        .unwrap_or_else(|| FaultConfig::seeded(42, 1e-4));
    let table = experiments::fig_faults(&faults, txns);
    print!("{table}");
    flags.write_report("availability report", &table);
    flags.finish();
}
