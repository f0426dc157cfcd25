//! Validates SMARTS-style statistical sampling against full detail:
//! runs a bounded OLTP workload to completion on P8 in detailed mode,
//! then once per sampling schedule with functional warming between
//! detailed windows, and reports CPI error, 95%-CI coverage, detailed
//! share, and host wall-clock speedup.
//!
//! Reads `--quick` and `--metrics` (the table as JSON, which the CI
//! `sample-smoke` step validates); see [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let table = experiments::fig_sample(flags.quick);
    print!("{table}");
    flags.write_report("sampling report", &table);
    flags.finish();
}
