//! Validates SMARTS-style statistical sampling against full detail:
//! runs a bounded OLTP workload to completion on P8 in detailed mode,
//! then once per sampling schedule with functional warming between
//! detailed windows, and reports CPI error, 95%-CI coverage, detailed
//! share, and host wall-clock speedup.
//!
//! Reads `--quick`, `--metrics` (the sweep as JSON, which the CI
//! `sample-smoke` step validates), `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::{self, Flags};

fn main() {
    let flags = Flags::from_env();
    let rep = experiments::fig_sample(flags.quick);
    print!("{}", experiments::render_sample_report(&rep));
    flags.write_report("sampling report", || observe::json::sample_report(&rep));
    flags.finish();
}
