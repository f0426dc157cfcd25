//! Regenerates the §4 sensitivity results: the pessimistic P8 variant
//! and the TPC-C-like workload.
//!
//! Reads `--quick`, `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let sensitivity = experiments::sensitivity(flags.scale());
    println!("{}", sensitivity.table(&mut Harness::new()));
    flags.finish();
}
