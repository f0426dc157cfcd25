//! Regenerates the §4 sensitivity results: the pessimistic P8 variant
//! and the TPC-C-like workload.
//!
//! Reads `--quick` and `--store`; see [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    println!("§4 sensitivity (speedups)");
    for (label, s) in experiments::sensitivity(flags.scale()) {
        println!("  {label:<32} {s:>6.2}x");
    }
    flags.finish();
}
