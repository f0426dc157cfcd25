//! Regenerates Figure 6: (a) Piranha's OLTP speedup with 1..8 on-chip
//! CPUs, and (b) the L1-miss breakdown (L2 hit / L2 fwd / L2 miss).
//!
//! Reads `--quick`, `--parallel`, `--store` and the exemplar riders
//! (`--trace`, `--metrics`, `--traffic*`, `--topology`, `--queue`); see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    println!("{}", experiments::fig6(scale).table(&mut Harness::new()));
    flags.run_riders(&experiments::oltp(), scale);
    flags.finish();
}
