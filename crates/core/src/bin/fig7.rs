//! Regenerates Figure 7: OLTP speedup of multi-chip (NUMA) systems —
//! 4-CPU Piranha chips versus OOO chips, 1 to 4 chips.
//!
//! Reads `--quick`, `--fingerprints`, `--parallel`, `--store` and the
//! exemplar riders (`--trace`, `--metrics`, `--traffic*`, `--topology`,
//! `--queue`); see [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    let fig7 = experiments::fig7(scale);
    if flags.fingerprints {
        let plan = experiments::plan(&[fig7]);
        print!("{}", experiments::fingerprints(&mut Harness::new(), &plan));
    } else {
        println!("{}", fig7.table(&mut Harness::new()));
        flags.run_riders(&experiments::oltp(), scale);
    }
    flags.finish();
}
