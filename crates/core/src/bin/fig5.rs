//! Regenerates Figure 5: single-chip performance of Piranha (P1, P8)
//! versus the out-of-order (OOO) and in-order (INO) baselines on OLTP
//! and DSS, with execution-time breakdowns (OOO = 100).
//!
//! Reads `--quick`, `--fingerprints`, `--sample`, `--parallel`,
//! `--store` and the exemplar riders (`--trace`, `--metrics`,
//! `--traffic*`, `--topology`, `--queue`); see [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    let fig5 = experiments::fig5(scale);
    if flags.fingerprints {
        print!("{}", experiments::fingerprints(&experiments::plan(&[fig5])));
    } else if let Some(sample) = &flags.sample {
        let sampled = experiments::fig5_sampled(scale, sample);
        println!("{}", sampled.table(&mut Harness::new()));
    } else {
        println!("{}", fig5.table(&mut Harness::new()));
        flags.run_riders(&experiments::oltp(), scale);
    }
    flags.finish();
}
