//! Regenerates Figure 8: the performance potential of a full-custom
//! Piranha (P8F) on OLTP and DSS (OOO = 100).
//!
//! Reads `--quick`, `--fingerprints` (which includes the Figure 7
//! multi-chip rows, so the CI parsim smoke drives the windowed engine),
//! `--parallel`, `--store` and the exemplar riders (`--trace`,
//! `--metrics`, `--traffic*`, `--topology`, `--queue`); see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    let fig8 = experiments::fig8(scale);
    if flags.fingerprints {
        let plan = experiments::plan(&[fig8, experiments::fig7(scale)]);
        print!("{}", experiments::fingerprints(&mut Harness::new(), &plan));
    } else {
        println!("{}", fig8.table(&mut Harness::new()));
        flags.run_riders(&experiments::dss(), scale);
    }
    flags.finish();
}
