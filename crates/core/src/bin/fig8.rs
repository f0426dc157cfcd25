//! Regenerates Figure 8: the performance potential of a full-custom
//! Piranha (P8F) on OLTP and DSS (OOO = 100).
//!
//! Reads `--quick`, `--fingerprints` (which includes the Figure 7
//! multi-chip rows, so the CI parsim smoke drives the windowed engine),
//! `--parallel`, `--store` and the exemplar riders (`--trace`,
//! `--metrics`, `--traffic*`, `--topology`, `--queue`); see
//! [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    if flags.fingerprints {
        print!(
            "{}",
            experiments::render_fingerprints(&experiments::fig8_fingerprints(scale))
        );
    } else {
        for (name, w) in [("OLTP", experiments::oltp()), ("DSS", experiments::dss())] {
            println!(
                "{}",
                experiments::render_bars(
                    &format!("Figure 8 — {name} (OOO = 100)"),
                    &experiments::fig8(&w, scale)
                )
            );
        }
        flags.run_riders(&experiments::dss(), scale);
    }
    flags.finish();
}
