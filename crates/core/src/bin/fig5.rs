//! Regenerates Figure 5: single-chip performance of Piranha (P1, P8)
//! versus the out-of-order (OOO) and in-order (INO) baselines on OLTP
//! and DSS, with execution-time breakdowns (OOO = 100).
//!
//! Reads `--quick`, `--fingerprints`, `--sample`, `--parallel`,
//! `--store` and the exemplar riders (`--trace`, `--metrics`,
//! `--traffic*`, `--topology`, `--queue`); see [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    let workloads = [("OLTP", experiments::oltp()), ("DSS", experiments::dss())];
    if flags.fingerprints {
        print!(
            "{}",
            experiments::render_fingerprints(&experiments::fig5_fingerprints(scale))
        );
    } else if let Some(sample) = &flags.sample {
        for (name, w) in &workloads {
            println!(
                "{}",
                experiments::render_sampled_bars(
                    &format!("Figure 5 — {name}, sampled (estimate ± 95% CI)"),
                    &experiments::fig5_sampled(w, scale, sample)
                )
            );
        }
    } else {
        for (name, w) in &workloads {
            println!(
                "{}",
                experiments::render_bars(
                    &format!("Figure 5 — {name} (normalized execution time, OOO = 100)"),
                    &experiments::fig5(w, scale)
                )
            );
        }
        flags.run_riders(&experiments::oltp(), scale);
    }
    flags.finish();
}
