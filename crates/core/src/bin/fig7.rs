//! Regenerates Figure 7: OLTP speedup of multi-chip (NUMA) systems —
//! 4-CPU Piranha chips versus OOO chips, 1 to 4 chips.
//!
//! Reads `--quick`, `--fingerprints`, `--parallel`, `--store` and the
//! exemplar riders (`--trace`, `--metrics`, `--traffic*`, `--topology`,
//! `--queue`); see [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    if flags.fingerprints {
        print!(
            "{}",
            experiments::render_fingerprints(&experiments::fig7_fingerprints(scale))
        );
    } else {
        println!("Figure 7 — multi-chip OLTP speedup (vs each design's single chip)");
        println!("  {:<6} {:>10} {:>10}", "Chips", "Piranha", "OOO");
        for (chips, p, o) in experiments::fig7(scale) {
            println!("  {chips:<6} {p:>10.2} {o:>10.2}");
        }
        flags.run_riders(&experiments::oltp(), scale);
    }
    flags.finish();
}
