//! Regenerates Figure 6: (a) Piranha's OLTP speedup with 1..8 on-chip
//! CPUs, and (b) the L1-miss breakdown (L2 hit / L2 fwd / L2 miss).
//!
//! Reads `--quick`, `--parallel`, `--store` and the exemplar riders
//! (`--trace`, `--metrics`, `--traffic*`, `--topology`, `--queue`); see
//! [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    println!("Figure 6(a) — OLTP speedup vs number of cores (P1 = 1.0)");
    for (name, s) in experiments::fig6a(scale) {
        println!("  {name:<4} {s:>6.2}x");
    }
    println!("\nFigure 6(b) — L1 miss breakdown (fractions)");
    println!(
        "  {:<4} {:>8} {:>8} {:>8}",
        "Cfg", "L2 Hit", "L2 Fwd", "L2 Miss"
    );
    for (name, h, f, m) in experiments::fig6b(scale) {
        println!("  {name:<4} {h:>8.2} {f:>8.2} {m:>8.2}");
    }
    flags.run_riders(&experiments::oltp(), scale);
    flags.finish();
}
