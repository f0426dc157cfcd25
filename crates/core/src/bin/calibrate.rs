//! Calibration helper: prints the key figure shapes.
//!
//! Reads `--quick` and `--store`; see [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let scale = flags.scale();
    let t0 = std::time::Instant::now();
    for (name, w) in [
        ("Fig5 OLTP", experiments::oltp()),
        ("Fig5 DSS", experiments::dss()),
    ] {
        println!(
            "{}",
            experiments::render_bars(name, &experiments::fig5(&w, scale))
        );
        println!("[{:.1}s]", t0.elapsed().as_secs_f32());
    }
    println!("Fig6a speedups: {:?}", experiments::fig6a(scale));
    println!("Fig6b breakdown: {:?}", experiments::fig6b(scale));
    println!("Mem page hit rate: {:.2}", experiments::mem_pages(scale));
    println!("[{:.1}s total]", t0.elapsed().as_secs_f32());
    flags.finish();
}
