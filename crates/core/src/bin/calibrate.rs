//! Calibration helper: prints every figure of the §4 evaluation
//! (`experiments::all_figures`) through one harness, then the wall time.
//!
//! Reads `--quick`, `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let t0 = std::time::Instant::now();
    let reports = experiments::all_figures(flags.scale());
    for table in experiments::tables(&mut Harness::new(), &reports) {
        println!("{table}");
    }
    println!("[{:.1}s total]", t0.elapsed().as_secs_f32());
    flags.finish();
}
