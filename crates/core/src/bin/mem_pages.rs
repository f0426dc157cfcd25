//! Regenerates the §2.4 claim: RDRAM open-page hit rate on OLTP with a
//! ~1 µs page-open policy.
//!
//! Reads `--quick` and `--store`; see [`piranha::observe::Flags`].
use piranha::experiments;
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let r = experiments::mem_pages(flags.scale());
    println!(
        "RDRAM open-page hit rate on OLTP (1µs hold): {:.0}%",
        r * 100.0
    );
    flags.finish();
}
