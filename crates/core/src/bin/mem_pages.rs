//! Regenerates the §2.4 claim: RDRAM open-page hit rate on OLTP with a
//! ~1 µs page-open policy.
//!
//! Reads `--quick`, `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let mem_pages = experiments::mem_pages(flags.scale());
    println!("{}", mem_pages.table(&mut Harness::new()));
    flags.finish();
}
