//! The paper's §6 conjecture: web-server workloads like the AltaVista
//! search engine "exhibit behavior similar to decision support (DSS)
//! workloads" — so Piranha's throughput advantage should carry over.
//!
//! Reads `--quick`, `--parallel` and `--store`; see
//! [`piranha::observe::Flags`].
use piranha::experiments::{self, Harness};
use piranha::observe::Flags;

fn main() {
    let flags = Flags::from_env();
    let web_search = experiments::web_search(flags.scale());
    println!("{}", web_search.table(&mut Harness::new()));
    flags.finish();
}
