//! §2.4: RDRAM open-page behaviour — the OLTP-driven page hit rate, and
//! the raw channel model under a strided and a random access stream.
//! Prints each rate and each stream's host wall time.
//!
//! Run with `cargo bench -p piranha-bench --bench mem_pages`.

use std::time::Instant;

use piranha::kernel::Prng;
use piranha::mem::{Rdram, RdramConfig};
use piranha::types::{LineAddr, SimTime};
use piranha::workloads::{OltpConfig, Workload};
use piranha::{Machine, SystemConfig};

/// Drive one 8-bank channel through 512 accesses at the lines `next`
/// yields; print its page hit rate and the host time taken.
fn stream(name: &str, mut next: impl FnMut(u64) -> LineAddr) {
    let t0 = Instant::now();
    let mut r = Rdram::new(RdramConfig::with_banks(8));
    let mut t = SimTime::ZERO;
    for i in 0..512u64 {
        t = r.access(t, next(i)).full;
    }
    let hit_rate = r.page_hit_rate();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    println!(
        "mem/{name}: page hit rate {:.0}% over 512 accesses, {us:.1} µs wall",
        hit_rate * 100.0
    );
}

fn main() {
    let mut m = Machine::new(
        SystemConfig::piranha_p8(),
        &Workload::Oltp(OltpConfig::paper_default()),
    );
    m.run(20_000, 40_000);
    println!(
        "mem_pages: OLTP open-page hit rate {:.0}% (paper claims >50% at full block traffic)",
        m.mem_page_hit_rate() * 100.0
    );
    stream("rdram_sequential_access", |i| LineAddr(i * 8));
    let mut rng = Prng::seed_from_u64(1);
    stream("rdram_random_access", |_| LineAddr(rng.below(1 << 20)));
}
