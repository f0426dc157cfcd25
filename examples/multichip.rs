//! Glueless multi-chip scaling: four 4-CPU Piranha chips with the
//! inter-node directory protocol, cruise-missile invalidates, and the
//! hot-potato router (paper §2.5-§2.6, Figure 7).
//!
//! Run with: `cargo run --release --example multichip`

use piranha::experiments::RunScale;
use piranha::workloads::{OltpConfig, Workload};
use piranha::{Machine, SystemConfig};

fn main() {
    let scale = RunScale::quick();
    let w = Workload::Oltp(OltpConfig::paper_default());
    let mut base = None;
    for chips in [1usize, 2, 4] {
        let cfg = if chips == 1 {
            SystemConfig::piranha_pn(4)
        } else {
            SystemConfig::piranha_pn(4).scaled_to_chips(chips)
        };
        let mut m = Machine::new(cfg, &w);
        let r = m.run(scale.warmup, scale.measure);
        let ipns = r.throughput_ipns();
        let b = *base.get_or_insert(ipns);
        let merged = r.merged();
        let remote = merged.fills[3] + merged.fills[4];
        let (hm, rm, hw, rw) = m.engine_stats();
        println!(
            "{} chip(s): speedup {:.2} | remote fills {:>6} | protocol msgs {:>7} | TSRF high-water {}/{} | net deflections {}",
            chips,
            ipns / b,
            remote,
            hm + rm,
            hw,
            rw,
            m.fabric_stats().deflections,
        );
        m.check_coherence();
        if chips == 4 {
            println!("\n{}", m.metrics());
        }
    }
    println!("Coherence invariants verified after every run.");
}
