//! Calibration diagnostics: per-configuration miss profiles on OLTP and
//! instruction throughput on DSS at quick scale (a development aid; the
//! shipped figures come from the `fig*` binaries).
//!
//! Reads no flags (and rejects unknown ones); see
//! [`piranha::observe::Flags`].
use piranha::experiments::{dss, oltp, RunRequest, RunScale};
use piranha::observe::Flags;
use piranha::SystemConfig;

fn main() {
    Flags::from_env();
    let scale = RunScale::quick();
    for cfg in [
        SystemConfig::piranha_p1(),
        SystemConfig::ino(),
        SystemConfig::ooo(),
        SystemConfig::piranha_p8(),
    ] {
        let r = RunRequest::new(cfg, oltp(), scale).run();
        let m = r.merged();
        let period_ns = 1000.0 / r.clock.mhz() as f64;
        println!(
            "{:<5} OLTP instrs={} mpki={:.1} fills[hit,fwd,mem]={:?} stall={:.1}ns/instr busy={:.0}%",
            r.name,
            m.instrs,
            r.mpki(),
            m.fills,
            m.total_stall() as f64 * period_ns / m.instrs as f64,
            r.breakdown().busy * 100.0
        );
    }
    for cfg in [SystemConfig::ino(), SystemConfig::ooo()] {
        let r = RunRequest::new(cfg, dss(), scale).run();
        let m = r.merged();
        println!(
            "{:<5} DSS instrs={} ipc={:.2}",
            r.name,
            m.instrs,
            m.instrs as f64 / r.wall_cycles() as f64
        );
    }
}
