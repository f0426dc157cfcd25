//! System configuration, including the paper's Table 1 presets.

use piranha_cache::{L1Config, L2BankConfig};
use piranha_cpu::{InOrderConfig, OooConfig};
use piranha_faults::FaultConfig;
use piranha_net::{NetworkConfig, TopologyKind};
use piranha_traffic::TrafficConfig;
use piranha_types::time::Clock;
use piranha_types::Duration;

/// Which core timing model the chip's CPUs use.
#[derive(Debug, Clone, Copy)]
pub enum CoreKind {
    /// Piranha's single-issue in-order core (also the INO baseline).
    InOrder(InOrderConfig),
    /// The aggressive out-of-order baseline.
    Ooo(OooConfig),
}

/// Fixed path latencies calibrated against Table 1.
#[derive(Debug, Clone, Copy)]
pub struct PathLatencies {
    /// L1 miss → request at the L2 bank.
    pub req: Duration,
    /// L2 bank lookup occupancy (also the per-event bank service time).
    pub bank: Duration,
    /// Bank → L1 fill (critical word) for on-chip service.
    pub reply: Duration,
    /// Extra probe time when another L1 supplies the data ("L2 Fwd").
    pub fwd_probe: Duration,
    /// Memory-controller overhead on top of the RDRAM access.
    pub mc_overhead: Duration,
    /// One protocol-engine microinstruction (the engines run at the CPU
    /// clock, §2.5.1).
    pub pe_instr: Duration,
}

impl PathLatencies {
    /// Prototype Piranha latencies: 16 ns L2 hit, 24 ns L2 forward,
    /// ~80 ns local memory (Table 1).
    pub fn piranha_asic() -> Self {
        PathLatencies {
            req: Duration::from_ns(6),
            bank: Duration::from_ns(2),
            reply: Duration::from_ns(8),
            fwd_probe: Duration::from_ns(8),
            mc_overhead: Duration::from_ns(6),
            pe_instr: Duration::from_ps(2000),
        }
    }

    /// Full-custom Piranha: 12 ns L2 hit, 16 ns forward (Table 1).
    pub fn piranha_custom() -> Self {
        PathLatencies {
            req: Duration::from_ns(4),
            bank: Duration::from_ns(2),
            reply: Duration::from_ns(6),
            fwd_probe: Duration::from_ns(4),
            mc_overhead: Duration::from_ns(6),
            pe_instr: Duration::from_ps(800),
        }
    }

    /// OOO/INO baseline: 12 ns L2 hit (Table 1); no on-chip forwarding
    /// (single CPU).
    pub fn ooo_chip() -> Self {
        PathLatencies {
            req: Duration::from_ns(4),
            bank: Duration::from_ns(2),
            reply: Duration::from_ns(6),
            fwd_probe: Duration::from_ns(4),
            mc_overhead: Duration::from_ns(6),
            pe_instr: Duration::from_ps(1000),
        }
    }

    /// The pessimistic sensitivity variant (§4): 22 ns hit / 32 ns fwd.
    pub fn piranha_pessimistic() -> Self {
        PathLatencies {
            req: Duration::from_ns(8),
            bank: Duration::from_ns(4),
            reply: Duration::from_ns(10),
            fwd_probe: Duration::from_ns(10),
            mc_overhead: Duration::from_ns(6),
            pe_instr: Duration::from_ps(2500),
        }
    }
}

/// Full description of a simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// A short label for reports ("P8", "OOO", ...).
    pub name: String,
    /// Number of nodes (chips).
    pub nodes: usize,
    /// CPUs per chip.
    pub cpus_per_node: usize,
    /// Core model and parameters.
    pub core: CoreKind,
    /// CPU clock; the protocol engines and the intra-chip switch run
    /// at it too.
    pub cpu_clock: Clock,
    /// L1 geometry.
    pub l1: L1Config,
    /// Number of L2 banks (= memory controllers, each with one RDRAM
    /// channel interleaved over the banks) per chip.
    pub l2_banks: usize,
    /// Geometry of each bank.
    pub l2_bank: L2BankConfig,
    /// Inter-node network parameters.
    pub net: NetworkConfig,
    /// Which fabric topology the wiring builds over the nodes
    /// ([`TopologyKind::Auto`] reproduces the paper's glueless
    /// clique/mesh layout; the others are the scaling-study fabrics).
    pub topology: TopologyKind,
    /// Calibrated path latencies.
    pub lat: PathLatencies,
    /// Instructions per CPU scheduling quantum (simulation batching
    /// only; does not affect results beyond event granularity).
    pub cpu_quantum: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Cruise-missile-invalidate route budget (paper: 4). Setting this
    /// to a huge value degenerates to point-to-point invalidations, the
    /// baseline of the §2.5.3 ablation.
    pub cmi_routes: usize,
    /// Number of I/O nodes appended after the processing nodes (paper
    /// §2, Figure 2: one CPU, one L2/MC, a two-link router; a full
    /// member of the coherence protocol).
    pub io_nodes: usize,
    /// Fault injection (paper §2.7 recovery exercise); the default is
    /// fully disabled and bit-identical to a fault-free machine.
    pub faults: FaultConfig,
    /// Open-loop traffic generation (arrival processes, bounded run
    /// queues, latency stamps); the default is fully disabled and
    /// bit-identical to a closed-loop machine.
    pub traffic: TrafficConfig,
}

impl SystemConfig {
    /// The Piranha prototype: eight 500 MHz single-issue in-order CPUs,
    /// 64 KB 2-way L1s, 1 MB 8-way shared L2 in eight banks (Table 1).
    pub fn piranha_p8() -> Self {
        SystemConfig {
            name: "P8".into(),
            nodes: 1,
            cpus_per_node: 8,
            core: CoreKind::InOrder(InOrderConfig::paper_default()),
            cpu_clock: Clock::from_mhz(500),
            l1: L1Config::paper_default(),
            l2_banks: 8,
            l2_bank: L2BankConfig::paper_default(),
            net: NetworkConfig::paper_default(),
            topology: TopologyKind::Auto,
            lat: PathLatencies::piranha_asic(),
            cpu_quantum: 2000,
            seed: 0xB10_CA5,
            cmi_routes: 4,
            io_nodes: 0,
            faults: FaultConfig::default(),
            traffic: TrafficConfig::default(),
        }
    }

    /// A hypothetical single-CPU Piranha chip (the paper's P1).
    pub fn piranha_p1() -> Self {
        SystemConfig {
            name: "P1".into(),
            cpus_per_node: 1,
            ..Self::piranha_p8()
        }
    }

    /// A Piranha chip with `n` CPUs (P2/P4 in Figures 6 and 7).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds 8.
    pub fn piranha_pn(n: usize) -> Self {
        assert!((1..=8).contains(&n), "Piranha chips have 1..=8 CPUs");
        SystemConfig {
            name: format!("P{n}"),
            cpus_per_node: n,
            ..Self::piranha_p8()
        }
    }

    /// The full-custom Piranha (P8F): 1.25 GHz, faster L2 (Table 1).
    pub fn piranha_p8f() -> Self {
        SystemConfig {
            name: "P8F".into(),
            cpu_clock: Clock::from_mhz(1250),
            lat: PathLatencies::piranha_custom(),
            ..Self::piranha_p8()
        }
    }

    /// The aggressive next-generation out-of-order baseline (OOO):
    /// 1 GHz, 4-issue, 64-entry window, 1.5 MB 6-way L2 (Table 1).
    pub fn ooo() -> Self {
        SystemConfig {
            name: "OOO".into(),
            nodes: 1,
            cpus_per_node: 1,
            core: CoreKind::Ooo(OooConfig::paper_default()),
            cpu_clock: Clock::from_mhz(1000),
            l1: L1Config::paper_default(),
            l2_banks: 2,
            l2_bank: L2BankConfig {
                size_bytes: 768 * 1024,
                ways: 6,
            },
            net: NetworkConfig::paper_default(),
            topology: TopologyKind::Auto,
            lat: PathLatencies::ooo_chip(),
            cpu_quantum: 2000,
            seed: 0xB10_CA5,
            cmi_routes: 4,
            io_nodes: 0,
            faults: FaultConfig::default(),
            traffic: TrafficConfig::default(),
        }
    }

    /// The single-issue in-order variant of OOO (INO): isolates clock
    /// and memory-system effects from issue width (Figure 5).
    pub fn ino() -> Self {
        SystemConfig {
            name: "INO".into(),
            core: CoreKind::InOrder(InOrderConfig::paper_default()),
            ..Self::ooo()
        }
    }

    /// The §4 pessimistic sensitivity variant of P8: 400 MHz CPUs,
    /// 32 KB direct-mapped L1s, 22/32 ns L2 latencies.
    pub fn piranha_p8_pessimistic() -> Self {
        SystemConfig {
            name: "P8-pess".into(),
            cpu_clock: Clock::from_mhz(400),
            l1: L1Config::pessimistic(),
            lat: PathLatencies::piranha_pessimistic(),
            ..Self::piranha_p8()
        }
    }

    /// A multi-chip (NUMA) system of `chips` copies of this chip
    /// configuration (Figure 7 uses up to four 4-CPU chips).
    pub fn scaled_to_chips(mut self, chips: usize) -> Self {
        self.nodes = chips;
        self.name = format!("{}x{}", self.name, chips);
        self
    }

    /// Attach `n` I/O nodes (each with one CPU and one L2/MC pair,
    /// running a DMA/device-driver stream).
    pub fn with_io_nodes(mut self, n: usize) -> Self {
        self.io_nodes = n;
        self
    }

    /// Total CPUs in the system, including one per I/O node.
    pub fn total_cpus(&self) -> usize {
        self.nodes * self.cpus_per_node + self.io_nodes
    }

    /// CPUs running the workload (the processing nodes' CPUs).
    pub fn workload_cpus(&self) -> usize {
        self.nodes * self.cpus_per_node
    }

    /// Table 1 rows for this configuration (used by the Table 1
    /// regenerator).
    pub fn table1_row(&self) -> Vec<(&'static str, String)> {
        let (issue, window) = match self.core {
            CoreKind::InOrder(_) => (1, None),
            CoreKind::Ooo(c) => (c.width, Some(c.window)),
        };
        vec![
            ("Processor Speed", format!("{} MHz", self.cpu_clock.mhz())),
            ("Issue Width", issue.to_string()),
            (
                "Instruction Window Size",
                window.map_or("-".to_string(), |w| w.to_string()),
            ),
            ("Cache Line Size", "64 bytes".to_string()),
            ("L1 Cache Size", format!("{} KB", self.l1.size_bytes / 1024)),
            ("L1 Cache Associativity", format!("{}-way", self.l1.ways)),
            (
                "L2 Cache Size",
                format!(
                    "{} MB",
                    self.l2_banks as f64 * self.l2_bank.size_bytes as f64 / (1 << 20) as f64
                ),
            ),
            (
                "L2 Cache Associativity",
                format!("{}-way", self.l2_bank.ways),
            ),
            (
                "L2 Hit / L2 Fwd Latency",
                format!(
                    "{} ns / {} ns",
                    (self.lat.req + self.lat.bank + self.lat.reply).as_ns(),
                    (self.lat.req + self.lat.bank + self.lat.reply + self.lat.fwd_probe).as_ns()
                ),
            ),
            ("Local Memory Latency", "~80 ns".to_string()),
            ("Remote Memory Latency", "~120 ns".to_string()),
            ("Remote Dirty Latency", "~180 ns".to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let p8 = SystemConfig::piranha_p8();
        assert_eq!(p8.cpu_clock.mhz(), 500);
        assert_eq!(p8.total_cpus(), 8);
        assert_eq!(
            p8.l2_banks as u64 * p8.l2_bank.size_bytes,
            1 << 20,
            "1MB L2"
        );
        assert_eq!(p8.l2_bank.ways, 8);
        let hit = (p8.lat.req + p8.lat.bank + p8.lat.reply).as_ns();
        let fwd = hit + p8.lat.fwd_probe.as_ns();
        assert_eq!((hit, fwd), (16, 24));

        let ooo = SystemConfig::ooo();
        assert_eq!(ooo.cpu_clock.mhz(), 1000);
        assert!(matches!(ooo.core, CoreKind::Ooo(c) if c.width == 4 && c.window == 64));
        assert_eq!(
            ooo.l2_banks as u64 * ooo.l2_bank.size_bytes,
            1536 << 10,
            "1.5MB L2"
        );
        assert_eq!((ooo.lat.req + ooo.lat.bank + ooo.lat.reply).as_ns(), 12);

        let p8f = SystemConfig::piranha_p8f();
        assert_eq!(p8f.cpu_clock.mhz(), 1250);
        assert_eq!((p8f.lat.req + p8f.lat.bank + p8f.lat.reply).as_ns(), 12);

        let ino = SystemConfig::ino();
        assert!(matches!(ino.core, CoreKind::InOrder(_)));
        assert_eq!(ino.cpu_clock.mhz(), 1000);
    }

    #[test]
    fn pessimistic_variant_matches_section4() {
        let p = SystemConfig::piranha_p8_pessimistic();
        assert_eq!(p.cpu_clock.mhz(), 400);
        assert_eq!(p.l1.ways, 1);
        assert_eq!(p.l1.size_bytes, 32 * 1024);
        let hit = (p.lat.req + p.lat.bank + p.lat.reply).as_ns();
        assert_eq!(hit, 22);
        assert_eq!(hit + p.lat.fwd_probe.as_ns(), 32);
    }

    #[test]
    fn multi_chip_scaling() {
        let c = SystemConfig::piranha_pn(4).scaled_to_chips(4);
        assert_eq!(c.total_cpus(), 16);
        assert_eq!(c.name, "P4x4");
    }

    #[test]
    fn table1_row_is_complete() {
        let rows = SystemConfig::piranha_p8().table1_row();
        assert!(rows.len() >= 10);
        assert_eq!(rows[0].1, "500 MHz");
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn oversized_chip_rejected() {
        SystemConfig::piranha_pn(9);
    }
}
