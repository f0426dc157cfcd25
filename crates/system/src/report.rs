//! Whole-machine utilization reports — the "performance monitoring"
//! function the paper assigns to the system controller (§2).

use std::fmt;

use piranha_types::SimTime;

use crate::machine::ParsimStats;

/// A utilization snapshot of one node.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// ICS 64-bit words moved.
    pub ics_words: u64,
    /// ICS aggregate datapath utilization (0..1).
    pub ics_utilization: f64,
    /// L2 bank lookups served, summed over banks.
    pub bank_lookups: u64,
    /// RDRAM accesses, summed over channels.
    pub mem_accesses: u64,
    /// RDRAM open-page hit rate across channels.
    pub mem_page_hit_rate: f64,
    /// Home-engine messages handled.
    pub home_msgs: u64,
    /// Remote-engine messages handled.
    pub remote_msgs: u64,
    /// Home-engine microinstructions executed (occupancy).
    pub home_instrs: u64,
    /// Remote-engine microinstructions executed.
    pub remote_instrs: u64,
    /// Peak concurrent TSRF entries (home, remote).
    pub tsrf_high_water: (usize, usize),
    /// Control packets the system controller interpreted.
    pub sc_packets: u64,
    /// Work units committed per core (transactions, queries, scan
    /// lines), in core order; zero for streams that track none.
    pub core_units: Vec<u64>,
}

/// A machine-wide utilization report.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Simulated time of the snapshot.
    pub now: SimTime,
    /// Per-node snapshots.
    pub nodes: Vec<NodeReport>,
    /// Interconnect packets delivered.
    pub net_delivered: u64,
    /// Hot-potato deflections taken.
    pub net_deflections: u64,
    /// Mean hops per delivered packet.
    pub net_mean_hops: f64,
    /// Fabric occupancy and loss counters (per-link wire time, drops,
    /// PFC pauses, per-node deflection split).
    pub net_fabric: piranha_net::FabricStats,
    /// Total instructions retired.
    pub instrs: u64,
    /// Parallel-engine counters (zero except `events` on single-chip
    /// machines, which run the serial loop).
    pub parsim: ParsimStats,
    /// Open-loop traffic results; `None` when traffic is off.
    pub traffic: Option<piranha_traffic::TrafficSummary>,
}

impl MachineReport {
    /// Total protocol messages across all engines.
    pub fn protocol_msgs(&self) -> u64 {
        self.nodes.iter().map(|n| n.home_msgs + n.remote_msgs).sum()
    }

    /// Flatten the report into probe-style `(name, value)` metric rows
    /// (same hierarchical naming as `Machine::sample_metrics`), ready
    /// for CSV/JSON export via [`piranha_probe::MetricsSnapshot`].
    pub fn to_metrics(&self) -> piranha_probe::MetricsSnapshot {
        use piranha_probe::MetricValue as V;
        let mut rows: Vec<(String, V)> = vec![
            ("machine.instrs".into(), V::Count(self.instrs)),
            ("net.delivered".into(), V::Count(self.net_delivered)),
            ("net.deflections".into(), V::Count(self.net_deflections)),
            ("net.mean_hops".into(), V::Value(self.net_mean_hops)),
            ("net.drops".into(), V::Count(self.net_fabric.drops)),
            ("net.pauses".into(), V::Count(self.net_fabric.pauses)),
            (
                "net.pause_ns".into(),
                V::Count(self.net_fabric.pause_time.as_ns()),
            ),
            ("net.links".into(), V::Count(self.net_fabric.links as u64)),
            (
                "net.link_busy_ns".into(),
                V::Count(self.net_fabric.link_busy.as_ns()),
            ),
            (
                "net.link_max_busy_ns".into(),
                V::Count(self.net_fabric.max_link_busy.as_ns()),
            ),
            ("protocol.msgs".into(), V::Count(self.protocol_msgs())),
            (
                "protocol.mean_occupancy".into(),
                V::Value(self.mean_engine_occupancy()),
            ),
            ("parsim.rounds".into(), V::Count(self.parsim.rounds)),
            ("parsim.windows".into(), V::Count(self.parsim.windows)),
            (
                "parsim.empty_windows".into(),
                V::Count(self.parsim.empty_windows),
            ),
            (
                "parsim.merged_events".into(),
                V::Count(self.parsim.merged_events),
            ),
            ("parsim.events".into(), V::Count(self.parsim.events)),
        ];
        for (n, node) in self.nodes.iter().enumerate() {
            rows.push((format!("ics.node{n}.words"), V::Count(node.ics_words)));
            rows.push((
                format!("ics.node{n}.utilization"),
                V::Value(node.ics_utilization),
            ));
            rows.push((
                format!("cache.node{n}.bank_lookups"),
                V::Count(node.bank_lookups),
            ));
            rows.push((format!("mem.node{n}.accesses"), V::Count(node.mem_accesses)));
            rows.push((
                format!("mem.node{n}.page_hit_rate"),
                V::Value(node.mem_page_hit_rate),
            ));
            rows.push((
                format!("protocol.node{n}.home_msgs"),
                V::Count(node.home_msgs),
            ));
            rows.push((
                format!("protocol.node{n}.remote_msgs"),
                V::Count(node.remote_msgs),
            ));
            rows.push((format!("sc.node{n}.packets"), V::Count(node.sc_packets)));
            for (c, units) in node.core_units.iter().enumerate() {
                rows.push((format!("cpu.node{n}.core{c}.units"), V::Count(*units)));
            }
        }
        if let Some(t) = &self.traffic {
            rows.push(("traffic.generated".into(), V::Count(t.ledger.generated)));
            rows.push(("traffic.accepted".into(), V::Count(t.ledger.accepted)));
            rows.push(("traffic.dropped".into(), V::Count(t.ledger.dropped)));
            rows.push(("traffic.deferred".into(), V::Count(t.ledger.deferred)));
            rows.push(("traffic.completed".into(), V::Count(t.ledger.completed)));
            rows.push(("traffic.txn_latency_ns.p50".into(), V::Count(t.p50_ns())));
            rows.push(("traffic.txn_latency_ns.p95".into(), V::Count(t.p95_ns())));
            rows.push(("traffic.txn_latency_ns.p99".into(), V::Count(t.p99_ns())));
            rows.push(("traffic.drop_rate".into(), V::Value(t.drop_rate())));
        }
        piranha_probe::MetricsSnapshot::from_entries(rows)
    }

    /// Committed-work throughput of one core in transactions per
    /// simulated millisecond (0 before any time elapses).
    pub fn core_txn_per_ms(&self, units: u64) -> f64 {
        let ns = self.now.since(piranha_types::SimTime::ZERO).as_ns();
        if ns == 0 {
            0.0
        } else {
            units as f64 * 1.0e6 / ns as f64
        }
    }

    /// Mean protocol-engine occupancy in microinstructions per handled
    /// message (the paper's "few instructions at each engine").
    pub fn mean_engine_occupancy(&self) -> f64 {
        let instrs: u64 = self
            .nodes
            .iter()
            .map(|n| n.home_instrs + n.remote_instrs)
            .sum();
        let msgs = self.protocol_msgs().max(1);
        instrs as f64 / msgs as f64
    }
}

impl fmt::Display for MachineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "machine report @ {} ({} instructions retired)",
            self.now, self.instrs
        )?;
        writeln!(
            f,
            "  interconnect: {} delivered, {} deflections, {:.2} mean hops, {} drops, {} pauses",
            self.net_delivered,
            self.net_deflections,
            self.net_mean_hops,
            self.net_fabric.drops,
            self.net_fabric.pauses
        )?;
        writeln!(
            f,
            "  protocol engines: {} messages, {:.1} µinstrs/message",
            self.protocol_msgs(),
            self.mean_engine_occupancy()
        )?;
        if self.parsim.windows > 0 {
            writeln!(
                f,
                "  parallel engine: {} rounds over {} windows ({} empty), {} merged events",
                self.parsim.rounds,
                self.parsim.windows,
                self.parsim.empty_windows,
                self.parsim.merged_events
            )?;
        }
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(
                f,
                "  node {i}: ICS {} words ({:.1}% util) | banks {} lookups | RDRAM {} accesses ({:.0}% page hits) | TSRF hw {}/{} | SC {} pkts",
                n.ics_words,
                n.ics_utilization * 100.0,
                n.bank_lookups,
                n.mem_accesses,
                n.mem_page_hit_rate * 100.0,
                n.tsrf_high_water.0,
                n.tsrf_high_water.1,
                n.sc_packets
            )?;
            if n.core_units.iter().any(|&u| u > 0) {
                let rates: Vec<String> = n
                    .core_units
                    .iter()
                    .map(|&u| format!("{u} ({:.2}/ms)", self.core_txn_per_ms(u)))
                    .collect();
                writeln!(f, "    committed txns per core: {}", rates.join(", "))?;
            }
        }
        if let Some(t) = &self.traffic {
            writeln!(
                f,
                "  traffic: p50 {} ns, p95 {} ns, p99 {} ns | offered {}, accepted {}, completed {}, dropped {} ({:.2}% drop)",
                t.p50_ns(),
                t.p95_ns(),
                t.p99_ns(),
                t.ledger.generated,
                t.ledger.accepted,
                t.ledger.completed,
                t.ledger.dropped,
                t.drop_rate() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MachineReport {
        MachineReport {
            now: SimTime::from_ns(1000),
            nodes: vec![NodeReport {
                ics_words: 500,
                ics_utilization: 0.125,
                bank_lookups: 40,
                mem_accesses: 10,
                mem_page_hit_rate: 0.3,
                home_msgs: 6,
                remote_msgs: 4,
                home_instrs: 30,
                remote_instrs: 20,
                tsrf_high_water: (2, 3),
                sc_packets: 11,
                core_units: vec![500, 0],
            }],
            net_delivered: 9,
            net_deflections: 1,
            net_mean_hops: 1.4,
            net_fabric: piranha_net::FabricStats::default(),
            instrs: 12345,
            parsim: ParsimStats {
                rounds: 3,
                windows: 17,
                empty_windows: 2,
                merged_events: 9,
                events: 400,
            },
            traffic: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.protocol_msgs(), 10);
        assert!((r.mean_engine_occupancy() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_complete() {
        let text = sample().to_string();
        for needle in [
            "12345 instructions",
            "9 delivered",
            "ICS 500 words",
            "TSRF hw 2/3",
            "SC 11 pkts",
            "3 rounds over 17 windows (2 empty)",
            // 500 txns in 1000 ns = 500_000/ms.
            "committed txns per core: 500 (500000.00/ms), 0 (0.00/ms)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(
            !text.contains("traffic:"),
            "no traffic block when traffic is off:\n{text}"
        );
    }

    #[test]
    fn display_shows_traffic_when_on() {
        let mut r = sample();
        let mut latency = piranha_kernel::Histogram::new();
        for ns in [100u64, 200, 400, 10_000] {
            latency.record(ns);
        }
        r.traffic = Some(piranha_traffic::TrafficSummary {
            ledger: piranha_traffic::TrafficLedger {
                generated: 20,
                accepted: 16,
                dropped: 4,
                deferred: 0,
                completed: 16,
            },
            latency,
        });
        let text = r.to_string();
        for needle in ["traffic: p50 ", "p99 ", "offered 20", "(20.00% drop)"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let m = r.to_metrics();
        assert!(m.get("traffic.generated").is_some());
        assert!(m.get("traffic.txn_latency_ns.p99").is_some());
        assert!(m.get("cpu.node0.core0.units").is_some());
    }
}
