//! Machine assembly: topology, node construction, and observability
//! wiring (track naming, metric sampling, utilization reports).

use piranha_kernel::Lookahead;
use piranha_net::{Fabric, Network, Topology, TopologyKind};
use piranha_probe::Probe;
use piranha_types::{NodeId, SimTime};
use piranha_workloads::{SynthConfig, SynthStream};

use crate::config::SystemConfig;
use crate::dispatch::Ev;
use crate::machine::Machine;
use crate::node::{Node, NodeLane};

/// Chrome-trace track layout: each node owns a stride of 64 track ids —
/// CPUs at `base + cpu`, L2 banks at `base + TRACK_BANK + bank`, memory
/// channels at `base + TRACK_MEM + bank`, then the two protocol engines
/// and the router port.
pub(crate) const TRACK_STRIDE: u32 = 64;
pub(crate) const TRACK_BANK: u32 = 16;
pub(crate) const TRACK_MEM: u32 = 24;
pub(crate) const TRACK_HOME: u32 = 32;
pub(crate) const TRACK_REMOTE: u32 = 33;
pub(crate) const TRACK_NET: u32 = 34;

pub(crate) fn track_base(node: usize) -> u32 {
    node as u32 * TRACK_STRIDE
}

/// Build the interconnect topology for `kind` over the machine's lanes
/// (processing + I/O nodes).
///
/// [`TopologyKind::Auto`] reproduces the paper layout: processing nodes
/// fully connected (gluelessly possible up to five with four channels
/// each) or meshed, with each I/O node attached by its two channels to
/// two processing nodes for redundancy (§2.6.1). The mesh case uses
/// [`Topology::mesh_of`], which builds **exactly** `total` nodes — the
/// earlier `mesh(w, ceil(total/w))` rounding could instantiate phantom
/// topology nodes the machine doesn't have (e.g. 9 for a 7-lane
/// system), silently widening the lookahead matrix.
///
/// The explicit kinds treat every lane — processing or I/O — as an
/// equal fabric member (the scaling sweeps don't model the dual-homed
/// I/O attachment). Only [`Topology::fat_tree`] creates nodes beyond
/// the lanes: its interior switches are deliberate phantom nodes that
/// route but never source or sink traffic, which is why the lookahead
/// is built from [`Fabric::host_pair_bounds`] rather than the full
/// matrix.
pub(crate) fn build_topology(kind: TopologyKind, processing: usize, io: usize) -> Topology {
    let total = processing + io;
    if total == 1 {
        // A single node never routes; a trivial two-node ring keeps the
        // network object well-formed (and unused).
        return Topology::ring(2);
    }
    match kind {
        TopologyKind::Auto => {
            if io == 0 {
                return if total <= 5 {
                    Topology::fully_connected(total)
                } else {
                    Topology::mesh_of(total)
                };
            }
            // Custom: processing clique + dual-homed I/O nodes.
            let mut adj: Vec<Vec<NodeId>> = (0..total).map(|_| Vec::new()).collect();
            for a in 0..processing {
                for b in (a + 1)..processing {
                    adj[a].push(NodeId(b as u16));
                    adj[b].push(NodeId(a as u16));
                }
            }
            for i in 0..io {
                let n = processing + i;
                let first = i % processing;
                adj[n].push(NodeId(first as u16));
                adj[first].push(NodeId(n as u16));
                if processing > 1 {
                    let second = (i + 1) % processing;
                    adj[n].push(NodeId(second as u16));
                    adj[second].push(NodeId(n as u16));
                }
            }
            Topology::custom(adj)
        }
        TopologyKind::Ring => Topology::ring(total),
        TopologyKind::Mesh => Topology::mesh_of(total),
        TopologyKind::Torus => {
            // The most-square factorization with both sides ≥ 2; a node
            // count with none (primes, 2·prime oddities) degenerates to
            // the ring, which is the 1-D torus.
            let mut best = None;
            let mut w = (total as f64).sqrt().floor() as usize;
            while w >= 2 {
                if total.is_multiple_of(w) && total / w >= 2 {
                    best = Some((w, total / w));
                    break;
                }
                w -= 1;
            }
            match best {
                Some((w, h)) => Topology::torus(w, h),
                None => Topology::ring(total),
            }
        }
        TopologyKind::FatTree => Topology::fat_tree(total),
    }
}

impl Machine {
    /// Build a machine with explicit per-CPU streams (for examples and
    /// tests driving custom programs, e.g. through `piranha_cpu::IsaStream`).
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match the CPU count, or
    /// if the network configuration yields a zero minimum delivery
    /// latency (the conservative engine's lookahead must be strictly
    /// positive, which any real link serialization + hop time is).
    pub fn with_streams(
        cfg: SystemConfig,
        mut streams: Vec<Box<dyn piranha_cpu::InstrStream>>,
    ) -> Self {
        assert_eq!(
            streams.len(),
            cfg.workload_cpus(),
            "one stream per processing CPU (I/O nodes drive themselves)"
        );
        let total_nodes = cfg.nodes + cfg.io_nodes;
        let topo = build_topology(cfg.topology, cfg.nodes, cfg.io_nodes);
        let net = Fabric::new(Network::new(topo, cfg.net));
        // The lookahead matrix is computed from the actual topology:
        // `bound(s, d)` = hop distance × the per-hop minimum (Table 1:
        // short-packet serialization + one hop). Its global minimum is
        // the window quantum; `Lookahead::from_bounds` asserts it is
        // strictly positive — the conservative engine has no lookahead
        // otherwise. Only the *host* submatrix matters: phantom switch
        // nodes (fat-tree interior) never source or sink events, and
        // host-to-host distances are computed on the full graph, so
        // routing through switches is already priced in. On the paper's
        // glueless fully connected configs the matrix degenerates to
        // the uniform fabric-wide minimum.
        let lookahead = Lookahead::from_bounds(net.host_pair_bounds());
        let mut lanes = Vec::with_capacity(total_nodes);
        for n in 0..total_nodes {
            let node_streams: Vec<Box<dyn piranha_cpu::InstrStream>> = if n >= cfg.nodes {
                // The I/O chip's CPU runs device-driver/DMA traffic,
                // fully coherent with the rest of the system. It stays
                // closed-loop even in traffic mode — devices are not
                // user transactions.
                vec![Box::new(SynthStream::new(
                    SynthConfig::dma(),
                    n - cfg.nodes,
                    cfg.io_nodes,
                    cfg.seed ^ 0x10,
                ))]
            } else {
                // Traffic mode wraps each workload stream in an
                // open-loop admission gate; disabled traffic passes the
                // streams through untouched (bit-identical goldens).
                piranha_traffic::wrap_streams(
                    &cfg.traffic,
                    streams.drain(..cfg.cpus_per_node).collect(),
                )
            };
            let n_node_cpus = node_streams.len();
            let node = Node::new(&cfg, n, total_nodes, node_streams);
            // Node 0's plane owns the scripted fault schedule; the
            // other lanes draw decorrelated random streams (a shared
            // PRNG would serialize the lanes).
            let faults = piranha_faults::FaultPlane::for_node(cfg.faults.clone(), cfg.seed, n);
            // Same discipline for traffic: per-node decorrelated arrival
            // schedules, disabled (and PRNG-free) at zero rate. I/O
            // nodes always get a disabled plane.
            let traffic = if n < cfg.nodes {
                piranha_traffic::TrafficPlane::for_node(
                    cfg.traffic.clone(),
                    cfg.seed,
                    n,
                    n_node_cpus,
                    cfg.cpu_clock,
                )
            } else {
                piranha_traffic::TrafficPlane::disabled()
            };
            let mut lane = NodeLane::new(n, total_nodes, node, faults, traffic);
            for c in 0..lane.node.cpus.len() {
                lane.events.schedule(
                    SimTime::ZERO,
                    Ev::Cpu(piranha_cpu::CpuEvent::Step { cpu: c }),
                );
            }
            lane.unfinished = lane.node.cpus.len();
            lanes.push(lane);
        }
        Machine {
            cfg,
            lanes,
            net,
            probe: Probe::disabled(),
            lookahead,
            parsim: crate::machine::ParsimStats::default(),
            tally: crate::warm::SampleTally::default(),
            workers: 1,
            clock: SimTime::ZERO,
        }
    }

    /// Attach an observability probe; names this machine's tracks for
    /// the Chrome-trace exporter. Pass [`Probe::disabled`] to detach.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
        for lane in &mut self.lanes {
            lane.probe = self.probe.clone();
            if lane.traffic.enabled() {
                let n = lane.index;
                lane.traffic_hists = (0..lane.node.cpus.len())
                    .map(|c| {
                        lane.probe
                            .histogram(&format!("traffic.node{n}.core{c}.txn_latency_ns"))
                    })
                    .collect();
            }
        }
        if !self.probe.is_enabled() {
            return;
        }
        for (n, lane) in self.lanes.iter().enumerate() {
            let node = &lane.node;
            let base = track_base(n);
            for c in 0..node.cpus.len() {
                self.probe
                    .name_track(base + c as u32, format!("node{n}.cpu{c}"));
            }
            for b in 0..node.caches.bank_count() {
                self.probe
                    .name_track(base + TRACK_BANK + b as u32, format!("node{n}.l2bank{b}"));
                self.probe
                    .name_track(base + TRACK_MEM + b as u32, format!("node{n}.mem{b}"));
            }
            self.probe
                .name_track(base + TRACK_HOME, format!("node{n}.home-engine"));
            self.probe
                .name_track(base + TRACK_REMOTE, format!("node{n}.remote-engine"));
            self.probe
                .name_track(base + TRACK_NET, format!("node{n}.router"));
        }
    }

    /// Pull-sample every subsystem's authoritative counters into the
    /// probe's metric registry. The subsystems keep the single source of
    /// truth; the registry holds the latest sampled reading. A no-op
    /// when the probe is disabled.
    pub fn sample_metrics(&self) {
        if !self.probe.is_enabled() {
            return;
        }
        let p = &self.probe;
        let (scheduled, popped, migrated) = self.lanes.iter().fold((0, 0, 0), |(s, o, m), l| {
            (
                s + l.events.scheduled(),
                o + l.events.popped(),
                m + l.events.migrated(),
            )
        });
        p.publish_counter("kernel.events.scheduled", scheduled);
        p.publish_counter("kernel.events.popped", popped);
        p.publish_counter("kernel.events.migrated", migrated);
        p.publish_counter("machine.instrs", self.total_instrs());
        p.publish_gauge("mem.page_hit_rate", self.mem_page_hit_rate());
        p.publish_counter("net.delivered", self.net.delivered());
        p.publish_counter("net.deflections", self.net.deflections());
        p.publish_counter("net.retransmits", self.net.retransmits());
        p.publish_gauge("net.mean_hops", self.net.mean_hops());
        // Fabric congestion counters: queue-discipline losses/stalls,
        // per-link wire-time occupancy, per-node deflection split.
        let fs = self.net.stats();
        p.publish_counter("net.drops", fs.drops);
        p.publish_counter("net.pauses", fs.pauses);
        p.publish_counter("net.pause_ns", fs.pause_time.as_ns());
        p.publish_counter("net.links", fs.links as u64);
        p.publish_counter("net.link_busy_ns", fs.link_busy.as_ns());
        p.publish_counter("net.link_max_busy_ns", fs.max_link_busy.as_ns());
        p.publish_gauge(
            "net.occupancy",
            fs.occupancy(self.now().since(SimTime::ZERO)),
        );
        for (n, d) in fs
            .node_deflections
            .iter()
            .enumerate()
            .take(self.lanes.len())
        {
            p.publish_counter(&format!("net.node{n}.deflections"), *d);
        }
        let ps = self.parsim_stats();
        p.publish_counter("parsim.rounds", ps.rounds);
        p.publish_counter("parsim.windows", ps.windows);
        p.publish_counter("parsim.empty_windows", ps.empty_windows);
        p.publish_counter("parsim.merged_events", ps.merged_events);
        p.publish_counter("parsim.events", ps.events);
        let st = self.sample_tally();
        p.publish_counter("sample.windows", st.windows);
        p.publish_counter("sample.detailed_cycles", st.detailed_cycles);
        p.publish_counter("sample.warming_cycles", st.warming_cycles);
        let av = self.availability();
        p.publish_counter("faults.injected", av.injected);
        p.publish_counter("faults.corrected", av.corrected);
        p.publish_counter("faults.escalated", av.escalated);
        p.publish_counter("faults.retransmits", av.retransmits);
        p.publish_counter("faults.recovery_cycles", av.recovery_cycles);
        if let Some(ts) = self.traffic_summary() {
            // Offered vs. accepted load, machine-wide: the open-loop
            // generator's output against what the bounded queues took.
            p.publish_counter("traffic.generated", ts.ledger.generated);
            p.publish_counter("traffic.accepted", ts.ledger.accepted);
            p.publish_counter("traffic.dropped", ts.ledger.dropped);
            p.publish_counter("traffic.deferred", ts.ledger.deferred);
            p.publish_counter("traffic.completed", ts.ledger.completed);
        }
        for (n, lane) in self.lanes.iter().enumerate() {
            let node = &lane.node;
            for (c, core) in node.cpus.cores().enumerate() {
                let s = core.stats();
                let k = format!("cpu.node{n}.core{c}");
                p.publish_counter(&format!("{k}.instrs"), s.instrs);
                p.publish_counter(&format!("{k}.l1_hits"), s.l1_hits);
                p.publish_counter(&format!("{k}.l1i_misses"), s.l1i_misses);
                p.publish_counter(&format!("{k}.l1d_misses"), s.l1d_misses);
                p.publish_counter(&format!("{k}.sb_reqs"), s.sb_reqs);
                p.publish_counter(&format!("{k}.tlb_misses"), core.tlb_misses());
                p.publish_counter(&format!("{k}.stall_cycles"), s.total_stall());
            }
            p.publish_counter(
                &format!("cache.node{n}.bank_lookups"),
                node.caches.lookups(),
            );
            p.publish_counter(&format!("ics.node{n}.words"), node.ics.words_moved());
            p.publish_gauge(
                &format!("ics.node{n}.utilization"),
                node.ics.utilization(self.now()),
            );
            p.publish_counter(
                &format!("mem.node{n}.accesses"),
                node.mem.banks().iter().map(|m| m.rdram().accesses()).sum(),
            );
            p.publish_counter(
                &format!("protocol.node{n}.home_msgs"),
                node.engines.home().msgs_handled(),
            );
            p.publish_counter(
                &format!("protocol.node{n}.remote_msgs"),
                node.engines.remote().msgs_handled(),
            );
            p.publish_counter(&format!("protocol.node{n}.replays"), node.engines.replays());
            p.publish_counter(&format!("ras.node{n}.cap_faults"), node.ras.faults());
            if lane.traffic.enabled() {
                let l = lane.traffic.ledger();
                p.publish_counter(&format!("traffic.node{n}.generated"), l.generated);
                p.publish_counter(&format!("traffic.node{n}.accepted"), l.accepted);
                p.publish_counter(&format!("traffic.node{n}.dropped"), l.dropped);
                p.publish_counter(&format!("traffic.node{n}.deferred"), l.deferred);
                p.publish_counter(&format!("traffic.node{n}.completed"), l.completed);
            }
            p.publish_gauge(
                &format!("protocol.node{n}.tsrf_high_water"),
                node.engines
                    .home()
                    .tsrf_high_water()
                    .max(node.engines.remote().tsrf_high_water()) as f64,
            );
        }
    }

    /// Snapshot a machine-wide utilization report (the system
    /// controller's performance-monitoring role, §2).
    pub fn report(&self) -> crate::report::MachineReport {
        let nodes = self
            .lanes
            .iter()
            .map(|lane| {
                let n = &lane.node;
                let mem_accesses: u64 = n.mem.banks().iter().map(|m| m.rdram().accesses()).sum();
                let hits: f64 = n
                    .mem
                    .banks()
                    .iter()
                    .map(|m| m.rdram().page_hit_rate() * m.rdram().accesses() as f64)
                    .sum();
                crate::report::NodeReport {
                    ics_words: n.ics.words_moved(),
                    ics_utilization: n.ics.utilization(self.now()),
                    bank_lookups: n.caches.lookups(),
                    mem_accesses,
                    mem_page_hit_rate: if mem_accesses == 0 {
                        0.0
                    } else {
                        hits / mem_accesses as f64
                    },
                    home_msgs: n.engines.home().msgs_handled(),
                    remote_msgs: n.engines.remote().msgs_handled(),
                    home_instrs: n.engines.home().instr_executed(),
                    remote_instrs: n.engines.remote().instr_executed(),
                    tsrf_high_water: (
                        n.engines.home().tsrf_high_water(),
                        n.engines.remote().tsrf_high_water(),
                    ),
                    sc_packets: n.sc.packets_handled(),
                    core_units: n
                        .cpus
                        .streams()
                        .map(|s| {
                            s.units_completed()
                                .or_else(|| s.txns_committed())
                                .unwrap_or(0)
                        })
                        .collect(),
                }
            })
            .collect();
        crate::report::MachineReport {
            now: self.now(),
            nodes,
            net_delivered: self.net.delivered(),
            net_deflections: self.net.deflections(),
            net_mean_hops: self.net.mean_hops(),
            net_fabric: self.net.stats(),
            instrs: self.total_instrs(),
            parsim: self.parsim_stats(),
            traffic: self.traffic_summary(),
        }
    }
}
