//! Machine assembly: topology, node construction, and observability
//! wiring (track naming and the statistics table).

use piranha_kernel::Lookahead;
use piranha_net::{Network, Topology, TopologyKind};
use piranha_probe::{MetricValue, MetricsSnapshot, Probe};
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
/// is built from [`Network::host_pair_bounds`] rather than the full
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
        let net = Network::new(topo, cfg.net);
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
                lane.events.schedule(SimTime::ZERO, Ev::Step { cpu: c });
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
            for b in 0..node.banks.len() {
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

    /// The machine's statistics table: one row per counter a subsystem
    /// keeps, each named here and nowhere else (dots separate the
    /// hierarchy: `cpu.node0.core1.instrs`, `net.delivered`). Read from
    /// the subsystems' own counters at call time, so it never disagrees
    /// with them. A probed run's
    /// [`RunResult::metrics`](crate::RunResult::metrics) is this table
    /// merged with the probe registry's snapshot (its histograms).
    pub fn metrics(&self) -> MetricsSnapshot {
        use MetricValue::{Count, Value};
        let mut rows: Vec<(String, MetricValue)> = Vec::new();
        let mut row = |name: &str, v: MetricValue| rows.push((name.to_string(), v));
        let (scheduled, popped, migrated) = self.lanes.iter().fold((0, 0, 0), |(s, o, m), l| {
            (
                s + l.events.scheduled(),
                o + l.events.popped(),
                m + l.events.migrated(),
            )
        });
        row("kernel.events.scheduled", Count(scheduled));
        row("kernel.events.popped", Count(popped));
        row("kernel.events.migrated", Count(migrated));
        row("machine.instrs", Count(self.total_instrs()));
        row("mem.page_hit_rate", Value(self.mem_page_hit_rate()));
        // Fabric traffic and congestion: queue-discipline losses and
        // stalls, per-link wire-time occupancy, per-node deflections.
        let fs = self.net.stats();
        row("net.delivered", Count(fs.delivered));
        row("net.deflections", Count(fs.deflections));
        row("net.retransmits", Count(fs.retransmits));
        row("net.mean_hops", Value(fs.mean_hops));
        row("net.drops", Count(fs.drops));
        row("net.pauses", Count(fs.pauses));
        row("net.pause_ns", Count(fs.pause_time.as_ns()));
        row("net.links", Count(fs.links as u64));
        row("net.link_busy_ns", Count(fs.link_busy.as_ns()));
        row("net.link_max_busy_ns", Count(fs.max_link_busy.as_ns()));
        row(
            "net.occupancy",
            Value(fs.occupancy(self.now().since(SimTime::ZERO))),
        );
        for (n, d) in fs
            .node_deflections
            .iter()
            .take(self.lanes.len())
            .enumerate()
        {
            row(&format!("net.node{n}.deflections"), Count(*d));
        }
        let (mut msgs, mut instrs) = (0, 0);
        for nd in self.lanes.iter().map(|l| &l.node) {
            msgs += nd.home.msgs_handled() + nd.remote.msgs_handled();
            instrs += nd.home.instr_executed() + nd.remote.instr_executed();
        }
        row("protocol.msgs", Count(msgs));
        // Microinstructions per handled message: the paper's "few
        // instructions at each engine".
        row(
            "protocol.mean_occupancy",
            Value(instrs as f64 / msgs.max(1) as f64),
        );
        let ps = self.parsim;
        row("parsim.rounds", Count(ps.rounds));
        row("parsim.windows", Count(ps.windows));
        row("parsim.empty_windows", Count(ps.empty_windows));
        row("parsim.merged_events", Count(ps.merged_events));
        row("parsim.events", Count(ps.events));
        row("sample.windows", Count(self.tally.windows));
        row("sample.detailed_cycles", Count(self.tally.detailed_cycles));
        row("sample.warming_cycles", Count(self.tally.warming_cycles));
        let av = self.availability();
        row("faults.injected", Count(av.injected));
        row("faults.corrected", Count(av.corrected));
        row("faults.escalated", Count(av.escalated));
        row("faults.retransmits", Count(av.retransmits));
        row("faults.recovery_cycles", Count(av.recovery_cycles));
        if let Some(ts) = self.traffic_summary() {
            // Offered vs. accepted load, machine-wide: the open-loop
            // generator's output against what the bounded queues took.
            row("traffic.generated", Count(ts.ledger.generated));
            row("traffic.accepted", Count(ts.ledger.accepted));
            row("traffic.dropped", Count(ts.ledger.dropped));
            row("traffic.deferred", Count(ts.ledger.deferred));
            row("traffic.completed", Count(ts.ledger.completed));
            row("traffic.txn_latency_ns.p50", Count(ts.p50_ns()));
            row("traffic.txn_latency_ns.p95", Count(ts.p95_ns()));
            row("traffic.txn_latency_ns.p99", Count(ts.p99_ns()));
            row("traffic.drop_rate", Value(ts.drop_rate()));
        }
        for (n, lane) in self.lanes.iter().enumerate() {
            let node = &lane.node;
            for (c, (core, stream)) in node.cpus.cores().zip(node.cpus.streams()).enumerate() {
                let s = core.stats();
                let k = format!("cpu.node{n}.core{c}");
                row(&format!("{k}.instrs"), Count(s.instrs));
                row(&format!("{k}.l1_hits"), Count(s.l1_hits));
                row(&format!("{k}.l1i_misses"), Count(s.l1i_misses));
                row(&format!("{k}.l1d_misses"), Count(s.l1d_misses));
                row(&format!("{k}.sb_reqs"), Count(s.sb_reqs));
                row(&format!("{k}.tlb_misses"), Count(core.tlb_misses()));
                row(&format!("{k}.stall_cycles"), Count(s.total_stall()));
                // Work units committed: transactions, queries or scan
                // lines; zero for streams that track none.
                let units = stream.units_completed().or_else(|| stream.txns_committed());
                row(&format!("{k}.units"), Count(units.unwrap_or(0)));
            }
            row(
                &format!("cache.node{n}.bank_lookups"),
                Count(node.bank_srv.iter().map(|s| s.jobs()).sum()),
            );
            row(&format!("ics.node{n}.words"), Count(node.ics.words_moved()));
            row(
                &format!("ics.node{n}.utilization"),
                Value(node.ics.utilization(self.now())),
            );
            let rdram = || node.mem.iter().map(|m| m.rdram());
            let accesses: u64 = rdram().map(|r| r.accesses()).sum();
            let hits: f64 = rdram()
                .map(|r| r.page_hit_rate() * r.accesses() as f64)
                .sum();
            row(&format!("mem.node{n}.accesses"), Count(accesses));
            row(
                &format!("mem.node{n}.page_hit_rate"),
                Value(if accesses == 0 {
                    0.0
                } else {
                    hits / accesses as f64
                }),
            );
            let (home, remote) = (&node.home, &node.remote);
            let p = format!("protocol.node{n}");
            row(&format!("{p}.home_msgs"), Count(home.msgs_handled()));
            row(&format!("{p}.remote_msgs"), Count(remote.msgs_handled()));
            row(&format!("{p}.replays"), Count(node.recovery.replays()));
            row(
                &format!("{p}.tsrf_high_water"),
                Value(home.tsrf_high_water().max(remote.tsrf_high_water()) as f64),
            );
            for (engine, (tsrf, deferred)) in
                [("home", home.occupancy()), ("remote", remote.occupancy())]
            {
                row(&format!("{p}.{engine}_tsrf"), Count(tsrf as u64));
                row(&format!("{p}.{engine}_deferred"), Count(deferred as u64));
            }
            row(&format!("ras.node{n}.cap_faults"), Count(node.ras.faults()));
            row(
                &format!("sc.node{n}.packets"),
                Count(node.sc.packets_handled()),
            );
            if lane.traffic.enabled() {
                let l = lane.traffic.ledger();
                row(&format!("traffic.node{n}.generated"), Count(l.generated));
                row(&format!("traffic.node{n}.accepted"), Count(l.accepted));
                row(&format!("traffic.node{n}.dropped"), Count(l.dropped));
                row(&format!("traffic.node{n}.deferred"), Count(l.deferred));
                row(&format!("traffic.node{n}.completed"), Count(l.completed));
            }
        }
        MetricsSnapshot::from_entries(rows)
    }
}
