//! One node (chip) of the machine: the units one Piranha chip carries,
//! held directly.
//!
//! A node owns exactly the hardware of one chip (§2): the CPU cluster
//! with its instruction streams, the L1s, the interleaved L2 banks and
//! their memory banks (which hold the in-memory directory), the home and
//! remote protocol engines, the intra-chip switch, the system
//! controller, and the node's RAS policy, plus the occupancy servers the
//! detailed regime times the banks and engines with. Every behaviour
//! lives in a subsystem crate. [`Node::handle`] runs one follow-on event
//! through its bank or engine for both execution regimes, and
//! [`NodeLane::step_cpu`] / [`NodeLane::fill_cpu`] run and fill a core for
//! both; the dispatch layer routes the actions between them.

use piranha_types::FastMap;
use std::collections::VecDeque;

use piranha_cache::{BankAction, BankEvent, L1Set, L2Bank, Slot};
use piranha_cpu::{
    CoreModel, CoreStatus, CpuCluster, CpuCtx, InOrderCore, InstrStream, MemReq, OooCore,
};
use piranha_faults::FaultPlane;
use piranha_ics::Ics;
use piranha_kernel::{EventQueue, Server};
use piranha_mem::MemBank;
use piranha_net::Packet;
use piranha_parsim::Outbox;
use piranha_probe::Probe;
use piranha_protocol::{
    EngineAction, EngineRecovery, HomeEngine, LineRange, ProtoMsg, RasPolicy, RemoteEngine,
};
use piranha_traffic::TrafficPlane;
use piranha_types::{CpuId, FillSource, LineAddr, NodeId, SimTime};

use crate::config::{CoreKind, SystemConfig};
use crate::dispatch::{Ev, Item, Next};
use crate::sysctl::SystemController;

/// One node (chip) of the machine.
pub(crate) struct Node {
    /// The CPU cluster: cores, streams, done-tracking.
    pub(crate) cpus: CpuCluster,
    /// The CPUs' L1 instruction/data caches.
    pub(crate) l1s: L1Set,
    /// The node-interleaved L2 banks with their duplicate L1 tags.
    pub(crate) banks: Vec<L2Bank>,
    /// One occupancy server per L2 bank.
    pub(crate) bank_srv: Vec<Server>,
    /// RDRAM banks + in-memory directory, one per L2 bank and
    /// interleaved like them; the home engine's directory store.
    pub(crate) mem: Vec<MemBank>,
    /// The home (directory-side) protocol engine.
    pub(crate) home: HomeEngine,
    /// The remote (requester-side) protocol engine.
    pub(crate) remote: RemoteEngine,
    /// The engines' occupancy servers.
    pub(crate) home_srv: Server,
    pub(crate) remote_srv: Server,
    /// The engines' shared TSRF replay recovery unit.
    pub(crate) recovery: EngineRecovery,
    /// The intra-chip switch.
    pub(crate) ics: Ics,
    /// The system controller (hot start/stop, boot, monitoring).
    pub(crate) sc: SystemController,
    /// Per-node RAS policy: persistent-memory journal + mirror log
    /// (paper §2.7).
    pub(crate) ras: RasPolicy,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("cpus", &self.cpus.len())
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Build node `n` of a `total_nodes` machine. I/O nodes get one CPU
    /// and one bank; processing nodes get the configured complement.
    pub(crate) fn new(
        cfg: &SystemConfig,
        n: usize,
        total_nodes: usize,
        streams: Vec<Box<dyn InstrStream>>,
    ) -> Self {
        let n_cpus = streams.len();
        let is_io = n >= cfg.nodes;
        let n_banks = if is_io { 1 } else { cfg.l2_banks };
        let cores: Vec<Box<dyn CoreModel>> = (0..n_cpus)
            .map(|_| match cfg.core {
                CoreKind::InOrder(c) => Box::new(InOrderCore::new(c)) as Box<dyn CoreModel>,
                CoreKind::Ooo(c) => Box::new(OooCore::new(c)) as Box<dyn CoreModel>,
            })
            .collect();
        let mut sc = SystemController::new(NodeId(n as u16), n_cpus);
        let peers: Vec<NodeId> = (0..total_nodes)
            .filter(|&m| m != n)
            .map(|m| NodeId(m as u16))
            .collect();
        sc.interconnect_boot(&peers, 1024);
        let mut ras = RasPolicy::new(NodeId(n as u16));
        if cfg.faults.enabled() && cfg.faults.mirror_lines > 0 {
            // Mirror the low lines on every node; `on_home_write` only
            // fires at a line's home, so each node's mirror log covers
            // exactly its own homed slice of the range.
            ras.register_mirrored(LineRange {
                start: LineAddr(0),
                end: LineAddr(cfg.faults.mirror_lines),
            });
        }
        let mut home = HomeEngine::new(NodeId(n as u16), total_nodes);
        home.set_cmi_routes(cfg.cmi_routes);
        Node {
            cpus: CpuCluster::new(cores, streams, cfg.cpu_quantum),
            l1s: L1Set::new(n_cpus, cfg.l1),
            banks: (0..n_banks)
                .map(|b| L2Bank::new(cfg.l2_bank, b as u64, n_banks as u64))
                .collect(),
            bank_srv: (0..n_banks).map(|_| Server::new()).collect(),
            mem: (0..n_banks).map(|_| MemBank::new(cfg.mem)).collect(),
            home,
            remote: RemoteEngine::new(NodeId(n as u16)),
            home_srv: Server::new(),
            remote_srv: Server::new(),
            recovery: EngineRecovery::new(cfg.faults.replay_timeout_cycles),
            ics: Ics::new(cfg.ics),
            sc,
            ras,
        }
    }

    /// The data a read of `line` on memory bank `bank` hands back to the
    /// L2 bank: the line's version and directory summary as they are
    /// now, at the data-return instant, so a write made after the read
    /// was issued shows. Both execution regimes complete reads here.
    pub(crate) fn mem_data(&self, bank: usize, line: LineAddr) -> BankEvent {
        let mb = &self.mem[bank];
        BankEvent::MemData {
            line,
            version: mb.version(line),
            remote: mb.directory(line).summary(),
        }
    }

    /// Run `next` through its L2 bank (against the L1s) or protocol
    /// engine (the home engine against the memory banks' directory),
    /// appending the actions to `bank_out` or `eng_out` in the order the
    /// unit produces them. Both execution regimes run every bank and
    /// engine event here; a caller that reuses the buffers allocates
    /// nothing per event.
    pub(crate) fn handle(
        &mut self,
        next: Next,
        bank_out: &mut Vec<BankAction>,
        eng_out: &mut Vec<EngineAction>,
    ) {
        match next {
            Next::Bank { bank, ev } => self.banks[bank].handle_into(ev, &mut self.l1s, bank_out),
            Next::Home(input) => self.home.handle_into(input, &mut self.mem, eng_out),
            Next::Remote(input) => self.remote.handle_into(input, eng_out),
        }
    }

    /// Write `line`'s `version` to its home memory bank at `t`, and
    /// mirror it when the RAS policy covers the line.
    pub(crate) fn write_home(&mut self, t: SimTime, line: LineAddr, version: u64) {
        let bank = line.bank(self.mem.len());
        self.mem[bank].write(t, line, version);
        self.ras.on_home_write(line, version);
    }
}

/// What a lane reports to the window barrier once it has drained a
/// window: everything the coordinator's stop check and next-window base
/// read of it, so the coordinator never scans a lane's queue or
/// counters, which the lane's worker owns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneSummary {
    /// Instructions retired by the node's CPUs.
    pub(crate) retired: u64,
    /// The node's CPUs that are enabled and not yet done.
    pub(crate) unfinished: usize,
    /// Events popped from the lane's queue.
    pub(crate) popped: u64,
    /// The earliest event left on the lane's queue.
    pub(crate) next: Option<SimTime>,
}

/// One node plus everything the dispatch layer needs to advance it
/// independently of the other nodes: its own event queue, fault plane,
/// version counter, outstanding-request table, reusable action buffers,
/// the outbox that buffers cross-node departures until the next
/// quantum barrier, and the inbox the barrier routes arrivals into.
///
/// A lane is the unit of parallel-in-space execution: inside a quantum
/// a worker thread owns one lane exclusively and touches nothing else,
/// so lanes only need `Send` (they migrate between rounds), never
/// `Sync`. All cross-lane traffic flows through [`Outbox`] and is
/// merged deterministically at the barrier.
pub(crate) struct NodeLane {
    /// This lane's node index (also its partition index).
    pub(crate) index: usize,
    /// The chip itself.
    pub(crate) node: Node,
    /// The lane-local event queue (its sequence numbers are local to
    /// the lane, so lanes never share an allocator).
    pub(crate) events: EventQueue<Ev>,
    /// Cross-node departures buffered inside the current quantum.
    pub(crate) outbox: Outbox<Packet<ProtoMsg>>,
    /// Arrivals the last barrier routed to this node, in merge order,
    /// not yet on the queue. The lane schedules them itself before its
    /// next window; nothing else schedules into the lane in between, so
    /// they take the sequence numbers the barrier would have given them.
    pub(crate) inbox: Vec<(SimTime, NodeId, ProtoMsg)>,
    /// The lane's state as of its last drained window (see
    /// [`LaneSummary`]).
    pub(crate) summary: LaneSummary,
    /// The CPU steps an in-flight drain popped and did not run, in pop
    /// order: `(time, cpu)`.
    pub(crate) steps_aside: Vec<(SimTime, usize)>,
    /// The lane's fault oracle (node 0 owns the scripted schedule; the
    /// rest draw from node-decorrelated random streams).
    pub(crate) faults: FaultPlane,
    /// The lane's open-loop traffic plane (disabled — and PRNG-free —
    /// unless the config enables traffic).
    pub(crate) traffic: TrafficPlane,
    /// Per-core `traffic.nodeN.coreM.txn_latency_ns` histogram handles
    /// (populated by `set_probe` only when traffic is on).
    pub(crate) traffic_hists: Vec<piranha_probe::HistogramHandle>,
    /// Clone of the machine probe (no-op when disabled).
    pub(crate) probe: Probe,
    /// Lane-local version counter; strides by `version_stride` so
    /// stamps stay globally unique without a shared counter.
    pub(crate) versions: u64,
    /// 1 on a single-lane machine (the legacy global numbering), else
    /// the lane count.
    pub(crate) version_stride: u64,
    /// Outstanding CPU requests of this node: (slot, line) → request id.
    pub(crate) outstanding: FastMap<(Slot, LineAddr), u64>,
    /// Instructions retired by this node's CPUs, tracked incrementally.
    pub(crate) instrs_retired: u64,
    /// This node's CPUs that are enabled and not yet done.
    pub(crate) unfinished: usize,
    /// The dispatch work queue of bank/engine actions (see
    /// `NodeLane::run_work`), kept so its allocation is reused.
    pub(crate) work: VecDeque<Item>,
    /// Reusable buffers a CPU step issues its requests into and
    /// [`Node::handle`] appends bank and engine actions to.
    pub(crate) reqs: Vec<(u64, MemReq)>,
    pub(crate) bank_buf: Vec<BankAction>,
    pub(crate) eng_buf: Vec<EngineAction>,
}

impl NodeLane {
    /// Wrap `node` as lane `index` of a `lanes`-wide machine.
    pub(crate) fn new(
        index: usize,
        lanes: usize,
        node: Node,
        faults: FaultPlane,
        traffic: TrafficPlane,
    ) -> Self {
        NodeLane {
            index,
            node,
            events: EventQueue::new(),
            outbox: Outbox::default(),
            inbox: Vec::new(),
            summary: LaneSummary::default(),
            steps_aside: Vec::new(),
            faults,
            traffic,
            traffic_hists: Vec::new(),
            probe: Probe::disabled(),
            versions: index as u64,
            version_stride: lanes as u64,
            outstanding: FastMap::default(),
            instrs_retired: 0,
            unfinished: 0,
            work: VecDeque::new(),
            reqs: Vec::new(),
            bank_buf: Vec::new(),
            eng_buf: Vec::new(),
        }
    }

    /// Run `cpu` up to the cluster quantum — its functional-warming path
    /// with `warm` — appending the requests it issues to `reqs`, and
    /// count what it retired and whether its stream ended. Both
    /// execution regimes step a CPU here. Returns the core's status
    /// (`None`: done or stopped, not run) and the instructions retired.
    pub(crate) fn step_cpu(
        &mut self,
        cpu: usize,
        warm: bool,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> (Option<CoreStatus>, u64) {
        let Node { cpus, l1s, sc, .. } = &mut self.node;
        let before = cpus.core(cpu).stats().instrs;
        let ctx = CpuCtx {
            l1s,
            versions: &mut self.versions,
            version_stride: self.version_stride,
            enabled: sc.cpu_enabled(CpuId(cpu as u8)),
        };
        let status = cpus.step(cpu, warm, ctx, reqs);
        let retired = cpus.core(cpu).stats().instrs - before;
        self.instrs_retired += retired;
        if status == Some(CoreStatus::Done) {
            self.unfinished -= 1;
        }
        (status, retired)
    }

    /// Deliver the fill of `cpu`'s request `id` at core cycle `at_cycle`,
    /// counting the instructions it retires (an out-of-order core
    /// retires the window head a fill completes). Both execution regimes
    /// fill a CPU here.
    pub(crate) fn fill_cpu(&mut self, cpu: usize, id: u64, at_cycle: u64, source: FillSource) {
        let core = self.node.cpus.core_mut(cpu);
        let before = core.stats().instrs;
        core.fill(id, at_cycle, source);
        self.instrs_retired += core.stats().instrs - before;
    }
}

impl std::fmt::Debug for NodeLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeLane")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}
