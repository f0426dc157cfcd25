//! One node (chip) of the machine, assembled from the subsystem
//! component adapters.
//!
//! A node owns exactly the hardware one Piranha chip carries: the CPU
//! cluster with its instruction streams, the cache complex (L1s + L2
//! banks), the memory banks with the in-memory directory, the two
//! protocol engines, the intra-chip switch, the system controller, and
//! the node's RAS policy. The node is pure composition — every behavior
//! lives in a subsystem crate; the dispatch layer routes events between
//! them.

use piranha_types::FastMap;
use std::collections::VecDeque;

use piranha_cache::{BankAction, BankEvent, CacheComplex, CacheEvent, L1Set, L2Bank, Slot};
use piranha_cpu::{CoreModel, CpuAction, CpuCluster, InOrderCore, InstrStream, OooCore};
use piranha_faults::FaultPlane;
use piranha_ics::Ics;
use piranha_kernel::EventQueue;
use piranha_mem::{DirEntry, MemBank};
use piranha_net::Packet;
use piranha_parsim::Outbox;
use piranha_probe::Probe;
use piranha_protocol::coherence::DirStore;
use piranha_protocol::{EngineAction, EngineComplex, EngineEvent, LineRange, ProtoMsg, RasPolicy};
use piranha_traffic::TrafficPlane;
use piranha_types::{LineAddr, NodeId, SimTime};

use crate::config::{CoreKind, SystemConfig};
use crate::dispatch::{Ev, Item};
use crate::sysctl::SystemController;

/// One node (chip) of the machine.
pub(crate) struct Node {
    /// The CPU cluster: cores, streams, done-tracking.
    pub(crate) cpus: CpuCluster,
    /// L1s + L2 banks + bank occupancy.
    pub(crate) caches: CacheComplex,
    /// RDRAM banks + in-memory directory, one per L2 bank and
    /// interleaved like them.
    pub(crate) mem: Vec<MemBank>,
    /// Home/remote protocol engines + occupancy + replay recovery.
    pub(crate) engines: EngineComplex,
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
        let banks: Vec<L2Bank> = (0..n_banks)
            .map(|b| L2Bank::new(cfg.l2_bank, b as u64, n_banks as u64))
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
        Node {
            cpus: CpuCluster::new(cores, streams, cfg.cpu_quantum),
            caches: CacheComplex::new(L1Set::new(n_cpus, cfg.l1), banks),
            mem: (0..n_banks).map(|_| MemBank::new(cfg.mem)).collect(),
            engines: EngineComplex::new(
                NodeId(n as u16),
                total_nodes,
                cfg.cmi_routes,
                cfg.faults.replay_timeout_cycles,
            ),
            ics: Ics::new(cfg.ics),
            sc,
            ras,
        }
    }

    /// The data a read of `line` on memory bank `bank` hands back to the
    /// L2 bank: the line's version and directory summary as they are
    /// now, at the data-return instant, so a write made after the read
    /// was issued shows. Both execution regimes complete reads here.
    pub(crate) fn mem_data(&self, bank: usize, line: LineAddr) -> CacheEvent {
        let mb = &self.mem[bank];
        CacheEvent {
            bank,
            ev: BankEvent::MemData {
                line,
                version: mb.version(line),
                remote: mb.directory(line).summary(),
            },
        }
    }

    /// Run `ev` through the engine complex, with the memory banks as the
    /// home engine's directory store, appending the actions to `out`.
    pub(crate) fn engine_into(&mut self, ev: EngineEvent, out: &mut Vec<EngineAction>) {
        let Node { engines, mem, .. } = self;
        engines.handle_into(ev, &mut NodeDirs { banks: mem }, out);
    }

    /// Write `line`'s `version` to its home memory bank at `t`, and
    /// mirror it when the RAS policy covers the line.
    pub(crate) fn write_home(&mut self, t: SimTime, line: LineAddr, version: u64) {
        let bank = line.bank(self.mem.len());
        self.mem[bank].write(t, line, version);
        self.ras.on_home_write(line, version);
    }
}

/// One node plus everything the dispatch layer needs to advance it
/// independently of the other nodes: its own event queue, fault plane,
/// version counter, outstanding-request table, reusable action buffers,
/// and the outbox that buffers cross-node departures until the next
/// quantum barrier.
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
    /// Reusable action buffers the CPU cluster, the cache complex and
    /// the engine complex append into, one per action type.
    pub(crate) cpu_buf: Vec<CpuAction>,
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
            cpu_buf: Vec::new(),
            bank_buf: Vec::new(),
            eng_buf: Vec::new(),
        }
    }
}

impl std::fmt::Debug for NodeLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeLane")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

/// View of one node's memory banks as the home engine's directory store.
struct NodeDirs<'a> {
    banks: &'a mut [MemBank],
}

impl DirStore for NodeDirs<'_> {
    fn dir(&self, line: LineAddr) -> DirEntry {
        self.banks[line.bank(self.banks.len())].directory(line)
    }
    fn set_dir(&mut self, line: LineAddr, dir: DirEntry) {
        let bank = line.bank(self.banks.len());
        self.banks[bank].set_directory(line, dir);
    }
    fn mem_version(&self, line: LineAddr) -> u64 {
        self.banks[line.bank(self.banks.len())].version(line)
    }
}
