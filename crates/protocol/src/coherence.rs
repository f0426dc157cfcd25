//! The inter-node coherence protocol state machines (paper §2.5.3).
//!
//! An invalidation-based directory protocol with four request types
//! (read, read-exclusive, exclusive/upgrade, exclusive-without-data) and
//! the paper's distinguishing properties:
//!
//! * **No NAKs, no retries.** Deadlock is avoided by lane assignment and
//!   bounded buffering (see `piranha-net`); protocol races are avoided by
//!   guaranteeing forwarded requests can always be serviced: an owner
//!   writing back keeps a valid copy until the home acknowledges
//!   ([`RemoteEngine`] `wbs`), and a forwarded request arriving at a new
//!   owner before its data is stashed in the outstanding TSRF entry
//!   (early-forward race).
//! * **Immediate directory updates for 3-hop writes.** A read-exclusive
//!   forwarded to a remote owner updates the directory on the spot; no
//!   "ownership change" confirmation returns to home, eliminating that
//!   message and its engine occupancy (the DASH comparison in the
//!   paper).
//! * **Clean-exclusive optimization**: a read to an uncached, un-shared
//!   line returns an exclusive copy.
//! * **Reply forwarding**: the remote owner answers the requester
//!   directly.
//! * **Eager exclusive replies**: exclusivity is granted before
//!   invalidations complete; acknowledgements are gathered at the
//!   *requester*.
//! * **Cruise-missile invalidates**: at most [`MAX_CMI_ROUTES`]
//!   invalidation messages are injected per request, each visiting a
//!   chain of nodes, with one acknowledgement per route.
//!
//! One deliberate deviation, recorded in `DESIGN.md`: while a read is
//! forwarded to a remote owner, this implementation keeps the directory
//! in `Exclusive(owner)` and blocks conflicting requests at the home in
//! a pending entry until the owner's sharing write-back freshens memory
//! (the paper instead updates the directory immediately and relies on
//! equivalent pending-entry blocking at the home L2 controller — same
//! serialization, different bookkeeping location).

use std::collections::{HashMap, VecDeque};

use piranha_kernel::Counter;
use piranha_mem::{DirEntry, MemBank, NodeSet};
use piranha_types::{FillSource, LineAddr, NodeId, ReqType};

use crate::msg::{plan_cmi_routes, Grant, ProtoMsg};
use crate::tsrf::Tsrf;

/// Maximum CMI messages injected per request (paper §2.5.3: "limit
/// invalidation messages to a total of 4").
pub const MAX_CMI_ROUTES: usize = 4;

/// Microinstruction cost of handling one engine input, for occupancy
/// accounting (the paper: "typical cache coherence transactions require
/// only a few instructions at each engine").
pub fn occupancy_cycles(input_kind: &str) -> u64 {
    match input_kind {
        "req" => 6,
        "reply" => 4,
        "fwd" => 6,
        "inval" => 4,
        "ack" => 2,
        "wb" => 4,
        "export" => 4,
        _ => 4,
    }
}

/// Read/write access to the directory bits stored with this node's
/// memory (implemented over the node's `piranha-mem` banks below).
pub trait DirStore {
    /// Current directory entry for `line`.
    fn dir(&self, line: LineAddr) -> DirEntry;
    /// Overwrite the directory entry for `line`.
    fn set_dir(&mut self, line: LineAddr, dir: DirEntry);
    /// The data version stored in this node's memory (used when the home
    /// engine answers a local request directly from memory).
    fn mem_version(&self, line: LineAddr) -> u64;
}

/// A node's memory banks, interleaved like its L2 banks
/// ([`LineAddr::bank`]): the directory and data version of a line live in
/// the bank that holds it.
impl DirStore for Vec<MemBank> {
    fn dir(&self, line: LineAddr) -> DirEntry {
        self[line.bank(self.len())].directory(line)
    }
    fn set_dir(&mut self, line: LineAddr, dir: DirEntry) {
        let bank = line.bank(self.len());
        self[bank].set_directory(line, dir);
    }
    fn mem_version(&self, line: LineAddr) -> u64 {
        self[line.bank(self.len())].version(line)
    }
}

impl DirStore for HashMap<LineAddr, DirEntry> {
    fn dir(&self, line: LineAddr) -> DirEntry {
        self.get(&line).cloned().unwrap_or_default()
    }
    fn set_dir(&mut self, line: LineAddr, dir: DirEntry) {
        self.insert(line, dir);
    }
    fn mem_version(&self, _line: LineAddr) -> u64 {
        0
    }
}

/// An action requested by a protocol engine; the chip simulator applies
/// state synchronously and charges the timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineAction {
    /// Send a message over the interconnect.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// Ask the local L2 bank to export the line (data + downgrade or
    /// purge); answered by an `ExportReply` input.
    Export {
        /// The line.
        line: LineAddr,
        /// Whether all local copies must be invalidated.
        excl: bool,
    },
    /// Deliver a fill to the local L2 bank (completes its pending miss).
    Fill {
        /// The line.
        line: LineAddr,
        /// Whether exclusivity was granted.
        excl: bool,
        /// Data version (`None` = data-less upgrade ack).
        version: Option<u64>,
        /// Stall-attribution source.
        source: FillSource,
    },
    /// Invalidate every local copy (CMI hop).
    Purge {
        /// The line.
        line: LineAddr,
    },
    /// Write data to this node's memory (home only).
    MemWrite {
        /// The line.
        line: LineAddr,
        /// Version to store.
        version: u64,
    },
}

/// Inputs to the home engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomeIn {
    /// A protocol message from the interconnect (for a line homed here).
    Msg {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// The local L2 bank granted exclusivity eagerly and needs the
    /// remote sharers invalidated (fire-and-forget).
    LocalInvalRemotes {
        /// The line.
        line: LineAddr,
    },
    /// The local L2 bank found the directory pointing at a remote
    /// exclusive owner and needs the line recalled for a local miss.
    LocalRecall {
        /// The line.
        line: LineAddr,
        /// The local request type.
        req: ReqType,
    },
    /// The local bank answered an earlier [`EngineAction::Export`].
    ExportReply {
        /// The line.
        line: LineAddr,
        /// Data version.
        version: u64,
        /// Whether the node's copy was dirty.
        dirty: bool,
        /// Whether any local copy existed (drives clean-exclusive).
        cached: bool,
    },
}

/// Inputs to the remote engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteIn {
    /// A protocol message from the interconnect (for a line homed
    /// elsewhere).
    Msg {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// The local L2 bank has a miss on a remotely-homed line.
    LocalReq {
        /// The line.
        line: LineAddr,
        /// Request type.
        req: ReqType,
        /// The line's home node.
        home: NodeId,
    },
    /// The local L2 bank evicted a (possibly clean) exclusively-held
    /// line; write it back to its home.
    LocalWb {
        /// The line.
        line: LineAddr,
        /// Data version.
        version: u64,
        /// The line's home node.
        home: NodeId,
    },
    /// The local bank answered an earlier [`EngineAction::Export`]
    /// issued to service a forwarded request.
    ExportReply {
        /// The line.
        line: LineAddr,
        /// Data version.
        version: u64,
        /// Whether the copy was dirty.
        dirty: bool,
        /// Whether any local copy existed.
        cached: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the Await prefix is descriptive
enum HomeTxn {
    /// Waiting for the local bank's export (requester may be self).
    AwaitExport { from: NodeId, kind: ReqType },
    /// A read was forwarded to the remote owner; memory is stale until
    /// its sharing write-back arrives. `reader` joins the sharers then.
    AwaitSharingWb { owner: NodeId, reader: NodeId },
    /// A request arrived from the node the directory still shows as
    /// exclusive owner: its write-back is in flight; wait for it.
    AwaitWb,
    /// A local miss was forwarded to the remote owner; the reply comes
    /// back here and fills the local bank.
    AwaitRecall { kind: ReqType, owner: NodeId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedReq {
    from: NodeId,
    kind: ReqType,
}

/// The home engine: exports memory whose home is this node.
#[derive(Debug)]
pub struct HomeEngine {
    node: NodeId,
    total_nodes: usize,
    max_cmi_routes: usize,
    active: Tsrf<HomeTxn>,
    waiters: HashMap<LineAddr, VecDeque<QueuedReq>>,
    /// Inputs deferred because the TSRF was full.
    overflow: VecDeque<HomeIn>,
    /// Outstanding self-requested invalidation acks (eager local grants).
    self_acks: HashMap<LineAddr, u32>,
    msgs_handled: Counter,
    instr_executed: Counter,
}

impl HomeEngine {
    /// A home engine for `node` in a system of `total_nodes`.
    pub fn new(node: NodeId, total_nodes: usize) -> Self {
        HomeEngine {
            node,
            total_nodes,
            max_cmi_routes: MAX_CMI_ROUTES,
            active: Tsrf::new(),
            waiters: HashMap::new(),
            overflow: VecDeque::new(),
            self_acks: HashMap::new(),
            msgs_handled: Counter::new(),
            instr_executed: Counter::new(),
        }
    }

    /// Messages handled (stats).
    pub fn msgs_handled(&self) -> u64 {
        self.msgs_handled.get()
    }

    /// Microinstructions executed (occupancy stats).
    pub fn instr_executed(&self) -> u64 {
        self.instr_executed.get()
    }

    /// Peak concurrent transactions.
    pub fn tsrf_high_water(&self) -> usize {
        self.active.high_water()
    }

    /// Live TSRF entries and inputs deferred on a full TSRF.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.active.occupied(), self.overflow.len())
    }

    /// Each live transaction (line and state), then each line's queued
    /// requests, `; `-separated: the engine's part of a deadlock report.
    pub fn describe(&self) -> String {
        let mut items: Vec<String> = self
            .active
            .iter()
            .map(|e| format!("{} {:?}", e.line, e.state))
            .collect();
        let mut queued: Vec<_> = self.waiters.iter().filter(|(_, q)| !q.is_empty()).collect();
        queued.sort_unstable_by_key(|(line, _)| **line);
        items.extend(
            queued
                .iter()
                .map(|(line, q)| format!("{line} queued {q:?}")),
        );
        items.join("; ")
    }

    /// Override the CMI route budget (for the cruise-missile-invalidate
    /// ablation: a large value degenerates to one point-to-point
    /// invalidation message per sharer, as in conventional protocols).
    pub fn set_cmi_routes(&mut self, routes: usize) {
        assert!(routes > 0, "need at least one invalidation route");
        self.max_cmi_routes = routes;
    }

    /// Feed one input through the engine, appending the actions to
    /// `out`, so a caller that reuses one buffer allocates nothing per
    /// input.
    pub fn handle_into(
        &mut self,
        input: HomeIn,
        dir: &mut dyn DirStore,
        out: &mut Vec<EngineAction>,
    ) {
        self.msgs_handled.inc();
        match input {
            HomeIn::Msg { from, msg } => self.handle_msg(from, msg, dir, out),
            HomeIn::LocalInvalRemotes { line } => {
                self.instr_executed.add(occupancy_cycles("inval"));
                let targets: Vec<NodeId> = dir
                    .dir(line)
                    .invalidation_targets(self.node, self.total_nodes)
                    .iter()
                    .collect();
                let routes = plan_cmi_routes(&targets, self.max_cmi_routes);
                if !routes.is_empty() {
                    self.self_acks.insert(line, routes.len() as u32);
                }
                for route in routes {
                    out.push(EngineAction::Send {
                        to: route[0],
                        msg: ProtoMsg::Inval {
                            line,
                            route,
                            hop: 0,
                            requester: self.node,
                        },
                    });
                }
                dir.set_dir(line, DirEntry::Uncached);
            }
            HomeIn::LocalRecall { line, req } => {
                // Dispatched exactly like a request from ourselves.
                self.dispatch(self.node, req, line, dir, out);
            }
            HomeIn::ExportReply {
                line,
                version,
                dirty,
                cached,
            } => {
                self.instr_executed.add(occupancy_cycles("export"));
                let Some(HomeTxn::AwaitExport { from, kind }) = self.active.get(line).cloned()
                else {
                    panic!("ExportReply for {line} without an AwaitExport transaction");
                };
                self.active.free(line);
                let was_uncached = matches!(dir.dir(line), DirEntry::Uncached);
                let excl = kind.is_exclusive();
                let grant = if excl || (was_uncached && !cached) {
                    Grant::Exclusive
                } else {
                    Grant::Shared
                };
                if dirty && !excl {
                    // Freshen memory for shared grants; exclusive grants
                    // make memory irrelevant (directory says exclusive).
                    out.push(EngineAction::MemWrite { line, version });
                }
                // Directory update (the home node itself is never listed).
                if from != self.node {
                    match grant {
                        Grant::Exclusive => dir.set_dir(line, DirEntry::Exclusive(from)),
                        Grant::Shared => {
                            let mut s = match dir.dir(line) {
                                DirEntry::Shared(s) => s,
                                _ => NodeSet::new(),
                            };
                            s.insert(from);
                            dir.set_dir(line, DirEntry::Shared(s));
                        }
                    }
                } else if excl {
                    dir.set_dir(line, DirEntry::Uncached);
                }
                // Invalidate remote sharers for exclusive grants.
                let mut acks_expected = 0;
                if excl {
                    let targets: Vec<NodeId> = match dir.dir(line) {
                        DirEntry::Shared(s) => s.iter().filter(|&n| n != from).collect(),
                        _ => Vec::new(),
                    };
                    let routes = plan_cmi_routes(&targets, self.max_cmi_routes);
                    acks_expected = routes.len() as u32;
                    for route in routes {
                        out.push(EngineAction::Send {
                            to: route[0],
                            msg: ProtoMsg::Inval {
                                line,
                                route,
                                hop: 0,
                                requester: from,
                            },
                        });
                    }
                    if from != self.node {
                        dir.set_dir(line, DirEntry::Exclusive(from));
                    } else {
                        dir.set_dir(line, DirEntry::Uncached);
                    }
                }
                self.respond(from, line, grant, Some(version), acks_expected, false, out);
                self.drain(line, dir, out);
            }
        }
    }

    /// Reply to `from`, collapsing self-replies into local fills.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &mut self,
        from: NodeId,
        line: LineAddr,
        grant: Grant,
        version: Option<u64>,
        acks_expected: u32,
        from_owner: bool,
        out: &mut Vec<EngineAction>,
    ) {
        if from == self.node {
            debug_assert_eq!(acks_expected, 0, "self acks tracked separately");
            out.push(EngineAction::Fill {
                line,
                excl: grant == Grant::Exclusive,
                version,
                source: if from_owner {
                    FillSource::RemoteDirty
                } else {
                    FillSource::LocalMem
                },
            });
        } else {
            out.push(EngineAction::Send {
                to: from,
                msg: ProtoMsg::Reply {
                    line,
                    grant,
                    version,
                    acks_expected,
                    from_owner,
                },
            });
        }
    }

    fn handle_msg(
        &mut self,
        from: NodeId,
        msg: ProtoMsg,
        dir: &mut dyn DirStore,
        out: &mut Vec<EngineAction>,
    ) {
        match msg {
            ProtoMsg::Req { kind, line } => {
                self.instr_executed.add(occupancy_cycles("req"));
                self.dispatch(from, kind, line, dir, out);
            }
            ProtoMsg::WriteBack { line, version } => {
                self.instr_executed.add(occupancy_cycles("wb"));
                let is_owner = dir.dir(line) == DirEntry::Exclusive(from);
                out.push(EngineAction::Send {
                    to: from,
                    msg: ProtoMsg::WbAck { line },
                });
                if is_owner {
                    out.push(EngineAction::MemWrite { line, version });
                    if !matches!(self.active.get(line), Some(HomeTxn::AwaitSharingWb { .. })) {
                        dir.set_dir(line, DirEntry::Uncached);
                    }
                }
                // If requests were blocked on this write-back, release
                // them.
                if matches!(self.active.get(line), Some(HomeTxn::AwaitWb)) {
                    self.active.free(line);
                    self.drain(line, dir, out);
                }
            }
            ProtoMsg::SharingWb { line, version } => {
                self.instr_executed.add(occupancy_cycles("wb"));
                out.push(EngineAction::MemWrite { line, version });
                if let Some(HomeTxn::AwaitSharingWb { owner, reader }) =
                    self.active.get(line).cloned()
                {
                    self.active.free(line);
                    let mut s = NodeSet::new();
                    s.insert(owner);
                    if reader != self.node {
                        s.insert(reader);
                    }
                    dir.set_dir(line, DirEntry::Shared(s));
                    self.drain(line, dir, out);
                }
            }
            ProtoMsg::Reply { line, version, .. } => {
                // A recall reply: the remote owner answered the home's
                // own request.
                self.instr_executed.add(occupancy_cycles("reply"));
                let Some(HomeTxn::AwaitRecall { kind, owner }) = self.active.get(line).cloned()
                else {
                    panic!("Reply at home for {line} without an AwaitRecall transaction");
                };
                self.active.free(line);
                let excl = kind.is_exclusive();
                if excl {
                    dir.set_dir(line, DirEntry::Uncached);
                } else {
                    // Owner retains a shared copy; memory freshened below.
                    let mut s = NodeSet::new();
                    s.insert(owner);
                    dir.set_dir(line, DirEntry::Shared(s));
                    out.push(EngineAction::MemWrite {
                        line,
                        version: version.expect("recall reply carries data"),
                    });
                }
                out.push(EngineAction::Fill {
                    line,
                    excl,
                    version,
                    source: FillSource::RemoteDirty,
                });
                self.drain(line, dir, out);
            }
            ProtoMsg::InvalAck { line } => {
                self.instr_executed.add(occupancy_cycles("ack"));
                if let Some(n) = self.self_acks.get_mut(&line) {
                    *n -= 1;
                    if *n == 0 {
                        self.self_acks.remove(&line);
                    }
                }
            }
            other => panic!("home engine received unexpected message {other:?}"),
        }
    }

    /// Serialize-or-start a request transaction for `line`.
    fn dispatch(
        &mut self,
        from: NodeId,
        kind: ReqType,
        line: LineAddr,
        dir: &mut dyn DirStore,
        out: &mut Vec<EngineAction>,
    ) {
        if self.active.get(line).is_some() {
            self.waiters
                .entry(line)
                .or_default()
                .push_back(QueuedReq { from, kind });
            return;
        }
        if from == self.node && !matches!(dir.dir(line), DirEntry::Exclusive(_)) {
            // A local recall that raced with the owner's write-back: the
            // directory no longer points at a remote owner, so memory is
            // valid and the local bank (which still holds its pending
            // entry) is answered straight from it — never through an
            // export, which would deadlock against that pending entry.
            let excl = kind.is_exclusive();
            if excl {
                let targets: Vec<NodeId> = dir
                    .dir(line)
                    .invalidation_targets(self.node, self.total_nodes)
                    .iter()
                    .collect();
                let routes = plan_cmi_routes(&targets, self.max_cmi_routes);
                if !routes.is_empty() {
                    self.self_acks.insert(line, routes.len() as u32);
                }
                for route in routes {
                    out.push(EngineAction::Send {
                        to: route[0],
                        msg: ProtoMsg::Inval {
                            line,
                            route,
                            hop: 0,
                            requester: self.node,
                        },
                    });
                }
                dir.set_dir(line, DirEntry::Uncached);
            }
            out.push(EngineAction::Fill {
                line,
                excl,
                version: Some(dir.mem_version(line)),
                source: FillSource::LocalMem,
            });
            return;
        }
        match dir.dir(line) {
            DirEntry::Uncached | DirEntry::Shared(_) => {
                let excl = kind.is_exclusive();
                // Upgrade with the requester still a sharer needs no data;
                // everything else exports the line from this node (data
                // comes from the local caches or memory).
                if kind == ReqType::Upgrade {
                    if let DirEntry::Shared(s) = dir.dir(line) {
                        if s.contains(from) {
                            // Ack-only path: invalidate the other sharers,
                            // grant in place. Local copies at home must
                            // also be purged.
                            let targets: Vec<NodeId> = s.iter().filter(|&n| n != from).collect();
                            let routes = plan_cmi_routes(&targets, self.max_cmi_routes);
                            let acks = routes.len() as u32;
                            for route in routes {
                                out.push(EngineAction::Send {
                                    to: route[0],
                                    msg: ProtoMsg::Inval {
                                        line,
                                        route,
                                        hop: 0,
                                        requester: from,
                                    },
                                });
                            }
                            out.push(EngineAction::Purge { line });
                            dir.set_dir(line, DirEntry::Exclusive(from));
                            self.respond(from, line, Grant::Exclusive, None, acks, false, out);
                            return;
                        }
                    }
                }
                if self
                    .active
                    .alloc(line, HomeTxn::AwaitExport { from, kind })
                    .is_err()
                {
                    // TSRF full: defer the whole request.
                    self.overflow.push_back(HomeIn::Msg {
                        from,
                        msg: ProtoMsg::Req { kind, line },
                    });
                    return;
                }
                out.push(EngineAction::Export { line, excl });
            }
            DirEntry::Exclusive(owner) if owner == from => {
                // Write-back race: the owner's WriteBack is in flight.
                if self.active.alloc(line, HomeTxn::AwaitWb).is_err() {
                    self.defer(from, kind, line);
                    return;
                }
                self.waiters
                    .entry(line)
                    .or_default()
                    .push_back(QueuedReq { from, kind });
            }
            DirEntry::Exclusive(owner) => {
                let eff_kind = if kind == ReqType::Upgrade {
                    ReqType::ReadEx
                } else {
                    kind
                };
                // Allocate transaction state *before* forwarding: a full
                // TSRF defers the whole request (it retries when an entry
                // frees — deferral, not a NAK: no message is rejected).
                if from == self.node {
                    // Local recall: the reply returns here.
                    if self
                        .active
                        .alloc(
                            line,
                            HomeTxn::AwaitRecall {
                                kind: eff_kind,
                                owner,
                            },
                        )
                        .is_err()
                    {
                        self.overflow
                            .push_back(HomeIn::LocalRecall { line, req: kind });
                        return;
                    }
                } else if eff_kind == ReqType::Read {
                    // Block until the sharing write-back freshens memory.
                    if self
                        .active
                        .alloc(
                            line,
                            HomeTxn::AwaitSharingWb {
                                owner,
                                reader: from,
                            },
                        )
                        .is_err()
                    {
                        self.defer(from, kind, line);
                        return;
                    }
                } else {
                    // 3-hop write: directory final immediately, no
                    // confirmation, no pending entry (the paper's key
                    // occupancy saving).
                    dir.set_dir(line, DirEntry::Exclusive(from));
                }
                out.push(EngineAction::Send {
                    to: owner,
                    msg: ProtoMsg::Fwd {
                        kind: eff_kind,
                        line,
                        requester: from,
                        home: self.node,
                    },
                });
            }
        }
    }

    /// Defer a request because the TSRF is full.
    fn defer(&mut self, from: NodeId, kind: ReqType, line: LineAddr) {
        self.overflow.push_back(HomeIn::Msg {
            from,
            msg: ProtoMsg::Req { kind, line },
        });
    }

    /// Replay queued requests after a transaction completes.
    fn drain(&mut self, line: LineAddr, dir: &mut dyn DirStore, out: &mut Vec<EngineAction>) {
        // Retry TSRF-overflowed inputs first (cheap, usually empty).
        if !self.overflow.is_empty() && !self.active.is_full() {
            let deferred: Vec<HomeIn> = self.overflow.drain(..).collect();
            for d in deferred {
                self.handle_into(d, dir, out);
            }
        }
        while self.active.get(line).is_none() {
            let Some(w) = self.waiters.get_mut(&line).and_then(|q| q.pop_front()) else {
                break;
            };
            self.dispatch(w.from, w.kind, line, dir, out);
        }
        if self.waiters.get(&line).is_some_and(|q| q.is_empty()) {
            self.waiters.remove(&line);
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RemoteTxn {
    kind: ReqType,
    home: NodeId,
    filled: bool,
    acks_expected: u32,
    acks_got: u32,
    stashed_fwd: Option<(ReqType, NodeId, NodeId)>, // (kind, requester, home)
}

/// The remote engine: imports memory homed at other nodes.
#[derive(Debug)]
pub struct RemoteEngine {
    node: NodeId,
    txns: Tsrf<RemoteTxn>,
    /// Write-backs awaiting acknowledgement; the retained version
    /// services forwarded requests (the write-back race solution).
    wbs: HashMap<LineAddr, u64>,
    /// Forwarded requests being serviced via a local export.
    fwd_pending: HashMap<LineAddr, (ReqType, NodeId, NodeId)>,
    /// Requests deferred because the TSRF was full.
    overflow: VecDeque<(LineAddr, ReqType, NodeId)>,
    msgs_handled: Counter,
    instr_executed: Counter,
}

impl RemoteEngine {
    /// A remote engine for `node`.
    pub fn new(node: NodeId) -> Self {
        RemoteEngine {
            node,
            txns: Tsrf::new(),
            wbs: HashMap::new(),
            fwd_pending: HashMap::new(),
            overflow: VecDeque::new(),
            msgs_handled: Counter::new(),
            instr_executed: Counter::new(),
        }
    }

    /// Messages handled (stats).
    pub fn msgs_handled(&self) -> u64 {
        self.msgs_handled.get()
    }

    /// Microinstructions executed (occupancy stats).
    pub fn instr_executed(&self) -> u64 {
        self.instr_executed.get()
    }

    /// Peak concurrent transactions.
    pub fn tsrf_high_water(&self) -> usize {
        self.txns.high_water()
    }

    /// Live TSRF entries and requests deferred on a full TSRF.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.txns.occupied(), self.overflow.len())
    }

    /// Each live transaction (line and state), `; `-separated: the
    /// engine's part of a deadlock report.
    pub fn describe(&self) -> String {
        let items: Vec<String> = self
            .txns
            .iter()
            .map(|e| format!("{} {:?}", e.line, e.state))
            .collect();
        items.join("; ")
    }

    /// Feed one input through the engine, appending the actions to
    /// `out`, so a caller that reuses one buffer allocates nothing per
    /// input.
    pub fn handle_into(&mut self, input: RemoteIn, out: &mut Vec<EngineAction>) {
        self.msgs_handled.inc();
        match input {
            RemoteIn::LocalReq { line, req, home } => {
                self.instr_executed.add(occupancy_cycles("req"));
                let txn = RemoteTxn {
                    kind: req,
                    home,
                    filled: false,
                    acks_expected: 0,
                    acks_got: 0,
                    stashed_fwd: None,
                };
                if self.txns.alloc(line, txn).is_err() {
                    self.overflow.push_back((line, req, home));
                    return;
                }
                out.push(EngineAction::Send {
                    to: home,
                    msg: ProtoMsg::Req { kind: req, line },
                });
            }
            RemoteIn::LocalWb {
                line,
                version,
                home,
            } => {
                self.instr_executed.add(occupancy_cycles("wb"));
                self.wbs.insert(line, version);
                out.push(EngineAction::Send {
                    to: home,
                    msg: ProtoMsg::WriteBack { line, version },
                });
            }
            RemoteIn::Msg { from, msg } => self.handle_msg(from, msg, out),
            RemoteIn::ExportReply {
                line,
                version,
                dirty,
                cached: _,
            } => {
                self.instr_executed.add(occupancy_cycles("export"));
                let (kind, requester, home) = self
                    .fwd_pending
                    .remove(&line)
                    .expect("ExportReply without a pending forwarded request");
                self.reply_to_fwd(line, kind, requester, home, version, dirty, out);
            }
        }
    }

    /// Answer a forwarded request with data version `version`.
    #[allow(clippy::too_many_arguments)]
    fn reply_to_fwd(
        &mut self,
        line: LineAddr,
        kind: ReqType,
        requester: NodeId,
        home: NodeId,
        version: u64,
        _dirty: bool,
        out: &mut Vec<EngineAction>,
    ) {
        let grant = if kind.is_exclusive() {
            Grant::Exclusive
        } else {
            Grant::Shared
        };
        out.push(EngineAction::Send {
            to: requester,
            msg: ProtoMsg::Reply {
                line,
                grant,
                version: Some(version),
                acks_expected: 0,
                from_owner: true,
            },
        });
        // For reads, freshen the home's memory — unless the requester
        // *is* the home, in which case the reply itself does it.
        if !kind.is_exclusive() && requester != home {
            out.push(EngineAction::Send {
                to: home,
                msg: ProtoMsg::SharingWb { line, version },
            });
        }
    }

    fn handle_msg(&mut self, from: NodeId, msg: ProtoMsg, out: &mut Vec<EngineAction>) {
        let _ = from;
        match msg {
            ProtoMsg::Reply {
                line,
                grant,
                version,
                acks_expected,
                from_owner,
            } => {
                self.instr_executed.add(occupancy_cycles("reply"));
                let txn = self
                    .txns
                    .get_mut(line)
                    .expect("reply without outstanding request");
                txn.filled = true;
                txn.acks_expected = acks_expected;
                let stashed = txn.stashed_fwd.take();
                out.push(EngineAction::Fill {
                    line,
                    excl: grant == Grant::Exclusive,
                    version,
                    source: if from_owner {
                        FillSource::RemoteDirty
                    } else {
                        FillSource::RemoteMem
                    },
                });
                // Early-forward race: service the parked request now that
                // the data has arrived (the fill above is applied first).
                if let Some((k, requester, home)) = stashed {
                    out.push(EngineAction::Export {
                        line,
                        excl: k.is_exclusive(),
                    });
                    self.fwd_pending.insert(line, (k, requester, home));
                }
                self.maybe_complete(line, out);
            }
            ProtoMsg::Fwd {
                kind,
                line,
                requester,
                home,
            } => {
                self.instr_executed.add(occupancy_cycles("fwd"));
                if let Some(&version) = self.wbs.get(&line) {
                    // Write-back race: serve from the retained copy.
                    self.reply_to_fwd(line, kind, requester, home, version, true, out);
                    return;
                }
                if let Some(txn) = self.txns.get_mut(line) {
                    if !txn.filled {
                        // Early forward: our own data has not arrived yet;
                        // park it in the TSRF entry (at most one can
                        // exist, paper footnote 3).
                        assert!(
                            txn.stashed_fwd.is_none(),
                            "protocol allows only one early forwarded request"
                        );
                        txn.stashed_fwd = Some((kind, requester, home));
                        return;
                    }
                }
                // Normal case: we own the line on-chip; export it.
                out.push(EngineAction::Export {
                    line,
                    excl: kind.is_exclusive(),
                });
                self.fwd_pending.insert(line, (kind, requester, home));
            }
            ProtoMsg::Inval {
                line,
                route,
                hop,
                requester,
            } => {
                self.instr_executed.add(occupancy_cycles("inval"));
                out.push(EngineAction::Purge { line });
                let next = hop + 1;
                if (next as usize) < route.len() {
                    out.push(EngineAction::Send {
                        to: route[next as usize],
                        msg: ProtoMsg::Inval {
                            line,
                            route,
                            hop: next,
                            requester,
                        },
                    });
                } else {
                    out.push(EngineAction::Send {
                        to: requester,
                        msg: ProtoMsg::InvalAck { line },
                    });
                }
            }
            ProtoMsg::InvalAck { line } => {
                self.instr_executed.add(occupancy_cycles("ack"));
                let txn = self
                    .txns
                    .get_mut(line)
                    .expect("ack without outstanding request");
                txn.acks_got += 1;
                self.maybe_complete(line, out);
            }
            ProtoMsg::WbAck { line } => {
                self.instr_executed.add(occupancy_cycles("ack"));
                let removed = self.wbs.remove(&line);
                debug_assert!(removed.is_some(), "WbAck without pending write-back");
            }
            other => panic!("remote engine received unexpected message {other:?}"),
        }
    }

    /// Free the TSRF entry when the transaction is fully complete and
    /// retry anything deferred on a full TSRF.
    fn maybe_complete(&mut self, line: LineAddr, out: &mut Vec<EngineAction>) {
        let done = self
            .txns
            .get(line)
            .is_some_and(|t| t.filled && t.acks_got >= t.acks_expected && t.stashed_fwd.is_none());
        if done {
            self.txns.free(line);
            if let Some((l, r, h)) = self.overflow.pop_front() {
                self.handle_into(
                    RemoteIn::LocalReq {
                        line: l,
                        req: r,
                        home: h,
                    },
                    out,
                );
            }
        }
    }

    /// Whether this engine's node currently has an unacknowledged
    /// write-back for `line` (test hook).
    pub fn wb_in_flight(&self, line: LineAddr) -> bool {
        self.wbs.contains_key(&line)
    }

    /// The node this engine belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(64);
    const HOME: NodeId = NodeId(0);
    const R1: NodeId = NodeId(1);
    const R2: NodeId = NodeId(2);

    fn dir_map() -> HashMap<LineAddr, DirEntry> {
        HashMap::new()
    }

    /// Feed one input through `home`, returning its actions.
    fn home_in(home: &mut HomeEngine, input: HomeIn, dir: &mut dyn DirStore) -> Vec<EngineAction> {
        let mut out = Vec::new();
        home.handle_into(input, dir, &mut out);
        out
    }

    /// Feed one input through `eng`, returning its actions.
    fn remote_in(eng: &mut RemoteEngine, input: RemoteIn) -> Vec<EngineAction> {
        let mut out = Vec::new();
        eng.handle_into(input, &mut out);
        out
    }

    fn send_of(actions: &[EngineAction]) -> Vec<(NodeId, ProtoMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn remote_read_uncached_gets_clean_exclusive() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: L,
                },
            },
            &mut dir,
        );
        assert_eq!(
            acts,
            vec![EngineAction::Export {
                line: L,
                excl: false
            }]
        );
        let acts = home_in(
            &mut home,
            HomeIn::ExportReply {
                line: L,
                version: 5,
                dirty: false,
                cached: false,
            },
            &mut dir,
        );
        let sends = send_of(&acts);
        assert_eq!(
            sends,
            vec![(
                R1,
                ProtoMsg::Reply {
                    line: L,
                    grant: Grant::Exclusive, // clean-exclusive optimization
                    version: Some(5),
                    acks_expected: 0,
                    from_owner: false,
                }
            )]
        );
        assert_eq!(dir.dir(L), DirEntry::Exclusive(R1));
    }

    #[test]
    fn read_with_home_cached_copy_grants_shared() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: L,
                },
            },
            &mut dir,
        );
        let acts = home_in(
            &mut home,
            HomeIn::ExportReply {
                line: L,
                version: 5,
                dirty: true,
                cached: true,
            },
            &mut dir,
        );
        assert!(acts.contains(&EngineAction::MemWrite {
            line: L,
            version: 5
        }));
        let sends = send_of(&acts);
        assert!(matches!(
            &sends[0].1,
            ProtoMsg::Reply {
                grant: Grant::Shared,
                version: Some(5),
                ..
            }
        ));
        let DirEntry::Shared(s) = dir.dir(L) else {
            panic!("dir should be Shared")
        };
        assert!(s.contains(R1));
    }

    #[test]
    fn three_hop_write_updates_directory_immediately() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        dir.set_dir(L, DirEntry::Exclusive(R1));
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R2,
                msg: ProtoMsg::Req {
                    kind: ReqType::ReadEx,
                    line: L,
                },
            },
            &mut dir,
        );
        let sends = send_of(&acts);
        assert_eq!(
            sends,
            vec![(
                R1,
                ProtoMsg::Fwd {
                    kind: ReqType::ReadEx,
                    line: L,
                    requester: R2,
                    home: HOME
                }
            )]
        );
        // Directory final immediately; no pending entry blocks the line.
        assert_eq!(dir.dir(L), DirEntry::Exclusive(R2));
        assert_eq!(
            home.tsrf_high_water(),
            0,
            "no confirmation wait for 3-hop writes"
        );
    }

    #[test]
    fn forwarded_read_blocks_until_sharing_writeback() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        dir.set_dir(L, DirEntry::Exclusive(R1));
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R2,
                msg: ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: L,
                },
            },
            &mut dir,
        );
        assert!(matches!(
            send_of(&acts)[0].1,
            ProtoMsg::Fwd {
                kind: ReqType::Read,
                ..
            }
        ));
        // A third node's read queues at home meanwhile.
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: NodeId(3),
                msg: ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: L,
                },
            },
            &mut dir,
        );
        assert!(acts.is_empty(), "conflicting request must queue: {acts:?}");
        assert_eq!(home.occupancy(), (1, 0), "queued per line, not deferred");
        let state = home.describe();
        assert!(
            state.contains("AwaitSharingWb") && state.contains("queued [QueuedReq"),
            "{state}"
        );
        // Sharing write-back arrives: memory freshened, both sharers
        // recorded, queued request replayed.
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::SharingWb {
                    line: L,
                    version: 9,
                },
            },
            &mut dir,
        );
        assert!(acts.contains(&EngineAction::MemWrite {
            line: L,
            version: 9
        }));
        assert!(
            acts.contains(&EngineAction::Export {
                line: L,
                excl: false
            }),
            "queued read replays: {acts:?}"
        );
        let DirEntry::Shared(s) = dir.dir(L) else {
            panic!()
        };
        assert!(s.contains(R1) && s.contains(R2));
    }

    #[test]
    fn upgrade_with_sharers_is_ack_only_with_cmi() {
        let mut home = HomeEngine::new(HOME, 8);
        let mut dir = dir_map();
        let sharers: NodeSet = [R1, R2, NodeId(3), NodeId(4), NodeId(5)]
            .into_iter()
            .collect();
        dir.set_dir(L, DirEntry::Shared(sharers));
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::Req {
                    kind: ReqType::Upgrade,
                    line: L,
                },
            },
            &mut dir,
        );
        let sends = send_of(&acts);
        // 4 sharers to invalidate, within the 4-route CMI budget.
        let invals: Vec<_> = sends
            .iter()
            .filter(|(_, m)| matches!(m, ProtoMsg::Inval { .. }))
            .collect();
        assert_eq!(invals.len(), 4);
        let reply = sends
            .iter()
            .find_map(|(to, m)| match m {
                ProtoMsg::Reply {
                    version,
                    acks_expected,
                    grant,
                    ..
                } => Some((*to, *version, *acks_expected, *grant)),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            reply,
            (R1, None, 4, Grant::Exclusive),
            "data-less eager reply"
        );
        assert_eq!(dir.dir(L), DirEntry::Exclusive(R1));
        assert!(
            acts.contains(&EngineAction::Purge { line: L }),
            "home copies purged"
        );
    }

    #[test]
    fn upgrade_race_falls_back_to_full_data() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        // R1 was invalidated by R2's earlier ReadEx; dir no longer lists
        // R1 when its upgrade arrives.
        dir.set_dir(L, DirEntry::Exclusive(R2));
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::Req {
                    kind: ReqType::Upgrade,
                    line: L,
                },
            },
            &mut dir,
        );
        // Treated as ReadEx: forwarded to the owner with data semantics.
        assert!(matches!(
            send_of(&acts)[0].1,
            ProtoMsg::Fwd {
                kind: ReqType::ReadEx,
                ..
            }
        ));
        assert_eq!(dir.dir(L), DirEntry::Exclusive(R1));
    }

    #[test]
    fn writeback_race_request_from_stale_owner_blocks_until_wb() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        dir.set_dir(L, DirEntry::Exclusive(R1));
        // R1 wrote the line back (message in flight) and re-requests.
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: L,
                },
            },
            &mut dir,
        );
        assert!(acts.is_empty(), "blocked awaiting the in-flight write-back");
        // The write-back lands: ack + memory write + the request replays.
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::WriteBack {
                    line: L,
                    version: 7,
                },
            },
            &mut dir,
        );
        assert!(acts.contains(&EngineAction::MemWrite {
            line: L,
            version: 7
        }));
        assert!(send_of(&acts).contains(&(R1, ProtoMsg::WbAck { line: L })));
        assert!(acts.contains(&EngineAction::Export {
            line: L,
            excl: false
        }));
    }

    #[test]
    fn stale_writeback_after_forward_is_acked_and_dropped() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        dir.set_dir(L, DirEntry::Exclusive(R2)); // already re-assigned
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::WriteBack {
                    line: L,
                    version: 3,
                },
            },
            &mut dir,
        );
        assert!(send_of(&acts).contains(&(R1, ProtoMsg::WbAck { line: L })));
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, EngineAction::MemWrite { .. })),
            "stale data discarded"
        );
        assert_eq!(dir.dir(L), DirEntry::Exclusive(R2));
    }

    #[test]
    fn local_recall_for_read_fills_bank_and_keeps_owner_shared() {
        let mut home = HomeEngine::new(HOME, 4);
        let mut dir = dir_map();
        dir.set_dir(L, DirEntry::Exclusive(R1));
        let acts = home_in(
            &mut home,
            HomeIn::LocalRecall {
                line: L,
                req: ReqType::Read,
            },
            &mut dir,
        );
        assert_eq!(
            send_of(&acts),
            vec![(
                R1,
                ProtoMsg::Fwd {
                    kind: ReqType::Read,
                    line: L,
                    requester: HOME,
                    home: HOME
                }
            )]
        );
        let acts = home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::Reply {
                    line: L,
                    grant: Grant::Shared,
                    version: Some(11),
                    acks_expected: 0,
                    from_owner: true,
                },
            },
            &mut dir,
        );
        assert!(acts.contains(&EngineAction::MemWrite {
            line: L,
            version: 11
        }));
        assert!(acts.contains(&EngineAction::Fill {
            line: L,
            excl: false,
            version: Some(11),
            source: FillSource::RemoteDirty,
        }));
        let DirEntry::Shared(s) = dir.dir(L) else {
            panic!()
        };
        assert!(
            s.contains(R1) && !s.contains(HOME),
            "home never appears in its own directory"
        );
    }

    #[test]
    fn local_inval_remotes_clears_directory_and_fires_cmi() {
        let mut home = HomeEngine::new(HOME, 8);
        let mut dir = dir_map();
        dir.set_dir(L, DirEntry::Shared([R1, R2].into_iter().collect()));
        let acts = home_in(&mut home, HomeIn::LocalInvalRemotes { line: L }, &mut dir);
        let invals = send_of(&acts);
        assert_eq!(invals.len(), 2);
        assert_eq!(dir.dir(L), DirEntry::Uncached);
        // Acks return quietly.
        home_in(
            &mut home,
            HomeIn::Msg {
                from: R1,
                msg: ProtoMsg::InvalAck { line: L },
            },
            &mut dir,
        );
        home_in(
            &mut home,
            HomeIn::Msg {
                from: R2,
                msg: ProtoMsg::InvalAck { line: L },
            },
            &mut dir,
        );
        assert!(home.self_acks.is_empty());
    }

    // ---- Remote engine ----

    #[test]
    fn local_request_sends_to_home_and_fill_completes() {
        let mut eng = RemoteEngine::new(R1);
        let acts = remote_in(
            &mut eng,
            RemoteIn::LocalReq {
                line: L,
                req: ReqType::Read,
                home: HOME,
            },
        );
        assert_eq!(
            send_of(&acts),
            vec![(
                HOME,
                ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: L
                }
            )]
        );
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Reply {
                    line: L,
                    grant: Grant::Shared,
                    version: Some(4),
                    acks_expected: 0,
                    from_owner: false,
                },
            },
        );
        assert_eq!(
            acts,
            vec![EngineAction::Fill {
                line: L,
                excl: false,
                version: Some(4),
                source: FillSource::RemoteMem,
            }]
        );
        assert_eq!(eng.txns.occupied(), 0, "transaction complete");
    }

    #[test]
    fn eager_exclusive_holds_tsrf_until_acks() {
        let mut eng = RemoteEngine::new(R1);
        remote_in(
            &mut eng,
            RemoteIn::LocalReq {
                line: L,
                req: ReqType::ReadEx,
                home: HOME,
            },
        );
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Reply {
                    line: L,
                    grant: Grant::Exclusive,
                    version: Some(4),
                    acks_expected: 2,
                    from_owner: false,
                },
            },
        );
        assert!(
            matches!(acts[0], EngineAction::Fill { excl: true, .. }),
            "data usable eagerly"
        );
        assert_eq!(eng.txns.occupied(), 1, "awaiting invalidation acks");
        remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: R2,
                msg: ProtoMsg::InvalAck { line: L },
            },
        );
        assert_eq!(eng.txns.occupied(), 1);
        remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: NodeId(3),
                msg: ProtoMsg::InvalAck { line: L },
            },
        );
        assert_eq!(eng.txns.occupied(), 0);
    }

    #[test]
    fn forwarded_request_serviced_via_export() {
        let mut eng = RemoteEngine::new(R1);
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Fwd {
                    kind: ReqType::Read,
                    line: L,
                    requester: R2,
                    home: HOME,
                },
            },
        );
        assert_eq!(
            acts,
            vec![EngineAction::Export {
                line: L,
                excl: false
            }]
        );
        let acts = remote_in(
            &mut eng,
            RemoteIn::ExportReply {
                line: L,
                version: 9,
                dirty: true,
                cached: true,
            },
        );
        let sends = send_of(&acts);
        assert!(sends.contains(&(
            R2,
            ProtoMsg::Reply {
                line: L,
                grant: Grant::Shared,
                version: Some(9),
                acks_expected: 0,
                from_owner: true,
            }
        )));
        assert!(sends.contains(&(
            HOME,
            ProtoMsg::SharingWb {
                line: L,
                version: 9
            }
        )));
    }

    #[test]
    fn forward_to_home_requester_skips_sharing_writeback() {
        let mut eng = RemoteEngine::new(R1);
        remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Fwd {
                    kind: ReqType::Read,
                    line: L,
                    requester: HOME,
                    home: HOME,
                },
            },
        );
        let acts = remote_in(
            &mut eng,
            RemoteIn::ExportReply {
                line: L,
                version: 9,
                dirty: true,
                cached: true,
            },
        );
        let sends = send_of(&acts);
        assert_eq!(
            sends.len(),
            1,
            "single reply, no separate SharingWb: {sends:?}"
        );
        assert_eq!(sends[0].0, HOME);
    }

    #[test]
    fn early_forward_parks_in_tsrf_until_data_arrives() {
        let mut eng = RemoteEngine::new(R1);
        remote_in(
            &mut eng,
            RemoteIn::LocalReq {
                line: L,
                req: ReqType::ReadEx,
                home: HOME,
            },
        );
        // Home granted us exclusivity and immediately forwarded R2's
        // request; the forward overtakes our data reply.
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Fwd {
                    kind: ReqType::ReadEx,
                    line: L,
                    requester: R2,
                    home: HOME,
                },
            },
        );
        assert!(acts.is_empty(), "forward parked: {acts:?}");
        // Our data arrives: fill locally, then service the parked
        // forward.
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Reply {
                    line: L,
                    grant: Grant::Exclusive,
                    version: Some(6),
                    acks_expected: 0,
                    from_owner: false,
                },
            },
        );
        assert!(matches!(acts[0], EngineAction::Fill { .. }));
        assert!(matches!(
            acts[1],
            EngineAction::Export {
                line: _,
                excl: true
            }
        ));
    }

    #[test]
    fn writeback_race_served_from_retained_copy() {
        let mut eng = RemoteEngine::new(R1);
        remote_in(
            &mut eng,
            RemoteIn::LocalWb {
                line: L,
                version: 12,
                home: HOME,
            },
        );
        assert!(eng.wb_in_flight(L));
        // A forward crosses our write-back: serve it from the retained
        // version without touching the (already evicted) caches.
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Fwd {
                    kind: ReqType::ReadEx,
                    line: L,
                    requester: R2,
                    home: HOME,
                },
            },
        );
        let sends = send_of(&acts);
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            &sends[0].1,
            ProtoMsg::Reply {
                version: Some(12),
                from_owner: true,
                grant: Grant::Exclusive,
                ..
            }
        ));
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, EngineAction::Export { .. })),
            "no local export needed"
        );
        remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::WbAck { line: L },
            },
        );
        assert!(!eng.wb_in_flight(L));
    }

    #[test]
    fn cmi_chain_hops_and_final_ack() {
        let mut eng = RemoteEngine::new(R1);
        let route = vec![R1, R2, NodeId(3)];
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Inval {
                    line: L,
                    route: route.clone(),
                    hop: 0,
                    requester: NodeId(7),
                },
            },
        );
        assert!(acts.contains(&EngineAction::Purge { line: L }));
        assert_eq!(
            send_of(&acts),
            vec![(
                R2,
                ProtoMsg::Inval {
                    line: L,
                    route: route.clone(),
                    hop: 1,
                    requester: NodeId(7)
                }
            )]
        );
        // The last node in the route acks the requester.
        let mut last = RemoteEngine::new(NodeId(3));
        let acts = remote_in(
            &mut last,
            RemoteIn::Msg {
                from: R2,
                msg: ProtoMsg::Inval {
                    line: L,
                    route,
                    hop: 2,
                    requester: NodeId(7),
                },
            },
        );
        assert_eq!(
            send_of(&acts),
            vec![(NodeId(7), ProtoMsg::InvalAck { line: L })]
        );
    }

    #[test]
    fn tsrf_overflow_defers_and_retries() {
        let mut eng = RemoteEngine::new(R1);
        for i in 0..16u64 {
            remote_in(
                &mut eng,
                RemoteIn::LocalReq {
                    line: LineAddr(i),
                    req: ReqType::Read,
                    home: HOME,
                },
            );
        }
        // 17th defers.
        let acts = remote_in(
            &mut eng,
            RemoteIn::LocalReq {
                line: LineAddr(99),
                req: ReqType::Read,
                home: HOME,
            },
        );
        assert!(acts.is_empty());
        assert_eq!(eng.occupancy(), (16, 1), "full TSRF, one deferred");
        assert!(eng.describe().starts_with("L0x0 RemoteTxn"));
        // Completing one transaction releases the deferred request.
        let acts = remote_in(
            &mut eng,
            RemoteIn::Msg {
                from: HOME,
                msg: ProtoMsg::Reply {
                    line: LineAddr(0),
                    grant: Grant::Shared,
                    version: Some(1),
                    acks_expected: 0,
                    from_owner: false,
                },
            },
        );
        assert!(
            send_of(&acts).contains(&(
                HOME,
                ProtoMsg::Req {
                    kind: ReqType::Read,
                    line: LineAddr(99)
                }
            )),
            "deferred request sent after completion: {acts:?}"
        );
        assert_eq!(eng.occupancy(), (16, 0), "the retry took the freed entry");
    }
}
