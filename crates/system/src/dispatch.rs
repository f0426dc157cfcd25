//! Event dispatch: routing between the node's units.
//!
//! This is the only layer that knows how a chip's units connect. Each
//! arm of [`NodeLane::dispatch`] runs one unit: a CPU through
//! [`NodeLane::step_cpu`] or [`NodeLane::fill_cpu`], an L2 bank or a
//! protocol engine through `Node::handle`, or a memory bank's read
//! return through `Node::mem_data`. It then routes the actions the unit
//! appended to a lane-owned buffer, in the order it produced them. It
//! contains **no subsystem logic** of its own. The two cross-cutting
//! concerns the paper treats as system-level — fault injection/recovery
//! (§2.7) and observability — are applied here, uniformly where the
//! actions are routed, so no subsystem crate knows they exist.
//!
//! One router serves both execution regimes. [`NodeLane::route_bank`]
//! and [`NodeLane::route_engine`] turn a bank or engine action into the
//! follow-on event it causes on the node (a [`Next`]), or apply a
//! home-memory write in place. Detailed dispatch (`run_work`) and
//! functional warming (`warm.rs`) keep only what they time differently —
//! `Grant`, `ReadMem` and `Send`, plus the detailed ICS charges — and
//! each runs the `Next` through `Node::handle` in its own order:
//! detailed dispatch at once, warming through its FIFO.
//!
//! Dispatch is written against one `NodeLane` at a time so nodes can
//! advance on independent worker threads: everything a handler touches
//! lives on the lane, and the single cross-node path (a protocol
//! engine's `Send`) buffers a packet into the lane's outbox instead of
//! touching another node's queue. At the next quantum barrier
//! [`NetPath::route_departures`] routes the buffered packets through the
//! shared network into each destination lane's inbox, which that lane
//! queues itself; [`NetPath::route`] also enforces the
//! conservative-lookahead invariant every cross-node delivery must
//! respect.

use piranha_cache::{BankAction, BankEvent, Mesi, Slot};
use piranha_cpu::{CoreStatus, MemReq};
use piranha_faults::{FaultKind, FaultPlane};
use piranha_ics::TransferSize;
use piranha_mem::Scrub;
use piranha_net::{crc32, flip_bit, Network, Packet, PacketKind};
use piranha_probe::{Probe, TraceLevel};
use piranha_protocol::coherence::occupancy_cycles;
use piranha_protocol::{EngineAction, HomeIn, ProtoMsg, RemoteIn};
use piranha_types::{CpuId, Duration, FillSource, Lane, LineAddr, NodeId, SimTime};

use crate::config::SystemConfig;
use crate::node::{LaneSummary, NodeLane};
use crate::wiring::{track_base, TRACK_BANK, TRACK_HOME, TRACK_MEM, TRACK_NET, TRACK_REMOTE};

/// An event on a lane's queue. The handling node is the lane's own, so
/// events name only the in-node target.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// Let CPU `cpu` execute up to its quantum.
    Step { cpu: usize },
    /// Complete CPU `cpu`'s outstanding request `id`, served from
    /// `source`.
    Fill {
        cpu: usize,
        id: u64,
        source: FillSource,
    },
    /// Run `ev` through L2 bank `bank`.
    Bank { bank: usize, ev: BankEvent },
    /// A memory read's critical word is available: memory bank `bank`
    /// returns `line`.
    MemRead { bank: usize, line: LineAddr },
    /// A protocol message arrives at the node.
    NetMsg { from: NodeId, msg: ProtoMsg },
}

/// A unit of synchronous follow-on work inside one detailed dispatch.
pub(crate) enum Item {
    Bank(BankAction),
    Eng(EngineAction),
}

/// The follow-on event a routed action causes on its own node, run by
/// `Node::handle`. The caller runs it in its regime's order: detailed
/// dispatch at once, functional warming through its FIFO.
pub(crate) enum Next {
    /// Run `ev` through L2 bank `bank`.
    Bank { bank: usize, ev: BankEvent },
    /// Run the home (directory-side) engine.
    Home(HomeIn),
    /// Run the remote (requester-side) engine.
    Remote(RemoteIn),
}

impl Next {
    /// A protocol message `msg` from `from` arriving at a node: the home
    /// engine takes it when the node homes the message's line
    /// (`is_home`), the remote engine otherwise.
    pub(crate) fn arrival(is_home: bool, from: NodeId, msg: ProtoMsg) -> Next {
        if is_home {
            Next::Home(HomeIn::Msg { from, msg })
        } else {
            Next::Remote(RemoteIn::Msg { from, msg })
        }
    }
}

/// Convert a CPU cycle number to simulated time under `cfg`'s clock.
pub(crate) fn cycle_to_time(cfg: &SystemConfig, cycle: u64) -> SimTime {
    SimTime::ZERO + cfg.cpu_clock.cycles_dur(cycle)
}

/// Convert simulated time to a CPU cycle number under `cfg`'s clock.
pub(crate) fn time_to_cycle(cfg: &SystemConfig, t: SimTime) -> u64 {
    cfg.cpu_clock.cycles(t.since(SimTime::ZERO))
}

/// The read-only machine facts every lane needs while it advances:
/// the configuration and the line-interleaving geometry. Shared by all
/// worker threads inside a quantum (it is never written during one).
pub(crate) struct LaneShared<'a> {
    pub(crate) cfg: &'a SystemConfig,
    /// Total lane (node) count, for home interleaving.
    pub(crate) lanes: usize,
}

impl<'a> LaneShared<'a> {
    pub(crate) fn new(cfg: &'a SystemConfig, lanes: usize) -> Self {
        LaneShared { cfg, lanes }
    }

    /// The home node of a line.
    pub(crate) fn home_of(&self, line: LineAddr) -> usize {
        line.home(self.lanes)
    }

    pub(crate) fn cycle_to_time(&self, cycle: u64) -> SimTime {
        cycle_to_time(self.cfg, cycle)
    }

    pub(crate) fn time_to_cycle(&self, t: SimTime) -> u64 {
        time_to_cycle(self.cfg, t)
    }

    /// Reply latency from bank to CPU by service point.
    pub(crate) fn reply_latency(&self, source: FillSource) -> Duration {
        match source {
            FillSource::L2Fwd => self.cfg.lat.reply + self.cfg.lat.fwd_probe,
            _ => self.cfg.lat.reply,
        }
    }
}

impl NodeLane {
    /// Schedule the inbox's arrivals, then drain and dispatch every lane
    /// event strictly before `horizon`, then publish the lane's summary.
    /// This is the per-worker body of a quantum: the conservative bound
    /// guarantees no other lane can schedule into `[now, horizon)`, so
    /// the lane advances with no synchronization at all. A `drain`
    /// completes what is in flight and runs no CPU: it sets each CPU
    /// step aside for [`NodeLane::requeue_steps`].
    pub(crate) fn advance(&mut self, sh: &LaneShared<'_>, horizon: SimTime, drain: bool) {
        self.flush_inbox();
        while let Some((t, ev)) = self.events.pop_before(horizon) {
            match ev {
                Ev::Step { cpu } if drain => self.steps_aside.push((t, cpu)),
                ev => self.dispatch(sh, t, ev),
            }
        }
        self.publish_summary();
    }

    /// Queue the CPU steps a drain set aside, in the order it popped
    /// them. The drain may have advanced past a step's time, and the
    /// queue refuses its local past, so a step runs no earlier than now.
    pub(crate) fn requeue_steps(&mut self) {
        let now = self.events.now();
        for (t, cpu) in self.steps_aside.drain(..) {
            self.events.schedule(t.max(now), Ev::Step { cpu });
        }
    }

    /// Schedule the arrivals the last barrier routed here, in the order
    /// it routed them.
    pub(crate) fn flush_inbox(&mut self) {
        for (t, from, msg) in self.inbox.drain(..) {
            self.events.schedule(t, Ev::NetMsg { from, msg });
        }
    }

    /// Record the lane's current state as its [`LaneSummary`].
    pub(crate) fn publish_summary(&mut self) {
        self.summary = self.live_summary();
    }

    /// The lane's current state, read field by field.
    pub(crate) fn live_summary(&self) -> LaneSummary {
        LaneSummary {
            retired: self.instrs_retired,
            unfinished: self.unfinished,
            popped: self.events.popped(),
            next: self.events.peek_time(),
        }
    }

    pub(crate) fn bank_of(&self, line: LineAddr) -> usize {
        line.bank(self.node.banks.len())
    }

    /// The bank miss CPU `cpu`'s request `req` raises: its L1 slot, the
    /// L2 bank that owns the line, and the event that bank runs. Both
    /// execution regimes issue a CPU request here.
    pub(crate) fn miss(
        &self,
        sh: &LaneShared<'_>,
        cpu: usize,
        req: &MemReq,
    ) -> (Slot, usize, BankEvent) {
        let slot = Slot::new(CpuId(cpu as u8), req.kind);
        let ev = BankEvent::Miss {
            slot,
            req: req.req,
            line: req.line,
            home_local: sh.home_of(req.line) == self.index,
            store_version: req.store_version,
        };
        (slot, self.bank_of(req.line), ev)
    }

    pub(crate) fn dispatch(&mut self, sh: &LaneShared<'_>, t: SimTime, ev: Ev) {
        debug_assert!(
            self.work.is_empty(),
            "work left over from the last dispatch"
        );
        match ev {
            Ev::Step { cpu } => self.time_step(sh, t, cpu),
            Ev::Fill { cpu, id, source } => {
                self.probe.instant(
                    TraceLevel::Verbose,
                    "cpu",
                    "fill",
                    track_base(self.index) + cpu as u32,
                    t.as_ps(),
                    id,
                );
                self.fill_cpu(cpu, id, sh.time_to_cycle(t), source);
                self.complete_traffic(cpu);
                self.wake(sh, t, cpu);
            }
            Ev::Bank { bank, ev } => {
                self.probe.span(
                    TraceLevel::Spans,
                    "cache",
                    "bank.lookup",
                    track_base(self.index) + TRACK_BANK + bank as u32,
                    t.as_ps(),
                    sh.cfg.lat.bank.as_ps(),
                    0,
                );
                self.run_work(sh, t, Next::Bank { bank, ev });
            }
            Ev::MemRead { bank, line } => {
                self.probe.instant(
                    TraceLevel::Spans,
                    "mem",
                    "dram.read",
                    track_base(self.index) + TRACK_MEM + bank as u32,
                    t.as_ps(),
                    line.0,
                );
                let ev = self.node.mem_data(bank, line);
                self.run_work(sh, t, Next::Bank { bank, ev });
            }
            Ev::NetMsg { from, msg } => {
                let line = msg.line();
                let kind = match &msg {
                    ProtoMsg::Req { .. } => "req",
                    ProtoMsg::Reply { .. } => "reply",
                    ProtoMsg::Fwd { .. } => "fwd",
                    ProtoMsg::Inval { .. } => "inval",
                    ProtoMsg::InvalAck { .. } | ProtoMsg::WbAck { .. } => "ack",
                    _ => "wb",
                };
                let is_home = sh.home_of(line) == self.index;
                let mut pe_cycles = occupancy_cycles(kind);
                if self.faults.enabled() {
                    let cyc = sh.time_to_cycle(t);
                    if let Some(h) = self.faults.engine_hiccup(cyc) {
                        // The engine's watchdog expires and the handler
                        // replays from its TSRF-recorded inputs: extra
                        // occupancy, same architectural outcome (the
                        // state machine only commits at completion).
                        let extra = self.node.recovery.replay(kind);
                        pe_cycles += extra;
                        self.faults.note_recovery(h.kind, true, extra, 0);
                        self.probe.instant(
                            TraceLevel::Spans,
                            "faults",
                            "engine.replay",
                            track_base(self.index)
                                + if is_home { TRACK_HOME } else { TRACK_REMOTE },
                            t.as_ps(),
                            extra,
                        );
                    }
                }
                let occ = sh.cfg.lat.pe_instr.times(pe_cycles);
                self.probe.span(
                    TraceLevel::Spans,
                    "protocol",
                    if is_home { "home" } else { "remote" },
                    track_base(self.index) + if is_home { TRACK_HOME } else { TRACK_REMOTE },
                    t.as_ps(),
                    occ.as_ps(),
                    line.0,
                );
                let srv = if is_home {
                    &mut self.node.home_srv
                } else {
                    &mut self.node.remote_srv
                };
                srv.acquire(t, occ);
                self.run_work(sh, t, Next::arrival(is_home, from, msg));
            }
        }
    }

    /// The detailed regime's CPU step: step `cpu` and time what it did —
    /// each memory request toward the L2 (via the ICS and the bank
    /// occupancy server), in issue order, then its next step if it is
    /// still runnable.
    fn time_step(&mut self, sh: &LaneShared<'_>, t: SimTime, cpu: usize) {
        let cyc_before = self.node.cpus.core(cpu).now_cycle();
        let mut reqs = std::mem::take(&mut self.reqs);
        let (status, retired) = self.step_cpu(cpu, false, &mut reqs);
        let now_cycle = self.node.cpus.core(cpu).now_cycle();
        self.complete_traffic(cpu);
        if now_cycle > cyc_before {
            self.probe.span(
                TraceLevel::Spans,
                "cpu",
                "step",
                track_base(self.index) + cpu as u32,
                t.as_ps(),
                sh.cfg.cpu_clock.cycles_dur(now_cycle - cyc_before).as_ps(),
                retired,
            );
        }
        for (at_cycle, req) in reqs.drain(..) {
            let issue = sh.cycle_to_time(at_cycle).max(t);
            // Request message over the ICS (header) + path latency.
            let tics = self
                .node
                .ics
                .transfer(issue, TransferSize::Header, Lane::Low);
            let arrive = (issue + sh.cfg.lat.req).max(tics);
            let (slot, bank, ev) = self.miss(sh, cpu, &req);
            let exec = self.node.bank_srv[bank].acquire(arrive, sh.cfg.lat.bank);
            let prev = self.outstanding.insert((slot, req.line), req.id);
            assert!(
                prev.is_none(),
                "duplicate outstanding request for {slot} {}",
                req.line
            );
            self.events.schedule(exec.max(t), Ev::Bank { bank, ev });
        }
        self.reqs = reqs;
        if status == Some(CoreStatus::Runnable) {
            self.wake(sh, sh.cycle_to_time(now_cycle).max(t), cpu);
        }
    }

    /// Open-loop traffic: the park check inside the core's advance
    /// stamps a transaction's commit cycle; drain it — before `wake` can
    /// poll the plane for the next admission — and close the
    /// birth→commit latency ledger.
    fn complete_traffic(&mut self, cpu: usize) {
        if self.traffic.enabled() {
            if let Some(commit) = self.node.cpus.stream_mut(cpu).take_completion() {
                if let Some(ns) = self.traffic.complete(cpu, commit) {
                    if let Some(h) = self.traffic_hists.get(cpu) {
                        h.record(ns);
                    }
                }
            }
        }
    }

    /// Schedule CPU `cpu`'s next step at `next`.
    fn wake(&mut self, sh: &LaneShared<'_>, next: SimTime, cpu: usize) {
        // Open-loop traffic: a parked stream's wake is an admission
        // request, not a step. Once the boundary is fully drained
        // (commit stamped and collected by `complete_traffic`), consult
        // the plane instead of stepping blindly.
        if self.traffic.enabled() {
            let stream = self.node.cpus.stream(cpu);
            if stream.parked() && !stream.boundary_pending() {
                if stream.exhausted() {
                    // Let the core observe end-of-stream and finish; no
                    // plane poll for a dead stream.
                    self.node.cpus.stream_mut(cpu).admit(0);
                    self.events.schedule(next, Ev::Step { cpu });
                } else {
                    let now_cyc = sh.time_to_cycle(next);
                    match self.traffic.poll(cpu, now_cyc) {
                        piranha_traffic::Admission::Admit { extra_idle } => {
                            self.node.cpus.stream_mut(cpu).admit(extra_idle);
                            // The parked core's local clock froze at the
                            // last commit; pull it forward so the new
                            // transaction is costed from its admission
                            // cycle.
                            self.node.cpus.core_mut(cpu).align_cycle(now_cyc);
                            self.events.schedule(next, Ev::Step { cpu });
                        }
                        piranha_traffic::Admission::WaitUntil(c) => {
                            // Idle until the next arrival. The future
                            // Step keeps the event queue non-empty, so
                            // the run loop's deadlock check stays quiet.
                            let at = sh.cycle_to_time(c).max(next);
                            self.events.schedule(at, Ev::Step { cpu });
                        }
                    }
                }
                return;
            }
        }
        self.events.schedule(next, Ev::Step { cpu });
    }

    /// Run `next` through its bank or engine and queue the resulting
    /// actions on the lane's work queue.
    fn queue(&mut self, next: Next) {
        self.node
            .handle(next, &mut self.bank_buf, &mut self.eng_buf);
        self.work.extend(self.bank_buf.drain(..).map(Item::Bank));
        self.work.extend(self.eng_buf.drain(..).map(Item::Eng));
    }

    /// Run `next` at time `t`, then apply the queued actions in order,
    /// running the follow-on event each one causes at once, which queues
    /// that event's actions behind the rest. The queue is a lane field,
    /// so its allocation is reused across dispatches.
    fn run_work(&mut self, sh: &LaneShared<'_>, t: SimTime, next: Next) {
        self.queue(next);
        while let Some(item) = self.work.pop_front() {
            let next = match item {
                Item::Bank(a) => self.time_bank(sh, t, a),
                Item::Eng(EngineAction::Send { to, msg }) => {
                    self.send(t, to, msg);
                    None
                }
                Item::Eng(a) => self.route_engine(t, a),
            };
            if let Some(next) = next {
                self.queue(next);
            }
        }
    }

    /// The detailed regime's half of a bank action: time a `Grant` (ICS
    /// fill, CPU wake) or a `ReadMem` (RDRAM access, fault scrub, data
    /// return), charge the ICS for L1 traffic, and route the rest.
    fn time_bank(&mut self, sh: &LaneShared<'_>, t: SimTime, a: BankAction) -> Option<Next> {
        match a {
            BankAction::Grant {
                slot,
                line,
                source,
                upgraded,
                ..
            } => {
                let id = self
                    .outstanding
                    .remove(&(slot, line))
                    .unwrap_or_else(|| panic!("grant without outstanding request: {slot} {line}"));
                // Data fills occupy an ICS datapath; upgrades are
                // header-only.
                let size = if upgraded {
                    TransferSize::Header
                } else {
                    TransferSize::Line
                };
                self.node.ics.transfer(t, size, Lane::High);
                let wake = t + sh.reply_latency(source);
                let cpu = slot.cpu().index();
                self.events.schedule(wake, Ev::Fill { cpu, id, source });
                None
            }
            BankAction::ReadMem { line } => {
                let bank = self.bank_of(line);
                let acc = self.node.mem[bank].access(t, line);
                let mut ready = (acc.critical + sh.cfg.lat.mc_overhead).max(t);
                if self.faults.enabled() {
                    let cyc = sh.time_to_cycle(t);
                    if let Some(f) = self.faults.mem_fault(cyc) {
                        ready += self.scrub_line(sh, t, bank, line, f);
                    }
                }
                self.events.schedule(ready, Ev::MemRead { bank, line });
                None
            }
            BankAction::Inval { .. } | BankAction::Downgrade { .. } => {
                self.node.ics.transfer(t, TransferSize::Header, Lane::High);
                None
            }
            BankAction::VictimDisplaced { state, .. } => {
                // Victim data crosses the ICS to its own bank.
                let size = if state == Mesi::Modified {
                    TransferSize::Line
                } else {
                    TransferSize::Header
                };
                self.node.ics.transfer(t, size, Lane::Low);
                self.route_bank(sh, t, a)
            }
            a => self.route_bank(sh, t, a),
        }
    }

    /// Buffer a protocol engine's cross-node message in the lane's
    /// outbox as the packet the network will carry.
    fn send(&mut self, t: SimTime, to: NodeId, msg: ProtoMsg) {
        // A same-node "cross-node" message would deliver with zero
        // network latency and break the conservative lookahead; the
        // engines always short-cut local traffic through the bank path
        // instead, so this firing means a protocol bug.
        assert_ne!(
            to.index(),
            self.index,
            "protocol engine on node {} sent itself a network message; \
             zero-latency self-sends violate the lookahead bound",
            self.index
        );
        let kind = if msg.is_long() {
            PacketKind::Long
        } else {
            PacketKind::Short
        };
        let lane = msg.lane();
        // Buffered, not routed: the packet is held in the lane's outbox
        // until the quantum barrier, where all lanes' traffic is merged
        // in deterministic (time, source, seq) order and routed together.
        let from = NodeId(self.index as u16);
        self.outbox.push(t, Packet::new(from, to, lane, kind, msg));
    }

    /// Route one bank action both regimes apply alike: return the
    /// follow-on event it causes on this node, or apply a home-memory
    /// write in place. `Grant` and `ReadMem` are timed differently in
    /// the two regimes, so each caller applies them itself.
    pub(crate) fn route_bank(
        &mut self,
        sh: &LaneShared<'_>,
        t: SimTime,
        a: BankAction,
    ) -> Option<Next> {
        let next = match a {
            BankAction::Grant { .. } | BankAction::ReadMem { .. } => {
                unreachable!("{a:?} is applied by its regime, not routed")
            }
            // The L1 state change already happened inside the bank
            // handler; what is left is ICS traffic, which only the
            // detailed regime charges.
            BankAction::Inval { .. } | BankAction::Downgrade { .. } => return None,
            BankAction::VictimDisplaced {
                slot,
                line,
                state,
                version,
            } => {
                let ev = BankEvent::Victim {
                    slot,
                    line,
                    state,
                    version,
                };
                return Some(Next::Bank {
                    bank: self.bank_of(line),
                    ev,
                });
            }
            BankAction::WriteMem { line, version } => {
                self.node.write_home(t, line, version);
                return None;
            }
            BankAction::RemoteReq { slot: _, line, req } => {
                let home = NodeId(sh.home_of(line) as u16);
                Next::Remote(RemoteIn::LocalReq { line, req, home })
            }
            BankAction::RemoteWb { line, version } => {
                let home = NodeId(sh.home_of(line) as u16);
                Next::Remote(RemoteIn::LocalWb {
                    line,
                    version,
                    home,
                })
            }
            BankAction::HomeInvalRemote { line } => Next::Home(HomeIn::LocalInvalRemotes { line }),
            BankAction::HomeRecall { slot: _, line, req } => {
                Next::Home(HomeIn::LocalRecall { line, req })
            }
            BankAction::ExportReply {
                line,
                version,
                dirty,
                cached,
            } => {
                if sh.home_of(line) == self.index {
                    Next::Home(HomeIn::ExportReply {
                        line,
                        version,
                        dirty,
                        cached,
                    })
                } else {
                    Next::Remote(RemoteIn::ExportReply {
                        line,
                        version,
                        dirty,
                        cached,
                    })
                }
            }
        };
        Some(next)
    }

    /// Route one engine action both regimes apply alike: return the bank
    /// event it causes on this node, or apply a home-memory write in
    /// place. A `Send` crosses nodes, which the regimes time differently,
    /// so each caller applies it itself.
    pub(crate) fn route_engine(&mut self, t: SimTime, a: EngineAction) -> Option<Next> {
        let (line, ev) = match a {
            EngineAction::Send { .. } => {
                unreachable!("{a:?} is applied by its regime, not routed")
            }
            EngineAction::Export { line, excl } => (line, BankEvent::Export { line, excl }),
            EngineAction::Fill {
                line,
                excl,
                version,
                source,
            } => {
                let grant = if excl { Mesi::Exclusive } else { Mesi::Shared };
                let ev = BankEvent::RemoteFill {
                    line,
                    grant,
                    version,
                    source,
                };
                (line, ev)
            }
            EngineAction::Purge { line } => (line, BankEvent::InvalAll { line }),
            EngineAction::MemWrite { line, version } => {
                self.node.write_home(t, line, version);
                return None;
            }
        };
        Some(Next::Bank {
            bank: self.bank_of(line),
            ev,
        })
    }

    /// Apply an injected memory bit-flip and run the SEC-DED scrub
    /// (paper §2.7: memory protected by ECC, mirroring for what ECC
    /// cannot fix). Single-bit errors correct in place; double-bit
    /// errors escalate to a mirror-log restore when one exists. Returns
    /// the repair latency to add to the read's data-return time.
    fn scrub_line(
        &mut self,
        sh: &LaneShared<'_>,
        t: SimTime,
        bank: usize,
        line: LineAddr,
        f: piranha_faults::MemFault,
    ) -> Duration {
        let double = f.kind == FaultKind::MemFlipDouble;
        let bits: &[u32] = if double {
            &[f.bit_a, f.bit_b]
        } else {
            &[f.bit_a]
        };
        let outcome = self.node.mem[bank].inject_and_scrub(line, bits);
        let (corrected, penalty) = match outcome {
            Scrub::Clean(_) | Scrub::Corrected(_) => (true, self.faults.cfg().scrub_cycles),
            Scrub::Uncorrectable => {
                // SEC-DED gives up; restore from the mirror when one
                // exists. Either way the fault escalated past the
                // first-line ECC defence.
                let nd = &mut self.node;
                if let Some(v) = nd.ras.mirror_copy(line) {
                    nd.mem[bank].set_version(line, v);
                }
                (false, self.faults.cfg().failover_cycles)
            }
        };
        self.faults.note_recovery(f.kind, corrected, penalty, 0);
        self.probe.instant(
            TraceLevel::Spans,
            "faults",
            "mem.scrub",
            track_base(self.index) + TRACK_MEM + bank as u32,
            t.as_ps(),
            line.0,
        );
        sh.cfg.cpu_clock.cycles_dur(penalty)
    }
}

/// The machine-side half of cross-node delivery, used only at quantum
/// barriers (and between every serial event batch, where the barrier
/// degenerates to "immediately"): the shared network and the lookahead
/// bound the deliveries must respect. Routing happens on the
/// coordinator with all lanes parked, so ordinary `&mut` access is
/// enough — the network itself needs no locks.
pub(crate) struct NetPath<'a> {
    pub(crate) cfg: &'a SystemConfig,
    pub(crate) net: &'a mut Network<ProtoMsg>,
    pub(crate) probe: &'a Probe,
    /// The per-pair lookahead matrix; every routed delivery is checked
    /// against its own pair's bound (hop distance × minimum per-hop
    /// latency), a strictly stronger check than the global quantum for
    /// any pair more than one hop apart.
    pub(crate) lookahead: &'a piranha_kernel::Lookahead,
}

impl NetPath<'_> {
    /// The barrier step: merge every lane's buffered cross-node
    /// packets into `merged` (a reused buffer) in deterministic
    /// `(time, source, seq)` order, route them through the network, and
    /// append each arrival to its destination lane's inbox in that
    /// order (the lane schedules it; see [`NodeLane::flush_inbox`]).
    /// Returns how many packets were routed and the earliest arrival.
    pub(crate) fn route_departures(
        &mut self,
        lanes: &mut [NodeLane],
        merged: &mut Vec<piranha_parsim::Merged<Packet<ProtoMsg>>>,
    ) -> (usize, Option<SimTime>) {
        merged.clear();
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.outbox.drain_into(i, merged);
        }
        piranha_parsim::sort_merged(merged);
        let routed = merged.len();
        let mut first: Option<SimTime> = None;
        for m in merged.drain(..) {
            let dest = m.payload.dst.index();
            let (arrive, from, msg) = self.route(&mut lanes[m.source].faults, m.time, m.payload);
            first = Some(first.map_or(arrive, |f| f.min(arrive)));
            lanes[dest].inbox.push((arrive, from, msg));
        }
        (routed, first)
    }

    /// Route one buffered packet through the network, applying the
    /// *source* lane's link-fault hooks; returns the final delivery
    /// time, the source, and the (possibly retransmitted) payload.
    pub(crate) fn route(
        &mut self,
        faults: &mut FaultPlane,
        t: SimTime,
        p: Packet<ProtoMsg>,
    ) -> (SimTime, NodeId, ProtoMsg) {
        let (from, to, lane, kind) = (p.src, p.dst, p.lane, p.kind);
        let (first, p) = self.net.send(t, p);
        // A delivery never lands before its send.
        let first = first.max(t);
        // The whole parallel scheme rests on no cross-node event
        // landing closer than the lookahead bound. The network charges
        // at least serialization + one hop *per hop of the shortest
        // path*, so the pair's bound — not just the fabric-wide minimum
        // — holds, with equality as the worst legal case.
        debug_assert!(
            first.since(t) >= self.lookahead.bound(from.index(), to.index()),
            "cross-node delivery {from}->{to} took {:?} < its pair lookahead bound {:?}",
            first.since(t),
            self.lookahead.bound(from.index(), to.index())
        );
        self.probe.span(
            TraceLevel::Spans,
            "net",
            "send",
            track_base(from.index()) + TRACK_NET,
            t.as_ps(),
            first.since(t).as_ps(),
            p.payload.line().0,
        );
        let mut arrive = first;
        let mut payload = p.payload;
        if faults.enabled() {
            let cyc = time_to_cycle(self.cfg, t);
            if let Some(f) = faults.packet_fault(cyc) {
                payload = self.retransmit(faults, t, from, to, lane, kind, payload, f, &mut arrive);
            }
            if let Some(stall) = faults.router_stall(cyc) {
                // A transient queue stall: the hop completes late
                // but nothing is lost.
                arrive += self.cfg.cpu_clock.cycles_dur(stall);
                faults.note_recovery(FaultKind::RouterStall, true, stall, 0);
                self.probe.instant(
                    TraceLevel::Spans,
                    "faults",
                    "router.stall",
                    track_base(from.index()) + TRACK_NET,
                    t.as_ps(),
                    stall,
                );
            }
        }
        (arrive, from, payload)
    }

    /// Drive link-level recovery of one faulted packet send (paper
    /// §2.6.1/§2.7: CRC-protected links). Each failed attempt costs a
    /// NACK plus exponentially backed-off delay before the retransmit
    /// re-walks the network; the packet that finally lands is clean.
    /// Escalation (budget blown) still delivers — the NAK-free protocol
    /// cannot tolerate a silently dropped message — but is charged to
    /// the availability ledger as escalated.
    #[allow(clippy::too_many_arguments)]
    fn retransmit(
        &mut self,
        faults: &mut FaultPlane,
        t: SimTime,
        from: NodeId,
        to: NodeId,
        lane: Lane,
        kind: PacketKind,
        mut payload: ProtoMsg,
        f: piranha_faults::PacketFault,
        arrive: &mut SimTime,
    ) -> ProtoMsg {
        let first_cycle = time_to_cycle(self.cfg, t);
        let attempts = f.failed_attempts.min(faults.cfg().retry_budget + 1);
        if f.kind == FaultKind::PacketCorrupt {
            // Genuine detection, not assumption: corrupt the encoded
            // payload and check the link CRC actually flags it.
            let wire = format!("{payload:?}").into_bytes();
            let good = crc32(&wire);
            for attempt in 1..=attempts {
                let mut damaged = wire.clone();
                flip_bit(&mut damaged, f.flip_bit.wrapping_add(attempt));
                debug_assert_ne!(
                    crc32(&damaged),
                    good,
                    "link CRC must detect a single-bit flip"
                );
            }
        }
        for attempt in 1..=attempts {
            let delay = faults.cfg().retransmit_delay_cycles(attempt);
            let at = *arrive + self.cfg.cpu_clock.cycles_dur(delay);
            let (t2, p2) = self
                .net
                .resend(at, Packet::new(from, to, lane, kind, payload));
            *arrive = t2.max(at);
            payload = p2.payload;
        }
        let corrected = f.failed_attempts <= faults.cfg().retry_budget;
        let mttr = time_to_cycle(self.cfg, *arrive).saturating_sub(first_cycle);
        faults.note_recovery(f.kind, corrected, mttr, attempts as u64);
        self.probe.instant(
            TraceLevel::Spans,
            "faults",
            "packet.retransmit",
            track_base(from.index()) + TRACK_NET,
            t.as_ps(),
            attempts as u64,
        );
        payload
    }
}
