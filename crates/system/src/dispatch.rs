//! Event dispatch: routing between the component adapters.
//!
//! This is the only layer that knows the machine's topology of
//! components. Each arm of [`NodeLane::dispatch`] hands the event to the
//! owning adapter's `Component::handle` and routes the actions that come
//! back out of its port — it contains **no subsystem logic** of its own.
//! The two cross-cutting concerns the paper treats as system-level —
//! fault injection/recovery (§2.7) and observability — are applied here,
//! uniformly at the port boundary, so no subsystem crate knows they
//! exist.
//!
//! Dispatch is written against one `NodeLane` at a time so nodes can
//! advance on independent worker threads: everything a handler touches
//! lives on the lane, and the single cross-node path (a protocol
//! engine's `Send`) buffers into the lane's outbox instead of touching
//! another node's queue. The buffered departures are routed through the
//! shared fabric at the next quantum barrier by [`NetPath::route`],
//! which also enforces the conservative-lookahead invariant every
//! cross-node delivery must respect.

use piranha_cache::{BankAction, BankEvent, CacheEvent, Mesi, Slot};
use piranha_cpu::{CpuAction, CpuCtx, CpuEvent};
use piranha_faults::{FaultKind, FaultPlane};
use piranha_ics::TransferSize;
use piranha_kernel::{Component, Port};
use piranha_mem::{MemEvent, Scrub};
use piranha_net::{crc32, flip_bit, Arrive, Depart, Fabric, Packet, PacketKind};
use piranha_probe::{Probe, TraceLevel};
use piranha_protocol::coherence::occupancy_cycles;
use piranha_protocol::{EngineAction, EngineEvent, HomeIn, ProtoMsg, RemoteIn};
use piranha_types::{CpuId, Duration, FillSource, Lane, LineAddr, NodeId, SimTime};

use crate::config::SystemConfig;
use crate::machine::PAGE_LINES;
use crate::node::{Node, NodeDirs, NodeLane};
use crate::wiring::{track_base, TRACK_BANK, TRACK_HOME, TRACK_MEM, TRACK_NET, TRACK_REMOTE};

/// An event on a lane's partition. The handling node is the partition's
/// own dimension, so events name only the in-node target.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// An event for the node's CPU cluster (step or fill).
    Cpu(CpuEvent),
    /// An event for one of the node's L2 banks.
    Bank(CacheEvent),
    /// A memory read's critical word is available.
    MemRead(MemEvent),
    /// A protocol message arrives at the node.
    NetMsg { from: NodeId, msg: ProtoMsg },
}

/// A unit of synchronous follow-on work inside one dispatch.
pub(crate) enum Item {
    Bank(BankAction),
    Eng(EngineAction),
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

    /// The home node of a line (8 KB pages interleaved round-robin).
    pub(crate) fn home_of(&self, line: LineAddr) -> usize {
        ((line.0 / PAGE_LINES) % self.lanes as u64) as usize
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
    /// Drain and dispatch every lane event strictly before `horizon`.
    /// This is the per-worker body of a quantum: the conservative bound
    /// guarantees no other lane can schedule into `[now, horizon)`, so
    /// the lane advances with no synchronization at all.
    pub(crate) fn advance(&mut self, sh: &LaneShared<'_>, horizon: SimTime) {
        while let Some((t, ev)) = self.events.pop_before(horizon) {
            self.dispatch(sh, t, ev);
        }
    }

    pub(crate) fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 % self.node.caches.bank_count() as u64) as usize
    }

    pub(crate) fn dispatch(&mut self, sh: &LaneShared<'_>, t: SimTime, ev: Ev) {
        debug_assert!(
            self.work.is_empty(),
            "work left over from the last dispatch"
        );
        match ev {
            Ev::Cpu(ev) => self.cpu_event(sh, t, ev),
            Ev::Bank(ce) => {
                self.probe.span(
                    TraceLevel::Spans,
                    "cache",
                    "bank.lookup",
                    track_base(self.index) + TRACK_BANK + ce.bank as u32,
                    t.as_ps(),
                    sh.cfg.lat.bank.as_ps(),
                    0,
                );
                self.bank(t, ce);
                self.run_work(sh, t);
            }
            Ev::MemRead(me) => {
                self.probe.instant(
                    TraceLevel::Spans,
                    "mem",
                    "dram.read",
                    track_base(self.index) + TRACK_MEM + me.bank as u32,
                    t.as_ps(),
                    me.line.0,
                );
                // The memory array reads version/directory at data-return
                // time, so intervening writes are observed; its MemData
                // goes straight back to the requesting bank.
                let mut mport = std::mem::take(&mut self.mem_port);
                self.node.mem.handle(t, me, (), &mut mport);
                for (_, d) in mport.drain() {
                    self.bank(
                        t,
                        CacheEvent {
                            bank: d.bank,
                            ev: BankEvent::MemData {
                                line: d.line,
                                version: d.version,
                                remote: d.remote,
                            },
                        },
                    );
                }
                self.mem_port = mport;
                self.run_work(sh, t);
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
                        let extra = self.node.engines.replay(kind);
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
                self.node.engines.acquire(is_home, t, occ);
                let ev = if is_home {
                    EngineEvent::Home(HomeIn::Msg { from, msg })
                } else {
                    EngineEvent::Remote(RemoteIn::Msg { from, msg })
                };
                self.engine(t, ev);
                self.run_work(sh, t);
            }
        }
    }

    /// Deliver one event to the node's CPU cluster and route the
    /// resulting actions: memory requests toward the L2 (via the ICS and
    /// the bank occupancy server), reschedules onto the partition, and
    /// completions into the run loop's `unfinished` count.
    fn cpu_event(&mut self, sh: &LaneShared<'_>, t: SimTime, ev: CpuEvent) {
        let (cpu, is_step) = match ev {
            CpuEvent::Step { cpu } => (cpu, true),
            // Warm steps are synchronous-only: the sampled-execution
            // driver resolves them outside the calendar.
            CpuEvent::WarmStep { .. } => unreachable!("WarmStep on the detailed calendar"),
            CpuEvent::Fill { cpu, id, .. } => {
                self.probe.instant(
                    TraceLevel::Verbose,
                    "cpu",
                    "fill",
                    track_base(self.index) + cpu as u32,
                    t.as_ps(),
                    id,
                );
                (cpu, false)
            }
        };
        let fill_cycle = sh.time_to_cycle(t);
        let mut port = std::mem::take(&mut self.cpu_port);
        let (retired, cyc_delta) = {
            let NodeLane {
                node,
                versions,
                version_stride,
                ..
            } = self;
            let Node {
                cpus, caches, sc, ..
            } = node;
            let before = cpus.core(cpu).stats().instrs;
            let cyc_before = cpus.core(cpu).now_cycle();
            let ctx = CpuCtx {
                l1s: caches.l1s_mut(),
                versions,
                version_stride: *version_stride,
                enabled: sc.cpu_enabled(CpuId(cpu as u8)),
                fill_cycle,
            };
            cpus.handle(t, ev, ctx, &mut port);
            (
                cpus.core(cpu).stats().instrs - before,
                cpus.core(cpu).now_cycle() - cyc_before,
            )
        };
        self.instrs_retired += retired;
        // Open-loop traffic: the park check inside the core's advance
        // stamps a transaction's commit cycle; drain it here — before the
        // action loop below can poll the plane for the next admission —
        // and close the birth→commit latency ledger.
        if self.traffic.enabled() {
            if let Some(commit) = self.node.cpus.stream_mut(cpu).take_completion() {
                if let Some(ns) = self.traffic.complete(cpu, commit) {
                    if let Some(h) = self.traffic_hists.get(cpu) {
                        h.record(ns);
                    }
                }
            }
        }
        if is_step && cyc_delta > 0 {
            self.probe.span(
                TraceLevel::Spans,
                "cpu",
                "step",
                track_base(self.index) + cpu as u32,
                t.as_ps(),
                sh.cfg.cpu_clock.cycles_dur(cyc_delta).as_ps(),
                retired,
            );
        }
        for (_, act) in port.drain() {
            match act {
                CpuAction::Issue { cpu, at_cycle, req } => {
                    let issue = sh.cycle_to_time(at_cycle).max(t);
                    // Request message over the ICS (header) + path latency.
                    let tics = self
                        .node
                        .ics
                        .transfer(issue, TransferSize::Header, Lane::Low);
                    let arrive = (issue + sh.cfg.lat.req).max(tics);
                    let bank = self.bank_of(req.line);
                    let exec = self.node.caches.acquire(bank, arrive, sh.cfg.lat.bank);
                    let slot = Slot::new(CpuId(cpu as u8), req.kind);
                    let prev = self.outstanding.insert((slot, req.line), req.id);
                    assert!(
                        prev.is_none(),
                        "duplicate outstanding request for {slot} {}",
                        req.line
                    );
                    let home_local = sh.home_of(req.line) == self.index;
                    self.events.schedule(
                        exec.max(t),
                        Ev::Bank(CacheEvent {
                            bank,
                            ev: BankEvent::Miss {
                                slot,
                                req: req.req,
                                line: req.line,
                                home_local,
                                store_version: req.store_version,
                            },
                        }),
                    );
                }
                CpuAction::Wake { cpu, at_cycle } => {
                    let next = sh.cycle_to_time(at_cycle).max(t);
                    // Open-loop traffic: a parked stream's wake is an
                    // admission request, not a step. Once the boundary is
                    // fully drained (commit stamped and collected above),
                    // consult the plane instead of stepping blindly.
                    if self.traffic.enabled() {
                        let stream = self.node.cpus.stream(cpu);
                        if stream.parked() && !stream.boundary_pending() {
                            if stream.exhausted() {
                                // Let the core observe end-of-stream and
                                // finish; no plane poll for a dead stream.
                                self.node.cpus.stream_mut(cpu).admit(0);
                                self.events.schedule(next, Ev::Cpu(CpuEvent::Step { cpu }));
                            } else {
                                let now_cyc = sh.time_to_cycle(next);
                                match self.traffic.poll(cpu, now_cyc) {
                                    piranha_traffic::Admission::Admit { extra_idle } => {
                                        self.node.cpus.stream_mut(cpu).admit(extra_idle);
                                        // The parked core's local clock froze
                                        // at the last commit; pull it forward
                                        // so the new transaction is costed
                                        // from its admission cycle.
                                        self.node.cpus.core_mut(cpu).align_cycle(now_cyc);
                                        self.events.schedule(next, Ev::Cpu(CpuEvent::Step { cpu }));
                                    }
                                    piranha_traffic::Admission::WaitUntil(c) => {
                                        // Idle until the next arrival. The
                                        // future Step keeps the event queue
                                        // non-empty, so the run loop's
                                        // deadlock check stays quiet.
                                        let at = sh.cycle_to_time(c).max(next);
                                        self.events.schedule(at, Ev::Cpu(CpuEvent::Step { cpu }));
                                    }
                                }
                            }
                            continue;
                        }
                    }
                    self.events.schedule(next, Ev::Cpu(CpuEvent::Step { cpu }));
                }
                CpuAction::Finished { .. } => self.unfinished -= 1,
            }
        }
        self.cpu_port = port;
    }

    /// Run `ev` through the node's engine complex (threading the
    /// directory view in) and queue the resulting actions on the lane's
    /// work queue.
    fn engine(&mut self, t: SimTime, ev: EngineEvent) {
        let Node { engines, mem, .. } = &mut self.node;
        let mut dirs = NodeDirs {
            banks: mem.banks_mut(),
        };
        engines.handle(t, ev, &mut dirs, &mut self.eng_port);
        self.work
            .extend(self.eng_port.drain().map(|(_, a)| Item::Eng(a)));
    }

    /// Run `ev` through one of the node's L2 banks and queue the
    /// resulting actions on the lane's work queue.
    fn bank(&mut self, t: SimTime, ev: CacheEvent) {
        self.node.caches.handle(t, ev, (), &mut self.bank_port);
        self.work
            .extend(self.bank_port.drain().map(|(_, a)| Item::Bank(a)));
    }

    /// Apply the lane's queued bank/engine actions at time `t`, in
    /// order, including the follow-on work each one queues behind the
    /// rest. The queue is a lane field, so its allocation is reused
    /// across dispatches.
    fn run_work(&mut self, sh: &LaneShared<'_>, t: SimTime) {
        while let Some(item) = self.work.pop_front() {
            match item {
                Item::Bank(a) => self.apply_bank_action(sh, t, a),
                Item::Eng(a) => self.apply_engine_action(t, a),
            }
        }
    }

    fn apply_bank_action(&mut self, sh: &LaneShared<'_>, t: SimTime, a: BankAction) {
        match a {
            BankAction::Grant {
                slot,
                line,
                state: _,
                version: _,
                source,
                upgraded,
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
                self.events.schedule(
                    wake,
                    Ev::Cpu(CpuEvent::Fill {
                        cpu: slot.cpu().index(),
                        id,
                        source,
                    }),
                );
            }
            BankAction::Inval { .. } | BankAction::Downgrade { .. } => {
                self.node.ics.transfer(t, TransferSize::Header, Lane::High);
            }
            BankAction::VictimDisplaced {
                slot,
                line,
                state,
                version,
            } => {
                // Victim data crosses the ICS to its own bank.
                let size = if state == Mesi::Modified {
                    TransferSize::Line
                } else {
                    TransferSize::Header
                };
                self.node.ics.transfer(t, size, Lane::Low);
                let bank = self.bank_of(line);
                self.bank(
                    t,
                    CacheEvent {
                        bank,
                        ev: BankEvent::Victim {
                            slot,
                            line,
                            state,
                            version,
                        },
                    },
                );
            }
            BankAction::ReadMem { line } => {
                let bank = self.bank_of(line);
                let acc = self.node.mem.access(bank, t, line);
                let mut ready = (acc.critical + sh.cfg.lat.mc_overhead).max(t);
                if self.faults.enabled() {
                    let cyc = sh.time_to_cycle(t);
                    if let Some(f) = self.faults.mem_fault(cyc) {
                        ready += self.scrub_line(sh, t, bank, line, f);
                    }
                }
                self.events
                    .schedule(ready, Ev::MemRead(MemEvent { bank, line }));
            }
            BankAction::WriteMem { line, version } => {
                let bank = self.bank_of(line);
                let nd = &mut self.node;
                nd.mem.write(bank, t, line, version);
                nd.ras.on_home_write(line, version);
            }
            BankAction::RemoteReq { slot: _, line, req } => {
                let home = NodeId(sh.home_of(line) as u16);
                self.engine(
                    t,
                    EngineEvent::Remote(RemoteIn::LocalReq { line, req, home }),
                );
            }
            BankAction::RemoteWb { line, version } => {
                let home = NodeId(sh.home_of(line) as u16);
                self.engine(
                    t,
                    EngineEvent::Remote(RemoteIn::LocalWb {
                        line,
                        version,
                        home,
                    }),
                );
            }
            BankAction::HomeInvalRemote { line } => {
                self.engine(t, EngineEvent::Home(HomeIn::LocalInvalRemotes { line }));
            }
            BankAction::HomeRecall { slot: _, line, req } => {
                self.engine(t, EngineEvent::Home(HomeIn::LocalRecall { line, req }));
            }
            BankAction::ExportReply {
                line,
                version,
                dirty,
                cached,
            } => {
                let ev = if sh.home_of(line) == self.index {
                    EngineEvent::Home(HomeIn::ExportReply {
                        line,
                        version,
                        dirty,
                        cached,
                    })
                } else {
                    EngineEvent::Remote(RemoteIn::ExportReply {
                        line,
                        version,
                        dirty,
                        cached,
                    })
                };
                self.engine(t, ev);
            }
        }
    }

    fn apply_engine_action(&mut self, t: SimTime, a: EngineAction) {
        match a {
            EngineAction::Send { to, msg } => {
                // Satellite hardening: a same-node "cross-node" message
                // would deliver with zero network latency and break the
                // conservative lookahead; the engines always short-cut
                // local traffic through the bank path instead, so this
                // firing means a protocol bug.
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
                // Buffered, not routed: the departure is held in the
                // lane's outbox until the quantum barrier, where all
                // lanes' traffic is merged in deterministic
                // (time, source, seq) order and routed together.
                self.outbox.push(
                    t,
                    Depart {
                        from: NodeId(self.index as u16),
                        to,
                        lane,
                        kind,
                        payload: msg,
                    },
                );
            }
            EngineAction::Export { line, excl } => {
                let bank = self.bank_of(line);
                self.bank(
                    t,
                    CacheEvent {
                        bank,
                        ev: BankEvent::Export { line, excl },
                    },
                );
            }
            EngineAction::Fill {
                line,
                excl,
                version,
                source,
            } => {
                let bank = self.bank_of(line);
                let grant = if excl { Mesi::Exclusive } else { Mesi::Shared };
                self.bank(
                    t,
                    CacheEvent {
                        bank,
                        ev: BankEvent::RemoteFill {
                            line,
                            grant,
                            version,
                            source,
                        },
                    },
                );
            }
            EngineAction::Purge { line } => {
                let bank = self.bank_of(line);
                self.bank(
                    t,
                    CacheEvent {
                        bank,
                        ev: BankEvent::InvalAll { line },
                    },
                );
            }
            EngineAction::MemWrite { line, version } => {
                let bank = self.bank_of(line);
                let nd = &mut self.node;
                nd.mem.write(bank, t, line, version);
                nd.ras.on_home_write(line, version);
            }
        }
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
        let outcome = self.node.mem.inject_and_scrub(bank, line, bits);
        let (corrected, penalty) = match outcome {
            Scrub::Clean(_) | Scrub::Corrected(_) => (true, self.faults.cfg().scrub_cycles),
            Scrub::Uncorrectable => {
                // SEC-DED gives up; restore from the mirror when one
                // exists. Either way the fault escalated past the
                // first-line ECC defence.
                let nd = &mut self.node;
                if let Some(v) = nd.ras.mirror_copy(line) {
                    nd.mem.set_version(bank, line, v);
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
/// degenerates to "immediately"): the shared fabric, its port, and the
/// lookahead bound the deliveries must respect. Routing happens on the
/// coordinator with all lanes parked, so ordinary `&mut` access is
/// enough — the fabric itself needs no locks.
pub(crate) struct NetPath<'a> {
    pub(crate) cfg: &'a SystemConfig,
    pub(crate) net: &'a mut Fabric<ProtoMsg>,
    pub(crate) port: &'a mut Port<Arrive<ProtoMsg>>,
    pub(crate) probe: &'a Probe,
    /// The per-pair lookahead matrix; every routed delivery is checked
    /// against its own pair's bound (hop distance × minimum per-hop
    /// latency), a strictly stronger check than the global quantum for
    /// any pair more than one hop apart.
    pub(crate) lookahead: &'a piranha_kernel::Lookahead,
}

impl NetPath<'_> {
    /// Route one buffered departure through the fabric, applying the
    /// *source* lane's link-fault hooks; returns the final delivery
    /// time, the source, and the (possibly retransmitted) payload.
    pub(crate) fn route(
        &mut self,
        faults: &mut FaultPlane,
        t: SimTime,
        d: Depart<ProtoMsg>,
    ) -> (SimTime, NodeId, ProtoMsg) {
        let (from, to, lane, kind) = (d.from, d.to, d.lane, d.kind);
        self.net.handle(t, d, (), self.port);
        let (first, arr) = {
            let mut it = self.port.drain();
            it.next().expect("one arrival per departure")
        };
        debug_assert!(self.port.is_empty());
        // The whole parallel scheme rests on no cross-node event
        // landing closer than the lookahead bound. The fabric charges
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
            arr.payload.line().0,
        );
        let mut arrive = first;
        let mut payload = arr.payload;
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
