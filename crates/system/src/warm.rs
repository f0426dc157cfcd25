//! Functional warming and sampled execution (`Machine::run_sampled`).
//!
//! SMARTS-style sampling needs a second execution regime: between
//! detailed measurement windows the CPUs retire instructions at fixed
//! IPC while every piece of *architectural* state — L1/L2 tags,
//! duplicate tags, TLBs, the in-memory directory, memory versions, the
//! RDRAM page table — keeps evolving exactly as the detailed model
//! would evolve it. The repo's component split makes this cheap to get
//! right: all coherence state transitions already happen synchronously
//! inside `Component::handle` calls, and the event calendar carries
//! *timing only*. Functional warming therefore drives the very same
//! handlers, but resolves each CPU miss synchronously through a small
//! work queue instead of scheduling latency-separated events — skipping
//! the calendar, the ICS transfer charges, the occupancy servers, and
//! the probe spans, which is where the speedup comes from.
//!
//! The regime switch is exact in both directions:
//!
//! * **detailed → functional** ([`Machine::drain_inflight`]): every
//!   in-flight miss is completed through the normal detailed dispatch
//!   (so its latency is honestly charged to the window that issued it),
//!   with CPU `Step` events deferred and re-queued — afterwards the
//!   calendar holds nothing but runnable-CPU steps.
//! * **functional → detailed**: nothing to do. The deferred steps are
//!   still queued; core cycle counters advanced during warming, so the
//!   first detailed dispatch computes issue/wake times from
//!   `now_cycle()` and simulated time jumps forward naturally — the
//!   warming interval appears as a fixed-IPC stretch of simulated time.

use std::collections::VecDeque;

use piranha_cache::{BankAction, BankEvent, CacheEvent, Mesi, Slot};
use piranha_cpu::{CoreStats, CpuAction, CpuCtx, CpuEvent, MemReq};
use piranha_kernel::Component;
use piranha_protocol::{EngineAction, EngineEvent, HomeIn, RemoteIn};
use piranha_sample::{SampleConfig, SampleDriver, SampleTarget, WindowSample};
use piranha_types::{CpuId, NodeId, SimTime};

use crate::dispatch::{Ev, LaneShared, NetPath};
use crate::machine::Machine;
use crate::node::{Node, NodeDirs, NodeLane};
use crate::result::RunResult;

/// Cumulative sampled-execution counters, published by the probe as
/// `sample.windows` / `sample.detailed_cycles` / `sample.warming_cycles`.
/// All-zero unless [`Machine::run_sampled`] ran. In-order cores warm at
/// exactly one cycle per instruction ([`piranha_cpu::CoreModel::warm_advance`]'s
/// fixed-IPC contract), so the two cycle counters split the run's
/// simulated core time between the regimes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SampleTally {
    /// Detailed measurement windows taken.
    pub windows: u64,
    /// Core cycles (summed over CPUs) spent under the detailed model,
    /// lead-ins included.
    pub detailed_cycles: u64,
    /// Core cycles (summed over CPUs) spent in functional warming.
    pub warming_cycles: u64,
}

/// One unit of synchronous warm-mode work. Lane-tagged because protocol
/// `Send`s cross nodes; everything else stays on its own lane.
enum WarmWork {
    Bank(usize, SimTime, CacheEvent),
    Eng(usize, SimTime, EngineEvent),
}

/// Reusable buffers for the warm loop. A warm step runs once per few
/// retired instructions and each miss produces a handful of actions;
/// allocating fresh `Vec`s at that rate dominates the loop, so the
/// buffers live across the whole warming phase instead.
#[derive(Default)]
struct WarmScratch {
    issues: Vec<(u64, MemReq)>,
    bank: Vec<BankAction>,
    eng: Vec<EngineAction>,
}

/// Deliver a warm-mode fill to the CPU that issued the request, at the
/// core's *current* cycle — zero stall, which is what makes warming
/// timing-free while the L1 fill/victim machinery runs for real.
fn warm_fill(
    lane: &mut NodeLane,
    t: SimTime,
    slot: Slot,
    line: piranha_types::LineAddr,
    source: piranha_types::FillSource,
) {
    let id = lane
        .outstanding
        .remove(&(slot, line))
        .unwrap_or_else(|| panic!("warm grant without outstanding request: {slot} {line}"));
    let cpu = slot.cpu().index();
    let mut port = std::mem::take(&mut lane.cpu_port);
    {
        let NodeLane {
            node,
            versions,
            version_stride,
            ..
        } = lane;
        let Node {
            cpus, caches, sc, ..
        } = node;
        let fill_cycle = cpus.core(cpu).now_cycle();
        let ctx = CpuCtx {
            l1s: caches.l1s_mut(),
            versions,
            version_stride: *version_stride,
            enabled: sc.cpu_enabled(CpuId(cpu as u8)),
            fill_cycle,
        };
        cpus.handle(t, CpuEvent::Fill { cpu, id, source }, ctx, &mut port);
    }
    // The Wake is implicit: the warm loop re-steps every CPU itself.
    port.drain().for_each(drop);
    lane.cpu_port = port;
}

/// Resolve queued warm work until the queue is empty. Mirrors the
/// action routing of `dispatch.rs` arm for arm, minus everything that
/// only exists for timing (ICS transfers, occupancy servers, calendar
/// scheduling, probe spans, fault hooks).
fn drain_warm_queue(
    lanes: &mut [NodeLane],
    sh: &LaneShared<'_>,
    q: &mut VecDeque<WarmWork>,
    scratch: &mut WarmScratch,
) {
    while let Some(w) = q.pop_front() {
        match w {
            WarmWork::Bank(li, t, ce) => {
                let lane = &mut lanes[li];
                let mut port = std::mem::take(&mut lane.bank_port);
                lane.node.caches.handle(t, ce, (), &mut port);
                scratch.bank.clear();
                scratch.bank.extend(port.drain().map(|(_, a)| a));
                lane.bank_port = port;
                for a in scratch.bank.drain(..) {
                    warm_bank_action(lanes, sh, q, li, t, a);
                }
            }
            WarmWork::Eng(li, t, ev) => {
                let lane = &mut lanes[li];
                let mut port = std::mem::take(&mut lane.eng_port);
                {
                    let Node { engines, mem, .. } = &mut lane.node;
                    let mut dirs = NodeDirs {
                        banks: mem.banks_mut(),
                    };
                    engines.handle(t, ev, &mut dirs, &mut port);
                }
                scratch.eng.clear();
                scratch.eng.extend(port.drain().map(|(_, a)| a));
                lane.eng_port = port;
                for a in scratch.eng.drain(..) {
                    warm_engine_action(lanes, sh, q, li, t, a);
                }
            }
        }
    }
}

fn warm_bank_action(
    lanes: &mut [NodeLane],
    sh: &LaneShared<'_>,
    q: &mut VecDeque<WarmWork>,
    li: usize,
    t: SimTime,
    a: BankAction,
) {
    let lane = &mut lanes[li];
    match a {
        BankAction::Grant {
            slot, line, source, ..
        } => warm_fill(lane, t, slot, line, source),
        // Pure ICS header traffic in detailed mode; the L1 state change
        // already happened inside the bank handler.
        BankAction::Inval { .. } | BankAction::Downgrade { .. } => {}
        BankAction::VictimDisplaced {
            slot,
            line,
            state,
            version,
        } => {
            let bank = lane.bank_of(line);
            q.push_back(WarmWork::Bank(
                li,
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
            ));
        }
        BankAction::ReadMem { line } => {
            // Touch the RDRAM page state (so page-locality stays warm),
            // then return the data synchronously. The detailed path
            // reads version/directory at data-return time; with zero
            // latency "now" and "return time" coincide.
            let bank = lane.bank_of(line);
            lane.node.mem.access(bank, t, line);
            let version = lane.node.mem.version(bank, line);
            let remote = lane.node.mem.directory(bank, line).summary();
            q.push_back(WarmWork::Bank(
                li,
                t,
                CacheEvent {
                    bank,
                    ev: BankEvent::MemData {
                        line,
                        version,
                        remote,
                    },
                },
            ));
        }
        BankAction::WriteMem { line, version } => {
            let bank = lane.bank_of(line);
            let nd = &mut lane.node;
            nd.mem.write(bank, t, line, version);
            nd.ras.on_home_write(line, version);
        }
        BankAction::RemoteReq { slot: _, line, req } => {
            let home = NodeId(sh.home_of(line) as u16);
            q.push_back(WarmWork::Eng(
                li,
                t,
                EngineEvent::Remote(RemoteIn::LocalReq { line, req, home }),
            ));
        }
        BankAction::RemoteWb { line, version } => {
            let home = NodeId(sh.home_of(line) as u16);
            q.push_back(WarmWork::Eng(
                li,
                t,
                EngineEvent::Remote(RemoteIn::LocalWb {
                    line,
                    version,
                    home,
                }),
            ));
        }
        BankAction::HomeInvalRemote { line } => {
            q.push_back(WarmWork::Eng(
                li,
                t,
                EngineEvent::Home(HomeIn::LocalInvalRemotes { line }),
            ));
        }
        BankAction::HomeRecall { slot: _, line, req } => {
            q.push_back(WarmWork::Eng(
                li,
                t,
                EngineEvent::Home(HomeIn::LocalRecall { line, req }),
            ));
        }
        BankAction::ExportReply {
            line,
            version,
            dirty,
            cached,
        } => {
            let ev = if sh.home_of(line) == li {
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
            q.push_back(WarmWork::Eng(li, t, ev));
        }
    }
}

fn warm_engine_action(
    lanes: &mut [NodeLane],
    sh: &LaneShared<'_>,
    q: &mut VecDeque<WarmWork>,
    li: usize,
    t: SimTime,
    a: EngineAction,
) {
    match a {
        EngineAction::Send { to, msg } => {
            // Cross-node protocol message, delivered with zero latency:
            // in warm mode the network exists only to carry state.
            assert_ne!(
                to.index(),
                li,
                "protocol engine on node {li} sent itself a network message"
            );
            let dest = to.index();
            let is_home = sh.home_of(msg.line()) == dest;
            let from = NodeId(li as u16);
            let ev = if is_home {
                EngineEvent::Home(HomeIn::Msg { from, msg })
            } else {
                EngineEvent::Remote(RemoteIn::Msg { from, msg })
            };
            q.push_back(WarmWork::Eng(dest, t, ev));
        }
        EngineAction::Export { line, excl } => {
            let bank = lanes[li].bank_of(line);
            q.push_back(WarmWork::Bank(
                li,
                t,
                CacheEvent {
                    bank,
                    ev: BankEvent::Export { line, excl },
                },
            ));
        }
        EngineAction::Fill {
            line,
            excl,
            version,
            source,
        } => {
            let bank = lanes[li].bank_of(line);
            let grant = if excl { Mesi::Exclusive } else { Mesi::Shared };
            q.push_back(WarmWork::Bank(
                li,
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
            ));
        }
        EngineAction::Purge { line } => {
            let bank = lanes[li].bank_of(line);
            q.push_back(WarmWork::Bank(
                li,
                t,
                CacheEvent {
                    bank,
                    ev: BankEvent::InvalAll { line },
                },
            ));
        }
        EngineAction::MemWrite { line, version } => {
            let lane = &mut lanes[li];
            let bank = lane.bank_of(line);
            let nd = &mut lane.node;
            nd.mem.write(bank, t, line, version);
            nd.ras.on_home_write(line, version);
        }
    }
}

/// One warm step of one CPU: advance it up to the cluster quantum, then
/// resolve everything it issued synchronously through the real cache /
/// directory / protocol state machinery. Returns the instructions
/// retired and whether the step made any progress (retired, issued, or
/// finished its stream).
fn warm_step(
    lanes: &mut [NodeLane],
    sh: &LaneShared<'_>,
    q: &mut VecDeque<WarmWork>,
    scratch: &mut WarmScratch,
    li: usize,
    cpu: usize,
) -> (u64, bool) {
    let lane = &mut lanes[li];
    // Keep simulated time consistent for the RDRAM page-state updates:
    // the step happens at the core's own cycle clock (never before the
    // lane's last detailed event).
    let t = sh
        .cycle_to_time(lane.node.cpus.core(cpu).now_cycle())
        .max(lane.events.now());
    let mut port = std::mem::take(&mut lane.cpu_port);
    let retired = {
        let NodeLane {
            node,
            versions,
            version_stride,
            ..
        } = lane;
        let Node {
            cpus, caches, sc, ..
        } = node;
        let before = cpus.core(cpu).stats().instrs;
        let ctx = CpuCtx {
            l1s: caches.l1s_mut(),
            versions,
            version_stride: *version_stride,
            enabled: sc.cpu_enabled(CpuId(cpu as u8)),
            fill_cycle: 0,
        };
        cpus.handle(t, CpuEvent::WarmStep { cpu }, ctx, &mut port);
        cpus.core(cpu).stats().instrs - before
    };
    lane.instrs_retired += retired;
    scratch.issues.clear();
    let mut finished = false;
    for (_, act) in port.drain() {
        match act {
            CpuAction::Issue { at_cycle, req, .. } => scratch.issues.push((at_cycle, req)),
            // The warm loop re-steps CPUs itself; wakes are implicit.
            CpuAction::Wake { .. } => {}
            CpuAction::Finished { .. } => finished = true,
        }
    }
    lane.cpu_port = port;
    if finished {
        lane.unfinished -= 1;
    }
    // A zero-retirement step that discovers stream completion (the
    // stream ended inside the previous detailed window, with the final
    // `Finished` deferred to this step) still counts as progress: it
    // moved `unfinished` toward the loop's exit condition.
    let progressed = retired > 0 || !scratch.issues.is_empty() || finished;
    // Detach the issue list so `scratch` stays free for the queue
    // drain below; hand the buffer back afterwards to keep capacity.
    let mut issues = std::mem::take(&mut scratch.issues);
    for (at_cycle, req) in issues.drain(..) {
        let ti = sh.cycle_to_time(at_cycle).max(t);
        let lane = &mut lanes[li];
        let slot = Slot::new(CpuId(cpu as u8), req.kind);
        let prev = lane.outstanding.insert((slot, req.line), req.id);
        assert!(
            prev.is_none(),
            "duplicate outstanding warm request for {slot} {}",
            req.line
        );
        let bank = lane.bank_of(req.line);
        let home_local = sh.home_of(req.line) == li;
        q.push_back(WarmWork::Bank(
            li,
            ti,
            CacheEvent {
                bank,
                ev: BankEvent::Miss {
                    slot,
                    req: req.req,
                    line: req.line,
                    home_local,
                    store_version: req.store_version,
                },
            },
        ));
        drain_warm_queue(lanes, sh, q, scratch);
    }
    scratch.issues = issues;
    (retired, progressed)
}

impl Machine {
    /// Core cycles summed over every CPU (all CPUs share one clock
    /// domain, so the sum is well defined).
    pub(crate) fn total_core_cycles(&self) -> u64 {
        self.lanes
            .iter()
            .flat_map(|l| l.node.cpus.cores().map(|c| c.now_cycle()))
            .sum()
    }

    fn per_cpu_cycles(&self) -> Vec<u64> {
        self.lanes
            .iter()
            .flat_map(|l| l.node.cpus.cores().map(|c| c.now_cycle()))
            .collect()
    }

    /// Cumulative sampled-execution counters (all-zero unless
    /// [`Machine::run_sampled`] ran).
    pub fn sample_tally(&self) -> SampleTally {
        self.tally
    }

    /// A digest of every piece of *architectural* state the functional
    /// warming path claims to keep identical to detailed execution: L1
    /// tag/MESI/version occupancy, i/d TLB residency, L2 array
    /// occupancy, the duplicate-tag directory, and the in-memory
    /// version and directory stores. Deliberately excludes everything
    /// timing-related (cycles, stamps, occupancy servers, the
    /// calendar), so two runs that executed the same instructions —
    /// one detailed, one warm — digest identically. This is the
    /// warming-fidelity test's oracle, not a performance path.
    pub fn arch_state_digest(&self) -> u64 {
        let mut repr = String::new();
        for lane in &self.lanes {
            let nd = &lane.node;
            repr.push_str(&format!("node{}:", lane.index));
            for (slot, l1) in nd.caches.l1s().iter() {
                let mut resident: Vec<_> = l1.resident().collect();
                resident.sort_unstable_by_key(|(l, _, _)| *l);
                repr.push_str(&format!("l1[{slot}]{resident:?};"));
            }
            for (cpu, core) in nd.cpus.cores().enumerate() {
                let (itlb, dtlb) = core.tlb_residency();
                repr.push_str(&format!("tlb[{cpu}]i{itlb:?}d{dtlb:?};"));
            }
            for b in 0..nd.caches.bank_count() {
                let bank = nd.caches.bank(b);
                repr.push_str(&format!("l2[{b}]{:?};", bank.resident_lines()));
                let mut dup: Vec<String> = bank
                    .dup()
                    .iter()
                    .map(|(line, e)| {
                        let holders: Vec<_> = e.holders().map(|s| (s, e.l1_state(s))).collect();
                        format!(
                            "{line}=({holders:?},{:?},{:?},{},{},{},{})",
                            e.owner, e.ext, e.in_l2, e.l2_dirty, e.l2_version, e.node_dirty
                        )
                    })
                    .collect();
                dup.sort_unstable();
                repr.push_str(&format!("dup[{b}]{dup:?};"));
            }
            for (b, bank) in nd.mem.banks().iter().enumerate() {
                repr.push_str(&format!(
                    "mem[{b}]v{:?}d{:?};",
                    bank.written_lines(),
                    bank.directory_lines()
                ));
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in repr.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Functionally warm the machine until the total retired instruction
    /// count reaches `target` (or every CPU is done): CPUs round-robin
    /// in quantum-sized steps, every miss resolved synchronously through
    /// the real cache/TLB/directory/protocol state machines with zero
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if a full round over all CPUs makes no progress (a warm
    /// resolution bug — a live CPU's miss must complete synchronously).
    pub(crate) fn warm_until_total(&mut self, target: u64) {
        let Machine {
            cfg, lanes, clock, ..
        } = self;
        let sh = LaneShared::new(cfg, lanes.len());
        let mut q: VecDeque<WarmWork> = VecDeque::new();
        let mut scratch = WarmScratch::default();
        let mut total: u64 = lanes.iter().map(|l| l.instrs_retired).sum();
        'outer: while total < target {
            if lanes.iter().map(|l| l.unfinished).sum::<usize>() == 0 {
                break;
            }
            let mut progressed = false;
            for li in 0..lanes.len() {
                for cpu in 0..lanes[li].node.cpus.len() {
                    {
                        let nd = &lanes[li].node;
                        if nd.cpus.is_done(cpu) || !nd.sc.cpu_enabled(CpuId(cpu as u8)) {
                            continue;
                        }
                    }
                    let (retired, p) = warm_step(lanes, &sh, &mut q, &mut scratch, li, cpu);
                    total += retired;
                    progressed |= p;
                    if total >= target {
                        break 'outer;
                    }
                }
            }
            assert!(
                progressed,
                "functional warming made no progress over a full round"
            );
        }
        for lane in lanes.iter() {
            *clock = (*clock).max(lane.events.now());
        }
    }

    /// Complete every in-flight detailed event (fills, memory reads,
    /// protocol transactions) without retiring further instructions:
    /// CPU `Step` events are set aside and re-queued afterwards, so the
    /// calendar ends up holding nothing but runnable-CPU steps — the
    /// state a functional phase can take over from. Cross-node traffic
    /// generated while draining is merged and routed exactly as at a
    /// quantum barrier.
    pub(crate) fn drain_inflight(&mut self) {
        let Machine {
            cfg,
            lanes,
            net,
            probe,
            net_port,
            lookahead,
            clock,
            ..
        } = self;
        let sh = LaneShared::new(cfg, lanes.len());
        let mut deferred: Vec<Vec<(SimTime, usize)>> = lanes.iter().map(|_| Vec::new()).collect();
        let mut merged: Vec<
            piranha_parsim::Merged<piranha_net::Depart<piranha_protocol::ProtoMsg>>,
        > = Vec::new();
        // Advance in conservative lookahead windows, exactly like the
        // parallel engine's barrier loop: a full per-lane drain would
        // let one lane's clock run past an arrival another lane's
        // traffic is about to schedule on it. Event-horizon windows
        // keep this O(events), not O(span / quantum).
        loop {
            merged.clear();
            for (i, lane) in lanes.iter_mut().enumerate() {
                lane.outbox.drain_into(i, &mut merged);
            }
            if !merged.is_empty() {
                piranha_parsim::sort_merged(&mut merged);
                let mut path = NetPath {
                    cfg,
                    net,
                    port: net_port,
                    probe,
                    lookahead,
                };
                for m in merged.drain(..) {
                    let dest = m.payload.to.index();
                    let (arrive, from, msg) =
                        path.route(&mut lanes[m.source].faults, m.time, m.payload);
                    lanes[dest]
                        .events
                        .schedule(arrive, Ev::NetMsg { from, msg });
                }
            }
            let mut t_min: Option<SimTime> = None;
            for lane in lanes.iter() {
                if let Some(t) = lane.events.peek_time() {
                    t_min = Some(match t_min {
                        Some(m) => m.min(t),
                        None => t,
                    });
                }
            }
            let Some(base) = t_min else { break };
            let horizon = lookahead.horizon(base);
            for lane in lanes.iter_mut() {
                while let Some((t, ev)) = lane.events.pop_before(horizon) {
                    match ev {
                        Ev::Cpu(CpuEvent::Step { cpu }) => deferred[lane.index].push((t, cpu)),
                        other => lane.dispatch(&sh, t, other),
                    }
                }
            }
        }
        for lane in lanes.iter_mut() {
            // Partitions refuse scheduling into their local past, and the
            // drain may have advanced past a step's original time.
            let now = lane.events.now();
            for &(t, cpu) in &deferred[lane.index] {
                lane.events
                    .schedule(t.max(now), Ev::Cpu(CpuEvent::Step { cpu }));
            }
            *clock = (*clock).max(lane.events.now());
        }
    }

    /// Run the workload under SMARTS-style systematic sampling:
    /// functional warming punctuated by detailed measurement windows
    /// (see [`SampleConfig`]), returning a [`RunResult`] whose `cpus`
    /// and `window` cover the measured windows only and whose
    /// [`RunResult::sample`] carries the CPI / stall-fraction estimate
    /// with 95% confidence intervals.
    ///
    /// `budget` bounds the run at `budget` instructions per CPU
    /// (mirroring [`Machine::run`]'s `measure`); `None` runs every
    /// stream to completion (mirroring [`Machine::run_to_completion`] —
    /// once measurement converges the remainder is functionally
    /// fast-forwarded, so bounded workloads still commit all work).
    ///
    /// # Panics
    ///
    /// Panics if fault injection is enabled: functional warming skips
    /// the fault-consult points, which would desynchronize the PRNG
    /// streams between the regimes.
    pub fn run_sampled(&mut self, sample: &SampleConfig, budget: Option<u64>) -> RunResult {
        assert!(
            !self.cfg.faults.enabled(),
            "sampled execution does not support fault injection"
        );
        assert!(
            !self.cfg.traffic.enabled(),
            "sampled execution does not support open-loop traffic \
             (warm fast-forward skips the admission-gate points)"
        );
        let ncpus = self.cfg.total_cpus() as u64;
        let limit = budget.map(|b| self.total_instrs().saturating_add(b.saturating_mul(ncpus)));
        let n_cores = self.cpu_stats().len();
        let mut target = SampledTarget {
            m: self,
            ncpus,
            limit,
            acc: vec![CoreStats::default(); n_cores],
            wall_cycles: 0,
            detailed_cycles: 0,
            warming_cycles: 0,
        };
        let est = SampleDriver::new(sample).run(&mut target);
        let SampledTarget {
            acc,
            wall_cycles,
            detailed_cycles,
            warming_cycles,
            ..
        } = target;
        self.tally.windows += est.windows;
        self.tally.detailed_cycles += detailed_cycles;
        self.tally.warming_cycles += warming_cycles;
        let mut r = RunResult::new(
            self.cfg.name.clone(),
            self.cfg.cpu_clock.cycles_dur(wall_cycles),
            self.cfg.cpu_clock,
            acc,
        );
        r.mem_page_hit_rate = self.mem_page_hit_rate();
        self.finish_result(&mut r);
        r.sample = Some(est);
        r
    }
}

/// The [`SampleTarget`] a `Machine` presents to the sample driver:
/// scales the driver's per-CPU instruction counts to aggregate targets,
/// clamps them to the run's budget, and accumulates the measured-window
/// statistics for the final [`RunResult`].
struct SampledTarget<'a> {
    m: &'a mut Machine,
    ncpus: u64,
    /// Aggregate retired-instruction ceiling (`None` = completion).
    limit: Option<u64>,
    /// Per-CPU statistics summed over the measured windows.
    acc: Vec<CoreStats>,
    /// Sum over windows of the slowest CPU's cycle delta — the sampled
    /// analogue of the measured window's wall-cycle length.
    wall_cycles: u64,
    detailed_cycles: u64,
    warming_cycles: u64,
}

impl SampledTarget<'_> {
    fn clamp(&self, want_per_cpu: u64) -> u64 {
        let t = self
            .m
            .total_instrs()
            .saturating_add(want_per_cpu.saturating_mul(self.ncpus));
        match self.limit {
            Some(l) => t.min(l),
            None => t,
        }
    }
}

impl SampleTarget for SampledTarget<'_> {
    fn functional_warm(&mut self, instrs: u64) -> u64 {
        let start = self.m.total_instrs();
        let target = self.clamp(instrs);
        if target <= start {
            return 0;
        }
        let c0 = self.m.total_core_cycles();
        self.m.warm_until_total(target);
        self.warming_cycles += self.m.total_core_cycles() - c0;
        self.m.total_instrs() - start
    }

    fn detailed_window(&mut self, lead: u64, measure: u64) -> WindowSample {
        let c0 = self.m.total_core_cycles();
        // Unmeasured lead-in: re-establish queue/MLP timing state that
        // functional warming does not model.
        let start = self.m.total_instrs();
        self.m.run_until_total(self.clamp(lead));
        let lead_instrs = self.m.total_instrs() - start;
        // Measured segment, diffed in the core-cycle domain (immune to
        // the stale simulated times of deferred steps).
        let snap = self.m.cpu_stats();
        let cyc0 = self.m.per_cpu_cycles();
        self.m.run_until_total(self.clamp(measure));
        self.m.drain_inflight();
        let end = self.m.cpu_stats();
        let cyc1 = self.m.per_cpu_cycles();
        let mut s = WindowSample {
            lead_instrs,
            ..Default::default()
        };
        let mut wall = 0u64;
        for (i, (e, sn)) in end.iter().zip(&snap).enumerate() {
            let d = e.diff(sn);
            let cd = cyc1[i] - cyc0[i];
            s.instrs += d.instrs;
            s.stall_cycles += d.total_stall();
            s.cycles += cd;
            wall = wall.max(cd);
            self.acc[i].merge(&d);
        }
        self.wall_cycles += wall;
        self.detailed_cycles += self.m.total_core_cycles() - c0;
        s
    }

    fn done(&self) -> bool {
        if let Some(l) = self.limit {
            if self.m.total_instrs() >= l {
                return true;
            }
        }
        self.m.lanes.iter().all(|l| l.unfinished == 0)
    }
}
