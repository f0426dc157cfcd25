//! Functional warming and sampled execution (`Machine::run_sampled`).
//!
//! SMARTS-style sampling needs a second execution regime: between
//! detailed measurement windows the CPUs retire instructions at fixed
//! IPC while every piece of *architectural* state — L1/L2 tags,
//! duplicate tags, TLBs, the in-memory directory, memory versions, the
//! RDRAM page table — keeps evolving exactly as the detailed model
//! would evolve it. The split into subsystem units makes this cheap to
//! get right: all coherence state transitions already happen
//! synchronously inside the subsystem handlers, and the event calendar
//! carries *timing only*. Functional warming therefore runs every unit
//! through the very calls detailed dispatch makes — `NodeLane::step_cpu`,
//! `NodeLane::miss`, `Node::handle` for the banks and engines,
//! `Node::mem_data`, `NodeLane::fill_cpu` — routes their actions through
//! the router detailed dispatch uses (`NodeLane::route_bank`,
//! `NodeLane::route_engine`), and resolves each CPU miss before the core
//! steps on, through a small FIFO of follow-on events instead of
//! latency-separated ones. It applies only `Grant`, `ReadMem` and `Send`
//! itself, at zero latency, and skips the calendar and wake events, the
//! ICS transfer charges, the occupancy servers, and the probe spans,
//! which is where the speedup comes from.
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
use std::time::Instant;

use piranha_cache::{BankAction, Slot};
use piranha_cpu::{CoreStats, CoreStatus, MemReq};
use piranha_probe::HistogramHandle;
use piranha_protocol::EngineAction;
use piranha_sample::{SampleConfig, SampleDriver, SampleTarget, WindowSample};
use piranha_types::{CpuId, FillSource, LineAddr, NodeId, SimTime};

use crate::dispatch::{LaneShared, Next};
use crate::machine::{Machine, Until};
use crate::node::NodeLane;
use crate::result::RunResult;

/// Cumulative sampled-execution counters, the statistics table's
/// `sample.windows` / `sample.detailed_cycles` / `sample.warming_cycles`.
/// All-zero unless [`Machine::run_sampled`] ran. In-order cores warm at
/// exactly one cycle per instruction ([`piranha_cpu::CoreModel::warm_advance`]'s
/// fixed-IPC contract), so the two cycle counters split the run's
/// simulated core time between the regimes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SampleTally {
    /// Detailed measurement windows taken.
    pub(crate) windows: u64,
    /// Core cycles (summed over CPUs) spent under the detailed model,
    /// lead-ins included.
    pub(crate) detailed_cycles: u64,
    /// Core cycles (summed over CPUs) spent in functional warming.
    pub(crate) warming_cycles: u64,
}

/// The one CPU request a warm drain resolves: its lane, L1 slot, line
/// and core-local id. Warming issues a miss only once the previous one
/// has been granted, so this slot replaces the detailed engine's
/// `NodeLane::outstanding` table.
struct InFlight {
    lane: usize,
    slot: Slot,
    line: LineAddr,
    id: u64,
}

/// The warm resolver's state, kept across a whole warming phase so the
/// per-step and per-miss work allocates nothing: the FIFO of pending
/// follow-on events, each tagged with its lane and time (lane-tagged
/// because protocol `Send`s cross nodes), the request in flight, and
/// one reused buffer per producer.
#[derive(Default)]
struct Warm {
    q: VecDeque<(usize, SimTime, Next)>,
    inflight: Option<InFlight>,
    issues: Vec<(u64, MemReq)>,
    bank: Vec<BankAction>,
    eng: Vec<EngineAction>,
}

impl Warm {
    /// One warm step of one CPU: advance it up to the cluster quantum,
    /// then resolve each request it issued, in issue order, through the
    /// real cache / directory / protocol state machinery. Returns the
    /// instructions retired, fills included, and whether the step made
    /// any progress (retired, issued, or finished its stream).
    fn step(
        &mut self,
        lanes: &mut [NodeLane],
        sh: &LaneShared<'_>,
        li: usize,
        cpu: usize,
    ) -> (u64, bool) {
        let lane = &mut lanes[li];
        // Keep simulated time consistent for the RDRAM page-state
        // updates: the step happens at the core's own cycle clock (never
        // before the lane's last detailed event).
        let t = sh
            .cycle_to_time(lane.node.cpus.core(cpu).now_cycle())
            .max(lane.events.now());
        let before = lane.instrs_retired;
        let (status, retired) = lane.step_cpu(cpu, true, &mut self.issues);
        // A zero-retirement step that discovers stream completion (the
        // stream ended inside the previous detailed window, with the
        // final `Finished` deferred to this step) still counts as
        // progress: it moved `unfinished` toward the loop's exit.
        let progressed = retired > 0 || !self.issues.is_empty() || status == Some(CoreStatus::Done);
        for i in 0..self.issues.len() {
            let (at_cycle, req) = self.issues[i];
            let (slot, bank, ev) = lanes[li].miss(sh, cpu, &req);
            self.inflight = Some(InFlight {
                lane: li,
                slot,
                line: req.line,
                id: req.id,
            });
            let at = sh.cycle_to_time(at_cycle).max(t);
            self.q.push_back((li, at, Next::Bank { bank, ev }));
            self.drain(lanes, sh);
            assert!(
                self.inflight.is_none(),
                "warm miss for {slot} {} on node {li} left unresolved",
                req.line
            );
        }
        self.issues.clear();
        (lanes[li].instrs_retired - before, progressed)
    }

    /// Resolve queued warm work until the queue is empty: run each
    /// follow-on event through its bank or engine and its actions
    /// through the shared router, minus everything that only exists for
    /// timing (ICS transfers, occupancy servers, calendar scheduling,
    /// probe spans, fault hooks).
    fn drain(&mut self, lanes: &mut [NodeLane], sh: &LaneShared<'_>) {
        let (mut bank, mut eng) = (
            std::mem::take(&mut self.bank),
            std::mem::take(&mut self.eng),
        );
        while let Some((li, t, next)) = self.q.pop_front() {
            lanes[li].node.handle(next, &mut bank, &mut eng);
            for a in bank.drain(..) {
                self.bank_action(&mut lanes[li], sh, t, a);
            }
            for a in eng.drain(..) {
                self.engine_action(lanes, sh, li, t, a);
            }
        }
        (self.bank, self.eng) = (bank, eng);
    }

    /// Deliver a grant to the request in flight, at the core's
    /// *current* cycle — zero stall, which is what makes warming
    /// timing-free while the L1 fill/victim machinery runs for real.
    /// The warm loop re-steps every CPU itself, so no wake is needed.
    fn fill(&mut self, lane: &mut NodeLane, slot: Slot, line: LineAddr, source: FillSource) {
        let li = lane.index;
        let f = self.inflight.take().unwrap_or_else(|| {
            panic!("warm grant without a request in flight: {slot} {line} on node {li}")
        });
        assert!(
            (f.lane, f.slot, f.line) == (li, slot, line),
            "warm grant for {slot} {line} on node {li} does not match the request \
             in flight ({} {} on node {})",
            f.slot,
            f.line,
            f.lane
        );
        let cpu = slot.cpu().index();
        let at = lane.node.cpus.core(cpu).now_cycle();
        lane.fill_cpu(cpu, f.id, at, source);
    }

    fn bank_action(&mut self, lane: &mut NodeLane, sh: &LaneShared<'_>, t: SimTime, a: BankAction) {
        let next = match a {
            BankAction::Grant {
                slot, line, source, ..
            } => {
                self.fill(lane, slot, line, source);
                None
            }
            BankAction::ReadMem { line } => {
                // Touch the RDRAM page state (so page-locality stays
                // warm), then return the data at once: with zero latency
                // the read's issue and data-return instants coincide.
                let bank = lane.bank_of(line);
                lane.node.mem[bank].access(t, line);
                let ev = lane.node.mem_data(bank, line);
                Some(Next::Bank { bank, ev })
            }
            a => lane.route_bank(sh, t, a),
        };
        if let Some(next) = next {
            self.q.push_back((lane.index, t, next));
        }
    }

    fn engine_action(
        &mut self,
        lanes: &mut [NodeLane],
        sh: &LaneShared<'_>,
        li: usize,
        t: SimTime,
        a: EngineAction,
    ) {
        match a {
            EngineAction::Send { to, msg } => {
                // Cross-node protocol message, delivered with zero
                // latency: in warm mode the network exists only to
                // carry state.
                assert_ne!(
                    to.index(),
                    li,
                    "protocol engine on node {li} sent itself a network message"
                );
                let dest = to.index();
                let is_home = sh.home_of(msg.line()) == dest;
                let next = Next::arrival(is_home, NodeId(li as u16), msg);
                self.q.push_back((dest, t, next));
            }
            a => {
                if let Some(next) = lanes[li].route_engine(t, a) {
                    self.q.push_back((li, t, next));
                }
            }
        }
    }
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
            for (slot, l1) in nd.l1s.iter() {
                let mut resident: Vec<_> = l1.resident().collect();
                resident.sort_unstable_by_key(|(l, _, _)| *l);
                repr.push_str(&format!("l1[{slot}]{resident:?};"));
            }
            for (cpu, core) in nd.cpus.cores().enumerate() {
                let (itlb, dtlb) = core.tlb_residency();
                repr.push_str(&format!("tlb[{cpu}]i{itlb:?}d{dtlb:?};"));
            }
            for (b, bank) in nd.banks.iter().enumerate() {
                repr.push_str(&format!("l2[{b}]{:?};", bank.resident_lines()));
                let mut dup: Vec<String> = bank
                    .dup()
                    .iter()
                    .map(|(line, e)| {
                        let holders: Vec<_> = e.holders().map(|s| (s, e.l1_state(s))).collect();
                        format!(
                            "{line}=({holders:?},{:?},{:?},{},{},{},{})",
                            e.owner(),
                            e.ext(),
                            e.in_l2(),
                            e.l2_dirty(),
                            e.l2_version(),
                            e.node_dirty()
                        )
                    })
                    .collect();
                dup.sort_unstable();
                repr.push_str(&format!("dup[{b}]{dup:?};"));
            }
            for (b, bank) in nd.mem.iter().enumerate() {
                repr.push_str(&format!(
                    "mem[{b}]v{:?}d{:?};",
                    bank.written_lines(),
                    bank.directory_lines()
                ));
            }
        }
        piranha_types::fnv1a(repr.as_bytes())
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
        let Machine { cfg, lanes, .. } = self;
        let sh = LaneShared::new(cfg, lanes.len());
        assert!(
            lanes.iter().all(|l| l.outstanding.is_empty()),
            "functional warming started with detailed requests in flight"
        );
        let mut warm = Warm::default();
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
                    let (retired, p) = warm.step(lanes, &sh, li, cpu);
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
    }

    /// Complete every in-flight detailed event (fills, memory reads,
    /// protocol transactions) without retiring further instructions:
    /// the windowed loop runs until nothing is queued but the CPU `Step`
    /// events the lanes set aside, which then go back on the queues —
    /// the state a functional phase can take over from. Cross-node
    /// traffic is merged and routed at each window barrier as in any
    /// run, and the lanes drain on their workers.
    pub(crate) fn drain_inflight(&mut self) {
        self.run_windows(Until::Drained);
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
        let host_hist = |name: &str| self.probe.is_enabled().then(|| self.probe.histogram(name));
        let (warm_host_ns, detailed_host_ns) = (
            host_hist("sample.warm_host_ns"),
            host_hist("sample.detailed_host_ns"),
        );
        let mut target = SampledTarget {
            m: self,
            ncpus,
            limit,
            acc: vec![CoreStats::default(); n_cores],
            wall_cycles: 0,
            detailed_cycles: 0,
            warming_cycles: 0,
            warm_host_ns,
            detailed_host_ns,
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
    /// Host time of each warming phase and each detailed window, when
    /// a probe is attached (`None` otherwise: no clock is read).
    warm_host_ns: Option<HistogramHandle>,
    detailed_host_ns: Option<HistogramHandle>,
}

/// Read the host clock only when there is a histogram to record into.
fn host_clock(hist: &Option<HistogramHandle>) -> Option<Instant> {
    hist.as_ref().map(|_| Instant::now())
}

/// Record the host nanoseconds since `t0` into `hist`, if both exist.
fn record_host_ns(hist: &Option<HistogramHandle>, t0: Option<Instant>) {
    if let (Some(h), Some(t0)) = (hist, t0) {
        h.record(t0.elapsed().as_nanos() as u64);
    }
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
        let t0 = host_clock(&self.warm_host_ns);
        self.m.warm_until_total(target);
        record_host_ns(&self.warm_host_ns, t0);
        self.warming_cycles += self.m.total_core_cycles() - c0;
        self.m.total_instrs() - start
    }

    fn detailed_window(&mut self, lead: u64, measure: u64) -> WindowSample {
        let t0 = host_clock(&self.detailed_host_ns);
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
        record_host_ns(&self.detailed_host_ns, t0);
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
