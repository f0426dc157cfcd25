//! The event-driven whole-system simulator: run loop and system API.
//!
//! The [`Machine`] is three thin layers over the units the subsystem
//! crates export:
//!
//! * `node` — one chip's units (CPU cluster, L1s, L2 banks, memory
//!   banks, home and remote engines, ICS, system controller, RAS),
//!   wrapped per chip in a `NodeLane` that carries everything the
//!   dispatch layer needs to advance that chip independently;
//! * `dispatch` — event routing between the units, through the one
//!   router detailed dispatch and functional warming share, with fault
//!   injection and probe spans applied as their actions are routed;
//! * `wiring` — construction, topology, and observability plumbing.
//!
//! This module keeps only the run loops and the externally visible
//! system API (RAS operations, hot CPU start/stop, coherence audit).
//!
//! # Execution engines
//!
//! A single-chip machine runs the classic serial loop: pop, dispatch,
//! repeat. A multi-chip machine runs the conservative parallel-in-space
//! engine from `piranha-parsim` regardless of the worker count: each
//! chip's lane advances independently through one *window* — the span
//! `[t_min, t_min + quantum)`, where `quantum` is the machine's
//! [`Lookahead`] bound (the fabric's minimum cross-node delivery
//! latency) and `t_min` the earliest pending event anywhere — and the
//! lanes' buffered cross-node sends are merged at the window barrier in
//! deterministic `(time, source, seq)` order and routed through the
//! shared fabric. Basing every window on the global minimum *pending*
//! time means an idle stretch (all chips waiting on a distant event)
//! costs one window, not `gap / quantum` of them. Windows ride the
//! parsim crate's *train* protocol: lock-free gate handoffs per window,
//! a real barrier rendezvous only every [`piranha_parsim::TRAIN_WINDOWS`]
//! windows (the [`ParsimStats::rounds`] count).
//!
//! Because the worker threads only change *which thread* advances a
//! lane — never the order of events within a lane or the merge order at
//! barriers — results are bit-identical for every worker count,
//! including 1. Pick the worker count with
//! [`Machine::set_parallel_workers`].

use piranha_cache::Slot;
use piranha_cpu::CoreStats;
use piranha_faults::{AvailabilityReport, FaultPlane};
use piranha_kernel::Lookahead;
use piranha_net::Network;
use piranha_probe::Probe;
use piranha_protocol::{LineRange, ProtoMsg, RasPolicy};
use piranha_types::{CpuId, Duration, LineAddr, SimTime};
use piranha_workloads::Workload;

use crate::config::SystemConfig;
use crate::dispatch::{Ev, LaneShared, NetPath};
use crate::node::NodeLane;
use crate::result::RunResult;

/// Cumulative parallel-engine execution counters (multi-chip machines
/// only; a single-chip machine's serial loop leaves them at zero except
/// [`ParsimStats::events`]). Deterministic: every field is a function of
/// the simulation, never of the worker count or thread schedule, so the
/// counters are safe to assert on in tests and benches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParsimStats {
    /// Barrier rendezvous executed (one per
    /// [`piranha_parsim::TRAIN_WINDOWS`] windows) — the engine's real
    /// synchronization count.
    pub rounds: u64,
    /// Logical lookahead windows executed.
    pub windows: u64,
    /// Barrier passes that found no cross-node traffic to merge.
    pub empty_windows: u64,
    /// Cross-node events merged and routed at barriers.
    pub merged_events: u64,
    /// Total events popped across all lanes (the work the windows
    /// carried; `merged_events / windows` is the cross-node fraction).
    pub events: u64,
}

/// The whole simulated system: node lanes, interconnect, lookahead.
///
/// # Examples
///
/// ```no_run
/// use piranha_system::{Machine, SystemConfig};
/// use piranha_workloads::{OltpConfig, Workload};
///
/// let mut m = Machine::new(SystemConfig::piranha_p8(), &Workload::Oltp(OltpConfig::paper_default()));
/// let result = m.run(100_000, 400_000);
/// println!("{:.3} instructions/ns", result.throughput_ipns());
/// ```
pub struct Machine {
    pub(crate) cfg: SystemConfig,
    /// One lane per chip: the node plus its event queue, outbox,
    /// fault plane, and dispatch scratch state.
    pub(crate) lanes: Vec<NodeLane>,
    /// The machine-wide interconnect (touched only at barriers).
    pub(crate) net: Network<ProtoMsg>,
    /// Observability handle; `Probe::disabled()` (the default) makes
    /// every recording call a no-op. The simulation never reads it, so
    /// attaching a probe cannot change simulated results.
    pub(crate) probe: Probe,
    /// The per-pair lookahead matrix, derived at wiring time from the
    /// fabric's topology distances; its global minimum (asserted
    /// strictly positive) is the window quantum, the per-pair bounds
    /// back the delivery assertions.
    pub(crate) lookahead: Lookahead,
    /// Cumulative parallel-engine counters (see [`ParsimStats`]).
    pub(crate) parsim: ParsimStats,
    /// Cumulative sampled-execution counters (see
    /// [`SampleTally`](crate::warm::SampleTally)); all-zero unless
    /// [`Machine::run_sampled`] ran.
    pub(crate) tally: crate::warm::SampleTally,
    /// Worker threads for the multi-chip engine (1 = in-line, still
    /// quantum-stepped). Not part of `SystemConfig`: the thread count
    /// must never affect results, cache keys, or fingerprints.
    pub(crate) workers: usize,
    /// Global simulated time: the furthest any lane has advanced.
    pub(crate) clock: SimTime,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.cfg.name)
            .field("nodes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Build a machine running `workload` (one stream per CPU).
    pub fn new(cfg: SystemConfig, workload: &Workload) -> Self {
        let total = cfg.workload_cpus();
        let streams: Vec<Box<dyn piranha_cpu::InstrStream>> = (0..total)
            .map(|i| workload.stream_for_cpu(i, total, cfg.seed))
            .collect();
        Self::with_streams(cfg, streams)
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The attached probe (disabled unless [`Machine::set_probe`] was
    /// called).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Per-CPU statistics snapshots (cloned), node-major order.
    pub fn cpu_stats(&self) -> Vec<CoreStats> {
        self.core_stats().cloned().collect()
    }

    /// Per-CPU statistics, node-major order.
    fn core_stats(&self) -> impl Iterator<Item = &CoreStats> {
        self.lanes
            .iter()
            .flat_map(|l| l.node.cpus.cores().map(|c| c.stats()))
    }

    /// Total instructions retired so far across all CPUs.
    pub fn total_instrs(&self) -> u64 {
        self.lanes.iter().map(|l| l.node.cpus.instrs()).sum()
    }

    /// Current simulated time: how far the furthest lane has advanced.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The interconnect (topology, configuration and delivery-latency
    /// bounds; its counters are [`Machine::fabric_stats`]).
    pub fn network(&self) -> &Network<ProtoMsg> {
        &self.net
    }

    /// A snapshot of the fabric's congestion counters: drops, PFC
    /// pauses, per-link wire time, per-node deflections (the
    /// `fig_scale` sweep's raw material).
    pub fn fabric_stats(&self) -> piranha_net::FabricStats {
        self.net.stats()
    }

    /// The conservative lookahead the multi-chip engine steps by: the
    /// fabric's minimum cross-node delivery latency (the minimum of the
    /// per-pair bound matrix, see [`Machine::lookahead`]).
    pub fn quantum(&self) -> Duration {
        self.lookahead.quantum()
    }

    /// The per-node-pair lookahead matrix computed at wiring time from
    /// the fabric topology: `bound(s, d)` = hop distance × minimum
    /// per-hop latency, the floor on any `s → d` delivery.
    pub fn lookahead(&self) -> &Lookahead {
        &self.lookahead
    }

    /// Cumulative parallel-engine counters: rounds, windows, merged
    /// cross-node events (see [`ParsimStats`]). Identical for every
    /// worker count.
    pub fn parsim_stats(&self) -> ParsimStats {
        self.parsim
    }

    /// Set the worker-thread count for multi-chip runs (clamped to
    /// `[1, nodes]` at run time; single-chip machines always run the
    /// serial loop). The count changes wall-clock only — results are
    /// bit-identical for every value, which is why it lives here and
    /// not in [`SystemConfig`].
    pub fn set_parallel_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Mean RDRAM open-page hit rate across all memory banks.
    pub fn mem_page_hit_rate(&self) -> f64 {
        let mut hits = 0.0;
        let mut n = 0.0;
        for lane in &self.lanes {
            for m in &lane.node.mem {
                let a = m.rdram().accesses() as f64;
                hits += m.rdram().page_hit_rate() * a;
                n += a;
            }
        }
        if n == 0.0 {
            0.0
        } else {
            hits / n
        }
    }

    /// Protocol-engine statistics: (home msgs, remote msgs, home TSRF
    /// high-water, remote TSRF high-water) summed/maxed over nodes.
    pub fn engine_stats(&self) -> (u64, u64, usize, usize) {
        let mut hm = 0;
        let mut rm = 0;
        let mut hw = 0;
        let mut rw = 0;
        for l in &self.lanes {
            hm += l.node.home.msgs_handled();
            rm += l.node.remote.msgs_handled();
            hw = hw.max(l.node.home.tsrf_high_water());
            rw = rw.max(l.node.remote.tsrf_high_water());
        }
        (hm, rm, hw, rw)
    }

    /// Run until every CPU has retired at least `warmup` instructions'
    /// share, reset measurement, then run for `measure` more instructions
    /// per CPU (aggregate); returns the measured-window statistics.
    pub fn run(&mut self, warmup: u64, measure: u64) -> RunResult {
        let ncpus = self.cfg.total_cpus();
        let rows = Vec::with_capacity(ncpus);
        self.run_until_total(self.total_instrs() + warmup * ncpus as u64);
        self.run_window(measure * ncpus as u64, rows)
    }

    /// Run until every CPU's stream ends. Only meaningful for bounded
    /// workloads (`txn_limit`/`line_limit` set): a fault-free and a
    /// faulted run then complete the *same* work, so the committed count
    /// must match exactly while only the cycle count differs — the basis
    /// of the availability slowdown measurement.
    pub fn run_to_completion(&mut self) -> RunResult {
        let rows = Vec::with_capacity(self.cfg.total_cpus());
        self.run_window(u64::MAX, rows)
    }

    /// The shared measurement driver: snapshot, run for `budget` more
    /// aggregate instructions (saturating, so `u64::MAX` means "until
    /// every stream ends"), and package the measured window.
    ///
    /// `rows` (empty) becomes the result's per-CPU statistics: it takes
    /// the window-start snapshot, which the window's deltas then
    /// overwrite in place. Callers allocate it before the machine runs.
    /// Allocated at the end instead, it would land in a hole among the
    /// memory the run grew (event buckets, rehashed memory-bank tables)
    /// and, outliving the machine, split that memory into two free
    /// blocks when the machine is dropped; how large each block is would
    /// then depend on the seed, and so would the peak footprint of a
    /// process that builds and runs machine after machine.
    fn run_window(&mut self, budget: u64, mut rows: Vec<CoreStats>) -> RunResult {
        rows.extend(self.core_stats().cloned());
        let t0 = self.now();
        self.run_until_total(self.total_instrs().saturating_add(budget));
        let t1 = self.now();
        for (row, end) in rows.iter_mut().zip(self.core_stats()) {
            *row = end.diff(row);
        }
        let mut r = RunResult::new(
            self.cfg.name.clone(),
            t1.since(t0),
            self.cfg.cpu_clock,
            rows,
        );
        r.mem_page_hit_rate = self.mem_page_hit_rate();
        self.finish_result(&mut r);
        r
    }

    /// Attach the availability ledger and committed-work count to a
    /// result, audit RAS mirror consistency, and, with a probe attached,
    /// snapshot the statistics table and the probe's histograms (the
    /// metrics stay outside the fingerprint; availability and committed
    /// work are folded in).
    pub(crate) fn finish_result(&mut self, r: &mut RunResult) {
        r.availability = self.availability();
        assert!(
            r.availability.is_consistent(),
            "availability ledger violated corrected + escalated == injected"
        );
        r.committed_txns = self.committed_txns();
        r.traffic = self.traffic_summary();
        self.check_ras();
        if let Some(histograms) = self.probe.metrics() {
            let mut rows = self.metrics().entries;
            rows.extend(histograms.entries);
            r.metrics = piranha_probe::MetricsSnapshot::from_entries(rows);
        }
    }

    /// Total workload-level units of work (transactions, scan lines)
    /// committed across all streams that track one; `None` when no
    /// stream does (fixed-instruction-window runs).
    pub fn committed_txns(&self) -> Option<u64> {
        let mut total = 0u64;
        let mut any = false;
        for lane in &self.lanes {
            for s in lane.node.cpus.streams() {
                if let Some(c) = s.txns_committed() {
                    total += c;
                    any = true;
                }
            }
        }
        any.then_some(total)
    }

    /// Merged open-loop traffic results across all lanes (conservation
    /// ledger + birth→commit latency histogram); `None` when traffic is
    /// off. Outside the crate it is [`RunResult::traffic`].
    pub(crate) fn traffic_summary(&self) -> Option<piranha_traffic::TrafficSummary> {
        if !self.cfg.traffic.enabled() {
            return None;
        }
        let mut ledger = piranha_traffic::TrafficLedger::default();
        let mut latency = piranha_kernel::Histogram::new();
        for lane in &self.lanes {
            if lane.traffic.enabled() {
                let s = lane.traffic.summary();
                ledger.merge(&s.ledger);
                latency.merge(&s.latency);
            }
        }
        Some(piranha_traffic::TrafficSummary { ledger, latency })
    }

    /// The availability ledger accumulated so far, aggregated over the
    /// per-lane fault planes (merging consistent lane ledgers yields a
    /// consistent machine ledger).
    pub fn availability(&self) -> AvailabilityReport {
        let mut r = AvailabilityReport::default();
        for lane in &self.lanes {
            r.merge(lane.faults.report());
        }
        r
    }

    /// The fault-injection plane of node 0, which owns the scripted
    /// fault schedule (configuration, unfired script events). Random
    /// background faults draw from every lane's own plane; see
    /// [`Machine::availability`] for the machine-wide ledger.
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.lanes[0].faults
    }

    /// The RAS policy of `node` (persistence journal, mirror log,
    /// capability faults).
    pub fn ras(&self, node: usize) -> &RasPolicy {
        &self.lanes[node].node.ras
    }

    /// Register `range` as persistent on `node`, returning the write
    /// capability (paper §2.7: capability-guarded persistent memory).
    pub fn ras_register_persistent(
        &mut self,
        node: usize,
        range: LineRange,
    ) -> piranha_protocol::Capability {
        self.lanes[node].node.ras.register_persistent(range)
    }

    /// Register `range` as mirrored on `node`: subsequent home-memory
    /// writes of its lines are duplicated into the mirror log.
    pub fn ras_register_mirrored(&mut self, node: usize, range: LineRange) {
        self.lanes[node].node.ras.register_mirrored(range);
    }

    /// Execute a persistent-memory barrier on `node` for `range`: every
    /// cached line of the range homed at `node` that is dirty relative
    /// to the journal is forced home (memory write + journal + mirror) —
    /// the paper's commit-without-disk-round-trip (§2.7). Returns how
    /// many lines were forced.
    pub fn ras_persist_barrier(&mut self, node: usize, range: LineRange) -> usize {
        let mut cached: Vec<(LineAddr, u64)> = Vec::new();
        for lane in &self.lanes {
            for (_slot, l1) in lane.node.l1s.iter() {
                for (line, _state, v) in l1.resident() {
                    if range.contains(line) && line.home(self.lanes.len()) == node {
                        cached.push((line, v));
                    }
                }
            }
        }
        let dirty = self.lanes[node]
            .node
            .ras
            .persist_barrier(range, cached.into_iter());
        let t = self.clock;
        for &(line, v) in &dirty {
            self.lanes[node].node.write_home(t, line, v);
        }
        dirty.len()
    }

    /// Audit RAS consistency: every mirror-log entry must match the
    /// current home-memory version of its line. Runs at the end of every
    /// `run`/`run_to_completion`; a violation means a home write dodged
    /// the mirroring hooks.
    ///
    /// # Panics
    ///
    /// Panics naming the first divergent line.
    pub fn check_ras(&self) {
        for (n, lane) in self.lanes.iter().enumerate() {
            let node = &lane.node;
            for (line, v) in node.ras.mirror_entries() {
                let mem_v = node.mem[line.bank(node.mem.len())].version(line);
                assert_eq!(
                    v, mem_v,
                    "mirror log diverges from memory for {line} on node {n}"
                );
            }
        }
    }

    /// Run until the total retired instruction count reaches `target` (or
    /// every CPU is done).
    ///
    /// A single-chip machine runs the classic serial loop; a multi-chip
    /// machine runs the quantum-stepped engine at the configured worker
    /// count (see [`Machine::set_parallel_workers`]), with bit-identical
    /// results at every count.
    ///
    /// # Panics
    ///
    /// Panics if the event queues drain while CPUs are unfinished or the
    /// event budget is exhausted — both indicate a protocol deadlock bug.
    /// A drained queue panics with a report of where every node is stuck
    /// (see `deadlock_report`).
    pub fn run_until_total(&mut self, target: u64) {
        debug_assert_eq!(
            self.lanes.iter().map(|l| l.instrs_retired).sum::<u64>(),
            self.total_instrs()
        );
        if self.lanes.len() == 1 {
            self.run_serial(target);
        } else {
            self.run_quanta(target);
        }
    }

    /// The classic single-chip loop: pop, dispatch, re-check the stop
    /// conditions every 64 events. Both the instruction total and the
    /// all-CPUs-done condition are tracked incrementally
    /// (`instrs_retired`, `unfinished`) rather than rescanned from the
    /// per-core statistics every iteration.
    fn run_serial(&mut self, target: u64) {
        let sh = LaneShared::new(&self.cfg, 1);
        let lane = &mut self.lanes[0];
        'outer: while lane.instrs_retired < target {
            if lane.unfinished == 0 {
                break;
            }
            for _ in 0..64 {
                let Some((t, ev)) = lane.events.pop() else {
                    if lane.unfinished > 0 {
                        panic!(
                            "{}",
                            deadlock_report(
                                "event queue drained with unfinished CPUs: deadlock",
                                std::slice::from_ref(lane)
                            )
                        );
                    }
                    break 'outer;
                };
                assert!(
                    lane.events.popped() < 2_000_000_000,
                    "event budget exhausted: runaway simulation"
                );
                lane.dispatch(&sh, t, ev);
                debug_assert!(
                    lane.outbox.is_empty(),
                    "a single-chip machine generated cross-node traffic"
                );
            }
        }
        self.clock = self.clock.max(self.lanes[0].events.now());
        self.parsim.events = self.lanes[0].events.popped();
    }

    /// The multi-chip engine: conservative parallel-in-space execution
    /// with deterministic lookahead windows (`piranha-parsim`).
    ///
    /// Every window, all lanes advance independently — one per worker
    /// thread — to the horizon at `t_min + quantum`. The lookahead
    /// guarantee (no cross-node delivery lands in under `quantum`) means
    /// no lane can receive an event inside the window it is executing,
    /// so the windows need no locking. At the barrier the coordinator —
    /// with every worker provably parked, so the lanes are plain `&mut`,
    /// no per-lane mutexes — merges every lane's buffered departures in
    /// `(time, source, seq)` order into one reused buffer and routes
    /// them through the shared fabric into the destination lanes'
    /// inboxes; both that order and each lane's own event order are
    /// independent of the worker count, which is the determinism
    /// argument in one sentence. A window with no traffic skips the
    /// merge entirely (`empty_windows`).
    ///
    /// Beyond that the coordinator only reads each lane's
    /// [`LaneSummary`](crate::node::LaneSummary), all the stop check and
    /// the next window's base need, which the lane publishes at the end
    /// of its window; the lane schedules its own inbox at the start of
    /// the next one. Without a probe, no gate wait reads the clock.
    fn run_quanta(&mut self, target: u64) {
        let workers = self.workers.clamp(1, self.lanes.len());
        let Machine {
            cfg,
            lanes,
            net,
            probe,
            lookahead,
            parsim,
            clock,
            ..
        } = self;
        let cfg: &SystemConfig = cfg;
        let lookahead: &Lookahead = lookahead;
        let sh = LaneShared::new(cfg, lanes.len());
        let nlanes = lanes.len();
        // Per-lane barrier-stall histograms (noop handles when the probe
        // is disabled): worker w's gate-wait time is charged to every
        // lane it owns, making stragglers visible per simulated chip.
        let wait_hists: Vec<piranha_probe::HistogramHandle> = (0..nlanes)
            .map(|n| probe.histogram(&format!("parsim.node{n}.barrier_wait_ns")))
            .collect();
        let mut record_waits = |w: usize, ns: u64| {
            for h in wait_hists.iter().skip(w).step_by(workers) {
                h.record(ns);
            }
        };
        let stall_probe = probe
            .is_enabled()
            .then_some(&mut record_waits as &mut dyn FnMut(usize, u64));
        let mut merged = Vec::new();
        let mut path = NetPath {
            cfg,
            net,
            probe,
            lookahead,
        };
        let mut popped_total = 0u64;
        for lane in lanes.iter_mut() {
            debug_assert!(
                lane.inbox.is_empty(),
                "a run started with arrivals unqueued"
            );
            lane.publish_summary();
        }
        let stats = piranha_parsim::run_windows(
            workers,
            lanes,
            |lane, horizon| lane.advance(&sh, horizon),
            |lanes, stats| {
                // Route the previous window's cross-node traffic,
                // charging the *source* lane's link-fault hooks.
                let (routed, first_arrival) = path.route_departures(lanes, &mut merged);
                match routed {
                    0 => stats.empty_windows += 1,
                    n => stats.merged_events += n as u64,
                }
                // Stop checks, then the next window's base time: the
                // earliest of every lane's next event and the arrivals
                // just routed, which sit in the inboxes.
                let mut retired = 0u64;
                let mut unfinished = 0usize;
                let mut popped = 0u64;
                let mut t_min = first_arrival;
                for lane in lanes.iter() {
                    let s = &lane.summary;
                    debug_assert_eq!(*s, lane.live_summary(), "a lane's summary is stale");
                    retired += s.retired;
                    unfinished += s.unfinished;
                    popped += s.popped;
                    *clock = (*clock).max(s.now);
                    t_min = t_min.into_iter().chain(s.next).min();
                }
                assert!(
                    popped < 2_000_000_000,
                    "event budget exhausted: runaway simulation"
                );
                popped_total = popped;
                if retired >= target || unfinished == 0 {
                    return None;
                }
                let Some(base) = t_min else {
                    panic!(
                        "{}",
                        deadlock_report(
                            "event queues drained with unfinished CPUs: deadlock",
                            lanes
                        )
                    );
                };
                Some(lookahead.horizon(base))
            },
            stall_probe,
        );
        // The last control pass routed the final window's traffic;
        // queue it now, so what runs next (a CPU start, warming, the
        // next run) finds it where the barrier routed it.
        for lane in lanes.iter_mut() {
            lane.flush_inbox();
        }
        parsim.rounds += stats.rounds;
        parsim.windows += stats.windows;
        parsim.empty_windows += stats.empty_windows;
        parsim.merged_events += stats.merged_events;
        parsim.events = popped_total;
    }

    /// Stop a CPU through the node's system controller (paper §2.6: the
    /// SC can start/stop individual Alpha cores). In-flight transactions
    /// complete; the core simply stops being scheduled.
    pub fn stop_cpu(&mut self, node: usize, cpu: usize) {
        let lane = &mut self.lanes[node];
        let nd = &mut lane.node;
        let was_running = nd.sc.cpu_enabled(CpuId(cpu as u8)) && !nd.cpus.is_done(cpu);
        nd.sc.handle(crate::sysctl::CtrlPacket::StopCpu {
            cpu: CpuId(cpu as u8),
        });
        if was_running && !nd.sc.cpu_enabled(CpuId(cpu as u8)) {
            lane.unfinished -= 1;
        }
    }

    /// Restart a stopped CPU; it resumes its stream where it left off.
    pub fn start_cpu(&mut self, node: usize, cpu: usize) {
        let t = self.clock;
        let lane = &mut self.lanes[node];
        let nd = &mut lane.node;
        let was_stopped = !nd.sc.cpu_enabled(CpuId(cpu as u8));
        nd.sc.handle(crate::sysctl::CtrlPacket::StartCpu {
            cpu: CpuId(cpu as u8),
        });
        if was_stopped && nd.sc.cpu_enabled(CpuId(cpu as u8)) && !nd.cpus.is_done(cpu) {
            lane.unfinished += 1;
        }
        let at = t.max(lane.events.now());
        lane.events.schedule(at, Ev::Step { cpu });
    }

    /// The system controller of `node` (configuration, interrupts,
    /// performance monitoring).
    pub fn system_controller(&self, node: usize) -> &crate::sysctl::SystemController {
        &self.lanes[node].node.sc
    }

    /// Verify system-wide coherence invariants; used by integration and
    /// property tests. Checks that (1) at most one cache in the whole
    /// system holds a line in a writable state (the single-writer
    /// invariant); (2) *within* a chip, a writable copy excludes every
    /// other local copy — exact because the intra-chip switch applies
    /// coherence atomically; (3) every L1-resident line is tracked by its
    /// bank's duplicate tags.
    ///
    /// A *remote* stale Shared copy may transiently coexist with a new
    /// owner's Modified copy: the paper's eager exclusive replies grant
    /// ownership before the cruise-missile invalidations land (§2.5.3),
    /// so that window is legal and not flagged.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_coherence(&self) {
        use std::collections::HashMap as Map;
        let mut writable: Map<LineAddr, (usize, Slot)> = Map::new();
        let mut per_node: Map<(usize, LineAddr), (u32, u32)> = Map::new(); // (copies, writable)
        for (n, lane) in self.lanes.iter().enumerate() {
            let node = &lane.node;
            for (slot, l1) in node.l1s.iter() {
                for (line, state, _v) in l1.resident() {
                    let e = per_node.entry((n, line)).or_insert((0, 0));
                    e.0 += 1;
                    if state.writable() {
                        e.1 += 1;
                        if let Some((on, os)) = writable.insert(line, (n, slot)) {
                            panic!(
                                "two writable copies of {line}: node{on}/{os} and node{n}/{slot}"
                            );
                        }
                    }
                    let d = node.banks[lane.bank_of(line)]
                        .dup()
                        .get(line)
                        .unwrap_or_else(|| panic!("L1 line {line} missing from dup tags"));
                    assert!(
                        d.l1_state(slot).readable(),
                        "dup tags disagree with L1 for {line} at {slot}"
                    );
                }
            }
        }
        for ((n, line), (copies, writables)) in &per_node {
            if *writables > 0 {
                assert_eq!(
                    *copies, 1,
                    "writable line {line} coexists with other copies on node {n}"
                );
            }
        }
    }
}

/// `headline`, then the simulated time and, per node, what holds it up:
/// each protocol engine's TSRF and deferred-input counts and its live
/// transactions (the home engine's queued requests too), then each line
/// the node's CPUs wait on, with the waiting L1 slots and the L2 bank's
/// pending entry for the line.
fn deadlock_report(headline: &str, lanes: &[NodeLane]) -> String {
    use std::fmt::Write;
    let now = lanes
        .iter()
        .map(|l| l.events.now())
        .max()
        .unwrap_or_default();
    let mut out = format!("{headline}\nat {now}");
    for lane in lanes {
        let nd = &lane.node;
        let (home, remote) = (&nd.home, &nd.remote);
        let ((ht, hd), (rt, rd)) = (home.occupancy(), remote.occupancy());
        let _ = write!(
            out,
            "\nnode {}: home {ht} TSRF {hd} deferred, remote {rt} TSRF {rd} deferred",
            lane.index
        );
        for (name, state) in [("home", home.describe()), ("remote", remote.describe())] {
            if !state.is_empty() {
                let _ = write!(out, "\n  {name}: {state}");
            }
        }
        let mut waits: Vec<_> = lane
            .outstanding
            .keys()
            .map(|&(slot, line)| (line, slot))
            .collect();
        waits.sort_unstable();
        for group in waits.chunk_by(|a, b| a.0 == b.0) {
            let line = group[0].0;
            let _ = write!(out, "\n  {line} awaited by");
            for (_, slot) in group {
                let _ = write!(out, " {slot}");
            }
            let bank = &nd.banks[lane.bank_of(line)];
            if let Some(pending) = bank.describe_pending(line) {
                let _ = write!(out, "; bank: {pending}");
            }
        }
    }
    out
}
