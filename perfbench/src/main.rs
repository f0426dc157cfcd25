//! `perfbench`: the simulation worker behind `perfbench/run.py`, the
//! repository's benchmark of the Piranha simulator.
//!
//! The worker runs one workload for a time budget and prints one JSON
//! object per line on stdout. `run.py` builds it, starts it as several
//! short processes, checks every repetition for correctness and reduces
//! the timings to the metrics listed in `BENCHMARK.json`.
//!
//! # Workloads
//!
//! All three are batch simulations of a fixed size. The seed is
//! `SystemConfig::seed`.
//!
//! * `chip_oltp`: the P8 chip on OLTP, 200k warm-up + 300k measured
//!   instructions per CPU, serial loop. Host time goes through the timed
//!   detailed path (cpu, L1, duplicate tags, L2 banks, ICS, memory) and
//!   never touches the fabric, the inter-node protocol, the windowed
//!   engine or functional warming.
//! * `multichip_oltp`: P4x4 on OLTP at the same scale with 2 lane
//!   workers. The only workload that drives the protocol engines, the
//!   fabric and the windowed parallel engine.
//! * `sampled_oltp`: P8 on OLTP bounded to 2000 transactions per CPU,
//!   run to completion under 25k/1k sampling. It reaches the cache,
//!   memory and directory state mostly through functional warming.
//!
//! Why these three, and why `serve_replay`, DSS and `sim_mips` are left
//! out, is recorded in the header of `run.py`.
//!
//! # Modes
//!
//! * `plain`: untraced repetitions (`Machine::new`, then the timed
//!   simulation call) until the budget is spent, one `rep` line each,
//!   carrying the host-speed index around it and the times of
//!   `--setups` calls of `Machine::new` alone made before it; then a
//!   `proc` line with the process's peak resident set.
//! * `traced`: the per-layer run. It alternates untraced repetitions
//!   with repetitions that attach a metrics-only `Probe`, times calls
//!   into `EventQueue`, `L1Cache`, `L2Bank` and `Network::send`, records
//!   a span around each timed call, writes the spans to `--spans`, and
//!   prints a `layers` line with every per-layer metric.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use piranha::cache::{BankEvent, L1Cache, L1Config, L1Set, L2Bank, L2BankConfig, Mesi, Slot};
use piranha::experiments::{aggregate_cpi, oltp, oltp_bounded};
use piranha::kernel::{EventQueue, Prng};
use piranha::net::{Network, Packet, PacketKind, Topology};
use piranha::types::{CacheKind, CpuId, Lane, LineAddr, NodeId, RemoteSummary, ReqType, SimTime};
use piranha::workloads::Workload;
use piranha::{
    Machine, Probe, ProbeConfig, RunResult, SampleConfig, SampleEstimate, SystemConfig, TraceLevel,
};

enum Kind {
    Chip,
    Multichip,
    Sampled,
}

/// One workload at one scale: what to build and how to drive it.
struct Spec {
    cfg: SystemConfig,
    workload: Workload,
    workers: usize,
    warmup: u64,
    measure: u64,
    sample: Option<SampleConfig>,
}

impl Spec {
    /// `tiny` shrinks every workload to a fraction of a second for the
    /// benchmark's self-test; the layers exercised stay the same.
    fn new(kind: Kind, tiny: bool, seed: u64) -> Spec {
        let (warmup, measure) = if tiny {
            (2_000, 10_000)
        } else {
            (200_000, 300_000)
        };
        let (cfg, workload, workers, sample) = match kind {
            Kind::Chip => (SystemConfig::piranha_p8(), oltp(), 1, None),
            Kind::Multichip => (
                SystemConfig::piranha_pn(4).scaled_to_chips(4),
                oltp(),
                2,
                None,
            ),
            Kind::Sampled => {
                let (txns, period, window) = if tiny {
                    (200, 2_500, 400)
                } else {
                    (2_000, 25_000, 1_000)
                };
                (
                    SystemConfig::piranha_p8(),
                    oltp_bounded(txns),
                    1,
                    Some(SampleConfig::new(period, window)),
                )
            }
        };
        Spec {
            cfg: SystemConfig { seed, ..cfg },
            workload,
            workers,
            warmup,
            measure,
            sample,
        }
    }

    fn build(&self) -> Machine {
        let mut m = Machine::new(self.cfg.clone(), &self.workload);
        m.set_parallel_workers(self.workers);
        m
    }

    fn drive(&self, m: &mut Machine) -> RunResult {
        match &self.sample {
            Some(s) => m.run_sampled(s, None),
            None => m.run(self.warmup, self.measure),
        }
    }

    fn run_name(&self) -> &'static str {
        if self.sample.is_some() {
            "system.run_sampled"
        } else {
            "system.run"
        }
    }
}

/// Spans kept in memory and written out when the run ends. A disabled
/// recorder ignores every call, so untraced repetitions pay nothing.
struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Spans {
    fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let i = self.stack.pop().expect("span exit without enter");
        self.spans[i].end_ns = end;
    }

    /// Each span's duration minus the time its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time summed per span name, in first-seen order.
    fn self_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let own = self.self_ns();
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += 1;
                }
                None => out.push((s.name, ns, 1)),
            }
        }
        out
    }

    fn to_json(&self) -> String {
        let own = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Obj::new()
                    .int("id", i as u64)
                    .str("name", s.name)
                    .raw(
                        "parent",
                        &s.parent
                            .map_or_else(|| "null".to_string(), |p| p.to_string()),
                    )
                    .int("start_ns", s.start_ns)
                    .int("end_ns", s.end_ns)
                    .int("self_ns", self_ns)
                    .done()
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// A JSON object written field by field (the workspace has no serde).
struct Obj(String);

impl Obj {
    fn new() -> Obj {
        Obj(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        self.0.push('"');
        self.0.push_str(k);
        self.0.push_str("\":");
    }

    fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.0.push_str(v);
        self
    }

    fn int(self, k: &str, v: u64) -> Obj {
        self.raw(k, &v.to_string())
    }

    fn num(self, k: &str, v: f64) -> Obj {
        if v.is_finite() {
            self.raw(k, &v.to_string())
        } else {
            self.raw(k, "null")
        }
    }

    fn str(self, k: &str, v: &str) -> Obj {
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.raw(k, &format!("\"{escaped}\""))
    }

    fn done(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// What one repetition observed: host times plus every simulated count
/// the correctness gate and the per-layer report read.
struct Obs {
    setup_ns: u64,
    wall_ns: u64,
    result: RunResult,
    events: u64,
    instrs: u64,
    parsim: piranha::ParsimStats,
    fabric: piranha::FabricStats,
    engines: (u64, u64, usize, usize),
    /// Summed `parsim.node<n>.barrier_wait_ns` (traced repetitions only).
    barrier_wait_ns: f64,
}

impl Obs {
    fn sim_cpi(&self) -> f64 {
        match &self.result.sample {
            Some(est) => est.cpi_mean,
            None => aggregate_cpi(&self.result),
        }
    }

    /// The deterministic part of a repetition, as JSON: identical across
    /// repetitions of one seed, or the simulator is not deterministic.
    fn det_json(&self) -> String {
        let r = &self.result;
        let mut o = Obj::new()
            .str("fingerprint", &format!("{:016x}", r.fingerprint()))
            .str(
                "sim_cpi_bits",
                &format!("{:016x}", self.sim_cpi().to_bits()),
            )
            .int("events", self.events)
            .int("instrs", self.instrs)
            .int("window_instrs", r.total_instrs())
            .int("committed", r.committed_txns.unwrap_or(0))
            .int("delivered", self.fabric.delivered)
            .int("walks", self.fabric.walks)
            .int("retransmits", self.fabric.retransmits)
            .int("parsim_windows", self.parsim.windows)
            .int("parsim_merged", self.parsim.merged_events);
        if let Some(est) = &r.sample {
            o = o
                .int("sample_windows", est.windows)
                .int("sample_detailed_instrs", est.detailed_instrs)
                .int("sample_warmed_instrs", est.warmed_instrs);
        }
        o.done()
    }
}

fn rep(spec: &Spec, probe: Option<&Probe>, spans: &mut Spans) -> Obs {
    spans.enter("bench.rep");
    spans.enter("system.new");
    let t = Instant::now();
    let mut m = spec.build();
    let setup_ns = t.elapsed().as_nanos() as u64;
    spans.exit();
    if let Some(p) = probe {
        m.set_probe(p.clone());
    }
    spans.enter(spec.run_name());
    let t = Instant::now();
    let result = std::hint::black_box(spec.drive(&mut m));
    let wall_ns = t.elapsed().as_nanos() as u64;
    spans.exit();
    spans.exit();
    let barrier_wait_ns = probe.map_or(0.0, |p| {
        (0..spec.cfg.nodes)
            .map(|n| {
                let h = p
                    .histogram(&format!("parsim.node{n}.barrier_wait_ns"))
                    .core();
                h.mean() * h.count() as f64
            })
            .sum()
    });
    Obs {
        setup_ns,
        wall_ns,
        events: m.parsim_stats().events,
        instrs: m.total_instrs(),
        parsim: m.parsim_stats(),
        fabric: m.fabric_stats(),
        engines: m.engine_stats(),
        result,
        barrier_wait_ns,
    }
}

/// Run one repetition, turning a panic into an error line: a panic is a
/// failed operation, never a number.
fn checked_rep(spec: &Spec, probe: Option<&Probe>, spans: &mut Spans) -> Result<Obs, String> {
    let depth = spans.stack.len();
    let r = catch_unwind(AssertUnwindSafe(|| rep(spec, probe, &mut *spans)));
    // Close the spans a panic left open.
    while spans.stack.len() > depth {
        spans.exit();
    }
    r.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The `rep` line of a repetition, open for more fields.
fn rep_obj(index: usize, traced: bool, r: &Result<Obs, String>) -> Obj {
    let o = Obj::new()
        .str("kind", "rep")
        .int("index", index as u64)
        .raw("traced", if traced { "true" } else { "false" });
    match r {
        Ok(obs) => o
            .str("error", "")
            .num("setup_ms", obs.setup_ns as f64 / 1e6)
            .num("wall_ms", obs.wall_ns as f64 / 1e6)
            .num("sim_cpi", obs.sim_cpi())
            .raw("det", &obs.det_json()),
        Err(e) => o.str("error", e),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How fast the host runs right now, apart from the simulator. Other
/// tenants of a shared host slow it in phases lasting seconds to
/// minutes: they take core clock (turbo headroom) and last-level cache.
/// Two fixed loops sample both: an integer multiply chain and a pointer
/// chase over 4 MiB. The index is the geometric mean of their times
/// relative to a calm 2-vCPU Xeon host; 1.0 is calm, 1.3 means 30%
/// slower. A loop over DRAM alone does not follow the slowdowns.
fn host_index() -> f64 {
    const ALU_STEPS: u64 = 10_000_000;
    const ALU_CALM_MS: f64 = 15.0;
    const CHASE_SLOTS: usize = 1 << 19;
    const CHASE_STEPS: usize = 1_000_000;
    const CHASE_CALM_MS: f64 = 31.0;
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ALU_STEPS {
        x = x.rotate_left(7) ^ x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    let alu_ms = t.elapsed().as_secs_f64() * 1e3;
    // Sattolo's shuffle: one cycle through every slot, so the chase
    // visits the whole 4 MiB. Built fresh each time and freed, so it
    // never raises the peak resident set above the simulator's own.
    let mut next: Vec<usize> = (0..CHASE_SLOTS).collect();
    let mut rng = Prng::seed_from_u64(0x05A7_7010);
    for i in (1..CHASE_SLOTS).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let t = Instant::now();
    let mut p = 0usize;
    for _ in 0..CHASE_STEPS {
        p = next[p];
    }
    std::hint::black_box(p);
    let chase_ms = t.elapsed().as_secs_f64() * 1e3;
    (alu_ms / ALU_CALM_MS * chase_ms / CHASE_CALM_MS).sqrt()
}

/// Jiffies the hypervisor stole from this guest, all CPUs together
/// (`/proc/stat`); 0 where the kernel does not report them.
fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Untraced repetitions until `budget_s` is spent, at least two. A
/// repetition starts only if the longest one so far would still fit.
/// Each is bracketed by host-speed probes, carries the steal time from
/// the start of the first probe to the end of the second, and is
/// preceded by `setups`
/// timed calls of `Machine::new` alone: `Machine::new` takes well under
/// a millisecond, so one call per repetition is too few for a steady
/// median, and spreading the calls over the run keeps them from all
/// landing in one noisy moment.
fn plain(spec: &Spec, budget_s: f64, setups: usize) {
    let start = Instant::now();
    let mut spans = Spans::new(false);
    let mut longest_s: f64 = 0.0;
    let mut steal_from = steal_jiffies();
    let mut before = host_index();
    let mut i = 0;
    while i < 2 || start.elapsed().as_secs_f64() + longest_s <= budget_s {
        let setup_ms: Vec<String> = (0..setups)
            .map(|_| {
                let t = Instant::now();
                drop(std::hint::black_box(spec.build()));
                (t.elapsed().as_nanos() as f64 / 1e6).to_string()
            })
            .collect();
        let t = Instant::now();
        let r = checked_rep(spec, None, &mut spans);
        let steal_mid = steal_jiffies();
        let after = host_index();
        longest_s = longest_s.max(t.elapsed().as_secs_f64());
        let line = rep_obj(i, false, &r)
            .num("host_index", (before * after).sqrt())
            .int("steal_jiffies", steal_jiffies() - steal_from)
            .raw("setups_ms", &format!("[{}]", setup_ms.join(",")));
        println!("{}", line.done());
        before = after;
        steal_from = steal_mid;
        i += 1;
    }
    println!(
        "{}",
        Obj::new()
            .str("kind", "proc")
            .num("peak_rss_mb", peak_rss_mb())
            .done()
    );
}

/// Nanoseconds per call made by `body`, median of `trials`. Each trial
/// builds fresh state with `setup` (untimed), then runs `body` inside
/// one span; `body` returns how many calls it made.
fn time_calls<S>(
    spans: &mut Spans,
    name: &'static str,
    trials: usize,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut per_call: Vec<f64> = (0..trials)
        .map(|_| {
            let mut state = setup();
            spans.enter(name);
            let t = Instant::now();
            let calls = std::hint::black_box(body(&mut state));
            let ns = t.elapsed().as_nanos() as f64;
            spans.exit();
            drop(std::hint::black_box(state));
            ns / calls.max(1) as f64
        })
        .collect();
    median(&mut per_call)
}

/// Timed calls into single layers, outside any simulation. Inputs come
/// from `seed`, so a seed fixes them.
struct Micro {
    queue_ns_per_op: f64,
    l1_ns_per_access: f64,
    l2_ns_per_miss: f64,
    net_ns_per_send: f64,
}

fn micro(spans: &mut Spans, seed: u64, tiny: bool) -> Micro {
    let trials = 5;
    let n: u64 = if tiny { 20_000 } else { 400_000 };
    spans.enter("bench.micro");
    // EventQueue: a steady queue of 256 pending events, one pop and one
    // schedule per step, the shape of the simulator's dispatch loop.
    let mut rng = Prng::seed_from_u64(seed ^ 0x51);
    let mut fill_rng = rng.derive(1);
    let fill = || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..256 {
            q.schedule(SimTime(fill_rng.below(10_000)), i);
        }
        q
    };
    let queue_ns_per_op = time_calls(spans, "kernel.event_queue", trials, fill, |q| {
        for i in 0..n {
            let (t, e) = q.pop().expect("the queue stays full");
            q.schedule(SimTime(t.0 + 1 + rng.below(10_000)), e ^ i);
        }
        2 * n
    });
    // L1Cache: reads over four times the cache's lines, fill on miss.
    let mut rng = Prng::seed_from_u64(seed ^ 0x52);
    let l1_ns_per_access = time_calls(
        spans,
        "cache.l1",
        trials,
        || L1Cache::new(L1Config::paper_default()),
        |l1| {
            for _ in 0..n {
                let line = LineAddr(rng.below(4096));
                if !l1.access_read(line) {
                    l1.fill(line, Mesi::Exclusive, 0);
                }
            }
            n
        },
    );
    // L2Bank: read misses from eight L1s over 2 MiB of lines, four times
    // what the L1s and the bank hold together, so most reads miss; a
    // miss that goes to memory is completed by the memory reply.
    let mut rng = Prng::seed_from_u64(seed ^ 0x53);
    let bank = || {
        (
            L2Bank::new(L2BankConfig::paper_default(), 0, 1),
            L1Set::new(8, L1Config::paper_default()),
        )
    };
    let l2_ns_per_miss = time_calls(spans, "cache.l2_bank", trials, bank, |(bank, l1s)| {
        let mut misses = 0u64;
        for _ in 0..n / 4 {
            let slot = Slot::new(CpuId(rng.below(8) as u8), CacheKind::Data);
            let line = LineAddr(rng.below(32_768));
            if l1s.get(slot).state(line).readable() || bank.is_pending(line) {
                continue;
            }
            misses += 1;
            bank.handle(
                BankEvent::Miss {
                    slot,
                    req: ReqType::Read,
                    line,
                    home_local: true,
                    store_version: None,
                },
                l1s,
            );
            if bank.is_pending(line) {
                bank.handle(
                    BankEvent::MemData {
                        line,
                        version: 0,
                        remote: RemoteSummary::None,
                    },
                    l1s,
                );
            }
        }
        misses
    });
    // Network::send on the P4x4 fabric: short packets between random
    // distinct nodes, injection times advancing behind the deliveries.
    let net_cfg = SystemConfig::piranha_pn(4).scaled_to_chips(4).net;
    let mut rng = Prng::seed_from_u64(seed ^ 0x54);
    let fabric = || Network::<u32>::new(Topology::fully_connected(4), net_cfg);
    let net_ns_per_send = time_calls(spans, "net.send", trials, fabric, |net| {
        let mut last = SimTime::ZERO;
        for _ in 0..n / 4 {
            let s = rng.below(4) as u16;
            let d = (s + 1 + rng.below(3) as u16) % 4;
            let pkt = Packet::new(NodeId(s), NodeId(d), Lane::Low, PacketKind::Short, 0);
            let (t, _) = net.send(last, pkt);
            last = SimTime(last.0 + (t.0 - last.0) / 7);
        }
        n / 4
    });
    spans.exit();
    Micro {
        queue_ns_per_op,
        l1_ns_per_access,
        l2_ns_per_miss,
        net_ns_per_send,
    }
}

/// The per-layer run: untraced and probed repetitions alternate until
/// the budget is spent (at least one of each after a warm-up), then the
/// single-layer timings, then (sampled workload) the full-detail
/// reference the estimate's error is measured against.
fn traced(spec: &Spec, budget_s: f64, tiny: bool, seed: u64, spans_path: &str) {
    let start = Instant::now();
    let mut spans = Spans::new(true);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut last: Option<Obs> = None;
    let mut longest_s: f64 = 0.0;
    let mut i = 0;
    // Repetition 0 warms the process up and is left out.
    while i < 3 || start.elapsed().as_secs_f64() + longest_s <= budget_s * 0.75 {
        let with_probe = i % 2 == 1;
        let probe = with_probe.then(|| Probe::new(ProbeConfig::with_level(TraceLevel::Off)));
        let t = Instant::now();
        let r = checked_rep(spec, probe.as_ref(), &mut spans);
        longest_s = longest_s.max(t.elapsed().as_secs_f64());
        println!("{}", rep_obj(i, with_probe, &r).done());
        if let Ok(obs) = r {
            let ms = obs.wall_ns as f64 / 1e6;
            if with_probe {
                traced_ms.push(ms);
                last = Some(obs);
            } else if i > 0 {
                untraced_ms.push(ms);
            }
        }
        i += 1;
    }
    let mc = micro(&mut spans, seed, tiny);
    let ref_cpi = spec.sample.as_ref().map(|_| {
        spans.enter("reference.run_to_completion");
        let mut m = spec.build();
        let r = m.run_to_completion();
        spans.exit();
        aggregate_cpi(&r)
    });
    if let Err(e) = std::fs::write(spans_path, spans.to_json()) {
        eprintln!("perfbench: cannot write spans to {spans_path}: {e}");
    }
    for (name, ns, count) in spans.self_by_name() {
        println!(
            "{}",
            Obj::new()
                .str("kind", "span")
                .str("name", name)
                .int("count", count)
                .num("self_ms", ns as f64 / 1e6)
                .done()
        );
    }
    let Some(obs) = last else {
        return; // every probed repetition failed; run.py reports it
    };
    // Fastest repetitions, as for `wall_ms`: host noise only adds time.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let untraced = fastest(&untraced_ms);
    let traced = fastest(&traced_ms);
    let r = &obs.result;
    let cpu = r.merged();
    let bd = r.breakdown();
    let ps = obs.parsim;
    let fs = &obs.fabric;
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let metric = |name: &str| r.metrics.get(name).map_or(0.0, |v| v.as_f64());
    let workers = spec.workers.min(spec.cfg.nodes) as f64;
    let est = r.sample.clone().unwrap_or(SampleEstimate {
        cpi_mean: 0.0,
        cpi_ci95: 0.0,
        stall_mean: 0.0,
        stall_ci: 0.0,
        windows: 0,
        detailed_fraction: 0.0,
        detailed_instrs: 0,
        warmed_instrs: 0,
    });
    let mut o = Obj::new()
        .str("kind", "layers")
        .num("system.new_ms", obs.setup_ns as f64 / 1e6)
        .num("system.run_ms", untraced)
        .num("kernel.events", metric("kernel.events.popped"))
        .num("kernel.events_migrated", metric("kernel.events.migrated"))
        .num(
            "kernel.host_ns_per_event",
            untraced * 1e6 / obs.events.max(1) as f64,
        )
        .num("kernel.queue_ns_per_op", mc.queue_ns_per_op)
        .num("cpu.sim_cpi", obs.sim_cpi())
        .num("cpu.instrs", obs.instrs as f64)
        .num(
            "cpu.host_ns_per_instr",
            untraced * 1e6 / obs.instrs.max(1) as f64,
        )
        .num("cpu.busy_frac", bd.busy)
        .num("cpu.l2_hit_frac", bd.l2_hit)
        .num("cpu.l2_miss_frac", bd.l2_miss)
        .num("cache.l1_hits", cpu.l1_hits as f64)
        .num("cache.l1i_misses", cpu.l1i_misses as f64)
        .num("cache.l1d_misses", cpu.l1d_misses as f64)
        .num("cache.l1_ns_per_access", mc.l1_ns_per_access)
        .num("cache.l2_ns_per_miss", mc.l2_ns_per_miss)
        .num("mem.page_hit_rate", r.mem_page_hit_rate)
        .num("protocol.home_msgs", obs.engines.0 as f64)
        .num("protocol.remote_msgs", obs.engines.1 as f64)
        .num(
            "protocol.tsrf_high_water",
            obs.engines.2.max(obs.engines.3) as f64,
        )
        .num("net.delivered", fs.delivered as f64)
        .num("net.mean_hops", fs.mean_hops)
        .num("net.deflections", fs.deflections as f64)
        .num("net.link_busy_ns", fs.link_busy.as_ns() as f64)
        .num("net.ns_per_send", mc.net_ns_per_send)
        .num("parsim.rounds", ps.rounds as f64)
        .num("parsim.windows", ps.windows as f64)
        .num(
            "parsim.empty_window_frac",
            frac(ps.empty_windows, ps.windows),
        )
        .num(
            "parsim.events_per_window",
            if ps.windows == 0 {
                0.0
            } else {
                frac(ps.events, ps.windows)
            },
        )
        .num("parsim.merged_events", ps.merged_events as f64)
        .num("parsim.merged_frac", frac(ps.merged_events, ps.events))
        .num("parsim.barrier_wait_ms", obs.barrier_wait_ns / 1e6)
        .num(
            "parsim.barrier_wait_frac",
            obs.barrier_wait_ns / (workers * obs.wall_ns as f64).max(1.0),
        )
        .num("sample.windows", est.windows as f64)
        .num("sample.detailed_frac", est.detailed_fraction)
        .num("sample.detailed_instrs", est.detailed_instrs as f64)
        .num("sample.warmed_instrs", est.warmed_instrs as f64)
        .num("sample.cpi_ci95", est.cpi_ci95)
        .num(
            "trace.overhead_pct",
            100.0 * (traced / untraced.max(1e-9) - 1.0),
        );
    if let Some(ref_cpi) = ref_cpi {
        o = o.num("sample.ref_cpi", ref_cpi).num(
            "sample.cpi_err_pct",
            100.0 * (est.cpi_mean - ref_cpi).abs() / ref_cpi,
        );
    } else {
        o = o.num("sample.ref_cpi", 0.0).num("sample.cpi_err_pct", 0.0);
    }
    println!("{}", o.done());
    println!(
        "{}",
        Obj::new()
            .str("kind", "proc")
            .num("peak_rss_mb", peak_rss_mb())
            .done()
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <plain|traced> --workload <chip_oltp|multichip_oltp|sampled_oltp> \
         --seed <n> --budget <seconds> [--tiny] [--setups <n>] [--spans <path>]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_else(|| usage());
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
    };
    let kind = match flag("--workload").as_deref() {
        Some("chip_oltp") => Kind::Chip,
        Some("multichip_oltp") => Kind::Multichip,
        Some("sampled_oltp") => Kind::Sampled,
        _ => usage(),
    };
    let num = |name: &str, default: f64| -> f64 {
        flag(name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let seed: u64 = flag("--seed")
        .map_or(Some(SystemConfig::piranha_p8().seed), |v| v.parse().ok())
        .unwrap_or_else(|| usage());
    let tiny = args.iter().any(|a| a == "--tiny");
    let budget = num("--budget", 10.0);
    let spec = Spec::new(kind, tiny, seed);
    // Panics are reported as failed repetitions; keep stderr for the
    // message only.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    match mode.as_str() {
        "plain" => plain(&spec, budget, num("--setups", 0.0) as usize),
        "traced" => {
            let path = flag("--spans").unwrap_or_else(|| "spans.json".to_string());
            traced(&spec, budget, tiny, seed, &path)
        }
        _ => usage(),
    }
}
