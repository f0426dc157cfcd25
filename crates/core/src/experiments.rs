//! Regenerators for every table and figure in the paper's evaluation
//! (§4). Each function runs the relevant configurations and returns the
//! same rows/series the paper reports; the `fig*`/`table*` binaries
//! print them.
//!
//! Absolute numbers will not match the paper (our substrate is a
//! from-scratch simulator with synthetic workloads), but the *shape* —
//! who wins, rough factors, crossovers — is the reproduction target; see
//! `EXPERIMENTS.md` for the side-by-side record.
//!
//! ## The harness
//!
//! All figures are produced through the parallel, memoizing
//! [`Harness`]: each figure declares the
//! `(SystemConfig, Workload, RunScale)` tuples it needs as a
//! [`RunPlan`], unique runs execute across scoped worker threads, and
//! shared baselines (OOO, P1, P8 appear in four or more figures each)
//! are simulated exactly once. [`all_figures`] regenerates the entire
//! evaluation through one shared cache; because every simulation is
//! deterministic, its output is bit-identical to the serial
//! [`all_figures_serial`] path.

use piranha_serve::json::Json;
use piranha_system::{
    AvailabilityReport, FaultConfig, QueueDiscipline, RunResult, SampleConfig, SampleEstimate,
    SystemConfig, TopologyKind, TrafficConfig,
};
use piranha_workloads::{DssConfig, OltpConfig, Workload};

pub use piranha_harness::{cache_key, default_threads, Harness, RunPlan, RunRequest, RunScale};

use crate::observe::Table;

/// The two paper workloads.
pub fn oltp() -> Workload {
    Workload::Oltp(OltpConfig::paper_default())
}

/// The DSS (TPC-D Q6-like) workload.
pub fn dss() -> Workload {
    Workload::Dss(DssConfig::paper_default())
}

/// The TPC-C-like OLTP variant used by the §4 sensitivity analysis.
fn tpcc() -> Workload {
    Workload::Oltp(OltpConfig::tpcc_like())
}

/// One bar of Figure 5/8: a configuration's normalized execution time
/// and its breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Configuration name.
    pub name: String,
    /// Execution time normalized to OOO = 100.
    pub norm_time: f64,
    /// CPU-busy component (same normalization).
    pub busy: f64,
    /// L2-hit stall component.
    pub l2_hit: f64,
    /// L2-miss stall component.
    pub l2_miss: f64,
}

impl Bar {
    fn from(r: &RunResult, base: &RunResult) -> Bar {
        let t = r.normalized_time_vs(base) * 100.0;
        let b = r.breakdown();
        Bar {
            name: r.name.clone(),
            norm_time: t,
            busy: t * b.busy,
            l2_hit: t * b.l2_hit,
            l2_miss: t * b.l2_miss,
        }
    }
}

/// **Table 1**: the configuration parameters of P8, OOO/INO, and P8F.
pub fn table1() -> String {
    let configs = [
        SystemConfig::piranha_p8(),
        SystemConfig::ooo(),
        SystemConfig::piranha_p8f(),
    ];
    let mut out = format!(
        "{:<28} {:>14} {:>14} {:>14}\n",
        "Parameter", "Piranha (P8)", "OOO/INO", "P8F (custom)"
    );
    let rows: Vec<_> = configs.iter().map(|c| c.table1_row()).collect();
    for (i, (label, p8)) in rows[0].iter().enumerate() {
        out.push_str(&format!(
            "{:<28} {:>14} {:>14} {:>14}\n",
            label, p8, rows[1][i].1, rows[2][i].1
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Per-figure plans: the simulations each figure needs. `all_figures`
// merges these into one deduplicated batch.
// ---------------------------------------------------------------------

fn fig5_plan(w: &Workload, scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    for cfg in [
        SystemConfig::piranha_p1(),
        SystemConfig::ooo(),
        SystemConfig::ino(),
        SystemConfig::piranha_p8(),
    ] {
        p.add(cfg, w.clone(), scale);
    }
    p
}

fn fig6_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    for n in [1usize, 2, 4, 8] {
        p.add(SystemConfig::piranha_pn(n), oltp(), scale);
    }
    p.add(SystemConfig::ooo(), oltp(), scale);
    p
}

fn fig7_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.add(SystemConfig::piranha_pn(4), oltp(), scale);
    p.add(SystemConfig::ooo(), oltp(), scale);
    for chips in [2usize, 4] {
        p.add(
            SystemConfig::piranha_pn(4).scaled_to_chips(chips),
            oltp(),
            scale,
        );
        p.add(SystemConfig::ooo().scaled_to_chips(chips), oltp(), scale);
    }
    p
}

fn fig8_plan(w: &Workload, scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    for cfg in [
        SystemConfig::ooo(),
        SystemConfig::piranha_p8(),
        SystemConfig::piranha_p8f(),
    ] {
        p.add(cfg, w.clone(), scale);
    }
    p
}

fn sensitivity_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.add(SystemConfig::ooo(), oltp(), scale);
    p.add(SystemConfig::piranha_p8(), oltp(), scale);
    p.add(SystemConfig::piranha_p8_pessimistic(), oltp(), scale);
    p.add(SystemConfig::ooo(), tpcc(), scale);
    p.add(SystemConfig::piranha_p8(), tpcc(), scale);
    p
}

fn mem_pages_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.add(SystemConfig::piranha_p8(), oltp(), scale);
    p
}

// ---------------------------------------------------------------------
// Figure assemblers: pull memoized results out of a harness. The
// public `figN(...)` wrappers execute the figure's own plan first, so
// standalone calls parallelize across the figure's configurations.
// ---------------------------------------------------------------------

/// **Figure 5**: single-chip normalized execution time (OOO = 100) with
/// CPU-busy / L2-hit / L2-miss breakdown, for P1, OOO, INO, P8, on the
/// given workload, assembled from `h`'s cache.
pub fn fig5_with(h: &mut Harness, w: &Workload, scale: RunScale) -> Vec<Bar> {
    let base = h.get(&SystemConfig::ooo(), w, scale);
    vec![
        Bar::from(&h.get(&SystemConfig::piranha_p1(), w, scale), &base),
        Bar::from(&base, &base),
        Bar::from(&h.get(&SystemConfig::ino(), w, scale), &base),
        Bar::from(&h.get(&SystemConfig::piranha_p8(), w, scale), &base),
    ]
}

/// **Figure 5** with a private parallel harness.
pub fn fig5(w: &Workload, scale: RunScale) -> Vec<Bar> {
    let mut h = Harness::new();
    h.execute(&fig5_plan(w, scale));
    fig5_with(&mut h, w, scale)
}

/// **Figure 5 under sampling** (the `--sample=<period>/<window>` flag):
/// each configuration runs once under SMARTS-style sampling instead of
/// full detail, through a memoizing, store-backed harness, so rows
/// carry a CPI / stall-fraction estimate with 95% confidence intervals
/// rather than exact normalized figure numbers (golden fingerprints only
/// apply with the flag absent).
pub fn fig5_sampled(
    w: &Workload,
    scale: RunScale,
    sample: &SampleConfig,
) -> Vec<(String, SampleEstimate)> {
    let mut plan = RunPlan::new();
    for req in fig5_plan(w, scale).requests() {
        plan.push(RunRequest {
            sample: Some(sample.clone()),
            ..req.clone()
        });
    }
    let mut h = Harness::new();
    h.execute(&plan);
    plan.requests()
        .iter()
        .map(|req| {
            let r = h.fetch(req);
            let est = r.sample.clone().expect("sampled run carries an estimate");
            (req.cfg.name.clone(), est)
        })
        .collect()
}

/// Render sampled-run rows ([`fig5_sampled`]) as a text table.
pub fn render_sampled_bars(title: &str, rows: &[(String, SampleEstimate)]) -> String {
    let mut out = format!(
        "{title}\n{:<8} {:>8} {:>14} {:>14} {:>8}\n",
        "Config", "Windows", "CPI±CI95", "Stall±CI95", "Detail%"
    );
    for (name, e) in rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>8.3}±{:.3} {:>8.3}±{:.3} {:>7.1}%\n",
            name,
            e.windows,
            e.cpi_mean,
            e.cpi_ci95,
            e.stall_mean,
            e.stall_ci,
            e.detailed_fraction * 100.0,
        ));
    }
    out
}

/// **Figure 6(a)**: OLTP speedup of an n-CPU Piranha chip over P1, for
/// n in {1, 2, 4, 8}, plus the OOO point for reference, assembled from
/// `h`'s cache. Returns `(name, speedup_vs_p1)` pairs.
pub fn fig6a_with(h: &mut Harness, scale: RunScale) -> Vec<(String, f64)> {
    let w = oltp();
    let p1 = h.get(&SystemConfig::piranha_p1(), &w, scale);
    let mut out = vec![("P1".to_string(), 1.0)];
    for n in [2usize, 4, 8] {
        let r = h.get(&SystemConfig::piranha_pn(n), &w, scale);
        out.push((format!("P{n}"), r.speedup_over(&p1)));
    }
    let ooo = h.get(&SystemConfig::ooo(), &w, scale);
    out.push(("OOO".to_string(), ooo.speedup_over(&p1)));
    out
}

/// **Figure 6(a)** with a private parallel harness.
pub fn fig6a(scale: RunScale) -> Vec<(String, f64)> {
    let mut h = Harness::new();
    h.execute(&fig6_plan(scale));
    fig6a_with(&mut h, scale)
}

/// **Figure 6(b)**: breakdown of L1 misses (L2 hit / L2 fwd / L2 miss)
/// for P1, P2, P4, P8 on OLTP, assembled from `h`'s cache. Returns
/// `(name, hit, fwd, miss)` rows, fractions summing to 1.
pub fn fig6b_with(h: &mut Harness, scale: RunScale) -> Vec<(String, f64, f64, f64)> {
    let w = oltp();
    [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let r = h.get(&SystemConfig::piranha_pn(n), &w, scale);
            let (hit, f, m) = r.l1_miss_breakdown();
            (format!("P{n}"), hit, f, m)
        })
        .collect()
}

/// **Figure 6(b)** with a private parallel harness.
pub fn fig6b(scale: RunScale) -> Vec<(String, f64, f64, f64)> {
    let mut h = Harness::new();
    h.execute(&fig6_plan(scale));
    fig6b_with(&mut h, scale)
}

/// **Figure 7**: OLTP speedup of multi-chip systems (1, 2, 4 chips),
/// Piranha with 4 CPUs/chip versus OOO chips, each normalized to its own
/// single-chip result, assembled from `h`'s cache. Returns
/// `(chips, piranha_speedup, ooo_speedup)`.
pub fn fig7_with(h: &mut Harness, scale: RunScale) -> Vec<(usize, f64, f64)> {
    let w = oltp();
    let p_base = h.get(&SystemConfig::piranha_pn(4), &w, scale);
    let o_base = h.get(&SystemConfig::ooo(), &w, scale);
    let mut out = vec![(1, 1.0, 1.0)];
    for chips in [2usize, 4] {
        let p = h.get(
            &SystemConfig::piranha_pn(4).scaled_to_chips(chips),
            &w,
            scale,
        );
        let o = h.get(&SystemConfig::ooo().scaled_to_chips(chips), &w, scale);
        out.push((chips, p.speedup_over(&p_base), o.speedup_over(&o_base)));
    }
    out
}

/// **Figure 7** with a private parallel harness.
pub fn fig7(scale: RunScale) -> Vec<(usize, f64, f64)> {
    let mut h = Harness::new();
    h.execute(&fig7_plan(scale));
    fig7_with(&mut h, scale)
}

/// **Figure 8**: the full-custom chip (P8F) against OOO and P8, on the
/// given workload (OOO = 100), assembled from `h`'s cache.
pub fn fig8_with(h: &mut Harness, w: &Workload, scale: RunScale) -> Vec<Bar> {
    let base = h.get(&SystemConfig::ooo(), w, scale);
    vec![
        Bar::from(&base, &base),
        Bar::from(&h.get(&SystemConfig::piranha_p8(), w, scale), &base),
        Bar::from(&h.get(&SystemConfig::piranha_p8f(), w, scale), &base),
    ]
}

/// **Figure 8** with a private parallel harness.
pub fn fig8(w: &Workload, scale: RunScale) -> Vec<Bar> {
    let mut h = Harness::new();
    h.execute(&fig8_plan(w, scale));
    fig8_with(&mut h, w, scale)
}

/// **§4 sensitivity**: the pessimistic P8 (400 MHz, 32 KB 1-way L1s,
/// 22/32 ns L2) and the TPC-C-like workload, assembled from `h`'s
/// cache. Returns `(label, speedup_over_ooo)` rows.
pub fn sensitivity_with(h: &mut Harness, scale: RunScale) -> Vec<(String, f64)> {
    let w = oltp();
    let ooo = h.get(&SystemConfig::ooo(), &w, scale);
    let p8 = h.get(&SystemConfig::piranha_p8(), &w, scale);
    let pess = h.get(&SystemConfig::piranha_p8_pessimistic(), &w, scale);
    let tpcc_w = tpcc();
    let ooo_c = h.get(&SystemConfig::ooo(), &tpcc_w, scale);
    let p8_c = h.get(&SystemConfig::piranha_p8(), &tpcc_w, scale);
    vec![
        ("P8 vs OOO (TPC-B)".into(), p8.speedup_over(&ooo)),
        (
            "P8-pessimistic vs OOO (TPC-B)".into(),
            pess.speedup_over(&ooo),
        ),
        ("P8-pessimistic vs P8".into(), pess.speedup_over(&p8)),
        ("P8 vs OOO (TPC-C-like)".into(), p8_c.speedup_over(&ooo_c)),
    ]
}

/// **§4 sensitivity** with a private parallel harness.
pub fn sensitivity(scale: RunScale) -> Vec<(String, f64)> {
    let mut h = Harness::new();
    h.execute(&sensitivity_plan(scale));
    sensitivity_with(&mut h, scale)
}

/// **§2.4 claim**: RDRAM open-page hit rate on OLTP (the paper reports
/// >50% with ~1 µs page-open time), assembled from `h`'s cache.
pub fn mem_pages_with(h: &mut Harness, scale: RunScale) -> f64 {
    h.get(&SystemConfig::piranha_p8(), &oltp(), scale)
        .mem_page_hit_rate
}

/// **§2.4 claim** with a private harness.
pub fn mem_pages(scale: RunScale) -> f64 {
    let mut h = Harness::new();
    h.execute(&mem_pages_plan(scale));
    mem_pages_with(&mut h, scale)
}

// ---------------------------------------------------------------------
// Fault injection & availability (paper §2.7): the fig_faults sweep.
// ---------------------------------------------------------------------

/// The per-consult fault rates `fig_faults` sweeps (0 is the paired
/// fault-free baseline of each configuration).
pub const FAULT_RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];

/// The facts of the [`fig_faults`] table: the headline run.
pub const FAULT_FACTS: &[&str] = &[
    "config",
    "txns_per_cpu",
    "committed",
    "fingerprint",
    "fingerprint_repeat",
    "deterministic",
    "availability",
];

/// The columns of the [`fig_faults`] table: one row per configuration
/// and rate.
pub const FAULT_COLUMNS: &[&str] = &[
    "config",
    "rate",
    "injected",
    "corrected",
    "escalated",
    "retransmits",
    "mttr_cycles",
    "committed",
    "slowdown",
    "fingerprint",
];

/// A bounded OLTP workload (`txn_limit` transactions per CPU stream) —
/// the run-to-completion workload of the fault experiments, so a
/// faulted run provably commits the same work as its baseline.
pub fn oltp_bounded(txns_per_cpu: u64) -> Workload {
    Workload::Oltp(OltpConfig {
        txn_limit: txns_per_cpu,
        ..OltpConfig::paper_default()
    })
}

/// The configurations the fault sweep covers: the paper's single-chip
/// P8 and a two-chip P4 system (the latter exercises the inter-chip
/// link recovery paths).
fn fig_faults_configs() -> Vec<SystemConfig> {
    vec![
        SystemConfig::piranha_p8(),
        SystemConfig::piranha_pn(4).scaled_to_chips(2),
    ]
}

fn faulted(mut cfg: SystemConfig, seed: u64, rate: f64) -> SystemConfig {
    if rate > 0.0 {
        cfg.faults = FaultConfig::seeded(seed, rate);
    }
    cfg
}

/// The plan of every simulation the `fig_faults` sweep needs.
pub fn fig_faults_plan(seed: u64, txns_per_cpu: u64) -> RunPlan {
    let w = oltp_bounded(txns_per_cpu);
    let mut p = RunPlan::new();
    for cfg in fig_faults_configs() {
        for rate in FAULT_RATES {
            p.add(
                faulted(cfg.clone(), seed, rate),
                w.clone(),
                RunScale::completion(),
            );
        }
    }
    p
}

/// An availability ledger as a JSON object (`slowdown` is `null` unless
/// the caller stamped one in).
fn availability_json(av: &AvailabilityReport) -> Json {
    let by_kind = av
        .by_kind
        .iter()
        .map(|(k, &n)| (k.token().to_string(), Json::U64(n)));
    Json::obj(vec![
        ("injected".into(), Json::U64(av.injected)),
        ("corrected".into(), Json::U64(av.corrected)),
        ("escalated".into(), Json::U64(av.escalated)),
        ("retransmits".into(), Json::U64(av.retransmits)),
        ("recovery_cycles".into(), Json::U64(av.recovery_cycles)),
        ("mttr_cycles".into(), Json::U64(av.mttr_cycles())),
        ("slowdown".into(), av.slowdown.map_or(Json::Null, Json::F64)),
        ("by_kind".into(), Json::obj(by_kind.collect())),
    ])
}

/// The slowdown of faulted run `r` versus its fault-free `base`, after
/// checking that `r` resolved each fault once and lost no work.
fn checked_slowdown(what: &str, r: &RunResult, base: &RunResult) -> f64 {
    assert!(
        r.availability.is_consistent(),
        "{what}: corrected + escalated != injected"
    );
    assert_eq!(
        r.committed_txns, base.committed_txns,
        "{what}: a recoverable fault schedule must not lose work"
    );
    r.window.as_ps() as f64 / base.window.as_ps().max(1) as f64
}

/// **Availability under fault injection** on bounded OLTP run to
/// completion. The rows sweep fault rate × configuration, seeded by
/// `headline.seed`, through the memoized parallel harness, each paired
/// against its fault-free baseline. The facts are the `headline`
/// schedule on the two-chip exemplar, run twice to prove bit-identical
/// determinism, with its slowdown over a fault-free run.
///
/// # Panics
///
/// Panics if a faulted run commits different work than its baseline,
/// its availability ledger is inconsistent, or the headline's repeat
/// differs: all structural guarantees of the recovery machinery.
pub fn fig_faults(headline: &FaultConfig, txns_per_cpu: u64) -> Table {
    let (seed, w) = (headline.seed, oltp_bounded(txns_per_cpu));
    let mut h = Harness::new();
    h.execute(&fig_faults_plan(seed, txns_per_cpu));
    let mut rows = Vec::new();
    for cfg in fig_faults_configs() {
        let base = h.get(&faulted(cfg.clone(), seed, 0.0), &w, RunScale::completion());
        for rate in FAULT_RATES {
            let r = h.get(
                &faulted(cfg.clone(), seed, rate),
                &w,
                RunScale::completion(),
            );
            let slowdown = checked_slowdown(&format!("{}@{rate}", cfg.name), &r, &base);
            let av = &r.availability;
            rows.push(vec![
                Json::str(&cfg.name),
                Json::F64(rate),
                Json::U64(av.injected),
                Json::U64(av.corrected),
                Json::U64(av.escalated),
                Json::U64(av.retransmits),
                Json::U64(av.mttr_cycles()),
                Json::U64(r.committed_txns.expect("bounded workload reports work")),
                Json::F64(slowdown),
                Json::U64(r.fingerprint()),
            ]);
        }
    }

    let run = |faults: &FaultConfig| {
        let mut cfg = crate::observe::exemplar_config();
        cfg.faults = faults.clone();
        RunRequest::new(cfg, w.clone(), RunScale::completion()).run()
    };
    let (r1, r2) = (run(headline), run(headline));
    assert_eq!(
        r1.fingerprint(),
        r2.fingerprint(),
        "same seed + same schedule must be bit-identical"
    );
    let base = run(&FaultConfig::default());
    let mut availability = r1.availability.clone();
    availability.slowdown = Some(checked_slowdown(&r1.name, &r1, &base));
    Table::new(
        format!(
            "Availability — bounded OLTP run to completion; facts: the headline \
             schedule on {}, run twice; rows: fault rate x configuration, seed {seed}",
            r1.name
        ),
        FAULT_FACTS,
        vec![
            Json::str(&r1.name),
            Json::U64(txns_per_cpu),
            Json::U64(r1.committed_txns.unwrap_or(0)),
            Json::U64(r1.fingerprint()),
            Json::U64(r2.fingerprint()),
            Json::Bool(r1.fingerprint() == r2.fingerprint()),
            availability_json(&availability),
        ],
        FAULT_COLUMNS,
        rows,
    )
}

// ---------------------------------------------------------------------
// Statistical sampling (SMARTS-style): the fig_sample sweep.
// ---------------------------------------------------------------------

/// The `(period, window)` pairs `fig_sample` sweeps, in instructions
/// per CPU: denser and sparser detailed-window schedules around the
/// ~10% detailed share SMARTS-style sampling targets. The pairs are
/// sized to the workload (`quick` streams are ~82k instructions per
/// CPU, full ones ~825k) so the windows span the whole stream rather
/// than clustering in its prologue.
pub fn sample_specs(quick: bool) -> [(u64, u64); 3] {
    if quick {
        [(2_500, 400), (4_000, 400), (8_000, 400)]
    } else {
        [(12_500, 1_000), (25_000, 1_000), (50_000, 1_000)]
    }
}

/// Aggregate CPI of a detailed run: wall cycles × CPUs over total
/// instructions — the same cycles-over-instructions quantity a sampled
/// run estimates per window.
pub fn aggregate_cpi(r: &RunResult) -> f64 {
    let cycles = r.clock.cycles(r.window) as f64 * r.cpus.len() as f64;
    cycles / r.total_instrs().max(1) as f64
}

/// The facts of the [`fig_sample`] table: the full-detail reference.
pub const SAMPLE_FACTS: &[&str] = &[
    "config",
    "txns_per_cpu",
    "ref_cpi",
    "ref_committed",
    "host_secs_detailed",
];

/// The columns of the [`fig_sample`] table: one row per sampling
/// schedule.
pub const SAMPLE_COLUMNS: &[&str] = &[
    "period",
    "window",
    "windows",
    "cpi_mean",
    "cpi_ci95",
    "stall_mean",
    "detailed_fraction",
    "detailed_instrs",
    "warmed_instrs",
    "cpi_error",
    "within_ci",
    "speedup",
    "host_secs",
];

/// **Sampling validation**: run a bounded OLTP workload to completion
/// on P8 in full detail, then once per [`sample_specs`] schedule under
/// SMARTS-style sampling, and report CPI error, CI coverage, and
/// wall-clock speedup. `quick` shrinks the workload to CI scale.
///
/// # Panics
///
/// Panics if a sampled run commits different work than the detailed
/// reference — functional warming executes the same instruction
/// streams, so completed work must match exactly.
pub fn fig_sample(quick: bool) -> Table {
    let txns = if quick { 200 } else { 2_000 };
    let detailed_req = RunRequest::new(
        SystemConfig::piranha_p8(),
        oltp_bounded(txns),
        RunScale::completion(),
    );
    let t0 = std::time::Instant::now();
    let detailed = detailed_req.run();
    let host_secs_detailed = t0.elapsed().as_secs_f64();
    let ref_cpi = aggregate_cpi(&detailed);
    let ref_committed = detailed
        .committed_txns
        .expect("bounded workload reports work");

    let rows = sample_specs(quick)
        .iter()
        .map(|&(period, window)| {
            let req = RunRequest {
                sample: Some(SampleConfig::new(period, window)),
                ..detailed_req.clone()
            };
            let t = std::time::Instant::now();
            let r = req.run();
            let host_secs = t.elapsed().as_secs_f64();
            let est = r.sample.expect("sampled run carries an estimate");
            assert_eq!(
                r.committed_txns,
                Some(ref_committed),
                "functional warming must complete the same work"
            );
            vec![
                Json::U64(period),
                Json::U64(window),
                Json::U64(est.windows),
                Json::F64(est.cpi_mean),
                Json::F64(est.cpi_ci95),
                Json::F64(est.stall_mean),
                Json::F64(est.detailed_fraction),
                Json::U64(est.detailed_instrs),
                Json::U64(est.warmed_instrs),
                Json::F64((est.cpi_mean - ref_cpi).abs() / ref_cpi),
                Json::Bool(est.covers_cpi(ref_cpi)),
                Json::F64(host_secs_detailed / host_secs.max(1e-9)),
                Json::F64(host_secs),
            ]
        })
        .collect();

    Table::new(
        "Sampling vs full detail — bounded OLTP run to completion; facts: the \
         full-detail reference; rows: one sampling schedule each",
        SAMPLE_FACTS,
        vec![
            Json::str(detailed.name),
            Json::U64(txns),
            Json::F64(ref_cpi),
            Json::U64(ref_committed),
            Json::F64(host_secs_detailed),
        ],
        SAMPLE_COLUMNS,
        rows,
    )
}

// ---------------------------------------------------------------------
// Open-loop traffic (piranha-traffic): the fig_latency sweep.
// ---------------------------------------------------------------------

/// The offered-load fractions of the measured closed-loop service rate
/// that `fig_latency` sweeps: well below, approaching, and past the
/// saturation knee. The open-loop hockey-stick — tail latency flat at
/// low load, super-linear past the knee — only shows up because the
/// arrival process keeps offering work whether or not the cores are
/// ready.
pub const LOAD_FRACTIONS: [f64; 5] = [0.2, 0.5, 0.8, 1.1, 1.5];

/// The facts of the [`fig_latency_on`] table: the calibration, and
/// `knee`, the index of the first row past the knee (p99 more than 3×
/// the lowest-load row, or any drops), `null` if the sweep did not
/// reach it.
pub const LATENCY_FACTS: &[&str] = &["config", "txns_per_cpu", "service_tpmc", "knee"];

/// The columns of the [`fig_latency_on`] table: one row per offered
/// load, latencies birth to commit in nanoseconds.
pub const LATENCY_COLUMNS: &[&str] = &[
    "fraction",
    "rate_tpmc",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "mean_ns",
    "drop_rate",
    "generated",
    "accepted",
    "dropped",
    "deferred",
    "completed",
    "fingerprint",
];

/// **Tail latency vs offered load** on `cfg`: calibrate the closed-loop
/// service rate on a bounded OLTP workload, then sweep open-loop
/// Poisson arrivals across [`LOAD_FRACTIONS`] of that rate and report
/// p50/p95/p99 transaction latency and drop rate at each point. The
/// `fig_latency` binary passes the two-chip P4
/// [`exemplar_config`](crate::observe::exemplar_config), with its
/// `--topology=`/`--queue=` applied, so the sweep exercises arrival
/// admission across the multi-chip engine. `quick` shrinks the workload
/// to CI scale.
///
/// Every run is deterministic, so the whole table (fingerprints
/// included) is reproducible bit-for-bit at any `--parallel` worker
/// count.
///
/// # Panics
///
/// Panics if a loaded run's traffic ledger does not conserve
/// (`accepted + dropped + deferred == generated`) — a structural
/// guarantee of the admission gate.
pub fn fig_latency_on(cfg: SystemConfig, quick: bool) -> Table {
    let txns = if quick { 12 } else { 60 };
    let w = oltp_bounded(txns);

    // Closed-loop calibration: with no arrival gating the machine runs
    // at 100% utilization, so committed work over wall cycles is the
    // per-core service rate the load fractions are anchored to.
    let base = RunRequest::new(cfg.clone(), w.clone(), RunScale::completion()).run();
    let committed = base.committed_txns.expect("bounded workload reports work") as f64;
    let cycles = base.clock.cycles(base.window).max(1) as f64;
    let service_tpmc = committed / base.cpus.len() as f64 / cycles * 1e6;

    let mut tails = Vec::new();
    let rows = LOAD_FRACTIONS
        .iter()
        .map(|&fraction| {
            let rate_tpmc = fraction * service_tpmc;
            let loaded = SystemConfig {
                traffic: TrafficConfig::poisson(rate_tpmc),
                ..cfg.clone()
            };
            let r = RunRequest::new(loaded, w.clone(), RunScale::completion()).run();
            let t = r.traffic.as_ref().expect("traffic was enabled");
            let ledger = &t.ledger;
            assert!(
                ledger.conserved(),
                "{} @ {fraction}: ledger must conserve, got {ledger:?}",
                cfg.name
            );
            tails.push((t.p99_ns(), ledger.drop_rate()));
            vec![
                Json::F64(fraction),
                Json::F64(rate_tpmc),
                Json::U64(t.p50_ns()),
                Json::U64(t.p95_ns()),
                Json::U64(t.p99_ns()),
                Json::F64(t.latency.mean()),
                Json::F64(ledger.drop_rate()),
                Json::U64(ledger.generated),
                Json::U64(ledger.accepted),
                Json::U64(ledger.dropped),
                Json::U64(ledger.deferred),
                Json::U64(ledger.completed),
                Json::U64(r.fingerprint()),
            ]
        })
        .collect();

    let knee = tails
        .iter()
        .position(|&(p99, drops)| drops > 0.0 || p99 > tails[0].0.saturating_mul(3));
    Table::new(
        "Tail latency vs offered load — bounded OLTP, open-loop Poisson; facts: \
         the closed-loop calibration; rows: one offered load each",
        LATENCY_FACTS,
        vec![
            Json::str(cfg.name),
            Json::U64(txns),
            Json::F64(service_tpmc),
            knee.map_or(Json::Null, |k| Json::U64(k as u64)),
        ],
        LATENCY_COLUMNS,
        rows,
    )
}

// ---------------------------------------------------------------------
// Fabric congestion at scale: the fig_scale sweep (16–64 nodes ×
// topology × queue discipline over the pluggable interconnect).
// ---------------------------------------------------------------------

/// The machine sizes (single-CPU chips) the scale sweep covers.
pub const SCALE_NODES: [usize; 3] = [16, 32, 64];

/// The explicit fabric shapes the scale sweep covers. `Auto` and `Ring`
/// are omitted: auto is the paper layout the other figures already
/// measure, and a 64-node ring is pathological enough to drown the
/// comparison.
pub const SCALE_TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::Mesh,
    TopologyKind::Torus,
    TopologyKind::FatTree,
];

/// The queue disciplines the scale sweep covers, each bounded at the
/// congested port capacity
/// ([`piranha_net::CONGESTED_CAPACITY_NS`]) so finite buffering
/// actually bites.
pub fn scale_queues() -> [QueueDiscipline; 3] {
    let capacity = piranha_types::Duration::from_ns(piranha_net::CONGESTED_CAPACITY_NS);
    [
        QueueDiscipline::DropTail { capacity },
        QueueDiscipline::LossyNack { capacity },
        QueueDiscipline::Pfc { capacity },
    ]
}

/// The facts of the [`fig_scale`] table.
pub const SCALE_FACTS: &[&str] = &["txns_per_cpu"];

/// The columns of the [`fig_scale`] table: one row per `nodes ×
/// topology × queue` point, nodes outermost. `tpmc` is closed-loop
/// throughput in transactions per million cycles per core, `sim_us`
/// the final simulated time and `occupancy` the mean link utilization;
/// the rest are the run's fabric counters.
pub const SCALE_COLUMNS: &[&str] = &[
    "nodes",
    "topology",
    "queue",
    "committed",
    "tpmc",
    "sim_us",
    "delivered",
    "walks",
    "retransmits",
    "deflections",
    "drops",
    "pauses",
    "pause_ns",
    "mean_hops",
    "links",
    "occupancy",
    "fingerprint",
];

/// **Fabric congestion at scale**: run bounded OLTP to completion on
/// machines of 16/32/64 single-CPU chips over every
/// [`SCALE_TOPOLOGIES`] × [`scale_queues`] combination, and report
/// throughput, deflection/drop/pause rates, and link occupancy.
/// Optional filters narrow the sweep to one shape or discipline (the
/// `--topology=`/`--queue=` riders). `quick` shrinks the workload to CI
/// scale.
///
/// Every run is deterministic, so the whole table (fingerprints
/// included) is reproducible bit-for-bit at any `--parallel` worker
/// count.
///
/// # Panics
///
/// Panics if any row violates the packet ledger — a structural
/// guarantee of the fabric: every walk either delivers or retransmits
/// (`delivered + retransmits == walks`), bounded-queue refusals are
/// exactly the non-fault retransmits (`drops == retransmits`, since the
/// sweep injects no link faults), and PFC pauses instead of dropping
/// (`drops == 0`).
pub fn fig_scale(
    quick: bool,
    topology: Option<TopologyKind>,
    queue: Option<QueueDiscipline>,
) -> Table {
    let txns = if quick { 2 } else { 6 };
    let w = oltp_bounded(txns);
    let mut rows = Vec::new();
    for nodes in SCALE_NODES {
        for topo in SCALE_TOPOLOGIES {
            if topology.is_some_and(|t| t != topo) {
                continue;
            }
            for q in scale_queues() {
                if queue.is_some_and(|f| f.label() != q.label()) {
                    continue;
                }
                let mut cfg = SystemConfig::piranha_pn(1).scaled_to_chips(nodes);
                cfg.topology = topo;
                cfg.net.queue = q;
                let req = RunRequest::new(cfg, w.clone(), RunScale::completion());
                let mut m = req.build();
                let r = req.drive(&mut m);
                let fs = m.fabric_stats();
                assert_eq!(
                    fs.delivered + fs.retransmits,
                    fs.walks,
                    "{nodes}x{}x{}: every walk must deliver or retransmit",
                    topo.label(),
                    q.label()
                );
                assert_eq!(
                    fs.drops,
                    fs.retransmits,
                    "{nodes}x{}x{}: faultless runs retransmit only on drops",
                    topo.label(),
                    q.label()
                );
                if matches!(q, QueueDiscipline::Pfc { .. }) {
                    assert_eq!(fs.drops, 0, "PFC pauses instead of dropping");
                }
                let committed = r.committed_txns.expect("bounded workload reports work");
                let cycles = r.clock.cycles(r.window).max(1) as f64;
                let elapsed = m.now().since(piranha_types::SimTime::ZERO);
                rows.push(vec![
                    Json::U64(nodes as u64),
                    Json::str(topo.label()),
                    Json::str(q.label()),
                    Json::U64(committed),
                    Json::F64(committed as f64 / r.cpus.len() as f64 / cycles * 1e6),
                    Json::F64(elapsed.as_ps() as f64 / 1e6),
                    Json::U64(fs.delivered),
                    Json::U64(fs.walks),
                    Json::U64(fs.retransmits),
                    Json::U64(fs.deflections),
                    Json::U64(fs.drops),
                    Json::U64(fs.pauses),
                    Json::U64(fs.pause_time.as_ns()),
                    Json::F64(fs.mean_hops),
                    Json::U64(fs.links as u64),
                    Json::F64(fs.occupancy(elapsed)),
                    Json::U64(r.fingerprint()),
                ]);
            }
        }
    }
    Table::new(
        "Fabric congestion at scale — bounded OLTP run to completion on \
         single-CPU chips; rows: one nodes x topology x queue point each",
        SCALE_FACTS,
        vec![Json::U64(txns)],
        SCALE_COLUMNS,
        rows,
    )
}

// ---------------------------------------------------------------------
// Golden fingerprints: the event-ordering regression guard. Every
// refactor of the simulator core must keep these bit-identical — the
// checked-in `tests/golden_fingerprints.tsv` is diffed by
// `tests/golden_fingerprint.rs` and by the CI smoke job.
// ---------------------------------------------------------------------

/// Fault-schedule seed of the golden set (the `fig_faults` headline
/// schedule, shared with the CI fault smoke).
pub const GOLDEN_FAULT_SEED: u64 = 42;

/// Transactions per CPU of the golden bounded-OLTP completion runs.
pub const GOLDEN_FAULT_TXNS: u64 = 3;

fn workload_tag(w: &Workload) -> String {
    match w {
        Workload::Oltp(c) if c.txn_limit > 0 => format!("oltp[txn={}]", c.txn_limit),
        Workload::Oltp(_) => "oltp".into(),
        Workload::Dss(c) if c.line_limit > 0 => format!("dss[lines={}]", c.line_limit),
        Workload::Dss(_) => "dss".into(),
        Workload::Synth(_) => "synth".into(),
        Workload::Web(_) => "web".into(),
    }
}

fn scale_tag(scale: RunScale) -> String {
    if scale.to_completion {
        "completion".into()
    } else {
        format!("w{}+m{}", scale.warmup, scale.measure)
    }
}

/// A short, stable, human-readable label naming one golden run:
/// `config|workload|scale[|faults]`. Unique across [`golden_plan`]
/// (asserted by the golden test).
pub fn golden_label(req: &RunRequest) -> String {
    let mut label = format!(
        "{}|{}|{}",
        req.cfg.name,
        workload_tag(&req.workload),
        scale_tag(req.scale)
    );
    if req.cfg.faults.enabled() {
        label.push_str(&format!(
            "|faults[seed={},rate={:e}]",
            req.cfg.faults.seed, req.cfg.faults.rate
        ));
    }
    label
}

/// The golden plan: every fig5–fig8 configuration at `scale` plus the
/// fig_faults headline schedule (seed [`GOLDEN_FAULT_SEED`],
/// [`GOLDEN_FAULT_TXNS`] transactions per CPU, run to completion).
pub fn golden_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.merge(fig5_plan(&oltp(), scale));
    p.merge(fig5_plan(&dss(), scale));
    p.merge(fig6_plan(scale));
    p.merge(fig7_plan(scale));
    p.merge(fig8_plan(&oltp(), scale));
    p.merge(fig8_plan(&dss(), scale));
    p.merge(fig_faults_plan(GOLDEN_FAULT_SEED, GOLDEN_FAULT_TXNS));
    p
}

fn plan_fingerprints(plan: &RunPlan) -> Vec<(String, u64)> {
    let mut h = Harness::new();
    h.execute(plan);
    plan.requests()
        .iter()
        .map(|req| {
            let r = h.get(&req.cfg, &req.workload, req.scale);
            (golden_label(req), r.fingerprint())
        })
        .collect()
}

/// Labeled deterministic fingerprints of the whole golden set, in plan
/// order.
pub fn golden_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    plan_fingerprints(&golden_plan(scale))
}

/// Labeled fingerprints of just the Figure 5 runs (OLTP + DSS) — the
/// cheap subset the CI smoke job diffs via `fig5 --fingerprints`.
pub fn fig5_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    let mut plan = fig5_plan(&oltp(), scale);
    plan.merge(fig5_plan(&dss(), scale));
    plan_fingerprints(&plan)
}

/// Labeled fingerprints of the Figure 7 multi-chip scaling runs — the
/// rows that exercise the conservative parallel engine (every other
/// figure's configs are single-chip except fig7's 2- and 4-chip
/// points).
pub fn fig7_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    plan_fingerprints(&fig7_plan(scale))
}

/// Labeled fingerprints of the Figure 8 runs (OLTP + DSS) plus the
/// Figure 7 multi-chip scaling runs — the subset the CI parsim smoke
/// diffs via `fig8 --quick --parallel=2 --fingerprints`. The fig7 rows
/// ride along because fig8's own configurations are single-chip; with
/// them the smoke provably drives multi-chip machines through the
/// quantum-stepped engine and still matches the serially-blessed
/// golden file.
pub fn fig8_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    let mut plan = fig8_plan(&oltp(), scale);
    plan.merge(fig8_plan(&dss(), scale));
    plan.merge(fig7_plan(scale));
    plan_fingerprints(&plan)
}

/// Render labeled fingerprints in the golden-file format: one
/// `label\tfingerprint-hex` line per run.
pub fn render_fingerprints(rows: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (label, fp) in rows {
        out.push_str(&format!("{label}\t{fp:016x}\n"));
    }
    out
}

// ---------------------------------------------------------------------
// The whole evaluation in one batch.
// ---------------------------------------------------------------------

/// Every figure of the paper's §4 evaluation, regenerated together.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Figure 5 on OLTP.
    pub fig5_oltp: Vec<Bar>,
    /// Figure 5 on DSS.
    pub fig5_dss: Vec<Bar>,
    /// Figure 6(a): chip-level speedup over P1.
    pub fig6a: Vec<(String, f64)>,
    /// Figure 6(b): L1-miss breakdown.
    pub fig6b: Vec<(String, f64, f64, f64)>,
    /// Figure 7: multi-chip scaling.
    pub fig7: Vec<(usize, f64, f64)>,
    /// Figure 8 on OLTP.
    pub fig8_oltp: Vec<Bar>,
    /// Figure 8 on DSS.
    pub fig8_dss: Vec<Bar>,
    /// §4 sensitivity rows.
    pub sensitivity: Vec<(String, f64)>,
    /// §2.4 RDRAM open-page hit rate.
    pub mem_page_hit_rate: f64,
}

/// The union plan of every figure at one scale.
pub fn all_figures_plan(scale: RunScale) -> RunPlan {
    let mut plan = RunPlan::new();
    plan.merge(fig5_plan(&oltp(), scale));
    plan.merge(fig5_plan(&dss(), scale));
    plan.merge(fig6_plan(scale));
    plan.merge(fig7_plan(scale));
    plan.merge(fig8_plan(&oltp(), scale));
    plan.merge(fig8_plan(&dss(), scale));
    plan.merge(sensitivity_plan(scale));
    plan.merge(mem_pages_plan(scale));
    plan
}

/// Assemble every figure from `h`'s cache (executing the union plan
/// first so the assembly itself is all cache hits).
pub fn all_figures_with(h: &mut Harness, scale: RunScale) -> Figures {
    h.execute(&all_figures_plan(scale));
    Figures {
        fig5_oltp: fig5_with(h, &oltp(), scale),
        fig5_dss: fig5_with(h, &dss(), scale),
        fig6a: fig6a_with(h, scale),
        fig6b: fig6b_with(h, scale),
        fig7: fig7_with(h, scale),
        fig8_oltp: fig8_with(h, &oltp(), scale),
        fig8_dss: fig8_with(h, &dss(), scale),
        sensitivity: sensitivity_with(h, scale),
        mem_page_hit_rate: mem_pages_with(h, scale),
    }
}

/// Regenerate the entire §4 evaluation through one parallel, memoizing
/// harness: every shared baseline (OOO, P1, P8, …) is simulated exactly
/// once per workload, and the unique runs fan out across worker threads
/// (`PIRANHA_THREADS` overrides the count). Bit-identical to
/// [`all_figures_serial`].
pub fn all_figures(scale: RunScale) -> Figures {
    let mut h = Harness::new();
    all_figures_with(&mut h, scale)
}

/// The pre-harness behavior, kept as the performance and correctness
/// baseline: each figure runs serially with its own private cache, so
/// cross-figure baselines are re-simulated from scratch (35 runs at
/// paper shape versus the ~19 unique ones `all_figures` executes).
pub fn all_figures_serial(scale: RunScale) -> Figures {
    let serial_fig = |plan: RunPlan| {
        let mut h = Harness::serial();
        h.execute(&plan);
        h
    };
    let fig5_oltp = fig5_with(&mut serial_fig(fig5_plan(&oltp(), scale)), &oltp(), scale);
    let fig5_dss = fig5_with(&mut serial_fig(fig5_plan(&dss(), scale)), &dss(), scale);
    let fig6a = fig6a_with(&mut serial_fig(fig6_plan(scale)), scale);
    let fig6b = fig6b_with(&mut serial_fig(fig6_plan(scale)), scale);
    let fig7 = fig7_with(&mut serial_fig(fig7_plan(scale)), scale);
    let fig8_oltp = fig8_with(&mut serial_fig(fig8_plan(&oltp(), scale)), &oltp(), scale);
    let fig8_dss = fig8_with(&mut serial_fig(fig8_plan(&dss(), scale)), &dss(), scale);
    let sensitivity = sensitivity_with(&mut serial_fig(sensitivity_plan(scale)), scale);
    let mem_page_hit_rate = mem_pages_with(&mut serial_fig(mem_pages_plan(scale)), scale);
    Figures {
        fig5_oltp,
        fig5_dss,
        fig6a,
        fig6b,
        fig7,
        fig8_oltp,
        fig8_dss,
        sensitivity,
        mem_page_hit_rate,
    }
}

impl Figures {
    /// Render every figure as one text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&render_bars(
            "Figure 5 — OLTP (normalized execution time, OOO = 100)",
            &self.fig5_oltp,
        ));
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 5 — DSS (normalized execution time, OOO = 100)",
            &self.fig5_dss,
        ));
        out.push_str("\nFigure 6(a) — OLTP speedup over P1\n");
        for (name, s) in &self.fig6a {
            out.push_str(&format!("{name:<10} {s:>8.2}x\n"));
        }
        out.push_str("\nFigure 6(b) — L1 miss breakdown (hit/fwd/miss)\n");
        for (name, h, f, m) in &self.fig6b {
            out.push_str(&format!("{name:<10} {h:>6.2} {f:>6.2} {m:>6.2}\n"));
        }
        out.push_str("\nFigure 7 — multi-chip speedup (Piranha P4 vs OOO)\n");
        for (chips, p, o) in &self.fig7 {
            out.push_str(&format!("{chips} chip(s)  P4 {p:>6.2}x  OOO {o:>6.2}x\n"));
        }
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 8 — OLTP (P8F, OOO = 100)",
            &self.fig8_oltp,
        ));
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 8 — DSS (P8F, OOO = 100)",
            &self.fig8_dss,
        ));
        out.push_str("\nSensitivity (§4)\n");
        for (label, s) in &self.sensitivity {
            out.push_str(&format!("{label:<32} {s:>6.2}x\n"));
        }
        out.push_str(&format!(
            "\nRDRAM open-page hit rate on OLTP: {:.0}%\n",
            self.mem_page_hit_rate * 100.0
        ));
        out
    }
}

/// Render a set of Figure-5-style bars as a text table.
pub fn render_bars(title: &str, bars: &[Bar]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>10} {:>10} {:>10} {:>10}\n",
        "Config", "NormTime", "Busy", "L2HitStall", "L2MissStall"
    );
    for b in bars {
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            b.name, b.norm_time, b.busy, b.l2_hit, b.l2_miss
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_all_configs() {
        let t = table1();
        assert!(t.contains("500 MHz"));
        assert!(t.contains("1000 MHz"));
        assert!(t.contains("1250 MHz"));
        assert!(t.contains("Issue Width"));
    }

    #[test]
    fn bar_normalization() {
        use piranha_types::time::Clock;
        use piranha_types::Duration;
        let base = RunResult::new(
            "OOO".into(),
            Duration::from_ns(1000),
            Clock::from_mhz(1000),
            vec![piranha_cpu::CoreStats {
                instrs: 1000,
                ..Default::default()
            }],
        );
        let twice = RunResult::new(
            "X".into(),
            Duration::from_ns(2000),
            Clock::from_mhz(500),
            vec![piranha_cpu::CoreStats {
                instrs: 1000,
                ..Default::default()
            }],
        );
        let b = Bar::from(&twice, &base);
        assert!((b.norm_time - 200.0).abs() < 1e-9);
        assert!(
            (b.busy - 200.0).abs() < 1e-6,
            "no stalls recorded: all busy"
        );
    }

    #[test]
    fn render_is_readable() {
        let bars = vec![Bar {
            name: "P8".into(),
            norm_time: 34.0,
            busy: 20.0,
            l2_hit: 9.0,
            l2_miss: 5.0,
        }];
        let s = render_bars("Figure 5 (OLTP)", &bars);
        assert!(s.contains("P8"));
        assert!(s.contains("34.0"));
    }

    #[test]
    fn union_plan_dedups_shared_baselines() {
        let plan = all_figures_plan(RunScale::quick());
        // 35 figure slots collapse to the unique configurations: the
        // OOO/P1/P8 baselines appear in several figures but only once
        // in the plan.
        assert!(plan.len() < 25, "plan must deduplicate: got {}", plan.len());
        let keys: std::collections::HashSet<_> = plan.requests().iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), plan.len(), "all keys unique");
    }

    #[test]
    fn fault_sweep_is_consistent_and_loses_no_work() {
        let t = fig_faults(&FaultConfig::seeded(42, 1e-4), 3);
        let rows = t.rows();
        assert_eq!(rows.len(), fig_faults_configs().len() * FAULT_RATES.len());
        let u = |row: &[Json], c| t.cell(row, c).as_u64().unwrap();
        let f = |row: &[Json], c| t.cell(row, c).as_f64().unwrap();
        for cfg in fig_faults_configs() {
            let name = Json::str(&cfg.name);
            let per: Vec<_> = rows
                .iter()
                .filter(|r| t.cell(r, "config") == &name)
                .collect();
            let base = per.iter().find(|r| f(r, "rate") == 0.0).unwrap();
            assert_eq!(u(base, "injected"), 0);
            assert!((f(base, "slowdown") - 1.0).abs() < 1e-12);
            for r in &per {
                // fig_faults already asserts ledger consistency and
                // committed-work equality; re-check the reported facts.
                assert_eq!(u(r, "committed"), u(base, "committed"));
                assert_eq!(u(r, "corrected") + u(r, "escalated"), u(r, "injected"));
                assert!(f(r, "slowdown") > 0.0);
            }
        }
        let top_rate = rows.iter().filter(|r| f(r, "rate") == 1e-3);
        let highest: u64 = top_rate.map(|r| u(r, "injected")).sum();
        assert!(highest > 0, "the top rate injects something");
        assert_eq!(t.fact("deterministic"), Some(&Json::Bool(true)));
        let text = t.to_string();
        assert!(text.contains("P8") && text.contains("slowdown"));
    }

    #[test]
    fn availability_object_shape() {
        let mut av = AvailabilityReport {
            injected: 2,
            corrected: 1,
            escalated: 1,
            retransmits: 3,
            recovery_cycles: 100,
            slowdown: Some(1.25),
            ..Default::default()
        };
        av.by_kind
            .insert(piranha_system::FaultKind::PacketCorrupt, 2);
        let j = availability_json(&av).to_string();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"injected\":2"));
        assert!(j.contains("\"mttr_cycles\":50"));
        assert!(j.contains("\"corrupt\":2"));
        assert!(j.contains("\"slowdown\":1.25"));
        let unset = availability_json(&AvailabilityReport::default());
        assert!(unset.get("slowdown").is_some_and(Json::is_null));
    }

    /// The string keys of every subscript `x["key"]` or `x['key']` in
    /// `code`; a `[` after a space or `=` opens a list, not a subscript.
    fn subscripts(code: &str) -> Vec<&str> {
        let mut keys = Vec::new();
        for (i, _) in code.match_indices('[') {
            let before = code[..i].chars().next_back();
            let subscript = before.is_some_and(|c| c.is_alphanumeric() || "_])".contains(c));
            let rest = &code[i + 1..];
            let Some(quote) = rest.chars().next().filter(|c| "\"'".contains(*c)) else {
                continue;
            };
            if let (true, Some(end)) = (subscript, rest[1..].find(quote)) {
                keys.push(&rest[1..1 + end]);
            }
        }
        keys
    }

    /// Every field a CI smoke step reads from a sweep's `--metrics` JSON
    /// is a fact or column name of that sweep's table (or, for the fault
    /// table, a field of its `availability` object), so renaming one
    /// fails here, without a simulation, instead of in CI.
    #[test]
    fn ci_smoke_steps_read_only_table_fields() {
        const CI: &str = include_str!("../../../.github/workflows/ci.yml");
        let availability = availability_json(&AvailabilityReport::default());
        let ledger: Vec<&str> = availability
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for (step, facts, columns, nested) in [
            ("Fault smoke", FAULT_FACTS, FAULT_COLUMNS, &ledger[..]),
            ("Sample smoke", SAMPLE_FACTS, SAMPLE_COLUMNS, &[]),
            ("Latency smoke", LATENCY_FACTS, LATENCY_COLUMNS, &[]),
            ("Scale smoke", SCALE_FACTS, SCALE_COLUMNS, &[]),
        ] {
            let code = CI
                .split("- name: ")
                .find(|s| s.trim_start_matches('"').starts_with(step));
            let keys = subscripts(code.unwrap_or_else(|| panic!("CI has no {step} step")));
            assert!(keys.len() >= 10, "{step}: only found {keys:?}");
            let written = [facts, columns, nested, &["rows"]].concat();
            let unknown: Vec<_> = keys.iter().filter(|k| !written.contains(k)).collect();
            assert!(
                unknown.is_empty(),
                "{step} reads {unknown:?}, which its table does not write"
            );
        }
        assert_eq!(
            subscripts(r#"a = ["x"]; b["y"]['z'] c(d)["w"]"#),
            ["y", "z", "w"]
        );
    }
}
