//! Regenerators for every table and figure in the paper's evaluation
//! (§4). Each report is one declaration, a [`Report`]: the runs it
//! needs, named once and in plan order, and how their results become a
//! [`Table`], whose `Display` the `fig*`/`table*` binaries print.
//!
//! Absolute numbers will not match the paper (our substrate is a
//! from-scratch simulator with synthetic workloads), but the *shape* —
//! who wins, rough factors, crossovers — is the reproduction target; see
//! `EXPERIMENTS.md` for the side-by-side record.
//!
//! ## The harness
//!
//! Reports run through the parallel, memoizing [`Harness`]: a report's
//! runs form its [`RunPlan`], and unique runs execute across scoped
//! worker threads. [`tables`] runs several reports' union [`plan`]
//! first, so runs they share (OOO, P1, P8 appear in four or more
//! figures each) are simulated exactly once; [`all_figures`] declares
//! the whole §4 evaluation. Because every simulation is deterministic,
//! a report's table is bit-identical whether it ran through its own
//! harness or a shared one.

use std::sync::Arc;

use piranha_serve::json::Json;
use piranha_system::{
    AvailabilityReport, FaultConfig, QueueDiscipline, RunResult, SampleConfig, SystemConfig,
    TopologyKind, TrafficConfig,
};
use piranha_workloads::{DssConfig, OltpConfig, WebConfig, Workload};

pub use piranha_harness::{cache_key, default_threads, Harness, RunPlan, RunRequest, RunScale};

use crate::observe::{exemplar_config, Table};

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

/// How a report turns its runs' results, in plan order, into its table.
type Assemble = dyn Fn(&[Arc<RunResult>]) -> Table;

/// One report of the evaluation: the runs it needs, each named once and
/// in plan order, and the function that turns their results, in the
/// same order, into the report's table.
pub struct Report {
    runs: Vec<RunRequest>,
    table: Box<Assemble>,
}

impl Report {
    fn new(runs: Vec<RunRequest>, table: impl Fn(&[Arc<RunResult>]) -> Table + 'static) -> Report {
        Report {
            runs,
            table: Box::new(table),
        }
    }

    /// The runs, in plan order.
    pub fn runs(&self) -> &[RunRequest] {
        &self.runs
    }

    /// The table, from `h`'s results; runs `h` does not hold yet are
    /// simulated first, in parallel.
    pub fn table(&self, h: &mut Harness) -> Table {
        h.execute(&plan(std::slice::from_ref(self)));
        let results: Vec<_> = self.runs.iter().map(|req| h.fetch(req)).collect();
        (self.table)(&results)
    }
}

/// The union of `reports`' runs, each once, in report order.
pub fn plan(reports: &[Report]) -> RunPlan {
    let mut plan = RunPlan::new();
    for req in reports.iter().flat_map(Report::runs) {
        plan.push(req.clone());
    }
    plan
}

/// The tables of `reports` through one harness: their union [`plan`]
/// runs first, so the runs they share are simulated once and every
/// unique run fans out across `h`'s workers together.
pub fn tables(h: &mut Harness, reports: &[Report]) -> Vec<Table> {
    h.execute(&plan(reports));
    reports.iter().map(|r| r.table(h)).collect()
}

/// **Table 1**: the configuration parameters of P8, OOO/INO, and P8F.
/// It needs no simulation.
pub fn table1() -> Table {
    let designs = [
        SystemConfig::piranha_p8(),
        SystemConfig::ooo(),
        SystemConfig::piranha_p8f(),
    ]
    .map(|c| c.table1_row());
    let rows = (0..designs[0].len())
        .map(|i| {
            let values = designs.iter().map(|d| Json::str(&d[i].1));
            std::iter::once(Json::str(designs[0][i].0))
                .chain(values)
                .collect()
        })
        .collect();
    Table::new(
        "Table 1 — parameters of the processor designs (P8F: full custom)",
        &[],
        vec![],
        &["parameter", "P8", "OOO/INO", "P8F"],
        rows,
    )
}

/// Execution time per workload and configuration, normalized to the
/// workload's OOO run = 100 and split into CPU busy, L2-hit stall and
/// L2-miss stall: the shape of Figures 5 and 8 and of the §6
/// comparison.
fn normalized(
    title: &'static str,
    workloads: &[Workload],
    configs: &[SystemConfig],
    scale: RunScale,
) -> Report {
    let runs = workloads
        .iter()
        .flat_map(|w| {
            configs
                .iter()
                .map(|c| RunRequest::new(c.clone(), w.clone(), scale))
        })
        .collect();
    let tags: Vec<String> = workloads.iter().map(workload_tag).collect();
    let per_workload = configs.len();
    Report::new(runs, move |rs| {
        let mut rows = Vec::new();
        for (tag, runs) in tags.iter().zip(rs.chunks(per_workload)) {
            let base = runs.iter().find(|r| r.name == "OOO");
            let base = base.expect("every workload runs OOO");
            for r in runs {
                let t = r.normalized_time_vs(base) * 100.0;
                let b = r.breakdown();
                let mut row = vec![Json::str(tag), Json::str(&r.name)];
                row.extend([t, t * b.busy, t * b.l2_hit, t * b.l2_miss].map(Json::F64));
                rows.push(row);
            }
        }
        let columns = &[
            "workload",
            "config",
            "norm_time",
            "busy",
            "l2_hit",
            "l2_miss",
        ];
        Table::new(title, &[], vec![], columns, rows)
    })
}

/// **Figure 5**: single-chip execution time of P1, OOO, INO and P8 on
/// OLTP and DSS, normalized to OOO = 100, with its CPU-busy / L2-hit /
/// L2-miss breakdown.
pub fn fig5(scale: RunScale) -> Report {
    normalized(
        "Figure 5 — single-chip normalized execution time (OOO = 100)",
        &[oltp(), dss()],
        &[
            SystemConfig::piranha_p1(),
            SystemConfig::ooo(),
            SystemConfig::ino(),
            SystemConfig::piranha_p8(),
        ],
        scale,
    )
}

/// **Figure 5 under sampling** (the `--sample=<period>/<window>` flag):
/// Figure 5's runs, each under SMARTS-style sampling instead of full
/// detail, reported as CPI and stall-fraction estimates with 95%
/// confidence intervals rather than exact normalized figure numbers
/// (golden fingerprints only apply with the flag absent).
pub fn fig5_sampled(scale: RunScale, sample: &SampleConfig) -> Report {
    let runs: Vec<RunRequest> = fig5(scale)
        .runs
        .into_iter()
        .map(|req| RunRequest {
            sample: Some(sample.clone()),
            ..req
        })
        .collect();
    let tags: Vec<String> = runs.iter().map(|r| workload_tag(&r.workload)).collect();
    Report::new(runs, move |rs| {
        let rows = rs
            .iter()
            .zip(&tags)
            .map(|(r, tag)| {
                let e = r.sample.as_ref().expect("sampled run carries an estimate");
                vec![
                    Json::str(tag),
                    Json::str(&r.name),
                    Json::U64(e.windows),
                    Json::F64(e.cpi_mean),
                    Json::F64(e.cpi_ci95),
                    Json::F64(e.stall_mean),
                    Json::F64(e.stall_ci),
                    Json::F64(e.detailed_fraction),
                ]
            })
            .collect();
        Table::new(
            "Figure 5, sampled — estimates with 95% confidence intervals",
            &[],
            vec![],
            &[
                "workload",
                "config",
                "windows",
                "cpi_mean",
                "cpi_ci95",
                "stall_mean",
                "stall_ci",
                "detailed_fraction",
            ],
            rows,
        )
    })
}

/// **Figure 6**: OLTP on Piranha chips of 1, 2, 4 and 8 CPUs and on
/// OOO: (a) each one's speedup over P1, and (b) the breakdown of its L1
/// misses into L2 hits, L2 forwards (from another CPU's L1) and L2
/// misses, fractions summing to 1.
pub fn fig6(scale: RunScale) -> Report {
    let configs = [1, 2, 4, 8].map(SystemConfig::piranha_pn);
    let runs = configs
        .into_iter()
        .chain([SystemConfig::ooo()])
        .map(|cfg| RunRequest::new(cfg, oltp(), scale))
        .collect();
    Report::new(runs, |rs| {
        let rows = rs
            .iter()
            .map(|r| {
                let (hit, fwd, miss) = r.l1_miss_breakdown();
                let values = [r.speedup_over(&rs[0]), hit, fwd, miss].map(Json::F64);
                std::iter::once(Json::str(&r.name)).chain(values).collect()
            })
            .collect();
        Table::new(
            "Figure 6 — OLTP speedup over P1 (a) and L1-miss breakdown (b)",
            &[],
            vec![],
            &["config", "speedup", "l2_hit", "l2_fwd", "l2_miss"],
            rows,
        )
    })
}

/// **Figure 7**: OLTP speedup of 1-, 2- and 4-chip systems of 4-CPU
/// Piranha chips and of OOO chips, each over its own single chip.
pub fn fig7(scale: RunScale) -> Report {
    let chips = [1, 2, 4];
    let runs = chips
        .iter()
        .flat_map(|&n| {
            [SystemConfig::piranha_pn(4), SystemConfig::ooo()].map(|cfg| {
                if n == 1 {
                    cfg
                } else {
                    cfg.scaled_to_chips(n)
                }
            })
        })
        .map(|cfg| RunRequest::new(cfg, oltp(), scale))
        .collect();
    Report::new(runs, move |rs| {
        let rows = rs
            .chunks(2)
            .zip(chips)
            .map(|(pair, n)| {
                let speedups = [0, 1].map(|i| Json::F64(pair[i].speedup_over(&rs[i])));
                std::iter::once(Json::U64(n as u64))
                    .chain(speedups)
                    .collect()
            })
            .collect();
        Table::new(
            "Figure 7 — multi-chip OLTP speedup (each design over its own single chip)",
            &[],
            vec![],
            &["chips", "piranha", "ooo"],
            rows,
        )
    })
}

/// **Figure 8**: the full-custom chip (P8F) against OOO and P8 on OLTP
/// and DSS (OOO = 100).
pub fn fig8(scale: RunScale) -> Report {
    normalized(
        "Figure 8 — full-custom P8F (normalized execution time, OOO = 100)",
        &[oltp(), dss()],
        &[
            SystemConfig::ooo(),
            SystemConfig::piranha_p8(),
            SystemConfig::piranha_p8f(),
        ],
        scale,
    )
}

/// **§4 sensitivity**: the pessimistic P8 (400 MHz, 32 KB 1-way L1s,
/// 22/32 ns L2) and the TPC-C-like workload, as speedups.
pub fn sensitivity(scale: RunScale) -> Report {
    let runs = vec![
        RunRequest::new(SystemConfig::ooo(), oltp(), scale),
        RunRequest::new(SystemConfig::piranha_p8(), oltp(), scale),
        RunRequest::new(SystemConfig::piranha_p8_pessimistic(), oltp(), scale),
        RunRequest::new(SystemConfig::ooo(), tpcc(), scale),
        RunRequest::new(SystemConfig::piranha_p8(), tpcc(), scale),
    ];
    Report::new(runs, |rs| {
        let [ooo, p8, pess, ooo_c, p8_c] = rs else {
            unreachable!("the report declares five runs")
        };
        let rows = [
            ("P8 vs OOO (TPC-B)", p8, ooo),
            ("P8-pessimistic vs OOO (TPC-B)", pess, ooo),
            ("P8-pessimistic vs P8", pess, p8),
            ("P8 vs OOO (TPC-C-like)", p8_c, ooo_c),
        ]
        .map(|(label, r, base)| vec![Json::str(label), Json::F64(r.speedup_over(base))]);
        Table::new(
            "§4 sensitivity — speedups",
            &[],
            vec![],
            &["comparison", "speedup"],
            rows.into(),
        )
    })
}

/// **§2.4 claim**: RDRAM open-page hit rate of P8 on OLTP (the paper
/// reports >50% with pages held open about 1 µs).
pub fn mem_pages(scale: RunScale) -> Report {
    let runs = vec![RunRequest::new(SystemConfig::piranha_p8(), oltp(), scale)];
    Report::new(runs, |rs| {
        let rows = rs
            .iter()
            .map(|r| vec![Json::str(&r.name), Json::F64(r.mem_page_hit_rate)])
            .collect();
        Table::new(
            "§2.4 — RDRAM open-page hit rate on OLTP (1 µs hold)",
            &[],
            vec![],
            &["config", "page_hit_rate"],
            rows,
        )
    })
}

/// **§6 conjecture**: web-search workloads like AltaVista "exhibit
/// behavior similar to decision support (DSS) workloads", so P1, OOO
/// and P8 should compare alike on both (OOO = 100).
pub fn web_search(scale: RunScale) -> Report {
    normalized(
        "§6 — AltaVista-like web search vs DSS (normalized execution time, OOO = 100)",
        &[Workload::Web(WebConfig::paper_default()), dss()],
        &[
            SystemConfig::piranha_p1(),
            SystemConfig::ooo(),
            SystemConfig::piranha_p8(),
        ],
        scale,
    )
}

/// The §4 evaluation: Figures 5–8, the sensitivity rows and the §2.4
/// open-page claim. Run them through one harness with [`tables`].
pub fn all_figures(scale: RunScale) -> Vec<Report> {
    vec![
        fig5(scale),
        fig6(scale),
        fig7(scale),
        fig8(scale),
        sensitivity(scale),
        mem_pages(scale),
    ]
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

/// The plan of every simulation the `fig_faults` sweep needs: each
/// configuration at each of [`FAULT_RATES`], seeded by `seed`.
pub fn fig_faults_plan(seed: u64, txns_per_cpu: u64) -> RunPlan {
    let mut p = RunPlan::new();
    for cfg in fig_faults_configs() {
        for rate in FAULT_RATES {
            let mut cfg = cfg.clone();
            if rate > 0.0 {
                cfg.faults = FaultConfig::seeded(seed, rate);
            }
            p.add(cfg, oltp_bounded(txns_per_cpu), RunScale::completion());
        }
    }
    p
}

/// An availability ledger as a JSON object, with the run's `slowdown`
/// over its fault-free baseline.
fn availability_json(av: &AvailabilityReport, slowdown: f64) -> Json {
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
        ("slowdown".into(), Json::F64(slowdown)),
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
/// schedule on the two-chip exemplar, with its slowdown over a
/// fault-free run, both through the sweep's harness (a seeded headline
/// is one of the sweep's points), and the headline once more, simulated
/// afresh, to prove bit-identical determinism.
///
/// # Panics
///
/// Panics if a faulted run commits different work than its baseline,
/// its availability ledger is inconsistent, or the headline's repeat
/// differs: all structural guarantees of the recovery machinery.
pub fn fig_faults(headline: &FaultConfig, txns_per_cpu: u64) -> Table {
    let seed = headline.seed;
    let plan = fig_faults_plan(seed, txns_per_cpu);
    let mut h = Harness::new();
    h.execute(&plan);
    let mut rows = Vec::new();
    // The plan holds each configuration's rates in a row, rate 0 first.
    for runs in plan.requests().chunks(FAULT_RATES.len()) {
        let base = h.fetch(&runs[0]);
        for req in runs {
            let (r, rate) = (h.fetch(req), req.cfg.faults.rate);
            let slowdown = checked_slowdown(&format!("{}@{rate}", r.name), &r, &base);
            let av = &r.availability;
            rows.push(vec![
                Json::str(&r.name),
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

    let request = |faults: &FaultConfig| {
        let mut cfg = exemplar_config();
        cfg.faults = faults.clone();
        RunRequest::new(cfg, oltp_bounded(txns_per_cpu), RunScale::completion())
    };
    // A seeded headline and its fault-free baseline are sweep points,
    // so the sweep's harness holds them; the repeat is simulated
    // afresh, so equal fingerprints prove determinism.
    let headline_req = request(headline);
    let r1 = h.fetch(&headline_req);
    let base = h.fetch(&request(&FaultConfig::default()));
    let r2 = headline_req.run();
    assert_eq!(
        r1.fingerprint(),
        r2.fingerprint(),
        "same seed + same schedule must be bit-identical"
    );
    let slowdown = checked_slowdown(&r1.name, &r1, &base);
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
            availability_json(&r1.availability, slowdown),
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
/// `fig_latency` binary passes the two-chip P4 [`exemplar_config`],
/// with its `--topology=`/`--queue=` applied, so the sweep exercises
/// arrival admission across the multi-chip engine. `quick` shrinks the
/// workload to CI scale.
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
    let mut p = plan(&[fig5(scale), fig6(scale), fig7(scale), fig8(scale)]);
    p.merge(fig_faults_plan(GOLDEN_FAULT_SEED, GOLDEN_FAULT_TXNS));
    p
}

/// The fingerprint of each of `plan`'s runs in the golden-file format:
/// one `label\tfingerprint-hex` line per run, in plan order. A figure
/// binary's `--fingerprints` prints it for its reports' [`plan`].
pub fn fingerprints(plan: &RunPlan) -> String {
    let mut h = Harness::new();
    h.execute(plan);
    let line = |req| {
        format!(
            "{}\t{:016x}\n",
            golden_label(req),
            h.fetch(req).fingerprint()
        )
    };
    plan.requests().iter().map(line).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    #[test]
    fn table1_renders_all_configs() {
        let t = table1().to_string();
        assert!(t.contains("500 MHz"));
        assert!(t.contains("1000 MHz"));
        assert!(t.contains("1250 MHz"));
        assert!(t.contains("Issue Width"));
    }

    /// A normalized-time table over two synthetic results: OOO, and X
    /// at half OOO's clock taking twice as long.
    fn synthetic_bars() -> Table {
        use piranha_types::time::Clock;
        use piranha_types::Duration;
        let run = |name: &str, ns, mhz| {
            let cpu = piranha_cpu::CoreStats {
                instrs: 1000,
                ..Default::default()
            };
            let r = RunResult::new(
                name.into(),
                Duration::from_ns(ns),
                Clock::from_mhz(mhz),
                vec![cpu],
            );
            Arc::new(r)
        };
        let configs = [SystemConfig::ooo(), SystemConfig::piranha_p8()];
        let report = normalized("Bars", &[oltp()], &configs, RunScale::tiny());
        (report.table)(&[run("OOO", 1000, 1000), run("X", 2000, 500)])
    }

    #[test]
    fn bar_normalization() {
        let t = synthetic_bars();
        let x = &t.rows()[1];
        assert_eq!(t.cell(x, "config"), &Json::str("X"));
        let cell = |c| t.cell(x, c).as_f64().unwrap();
        assert!((cell("norm_time") - 200.0).abs() < 1e-9);
        assert!(
            (cell("busy") - 200.0).abs() < 1e-6,
            "no stalls recorded: all busy"
        );
    }

    #[test]
    fn render_is_readable() {
        let s = synthetic_bars().to_string();
        assert!(s.contains("oltp") && s.contains("X"));
        assert!(s.contains("200.0"));
    }

    #[test]
    fn union_plan_dedups_shared_baselines() {
        let plan = plan(&all_figures(RunScale::quick()));
        // 31 figure slots collapse to the unique configurations: the
        // OOO/P1/P8 baselines appear in several figures but only once
        // in the plan.
        assert!(plan.len() < 25, "plan must deduplicate: got {}", plan.len());
        let keys: std::collections::HashSet<_> = plan.requests().iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), plan.len(), "all keys unique");
    }

    /// The fault table at golden size, computed once for the tests that
    /// read it.
    fn fault_table() -> &'static Table {
        static TABLE: OnceLock<Table> = OnceLock::new();
        TABLE.get_or_init(|| fig_faults(&FaultConfig::seeded(42, 1e-4), 3))
    }

    #[test]
    fn fault_sweep_is_consistent_and_loses_no_work() {
        let t = fault_table();
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

    /// The headline schedule is the sweep's point at its configuration
    /// and rate, fetched from the sweep's harness: the same run.
    #[test]
    fn fault_headline_is_the_matching_sweep_row() {
        let t = fault_table();
        let row = t
            .rows()
            .iter()
            .find(|r| {
                Some(t.cell(r, "config")) == t.fact("config")
                    && t.cell(r, "rate").as_f64() == Some(1e-4)
            })
            .expect("the sweep covers the headline's configuration and rate");
        for fact in ["fingerprint", "committed"] {
            assert_eq!(t.fact(fact), Some(t.cell(row, fact)), "{fact}");
        }
    }

    #[test]
    fn availability_object_shape() {
        let mut av = AvailabilityReport {
            injected: 2,
            corrected: 1,
            escalated: 1,
            retransmits: 3,
            recovery_cycles: 100,
            ..Default::default()
        };
        av.by_kind
            .insert(piranha_system::FaultKind::PacketCorrupt, 2);
        let j = availability_json(&av, 1.25).to_string();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"injected\":2"));
        assert!(j.contains("\"mttr_cycles\":50"));
        assert!(j.contains("\"corrupt\":2"));
        assert!(j.contains("\"slowdown\":1.25"));
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
        let availability = availability_json(&AvailabilityReport::default(), 1.0);
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
