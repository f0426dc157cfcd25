//! The probe determinism guard: attaching the observability probe must
//! not change *anything* about the simulated machine — the `RunResult`
//! fingerprint (per-CPU stats, window, memory behaviour) is bit-identical
//! with the probe off, on at metrics level, and on with full tracing.
//! Also checks the acceptance shape of the exports: a two-chip trace
//! carries spans from at least four subsystems, and the stall table's
//! per-core fractions always sum to 1.

use piranha::harness::{RunRequest, RunScale};
use piranha::observe;
use piranha::probe::{chrome, Probe, ProbeConfig, TraceLevel};
use piranha::serve::json::Json;
use piranha::workloads::{SynthConfig, Workload};
use piranha::{RunResult, SampleConfig, SystemConfig};

fn sharing_workload() -> Workload {
    Workload::Synth(SynthConfig {
        load_frac: 0.25,
        store_frac: 0.2,
        shared_frac: 0.5,
        shared_bytes: 512 << 10,
        private_bytes: 256 << 10,
        ..SynthConfig::light()
    })
}

fn two_chip_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg
}

fn tiny_request() -> RunRequest {
    RunRequest::new(two_chip_cfg(), sharing_workload(), RunScale::tiny())
}

/// Run `req` with a probe at `level` attached; the probe comes back for
/// its exports.
fn probed(req: &RunRequest, level: TraceLevel) -> (RunResult, Probe) {
    let mut m = req.build();
    let probe = Probe::new(ProbeConfig::with_level(level));
    m.set_probe(probe.clone());
    (req.drive(&mut m), probe)
}

/// Probe off, probe at metrics-only level, and probe at full span
/// tracing all produce the same simulated results, bit for bit — in
/// full detail and under sampling, where the `SampleEstimate` must match
/// too and the probe records the warm/detailed host-time split.
#[test]
fn probe_never_perturbs_the_simulation() {
    let sampled = RunRequest {
        sample: Some(SampleConfig {
            warmup: 1_000,
            period: 5_000,
            detail_warmup: 100,
            window: 500,
            max_windows: 8,
        }),
        ..tiny_request()
    };
    for req in [tiny_request(), sampled] {
        let bare = req.run();
        let (metrics_only, _) = probed(&req, TraceLevel::Off);
        let (traced, _) = probed(&req, TraceLevel::Verbose);
        assert_eq!(
            bare.fingerprint(),
            metrics_only.fingerprint(),
            "metrics collection changed simulated state"
        );
        assert_eq!(
            bare.fingerprint(),
            traced.fingerprint(),
            "span tracing changed simulated state"
        );
        // The fingerprint covers the full per-CPU stats; spot-check anyway.
        assert_eq!(bare.total_instrs(), traced.total_instrs());
        assert_eq!(bare.window, traced.window);
        let digest = |r: &RunResult| r.sample.as_ref().map(|e| e.digest());
        assert_eq!(digest(&bare), digest(&traced), "sample estimate changed");
        assert_eq!(digest(&bare).is_some(), req.sample.is_some());
        // Under sampling the probe also splits host time between the
        // regimes: one detailed sample per measured window, and at
        // least the initial warming phase.
        let count = |name: &str| {
            metrics_only
                .metrics
                .get(&format!("sample.{name}_host_ns.count"))
                .and_then(|v| v.as_count())
        };
        match &metrics_only.sample {
            Some(est) => {
                assert!(est.windows > 0, "the sampled run measured windows");
                assert_eq!(count("detailed"), Some(est.windows));
                assert!(count("warm").is_some_and(|n| n > 0));
            }
            None => assert_eq!((count("detailed"), count("warm")), (None, None)),
        }
    }
}

/// A traced two-chip run records spans from the cpu, cache, protocol,
/// and interconnect subsystems (memory shows up too), and the Chrome
/// exporter produces a JSON document holding them.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "needs the trace feature")]
fn two_chip_trace_covers_four_subsystems() {
    let (_, probe) = probed(&tiny_request(), TraceLevel::Spans);
    let snap = probe.trace_snapshot().expect("probe attached");
    assert!(!snap.is_empty(), "spans were recorded");
    let cats = snap.categories();
    for want in ["cpu", "cache", "protocol", "net"] {
        assert!(cats.contains(&want), "missing {want:?} in {cats:?}");
    }
    assert!(cats.len() >= 4, "≥4 subsystems traced: {cats:?}");
    let json = chrome::chrome_trace_json(&snap);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "complete events present");
    assert!(json.contains("\"ph\":\"M\""), "track metadata present");
}

/// The per-core stall-attribution table partitions every core's wall
/// cycles: fractions sum to 1 within 1e-6, on a run with real stalls.
#[test]
fn stall_table_fractions_sum_to_one() {
    let (r, _) = probed(&tiny_request(), TraceLevel::Off);
    let t = r.stall_table();
    assert_eq!(t.rows.len(), r.cpus.len() + 1, "per-core rows plus 'all'");
    assert!(t.sums_to_one(1e-6), "fractions partition the window");
    let merged = r.merged();
    assert!(
        merged.stall_cycles.iter().sum::<u64>() > 0,
        "the run actually stalled"
    );
}

/// The metrics snapshot attached to a probed `RunResult` carries the
/// expected hierarchy and survives both export formats.
#[test]
fn metrics_snapshot_exports() {
    let (r, _) = probed(&tiny_request(), TraceLevel::Off);
    assert!(
        !r.metrics.is_empty(),
        "the statistics table populated the snapshot"
    );
    for name in [
        "kernel.events.popped",
        "machine.instrs",
        "cpu.node0.core0.instrs",
        "cpu.node1.core1.tlb_misses",
        "protocol.node0.home_msgs",
        "net.delivered",
    ] {
        assert!(r.metrics.get(name).is_some(), "missing metric {name}");
    }
    let csv = r.metrics.to_csv();
    assert!(csv.starts_with("metric,value\n"));
    assert_eq!(csv.lines().count(), r.metrics.len() + 1);
    let json = observe::metrics_json(&r.metrics).to_string();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    let doc = Json::parse(&json).expect("the export parses");
    assert_eq!(doc.as_obj().map(<[_]>::len), Some(r.metrics.len()));
}

/// The figure binaries' exemplar runs the same machinery end to end:
/// files land on disk, the trace parses as JSON-ish, and the summary
/// names the stall table.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "needs the trace feature")]
fn export_probed_run_writes_files() {
    let dir = std::env::temp_dir().join("piranha-probe-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.csv");
    let flags = observe::Flags {
        trace: Some(trace.clone()),
        metrics: Some(metrics.clone()),
        ..Default::default()
    };
    let summary =
        observe::export_probed_run(&flags, &sharing_workload(), RunScale::tiny()).unwrap();
    assert!(summary.contains("stall attribution"));
    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.contains("\"traceEvents\"") && t.contains("\"ph\":\"X\""));
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.starts_with("metric,value\n") && m.lines().count() > 10);
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(metrics).ok();
}
