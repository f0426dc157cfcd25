//! The figure binaries' command line, and the exemplar runs and reports
//! it drives.
//!
//! Every binary parses its arguments with [`Flags::from_env`]: one
//! parser for all sixteen flag spellings, of which each binary reads the
//! ones its `//!` header names. An unknown flag or a malformed value
//! exits with status 2 and a message naming the flag.
//!
//! The probed exemplar behind `--trace=`/`--metrics=` is a **two-chip**
//! P4 system so the trace carries spans from every subsystem — cpu,
//! cache, mem, *protocol*, and *net* — the latter two only light up when
//! coherence crosses the interconnect. Exemplar runs are extra
//! simulations; figure results themselves are never produced with a
//! probe attached (and would be bit-identical if they were — see
//! `tests/probe_determinism.rs`).

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use piranha_harness::{RunRequest, RunScale};
use piranha_probe::{chrome, MetricValue, MetricsSnapshot, Probe, ProbeConfig, TraceLevel};
use piranha_serve::json::Json;
use piranha_system::{
    ArrivalKind, DiurnalCurve, FaultConfig, OverflowPolicy, QueueDiscipline, SampleConfig,
    SystemConfig, TopologyKind, TrafficConfig,
};
use piranha_workloads::Workload;

use crate::experiments::oltp_bounded;

/// The command line of a figure binary, one field per flag, checked by
/// [`Flags::parse`]. Absent flags leave every configuration at its
/// default, where the golden fingerprints apply.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// `--quick`: CI scale instead of full scale.
    pub quick: bool,
    /// `--fingerprints`: print one `label\tfingerprint` line per run
    /// and nothing else (the golden-file format).
    pub fingerprints: bool,
    /// `--check`: assert the binary's CI invariants, failing loudly.
    pub check: bool,
    /// `--addr=<host:port>`: a running `piranha_serve` to use instead of
    /// an in-process server.
    pub addr: Option<String>,
    /// `--trace=<path>`: a Chrome `trace_event` JSON of the probed
    /// exemplar (open it in <https://ui.perfetto.dev>).
    pub trace: Option<PathBuf>,
    /// `--metrics=<path>`: the probed exemplar's metric snapshot (CSV,
    /// or JSON for a `.json` path) — or a sweep binary's JSON report.
    pub metrics: Option<PathBuf>,
    /// `--faults=<seed|script>` and `--fault-rate=<rate>`: a `u64` seeds
    /// a random schedule at the rate (default `1e-4`), anything else is
    /// a fault script (`"corrupt@50, flap@60"`); a rate alone seeds 42.
    pub faults: Option<FaultConfig>,
    /// `--parallel=<n>`: lane workers per multi-chip machine; results
    /// are bit-identical at every `n`, only wall-clock changes.
    pub parallel: Option<usize>,
    /// `--store=<dir>`, else the `PIRANHA_STORE` environment variable:
    /// memoize every harness run in an on-disk result store.
    pub store: Option<PathBuf>,
    /// `--sample=<period>/<window>`: SMARTS-style sampling, a detailed
    /// window of `window` instructions every `period` per CPU.
    pub sample: Option<SampleConfig>,
    /// `--traffic=<spec>` with `--traffic-depth=<n>` and
    /// `--traffic-defer`: open-loop arrivals. The spec is `<rate>`
    /// (Poisson, transactions per million cycles per core),
    /// `<rate>@<amplitude>/<period>` (diurnal swing over `period`
    /// cycles) or `ln<sigma>:<rate>[@<amplitude>/<period>]`
    /// (log-normal); the depth bounds each core's run queue (default
    /// 16), and `--traffic-defer` parks overflow instead of dropping it.
    pub traffic: Option<TrafficConfig>,
    /// `--topology=<ring|mesh|torus|fattree>`: an explicit fabric shape.
    pub topology: Option<TopologyKind>,
    /// `--queue=<droptail|lossy|pfc>`: bounded switch ports with this
    /// overflow behaviour.
    pub queue: Option<QueueDiscipline>,
}

impl Flags {
    /// Parse the process arguments, then apply `--parallel` (the
    /// harness's lane-worker count) and `--store` (the process-wide
    /// default store every harness picks up). Exits with status 2 on a
    /// bad flag, and 1 if the store directory cannot be opened.
    pub fn from_env() -> Flags {
        let mut flags = Flags::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        if flags.store.is_none() {
            flags.store = std::env::var_os("PIRANHA_STORE")
                .filter(|s| !s.is_empty())
                .map(PathBuf::from);
        }
        if let Some(n) = flags.parallel {
            piranha_harness::set_node_workers(n);
        }
        if let Some(dir) = &flags.store {
            if let Err(e) = piranha_serve::install_store(dir) {
                eprintln!("cannot open result store {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        flags
    }

    /// Parse an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the argument for an unknown flag or a
    /// malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut f = Flags::default();
        let (mut faults, mut rate, mut traffic, mut depth, mut defer) =
            (None, None, None, None, false);
        for arg in args {
            let bad = |expected: &str| format!("{arg}: expected {expected}");
            match arg.split_once('=') {
                None => match arg.as_str() {
                    "--quick" => f.quick = true,
                    "--fingerprints" => f.fingerprints = true,
                    "--check" => f.check = true,
                    "--traffic-defer" => defer = true,
                    _ => return Err(format!("unknown flag {arg:?}")),
                },
                Some((_, "")) => return Err(bad("a value")),
                Some(("--addr", v)) => f.addr = Some(v.to_string()),
                Some(("--trace", v)) => f.trace = Some(v.into()),
                Some(("--metrics", v)) => f.metrics = Some(v.into()),
                Some(("--store", v)) => f.store = Some(v.into()),
                Some(("--faults", v)) => faults = Some(v.to_string()),
                Some(("--fault-rate", v)) => {
                    let r = number(v).filter(|r| (0.0..=1.0).contains(r));
                    rate = Some(r.ok_or_else(|| bad("a rate in [0, 1]"))?);
                }
                Some(("--parallel", v)) => {
                    let n = number(v).filter(|&n| n >= 1);
                    f.parallel = Some(n.ok_or_else(|| bad("a worker count >= 1"))?);
                }
                Some(("--sample", v)) => {
                    let s = v.split_once('/').and_then(|(p, w)| {
                        let (period, window) = (number(p)?, number(w)?);
                        (window >= 1 && period > window).then(|| SampleConfig::new(period, window))
                    });
                    f.sample =
                        Some(s.ok_or_else(|| bad("<period>/<window>, period > window >= 1"))?);
                }
                Some(("--traffic", v)) => traffic = Some(parse_traffic(v)?),
                Some(("--traffic-depth", v)) => {
                    let n = number(v).filter(|&n| n >= 1);
                    depth = Some(n.ok_or_else(|| bad("a queue depth >= 1"))?);
                }
                Some(("--topology", v)) => {
                    let t = TopologyKind::parse(v);
                    f.topology = Some(t.ok_or_else(|| bad("ring|mesh|torus|fattree"))?);
                }
                Some(("--queue", v)) => {
                    let q = QueueDiscipline::parse(v);
                    f.queue = Some(q.ok_or_else(|| bad("droptail|lossy|pfc"))?);
                }
                Some(_) => return Err(format!("unknown flag {arg:?}")),
            }
        }
        f.traffic = traffic.map(|mut t: TrafficConfig| {
            t.queue_depth = depth.unwrap_or(t.queue_depth);
            if defer {
                t.overflow = OverflowPolicy::Defer;
            }
            t
        });
        f.faults = match (faults, rate) {
            (None, None) => None,
            (None, Some(rate)) => Some(FaultConfig::seeded(42, rate)),
            (Some(spec), rate) => Some(match spec.trim().parse::<u64>() {
                Ok(seed) => FaultConfig::seeded(seed, rate.unwrap_or(1e-4)),
                Err(_) => {
                    FaultConfig::scripted(&spec).map_err(|e| format!("--faults={spec}: {e}"))?
                }
            }),
        };
        Ok(f)
    }

    /// The run scale `--quick` selects.
    pub fn scale(&self) -> RunScale {
        if self.quick {
            RunScale::quick()
        } else {
            RunScale::full()
        }
    }

    /// Apply `--topology=`/`--queue=` to a configuration.
    pub fn apply_fabric(&self, cfg: &mut SystemConfig) {
        if let Some(t) = self.topology {
            cfg.topology = t;
        }
        if let Some(q) = self.queue {
            cfg.net.queue = q;
        }
    }

    /// The exemplar riders of the fig5–fig8 binaries, each run only when
    /// its flags are given and printed to stdout: the probed exemplar on
    /// workload `w` at `scale` (`--trace=`/`--metrics=`), the open-loop
    /// traffic exemplar (`--traffic=`), and the fabric exemplar
    /// (`--topology=`/`--queue=`). Exits with status 1 if an export
    /// cannot be written.
    pub fn run_riders(&self, w: &Workload, scale: RunScale) {
        if self.trace.is_some() || self.metrics.is_some() {
            match export_probed_run(self, w, scale) {
                Ok(summary) => print!("{summary}"),
                Err(e) => {
                    eprintln!("probe export failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(traffic) = &self.traffic {
            print!("{}", traffic_exemplar(traffic, 20));
        }
        if self.topology.is_some() || self.queue.is_some() {
            print!("{}", fabric_exemplar(self, 20));
        }
    }

    /// Write a sweep binary's table as JSON to `--metrics=<path>`, if
    /// given, and say where it went. Exits with status 1 if the write
    /// fails.
    pub fn write_report(&self, what: &str, table: &Table) {
        if let Some(path) = &self.metrics {
            if let Err(e) = std::fs::write(path, format!("{}\n", table.to_json())) {
                eprintln!("writing {} failed: {e}", path.display());
                std::process::exit(1);
            }
            println!("{what} -> {}", path.display());
        }
    }

    /// With a store, print its summary line to stderr (so diffable
    /// stdout contracts like `--fingerprints` stay intact): what this
    /// process computed versus loaded, and how many entries the store
    /// now holds. The CI `serve-smoke` step greps the `computed 0` of a
    /// warm second run out of it.
    pub fn finish(&self) {
        let Some(dir) = &self.store else { return };
        let (computed, loaded) = piranha_harness::process_counters();
        let entries = piranha_serve::DiskStore::open(dir).map_or(0, |s| s.len());
        eprintln!(
            "result store {}: computed {computed}, loaded {loaded}; {entries} entries on disk",
            dir.display()
        );
    }
}

/// A flag value parsed as a number, surrounding whitespace ignored.
fn number<T: FromStr>(v: &str) -> Option<T> {
    v.trim().parse().ok()
}

/// Parse a `--traffic=` spec (grammar at [`Flags::traffic`]).
fn parse_traffic(spec: &str) -> Result<TrafficConfig, String> {
    let spec = spec.trim();
    let (process, rest) = if let Some(r) = spec.strip_prefix("ln") {
        let (sigma, rest) = r
            .split_once(':')
            .ok_or_else(|| format!("--traffic=ln… needs ln<sigma>:<rate>, got {spec:?}"))?;
        let sigma: f64 =
            number(sigma).ok_or_else(|| format!("bad log-normal sigma in --traffic={spec:?}"))?;
        (ArrivalKind::LogNormal { sigma }, rest)
    } else {
        (ArrivalKind::Poisson, spec)
    };
    let (rate, curve) = match rest.split_once('@') {
        None => (rest, None),
        Some((r, c)) => {
            let (amp, period) = c.split_once('/').ok_or_else(|| {
                format!("--traffic curve needs <rate>@<amplitude>/<period>, got {spec:?}")
            })?;
            let amplitude: f64 =
                number(amp).ok_or_else(|| format!("bad curve amplitude in --traffic={spec:?}"))?;
            let period_cycles: u64 = number(period).filter(|&p| p >= 1).ok_or_else(|| {
                format!("curve period must be a count >= 1 in --traffic={spec:?}")
            })?;
            let curve = DiurnalCurve {
                amplitude,
                period_cycles,
            };
            (r, Some(curve))
        }
    };
    let rate_tpmc: f64 = number(rate)
        .filter(|&r: &f64| r > 0.0)
        .ok_or_else(|| format!("--traffic rate must be a number > 0, got {spec:?}"))?;
    Ok(TrafficConfig {
        rate_tpmc,
        process,
        curve,
        ..TrafficConfig::default()
    })
}

/// The open-loop traffic exemplar: the two-chip [`exemplar_config`]
/// under `traffic`, bounded OLTP run to completion, rendered as its
/// tail-latency summary.
fn traffic_exemplar(traffic: &TrafficConfig, txns_per_cpu: u64) -> String {
    let cfg = SystemConfig {
        traffic: traffic.clone(),
        ..exemplar_config()
    };
    let name = cfg.name.clone();
    let r = RunRequest::new(cfg, oltp_bounded(txns_per_cpu), RunScale::completion()).run();
    let t = r.traffic.as_ref().expect("traffic was enabled");
    format!(
        "Open-loop exemplar: {name} @ {} tpmc ({:?})\n\
         txn latency p50 {} ns, p95 {} ns, p99 {} ns\n\
         offered {}, accepted {}, completed {}, dropped {} ({:.2}% drop), deferred {}\n",
        traffic.rate_tpmc,
        traffic.process,
        t.p50_ns(),
        t.p95_ns(),
        t.p99_ns(),
        t.ledger.generated,
        t.ledger.accepted,
        t.ledger.completed,
        t.ledger.dropped,
        t.ledger.drop_rate() * 100.0,
        t.ledger.deferred,
    )
}

/// The fabric exemplar: the two-chip [`exemplar_config`] on the fabric
/// `flags` override, bounded OLTP run to completion, rendered as its
/// fabric counters.
fn fabric_exemplar(flags: &Flags, txns_per_cpu: u64) -> String {
    let mut cfg = exemplar_config();
    flags.apply_fabric(&mut cfg);
    let (name, topo, queue) = (cfg.name.clone(), cfg.topology, cfg.net.queue);
    let req = RunRequest::new(cfg, oltp_bounded(txns_per_cpu), RunScale::completion());
    let mut m = req.build();
    let r = req.drive(&mut m);
    let fs = m.fabric_stats();
    let elapsed = m.now().since(piranha_types::SimTime::ZERO);
    format!(
        "Fabric exemplar: {name} on {} ({} queue)\n\
         committed {} txns; fabric delivered {} pkts (mean {:.2} hops), \
         {} deflections, {} drops, {} pauses, {} retransmits\n\
         {} links at {:.2}% mean occupancy\n",
        topo.label(),
        queue.label(),
        r.committed_txns.unwrap_or(0),
        fs.delivered,
        fs.mean_hops,
        fs.deflections,
        fs.drops,
        fs.pauses,
        fs.retransmits,
        fs.links,
        fs.occupancy(elapsed) * 100.0,
    )
}

/// The configuration the exemplar runs simulate: a two-chip machine of
/// 4-CPU Piranha chips, so protocol-engine and interconnect activity
/// shows up in the trace alongside cpu/cache/mem spans.
pub fn exemplar_config() -> SystemConfig {
    SystemConfig::piranha_pn(4).scaled_to_chips(2)
}

/// Run the probed exemplar on workload `w` at `scale` and write the
/// `--trace=`/`--metrics=` exports `flags` ask for. Returns a
/// human-readable summary (export destinations, span counts, and the
/// per-core stall-attribution table) for the binary to print.
///
/// # Errors
///
/// Propagates I/O errors from writing the export files.
pub fn export_probed_run(flags: &Flags, w: &Workload, scale: RunScale) -> std::io::Result<String> {
    let level = if flags.trace.is_some() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    let req = RunRequest::new(exemplar_config(), w.clone(), scale);
    let mut m = req.build();
    let probe = Probe::new(ProbeConfig::with_level(level));
    m.set_probe(probe.clone());
    let r = req.drive(&mut m);

    let mut out = format!("Probed exemplar run: {}\n", r.name);
    if let Some(path) = &flags.trace {
        let snap = probe.trace_snapshot().expect("probe is attached");
        std::fs::write(path, chrome::chrome_trace_json(&snap))?;
        out.push_str(&format!(
            "  trace: {} spans across {:?} -> {}\n",
            snap.len(),
            snap.categories(),
            path.display()
        ));
    }
    if let Some(path) = &flags.metrics {
        let body = if is_json(path) {
            format!("{}\n", metrics_json(&r.metrics))
        } else {
            r.metrics.to_csv()
        };
        std::fs::write(path, body)?;
        out.push_str(&format!(
            "  metrics: {} entries -> {}\n",
            r.metrics.len(),
            path.display()
        ));
    }
    out.push_str("\nPer-core stall attribution (fractions of wall cycles)\n");
    out.push_str(&r.stall_table().render());
    Ok(out)
}

/// A metric snapshot as one flat JSON object, `{"name": value, ...}`
/// in name order: counts as integers, values as floats.
pub fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let field = |(name, v): &(String, MetricValue)| match *v {
        MetricValue::Count(c) => (name.clone(), Json::U64(c)),
        MetricValue::Value(x) => (name.clone(), Json::F64(x)),
    };
    Json::obj(snap.entries.iter().map(field).collect())
}

/// A report as one value: a text title, run-level facts, column names
/// and rows of cells. [`Display`](fmt::Display) renders the text table a
/// figure or sweep binary prints, [`Table::to_json`] the document a
/// sweep's `--metrics=` writes, so each report names each column once.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The text heading; the JSON document leaves it out.
    title: String,
    /// Run-level facts, `(name, value)` in output order.
    facts: Vec<(&'static str, Json)>,
    /// The column names, in output order.
    columns: &'static [&'static str],
    /// One cell per column in each row.
    rows: Vec<Vec<Json>>,
}

impl Table {
    /// A table of `facts` under `fact_names` and `rows` under `columns`.
    ///
    /// # Panics
    ///
    /// Panics if the facts or a row do not have one value per name.
    pub fn new(
        title: impl Into<String>,
        fact_names: &'static [&'static str],
        facts: Vec<Json>,
        columns: &'static [&'static str],
        rows: Vec<Vec<Json>>,
    ) -> Table {
        assert_eq!(facts.len(), fact_names.len(), "one value per fact name");
        let widths_match = rows.iter().all(|row| row.len() == columns.len());
        assert!(widths_match, "one cell per column");
        Table {
            title: title.into(),
            facts: fact_names.iter().copied().zip(facts).collect(),
            columns,
            rows,
        }
    }

    /// The rows, one cell per column each.
    pub fn rows(&self) -> &[Vec<Json>] {
        &self.rows
    }

    /// The fact called `name`.
    pub fn fact(&self, name: &str) -> Option<&Json> {
        self.facts.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The cell of `row` under `column`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such column.
    pub fn cell<'a>(&self, row: &'a [Json], column: &str) -> &'a Json {
        let i = self.columns.iter().position(|c| *c == column);
        &row[i.unwrap_or_else(|| panic!("no column {column:?}"))]
    }

    /// The JSON document: the facts, then `rows` as objects keyed by
    /// column name.
    pub fn to_json(&self) -> Json {
        let field = |(n, v): (&&str, &Json)| (n.to_string(), v.clone());
        let row =
            |cells: &Vec<Json>| Json::obj(self.columns.iter().zip(cells).map(field).collect());
        let mut doc: Vec<_> = self.facts.iter().map(|(n, v)| field((n, v))).collect();
        doc.push((
            "rows".into(),
            Json::Arr(self.rows.iter().map(row).collect()),
        ));
        Json::obj(doc)
    }
}

/// The text of one cell: a string bare, a nonzero finite float to four
/// significant digits, anything else as its JSON text.
fn cell_text(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::F64(x) if x.is_finite() && *x != 0.0 => {
            let magnitude = x.abs().log10().floor() as i32;
            if (-2..6).contains(&magnitude) {
                format!("{x:.*}", (3 - magnitude).max(0) as usize)
            } else {
                format!("{x:.3e}")
            }
        }
        v => v.to_string(),
    }
}

/// The title, one `name  value` line per fact, then the rows
/// right-aligned under the column names.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let width = self.facts.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in &self.facts {
            writeln!(f, "{name:<width$}  {}", cell_text(v))?;
        }
        let header = self.columns.iter().map(|c| c.to_string()).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| row.iter().map(cell_text).collect());
        let lines: Vec<Vec<String>> = std::iter::once(header).chain(rows).collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for line in &lines {
            let padded: Vec<_> = line
                .iter()
                .zip(&widths)
                .map(|(t, w)| format!("{t:>w$}"))
                .collect();
            writeln!(f, "{}", padded.join("  "))?;
        }
        Ok(())
    }
}

/// Whether an export path selects JSON by extension (`.json`, any
/// case) — the `--metrics=` format switch.
pub fn is_json(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_ignores_the_rest() {
        let f = parse(&["--quick", "--trace=t.json", "--metrics=m.csv"]).unwrap();
        assert_eq!(f.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(f.metrics.as_deref(), Some(Path::new("m.csv")));
        assert!(f.quick && !f.check && f.traffic.is_none());
        assert!(parse(&["--quick"]).unwrap().trace.is_none());
    }

    #[test]
    fn every_flag_spelling_parses_and_errors_name_the_flag() {
        let f = parse(&[
            "--quick",
            "--fingerprints",
            "--check",
            "--addr=127.0.0.1:7878",
            "--trace=t.json",
            "--metrics=m.csv",
            "--faults=7",
            "--fault-rate=1e-3",
            "--parallel=2",
            "--store=results",
            "--sample=10000/1000",
            "--traffic=200",
            "--traffic-depth=4",
            "--traffic-defer",
            "--topology=torus",
            "--queue=pfc",
        ])
        .unwrap();
        assert!(f.quick && f.fingerprints && f.check);
        assert_eq!(f.addr.as_deref(), Some("127.0.0.1:7878"));
        assert!(f.trace.is_some() && f.metrics.is_some());
        assert_eq!(f.store.as_deref(), Some(Path::new("results")));
        assert_eq!(f.faults.as_ref().map(|c| (c.seed, c.rate)), Some((7, 1e-3)));
        assert_eq!(f.parallel, Some(2));
        assert!(f.sample.is_some());
        let t = f.traffic.as_ref().unwrap();
        assert_eq!((t.queue_depth, t.overflow), (4, OverflowPolicy::Defer));
        assert_eq!(f.topology, Some(TopologyKind::Torus));
        assert_eq!(f.queue.map(QueueDiscipline::label), Some("pfc"));
        for (arg, flag) in [
            ("--quik", "--quik"),
            ("full", "full"),
            ("--parallel=0", "--parallel"),
            ("--sample=500/1000", "--sample"),
            ("--fault-rate=1e-3x", "--fault-rate"),
            ("--traffic=0", "--traffic"),
            ("--traffic-depth=0", "--traffic-depth"),
            ("--topology=hypercube", "--topology"),
            ("--queue=wormhole", "--queue"),
            ("--store=", "--store"),
        ] {
            let err = parse(&["--quick", arg]).unwrap_err();
            assert!(err.contains(flag), "{arg}: {err:?} does not name {flag}");
        }
    }

    #[test]
    fn metrics_format_follows_extension() {
        assert!(is_json(Path::new("out.json")));
        assert!(is_json(Path::new("out.JSON")));
        assert!(!is_json(Path::new("out.csv")));
        assert!(!is_json(Path::new("out")));
    }

    #[test]
    fn store_flag_parses_and_ignores_the_rest() {
        assert!(parse(&["--quick"]).unwrap().store.is_none());
        let f = parse(&["--quick", "--store=/tmp/results"]).unwrap();
        assert_eq!(f.store.as_deref(), Some(Path::new("/tmp/results")));
    }

    /// A two-row table with a fact of each kind the sweeps write.
    fn sample_table() -> Table {
        Table::new(
            "Demo",
            &["config", "knee"],
            vec![Json::str("P4x2"), Json::Null],
            &["name", "count", "ratio"],
            vec![
                vec![Json::str("a"), Json::U64(u64::MAX), Json::F64(0.25)],
                vec![Json::str("b"), Json::U64(7), Json::F64(f64::NAN)],
            ],
        )
    }

    /// The keys of a JSON object, in order.
    fn keys(doc: &Json) -> Vec<&str> {
        doc.as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn report_emitters_produce_valid_json() {
        use crate::experiments::{LATENCY_COLUMNS, LATENCY_FACTS};
        let col = |name| LATENCY_COLUMNS.iter().position(|c| *c == name).unwrap();
        let mut row = vec![Json::U64(0); LATENCY_COLUMNS.len()];
        row[col("fingerprint")] = Json::U64(u64::MAX);
        row[col("p99_ns")] = Json::U64(300);
        let facts = vec![
            Json::str("P4x2"),
            Json::U64(20),
            Json::F64(123.5),
            Json::Null,
        ];
        let rep = Table::new("Latency", LATENCY_FACTS, facts, LATENCY_COLUMNS, vec![row]);
        let doc = Json::parse(&rep.to_json().to_string()).unwrap();
        assert_eq!(doc.get("config").and_then(Json::as_str), Some("P4x2"));
        assert!(doc.get("knee").is_some_and(Json::is_null));
        let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
        // u64 fields survive without an f64 round trip.
        assert_eq!(
            row.get("fingerprint").and_then(Json::as_u64),
            Some(u64::MAX)
        );
        assert_eq!(row.get("p99_ns").and_then(Json::as_u64), Some(300));
    }

    #[test]
    fn table_text_and_json_carry_the_same_columns_in_order() {
        let t = sample_table();
        let text = t.to_string();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("Demo"));
        assert_eq!(lines.next(), Some("config  P4x2"));
        assert_eq!(lines.next(), Some("knee    null"));
        let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        assert_eq!(header, t.columns);
        assert_eq!(lines.count(), t.rows.len());
        let doc = t.to_json();
        assert_eq!(keys(&doc), ["config", "knee", "rows"]);
        for row in doc.get("rows").and_then(Json::as_arr).unwrap() {
            assert_eq!(keys(row), t.columns);
        }
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn table_rejects_a_row_of_the_wrong_width() {
        Table::new("Demo", &[], vec![], &["a", "b"], vec![vec![Json::U64(1)]]);
    }

    #[test]
    fn table_cells_survive_a_json_round_trip() {
        let t = sample_table();
        let doc = Json::parse(&t.to_json().to_string()).unwrap();
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("count").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(rows[0].get("ratio").and_then(Json::as_f64), Some(0.25));
        assert!(
            rows[1].get("ratio").is_some_and(Json::is_null),
            "NaN is null"
        );
        assert_eq!(t.cell(&t.rows[1], "name").as_str(), Some("b"));
        assert_eq!(t.fact("config").and_then(Json::as_str), Some("P4x2"));
    }

    #[test]
    fn exemplar_is_multichip() {
        let cfg = exemplar_config();
        assert!(cfg.nodes >= 2, "protocol/net spans need >1 chip");
    }

    #[test]
    fn parallel_flag_parses_and_rejects_nonsense() {
        assert_eq!(parse(&["--quick"]).unwrap().parallel, None);
        assert_eq!(
            parse(&["--parallel=4", "--quick"]).unwrap().parallel,
            Some(4)
        );
        assert!(parse(&["--parallel=0"]).is_err());
        assert!(parse(&["--parallel=bogus"]).is_err());
    }

    #[test]
    fn sample_flag_parses_and_rejects_nonsense() {
        assert!(parse(&["--quick"]).unwrap().sample.is_none());
        let s = parse(&["--sample=10000/1000", "--quick"]).unwrap().sample;
        assert_eq!(s.map(|s| (s.period, s.window)), Some((10_000, 1_000)));
        // Malformed specs are rejected, not half-parsed or ignored.
        for bad in [
            "--sample=1000",
            "--sample=0/0",
            "--sample=500/1000",
            "--sample=a/b",
        ] {
            assert!(parse(&[bad]).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn traffic_flags_resolve_to_configs() {
        // No flags: traffic stays disabled and fingerprints intact.
        assert!(parse(&["--quick", "--traffic-depth=4"])
            .unwrap()
            .traffic
            .is_none());
        // A bare rate is steady Poisson.
        let cfg = parse(&["--traffic=200"]).unwrap().traffic.unwrap();
        assert!(cfg.enabled());
        assert!((cfg.rate_tpmc - 200.0).abs() < 1e-12);
        assert_eq!(cfg.process, ArrivalKind::Poisson);
        assert!(cfg.curve.is_none());
        // rate@amplitude/period adds a diurnal curve.
        let cfg = parse(&["--traffic=150@0.5/2000000"])
            .unwrap()
            .traffic
            .unwrap();
        assert_eq!(
            cfg.curve,
            Some(DiurnalCurve {
                amplitude: 0.5,
                period_cycles: 2_000_000
            })
        );
        // ln<sigma>:<rate> selects log-normal inter-arrivals.
        let cfg = parse(&["--traffic=ln0.7:300"]).unwrap().traffic.unwrap();
        assert_eq!(cfg.process, ArrivalKind::LogNormal { sigma: 0.7 });
        assert!((cfg.rate_tpmc - 300.0).abs() < 1e-12);
        // Depth and overflow-policy riders apply in any order.
        let cfg = parse(&["--traffic-defer", "--traffic-depth=4", "--traffic=100"])
            .unwrap()
            .traffic
            .unwrap();
        assert_eq!(cfg.queue_depth, 4);
        assert_eq!(cfg.overflow, OverflowPolicy::Defer);
        // Malformed specs are reported, not swallowed.
        for bad in [
            "--traffic=bogus",
            "--traffic=0",
            "--traffic=-5",
            "--traffic=ln:100",
            "--traffic=ln0.7",
            "--traffic=100@0.5",
            "--traffic=100@x/10",
            "--traffic=100@0.5/0",
        ] {
            assert!(parse(&[bad]).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn fabric_flags_resolve_to_overrides() {
        // No flags: the config keeps its (golden) defaults.
        let mut cfg = exemplar_config();
        parse(&["--quick"]).unwrap().apply_fabric(&mut cfg);
        assert_eq!(cfg.topology, TopologyKind::Auto);
        assert_eq!(cfg.net.queue, QueueDiscipline::unbounded());
        // Both riders apply; the queue comes back bounded.
        let f = parse(&["--topology=torus", "--queue=pfc", "--quick"]).unwrap();
        f.apply_fabric(&mut cfg);
        assert_eq!(cfg.topology, TopologyKind::Torus);
        assert_eq!(cfg.net.queue.label(), "pfc");
        assert!(cfg.net.queue.capacity() < QueueDiscipline::unbounded().capacity());
    }

    #[test]
    fn fault_flags_resolve_to_configs() {
        // No flags: injection stays disabled.
        assert!(parse(&["--quick"]).unwrap().faults.is_none());
        // Numeric --faults= seeds a random schedule at the given rate.
        let cfg = parse(&["--faults=42", "--fault-rate=1e-3"])
            .unwrap()
            .faults
            .unwrap();
        assert_eq!(cfg.seed, 42);
        assert!((cfg.rate - 1e-3).abs() < 1e-12);
        assert!(cfg.enabled());
        // --fault-rate= alone uses the default seed.
        let cfg = parse(&["--fault-rate=5e-4"]).unwrap().faults.unwrap();
        assert_eq!(cfg.seed, 42);
        // Non-numeric --faults= parses as a script.
        let cfg = parse(&["--faults=corrupt@50, flip2@300"])
            .unwrap()
            .faults
            .unwrap();
        assert_eq!(cfg.script.len(), 2);
        assert!(cfg.enabled());
        // Malformed scripts are reported, not swallowed.
        assert!(parse(&["--faults=bogus@@"])
            .unwrap_err()
            .contains("--faults"));
    }
}
