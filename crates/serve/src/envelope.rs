//! The versioned JSON envelope a [`RunResult`] is persisted in.
//!
//! The envelope is a single JSON document per store entry carrying:
//!
//! - `v` — the envelope schema version ([`SCHEMA_VERSION`]); entries
//!   with a different version are rejected (recompute, never panic);
//! - `stamp` — the build stamp ([`build_stamp`]): a hash of the schema
//!   version and the checked-in golden tables (detailed fingerprints and
//!   sampled runs). Any change to the simulator that moves a golden
//!   re-blesses its table, changes the stamp, and thereby invalidates
//!   every persisted entry of the old build — stale results from an
//!   incompatible simulator are rejected at load instead of silently
//!   served;
//! - `key` — the full harness cache key, so a content-address collision
//!   (or a foreign file) is detected by comparison, not trusted;
//! - `fingerprint` — the result's [`RunResult::fingerprint`], which
//!   [`decode`] recomputes from the decoded fields and compares, making
//!   every load an integrity check;
//! - `result` — the fields themselves.
//!
//! Every `f64` that participates in the fingerprint (the page-hit rate,
//! the availability slowdown, the sample-estimate statistics) travels as
//! its `to_bits()` integer, so the round trip is bit-exact by
//! construction rather than by printing heroics.

use std::collections::BTreeMap;

use piranha_cpu::stats::STALL_KINDS;
use piranha_cpu::CoreStats;
use piranha_faults::{AvailabilityReport, FaultKind};
use piranha_kernel::Histogram;
use piranha_probe::{MetricValue, MetricsSnapshot};
use piranha_sample::SampleEstimate;
use piranha_system::RunResult;
use piranha_traffic::{TrafficLedger, TrafficSummary};
use piranha_types::time::Clock;
use piranha_types::Duration;

use crate::json::Json;

/// Envelope schema version; bump when the field layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The golden tables this build was blessed against: the detailed
/// fingerprints and the sampled runs (`fig5 --sample` replays sampled
/// results from the store). Baked into the binary so the store stamp
/// moves with every behavioural change to the simulator (any such
/// change re-blesses a table).
const GOLDEN_TABLE: &str = include_str!("../../../tests/golden_fingerprints.tsv");
const GOLDEN_SAMPLED: &str = include_str!("../../../tests/golden_sampled.tsv");

/// The build stamp persisted entries are guarded by: a hash of the
/// schema version and the golden tables. Two builds share a stamp
/// exactly when they agree on the envelope layout *and* on the
/// bit-exact behaviour of the simulator (as certified by the goldens).
pub fn build_stamp() -> u64 {
    piranha_types::fnv1a(
        format!("piranha-serve/v{SCHEMA_VERSION}|{GOLDEN_TABLE}|{GOLDEN_SAMPLED}").as_bytes(),
    )
}

/// A decoded store entry: the cache key it was saved under and the
/// reconstructed result.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The full harness cache key of the run.
    pub key: String,
    /// The reconstructed result, fingerprint-verified.
    pub result: RunResult,
}

/// Encode one result as the JSON envelope text (one document, no
/// trailing newline).
pub fn encode(key: &str, r: &RunResult) -> String {
    Json::obj(vec![
        ("v".into(), Json::U64(SCHEMA_VERSION)),
        ("stamp".into(), Json::U64(build_stamp())),
        ("key".into(), Json::str(key)),
        ("fingerprint".into(), Json::U64(r.fingerprint())),
        ("result".into(), result_to_json(r)),
    ])
    .to_string()
}

/// Decode an envelope, verifying version, build stamp, and fingerprint.
///
/// # Errors
///
/// Describes the first structural, versioning, or integrity problem;
/// callers on the load path treat any error as a cache miss.
pub fn decode(text: &str) -> Result<Envelope, String> {
    let v = Json::parse(text)?;
    let version = field_u64(&v, "v")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let stamp = field_u64(&v, "stamp")?;
    if stamp != build_stamp() {
        return Err("entry written by an incompatible build (stamp mismatch)".into());
    }
    let key = field_str(&v, "key")?.to_string();
    let fingerprint = field_u64(&v, "fingerprint")?;
    let result = result_from_json(
        v.get("result")
            .ok_or_else(|| "missing field 'result'".to_string())?,
    )?;
    if result.fingerprint() != fingerprint {
        return Err("fingerprint mismatch after decode (corrupt entry)".into());
    }
    Ok(Envelope { key, result })
}

fn result_to_json(r: &RunResult) -> Json {
    Json::obj(vec![
        ("name".into(), Json::str(&r.name)),
        ("window_ps".into(), Json::U64(r.window.as_ps())),
        ("clock_mhz".into(), Json::U64(r.clock.mhz())),
        (
            "page_hit_bits".into(),
            Json::U64(r.mem_page_hit_rate.to_bits()),
        ),
        (
            "committed_txns".into(),
            r.committed_txns.map_or(Json::Null, Json::U64),
        ),
        (
            "cpus".into(),
            Json::arr(r.cpus.iter().map(core_to_json).collect()),
        ),
        ("metrics".into(), metrics_to_json(&r.metrics)),
        ("availability".into(), availability_to_json(&r.availability)),
        (
            "sample".into(),
            r.sample.as_ref().map_or(Json::Null, sample_to_json),
        ),
        (
            "traffic".into(),
            r.traffic.as_ref().map_or(Json::Null, traffic_to_json),
        ),
    ])
}

fn result_from_json(v: &Json) -> Result<RunResult, String> {
    let clock_mhz = field_u64(v, "clock_mhz")?;
    if clock_mhz == 0 || 1_000_000 % clock_mhz != 0 {
        return Err(format!("bad clock frequency {clock_mhz} MHz"));
    }
    let cpus = v
        .get("cpus")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing field 'cpus'".to_string())?
        .iter()
        .map(core_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        name: field_str(v, "name")?.to_string(),
        window: Duration::from_ps(field_u64(v, "window_ps")?),
        clock: Clock::from_mhz(clock_mhz),
        cpus,
        mem_page_hit_rate: f64::from_bits(field_u64(v, "page_hit_bits")?),
        metrics: metrics_from_json(
            v.get("metrics")
                .ok_or_else(|| "missing field 'metrics'".to_string())?,
        )?,
        availability: availability_from_json(
            v.get("availability")
                .ok_or_else(|| "missing field 'availability'".to_string())?,
        )?,
        committed_txns: opt_u64(v, "committed_txns")?,
        sample: match v.get("sample") {
            None | Some(Json::Null) => None,
            Some(s) => Some(sample_from_json(s)?),
        },
        traffic: match v.get("traffic") {
            None | Some(Json::Null) => None,
            Some(t) => Some(traffic_from_json(t)?),
        },
    })
}

fn core_to_json(c: &CoreStats) -> Json {
    Json::obj(vec![
        ("instrs".into(), Json::U64(c.instrs)),
        (
            "stalls".into(),
            Json::arr(c.stall_cycles.iter().map(|&n| Json::U64(n)).collect()),
        ),
        ("branch".into(), Json::U64(c.branch_penalty_cycles)),
        ("sb_full".into(), Json::U64(c.sb_full_cycles)),
        ("l1i_miss".into(), Json::U64(c.l1i_misses)),
        ("l1d_miss".into(), Json::U64(c.l1d_misses)),
        ("sb_reqs".into(), Json::U64(c.sb_reqs)),
        ("l1_hits".into(), Json::U64(c.l1_hits)),
        ("tlb".into(), Json::U64(c.tlb_miss_cycles)),
        (
            "fills".into(),
            Json::arr(c.fills.iter().map(|&n| Json::U64(n)).collect()),
        ),
    ])
}

fn core_from_json(v: &Json) -> Result<CoreStats, String> {
    Ok(CoreStats {
        instrs: field_u64(v, "instrs")?,
        stall_cycles: u64_array(v, "stalls")?,
        branch_penalty_cycles: field_u64(v, "branch")?,
        sb_full_cycles: field_u64(v, "sb_full")?,
        l1i_misses: field_u64(v, "l1i_miss")?,
        l1d_misses: field_u64(v, "l1d_miss")?,
        sb_reqs: field_u64(v, "sb_reqs")?,
        l1_hits: field_u64(v, "l1_hits")?,
        tlb_miss_cycles: field_u64(v, "tlb")?,
        fills: u64_array(v, "fills")?,
    })
}

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    // Each row is [name, kind, payload]; gauges carry their bits so the
    // snapshot survives bit-exactly even though it is outside the
    // fingerprint.
    Json::arr(
        m.entries
            .iter()
            .map(|(name, value)| {
                let (kind, payload) = match value {
                    MetricValue::Count(n) => ("count", *n),
                    MetricValue::Value(x) => ("value", x.to_bits()),
                };
                Json::arr(vec![Json::str(name), Json::str(kind), Json::U64(payload)])
            })
            .collect(),
    )
}

fn metrics_from_json(v: &Json) -> Result<MetricsSnapshot, String> {
    let rows = v
        .as_arr()
        .ok_or_else(|| "metrics must be an array".to_string())?;
    let mut entries = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row
            .as_arr()
            .filter(|r| r.len() == 3)
            .ok_or_else(|| "metric row must be [name, kind, payload]".to_string())?;
        let name = row[0]
            .as_str()
            .ok_or_else(|| "metric name must be a string".to_string())?;
        let payload = row[2]
            .as_u64()
            .ok_or_else(|| "metric payload must be an integer".to_string())?;
        let value = match row[1].as_str() {
            Some("count") => MetricValue::Count(payload),
            Some("value") => MetricValue::Value(f64::from_bits(payload)),
            other => return Err(format!("unknown metric kind {other:?}")),
        };
        entries.push((name.to_string(), value));
    }
    Ok(MetricsSnapshot::from_entries(entries))
}

fn availability_to_json(a: &AvailabilityReport) -> Json {
    Json::obj(vec![
        ("injected".into(), Json::U64(a.injected)),
        ("corrected".into(), Json::U64(a.corrected)),
        ("escalated".into(), Json::U64(a.escalated)),
        ("retransmits".into(), Json::U64(a.retransmits)),
        ("recovery_cycles".into(), Json::U64(a.recovery_cycles)),
        (
            "by_kind".into(),
            Json::obj(
                a.by_kind
                    .iter()
                    .map(|(k, &n)| (k.token().to_string(), Json::U64(n)))
                    .collect(),
            ),
        ),
        (
            "slowdown_bits".into(),
            a.slowdown.map_or(Json::Null, |x| Json::U64(x.to_bits())),
        ),
    ])
}

fn availability_from_json(v: &Json) -> Result<AvailabilityReport, String> {
    let mut by_kind = BTreeMap::new();
    for (token, count) in v
        .get("by_kind")
        .and_then(Json::as_obj)
        .ok_or_else(|| "missing field 'by_kind'".to_string())?
    {
        let kind = FaultKind::from_token(token)
            .ok_or_else(|| format!("unknown fault kind token {token:?}"))?;
        let n = count
            .as_u64()
            .ok_or_else(|| "fault count must be an integer".to_string())?;
        by_kind.insert(kind, n);
    }
    Ok(AvailabilityReport {
        injected: field_u64(v, "injected")?,
        corrected: field_u64(v, "corrected")?,
        escalated: field_u64(v, "escalated")?,
        retransmits: field_u64(v, "retransmits")?,
        recovery_cycles: field_u64(v, "recovery_cycles")?,
        by_kind,
        slowdown: opt_u64(v, "slowdown_bits")?.map(f64::from_bits),
    })
}

fn sample_to_json(s: &SampleEstimate) -> Json {
    Json::obj(vec![
        ("cpi_mean_bits".into(), Json::U64(s.cpi_mean.to_bits())),
        ("cpi_ci95_bits".into(), Json::U64(s.cpi_ci95.to_bits())),
        ("stall_mean_bits".into(), Json::U64(s.stall_mean.to_bits())),
        ("stall_ci_bits".into(), Json::U64(s.stall_ci.to_bits())),
        ("windows".into(), Json::U64(s.windows)),
        (
            "detailed_fraction_bits".into(),
            Json::U64(s.detailed_fraction.to_bits()),
        ),
        ("detailed_instrs".into(), Json::U64(s.detailed_instrs)),
        ("warmed_instrs".into(), Json::U64(s.warmed_instrs)),
    ])
}

fn sample_from_json(v: &Json) -> Result<SampleEstimate, String> {
    Ok(SampleEstimate {
        cpi_mean: f64::from_bits(field_u64(v, "cpi_mean_bits")?),
        cpi_ci95: f64::from_bits(field_u64(v, "cpi_ci95_bits")?),
        stall_mean: f64::from_bits(field_u64(v, "stall_mean_bits")?),
        stall_ci: f64::from_bits(field_u64(v, "stall_ci_bits")?),
        windows: field_u64(v, "windows")?,
        detailed_fraction: f64::from_bits(field_u64(v, "detailed_fraction_bits")?),
        detailed_instrs: field_u64(v, "detailed_instrs")?,
        warmed_instrs: field_u64(v, "warmed_instrs")?,
    })
}

fn traffic_to_json(t: &TrafficSummary) -> Json {
    Json::obj(vec![
        ("generated".into(), Json::U64(t.ledger.generated)),
        ("accepted".into(), Json::U64(t.ledger.accepted)),
        ("dropped".into(), Json::U64(t.ledger.dropped)),
        ("deferred".into(), Json::U64(t.ledger.deferred)),
        ("completed".into(), Json::U64(t.ledger.completed)),
        (
            "lat_buckets".into(),
            Json::arr(
                t.latency
                    .bucket_counts()
                    .iter()
                    .map(|&n| Json::U64(n))
                    .collect(),
            ),
        ),
        ("lat_count".into(), Json::U64(t.latency.count())),
        ("lat_sum_ns".into(), Json::U64(t.latency.sum())),
        ("lat_max_ns".into(), Json::U64(t.latency.max())),
    ])
}

fn traffic_from_json(v: &Json) -> Result<TrafficSummary, String> {
    let buckets = v
        .get("lat_buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing field 'lat_buckets'".to_string())?
        .iter()
        .map(|b| {
            b.as_u64()
                .ok_or_else(|| "latency bucket must be an integer".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TrafficSummary {
        ledger: TrafficLedger {
            generated: field_u64(v, "generated")?,
            accepted: field_u64(v, "accepted")?,
            dropped: field_u64(v, "dropped")?,
            deferred: field_u64(v, "deferred")?,
            completed: field_u64(v, "completed")?,
        },
        latency: Histogram::from_parts(
            buckets,
            field_u64(v, "lat_count")?,
            field_u64(v, "lat_sum_ns")?,
            field_u64(v, "lat_max_ns")?,
        ),
    })
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid integer field {key:?}"))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be an integer or null")),
    }
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing/invalid string field {key:?}"))
}

fn u64_array(v: &Json, key: &str) -> Result<[u64; STALL_KINDS], String> {
    let items = v
        .get(key)
        .and_then(Json::as_arr)
        .filter(|a| a.len() == STALL_KINDS)
        .ok_or_else(|| format!("field {key:?} must be an array of {STALL_KINDS}"))?;
    let mut out = [0u64; STALL_KINDS];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must hold integers"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_types::FillSource;

    fn sample_result() -> RunResult {
        let mut c = CoreStats {
            instrs: 123_456,
            branch_penalty_cycles: 77,
            l1_hits: 999,
            ..Default::default()
        };
        c.record_fill(FillSource::L2Hit, 100);
        c.record_fill(FillSource::RemoteMem, 313);
        let mut r = RunResult::new(
            "p8".into(),
            Duration::from_ns(12_345),
            Clock::from_mhz(500),
            vec![c.clone(), c],
        );
        r.mem_page_hit_rate = 0.1 + 0.2; // deliberately non-representable
        r.committed_txns = Some(42);
        r.metrics = MetricsSnapshot::from_entries(vec![
            ("a.count".into(), MetricValue::Count(u64::MAX)),
            ("b.gauge".into(), MetricValue::Value(0.3 - 0.1)),
        ]);
        r.availability.injected = 3;
        r.availability.corrected = 2;
        r.availability.escalated = 1;
        r.availability.by_kind.insert(FaultKind::LinkFlap, 2);
        r.availability.by_kind.insert(FaultKind::MemFlipDouble, 1);
        r.availability.slowdown = Some(1.0625);
        r.sample = Some(SampleEstimate {
            cpi_mean: 1.5,
            cpi_ci95: 0.1,
            stall_mean: 0.25,
            stall_ci: 0.01,
            windows: 9,
            detailed_fraction: 0.05,
            detailed_instrs: 5_000,
            warmed_instrs: 95_000,
        });
        let mut latency = Histogram::new();
        latency.record(100);
        latency.record(20_000);
        r.traffic = Some(TrafficSummary {
            ledger: TrafficLedger {
                generated: 10,
                accepted: 9,
                dropped: 1,
                deferred: 0,
                completed: 9,
            },
            latency,
        });
        r
    }

    #[test]
    fn envelope_round_trips_bit_exactly() {
        let r = sample_result();
        let text = encode("some|key", &r);
        let env = decode(&text).expect("decodes");
        assert_eq!(env.key, "some|key");
        let back = env.result;
        assert_eq!(back.fingerprint(), r.fingerprint());
        assert_eq!(back.name, r.name);
        assert_eq!(back.window, r.window);
        assert_eq!(back.clock, r.clock);
        assert_eq!(
            back.mem_page_hit_rate.to_bits(),
            r.mem_page_hit_rate.to_bits()
        );
        assert_eq!(back.committed_txns, r.committed_txns);
        assert_eq!(format!("{:?}", back.cpus), format!("{:?}", r.cpus));
        assert_eq!(back.metrics.entries, r.metrics.entries);
        assert_eq!(back.availability, r.availability);
        let (bs, rs) = (back.sample.unwrap(), r.sample.unwrap());
        assert_eq!(bs.cpi_mean.to_bits(), rs.cpi_mean.to_bits());
        assert_eq!(bs.windows, rs.windows);
        let (bt, rt) = (back.traffic.unwrap(), r.traffic.unwrap());
        assert_eq!(bt.ledger, rt.ledger);
        assert_eq!(bt.latency.bucket_counts(), rt.latency.bucket_counts());
        assert_eq!(bt.latency.p99(), rt.latency.p99());
    }

    #[test]
    fn minimal_result_round_trips() {
        let r = RunResult::new(
            "bare".into(),
            Duration::from_ns(1),
            Clock::from_mhz(1000),
            vec![CoreStats::default()],
        );
        let env = decode(&encode("k", &r)).unwrap();
        assert_eq!(env.result.fingerprint(), r.fingerprint());
        assert!(env.result.sample.is_none());
        assert!(env.result.traffic.is_none());
        assert!(env.result.committed_txns.is_none());
    }

    #[test]
    fn rejects_wrong_version_stamp_and_corruption() {
        let r = sample_result();
        let good = encode("k", &r);

        let bad_version = good.replacen(
            &format!("\"v\":{SCHEMA_VERSION}"),
            &format!("\"v\":{}", SCHEMA_VERSION + 1),
            1,
        );
        assert!(decode(&bad_version).unwrap_err().contains("version"));

        let stamp = build_stamp();
        let bad_stamp = good.replacen(
            &format!("\"stamp\":{stamp}"),
            &format!("\"stamp\":{}", stamp ^ 1),
            1,
        );
        assert!(decode(&bad_stamp).unwrap_err().contains("stamp"));

        // Flipping a simulated field breaks the fingerprint check.
        let tampered = good.replacen("\"instrs\":123456", "\"instrs\":123457", 1);
        assert!(decode(&tampered).unwrap_err().contains("fingerprint"));

        // Truncation is a parse error, not a panic.
        assert!(decode(&good[..good.len() / 2]).is_err());
        assert!(decode("").is_err());
        assert!(decode("not json at all").is_err());
    }

    #[test]
    fn stamp_is_stable_within_a_build() {
        assert_eq!(build_stamp(), build_stamp());
        assert_ne!(build_stamp(), 0);
    }
}
