//! Golden pins for sampled execution: functional warming on multi-CPU
//! and multi-node machines, bit for bit.
//!
//! `golden_fingerprint` pins the detailed engine and `sample_fidelity`
//! checks warming against detailed state on one CPU. Neither pins what a
//! sampled run on a shared chip or across chips produces, so a change to
//! the warm path that reorders cross-CPU misses or protocol traffic would
//! go unnoticed. Each row here records three digests of one small
//! sampled run:
//!
//! * [`RunResult::fingerprint`] of the measured windows;
//! * [`SampleEstimate::digest`](piranha::SampleEstimate::digest) of the
//!   estimate (CPI, confidence interval, instruction split);
//! * [`Machine::arch_state_digest`] of the machine afterwards (caches,
//!   TLBs, duplicate tags, directory, memory versions).
//!
//! The rows are a P8 chip, a two-chip P2x2 (which drives the warm
//! protocol engines and cross-node `Send`s) and the out-of-order OOO
//! chip (whose fills retire instructions) on bounded OLTP run to
//! completion, plus a budgeted P8 sampled [`RunRequest`].
//!
//! To regenerate after an *intentional* change to warming:
//!
//! ```text
//! cargo test --release --test golden_sampled -- --ignored bless
//! ```

use piranha::experiments::{oltp, oltp_bounded, RunScale};
use piranha::harness::RunRequest;
use piranha::{Machine, RunResult, SampleConfig, SystemConfig};

const GOLDEN: &str = include_str!("golden_sampled.tsv");

/// The sampling plan of every row: 2.5k-instruction periods with
/// 400-instruction windows (the benchmark's tiny sampled geometry).
fn plan() -> SampleConfig {
    SampleConfig::new(2_500, 400)
}

/// One pinned run: a label and the request that produces it.
fn rows() -> Vec<(&'static str, RunRequest)> {
    let sampled = |cfg: SystemConfig, workload, scale| RunRequest {
        sample: Some(plan()),
        ..RunRequest::new(cfg, workload, scale)
    };
    vec![
        (
            "P8|oltp_bounded200|completion",
            sampled(
                SystemConfig::piranha_p8(),
                oltp_bounded(200),
                RunScale::completion(),
            ),
        ),
        (
            "P2x2|oltp_bounded200|completion",
            sampled(
                SystemConfig::piranha_pn(2).scaled_to_chips(2),
                oltp_bounded(200),
                RunScale::completion(),
            ),
        ),
        (
            "OOO|oltp_bounded200|completion",
            sampled(
                SystemConfig::ooo(),
                oltp_bounded(200),
                RunScale::completion(),
            ),
        ),
        (
            "P8|oltp|tiny",
            sampled(SystemConfig::piranha_p8(), oltp(), RunScale::tiny()),
        ),
    ]
}

/// `label \t fingerprint \t sample digest \t arch-state digest`.
fn render(label: &str, r: &RunResult, m: &Machine) -> String {
    let est = r
        .sample
        .as_ref()
        .expect("a sampled run carries an estimate");
    format!(
        "{label}\t{:016x}\t{:016x}\t{:016x}\n",
        r.fingerprint(),
        est.digest(),
        m.arch_state_digest()
    )
}

fn run_row(label: &str, req: &RunRequest) -> String {
    let mut m = req.build();
    let r = req.drive(&mut m);
    render(label, &r, &m)
}

#[test]
fn golden_sampled_rows_match_checked_in_values() {
    let golden: std::collections::HashMap<&str, &str> = GOLDEN
        .lines()
        .filter_map(|l| l.split_once('\t').map(|(k, _)| (k, l)))
        .collect();
    let rows = rows();
    assert_eq!(
        golden.len(),
        rows.len(),
        "tests/golden_sampled.tsv must have one line per row — run the \
         ignored `bless` test to regenerate it"
    );
    for (label, req) in &rows {
        let got = run_row(label, req);
        let want = golden
            .get(label)
            .unwrap_or_else(|| panic!("tests/golden_sampled.tsv has no row for {label}"));
        assert_eq!(
            got.trim_end(),
            *want,
            "sampled run {label} drifted (columns: fingerprint, sample digest, \
             arch-state digest). If intentional, re-bless with:\n  cargo test \
             --release --test golden_sampled -- --ignored bless"
        );
    }
}

/// Regenerates `tests/golden_sampled.tsv`. Ignored by default; run
/// explicitly when warming is meant to change behaviour.
#[test]
#[ignore = "regenerates the golden file; run explicitly to bless"]
fn bless() {
    let out: String = rows()
        .iter()
        .map(|(label, req)| run_row(label, req))
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_sampled.tsv");
    std::fs::write(&path, &out).unwrap();
    println!("blessed {} sampled rows", out.lines().count());
}
