//! Golden-fingerprint guard: the event-ordering contract of the
//! simulator core.
//!
//! Every fig5–fig8 configuration at quick scale, plus the `fig_faults`
//! headline schedule, must produce a [`RunResult::fingerprint()`] that
//! is bit-identical to the checked-in `tests/golden_fingerprints.tsv`.
//! Any change to event delivery order — a reordered `schedule()` call, a
//! different tie-break in the event queue, a perturbed PRNG consult —
//! shows up here as a fingerprint diff, so refactors of the dispatch
//! path (like the component/port decomposition) are provably
//! behavior-preserving.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! cargo test --release --test golden_fingerprint -- --ignored bless
//! ```
//!
//! and commit the updated `.tsv` files with an explanation of why the
//! ordering legitimately changed.

use piranha::experiments::{fig5, fingerprints, golden_plan, plan, RunScale};

const GOLDEN: &str = include_str!("golden_fingerprints.tsv");
const GOLDEN_FIG5: &str = include_str!("golden_fig5_quick.tsv");

fn golden_dir() -> std::path::PathBuf {
    // Compiled as a `[[test]]` of crates/core, so the manifest dir is
    // two levels below the repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests")
}

#[test]
fn golden_labels_are_unique() {
    let plan = golden_plan(RunScale::quick());
    let labels: std::collections::HashSet<String> = plan
        .requests()
        .iter()
        .map(piranha::experiments::golden_label)
        .collect();
    assert_eq!(
        labels.len(),
        plan.len(),
        "every golden run must have a distinct label"
    );
}

#[test]
fn golden_fingerprints_match_checked_in_values() {
    let got = fingerprints(&golden_plan(RunScale::quick()));
    assert!(
        !GOLDEN.trim().is_empty(),
        "golden file missing — run the ignored `bless` test to create it"
    );
    if got != GOLDEN {
        let diff: Vec<String> = got
            .lines()
            .zip(GOLDEN.lines().chain(std::iter::repeat("<missing>")))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  got:    {a}\n  golden: {b}"))
            .collect();
        panic!(
            "event ordering changed — {} of {} fingerprints differ:\n{}\n\
             If intentional, re-bless with:\n  cargo test --release --test \
             golden_fingerprint -- --ignored bless",
            diff.len(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn fig5_subset_matches_checked_in_values() {
    let got = fingerprints(&plan(&[fig5(RunScale::quick())]));
    assert_eq!(
        got, GOLDEN_FIG5,
        "fig5 fingerprint subset drifted from tests/golden_fig5_quick.tsv \
         (this is the set the CI smoke job diffs via `fig5 --quick --fingerprints`)"
    );
}

#[test]
fn fig5_subset_is_a_prefix_of_the_golden_set() {
    // The CI smoke only covers fig5; make sure those lines really are
    // the corresponding lines of the full golden file, so the two files
    // can never disagree about the same run.
    for line in GOLDEN_FIG5.lines() {
        assert!(
            GOLDEN.lines().any(|g| g == line),
            "fig5 golden line not present in the full golden set: {line}"
        );
    }
}

/// Every multi-chip golden row must reproduce its serially-blessed
/// fingerprint under the conservative parallel engine at 2 and 4 lane
/// workers. The quantum engine is canonical for multi-chip machines at
/// *any* worker count, so this holds by construction — the test guards
/// the construction (barrier merge order, outbox sequencing, per-lane
/// version striding) against regressions.
///
/// Skipped on single-core machines, where oversubscribed lane threads
/// would only slow CI down without changing coverage (the tiny-scale
/// proptest below still runs); set `PIRANHA_GOLDEN_PARALLEL=1` to force.
#[test]
fn golden_multichip_rows_match_under_parallel_workers() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 && std::env::var_os("PIRANHA_GOLDEN_PARALLEL").is_none() {
        eprintln!("skipping parallel golden check: {cores} core(s); set PIRANHA_GOLDEN_PARALLEL=1 to force");
        return;
    }
    let golden: std::collections::HashMap<&str, &str> =
        GOLDEN.lines().filter_map(|l| l.split_once('\t')).collect();
    let plan = golden_plan(RunScale::quick());
    let mut checked = 0;
    for req in plan.requests() {
        if req.cfg.nodes + req.cfg.io_nodes < 2 {
            continue;
        }
        let label = piranha::experiments::golden_label(req);
        let want = golden
            .get(label.as_str())
            .unwrap_or_else(|| panic!("golden file has no row for {label}"));
        for workers in [2usize, 4] {
            let mut m = req.build();
            m.set_parallel_workers(workers);
            let r = req.drive(&mut m);
            assert_eq!(
                &format!("{:016x}", r.fingerprint()),
                want,
                "{label} diverged from its serially-blessed fingerprint \
                 at {workers} lane workers"
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "golden plan should contain multi-chip rows (found {checked})"
    );
}

mod parallel_props {
    use super::*;
    use piranha::experiments::{dss, oltp};
    use piranha::harness::RunRequest;
    use piranha::SystemConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Serial == parallel for *random* multi-chip configurations,
        /// not just the blessed figure configs: chip count, CPUs per
        /// chip, seed, workload, and worker count all vary. Tiny scale
        /// keeps each case cheap enough to run everywhere (including
        /// single-core CI).
        #[test]
        fn random_multichip_configs_are_parallel_deterministic(
            chips in 2usize..5,
            cpus in 1usize..5,
            seed in 0u64..1_000_000,
            workers in 2usize..5,
            use_dss in proptest::bool::ANY,
        ) {
            let mut cfg = SystemConfig::piranha_pn(cpus).scaled_to_chips(chips);
            cfg.seed = seed;
            let w = if use_dss { dss() } else { oltp() };
            let req = RunRequest::new(cfg.clone(), w, RunScale::tiny());
            let run = |workers| {
                let mut m = req.build();
                m.set_parallel_workers(workers);
                req.drive(&mut m)
            };
            let (serial, parallel) = (run(1), run(workers));
            prop_assert_eq!(
                serial.fingerprint(),
                parallel.fingerprint(),
                "{} chips={} cpus={} seed={} workers={} dss={}",
                cfg.name, chips, cpus, seed, workers, use_dss
            );
        }
    }
}

/// Regenerates both golden files. Ignored by default; run explicitly
/// when an intentional change to event ordering is being made.
#[test]
#[ignore = "regenerates the golden files; run explicitly to bless"]
fn bless() {
    let dir = golden_dir();
    let all = fingerprints(&golden_plan(RunScale::quick()));
    std::fs::write(dir.join("golden_fingerprints.tsv"), &all).unwrap();
    let fig5 = fingerprints(&plan(&[fig5(RunScale::quick())]));
    std::fs::write(dir.join("golden_fig5_quick.tsv"), &fig5).unwrap();
    println!("blessed {} golden fingerprints", all.lines().count());
}
