//! Warming-fidelity property: functional warming must leave the machine
//! in exactly the architectural state a detailed run would — same cache
//! and TLB occupancy, same directory contents, same memory versions —
//! because a sampled run's detailed windows measure the state warming
//! built for them.
//!
//! The comparison is made *at stream completion* on a single-CPU
//! machine with a loads-only bounded workload (DSS — its own unit test
//! asserts the stream emits no stores). That construction makes the
//! property exact rather than approximate:
//!
//! * single CPU: no cross-CPU interleaving, so the retire order — and
//!   with it every miss, fill, LRU touch, and directory transition — is
//!   the same sequence in both regimes;
//! * loads only: no store-buffer drain whose coalescing could depend on
//!   timing;
//! * at completion: the warm engine advances in round-robin quanta and
//!   the detailed engine re-checks its stop condition only every few
//!   events, so mid-stream stops land on different instruction counts —
//!   completion is the one boundary both regimes hit exactly.
//!
//! The oracle is `Machine::arch_state_digest()`, a hash over sorted
//! occupancy state (L1/L2 tags, TLB pages, duplicate-tag rows,
//! directory entries, memory versions) that deliberately excludes all
//! timing.

use piranha_system::{Machine, SampleConfig, SystemConfig};
use piranha_workloads::{DssConfig, Workload};
use proptest::prelude::*;

/// A bounded, single-CPU DSS workload: `lines` table lines with `ipl`
/// predicate instructions each, over a `table_kb` KiB table.
fn bounded_dss(table_kb: u64, ipl: u64, lines: u64, sel_pct: u64) -> Workload {
    Workload::Dss(DssConfig {
        table_bytes: table_kb << 10,
        instrs_per_line: ipl,
        selectivity: sel_pct as f64 / 100.0,
        line_limit: lines,
        ..DssConfig::paper_default()
    })
}

/// An all-functional sampling plan: zero detailed windows, so the whole
/// stream is fast-forwarded through the warming path. Built literally
/// because `SampleConfig::new` insists on a non-degenerate window.
fn all_warm() -> SampleConfig {
    SampleConfig {
        warmup: 0,
        period: 10_000,
        detail_warmup: 0,
        window: 1,
        max_windows: 0,
    }
}

fn p1() -> SystemConfig {
    SystemConfig::piranha_p1()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// After running an arbitrary bounded loads-only workload to
    /// completion, the purely-functional regime leaves bit-identical
    /// architectural state to the detailed regime.
    #[test]
    fn functional_warming_matches_detailed_state(
        table_kb in 64u64..512,
        ipl in 4u64..40,
        lines in 40u64..400,
        sel_pct in 10u64..90,
    ) {
        let wl = bounded_dss(table_kb, ipl, lines, sel_pct);

        let mut detailed = Machine::new(p1(), &wl);
        detailed.run_to_completion();

        let mut warm = Machine::new(p1(), &wl);
        warm.run_sampled(&all_warm(), None);

        prop_assert_eq!(detailed.total_instrs(), warm.total_instrs());
        prop_assert_eq!(
            detailed.arch_state_digest(),
            warm.arch_state_digest()
        );
    }

    /// The same holds for a genuinely alternating sampled run (warming
    /// punctuated by detailed windows): mode switches at window
    /// boundaries must not perturb architectural state either.
    #[test]
    fn sampled_alternation_matches_detailed_state(
        table_kb in 64u64..512,
        ipl in 4u64..40,
        lines in 40u64..400,
    ) {
        let wl = bounded_dss(table_kb, ipl, lines, 55);

        let mut detailed = Machine::new(p1(), &wl);
        detailed.run_to_completion();

        let mut sampled = Machine::new(p1(), &wl);
        sampled.run_sampled(&SampleConfig::new(600, 60), None);

        prop_assert_eq!(detailed.total_instrs(), sampled.total_instrs());
        prop_assert_eq!(
            detailed.arch_state_digest(),
            sampled.arch_state_digest()
        );
    }
}

/// The oracle itself is non-trivial: different workloads must land on
/// different digests, or the equalities above prove nothing.
#[test]
fn digest_distinguishes_workloads() {
    let mut a = Machine::new(p1(), &bounded_dss(128, 8, 100, 55));
    a.run_to_completion();
    let mut b = Machine::new(p1(), &bounded_dss(256, 12, 150, 55));
    b.run_to_completion();
    assert_ne!(a.arch_state_digest(), b.arch_state_digest());
}
