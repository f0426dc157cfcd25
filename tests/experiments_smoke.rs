//! Smoke tests of the experiment regenerators: at reduced scale, the
//! *direction* of every paper result must already hold.

use std::sync::OnceLock;

use piranha::experiments::{self, Harness, RunRequest, RunScale};
use piranha::observe::Table;
use piranha::serve::json::Json;
use piranha::workloads::Workload;

fn tiny() -> RunScale {
    RunScale {
        warmup: 40_000,
        measure: 80_000,
        ..RunScale::tiny()
    }
}

/// The row of `t` whose string cells match `keys`, `(column, value)`
/// pairs.
fn row<'a>(t: &'a Table, keys: &[(&str, &str)]) -> &'a [Json] {
    let matches = |r: &&Vec<Json>| keys.iter().all(|(k, v)| t.cell(r, k).as_str() == Some(*v));
    t.rows()
        .iter()
        .find(matches)
        .unwrap_or_else(|| panic!("no row {keys:?}"))
}

/// The number in `t`'s row `keys` under `column`.
fn num(t: &Table, keys: &[(&str, &str)], column: &str) -> f64 {
    t.cell(row(t, keys), column).as_f64().unwrap()
}

/// Figure 5 at tiny scale, simulated once for the tests that read it.
fn fig5() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| experiments::fig5(tiny()).table(&mut Harness::new()))
}

#[test]
fn table1_lists_all_three_designs() {
    let t = experiments::table1();
    let cells: Vec<&str> = t
        .rows()
        .iter()
        .flat_map(|r| ["P8", "OOO/INO", "P8F"].map(|c| t.cell(r, c).as_str().unwrap()))
        .collect();
    for needle in [
        "500 MHz",
        "1000 MHz",
        "1250 MHz",
        "8-way",
        "6-way",
        "16 ns / 24 ns",
    ] {
        assert!(
            cells.iter().any(|c| c.contains(needle)),
            "Table 1 missing {needle:?}:\n{t}"
        );
    }
}

#[test]
fn fig5_oltp_ordering_holds() {
    let t = fig5();
    let time = |name| num(t, &[("workload", "oltp"), ("config", name)], "norm_time");
    // Paper ordering: P8 << OOO < INO < P1.
    assert!(time("P8") < 60.0, "P8 clearly beats OOO: {}", time("P8"));
    assert!(time("INO") > 110.0, "INO slower than OOO: {}", time("INO"));
    assert!(time("P1") > time("INO"), "P1 slower than INO");
    // Every bar decomposes into non-negative parts that sum to its time.
    for r in t.rows() {
        let part = |c| t.cell(r, c).as_f64().unwrap();
        let parts = [part("busy"), part("l2_hit"), part("l2_miss")];
        assert!(
            (parts.iter().sum::<f64>() - part("norm_time")).abs() < 1.0,
            "{}",
            Json::Arr(r.clone())
        );
        assert!(parts.iter().all(|&p| p >= 0.0));
    }
}

#[test]
fn fig5_dss_ordering_holds() {
    let t = fig5();
    let dss = |name| [("workload", "dss"), ("config", name)];
    let time = |name| num(t, &dss(name), "norm_time");
    assert!(time("P8") < 80.0, "P8 beats OOO on DSS: {}", time("P8"));
    assert!(
        time("P1") > 250.0,
        "single Piranha core is much slower: {}",
        time("P1")
    );
    // DSS is compute-bound: the busy component dominates P1's bar.
    let p1_busy = num(t, &dss("P1"), "busy") / time("P1");
    assert!(p1_busy > 0.75, "DSS is CPU-bound: {p1_busy}");
    // OLTP margin (2.3-2.9x) exceeds the DSS margin (~2.3x) in the
    // paper; check the weaker directional claim.
    let p8_oltp = num(t, &[("workload", "oltp"), ("config", "P8")], "norm_time");
    assert!(
        p8_oltp < time("P8") + 25.0,
        "P8 margin on OLTP at least comparable"
    );
}

#[test]
fn fig6_speedup_and_breakdown_trends() {
    let t = experiments::fig6(tiny()).table(&mut Harness::new());
    let get = |name, column| num(&t, &[("config", name)], column);
    let speedup = |name| get(name, "speedup");
    assert!(speedup("P2") > 1.6, "P2: {}", speedup("P2"));
    assert!(speedup("P4") > speedup("P2"));
    assert!(
        speedup("P8") > 5.0,
        "near-linear CMP scaling: {}",
        speedup("P8")
    );

    let chips = ["P1", "P2", "P4", "P8"];
    for name in chips {
        let sum = get(name, "l2_hit") + get(name, "l2_fwd") + get(name, "l2_miss");
        assert!((sum - 1.0).abs() < 1e-9, "{name} fractions sum to 1");
    }
    assert_eq!(get("P1", "l2_fwd"), 0.0, "P1 has no forwards");
    assert!(
        get("P1", "l2_hit") > get("P8", "l2_hit"),
        "L2-hit fraction falls with more CPUs"
    );
    let fwd = get("P8", "l2_fwd");
    assert!(fwd > 0.25, "P8 forwards a large fraction: {fwd}");
    // At this reduced scale P1's shared structures are still warming
    // (its L2 fills 8x slower per CPU-instruction than P8's), so the
    // paper's "flat miss fraction" is only asserted directionally here;
    // the full-scale run in EXPERIMENTS.md shows the flat profile.
    assert!(
        get("P8", "l2_miss") <= get("P1", "l2_miss") + 0.05,
        "adding CPUs must not inflate the memory-miss fraction:\n{t}"
    );
}

#[test]
fn fig8_full_custom_extends_the_lead() {
    let t = experiments::fig8(tiny()).table(&mut Harness::new());
    let time = |name| num(&t, &[("workload", "dss"), ("config", name)], "norm_time");
    assert!(
        time("P8F") < time("P8"),
        "full custom beats ASIC: {} vs {}",
        time("P8F"),
        time("P8")
    );
    assert!(time("P8") < time("OOO"));
}

#[test]
fn mem_page_hit_rate_is_meaningful() {
    let t = experiments::mem_pages(tiny()).table(&mut Harness::new());
    let r = num(&t, &[("config", "P8")], "page_hit_rate");
    assert!(r > 0.02 && r < 0.95, "open-page policy produces hits: {r}");
}

#[test]
fn web_search_behaves_like_dss() {
    let scale = RunScale {
        warmup: 30_000,
        measure: 60_000,
        ..RunScale::tiny()
    };
    let report = experiments::web_search(scale);
    let t = report.table(&mut Harness::new());
    let web = |name| [("workload", "web"), ("config", name)];
    // §6: "similar to DSS" — compute-bound, and P8 still wins on
    // throughput (OOO = 100, so P8's speedup is 100 over its time).
    let ooo_busy = num(&t, &web("OOO"), "busy") / num(&t, &web("OOO"), "norm_time");
    assert!(ooo_busy > 0.5, "web search is compute-bound on OOO");
    assert!(
        100.0 / num(&t, &web("P8"), "norm_time") > 1.3,
        "CMP throughput advantage carries over"
    );
    let p8_web = |r: &&RunRequest| r.cfg.name == "P8" && matches!(r.workload, Workload::Web(_));
    let p8 = report.runs().iter().find(p8_web).unwrap();
    let mut m = p8.build();
    p8.drive(&mut m);
    m.check_coherence();
}
