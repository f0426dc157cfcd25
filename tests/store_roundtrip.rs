//! Persistent-store fidelity: results that travel through the on-disk
//! envelope come back **bit-identical**, corrupted entries degrade to
//! recomputation (never a panic, and the recompute repairs the entry),
//! and a killed-and-restarted sweep resumes from disk recomputing only
//! the rows it never finished.

use std::sync::Arc;

use piranha::experiments::{oltp_bounded, RunScale};
use piranha::harness::{cache_key, Harness, ResultStore, RunPlan, RunRequest};
use piranha::serve::DiskStore;
use piranha::workloads::Workload;
use piranha::{FaultConfig, SystemConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("piranha-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synth() -> Workload {
    Workload::Synth(piranha::workloads::SynthConfig::light())
}

/// A faulted multi-chip run to completion exercises every envelope
/// field family at once: availability ledger (with per-kind counts),
/// committed transactions, non-trivial metrics, and multi-CPU stats.
#[test]
fn faulted_run_survives_the_disk_round_trip_bit_identically() {
    let dir = tmpdir("fidelity");
    let store = DiskStore::open(&dir).unwrap();
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.faults = FaultConfig::seeded(7, 1e-3);
    let w = oltp_bounded(5);
    let scale = RunScale::completion();

    let fresh = RunRequest::new(cfg.clone(), w.clone(), scale).run();
    let key = cache_key(&cfg, &w, scale);
    store.save(&key, &fresh);
    let loaded = store.load(&key).expect("entry just saved");

    assert_eq!(loaded.fingerprint(), fresh.fingerprint());
    assert_eq!(loaded.name, fresh.name);
    assert_eq!(loaded.window, fresh.window);
    assert_eq!(loaded.clock, fresh.clock);
    assert_eq!(loaded.committed_txns, fresh.committed_txns);
    assert_eq!(
        loaded.mem_page_hit_rate.to_bits(),
        fresh.mem_page_hit_rate.to_bits()
    );
    assert_eq!(loaded.availability, fresh.availability);
    assert!(
        loaded.availability.injected > 0,
        "the schedule must actually inject (otherwise this test proves \
         nothing about availability persistence)"
    );
    assert_eq!(loaded.cpus.len(), fresh.cpus.len());
    for (l, f) in loaded.cpus.iter().zip(&fresh.cpus) {
        // CoreStats carries no PartialEq; its Debug rendering covers
        // every field, which is exactly the fidelity being asserted.
        assert_eq!(format!("{l:?}"), format!("{f:?}"));
    }
    assert_eq!(
        loaded.metrics.entries, fresh.metrics.entries,
        "metric snapshot must round-trip exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_recompute_and_repair() {
    let dir = tmpdir("corrupt");
    let store: Arc<DiskStore> = Arc::new(DiskStore::open(&dir).unwrap());
    let cfg = SystemConfig::piranha_p1();
    let w = synth();
    let scale = RunScale::tiny();
    let key = cache_key(&cfg, &w, scale);
    let req = RunRequest::new(cfg, w, scale);

    let mut h = Harness::serial();
    h.set_store(Some(store.clone()));
    let original = h.fetch(&req);
    assert_eq!((h.unique_runs(), h.store_hits()), (1, 0));

    // Vandalize the entry three ways; every shape must load as a miss.
    let path = dir.join(format!("{}.json", DiskStore::address(&key)));
    let good = std::fs::read_to_string(&path).unwrap();
    for bad in [
        &good[..good.len() / 2],     // truncated write
        "not json at all",           // garbage
        "{\"v\":999,\"key\":\"x\"}", // wrong schema version
    ] {
        std::fs::write(&path, bad).unwrap();
        assert!(
            store.load(&key).is_none(),
            "a corrupt entry must be a miss, not a panic: {bad:?}"
        );
        // A fresh harness (cold memory cache) recomputes and re-saves.
        let mut h2 = Harness::serial();
        h2.set_store(Some(store.clone()));
        let r = h2.fetch(&req);
        assert_eq!(r.fingerprint(), original.fingerprint());
        assert_eq!((h2.unique_runs(), h2.store_hits()), (1, 0));
        assert_eq!(
            store
                .load(&key)
                .expect("recompute must repair the entry")
                .fingerprint(),
            original.fingerprint()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_sweep_resumes_recomputing_only_unfinished_rows() {
    let dir = tmpdir("resume");
    let w = synth();
    let scale = RunScale::tiny();
    let configs = [
        SystemConfig::piranha_p1(),
        SystemConfig::piranha_pn(2),
        SystemConfig::piranha_pn(3),
        SystemConfig::piranha_pn(4),
    ];

    // "Process one" dies after finishing half the sweep.
    {
        let mut h = Harness::with_threads(2);
        h.set_store(Some(Arc::new(DiskStore::open(&dir).unwrap())));
        let mut partial = RunPlan::new();
        for cfg in &configs[..2] {
            partial.push(RunRequest::new(cfg.clone(), w.clone(), scale));
        }
        h.execute(&partial);
        assert_eq!(h.unique_runs(), 2);
    } // harness (and its in-memory cache) dropped — the "kill"

    // "Process two" runs the whole sweep against the same directory.
    let store = Arc::new(DiskStore::open(&dir).unwrap());
    assert_eq!(store.len(), 2, "two finished rows survived the kill");
    let mut h = Harness::with_threads(2);
    h.set_store(Some(store.clone()));
    let mut full = RunPlan::new();
    for cfg in &configs {
        full.push(RunRequest::new(cfg.clone(), w.clone(), scale));
    }
    h.execute(&full);
    assert_eq!(
        (h.unique_runs(), h.store_hits()),
        (2, 2),
        "resume must recompute exactly the unfinished rows"
    );
    assert_eq!(store.len(), 4, "the finished sweep is fully persisted");

    // And a third run is pure store replay.
    let mut h3 = Harness::with_threads(2);
    h3.set_store(Some(store));
    h3.execute(&full);
    assert_eq!((h3.unique_runs(), h3.store_hits()), (0, 4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two independent "processes" (separate caches, separate `DiskStore`
/// handles, same directory) racing the same plan: every result agrees,
/// nothing corrupts, and the directory ends up with exactly one entry
/// per tuple. Atomic write-then-rename makes concurrent same-key saves
/// safe; the store contract tolerates both sides computing.
#[test]
fn two_processes_can_share_a_store_directory() {
    let dir = tmpdir("shared");
    let w = synth();
    let scale = RunScale::tiny();
    let configs: Vec<SystemConfig> = (1..=4).map(SystemConfig::piranha_pn).collect();
    let run = |_: usize| {
        let mut h = Harness::with_threads(2);
        h.set_store(Some(Arc::new(DiskStore::open(&dir).unwrap())));
        let mut plan = RunPlan::new();
        for cfg in &configs {
            plan.push(RunRequest::new(cfg.clone(), w.clone(), scale));
        }
        h.execute(&plan);
        plan.requests()
            .iter()
            .map(|req| h.fetch(req).fingerprint())
            .collect::<Vec<u64>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(0));
        let tb = s.spawn(|| run(1));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(a, b, "both sides must observe identical results");

    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.len(), configs.len(), "one entry per tuple, no litter");
    for (cfg, fp) in configs.iter().zip(&a) {
        let key = cache_key(cfg, &w, scale);
        assert_eq!(store.load(&key).expect("entry exists").fingerprint(), *fp);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
