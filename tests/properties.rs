//! Property-based tests (proptest) on core invariants: directory
//! encodings, the DC-balanced link code, cache state machines, CMI
//! planning, and randomized whole-machine coherence.

use proptest::prelude::*;

use piranha::cache::{L1Cache, L1Config, Mesi, StoreOutcome, Tlb, TlbConfig, Victim};
use piranha::mem::{DirEntry, NodeSet};
use piranha::net::{decode22, encode22};
use piranha::protocol::msg::plan_cmi_routes;
use piranha::types::{Addr, LineAddr, NodeId};
use piranha::workloads::{SynthConfig, Workload};
use piranha::{Machine, SystemConfig};

proptest! {
    /// Directory encode/decode: exact for ≤4 sharers and exclusive
    /// entries; a superset (never missing a sharer) beyond that.
    #[test]
    fn directory_round_trip(sharers in proptest::collection::btree_set(0u16..1024, 0..12)) {
        let set: NodeSet = sharers.iter().map(|&n| NodeId(n)).collect();
        let e = DirEntry::Shared(set.clone());
        let bits = e.encode();
        prop_assert!(bits < (1u64 << 44), "fits the spare ECC bits");
        let d = DirEntry::decode(bits, 1024);
        match d {
            DirEntry::Uncached => prop_assert!(set.is_empty()),
            DirEntry::Shared(ds) => {
                prop_assert!(ds.is_superset(&set), "never lose a sharer");
                if set.len() <= 4 {
                    prop_assert_eq!(ds, set, "pointer representation is exact");
                }
            }
            DirEntry::Exclusive(_) => prop_assert!(false, "shared never decodes exclusive"),
        }
    }

    /// Exclusive entries round-trip exactly for every node id.
    #[test]
    fn directory_exclusive_round_trip(node in 0u16..1024) {
        let e = DirEntry::Exclusive(NodeId(node));
        prop_assert_eq!(DirEntry::decode(e.encode(), 1024), e);
    }

    /// The 19-in-22 link code: every payload encodes to a word with
    /// exactly 11 wires high, decodes back, and complementing the word
    /// flips only the 19th (inversion) bit.
    #[test]
    fn dc_balanced_code(payload in 0u32..(1 << 19)) {
        let w = encode22(payload).unwrap();
        prop_assert_eq!(w.count_ones(), 11, "DC balance");
        prop_assert_eq!(decode22(w).unwrap(), payload);
        let complement = !w & ((1 << 22) - 1);
        prop_assert_eq!(complement.count_ones(), 11);
        prop_assert_eq!(decode22(complement).unwrap(), payload ^ (1 << 18));
    }

    /// CMI planning: every target visited exactly once, within the route
    /// budget, with balanced route lengths.
    #[test]
    fn cmi_routes_partition_targets(
        targets in proptest::collection::btree_set(0u16..256, 0..40),
        budget in 1usize..8,
    ) {
        let t: Vec<NodeId> = targets.iter().map(|&n| NodeId(n)).collect();
        let routes = plan_cmi_routes(&t, budget);
        prop_assert!(routes.len() <= budget);
        let mut seen: Vec<NodeId> = routes.iter().flatten().copied().collect();
        seen.sort();
        prop_assert_eq!(seen, t, "exact partition");
        if !routes.is_empty() {
            let min = routes.iter().map(Vec::len).min().unwrap();
            let max = routes.iter().map(Vec::len).max().unwrap();
            prop_assert!(max - min <= 1, "balanced routes");
        }
    }

    /// L1 cache model versus a reference LRU model: hits, the exact
    /// victim of every fill, and state/version agree after arbitrary
    /// operation sequences, on a 2-way power-of-two geometry, the 1-way
    /// pessimistic L1 of the sensitivity study, and a 3-set geometry
    /// indexed by remainder.
    #[test]
    fn l1_matches_reference_model(ops in proptest::collection::vec((0u8..6, 0u64..32), 1..300)) {
        // (geometry, line stride): the stride folds the 32 generated
        // lines onto 4 of the pessimistic L1's 512 sets so they conflict.
        for (cfg, stride) in [
            (L1Config { size_bytes: 8 * 64, ways: 2 }, 1),
            (L1Config::pessimistic(), 128),
            (L1Config { size_bytes: 6 * 64, ways: 2 }, 1),
        ] {
            check_l1_against_reference(cfg, stride, &ops);
        }
    }

    /// The TLB versus a reference LRU model: the hit/miss sequence and
    /// the mapped pages agree, on power-of-two and 3-set geometries.
    #[test]
    fn tlb_matches_reference_model(pages in proptest::collection::vec((0u64..40, 0u64..8192), 1..400)) {
        for (entries, ways) in [(16, 4), (12, 4), (4, 1)] {
            let cfg = TlbConfig { entries, ways, page_bytes: 8192, miss_penalty: 20 };
            let mut tlb = Tlb::new(cfg);
            let mut reference = RefAssoc::new(entries / ways, ways, 0);
            let mut misses = 0;
            for &(page, offset) in &pages {
                let hit = reference.contains(page);
                if hit {
                    reference.touch(page);
                } else {
                    misses += 1;
                    reference.insert(page, |_| false);
                }
                prop_assert_eq!(tlb.access(Addr(page * 8192 + offset)), hit, "page {}", page);
                prop_assert_eq!(tlb.resident_pages(), reference.resident());
            }
            prop_assert_eq!(tlb.misses(), misses);
        }
    }

    /// The L2 bank's own storage versus a reference least-recently-loaded
    /// model, seen through `L2Bank::resident_lines`. One CPU with a
    /// one-line dL1 makes the array's traffic exact: every new line the
    /// CPU takes evicts its previous one, the owner, into the L2 (the
    /// victim-cache fill), and a line the CPU takes from the L2 leaves it.
    #[test]
    fn l2_array_matches_reference_model(
        ops in proptest::collection::vec((0u64..96, proptest::bool::ANY), 1..300),
    ) {
        use piranha::cache::{BankEvent, L1Set, L2Bank, L2BankConfig, Slot};
        use piranha::types::{CacheKind, CpuId, RemoteSummary, ReqType};

        for (sets, ways) in [(4, 2), (3, 2), (1, 4)] {
            let cfg = L2BankConfig { size_bytes: (sets * ways * 64) as u64, ways };
            let mut bank = L2Bank::new(cfg, 0, 1);
            let mut l1s = L1Set::new(1, L1Config { size_bytes: 64, ways: 1 });
            let slot = Slot::new(CpuId(0), CacheKind::Data);
            // Sets are indexed above the 3 line bits of the bank interleave.
            let mut reference = RefAssoc::new(sets, ways, 3);
            let mut held: Option<u64> = None;
            let mut version = 0;
            for &(line_raw, store) in &ops {
                if held == Some(line_raw) {
                    continue; // an L1 hit never reaches the bank
                }
                let line = LineAddr(line_raw);
                version += 1;
                let (req, store_version) = if store {
                    (ReqType::ReadEx, Some(version))
                } else {
                    (ReqType::Read, None)
                };
                bank.handle(
                    BankEvent::Miss { slot, req, line, home_local: true, store_version },
                    &mut l1s,
                );
                if bank.is_pending(line) {
                    bank.handle(
                        BankEvent::MemData { line, version: 0, remote: RemoteSummary::None },
                        &mut l1s,
                    );
                }
                reference.remove(line_raw);
                if let Some(old) = held.replace(line_raw) {
                    reference.insert(old, |_| false);
                }
                prop_assert!(l1s.get(slot).state(line).readable());
                let want: Vec<LineAddr> = reference.resident().into_iter().map(LineAddr).collect();
                prop_assert_eq!(bank.resident_lines(), want, "{} sets x {} ways", sets, ways);
            }
        }
    }
}

/// A naive set-associative reference model: each set keeps its tags in
/// replacement order, least recent first. Touching moves a tag to the
/// back (LRU); a model that never touches is least-recently-loaded.
struct RefAssoc {
    sets: Vec<Vec<u64>>,
    ways: usize,
    shift: u32,
}

impl RefAssoc {
    fn new(sets: usize, ways: usize, shift: u32) -> Self {
        RefAssoc {
            sets: vec![Vec::new(); sets],
            ways,
            shift,
        }
    }

    fn set(&mut self, tag: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[((tag >> self.shift) % n) as usize]
    }

    fn contains(&self, tag: u64) -> bool {
        self.sets.iter().any(|s| s.contains(&tag))
    }

    fn remove(&mut self, tag: u64) -> bool {
        let set = self.set(tag);
        let before = set.len();
        set.retain(|&t| t != tag);
        set.len() != before
    }

    fn touch(&mut self, tag: u64) {
        assert!(self.remove(tag), "touch of an absent tag");
        self.set(tag).push(tag);
    }

    /// Insert `tag`; a full set evicts its least recent tag that `avoid`
    /// rejects (or its least recent tag, if `avoid` rejects them all).
    fn insert(&mut self, tag: u64, avoid: impl Fn(u64) -> bool) -> Option<u64> {
        let ways = self.ways;
        let set = self.set(tag);
        let victim = (set.len() == ways).then(|| {
            let i = set.iter().position(|&t| !avoid(t)).unwrap_or(0);
            set.remove(i)
        });
        set.push(tag);
        victim
    }

    /// Every resident tag, sorted.
    fn resident(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.sets.concat();
        all.sort_unstable();
        all
    }
}

/// Drive an L1 of geometry `cfg` and the reference model with one op
/// sequence (line `raw * stride`), asserting agreement after each op.
fn check_l1_against_reference(cfg: L1Config, stride: u64, ops: &[(u8, u64)]) {
    let mut l1 = L1Cache::new(cfg);
    let mut lru = RefAssoc::new(cfg.sets(), cfg.ways, 0);
    let mut lines: std::collections::HashMap<u64, (Mesi, u64)> = std::collections::HashMap::new();
    let mut version = 0u64;
    for &(op, raw) in ops {
        let l = raw * stride;
        let line = LineAddr(l);
        match op {
            0 => {
                // Read: hit iff the reference says present.
                let hit = lines.contains_key(&l);
                prop_assert_eq!(l1.access_read(line), hit);
                if hit {
                    lru.touch(l);
                }
            }
            1 => {
                // Fill (only if absent): the victim is exactly the
                // reference's least recently used line of the set.
                if !lines.contains_key(&l) {
                    version += 1;
                    let got = l1.fill(line, Mesi::Exclusive, version);
                    let want = lru.insert(l, |_| false).map(|v| {
                        let (state, version) = lines.remove(&v).expect("victim was resident");
                        Victim {
                            line: LineAddr(v),
                            state,
                            version,
                        }
                    });
                    prop_assert_eq!(got, want, "victim of {} in {:?}", line, cfg);
                    lines.insert(l, (Mesi::Exclusive, version));
                }
            }
            2 => {
                // Store.
                version += 1;
                let out = l1.store(line, version);
                match lines.get_mut(&l) {
                    Some((st, v)) if st.writable() => {
                        prop_assert_eq!(out, StoreOutcome::Hit);
                        *st = Mesi::Modified;
                        *v = version;
                        lru.touch(l);
                    }
                    Some(_) => prop_assert_eq!(out, StoreOutcome::NeedUpgrade),
                    None => prop_assert_eq!(out, StoreOutcome::Miss),
                }
            }
            3 => {
                // Invalidate.
                let got = l1.invalidate(line);
                prop_assert_eq!(got, lines.remove(&l));
                lru.remove(l);
            }
            4 => {
                // Downgrade (no recency change).
                let got = l1.downgrade(line);
                if let Some((st, v)) = lines.get_mut(&l) {
                    prop_assert_eq!(got, Some((st.dirty(), *v)));
                    *st = Mesi::Shared;
                } else {
                    prop_assert_eq!(got, None);
                }
            }
            _ => {
                // Upgrade a Shared copy.
                if let Some((st, v)) = lines.get_mut(&l) {
                    if *st == Mesi::Shared {
                        version += 1;
                        l1.upgrade(line, version);
                        *st = Mesi::Modified;
                        *v = version;
                        lru.touch(l);
                    }
                }
            }
        }
        // State agreement on every tracked line.
        for (&lr, &(st, v)) in &lines {
            prop_assert_eq!(l1.state(LineAddr(lr)), st);
            prop_assert_eq!(l1.version(LineAddr(lr)), Some(v));
        }
        prop_assert_eq!(l1.len(), lines.len());
        // `resident` walks the cache set by set.
        let sets = cfg.sets() as u64;
        let order: Vec<u64> = l1.resident().map(|(l, _, _)| l.0 % sets).collect();
        prop_assert!(
            order.windows(2).all(|w| w[0] <= w[1]),
            "resident() is set-major"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Randomized whole-machine runs: any synthetic workload mix on a
    /// 2-chip 2-CPU system keeps every coherence invariant.
    #[test]
    fn random_workloads_stay_coherent(
        seed in 0u64..1_000,
        store_frac in 0.05f64..0.4,
        shared_frac in 0.0f64..0.9,
        shared_kb in 4u64..512,
    ) {
        let w = Workload::Synth(SynthConfig {
            load_frac: 0.25,
            store_frac,
            shared_frac,
            shared_bytes: shared_kb << 10,
            ..SynthConfig::light()
        });
        let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
        cfg.seed = seed;
        cfg.cpu_quantum = 500;
        let mut m = Machine::new(cfg, &w);
        m.run_until_total(60_000);
        m.check_coherence();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The L2 bank state machine under random event sequences keeps its
    /// duplicate-tag directory exactly consistent with the real L1s and
    /// never violates MESI exclusivity on-chip.
    #[test]
    fn l2_bank_random_events_keep_dup_tags_exact(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..8, 0u64..24, proptest::bool::ANY),
            1..200,
        ),
    ) {
        use piranha::cache::{BankEvent, L1Set, L2Bank, L2BankConfig, L1Config, Slot};
        use piranha::types::{CacheKind, CpuId, RemoteSummary, ReqType};

        let mut bank = L2Bank::new(L2BankConfig { size_bytes: 16 * 64, ways: 2 }, 0, 1);
        let mut l1s = L1Set::new(8, L1Config { size_bytes: 4 * 64, ways: 2 });
        let mut version = 100u64;

        for (op, cpu, line_raw, flag) in ops {
            let line = LineAddr(line_raw);
            let slot = Slot::new(CpuId(cpu), CacheKind::Data);
            match op {
                0 => {
                    // A read or write miss, if this L1 does not already
                    // hold the line and it is not pending.
                    if l1s.get(slot).state(line).readable() || bank.is_pending(line) {
                        continue;
                    }
                    version += 1;
                    let (req, sv) = if flag {
                        (ReqType::ReadEx, Some(version))
                    } else {
                        (ReqType::Read, None)
                    };
                    bank.handle(
                        BankEvent::Miss { slot, req, line, home_local: true, store_version: sv },
                        &mut l1s,
                    );
                }
                1 => {
                    // Memory answers an outstanding transaction.
                    if bank.is_pending(line) {
                        bank.handle(
                            BankEvent::MemData { line, version: 1, remote: RemoteSummary::None },
                            &mut l1s,
                        );
                    }
                }
                2 => {
                    // An inter-node invalidation at any time.
                    bank.handle(BankEvent::InvalAll { line }, &mut l1s);
                }
                _ => {
                    // A home-engine export (shared or exclusive).
                    if !bank.is_pending(line) {
                        bank.handle(BankEvent::Export { line, excl: flag }, &mut l1s);
                        if bank.is_pending(line) {
                            bank.handle(
                                BankEvent::MemData { line, version: 1, remote: RemoteSummary::None },
                                &mut l1s,
                            );
                        }
                    }
                }
            }

            // Invariants after every event:
            // (1) every L1-resident line is tracked with the right state;
            for (s, l1) in l1s.iter() {
                for (l, st, _v) in l1.resident() {
                    let e = bank.dup().get(l).expect("resident line tracked by dup tags");
                    prop_assert_eq!(e.l1_state(s), st, "dup state mismatch at {}", s);
                }
            }
            // (2) dup tags never claim a copy the L1 does not have;
            for (l, e) in bank.dup().iter() {
                for h in e.holders() {
                    prop_assert!(
                        l1s.get(h).state(l).readable(),
                        "dup tags claim {} holds {} but it does not", h, l
                    );
                }
                // (3) a writable holder excludes all other copies.
                if let Some(x) = e.exclusive_holder() {
                    prop_assert_eq!(e.holder_count(), 1, "writable copy must be sole");
                    prop_assert!(!e.in_l2, "writable L1 copy excludes the L2 copy");
                    let _ = x;
                }
                // (4) the L2 array agrees with the dup tags.
                prop_assert_eq!(bank.in_array(l), e.in_l2, "array/dup disagreement for {}", l);
            }
        }
    }
}
