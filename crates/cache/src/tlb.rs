//! Translation lookaside buffers (paper §2.1: "the L1 cache modules
//! include tag compare logic, instruction and data TLBs (256 entries,
//! 4-way associative), and a store buffer").
//!
//! The simulator's addresses are physical, so the TLB models *reach*
//! rather than translation: accesses outside the currently-mapped pages
//! charge a miss penalty (a PALcode-style software fill on Alpha). This
//! matters for OLTP, whose multi-megabyte footprints exceed the 2 MB
//! reach of 256 × 8 KB entries.

use piranha_types::Addr;

use crate::assoc::SetAssoc;

/// TLB geometry and fill cost.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Total entries (256 in the paper).
    pub entries: usize,
    /// Associativity (4-way in the paper).
    pub ways: usize,
    /// Page size in bytes (8 KB, the Alpha base page).
    pub page_bytes: u64,
    /// Cycles charged for a miss (software PTE fill).
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// The paper's TLB: 256 entries, 4-way, 8 KB pages.
    pub fn paper_default() -> Self {
        TlbConfig {
            entries: 256,
            ways: 4,
            page_bytes: 8192,
            miss_penalty: 20,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A set-associative TLB with LRU replacement.
///
/// # Examples
///
/// ```
/// use piranha_cache::{Tlb, TlbConfig};
/// use piranha_types::Addr;
///
/// let mut tlb = Tlb::new(TlbConfig::paper_default());
/// assert!(!tlb.access(Addr(0x4000)), "cold miss");
/// assert!(tlb.access(Addr(0x5FFF)), "same 8 KB page hits");
/// ```
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Mapped page numbers, LRU by touching on every hit.
    pages: SetAssoc<()>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// An empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not tile into sets.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways),
            "TLB geometry must tile"
        );
        Tlb {
            cfg,
            pages: SetAssoc::new(cfg.entries / cfg.ways, cfg.ways, 0),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up (and on miss, fill) the mapping for `addr`; returns
    /// whether it hit.
    pub fn access(&mut self, addr: Addr) -> bool {
        let page = addr.0 / self.cfg.page_bytes;
        if let Some(i) = self.pages.find(page) {
            self.pages.touch(i);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.pages.insert(page, (), |_| false);
        false
    }

    /// The currently-mapped page numbers, sorted — the TLB's occupancy
    /// irrespective of recency stamps, for warming-fidelity checks.
    pub fn resident_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.pages.iter().map(|w| w.tag).collect();
        pages.sort_unstable();
        pages
    }

    /// Miss penalty in CPU cycles.
    pub fn miss_penalty(&self) -> u64 {
        self.cfg.miss_penalty
    }

    /// Hit rate so far (1.0 if untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Mapping reach in bytes (entries × page size).
    pub fn reach_bytes(&self) -> u64 {
        self.cfg.entries as u64 * self.cfg.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reach_is_2mb() {
        let t = Tlb::new(TlbConfig::paper_default());
        assert_eq!(t.reach_bytes(), 2 << 20);
    }

    #[test]
    fn hit_within_page_miss_across() {
        let mut t = Tlb::new(TlbConfig::paper_default());
        assert!(!t.access(Addr(0)));
        assert!(t.access(Addr(8191)));
        assert!(!t.access(Addr(8192)));
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn working_set_within_reach_stays_resident() {
        let mut t = Tlb::new(TlbConfig::paper_default());
        // 128 pages (1 MB) — half the reach.
        for round in 0..4 {
            for p in 0..128u64 {
                let hit = t.access(Addr(p * 8192));
                if round > 0 {
                    assert!(hit, "page {p} should stay mapped");
                }
            }
        }
        assert!(t.hit_rate() > 0.7);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut t = Tlb::new(TlbConfig::paper_default());
        // 1024 pages (8 MB) cycled: 4x the reach, LRU-hostile.
        for _ in 0..3 {
            for p in 0..1024u64 {
                t.access(Addr(p * 8192));
            }
        }
        assert!(
            t.hit_rate() < 0.1,
            "cyclic over-reach thrashes: {}",
            t.hit_rate()
        );
    }

    #[test]
    fn lru_within_set() {
        // 2 entries, 2 ways: one set.
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            ways: 2,
            page_bytes: 8192,
            miss_penalty: 20,
        });
        t.access(Addr(0));
        t.access(Addr(8192));
        t.access(Addr(0)); // refresh page 0
        t.access(Addr(16384)); // evicts page 1 (LRU)
        assert!(t.access(Addr(0)));
        assert!(!t.access(Addr(8192)));
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn bad_geometry_panics() {
        Tlb::new(TlbConfig {
            entries: 10,
            ways: 4,
            page_bytes: 8192,
            miss_penalty: 1,
        });
    }
}
