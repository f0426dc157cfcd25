//! One memory bank: the RDRAM channel plus the authoritative data
//! (version) and directory stores for the lines homed at this bank.
//!
//! The paper's memory controller has no direct ICS access — "access to
//! memory is controlled by and routed through the corresponding L2
//! controller" at cache-line granularity, for both data and directory —
//! so this type exposes exactly two timed operations, a line access (a
//! read's start) and a line write. The directory bits live in the same
//! ECC words, so reading them costs nothing extra: a read's version and
//! directory are taken untimed at its data-return instant.
//!
//! The directory store holds what the hardware holds: one 44-bit word
//! per line ([`DirEntry::encode`]), kept in a `u64`. An entry the word
//! cannot give back exactly ([`DirEntry::exact_word`] is `None`) is
//! stored whole in a small side map, and its word is the marker
//! `SPILLED`, a bit above the 44. So [`MemBank::directory`] returns
//! exactly the entry last set, at 16 bytes a line for all but the
//! spilled lines. A line set to `Uncached` keeps its (zero) word, so
//! [`MemBank::directory_lines`] lists every line whose directory was
//! ever set.

use piranha_types::ids::MAX_NODES;
use piranha_types::{FastMap, LineAddr, SimTime};

use crate::directory::{DirEntry, DIR_BITS};
use crate::rdram::{MemAccess, Rdram, RdramConfig};

/// A memory bank: timing channel + version store + directory store.
///
/// Line "data" is modelled as a monotonically increasing version stamped
/// by each writer (see the `piranha-cache` crate docs); unwritten memory
/// reads as version 0.
///
/// # Examples
///
/// ```
/// use piranha_mem::{MemBank, RdramConfig};
/// use piranha_types::{LineAddr, SimTime};
///
/// let mut bank = MemBank::new(RdramConfig::default());
/// let acc = bank.access(SimTime::ZERO, LineAddr(4));
/// assert_eq!(acc.critical.as_ns(), 60);
/// assert_eq!(bank.version(LineAddr(4)), 0);
/// assert_eq!(bank.directory(LineAddr(4)), piranha_mem::DirEntry::Uncached);
/// ```
#[derive(Debug)]
pub struct MemBank {
    rdram: Rdram,
    versions: FastMap<LineAddr, u64>,
    /// Each line's directory word, or [`SPILLED`].
    directory: FastMap<LineAddr, u64>,
    /// The exact entry of each line whose word is [`SPILLED`].
    spilled: FastMap<LineAddr, DirEntry>,
}

/// The directory word of a line whose exact entry is in
/// `MemBank::spilled`: a bit no [`DirEntry::encode`] word sets.
const SPILLED: u64 = 1 << 63;
const _: () = assert!(
    SPILLED.trailing_zeros() >= DIR_BITS,
    "the marker lies above the 44 bits"
);
const _: () = assert!(
    core::mem::size_of::<(LineAddr, u64)>() == 16,
    "a line's directory is one u64 beside its key"
);

impl MemBank {
    /// A new bank on an RDRAM channel with parameters `rdram`, all
    /// lines at version 0 and uncached directories.
    pub fn new(rdram: RdramConfig) -> Self {
        MemBank {
            rdram: Rdram::new(rdram),
            versions: FastMap::default(),
            directory: FastMap::default(),
            spilled: FastMap::default(),
        }
    }

    /// Charge one line access for timing only (the caller reads the
    /// version/directory later, at the access's completion time, so that
    /// intervening writes are observed).
    pub fn access(&mut self, now: SimTime, line: LineAddr) -> MemAccess {
        self.rdram.access(now, line)
    }

    /// Write a line's data (a write-back); directory bits are unchanged.
    pub fn write(&mut self, now: SimTime, line: LineAddr, version: u64) -> MemAccess {
        let acc = self.rdram.access(now, line);
        self.versions.insert(line, version);
        acc
    }

    /// Every line with a non-default version, sorted — the bank's data
    /// state for warming-fidelity checks.
    pub fn written_lines(&self) -> Vec<(LineAddr, u64)> {
        let mut rows: Vec<(LineAddr, u64)> = self.versions.iter().map(|(l, v)| (*l, *v)).collect();
        rows.sort_unstable();
        rows
    }

    /// Every line with a directory entry, sorted, with the entry in its
    /// ECC-word encoding — the directory's occupancy for
    /// warming-fidelity checks.
    pub fn directory_lines(&self) -> Vec<(LineAddr, u64)> {
        let mut rows: Vec<(LineAddr, u64)> = self
            .directory
            .iter()
            .map(|(l, &word)| match word {
                SPILLED => (*l, self.spilled[l].encode()),
                _ => (*l, word),
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Peek the directory without timing (for protocol-engine state
    /// machines whose timing is charged separately by the simulator).
    pub fn directory(&self, line: LineAddr) -> DirEntry {
        match self.directory.get(&line) {
            None => DirEntry::Uncached,
            Some(&SPILLED) => self.spilled[&line].clone(),
            Some(&word) => DirEntry::decode(word, MAX_NODES),
        }
    }

    /// Peek a version without timing (for invariant checks in tests).
    pub fn version(&self, line: LineAddr) -> u64 {
        self.versions.get(&line).copied().unwrap_or(0)
    }

    /// Set the directory without timing (protocol-engine updates; the
    /// engine charges its own memory access).
    pub fn set_directory(&mut self, line: LineAddr, dir: DirEntry) {
        match dir.exact_word() {
            Some(word) => {
                if self.directory.insert(line, word) == Some(SPILLED) {
                    self.spilled.remove(&line);
                }
            }
            None => {
                self.directory.insert(line, SPILLED);
                self.spilled.insert(line, dir);
            }
        }
    }

    /// Set a version without timing (used by workload setup).
    pub fn set_version(&mut self, line: LineAddr, version: u64) {
        self.versions.insert(line, version);
    }

    /// The underlying RDRAM channel (for page-hit statistics).
    pub fn rdram(&self) -> &Rdram {
        &self.rdram
    }

    /// Fault-injection entry point: flip the given bit positions of the
    /// line's SEC-DED codeword and scrub it. A corrected (or clean)
    /// result re-installs the decoded data — bit-identical to the
    /// original, which is the point of SEC-DED; an uncorrectable result
    /// leaves the store untouched and the caller escalates (mirroring
    /// failover). No timing is charged here: the caller models the
    /// scrub/failover latency.
    pub fn inject_and_scrub(&mut self, line: LineAddr, bits: &[u32]) -> crate::ecc::Scrub {
        let stored = self.version(line);
        let mut cw = crate::ecc::encode(stored);
        for &b in bits {
            cw ^= 1u128 << (b % crate::ecc::CODEWORD_BITS);
        }
        let outcome = crate::ecc::scrub(cw);
        match outcome {
            crate::ecc::Scrub::Clean(d) | crate::ecc::Scrub::Corrected(d) => {
                debug_assert_eq!(d, stored, "SEC-DED recovered the exact word");
                self.versions.insert(line, d);
            }
            crate::ecc::Scrub::Uncorrectable => {}
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::NodeSet;
    use piranha_types::ids::NodeId;

    #[test]
    fn versions_persist_across_read_write() {
        let mut b = MemBank::new(RdramConfig::default());
        b.access(SimTime::ZERO, LineAddr(1));
        assert_eq!(b.version(LineAddr(1)), 0, "unwritten memory reads 0");
        b.write(SimTime::from_ns(200), LineAddr(1), 42);
        b.access(SimTime::from_ns(400), LineAddr(1));
        assert_eq!(b.version(LineAddr(1)), 42);
    }

    #[test]
    fn directory_travels_with_data() {
        let mut b = MemBank::new(RdramConfig::default());
        let sharers: NodeSet = [NodeId(3)].into_iter().collect();
        b.set_directory(LineAddr(7), DirEntry::Shared(sharers.clone()));
        b.access(SimTime::ZERO, LineAddr(7));
        assert_eq!(b.directory(LineAddr(7)), DirEntry::Shared(sharers));
        // Data write-backs leave the directory alone.
        b.write(SimTime::from_ns(100), LineAddr(7), 5);
        assert_ne!(b.directory(LineAddr(7)), DirEntry::Uncached);
    }

    #[test]
    fn combined_write_sets_both() {
        // A write-back and a directory update of one line: each lands
        // without disturbing the other.
        let mut b = MemBank::new(RdramConfig::default());
        b.set_directory(LineAddr(9), DirEntry::Exclusive(NodeId(2)));
        b.write(SimTime::ZERO, LineAddr(9), 11);
        assert_eq!(b.version(LineAddr(9)), 11);
        assert_eq!(b.directory(LineAddr(9)), DirEntry::Exclusive(NodeId(2)));
        assert_eq!(
            b.directory_lines(),
            vec![(LineAddr(9), DirEntry::Exclusive(NodeId(2)).encode())]
        );
        assert_eq!(b.written_lines(), vec![(LineAddr(9), 11)]);
    }

    #[test]
    fn entries_the_word_cannot_hold_read_back_exactly() {
        let mut b = MemBank::new(RdramConfig::default());
        let coarse: NodeSet = (1..=6).map(NodeId).collect();
        let wide: NodeSet = [NodeId(2), NodeId(4000)].into_iter().collect();
        for (line, e) in [
            (1, DirEntry::Shared(NodeSet::new())),
            (2, DirEntry::Shared(coarse)),
            (3, DirEntry::Exclusive(NodeId(1024))),
            (4, DirEntry::Shared(wide)),
        ] {
            b.set_directory(LineAddr(line), e.clone());
            assert_eq!(b.directory(LineAddr(line)), e);
        }
        assert_eq!(b.spilled.len(), 4);
        // Overwriting with an entry the word holds drops the side copy.
        b.set_directory(LineAddr(3), DirEntry::Uncached);
        b.set_directory(LineAddr(4), DirEntry::Exclusive(NodeId(9)));
        assert_eq!(b.spilled.len(), 2);
        assert_eq!(b.directory(LineAddr(3)), DirEntry::Uncached);
        assert_eq!(b.directory(LineAddr(4)), DirEntry::Exclusive(NodeId(9)));
        // Rows are the ECC words, the reset line included.
        let rows: Vec<u64> = b.directory_lines().iter().map(|r| r.1).collect();
        assert_eq!(rows[..3], [0, b.directory(LineAddr(2)).encode(), 0]);
        assert_eq!(rows[3], DirEntry::Exclusive(NodeId(9)).encode());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_of_an_id_past_the_encoding_panic_like_encode() {
        let mut b = MemBank::new(RdramConfig::default());
        b.set_directory(LineAddr(1), DirEntry::Exclusive(NodeId(1024)));
        b.directory_lines();
    }

    #[test]
    fn inject_and_scrub_round_trips() {
        let mut b = MemBank::new(RdramConfig::default());
        b.set_version(LineAddr(3), 77);
        // Single-bit flip: corrected, data intact.
        assert_eq!(
            b.inject_and_scrub(LineAddr(3), &[17]),
            crate::ecc::Scrub::Corrected(77)
        );
        assert_eq!(b.version(LineAddr(3)), 77);
        // Double-bit flip: uncorrectable, store untouched (caller
        // escalates to a mirror restore).
        assert_eq!(
            b.inject_and_scrub(LineAddr(3), &[5, 40]),
            crate::ecc::Scrub::Uncorrectable
        );
        assert_eq!(b.version(LineAddr(3)), 77);
        // No flips at all: clean.
        assert_eq!(
            b.inject_and_scrub(LineAddr(3), &[]),
            crate::ecc::Scrub::Clean(77)
        );
    }

    #[test]
    fn timing_flows_through_rdram() {
        let mut b = MemBank::new(RdramConfig::default());
        let a1 = b.access(SimTime::ZERO, LineAddr(0));
        assert!(!a1.page_hit);
        let a2 = b.write(a1.full, LineAddr(1), 3);
        assert!(a2.page_hit, "a write to the same page hits open");
        assert_eq!(b.rdram().accesses(), 2);
    }
}
