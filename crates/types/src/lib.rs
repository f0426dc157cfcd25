//! Shared architectural vocabulary for the Piranha CMP simulator.
//!
//! This crate defines the types that every subsystem crate agrees on:
//! physical addresses and cache-line geometry, component identifiers
//! (nodes, CPUs, L2 banks), simulated time, coherence request kinds, and
//! virtual-lane identifiers. Keeping these in a leaf crate lets the cache,
//! switch, memory, protocol-engine, and interconnect crates evolve
//! independently while speaking one language.
//!
//! # Examples
//!
//! ```
//! use piranha_types::{Addr, LineAddr, SimTime};
//!
//! let a = Addr(0x1_0047);
//! let line = a.line();
//! assert_eq!(line.base().0, 0x1_0040);
//! assert_eq!(SimTime::from_ns(80).as_ns(), 80);
//! ```

#![warn(missing_docs)]

pub mod fastmap;
pub mod ids;
pub mod time;

pub use fastmap::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use ids::{BankId, CacheKind, ChipCpuId, CpuId, NodeId};
pub use time::{Duration, SimTime};

/// Log2 of the cache-line size: Piranha uses 64-byte lines (paper §2.3).
pub const LINE_SHIFT: u32 = 6;
/// Cache-line size in bytes (64, per the paper).
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// 64-bit FNV-1a over `bytes`: the one hash behind run fingerprints,
/// state and sample digests, and result-store addresses.
///
/// ```
/// assert_eq!(piranha_types::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A byte-granularity physical address.
///
/// The simulator models a single global physical address space spanning all
/// nodes; the home node of an address is determined by the interleaving
/// policy in the system crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    ///
    /// ```
    /// # use piranha_types::Addr;
    /// assert_eq!(Addr(0x7f).line(), Addr(0x40).line());
    /// ```
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Byte offset of this address within its cache line.
    pub fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES - 1)
    }
}

impl core::fmt::Display for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line-granularity address (the byte address shifted right by
/// [`LINE_SHIFT`]).
///
/// All coherence traffic is at line granularity, so protocol messages carry
/// `LineAddr` rather than [`Addr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// Lines per OS page: 8 KB pages are the unit that interleaves home
/// memory across nodes.
pub const PAGE_LINES: u64 = 128;

impl LineAddr {
    /// The base byte address of the line.
    pub fn base(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// The L2 bank (and memory bank) that owns the line on a chip with
    /// `banks` banks: consecutive lines interleave across the banks.
    ///
    /// ```
    /// # use piranha_types::LineAddr;
    /// assert_eq!(LineAddr(11).bank(8), 3);
    /// ```
    pub fn bank(self, banks: usize) -> usize {
        (self.0 % banks as u64) as usize
    }

    /// The home node of the line in a machine of `nodes` nodes: pages of
    /// [`PAGE_LINES`] lines interleave round-robin across the nodes.
    ///
    /// ```
    /// # use piranha_types::{LineAddr, PAGE_LINES};
    /// assert_eq!(LineAddr(3 * PAGE_LINES + 5).home(2), 1);
    /// ```
    pub fn home(self, nodes: usize) -> usize {
        ((self.0 / PAGE_LINES) % nodes as u64) as usize
    }
}

impl core::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<Addr> for LineAddr {
    fn from(a: Addr) -> Self {
        a.line()
    }
}

/// The kind of access a CPU performs against its first-level caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (served by the iL1).
    IFetch,
    /// Data load (served by the dL1).
    Load,
    /// Data store (served by the dL1 via the store buffer).
    Store,
    /// Full-line store hint (Alpha `wh64`): requests exclusive ownership
    /// without fetching the line's current contents (paper §2.5.3).
    StoreFullLine,
}

impl AccessKind {
    /// Whether the access requires exclusive (writable) ownership.
    pub fn needs_exclusive(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::StoreFullLine)
    }
}

/// Coherence request types supported by the inter-node protocol
/// (paper §2.5.3): read, read-exclusive, exclusive (upgrade: the requester
/// already holds a shared copy), and exclusive-without-data (`wh64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqType {
    /// Read a shared (or clean-exclusive, if unshared) copy.
    Read,
    /// Read an exclusive copy, invalidating all sharers.
    ReadEx,
    /// Upgrade an already-held shared copy to exclusive (no data needed
    /// unless the copy was invalidated by a race).
    Upgrade,
    /// Obtain exclusive ownership without the line's current data
    /// (the requester promises to write the whole line).
    ReadExNoData,
}

impl ReqType {
    /// Whether this request, when satisfied, leaves the requester with an
    /// exclusive copy.
    pub fn is_exclusive(self) -> bool {
        !matches!(self, ReqType::Read)
    }
}

/// Virtual lanes used by the system interconnect to avoid protocol
/// deadlock (paper §2.5.3): I/O, low priority (requests to home), and high
/// priority (forwards, write-backs, and all replies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// The I/O lane.
    Io,
    /// Low-priority lane: requests sent to a home node.
    Low,
    /// High-priority lane: forwarded requests, write-backs, and replies.
    High,
}

impl Lane {
    /// All lanes, in increasing priority order.
    pub const ALL: [Lane; 3] = [Lane::Io, Lane::Low, Lane::High];
}

/// Where an L1 miss was ultimately serviced. This drives the stall-time
/// and L1-miss breakdowns of Figures 5 and 6(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillSource {
    /// Serviced by the local L2 bank (an "L2 Hit" in the paper).
    L2Hit,
    /// Forwarded to and serviced by another on-chip L1 ("L2 Fwd").
    L2Fwd,
    /// Serviced by local memory ("L2 Miss" going to local RDRAM).
    LocalMem,
    /// Serviced by a remote node's memory (clean at home).
    RemoteMem,
    /// Serviced by a remote owner's cache via 3-hop forwarding ("remote
    /// dirty").
    RemoteDirty,
}

impl FillSource {
    /// Whether the fill left the chip.
    pub fn is_remote(self) -> bool {
        matches!(self, FillSource::RemoteMem | FillSource::RemoteDirty)
    }
}

/// Summary of a line's remote caching state, as the L2 controller partially
/// interprets the directory (paper §2.3): enough to decide whether a local
/// request can complete on-chip, without the full sharer set (which only
/// the protocol engines manipulate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RemoteSummary {
    /// No remote node caches the line.
    #[default]
    None,
    /// One or more remote nodes hold shared copies.
    Shared,
    /// A remote node holds the line exclusively (memory may be stale).
    Exclusive,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_geometry_round_trips() {
        let a = Addr(0x1234_5678);
        let l = a.line();
        assert_eq!(l.base().0, a.0 & !(LINE_BYTES - 1));
        assert_eq!(a.line_offset(), a.0 % LINE_BYTES);
        assert_eq!(LineAddr::from(a), l);
    }

    #[test]
    fn same_line_for_all_offsets() {
        let base = Addr(0xabc0_0000);
        for off in 0..LINE_BYTES {
            assert_eq!(Addr(base.0 + off).line(), base.line());
        }
        assert_ne!(Addr(base.0 + LINE_BYTES).line(), base.line());
    }

    #[test]
    fn access_kind_exclusivity() {
        assert!(!AccessKind::IFetch.needs_exclusive());
        assert!(!AccessKind::Load.needs_exclusive());
        assert!(AccessKind::Store.needs_exclusive());
        assert!(AccessKind::StoreFullLine.needs_exclusive());
    }

    #[test]
    fn req_type_exclusivity() {
        assert!(!ReqType::Read.is_exclusive());
        assert!(ReqType::ReadEx.is_exclusive());
        assert!(ReqType::Upgrade.is_exclusive());
        assert!(ReqType::ReadExNoData.is_exclusive());
    }

    #[test]
    fn lane_priority_order() {
        assert!(Lane::Io < Lane::Low);
        assert!(Lane::Low < Lane::High);
        assert_eq!(Lane::ALL.len(), 3);
    }

    #[test]
    fn fill_source_remoteness() {
        assert!(!FillSource::L2Hit.is_remote());
        assert!(!FillSource::L2Fwd.is_remote());
        assert!(!FillSource::LocalMem.is_remote());
        assert!(FillSource::RemoteMem.is_remote());
        assert!(FillSource::RemoteDirty.is_remote());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr(0x40).to_string(), "0x40");
        assert_eq!(LineAddr(0x2).to_string(), "L0x2");
    }
}
