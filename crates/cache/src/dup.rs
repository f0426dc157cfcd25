//! Duplicate L1 tag/state directory kept at each L2 controller.
//!
//! "To simplify intra-chip coherence and avoid the use of snooping at L1
//! caches, we keep a duplicate copy of the L1 tags and state at the L2
//! controllers" (paper §2.3), extended "to include the notion of
//! ownership": the owner of a line is the L2 (when it has a valid copy),
//! an L1 in the exclusive state, or one of the L1s (typically the last
//! requester) when there are multiple sharers. Ownership decides which L1
//! victim write-backs must carry data.
//!
//! This module models the duplicate tags, the L2's own tag/state for the
//! line, and the *partial directory interpretation* the paper describes —
//! whether a line is cached by remote nodes ([`ExtState`]) — as one
//! consolidated per-line record, which is behaviourally equivalent to the
//! separate hardware structures and much easier to audit.

use std::collections::hash_map::Entry;

use piranha_types::{CacheKind, CpuId, FastMap, LineAddr};

use crate::mesi::Mesi;

/// Maximum L1 caches per chip: 8 CPUs × (iL1 + dL1), the width of a
/// [`Slots`] mask.
pub const MAX_SLOTS: usize = u16::BITS as usize;

/// Identifies one L1 cache on the chip: `cpu * 2 + kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u8);

impl Slot {
    /// The slot for a given CPU's cache of the given kind.
    pub fn new(cpu: CpuId, kind: CacheKind) -> Self {
        Slot(cpu.0 * 2 + kind.index() as u8)
    }

    /// The CPU this slot belongs to.
    pub fn cpu(self) -> CpuId {
        CpuId(self.0 / 2)
    }

    /// Which of the CPU's two L1s this is.
    pub fn kind(self) -> CacheKind {
        if self.0.is_multiple_of(2) {
            CacheKind::Instruction
        } else {
            CacheKind::Data
        }
    }

    /// Index into per-slot arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// This slot's bit in a [`Slots`] mask.
    fn bit(self) -> u16 {
        1 << self.0
    }
}

impl core::fmt::Display for Slot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.cpu(), self.kind())
    }
}

/// The node-level external state of a cached line — the "partial
/// interpretation of the directory information" (paper §2.3) that lets
/// the L2 controller avoid the protocol engines for most local requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtState {
    /// Home is this node and no remote node caches the line.
    HomeOnly,
    /// Home is this node and at least one remote node holds a shared copy
    /// (a local exclusive request must invalidate them via the home
    /// engine).
    HomeRemoteShared,
    /// Home is a remote node; this node holds only shared rights (a local
    /// exclusive request must upgrade through the home).
    HeldShared,
    /// Home is a remote node; this node holds exclusive ownership and may
    /// serve any local request on-chip.
    HeldExclusive,
}

impl ExtState {
    /// Whether a local exclusive request can be satisfied without any
    /// inter-node transaction *given the line is on-chip*.
    pub fn exclusive_ok_on_chip(self) -> bool {
        matches!(self, ExtState::HomeOnly | ExtState::HeldExclusive)
    }

    /// Whether this node is the line's home.
    pub fn home_local(self) -> bool {
        matches!(self, ExtState::HomeOnly | ExtState::HomeRemoteShared)
    }
}

/// Who owns an on-chip line (and therefore whose eviction carries data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// The L2 bank holds the valid (authoritative on-chip) copy.
    L2,
    /// The given L1 is the owner.
    L1(Slot),
}

/// A set of L1 slots as a bit mask (bit `i` is `Slot(i)`), iterated in
/// ascending slot order. It is a copy, so iterating one taken from a
/// [`DupEntry`] borrows nothing and the entry may change meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots(u16);

impl Slots {
    /// The lowest slot in the set, if any.
    pub fn first(self) -> Option<Slot> {
        (self.0 != 0).then(|| Slot(self.0.trailing_zeros() as u8))
    }
}

impl Iterator for Slots {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        let s = self.first()?;
        self.0 &= self.0 - 1;
        Some(s)
    }
}

/// Consolidated per-line on-chip state at the owning L2 controller.
///
/// The duplicate L1 tags are three slot masks, one per MESI predicate,
/// so "who holds it", "who may write it" and "how many copies" are
/// single word operations.
#[derive(Debug, Clone)]
pub struct DupEntry {
    /// Slots holding a copy in any readable state.
    present: u16,
    /// Slots holding it Exclusive or Modified.
    writable: u16,
    /// Slots holding it Modified.
    modified: u16,
    /// Current owner.
    pub owner: Owner,
    /// External (inter-node) state.
    pub ext: ExtState,
    /// Whether the L2 bank itself holds a valid copy.
    pub in_l2: bool,
    /// Whether the L2 copy is dirty with respect to memory.
    pub l2_dirty: bool,
    /// Data version of the L2 copy (meaningful when `in_l2`).
    pub l2_version: u64,
    /// Whether the node's data differs from memory/home even though no
    /// copy is in Modified state — set when a dirty owner is downgraded
    /// by a read forward, so that the *owner's* later eviction still
    /// writes back (the paper's "even clean lines ... may cause a
    /// write-back").
    pub node_dirty: bool,
}

impl DupEntry {
    fn new(ext: ExtState) -> Self {
        DupEntry {
            present: 0,
            writable: 0,
            modified: 0,
            owner: Owner::L2,
            ext,
            in_l2: false,
            l2_dirty: false,
            l2_version: 0,
            node_dirty: false,
        }
    }

    /// The recorded L1 state for `slot`.
    pub fn l1_state(&self, slot: Slot) -> Mesi {
        let bit = slot.bit();
        if self.modified & bit != 0 {
            Mesi::Modified
        } else if self.writable & bit != 0 {
            Mesi::Exclusive
        } else if self.present & bit != 0 {
            Mesi::Shared
        } else {
            Mesi::Invalid
        }
    }

    /// Record `state` as `slot`'s L1 state.
    fn set_l1_state(&mut self, slot: Slot, state: Mesi) {
        let bit = slot.bit();
        let put = |mask: &mut u16, on: bool| {
            if on {
                *mask |= bit;
            } else {
                *mask &= !bit;
            }
        };
        put(&mut self.present, state.readable());
        put(&mut self.writable, state.writable());
        put(&mut self.modified, state.dirty());
    }

    /// Slots currently holding any copy.
    pub fn holders(&self) -> Slots {
        Slots(self.present)
    }

    /// The slot holding the line in E or M, if any.
    pub fn exclusive_holder(&self) -> Option<Slot> {
        Slots(self.writable).first()
    }

    /// Number of L1 copies.
    pub fn holder_count(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Whether any copy (L1 or L2) exists on-chip.
    pub fn any_copy(&self) -> bool {
        self.in_l2 || self.present != 0
    }

    /// The version held by the current owner.
    ///
    /// # Panics
    ///
    /// Panics if the owner is an L1 — L1 versions live in the real L1
    /// arrays; callers must fetch them there. Only valid for L2 owner.
    pub fn l2_owner_version(&self) -> u64 {
        assert_eq!(
            self.owner,
            Owner::L2,
            "owner is an L1; read its version from the L1"
        );
        self.l2_version
    }
}

/// The duplicate-tag directory for one L2 bank: exact per-line knowledge
/// of "the on-chip cached copies for the subset of lines that map to it"
/// (paper §2.3).
#[derive(Debug, Default)]
pub struct DupTags {
    lines: FastMap<LineAddr, DupEntry>,
}

impl DupTags {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a line.
    pub fn get(&self, line: LineAddr) -> Option<&DupEntry> {
        self.lines.get(&line)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut DupEntry> {
        self.lines.get_mut(&line)
    }

    /// Record that `slot` now holds `line` in `state`, creating the entry
    /// (with external state `ext`) if this is the first on-chip copy.
    pub fn set_l1(&mut self, line: LineAddr, slot: Slot, state: Mesi, ext: ExtState) {
        let e = self.lines.entry(line).or_insert_with(|| {
            let mut e = DupEntry::new(ext);
            e.owner = Owner::L1(slot);
            e
        });
        e.set_l1_state(slot, state);
        if state.writable() {
            e.owner = Owner::L1(slot);
        }
    }

    /// Record that `slot` no longer holds `line`. Ownership falls back to
    /// the L2 copy if valid, else to any remaining sharer; the entry is
    /// removed when the last on-chip copy disappears. Returns the updated
    /// entry if it still exists. One map probe.
    pub fn clear_l1(&mut self, line: LineAddr, slot: Slot) -> Option<&DupEntry> {
        let Entry::Occupied(mut o) = self.lines.entry(line) else {
            return None;
        };
        let e = o.get_mut();
        e.set_l1_state(slot, Mesi::Invalid);
        if e.owner == Owner::L1(slot) {
            if e.in_l2 {
                e.owner = Owner::L2;
            } else if let Some(s) = e.holders().first() {
                e.owner = Owner::L1(s);
            }
        }
        if !e.any_copy() {
            o.remove();
            return None;
        }
        Some(o.into_mut())
    }

    /// Record that the L2 now holds a valid copy and becomes owner.
    pub fn set_l2(&mut self, line: LineAddr, dirty: bool, version: u64, ext: ExtState) {
        let e = self.lines.entry(line).or_insert_with(|| DupEntry::new(ext));
        e.in_l2 = true;
        e.l2_dirty = dirty;
        e.l2_version = version;
        e.owner = Owner::L2;
    }

    /// Record that the L2 copy is gone (eviction or exclusive grant to an
    /// L1). Ownership passes to `new_owner` if given, else to any
    /// remaining L1 sharer. Returns whether the entry still exists.
    pub fn clear_l2(&mut self, line: LineAddr, new_owner: Option<Slot>) -> bool {
        let Some(e) = self.lines.get_mut(&line) else {
            return false;
        };
        e.in_l2 = false;
        e.l2_dirty = false;
        if e.owner == Owner::L2 {
            if let Some(s) = new_owner.or_else(|| e.holders().first()) {
                e.owner = Owner::L1(s);
            }
        }
        if !e.any_copy() {
            self.lines.remove(&line);
            return false;
        }
        true
    }

    /// Remove a line entirely (all copies invalidated). Returns the entry.
    pub fn remove(&mut self, line: LineAddr) -> Option<DupEntry> {
        self.lines.remove(&line)
    }

    /// Number of tracked lines (for tests and stats).
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no lines are tracked.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// All tracked lines (for invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DupEntry)> {
        self.lines.iter().map(|(l, e)| (*l, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(100);

    fn islot(cpu: u8) -> Slot {
        Slot::new(CpuId(cpu), CacheKind::Instruction)
    }
    fn dslot(cpu: u8) -> Slot {
        Slot::new(CpuId(cpu), CacheKind::Data)
    }

    #[test]
    fn slot_round_trip() {
        for cpu in 0..8 {
            for kind in CacheKind::BOTH {
                let s = Slot::new(CpuId(cpu), kind);
                assert_eq!(s.cpu(), CpuId(cpu));
                assert_eq!(s.kind(), kind);
                assert!(s.index() < MAX_SLOTS);
            }
        }
        assert_eq!(dslot(3).to_string(), "cpu3/dL1");
    }

    #[test]
    fn first_l1_copy_becomes_owner() {
        let mut d = DupTags::new();
        d.set_l1(L, dslot(0), Mesi::Exclusive, ExtState::HomeOnly);
        let e = d.get(L).unwrap();
        assert_eq!(e.owner, Owner::L1(dslot(0)));
        assert_eq!(e.exclusive_holder(), Some(dslot(0)));
        assert_eq!(e.holder_count(), 1);
        assert!(!e.in_l2);
    }

    #[test]
    fn ownership_falls_back_on_clear() {
        let mut d = DupTags::new();
        d.set_l1(L, dslot(0), Mesi::Shared, ExtState::HomeOnly);
        d.set_l1(L, dslot(1), Mesi::Shared, ExtState::HomeOnly);
        // Owner is the first sharer; clearing it falls back to the other.
        assert_eq!(d.get(L).unwrap().owner, Owner::L1(dslot(0)));
        let e = d.clear_l1(L, dslot(0)).unwrap();
        assert_eq!(e.owner, Owner::L1(dslot(1)));
        // Last copy gone: entry removed.
        assert!(d.clear_l1(L, dslot(1)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn l2_copy_takes_ownership_and_releases_it() {
        let mut d = DupTags::new();
        d.set_l1(L, dslot(2), Mesi::Shared, ExtState::HomeOnly);
        d.set_l2(L, true, 7, ExtState::HomeOnly);
        let e = d.get(L).unwrap();
        assert_eq!(e.owner, Owner::L2);
        assert!(e.in_l2 && e.l2_dirty);
        assert_eq!(e.l2_owner_version(), 7);
        // Granting the line exclusively to an L1 clears the L2 copy.
        assert!(d.clear_l2(L, Some(dslot(2))));
        assert_eq!(d.get(L).unwrap().owner, Owner::L1(dslot(2)));
    }

    #[test]
    fn clear_l2_with_no_l1s_removes_entry() {
        let mut d = DupTags::new();
        d.set_l2(L, false, 0, ExtState::HeldShared);
        assert!(!d.clear_l2(L, None));
        assert!(d.get(L).is_none());
    }

    #[test]
    fn writable_l1_state_takes_ownership() {
        let mut d = DupTags::new();
        d.set_l2(L, false, 1, ExtState::HomeOnly);
        d.set_l1(L, islot(4), Mesi::Shared, ExtState::HomeOnly);
        assert_eq!(d.get(L).unwrap().owner, Owner::L2);
        d.set_l1(L, dslot(4), Mesi::Modified, ExtState::HomeOnly);
        assert_eq!(d.get(L).unwrap().owner, Owner::L1(dslot(4)));
    }

    #[test]
    fn holders_enumerates_copies() {
        let mut d = DupTags::new();
        d.set_l1(L, islot(0), Mesi::Shared, ExtState::HomeOnly);
        d.set_l1(L, islot(5), Mesi::Shared, ExtState::HomeOnly);
        let h: Vec<Slot> = d.get(L).unwrap().holders().collect();
        assert_eq!(h, vec![islot(0), islot(5)]);
    }

    #[test]
    fn ext_state_predicates() {
        assert!(ExtState::HomeOnly.exclusive_ok_on_chip());
        assert!(ExtState::HeldExclusive.exclusive_ok_on_chip());
        assert!(!ExtState::HomeRemoteShared.exclusive_ok_on_chip());
        assert!(!ExtState::HeldShared.exclusive_ok_on_chip());
        assert!(ExtState::HomeOnly.home_local());
        assert!(ExtState::HomeRemoteShared.home_local());
        assert!(!ExtState::HeldShared.home_local());
        assert!(!ExtState::HeldExclusive.home_local());
    }

    #[test]
    fn remove_returns_entry() {
        let mut d = DupTags::new();
        d.set_l1(L, dslot(1), Mesi::Modified, ExtState::HeldExclusive);
        let e = d.remove(L).unwrap();
        assert_eq!(e.ext, ExtState::HeldExclusive);
        assert!(d.remove(L).is_none());
    }

    #[test]
    fn iter_and_len() {
        let mut d = DupTags::new();
        d.set_l1(LineAddr(1), dslot(0), Mesi::Shared, ExtState::HomeOnly);
        d.set_l1(LineAddr(2), dslot(0), Mesi::Shared, ExtState::HomeOnly);
        assert_eq!(d.len(), 2);
        assert_eq!(d.iter().count(), 2);
    }
}
