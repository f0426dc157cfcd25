//! Reliability/Availability/Serviceability hooks (paper §2.7).
//!
//! "These RAS features can be implemented by changing the semantics of
//! memory accesses through the flexibility available in the programmable
//! protocol engines." The paper names three examples — *persistent
//! memory regions*, *memory mirroring*, and *dual-redundant execution* —
//! and notes that persistence needs "mechanisms to force volatile
//! (cached) state to safe memory, as well as mechanisms to control
//! access to persistent regions ... by making the protocol engines
//! intervene in accesses to persistent areas and perform capability
//! checks or persistent memory barriers".
//!
//! [`RasPolicy`] is that intervention point: the home engine consults it
//! on every memory write it performs, and the chip can issue
//! [`RasPolicy::persist_barrier`] to force lines home. Mirroring
//! duplicates home writes into a mirror log; capability checks gate
//! persistent regions.

use std::collections::{BTreeMap, HashMap};

use piranha_types::{LineAddr, NodeId};

/// A half-open line range `[start, end)` with RAS semantics attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRange {
    /// First line.
    pub start: LineAddr,
    /// One past the last line.
    pub end: LineAddr,
}

impl LineRange {
    /// Whether `line` falls in the range.
    pub fn contains(&self, line: LineAddr) -> bool {
        (self.start.0..self.end.0).contains(&line.0)
    }

    /// Number of lines covered.
    pub fn lines(&self) -> u64 {
        self.end.0.saturating_sub(self.start.0)
    }
}

/// A write capability for a persistent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability(pub u64);

/// What the policy says about a memory write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Plain volatile memory: proceed.
    Allow,
    /// Persistent region, capability valid: proceed and journal.
    AllowPersistent,
    /// Persistent region, no/invalid capability: the engine must raise a
    /// protection fault instead of writing.
    Deny,
}

/// The per-node RAS policy the protocol engines consult.
///
/// # Examples
///
/// ```
/// use piranha_protocol::ras::{Capability, LineRange, RasPolicy, WriteVerdict};
/// use piranha_types::{LineAddr, NodeId};
///
/// let mut ras = RasPolicy::new(NodeId(0));
/// let region = LineRange { start: LineAddr(100), end: LineAddr(200) };
/// let cap = ras.register_persistent(region);
/// assert_eq!(ras.check_write(LineAddr(150), None), WriteVerdict::Deny);
/// assert_eq!(ras.check_write(LineAddr(150), Some(cap)), WriteVerdict::AllowPersistent);
/// assert_eq!(ras.check_write(LineAddr(50), None), WriteVerdict::Allow);
/// ```
#[derive(Debug)]
pub struct RasPolicy {
    node: NodeId,
    persistent: Vec<(LineRange, Capability)>,
    mirrored: Vec<LineRange>,
    next_cap: u64,
    /// Journal of persistent writes: line → last persisted version
    /// (survives "power failure" — i.e., is kept outside the cache
    /// model and never invalidated).
    journal: BTreeMap<LineAddr, u64>,
    /// Mirror copies of mirrored-region writes.
    mirror: HashMap<LineAddr, u64>,
    faults: u64,
}

impl RasPolicy {
    /// A policy with no special regions (every write is plain volatile).
    pub fn new(node: NodeId) -> Self {
        RasPolicy {
            node,
            persistent: Vec::new(),
            mirrored: Vec::new(),
            next_cap: 1,
            journal: BTreeMap::new(),
            mirror: HashMap::new(),
            faults: 0,
        }
    }

    /// The node this policy belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Register a persistent region; returns the capability writers must
    /// present.
    pub fn register_persistent(&mut self, range: LineRange) -> Capability {
        let cap = Capability(self.next_cap);
        self.next_cap += 1;
        self.persistent.push((range, cap));
        cap
    }

    /// Register a mirrored region: home writes are duplicated.
    pub fn register_mirrored(&mut self, range: LineRange) {
        self.mirrored.push(range);
    }

    /// Check a write to home memory, counting capability faults.
    pub fn check_write(&mut self, line: LineAddr, cap: Option<Capability>) -> WriteVerdict {
        for (range, required) in &self.persistent {
            if range.contains(line) {
                return if cap == Some(*required) {
                    WriteVerdict::AllowPersistent
                } else {
                    self.faults += 1;
                    WriteVerdict::Deny
                };
            }
        }
        WriteVerdict::Allow
    }

    /// Apply the memory-write side effects: journal persistent lines,
    /// duplicate mirrored lines. Call after the engine performed the
    /// actual memory write.
    pub fn on_home_write(&mut self, line: LineAddr, version: u64) {
        if self.persistent.iter().any(|(r, _)| r.contains(line)) {
            self.journal.insert(line, version);
        }
        if self.mirrored.iter().any(|r| r.contains(line)) {
            self.mirror.insert(line, version);
        }
    }

    /// A persistent-memory barrier: returns the lines of `range` that
    /// are dirty relative to the journal given the current cached
    /// versions — the engine must force exactly these home (write-back
    /// plus journal) before the barrier completes, which is how
    /// transaction commits avoid the disk/NVDRAM round-trip the paper
    /// describes.
    pub fn persist_barrier(
        &self,
        range: LineRange,
        cached: impl Iterator<Item = (LineAddr, u64)>,
    ) -> Vec<(LineAddr, u64)> {
        cached
            .filter(|(l, v)| range.contains(*l) && self.journal.get(l) != Some(v))
            .collect()
    }

    /// The journaled (persisted) version of a line, if any.
    pub fn persisted(&self, line: LineAddr) -> Option<u64> {
        self.journal.get(&line).copied()
    }

    /// The mirror copy of a line, if any.
    pub fn mirror_copy(&self, line: LineAddr) -> Option<u64> {
        self.mirror.get(&line).copied()
    }

    /// All (line, version) pairs currently held in the mirror log, in
    /// line order — the end-of-run consistency audit walks these and
    /// compares each against home memory.
    pub fn mirror_entries(&self) -> Vec<(LineAddr, u64)> {
        let mut entries: Vec<_> = self.mirror.iter().map(|(l, v)| (*l, *v)).collect();
        entries.sort_by_key(|(l, _)| l.0);
        entries
    }

    /// Capability faults raised so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Simulate recovery after a crash: the journal survives; everything
    /// volatile is gone. Returns the recovered (line, version) pairs of
    /// `range`.
    pub fn recover(&self, range: LineRange) -> Vec<(LineAddr, u64)> {
        self.journal
            .range(range.start..range.end)
            .map(|(l, v)| (*l, *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(a: u64, b: u64) -> LineRange {
        LineRange {
            start: LineAddr(a),
            end: LineAddr(b),
        }
    }

    #[test]
    fn capability_gating() {
        let mut ras = RasPolicy::new(NodeId(0));
        let cap = ras.register_persistent(range(10, 20));
        let other = ras.register_persistent(range(30, 40));
        assert_eq!(
            ras.check_write(LineAddr(15), Some(cap)),
            WriteVerdict::AllowPersistent
        );
        assert_eq!(
            ras.check_write(LineAddr(15), Some(other)),
            WriteVerdict::Deny
        );
        assert_eq!(ras.check_write(LineAddr(15), None), WriteVerdict::Deny);
        assert_eq!(ras.check_write(LineAddr(5), None), WriteVerdict::Allow);
        assert_eq!(ras.faults(), 2);
    }

    #[test]
    fn journal_and_recovery() {
        let mut ras = RasPolicy::new(NodeId(0));
        ras.register_persistent(range(0, 100));
        ras.on_home_write(LineAddr(3), 7);
        ras.on_home_write(LineAddr(4), 9);
        ras.on_home_write(LineAddr(200), 1); // outside: not journaled
        assert_eq!(ras.persisted(LineAddr(3)), Some(7));
        assert_eq!(ras.persisted(LineAddr(200)), None);
        // "Power failure": only the journal survives.
        let recovered = ras.recover(range(0, 100));
        assert_eq!(recovered, vec![(LineAddr(3), 7), (LineAddr(4), 9)]);
    }

    #[test]
    fn persist_barrier_finds_unjournaled_dirty_lines() {
        let mut ras = RasPolicy::new(NodeId(0));
        ras.register_persistent(range(0, 100));
        ras.on_home_write(LineAddr(1), 5);
        // Cached state: line 1 moved on to v6; line 2 dirty at v3; line
        // 200 outside the region.
        let cached = vec![(LineAddr(1), 6u64), (LineAddr(2), 3), (LineAddr(200), 9)];
        let todo = ras.persist_barrier(range(0, 100), cached.into_iter());
        assert_eq!(todo, vec![(LineAddr(1), 6), (LineAddr(2), 3)]);
        // After forcing them home, the barrier is clean.
        ras.on_home_write(LineAddr(1), 6);
        ras.on_home_write(LineAddr(2), 3);
        let cached = vec![(LineAddr(1), 6u64), (LineAddr(2), 3)];
        assert!(ras
            .persist_barrier(range(0, 100), cached.into_iter())
            .is_empty());
    }

    #[test]
    fn mirroring_duplicates_writes() {
        let mut ras = RasPolicy::new(NodeId(1));
        ras.register_mirrored(range(50, 60));
        ras.on_home_write(LineAddr(55), 11);
        ras.on_home_write(LineAddr(70), 12);
        assert_eq!(ras.mirror_copy(LineAddr(55)), Some(11));
        assert_eq!(ras.mirror_copy(LineAddr(70)), None);
    }

    #[test]
    fn range_arithmetic() {
        let r = range(10, 20);
        assert!(r.contains(LineAddr(10)) && r.contains(LineAddr(19)));
        assert!(!r.contains(LineAddr(20)) && !r.contains(LineAddr(9)));
        assert_eq!(r.lines(), 10);
    }
}
