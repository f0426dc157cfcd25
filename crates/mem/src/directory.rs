//! Directory storage in the line's spare ECC bits (paper §2.5.2).
//!
//! "ECC is computed across 256-bit boundaries ..., leaving us with 44 bits
//! for directory storage per 64-byte line. ... Two bits of the directory
//! are used for state, with 42 bits available for encoding sharers." Two
//! representations are used depending on sharer count: *limited pointer*
//! (up to four 10-bit node pointers, enough for the 1K-node maximum) and
//! *coarse vector*, where each of the 42 bits stands for a group of
//! nodes. "Given a 1K node system, we switch to coarse vector
//! representation past 4 remote sharing nodes."
//!
//! Directory information is kept at node granularity and never includes
//! the home node itself (the home's own caching is known from its L2 and
//! duplicate L1 state).
//!
//! [`DirEntry`] is the protocol engines' view of a line's directory;
//! [`DirEntry::encode`] packs it into the 44 bits. A
//! [`MemBank`](crate::MemBank) stores each line as that word, so the
//! store is as compact as the paper's. The few entries the word cannot
//! give back exactly ([`DirEntry::exact_word`] is `None`: a coarse
//! vector, an empty sharer set, or a node id beyond the encoding) the
//! bank keeps whole beside it, so the simulation sees exact sharer sets,
//! as before.

use piranha_types::ids::{NodeId, MAX_NODES};
use piranha_types::RemoteSummary;

/// Total directory bits per 64-byte line.
pub const DIR_BITS: u32 = 44;
/// Sharer-encoding bits (44 − 2 state bits).
pub const SHARER_BITS: u32 = 42;
/// Maximum sharers representable with limited pointers before switching
/// to the coarse vector.
pub const POINTER_LIMIT: usize = 4;

const STATE_INVALID: u64 = 0;
const STATE_SHARED_PTR: u64 = 1;
const STATE_EXCLUSIVE: u64 = 2;
const STATE_SHARED_COARSE: u64 = 3;
const PTR_BITS: u32 = 10; // enough for 1024 nodes

/// A set of remote sharer nodes.
///
/// Kept sorted and deduplicated; comparisons are set comparisons.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSet(Vec<NodeId>);

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a node (idempotent).
    pub fn insert(&mut self, n: NodeId) {
        if let Err(i) = self.0.binary_search(&n) {
            self.0.insert(i, n);
        }
    }

    /// Remove a node; returns whether it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        match self.0.binary_search(&n) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, n: NodeId) -> bool {
        self.0.binary_search(&n).is_ok()
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().copied()
    }

    /// Whether `self` contains every member of `other`.
    pub fn is_superset(&self, other: &NodeSet) -> bool {
        other.iter().all(|n| self.contains(n))
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

/// The directory state of one memory line at its home node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DirEntry {
    /// No remote node caches the line.
    #[default]
    Uncached,
    /// Remote nodes hold shared copies.
    Shared(NodeSet),
    /// One remote node holds the line exclusively.
    Exclusive(NodeId),
}

impl DirEntry {
    /// The coarse summary the L2 controller can interpret without the
    /// protocol engines (paper §2.3).
    pub fn summary(&self) -> RemoteSummary {
        match self {
            DirEntry::Uncached => RemoteSummary::None,
            DirEntry::Shared(s) if s.is_empty() => RemoteSummary::None,
            DirEntry::Shared(_) => RemoteSummary::Shared,
            DirEntry::Exclusive(_) => RemoteSummary::Exclusive,
        }
    }

    /// Encode into the line's 44 spare ECC bits.
    ///
    /// Up to [`POINTER_LIMIT`] sharers use exact 10-bit pointers; beyond
    /// that, the encoding switches to a 42-bit coarse vector where bit
    /// *i* covers nodes `{n : n % 42 == i}` — decoding then yields a
    /// superset of the true sharers, which is safe (spurious
    /// invalidations, never missed ones).
    ///
    /// # Panics
    ///
    /// Panics if a node id is ≥ [`MAX_NODES`].
    pub fn encode(&self) -> u64 {
        match self {
            DirEntry::Uncached => STATE_INVALID,
            DirEntry::Exclusive(n) => {
                assert!((n.0 as usize) < MAX_NODES, "node id out of range");
                STATE_EXCLUSIVE | ((n.0 as u64) << 2)
            }
            DirEntry::Shared(s) if s.is_empty() => STATE_INVALID,
            DirEntry::Shared(s) if s.len() <= POINTER_LIMIT => {
                let mut bits = STATE_SHARED_PTR;
                // 2-bit count (count-1) in bits 2..4, pointers above.
                bits |= ((s.len() as u64 - 1) & 0b11) << 2;
                for (i, n) in s.iter().enumerate() {
                    assert!((n.0 as usize) < MAX_NODES, "node id out of range");
                    bits |= (n.0 as u64) << (4 + PTR_BITS * i as u32);
                }
                bits
            }
            DirEntry::Shared(s) => {
                let mut bits = STATE_SHARED_COARSE;
                for n in s.iter() {
                    assert!((n.0 as usize) < MAX_NODES, "node id out of range");
                    let g = (n.0 as u64) % SHARER_BITS as u64;
                    bits |= 1u64 << (2 + g);
                }
                bits
            }
        }
    }

    /// The entry's ECC word when decoding that word gives back exactly
    /// this entry, whatever the system size; `None` for the entries the
    /// word cannot hold: more than [`POINTER_LIMIT`] sharers (the coarse
    /// vector decodes to a superset), `Shared` with no sharers (encodes
    /// as `Uncached`), and a node id ≥ [`MAX_NODES`] (no encoding).
    pub fn exact_word(&self) -> Option<u64> {
        let fits = |n: NodeId| (n.0 as usize) < MAX_NODES;
        let exact = match self {
            DirEntry::Uncached => true,
            DirEntry::Exclusive(n) => fits(*n),
            DirEntry::Shared(s) => (1..=POINTER_LIMIT).contains(&s.len()) && s.iter().all(fits),
        };
        exact.then(|| self.encode())
    }

    /// Decode 44 directory bits, expanding coarse-vector groups over the
    /// `total_nodes` in the system.
    ///
    /// For pointer and exclusive encodings the result is exact; for
    /// coarse encodings it is the covering superset.
    pub fn decode(bits: u64, total_nodes: usize) -> DirEntry {
        match bits & 0b11 {
            STATE_INVALID => DirEntry::Uncached,
            STATE_EXCLUSIVE => DirEntry::Exclusive(NodeId(((bits >> 2) & 0x3ff) as u16)),
            STATE_SHARED_PTR => {
                let count = ((bits >> 2) & 0b11) as usize + 1;
                let s = (0..count)
                    .map(|i| NodeId(((bits >> (4 + PTR_BITS * i as u32)) & 0x3ff) as u16))
                    .collect();
                DirEntry::Shared(s)
            }
            STATE_SHARED_COARSE => {
                let mut s = NodeSet::new();
                for n in 0..total_nodes {
                    let g = (n as u64) % SHARER_BITS as u64;
                    if bits & (1u64 << (2 + g)) != 0 {
                        s.insert(NodeId(n as u16));
                    }
                }
                DirEntry::Shared(s)
            }
            _ => unreachable!("2-bit state covers all patterns"),
        }
    }

    /// The sharers to invalidate for an exclusive request from
    /// `requester` (everyone but the requester; exact or superset).
    pub fn invalidation_targets(&self, requester: NodeId, total_nodes: usize) -> NodeSet {
        let mut out = match self {
            DirEntry::Uncached => NodeSet::new(),
            DirEntry::Exclusive(n) => core::iter::once(*n).collect(),
            DirEntry::Shared(s) => s.clone(),
        };
        out.remove(requester);
        let _ = total_nodes;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(ids: &[u16]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn node_set_semantics() {
        let mut s = NodeSet::new();
        s.insert(NodeId(5));
        s.insert(NodeId(2));
        s.insert(NodeId(5)); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(2)));
        assert!(!s.contains(NodeId(3)));
        assert!(s.remove(NodeId(2)));
        assert!(!s.remove(NodeId(2)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(5)]);
        assert!(ns(&[1, 2, 3]).is_superset(&ns(&[2, 3])));
        assert!(!ns(&[1]).is_superset(&ns(&[2])));
    }

    #[test]
    fn uncached_round_trip() {
        let e = DirEntry::Uncached;
        assert_eq!(DirEntry::decode(e.encode(), 1024), e);
        assert_eq!(e.summary(), RemoteSummary::None);
    }

    #[test]
    fn exclusive_round_trip_at_max_node() {
        let e = DirEntry::Exclusive(NodeId(1023));
        assert_eq!(DirEntry::decode(e.encode(), 1024), e);
        assert_eq!(e.summary(), RemoteSummary::Exclusive);
    }

    #[test]
    fn pointer_round_trip_up_to_four() {
        for n in 1..=4usize {
            let sharers: NodeSet = (0..n).map(|i| NodeId((i * 300) as u16)).collect();
            let e = DirEntry::Shared(sharers);
            let d = DirEntry::decode(e.encode(), 1024);
            assert_eq!(d, e, "exact round trip for {n} sharers");
        }
    }

    #[test]
    fn coarse_vector_is_superset() {
        let sharers = ns(&[1, 43, 85, 100, 900]); // 5 sharers -> coarse
        let e = DirEntry::Shared(sharers.clone());
        let bits = e.encode();
        assert_eq!(bits & 0b11, STATE_SHARED_COARSE);
        let DirEntry::Shared(decoded) = DirEntry::decode(bits, 1024) else {
            panic!("coarse decodes to Shared");
        };
        assert!(decoded.is_superset(&sharers));
        // 1 and 43 alias to the same group bit.
        assert!(decoded.contains(NodeId(1)) && decoded.contains(NodeId(43)));
    }

    #[test]
    fn encoding_fits_44_bits() {
        let full: NodeSet = (0..42u16).map(NodeId).collect();
        for e in [
            DirEntry::Uncached,
            DirEntry::Exclusive(NodeId(1023)),
            DirEntry::Shared(ns(&[1023, 1022, 1021, 1020])),
            DirEntry::Shared(full),
        ] {
            assert!(e.encode() < (1u64 << DIR_BITS), "{e:?} exceeds 44 bits");
        }
    }

    #[test]
    fn exact_words_decode_to_the_same_entry() {
        let exact = [
            DirEntry::Uncached,
            DirEntry::Exclusive(NodeId(0)),
            DirEntry::Exclusive(NodeId(1023)),
            DirEntry::Shared(ns(&[7])),
            DirEntry::Shared(ns(&[1023, 1022, 1021, 1020])),
        ];
        for e in exact {
            let word = e.exact_word().expect("fits the word exactly");
            assert_eq!(word, e.encode());
            assert_eq!(DirEntry::decode(word, 2), e, "exact at any system size");
        }
        for e in [
            DirEntry::Shared(NodeSet::new()),
            DirEntry::Shared(ns(&[1, 2, 3, 4, 5])),
            DirEntry::Exclusive(NodeId(1024)),
            DirEntry::Shared(ns(&[3, 2000])),
        ] {
            assert_eq!(e.exact_word(), None, "{e:?} does not fit exactly");
        }
    }

    #[test]
    fn empty_shared_encodes_as_uncached() {
        let e = DirEntry::Shared(NodeSet::new());
        assert_eq!(DirEntry::decode(e.encode(), 16), DirEntry::Uncached);
        assert_eq!(e.summary(), RemoteSummary::None);
    }

    #[test]
    fn invalidation_targets_exclude_requester() {
        let e = DirEntry::Shared(ns(&[1, 2, 3]));
        let t = e.invalidation_targets(NodeId(2), 16);
        assert_eq!(t, ns(&[1, 3]));
        let e = DirEntry::Exclusive(NodeId(4));
        assert_eq!(e.invalidation_targets(NodeId(4), 16), NodeSet::new());
        assert_eq!(e.invalidation_targets(NodeId(5), 16), ns(&[4]));
    }

    #[test]
    fn small_system_coarse_decode_is_exact_when_groups_unique() {
        // With ≤42 nodes every node has its own group bit, so even the
        // coarse representation is exact.
        let sharers = ns(&[0, 5, 10, 20, 41]);
        let e = DirEntry::Shared(sharers.clone());
        let DirEntry::Shared(d) = DirEntry::decode(e.encode(), 42) else {
            panic!();
        };
        assert_eq!(d, sharers);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_node_id_panics() {
        DirEntry::Exclusive(NodeId(1024)).encode();
    }
}
