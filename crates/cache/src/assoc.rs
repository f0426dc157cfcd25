//! The one set-associative array behind every tag store on the chip:
//! the L1 caches, the L2 banks' own storage, and the TLBs.
//!
//! All `sets × ways` entries live in a single flat `Vec`, set-major —
//! way `w` of set `s` is entry `s * ways + w` — so a lookup reads one
//! contiguous run of `ways` entries (64 bytes for a 2-way L1 set) and
//! building an array is one allocation. The set of a
//! tag is `(tag >> shift) mod sets`, taken with a mask when the set
//! count is a power of two (every paper geometry) and with a remainder
//! otherwise.
//!
//! Replacement is by stamp: every insert, and every `touch` a caller
//! chooses to make, stamps the entry with a fresh tick, and a full set
//! gives up its least-stamped way. Callers
//! that touch on hits get LRU (L1s, TLBs); callers that never touch get
//! least-recently-loaded (the L2's round-robin-like policy).

/// The tag of an empty way. No line or page number reaches it: they
/// are byte addresses divided by at least the 64-byte line size.
const EMPTY: u64 = u64::MAX;

/// One way of a set: the tag, its replacement stamp, and the caller's
/// per-entry payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Way<T> {
    /// The stored tag (`EMPTY` for an unused way).
    pub(crate) tag: u64,
    /// The array tick when the entry was inserted or last touched.
    stamp: u64,
    /// Caller payload (MESI state and version for an L1 line).
    pub(crate) data: T,
}

/// A set-associative array of `T` payloads keyed by `u64` tags.
#[derive(Debug, Clone)]
pub(crate) struct SetAssoc<T> {
    entries: Vec<Way<T>>,
    ways: usize,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (index by mask), else
    /// `None` (index by remainder).
    mask: Option<u64>,
    /// Low tag bits skipped before taking the set index.
    shift: u32,
    tick: u64,
}

impl<T: Copy + Default> SetAssoc<T> {
    /// An empty array of `sets × ways` entries; the set of a tag is
    /// `(tag >> shift) mod sets`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub(crate) fn new(sets: usize, ways: usize, shift: u32) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "a set-associative array needs sets and ways"
        );
        let empty = Way {
            tag: EMPTY,
            stamp: 0,
            data: T::default(),
        };
        SetAssoc {
            entries: vec![empty; sets * ways],
            ways,
            sets: sets as u64,
            mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            shift,
            tick: 0,
        }
    }

    /// The flat index of way 0 of `tag`'s set.
    #[inline]
    fn base(&self, tag: u64) -> usize {
        let key = tag >> self.shift;
        let set = match self.mask {
            Some(m) => key & m,
            None => key % self.sets,
        };
        set as usize * self.ways
    }

    /// The flat index of `tag`'s entry, if resident.
    #[inline]
    pub(crate) fn find(&self, tag: u64) -> Option<usize> {
        let base = self.base(tag);
        self.entries[base..base + self.ways]
            .iter()
            .position(|w| w.tag == tag)
            .map(|w| base + w)
    }

    /// The entry at flat index `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &Way<T> {
        &self.entries[i]
    }

    /// The payload at flat index `i`, mutably.
    #[inline]
    pub(crate) fn data_mut(&mut self, i: usize) -> &mut T {
        &mut self.entries[i].data
    }

    /// Make the entry at flat index `i` the most recently used of its
    /// set.
    #[inline]
    pub(crate) fn touch(&mut self, i: usize) {
        self.tick += 1;
        self.entries[i].stamp = self.tick;
    }

    /// Store `tag` with `data` in its set, taking the first empty way,
    /// else evicting the least-stamped way whose tag `avoid` rejects —
    /// or, if `avoid` rejects every way, the least-stamped way overall.
    /// Returns the evicted `(tag, data)`, if any.
    ///
    /// # Panics
    ///
    /// Panics on the reserved empty tag. Callers must not insert a tag
    /// that is already resident (debug-asserted).
    pub(crate) fn insert(
        &mut self,
        tag: u64,
        data: T,
        avoid: impl Fn(u64) -> bool,
    ) -> Option<(u64, T)> {
        assert_ne!(tag, EMPTY, "tag {tag:#x} is reserved for empty ways");
        debug_assert!(self.find(tag).is_none(), "insert of a resident tag");
        let base = self.base(tag);
        self.tick += 1;
        let fresh = Way {
            tag,
            stamp: self.tick,
            data,
        };
        let set = &mut self.entries[base..base + self.ways];
        if let Some(w) = set.iter_mut().find(|w| w.tag == EMPTY) {
            *w = fresh;
            return None;
        }
        let victim = (0..set.len())
            .filter(|&i| !avoid(set[i].tag))
            .min_by_key(|&i| set[i].stamp)
            .or_else(|| (0..set.len()).min_by_key(|&i| set[i].stamp))
            .expect("a set has at least one way");
        let old = std::mem::replace(&mut set[victim], fresh);
        Some((old.tag, old.data))
    }

    /// Empty the way at flat index `i`, returning its payload.
    pub(crate) fn remove(&mut self, i: usize) -> T {
        let w = &mut self.entries[i];
        debug_assert_ne!(w.tag, EMPTY, "remove of an empty way");
        w.tag = EMPTY;
        w.data
    }

    /// Every resident entry, in flat (set-major, then way) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Way<T>> + '_ {
        self.entries.iter().filter(|w| w.tag != EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_and_remainder_indexing_agree_with_modulo() {
        for (sets, shift) in [(8usize, 0u32), (3, 0), (1, 0), (6, 3), (256, 3)] {
            let a: SetAssoc<()> = SetAssoc::new(sets, 2, shift);
            for tag in 0..200u64 {
                assert_eq!(a.base(tag), ((tag >> shift) % sets as u64) as usize * 2);
            }
        }
    }

    #[test]
    fn fills_empty_ways_then_evicts_least_stamped() {
        let mut a: SetAssoc<u32> = SetAssoc::new(1, 3, 0);
        assert_eq!(a.insert(10, 0, |_| false), None);
        assert_eq!(a.insert(11, 1, |_| false), None);
        assert_eq!(a.insert(12, 2, |_| false), None);
        a.touch(a.find(10).unwrap());
        assert_eq!(a.insert(13, 3, |_| false), Some((11, 1)));
        // Avoided tags are passed over while another way qualifies...
        assert_eq!(a.insert(14, 4, |t| t == 12), Some((10, 0)));
        // ...and taken anyway when every way is avoided.
        assert_eq!(a.insert(15, 5, |_| true), Some((12, 2)));
        let tags: Vec<u64> = a.iter().map(|w| w.tag).collect();
        assert_eq!(tags, [14, 13, 15], "victims are replaced in place");
    }

    #[test]
    fn remove_frees_the_way_for_the_next_insert() {
        let mut a: SetAssoc<u8> = SetAssoc::new(2, 2, 0);
        a.insert(0, 7, |_| false);
        a.insert(2, 8, |_| false);
        assert_eq!(a.remove(a.find(0).unwrap()), 7);
        assert_eq!(a.find(0), None);
        assert_eq!(a.insert(4, 9, |_| false), None, "the freed way is reused");
        assert_eq!(a.get(a.find(4).unwrap()).data, 9);
        *a.data_mut(a.find(2).unwrap()) = 1;
        assert_eq!(a.get(a.find(2).unwrap()).data, 1);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn empty_tag_is_rejected() {
        let mut a: SetAssoc<()> = SetAssoc::new(1, 1, 0);
        a.insert(EMPTY, (), |_| false);
    }
}
