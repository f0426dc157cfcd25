//! The four-state MESI line states used by the first-level caches.
//!
//! The paper keeps "a 2-bit state field per cache line, corresponding to
//! the four states in a typical MESI protocol" (§2.1).

/// MESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Mesi {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Exclusive: this cache holds the only copy; it is clean, and may be
    /// written without a coherence transaction (silently becoming
    /// [`Mesi::Modified`]).
    Exclusive,
    /// Shared: one of possibly several clean copies.
    Shared,
    /// Invalid: not present.
    #[default]
    Invalid,
}

impl Mesi {
    /// Whether a store may proceed without a coherence transaction.
    pub fn writable(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }

    /// Whether a load may be served from this copy.
    pub fn readable(self) -> bool {
        !matches!(self, Mesi::Invalid)
    }

    /// Whether this copy differs from memory.
    pub fn dirty(self) -> bool {
        matches!(self, Mesi::Modified)
    }
}

impl core::fmt::Display for Mesi {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let c = match self {
            Mesi::Modified => 'M',
            Mesi::Exclusive => 'E',
            Mesi::Shared => 'S',
            Mesi::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Mesi::Modified.writable() && Mesi::Modified.readable() && Mesi::Modified.dirty());
        assert!(Mesi::Exclusive.writable() && Mesi::Exclusive.readable());
        assert!(!Mesi::Exclusive.dirty());
        assert!(!Mesi::Shared.writable() && Mesi::Shared.readable() && !Mesi::Shared.dirty());
        assert!(!Mesi::Invalid.writable() && !Mesi::Invalid.readable() && !Mesi::Invalid.dirty());
    }

    #[test]
    fn display() {
        assert_eq!(Mesi::Modified.to_string(), "M");
        assert_eq!(Mesi::Invalid.to_string(), "I");
    }
}
