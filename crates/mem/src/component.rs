//! The memory-array component adapter.
//!
//! One node's RDRAM banks. A [`MemEvent`] models the data-return
//! instant of a read the memory controller started earlier;
//! [`MemArray::read_return`] reads the line's version and directory *at
//! that instant* — so intervening writes are observed — and returns
//! them as a [`MemData`] for the wiring to hand back to the requesting
//! L2 bank. Writes, directory updates, and ECC scrubbing are
//! synchronous and go through the other direct methods.

use piranha_types::{LineAddr, RemoteSummary, SimTime};

use crate::{ecc::Scrub, MemAccess, MemBank};

/// A read's data-return event: bank `bank` returns `line` now.
#[derive(Debug, Clone, Copy)]
pub struct MemEvent {
    /// Node-local memory bank (same interleave as the L2 banks).
    pub bank: usize,
    /// The line whose read completes.
    pub line: LineAddr,
}

/// The data a completing read carries back to its L2 bank.
#[derive(Debug, Clone, Copy)]
pub struct MemData {
    /// Bank the data came from.
    pub bank: usize,
    /// The line.
    pub line: LineAddr,
    /// The line's version as of the return instant.
    pub version: u64,
    /// The directory's remote-sharing summary as of the return instant.
    pub remote: RemoteSummary,
}

/// One node's memory banks (RDRAM channels plus the in-memory
/// directory, paper §2.5–2.6).
#[derive(Debug)]
pub struct MemArray {
    banks: Vec<MemBank>,
}

impl MemArray {
    /// An array over pre-built banks.
    pub fn new(banks: Vec<MemBank>) -> Self {
        MemArray { banks }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Start a read on bank `bank`; returns its access timing.
    pub fn access(&mut self, bank: usize, now: SimTime, line: LineAddr) -> MemAccess {
        self.banks[bank].access(now, line)
    }

    /// Write `line`'s version on bank `bank`.
    pub fn write(&mut self, bank: usize, now: SimTime, line: LineAddr, version: u64) -> MemAccess {
        self.banks[bank].write(now, line, version)
    }

    /// The stored version of `line` on bank `bank`.
    pub fn version(&self, bank: usize, line: LineAddr) -> u64 {
        self.banks[bank].version(line)
    }

    /// Overwrite `line`'s version (RAS mirror failover path).
    pub fn set_version(&mut self, bank: usize, line: LineAddr, version: u64) {
        self.banks[bank].set_version(line, version)
    }

    /// Inject `bits` flips into `line` and run the ECC scrubber.
    pub fn inject_and_scrub(&mut self, bank: usize, line: LineAddr, bits: &[u32]) -> Scrub {
        self.banks[bank].inject_and_scrub(line, bits)
    }

    /// The banks themselves (directory store views, statistics).
    pub fn banks(&self) -> &[MemBank] {
        &self.banks
    }

    /// Mutable bank slice (the home engine's `DirStore` borrows it).
    pub fn banks_mut(&mut self) -> &mut [MemBank] {
        &mut self.banks
    }

    /// Complete the read `event` at its data-return instant: the line's
    /// version and the directory's remote-sharing summary as they are
    /// now, not as they were when the read was issued.
    pub fn read_return(&self, event: MemEvent) -> MemData {
        let MemEvent { bank, line } = event;
        MemData {
            bank,
            line,
            version: self.banks[bank].version(line),
            remote: self.banks[bank].directory(line).summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use piranha_types::NodeId;

    use super::*;
    use crate::{DirEntry, MemBankConfig};

    #[test]
    fn read_return_reports_the_state_at_the_return_instant() {
        let banks = (0..2).map(|_| MemBank::new(MemBankConfig::default()));
        let mut mem = MemArray::new(banks.collect());
        let line = LineAddr(7);
        mem.write(1, SimTime::ZERO, line, 3);
        // The read starts; a write and a remote grant land before its
        // data returns.
        mem.access(1, SimTime::from_ns(10), line);
        mem.write(1, SimTime::from_ns(20), line, 9);
        mem.banks_mut()[1].set_directory(line, DirEntry::Exclusive(NodeId(2)));
        let d = mem.read_return(MemEvent { bank: 1, line });
        assert_eq!((d.bank, d.line), (1, line));
        assert_eq!(
            d.version, 9,
            "the version written after the read was issued"
        );
        assert_eq!(d.remote, RemoteSummary::Exclusive);
    }
}
