//! Memory controller, direct Rambus (RDRAM) timing, and directory
//! storage — paper §2.4 and §2.5.2.
//!
//! Each of the eight L2 banks owns one memory controller and RDRAM
//! channel (1.6 GB/s, up to 32 devices). A random access costs 60 ns to
//! the critical word plus 30 ns for the rest of the line; a hit to an
//! open device page costs 40 ns instead, and the paper reports that
//! keeping pages open for about a microsecond yields over 50% page hits
//! on OLTP. [`Rdram`] reproduces that policy.
//!
//! Directory information is stored *in the memory itself*: ECC is
//! computed at 256-bit granularity instead of 64-bit, freeing 44 bits per
//! 64-byte line, which hold a 2-bit state and 42 bits of sharer encoding —
//! limited pointers up to four sharers, then a coarse bit vector
//! ([`directory`]). Reading a line's directory *is* reading the line,
//! which is why the timing model charges a single access for both.
//!
//! Those ECC words are real here: [`ecc`] implements the 72-bit SEC-DED
//! code (Hamming(71,64) + overall parity) that corrects single-bit
//! flips in place and detects double-bit flips, the first line of the
//! paper's §2.7 RAS story. [`MemBank::inject_and_scrub`] is the fault
//! plane's entry point into it.

#![warn(missing_docs)]

pub mod bank;
pub mod directory;
pub mod ecc;
pub mod rdram;

pub use bank::MemBank;
pub use directory::{DirEntry, NodeSet, DIR_BITS, POINTER_LIMIT};
pub use ecc::Scrub;
pub use rdram::{MemAccess, Rdram, RdramConfig};
