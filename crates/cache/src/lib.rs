//! The Piranha on-chip cache hierarchy.
//!
//! Implements the paper's two cache levels as *pure state machines*: they
//! track tags, MESI state, ownership, and duplicate-tag directories, and
//! report what should happen (`fill this L1`, `forward to that owner L1`,
//! `read memory`, `ask a protocol engine`) as data, leaving timing to the
//! chip simulator in the `piranha` crate. This keeps the trickiest logic
//! in the system — the non-inclusive shared L2 of paper §2.3 — directly
//! unit-testable.
//!
//! * [`L1Cache`] — 64 KB 2-way blocking first-level cache with MESI
//!   states (§2.1); the same design serves as iL1 and dL1, which is what
//!   lets Piranha keep the instruction cache hardware-coherent.
//! * [`L2Bank`] — one of eight interleaved banks of the 1 MB shared L2
//!   (§2.3): 8-way, round-robin (least-recently-loaded) replacement,
//!   **no inclusion** (the L2 is a victim cache filled only by L1
//!   replacements), duplicate L1 tag/state with an ownership bit deciding
//!   which L1 victim write-backs carry data, and the intra-chip coherence
//!   protocol.
//!
//! Instead of modelling byte payloads, every line carries a monotonically
//! increasing **version** stamped by each store; a protocol bug that would
//! deliver stale data in hardware delivers a stale version here, which the
//! integration and property tests detect.

#![warn(missing_docs)]

mod assoc;
pub mod component;
pub mod config;
pub mod dup;
pub mod l1;
pub mod l2;
pub mod mesi;
pub mod tlb;

pub use component::{CacheComplex, CacheEvent};
pub use config::{L1Config, L2BankConfig};
pub use dup::{DupEntry, DupTags, ExtState, Owner, Slot, Slots};
pub use l1::{L1Cache, L1Set, StoreOutcome, Victim};
pub use l2::{BankAction, BankEvent, L2Bank, MissWaiter};
pub use mesi::Mesi;
pub use tlb::{Tlb, TlbConfig};
