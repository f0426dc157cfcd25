//! The Piranha protocol engines and inter-node coherence protocol
//! (paper §2.5).
//!
//! Each processing node has two microprogrammable controllers: the **home
//! engine**, exporting memory homed at the node, and the **remote
//! engine**, importing memory homed elsewhere. Both share one hardware
//! design and differ only in microcode.
//!
//! This crate provides:
//!
//! * [`microcode`] — a faithful model of the microsequencer itself
//!   (1024×21-bit microstore, the seven instruction types
//!   SEND/RECEIVE/LSEND/LRECEIVE/TEST/SET/MOVE, 16-way conditional
//!   branching by OR-ing a condition code into the next-address field,
//!   and interleaved even/odd thread execution), plus a small
//!   microassembler — demonstrated with the paper's example: a remote
//!   read handled in four microinstructions;
//! * [`tsrf`] — the Transaction State Register File: 16 entries per
//!   engine holding per-transaction thread state, matched by address;
//! * [`msg`] — the inter-node message vocabulary;
//! * [`coherence`] — the production protocol state machines
//!   ([`HomeEngine`], [`RemoteEngine`]) implementing the paper's
//!   invalidation-based, **NAK-free** directory protocol: clean-exclusive
//!   optimization, reply forwarding from the remote owner, eager
//!   exclusive replies with acknowledgements gathered at the requester,
//!   immediate directory state changes on 3-hop writes (no "ownership
//!   change" confirmations), write-back races resolved by the owner
//!   retaining its copy until the home acknowledges, early forwarded
//!   requests parked in the outstanding TSRF entry, and cruise-missile
//!   invalidates (CMI) that bound both injected messages and buffering.
//!
//! The state machines are expressed as plain Rust handlers whose
//! *occupancy* is charged from per-operation microinstruction counts
//! ([`coherence::occupancy_cycles`]) matching the microcode cost model —
//! the same timing as interpreting the microcode, with far better
//! auditability of the protocol itself.

#![warn(missing_docs)]

pub mod coherence;
pub mod microcode;
pub mod msg;
pub mod ras;
pub mod recovery;
pub mod tsrf;

pub use coherence::{EngineAction, HomeEngine, HomeIn, RemoteEngine, RemoteIn};
pub use msg::{Grant, ProtoMsg};
pub use ras::{Capability, LineRange, RasPolicy, WriteVerdict};
pub use recovery::EngineRecovery;
pub use tsrf::{Tsrf, TsrfEntry, TSRF_ENTRIES};
