//! Deterministic fault injection for the Piranha simulator.
//!
//! Paper §2.7 motivates the programmable protocol engines with RAS
//! features — memory mirroring, persistent regions, recovery protocols —
//! but a simulator only earns trust in those paths by actually failing.
//! This crate provides the *injection* side: a [`FaultConfig`] describing
//! a seeded rate and/or an explicit script of typed fault events, a
//! [`FaultSchedule`] compiled from it, and a [`FaultPlane`] the machine
//! consults at its dispatch points (packet send, memory read, protocol
//! engine dispatch, router hop). Recovery lives where the paper puts it —
//! CRC/retransmit in `piranha-net`, SEC-DED ECC in `piranha-mem`, TSRF
//! timeout/replay in `piranha-protocol`, mirroring failover through
//! `RasPolicy` — and reports back through [`FaultPlane::note_recovery`],
//! which keeps the availability ledger ([`AvailabilityReport`])
//! structurally consistent: every injected fault is counted exactly once
//! as corrected or escalated.
//!
//! Determinism contract: all draws come from [`piranha_kernel::Prng`]
//! streams derived from the fault seed, one independent stream per fault
//! category, consumed only when a consult actually happens. A disabled
//! plane (zero rate, empty script) performs *zero* draws and adds *zero*
//! latency, so a zero-rate run is bit-identical to a fault-free one.

#![warn(missing_docs)]

pub mod plane;
pub mod report;
pub mod schedule;

pub use plane::{EngineHiccup, FaultPlane, MemFault, PacketFault};
pub use report::AvailabilityReport;
pub use schedule::{
    retransmit_delay_cycles, FaultConfig, FaultKind, FaultSchedule, ScriptedFault, BACKOFF_CYCLES,
    FAILOVER_CYCLES, MIRROR_LINES, NACK_CYCLES, REPLAY_TIMEOUT_CYCLES, RETRY_BUDGET, SCRUB_CYCLES,
    STALL_CYCLES,
};
