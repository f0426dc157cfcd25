//! System assembly: whole Piranha chips and glueless multi-chip machines.
//!
//! This crate wires the component models together — CPU cores and their
//! L1s (`piranha-cpu`, `piranha-cache`), the intra-chip switch
//! (`piranha-ics`), the eight L2 banks with their memory controllers
//! (`piranha-cache`, `piranha-mem`), the two protocol engines
//! (`piranha-protocol`), and the interconnect (`piranha-net`) — into a
//! deterministic event-driven [`Machine`], and provides the
//! configuration presets of the paper's Table 1 ([`SystemConfig`]).
//!
//! ## Timing discipline
//!
//! Coherence *state* changes are applied synchronously at well-defined
//! instants (justified by the transactional, ordered intra-chip switch,
//! §2.2), while *timing* flows through queueing servers: bank occupancy,
//! ICS datapaths, RDRAM devices and channels, protocol-engine occupancy
//! (charged per microinstruction, §2.5.1), and interconnect links. Fixed
//! path latencies are calibrated so the end-to-end service times match
//! Table 1 (16/24 ns L2 hit/forward for the prototype, 12 ns for the OOO
//! baseline and full-custom parts, 80 ns local memory).

#![warn(missing_docs)]

pub mod config;
pub(crate) mod dispatch;
pub mod machine;
pub(crate) mod node;
pub mod result;
pub mod sysctl;
pub(crate) mod warm;
pub(crate) mod wiring;

#[cfg(test)]
mod tests;

pub use config::{CoreKind, PathLatencies, SystemConfig};
pub use machine::{Machine, ParsimStats};
pub use piranha_faults::{AvailabilityReport, FaultConfig, FaultKind};
pub use piranha_net::{FabricStats, NetworkConfig, QueueDiscipline, TopologyKind};
pub use piranha_probe::{Probe, ProbeConfig, TraceLevel};
pub use piranha_sample::{Estimator, SampleConfig, SampleEstimate};
pub use piranha_traffic::{
    ArrivalKind, DiurnalCurve, OverflowPolicy, TrafficConfig, TrafficLedger, TrafficSummary,
};
pub use result::{CpuBreakdown, RunResult};
pub use sysctl::{CtrlPacket, CtrlReply, SystemController};
