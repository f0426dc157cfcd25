//! # Piranha: a scalable architecture based on single-chip multiprocessing
//!
//! A full-system timing simulator reproducing the ISCA 2000 paper by
//! Barroso et al. This crate is the public facade of the workspace: it
//! re-exports every subsystem and provides the [`experiments`] module
//! that regenerates each table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```no_run
//! use piranha::{Machine, SystemConfig};
//! use piranha::workloads::{OltpConfig, Workload};
//!
//! // Build the paper's 8-CPU Piranha chip running the OLTP workload.
//! let mut p8 = Machine::new(
//!     SystemConfig::piranha_p8(),
//!     &Workload::Oltp(OltpConfig::paper_default()),
//! );
//! let result = p8.run(200_000, 500_000);
//! println!(
//!     "P8: {:.2} instrs/ns, busy {:.0}%",
//!     result.throughput_ipns(),
//!     result.breakdown().busy * 100.0
//! );
//! ```
//!
//! ## Architecture map
//!
//! | Paper section | Module |
//! |---|---|
//! | §2.1 CPU core + L1s | [`cpu`], [`cache`] |
//! | §2.2 Intra-chip switch | [`ics`] |
//! | §2.3 Non-inclusive shared L2 | [`cache`] |
//! | §2.4 Memory controller / RDRAM | [`mem`] |
//! | §2.5 Protocol engines + inter-node protocol | [`protocol`] |
//! | §2.6 System interconnect | [`net`] |
//! | §2.7 Reliability (fault injection, ECC, recovery) | [`faults`] |
//! | §3.1 Workloads (OLTP, DSS) | [`workloads`] |
//! | §4 Evaluation | [`experiments`] |
//! | Observability (tracing & metrics) | [`probe`], [`observe`] |
//! | Result store & experiment service | [`serve`] |

#![warn(missing_docs)]

pub use piranha_system::{
    ArrivalKind, AvailabilityReport, CoreKind, CpuBreakdown, DiurnalCurve, FabricStats,
    FaultConfig, FaultKind, Machine, OverflowPolicy, ParsimStats, PathLatencies, Probe,
    ProbeConfig, QueueDiscipline, RunResult, SampleConfig, SampleEstimate, SystemConfig,
    TopologyKind, TraceLevel, TrafficConfig, TrafficLedger, TrafficSummary,
};

/// Shared architectural types (re-export of `piranha-types`).
pub mod types {
    pub use piranha_types::*;
}
/// Simulation kernel (re-export of `piranha-kernel`).
pub mod kernel {
    pub use piranha_kernel::*;
}
/// Alpha-like ISA (re-export of `piranha-isa`).
pub mod isa {
    pub use piranha_isa::*;
}
/// CPU timing models (re-export of `piranha-cpu`).
pub mod cpu {
    pub use piranha_cpu::*;
}
/// Cache hierarchy (re-export of `piranha-cache`).
pub mod cache {
    pub use piranha_cache::*;
}
/// Intra-chip switch (re-export of `piranha-ics`).
pub mod ics {
    pub use piranha_ics::*;
}
/// Memory and directory storage (re-export of `piranha-mem`).
pub mod mem {
    pub use piranha_mem::*;
}
/// Interconnect (re-export of `piranha-net`).
pub mod net {
    pub use piranha_net::*;
}
/// Parallel-in-space execution engine (re-export of `piranha-parsim`).
pub mod parsim {
    pub use piranha_parsim::*;
}
/// Protocol engines (re-export of `piranha-protocol`).
pub mod protocol {
    pub use piranha_protocol::*;
}
/// Workload engines (re-export of `piranha-workloads`).
pub mod workloads {
    pub use piranha_workloads::*;
}
/// Parallel, memoizing experiment harness (re-export of
/// `piranha-harness`).
pub mod harness {
    pub use piranha_harness::*;
}
/// Tracing & metrics subsystem (re-export of `piranha-probe`).
pub mod probe {
    pub use piranha_probe::*;
}
/// Persistent result store and long-running experiment service
/// (re-export of `piranha-serve`).
pub mod serve {
    pub use piranha_serve::*;
}
/// Fault injection, recovery, and availability reporting (re-export of
/// `piranha-faults`).
pub mod faults {
    pub use piranha_faults::*;
}

pub mod experiments;
pub mod observe;
