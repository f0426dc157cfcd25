//! CPU timing models for the Piranha simulator.
//!
//! Two cores are modelled, matching the paper's Table 1:
//!
//! * [`InOrderCore`] — Piranha's CPU (§2.1): single-issue, in-order,
//!   8-stage pipeline (fetch, register-read, ALU 1–5, write-back) with a
//!   branch target buffer, pipelined multiply, blocking first-level
//!   caches, and a store buffer in the dL1. Also used (at 1 GHz) for the
//!   paper's INO baseline.
//! * [`OooCore`] — the next-generation out-of-order baseline
//!   (Alpha 21364-like): 4-issue, 64-entry instruction window, MSHR-
//!   limited memory-level parallelism, modelled with a timestamp dataflow
//!   algorithm so that ILP and MLP emerge from the instruction stream's
//!   dependency structure rather than a fudge factor.
//!
//! Both consume [`InstrStream`]s — either synthetic workload generators
//! (`piranha-workloads`) or real Alpha-subset programs through
//! [`IsaStream`], which derives true register dependencies from the
//! interpreter.

#![warn(missing_docs)]

pub mod btb;
pub mod cluster;
pub mod inorder;
pub mod ooo;
pub mod stats;
pub mod stream;

pub use btb::Btb;
pub use cluster::{CpuCluster, CpuCtx};
pub use inorder::{InOrderConfig, InOrderCore};
pub use ooo::{OooConfig, OooCore};
pub use stats::CoreStats;
pub use stream::{InstrStream, IsaStream, OpKind, StreamOp};

use piranha_cache::L1Cache;
use piranha_types::{CacheKind, FillSource, LineAddr, ReqType};

/// A memory request leaving a core toward the L2 (a blocking L1 miss or a
/// store-buffer transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Core-local request id (echoed back by [`CoreModel::fill`]).
    pub id: u64,
    /// Which L1 missed.
    pub kind: CacheKind,
    /// The coherence request required.
    pub req: ReqType,
    /// The line.
    pub line: LineAddr,
    /// Pre-allocated store version (store-type requests only).
    pub store_version: Option<u64>,
}

/// What state a core is in after [`CoreModel::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// More work can be done right now (the instruction budget ran out).
    Runnable,
    /// The core cannot proceed until some outstanding fill arrives.
    Blocked,
    /// The instruction stream ended (e.g. `halt`).
    Done,
}

/// Mutable context a core needs while advancing: its two L1 caches and
/// the chip-wide store-version allocator.
pub struct CoreCtx<'a> {
    /// The instruction L1.
    pub l1i: &'a mut L1Cache,
    /// The data L1.
    pub l1d: &'a mut L1Cache,
    /// Chip-global monotone version counter stamped by stores.
    pub versions: &'a mut u64,
    /// Increment applied per store: 1 on a single-lane machine (globally
    /// sequential versions, the legacy numbering), or the lane count on a
    /// partitioned machine, where each lane strides its own residue class
    /// so version stamps stay globally unique without a shared counter.
    pub version_stride: u64,
}

impl std::fmt::Debug for CoreCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreCtx")
            .field("versions", self.versions)
            .finish_non_exhaustive()
    }
}

/// Common interface of the two core timing models.
///
/// `Send` so cores can move onto a lane worker thread under the
/// parallel-in-space engine (`piranha-parsim`).
pub trait CoreModel: Send {
    /// Advance until the core blocks, retires `budget` instructions, or
    /// the stream ends. Issued memory requests are appended to `reqs`
    /// with the local cycle at which they left the core.
    fn advance(
        &mut self,
        stream: &mut dyn InstrStream,
        ctx: &mut CoreCtx<'_>,
        budget: u64,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> CoreStatus;

    /// Advance in functional-warming mode: retire instructions at a
    /// fixed one-per-cycle rate while touching every piece of
    /// *architectural* state the detailed model would touch — L1 tags,
    /// TLB entries, BTB entries, store-buffer contents, store versions
    /// — but charging none of the timing (no mispredict penalties, no
    /// TLB-miss stalls, no idle time). The default simply runs the
    /// detailed [`CoreModel::advance`], which is always correct (the
    /// sampling machinery treats timing during warming as meaningless)
    /// — cores override it when a cheaper functional path exists.
    fn warm_advance(
        &mut self,
        stream: &mut dyn InstrStream,
        ctx: &mut CoreCtx<'_>,
        budget: u64,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> CoreStatus {
        self.advance(stream, ctx, budget, reqs)
    }

    /// Deliver the fill for request `id` at local cycle `at_cycle` (the
    /// line is already installed in the L1 by the L2 bank).
    fn fill(&mut self, id: u64, at_cycle: u64, source: FillSource);

    /// The core's current local cycle.
    fn now_cycle(&self) -> u64;

    /// Jump the core's local clock forward to at least `cycle` (never
    /// backward). The traffic dispatcher calls this when admitting a
    /// transaction to a core that has been parked: the core's frozen
    /// local clock must catch up to the admission cycle so execution
    /// resumes in present simulated time rather than replaying the past.
    fn align_cycle(&mut self, _cycle: u64) {}

    /// Accumulated statistics.
    fn stats(&self) -> &CoreStats;

    /// Total TLB misses (instruction + data), read from the TLBs
    /// themselves — the authoritative count.
    fn tlb_misses(&self) -> u64;

    /// The resident page numbers of the instruction and data TLBs,
    /// each sorted — TLB occupancy for warming-fidelity checks. Cores
    /// without TLBs report empty.
    fn tlb_residency(&self) -> (Vec<u64>, Vec<u64>) {
        (Vec::new(), Vec::new())
    }

    /// Whether the core has outstanding memory requests.
    fn has_outstanding(&self) -> bool;
}
