//! The CPU cluster: one node's cores and their instruction streams.
//!
//! [`CpuCluster::step`] is the one way to run a core, in both execution
//! regimes: it advances the core up to the cluster quantum against the
//! node's L1s and hands back the memory requests the core issued, with
//! the core cycle each left it. Clock-domain conversion, ICS transfer
//! charging, L2 routing and fill delivery stay with the caller — the
//! cluster speaks only core cycles.

use piranha_cache::L1Set;
use piranha_types::CpuId;

use crate::{CoreCtx, CoreModel, CoreStatus, InstrStream, MemReq};

/// Per-step context the cluster borrows from its node: the node's L1s
/// (the cores execute against them directly — Piranha's L1s are tightly
/// coupled to the core, §2.2), the global store-version allocator, and
/// this CPU's system-controller enable bit.
pub struct CpuCtx<'a> {
    /// The node's L1 caches.
    pub l1s: &'a mut L1Set,
    /// Global store-version allocator.
    pub versions: &'a mut u64,
    /// Per-store increment for the allocator (see
    /// [`CoreCtx::version_stride`](crate::CoreCtx)).
    pub version_stride: u64,
    /// Whether the system controller has this CPU enabled.
    pub enabled: bool,
}

/// One node's CPUs: the cores, their instruction streams, and the
/// done-tracking the run loop needs.
pub struct CpuCluster {
    cores: Vec<Box<dyn CoreModel>>,
    streams: Vec<Box<dyn InstrStream>>,
    done: Vec<bool>,
    quantum: u64,
}

impl std::fmt::Debug for CpuCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuCluster")
            .field("cpus", &self.cores.len())
            .finish_non_exhaustive()
    }
}

impl CpuCluster {
    /// Assemble a cluster from pre-built cores and one stream per core.
    ///
    /// # Panics
    ///
    /// Panics unless `cores` and `streams` have equal length.
    pub fn new(
        cores: Vec<Box<dyn CoreModel>>,
        streams: Vec<Box<dyn InstrStream>>,
        quantum: u64,
    ) -> Self {
        assert_eq!(cores.len(), streams.len(), "one stream per core");
        let done = vec![false; cores.len()];
        CpuCluster {
            cores,
            streams,
            done,
            quantum,
        }
    }

    /// Number of CPUs in the cluster.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the cluster has no CPUs.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The core model of `cpu` (statistics, local cycle).
    pub fn core(&self, cpu: usize) -> &dyn CoreModel {
        self.cores[cpu].as_ref()
    }

    /// Mutable access to the core model of `cpu` (fills are delivered
    /// to it; traffic dispatch realigns a parked core's local clock at
    /// admission).
    pub fn core_mut(&mut self, cpu: usize) -> &mut dyn CoreModel {
        self.cores[cpu].as_mut()
    }

    /// The instruction stream of `cpu`.
    pub fn stream(&self, cpu: usize) -> &dyn InstrStream {
        self.streams[cpu].as_ref()
    }

    /// Mutable access to the instruction stream of `cpu` (traffic
    /// dispatch drains completions and admits transactions).
    pub fn stream_mut(&mut self, cpu: usize) -> &mut dyn InstrStream {
        self.streams[cpu].as_mut()
    }

    /// Iterate the cores in index order.
    pub fn cores(&self) -> impl Iterator<Item = &dyn CoreModel> {
        self.cores.iter().map(|c| c.as_ref())
    }

    /// Iterate the instruction streams in index order.
    pub fn streams(&self) -> impl Iterator<Item = &dyn InstrStream> {
        self.streams.iter().map(|s| s.as_ref())
    }

    /// Whether `cpu`'s stream has ended.
    pub fn is_done(&self, cpu: usize) -> bool {
        self.done[cpu]
    }

    /// Total instructions retired by the cluster.
    pub fn instrs(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instrs).sum()
    }

    /// Let `cpu` execute up to the cluster quantum, appending the
    /// memory requests it issues to `reqs` with the core cycle each
    /// left the core. With `warm` the core runs its functional-warming
    /// path ([`CoreModel::warm_advance`]: architectural state evolves,
    /// timing is fixed at one cycle per instruction). Returns the core's
    /// status, or `None` without running it if the CPU is done or `ctx`
    /// has it disabled.
    pub fn step(
        &mut self,
        cpu: usize,
        warm: bool,
        ctx: CpuCtx<'_>,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> Option<CoreStatus> {
        if self.done[cpu] || !ctx.enabled {
            return None;
        }
        let (l1i, l1d) = ctx.l1s.pair_mut(CpuId(cpu as u8));
        let mut core_ctx = CoreCtx {
            l1i,
            l1d,
            versions: ctx.versions,
            version_stride: ctx.version_stride,
        };
        let (core, stream) = (&mut self.cores[cpu], self.streams[cpu].as_mut());
        let status = if warm {
            core.warm_advance(stream, &mut core_ctx, self.quantum, reqs)
        } else {
            core.advance(stream, &mut core_ctx, self.quantum, reqs)
        };
        if status == CoreStatus::Done {
            self.done[cpu] = true;
        }
        Some(status)
    }
}

#[cfg(test)]
mod tests {
    use piranha_cache::{L1Config, Mesi};
    use piranha_types::{Addr, LineAddr};

    use super::*;
    use crate::{InOrderConfig, InOrderCore, OpKind, StreamOp};

    /// A one-CPU cluster over `ops`, with a 10-instruction quantum and
    /// the instruction line at PC 0 already in its L1.
    fn cluster(ops: Vec<OpKind>) -> (CpuCluster, L1Set) {
        let mut ops = ops.into_iter().map(|kind| StreamOp { pc: Addr(0), kind });
        let stream: Box<dyn InstrStream> = Box::new(move || ops.next());
        let core: Box<dyn CoreModel> = Box::new(InOrderCore::new(InOrderConfig::paper_default()));
        let mut l1s = L1Set::new(1, L1Config::paper_default());
        l1s.pair_mut(CpuId(0))
            .0
            .fill(Addr(0).line(), Mesi::Shared, 0);
        (CpuCluster::new(vec![core], vec![stream], 10), l1s)
    }

    /// Step CPU 0 once, `enabled` or not; returns its status and the
    /// lines it issued requests for, in issue order.
    fn step(
        cpus: &mut CpuCluster,
        l1s: &mut L1Set,
        enabled: bool,
    ) -> (Option<CoreStatus>, Vec<LineAddr>) {
        let mut versions = 0;
        let ctx = CpuCtx {
            l1s,
            versions: &mut versions,
            version_stride: 1,
            enabled,
        };
        let mut reqs = Vec::new();
        let status = cpus.step(0, false, ctx, &mut reqs);
        (status, reqs.iter().map(|(_, r)| r.line).collect())
    }

    const ALU: OpKind = OpKind::Alu {
        mul: false,
        dep1: 0,
        dep2: 0,
    };

    #[test]
    fn a_step_issues_in_order_and_stays_runnable() {
        // Two store misses the store buffer lets past the core, then
        // more ALU work than one quantum retires.
        let mut ops = vec![
            OpKind::Store { addr: Addr(0x80) },
            OpKind::Store { addr: Addr(0xc0) },
        ];
        ops.extend([ALU; 20]);
        let (mut cpus, mut l1s) = cluster(ops);
        // A CPU the system controller has stopped does not run.
        assert_eq!(step(&mut cpus, &mut l1s, false), (None, vec![]));
        assert_eq!(cpus.core(0).stats().instrs, 0);
        let (status, issued) = step(&mut cpus, &mut l1s, true);
        assert_eq!(status, Some(CoreStatus::Runnable));
        assert_eq!(issued, [Addr(0x80).line(), Addr(0xc0).line()]);
    }

    #[test]
    fn a_step_that_ends_the_stream_is_done_then_none() {
        let (mut cpus, mut l1s) = cluster(vec![ALU; 3]);
        assert_eq!(
            step(&mut cpus, &mut l1s, true),
            (Some(CoreStatus::Done), vec![])
        );
        assert!(cpus.is_done(0));
        assert_eq!(
            step(&mut cpus, &mut l1s, true),
            (None, vec![]),
            "a done CPU runs no further and issues nothing"
        );
    }
}
