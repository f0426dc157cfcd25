//! The CPU-cluster component adapter.
//!
//! Wraps one node's cores and instruction streams behind the kernel's
//! [`Component`] interface: the wiring delivers [`CpuEvent`]s (step,
//! fill) and receives [`CpuAction`]s (memory requests, reschedules,
//! completion) through the output port, in exactly the order the cores
//! produce them. Clock-domain conversion, ICS transfer charging, and L2
//! routing stay outside — the cluster speaks only core cycles.

use piranha_cache::L1Set;
use piranha_kernel::{Component, Port};
use piranha_types::{CpuId, FillSource, SimTime};

use crate::{CoreCtx, CoreModel, CoreStatus, InstrStream, MemReq};

/// An event delivered to one CPU of the cluster.
#[derive(Debug, Clone)]
pub enum CpuEvent {
    /// Let the CPU execute up to its quantum ([`CpuCluster::step`]).
    Step {
        /// Node-local CPU index.
        cpu: usize,
    },
    /// Deliver the completion of outstanding request `id`.
    Fill {
        /// Node-local CPU index.
        cpu: usize,
        /// The core-local request id being completed.
        id: u64,
        /// Where the data came from (for the stall breakdown).
        source: FillSource,
    },
}

/// An action emitted by the cluster. Cycle-domain timestamps
/// (`at_cycle`) are converted to simulation time by the wiring, which
/// clamps them to be no earlier than the triggering event.
#[derive(Debug, Clone)]
pub enum CpuAction {
    /// A memory request left the core at `at_cycle`, bound for the L2.
    Issue {
        /// Issuing CPU.
        cpu: usize,
        /// Core-local cycle at which the request left the core.
        at_cycle: u64,
        /// The request itself.
        req: MemReq,
    },
    /// Reschedule the CPU's next step at `at_cycle` (0 = immediately).
    Wake {
        /// CPU to reschedule.
        cpu: usize,
        /// Core-local cycle of the next step.
        at_cycle: u64,
    },
    /// The CPU's stream ended; it retires no further instructions.
    Finished {
        /// The finished CPU.
        cpu: usize,
    },
}

/// Per-event context the cluster borrows from its node: the cache
/// complex's L1s (the cores execute against them directly — Piranha's
/// L1s are tightly coupled to the core, §2.2), the global store-version
/// allocator, and this CPU's system-controller enable bit.
pub struct CpuCtx<'a> {
    /// The node's L1 caches, owned by the cache complex.
    pub l1s: &'a mut L1Set,
    /// Global store-version allocator.
    pub versions: &'a mut u64,
    /// Per-store increment for the allocator (see
    /// [`CoreCtx::version_stride`](crate::CoreCtx)).
    pub version_stride: u64,
    /// Whether the system controller has this CPU enabled.
    pub enabled: bool,
    /// For [`CpuEvent::Fill`]: the core-local cycle corresponding to
    /// the event's simulation time.
    pub fill_cycle: u64,
}

/// One node's CPUs: the cores, their instruction streams, and the
/// done-tracking the run loop needs.
pub struct CpuCluster {
    cores: Vec<Box<dyn CoreModel>>,
    streams: Vec<Box<dyn InstrStream>>,
    done: Vec<bool>,
    quantum: u64,
    /// Reusable request buffer for `advance`.
    req_buf: Vec<(u64, MemReq)>,
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
            req_buf: Vec::new(),
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

    /// Mutable access to the core model of `cpu` (traffic dispatch
    /// realigns a parked core's local clock at admission).
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
    /// timing is fixed at one cycle per instruction); the sampled
    /// execution driver calls this directly. Returns the core's status,
    /// or `None` without running it if the CPU is done or `ctx` has it
    /// disabled.
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

impl Component for CpuCluster {
    type Event = CpuEvent;
    type Action = CpuAction;
    type Ctx<'a> = CpuCtx<'a>;

    fn handle(
        &mut self,
        now: SimTime,
        event: CpuEvent,
        ctx: CpuCtx<'_>,
        out: &mut Port<CpuAction>,
    ) {
        match event {
            CpuEvent::Step { cpu } => {
                let mut reqs = std::mem::take(&mut self.req_buf);
                debug_assert!(reqs.is_empty());
                let status = self.step(cpu, false, ctx, &mut reqs);
                for (at_cycle, req) in reqs.drain(..) {
                    out.emit(now, CpuAction::Issue { cpu, at_cycle, req });
                }
                self.req_buf = reqs;
                match status {
                    Some(CoreStatus::Runnable) => out.emit(
                        now,
                        CpuAction::Wake {
                            cpu,
                            at_cycle: self.cores[cpu].now_cycle(),
                        },
                    ),
                    Some(CoreStatus::Done) => out.emit(now, CpuAction::Finished { cpu }),
                    Some(CoreStatus::Blocked) | None => {}
                }
            }
            CpuEvent::Fill { cpu, id, source } => {
                self.cores[cpu].fill(id, ctx.fill_cycle, source);
                out.emit(now, CpuAction::Wake { cpu, at_cycle: 0 });
            }
        }
    }
}
