//! The CPU-cluster component adapter.
//!
//! Wraps one node's cores and instruction streams behind one handler,
//! [`CpuCluster::handle`]: the wiring delivers [`CpuEvent`]s (step,
//! fill) and gets back [`CpuAction`]s (memory requests, reschedules,
//! completion) appended to its buffer, in exactly the order the cores
//! produce them. Clock-domain conversion, ICS transfer charging, and L2
//! routing stay outside — the cluster speaks only core cycles.

use piranha_cache::L1Set;
use piranha_types::{CpuId, FillSource};

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

    /// Handle one event, appending the resulting actions to `out`: on
    /// [`CpuEvent::Step`] every request the step issued, in issue
    /// order, then the `Wake` (still runnable) or `Finished` (stream
    /// ended); on [`CpuEvent::Fill`] one immediate `Wake`.
    pub fn handle(&mut self, event: CpuEvent, ctx: CpuCtx<'_>, out: &mut Vec<CpuAction>) {
        match event {
            CpuEvent::Step { cpu } => {
                let mut reqs = std::mem::take(&mut self.req_buf);
                debug_assert!(reqs.is_empty());
                let status = self.step(cpu, false, ctx, &mut reqs);
                out.extend(reqs.drain(..).map(|(at_cycle, req)| CpuAction::Issue {
                    cpu,
                    at_cycle,
                    req,
                }));
                self.req_buf = reqs;
                match status {
                    Some(CoreStatus::Runnable) => out.push(CpuAction::Wake {
                        cpu,
                        at_cycle: self.cores[cpu].now_cycle(),
                    }),
                    Some(CoreStatus::Done) => out.push(CpuAction::Finished { cpu }),
                    Some(CoreStatus::Blocked) | None => {}
                }
            }
            CpuEvent::Fill { cpu, id, source } => {
                self.cores[cpu].fill(id, ctx.fill_cycle, source);
                out.push(CpuAction::Wake { cpu, at_cycle: 0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use piranha_cache::{L1Config, Mesi};
    use piranha_types::Addr;

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

    fn handle(cpus: &mut CpuCluster, l1s: &mut L1Set, ev: CpuEvent) -> Vec<CpuAction> {
        let mut versions = 0;
        let ctx = CpuCtx {
            l1s,
            versions: &mut versions,
            version_stride: 1,
            enabled: true,
            fill_cycle: 0,
        };
        let mut out = Vec::new();
        cpus.handle(ev, ctx, &mut out);
        out
    }

    const ALU: OpKind = OpKind::Alu {
        mul: false,
        dep1: 0,
        dep2: 0,
    };

    #[test]
    fn a_step_appends_its_issues_in_order_then_the_wake() {
        // Two store misses the store buffer lets past the core, then
        // more ALU work than one quantum retires.
        let mut ops = vec![
            OpKind::Store { addr: Addr(0x80) },
            OpKind::Store { addr: Addr(0xc0) },
        ];
        ops.extend([ALU; 20]);
        let (mut cpus, mut l1s) = cluster(ops);
        let out = handle(&mut cpus, &mut l1s, CpuEvent::Step { cpu: 0 });
        let issued: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                CpuAction::Issue { cpu: 0, req, .. } => Some(req.line),
                _ => None,
            })
            .collect();
        assert_eq!(issued, [Addr(0x80).line(), Addr(0xc0).line()]);
        assert_eq!(out.len(), 3, "{out:?}");
        let now = cpus.core(0).now_cycle();
        assert!(
            matches!(out[2], CpuAction::Wake { cpu: 0, at_cycle } if at_cycle == now),
            "{out:?}"
        );

        // A fill appends exactly one immediate wake.
        let CpuAction::Issue { req, .. } = out[0] else {
            unreachable!()
        };
        let fill = CpuEvent::Fill {
            cpu: 0,
            id: req.id,
            source: FillSource::LocalMem,
        };
        let out = handle(&mut cpus, &mut l1s, fill);
        assert_eq!(format!("{out:?}"), "[Wake { cpu: 0, at_cycle: 0 }]");
    }

    #[test]
    fn a_step_that_ends_the_stream_appends_finished() {
        let (mut cpus, mut l1s) = cluster(vec![ALU; 3]);
        let out = handle(&mut cpus, &mut l1s, CpuEvent::Step { cpu: 0 });
        assert_eq!(format!("{out:?}"), "[Finished { cpu: 0 }]");
        assert!(cpus.is_done(0));
        let out = handle(&mut cpus, &mut l1s, CpuEvent::Step { cpu: 0 });
        assert!(out.is_empty(), "a done CPU appends nothing: {out:?}");
    }
}
