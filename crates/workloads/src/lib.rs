//! Synthetic commercial workloads (paper §3.1).
//!
//! The paper evaluates Piranha with Oracle 7.3.2 running a TPC-B-like
//! OLTP workload and a TPC-D-Q6-like DSS query under SimOS-Alpha. Neither
//! the database nor the full-system simulator is available, so this crate
//! implements *workload engines* that generate the instruction and
//! memory-reference streams those applications produce, from actual
//! transaction state machines over the same logical tables:
//!
//! * [`oltp`] — a banking database in the TPC-B schema (branches,
//!   tellers, accounts, history) with a shared SGA-style region, B-tree
//!   index probes, dedicated server processes (8 per CPU, as in the
//!   paper's runs), hot contended branch/teller rows, a shared log, and
//!   kernel-like activity. Its architectural signature matches the
//!   paper's characterization: large instruction and data footprints,
//!   high communication miss rates, and little instruction-level
//!   parallelism.
//! * [`dss`] — a parallel sequential scan with predicate + aggregate
//!   over a lineitem-like table (4 processes per CPU): tiny instruction
//!   footprint, streaming spatial locality, high ILP, small memory-stall
//!   component.
//! * [`web`] — an AltaVista-like search-engine workload (paper §6:
//!   web servers "exhibit behavior similar to decision support"):
//!   streaming posting-list walks with a light shared-metadata
//!   component.
//! * [`synth`] — a fully parameterized synthetic stream for ablations
//!   and property tests.
//!
//! All generators are deterministic from a seed and implement
//! `piranha_cpu::InstrStream`.

#![warn(missing_docs)]

pub mod dss;
pub mod layout;
pub mod oltp;
pub mod synth;
pub mod web;

pub use dss::{DssConfig, DssStream};
pub use layout::{Layout, Region};
pub use oltp::{OltpConfig, OltpStream};
pub use synth::{SynthConfig, SynthStream};
pub use web::{WebConfig, WebStream};

use piranha_cpu::{InstrStream, StreamOp};

/// The workloads of the paper's evaluation, plus the synthetic stream.
#[derive(Debug, Clone)]
pub enum Workload {
    /// TPC-B-like on-line transaction processing.
    Oltp(OltpConfig),
    /// TPC-D-Q6-like decision support scan.
    Dss(DssConfig),
    /// Parameterized synthetic stream.
    Synth(SynthConfig),
    /// AltaVista-like web search (paper §6: "behavior similar to DSS").
    Web(WebConfig),
}

impl Workload {
    /// Build the per-CPU instruction stream for CPU `cpu_index` of
    /// `total_cpus`, deterministic in `seed`.
    pub fn stream_for_cpu(
        &self,
        cpu_index: usize,
        total_cpus: usize,
        seed: u64,
    ) -> Box<dyn InstrStream> {
        match self {
            Workload::Oltp(cfg) => {
                Box::new(OltpStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
            Workload::Dss(cfg) => {
                Box::new(DssStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
            Workload::Synth(cfg) => {
                Box::new(SynthStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
            Workload::Web(cfg) => {
                Box::new(WebStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
        }
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Oltp(_) => "OLTP",
            Workload::Dss(_) => "DSS",
            Workload::Synth(_) => "SYNTH",
            Workload::Web(_) => "WEB",
        }
    }
}

/// The ops of one generated unit of work (a transaction, a scanned
/// line, a query), read front to back. The generators refill it only
/// once it has been read out, so a `Vec` with a read cursor does the
/// work of a ring buffer with none of its index wrapping.
#[derive(Debug, Default)]
pub(crate) struct OpBuf {
    ops: Vec<StreamOp>,
    next: usize,
}

impl OpBuf {
    /// Whether every op pushed so far has been read.
    pub(crate) fn is_empty(&self) -> bool {
        self.next == self.ops.len()
    }

    /// Append `op`. Once every op pushed has been read, the buffer
    /// starts over from the front, so it never grows past one unit.
    pub(crate) fn push_back(&mut self, op: StreamOp) {
        if self.is_empty() {
            self.ops.clear();
            self.next = 0;
        }
        self.ops.push(op);
    }

    /// The oldest unread op.
    pub(crate) fn pop_front(&mut self) -> Option<StreamOp> {
        let op = self.ops.get(self.next).copied();
        self.next += usize::from(op.is_some());
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_cpu::OpKind;
    use piranha_types::Addr;

    fn op(pc: u64) -> StreamOp {
        StreamOp {
            pc: Addr(pc),
            kind: OpKind::Alu {
                mul: false,
                dep1: 0,
                dep2: 0,
            },
        }
    }

    #[test]
    fn op_buf_is_a_fifo_across_refills() {
        let mut b = OpBuf::default();
        assert!(b.is_empty());
        assert_eq!(b.pop_front(), None);
        b.push_back(op(1));
        b.push_back(op(2));
        assert_eq!(b.pop_front(), Some(op(1)));
        b.push_back(op(3));
        assert_eq!(b.pop_front(), Some(op(2)));
        assert_eq!(b.pop_front(), Some(op(3)));
        assert!(b.is_empty());
        assert_eq!(b.pop_front(), None);
        b.push_back(op(4));
        assert_eq!(b.ops.len(), 1, "read-out space is reused");
        assert_eq!(b.pop_front(), Some(op(4)));
    }
}
