//! Instruction streams: what the timing models execute.
//!
//! A stream yields one [`StreamOp`] per architectural instruction. The
//! synthetic workload engines in `piranha-workloads` generate these
//! directly; [`IsaStream`] adapts a real Alpha-subset program running on
//! the `piranha-isa` interpreter, deriving true register-dependency
//! distances so the out-of-order model sees the program's actual ILP.

use piranha_isa::{ExecKind, Machine, Trap};
use piranha_types::Addr;

/// What one instruction does, as seen by a timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An integer/floating operation.
    Alu {
        /// Uses the long (pipelined multiply/FP) unit.
        mul: bool,
        /// Dependency distance to the first source operand's producer
        /// (0 = no dependency).
        dep1: u32,
        /// Dependency distance to the second source operand's producer.
        dep2: u32,
    },
    /// A data load.
    Load {
        /// Byte address accessed.
        addr: Addr,
        /// Dependency distance to the address-generating producer.
        dep_addr: u32,
    },
    /// A data store (retired through the store buffer).
    Store {
        /// Byte address accessed.
        addr: Addr,
    },
    /// A full-line write hint (`wh64`).
    WriteHint {
        /// Byte address of the line.
        addr: Addr,
    },
    /// A control transfer.
    Branch {
        /// Whether it was taken.
        taken: bool,
        /// Pre-decided prediction outcome (synthetic streams); `None`
        /// lets the core's BTB decide (ISA streams).
        mispredict: Option<bool>,
    },
    /// The stream's thread is idle for the given CPU cycles (e.g. I/O
    /// wait not hidden by other server processes).
    Idle {
        /// Idle cycles.
        cycles: u32,
    },
}

/// One instruction: its PC (for I-cache modelling) and its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOp {
    /// Instruction address.
    pub pc: Addr,
    /// What it does.
    pub kind: OpKind,
}

/// A source of instructions for a core.
///
/// `Send` so a node's streams can move onto a lane worker thread under
/// the parallel-in-space engine (`piranha-parsim`).
pub trait InstrStream: Send {
    /// The next instruction, or `None` when the stream ends.
    fn next_op(&mut self) -> Option<StreamOp>;

    /// How many workload-level units of work (transactions, scan lines)
    /// this stream has completed, for streams that have such a notion.
    /// Fixed-instruction-window runs return `None`; bounded workload
    /// streams report their count so fault-injection runs can prove
    /// they completed the same work as a fault-free run.
    fn txns_committed(&self) -> Option<u64> {
        None
    }

    /// Units of work completed for reporting (per-core throughput).
    /// Unlike [`InstrStream::txns_committed`] — which feeds
    /// `RunResult::fingerprint()` and must keep its exact legacy
    /// semantics — this may be overridden by streams whose unit of work
    /// is not a transaction (e.g. web queries).
    fn units_completed(&self) -> Option<u64> {
        self.txns_committed()
    }

    /// Open-loop gating (`piranha-traffic`): whether the stream is
    /// parked at a transaction boundary awaiting admission. Closed-loop
    /// streams never park, so cores skip all gating work.
    fn parked(&self) -> bool {
        false
    }

    /// Whether a detected transaction boundary has not yet been fully
    /// processed (commit cycle unstamped, or stamped but not collected).
    /// The dispatcher only consults the traffic plane once this clears.
    fn boundary_pending(&self) -> bool {
        false
    }

    /// Whether no further ops can ever be produced (the wrapped stream
    /// ended). The dispatcher unparks such a stream without admission so
    /// the core can observe `Done`.
    fn exhausted(&self) -> bool {
        false
    }

    /// Called by the core when it quiesces at a parked boundary: stamps
    /// the transaction's commit cycle (first call per boundary wins).
    fn mark_quiescent(&mut self, _cycle: u64) {}

    /// Collect a stamped commit cycle, if any (dispatcher side).
    fn take_completion(&mut self) -> Option<u64> {
        None
    }

    /// Admit the next transaction on a parked stream.
    fn admit(&mut self) {}
}

impl<F: FnMut() -> Option<StreamOp> + Send> InstrStream for F {
    fn next_op(&mut self) -> Option<StreamOp> {
        self()
    }
}

/// Adapts a `piranha-isa` [`Machine`] into an [`InstrStream`], deriving
/// register dependency distances from the architectural state.
///
/// # Examples
///
/// ```
/// use piranha_cpu::{InstrStream, IsaStream};
/// use piranha_isa::{asm, Machine};
///
/// let prog = asm::assemble("li r1, 4\nadd r2, r1, r1\nhalt").unwrap();
/// let mut s = IsaStream::new(Machine::new(prog));
/// let first = s.next_op().unwrap();
/// assert_eq!(first.pc.0, 0);
/// ```
#[derive(Debug)]
pub struct IsaStream {
    machine: Machine,
    /// Per-register index of the last writer (instruction count).
    last_writer: [u64; piranha_isa::NUM_REGS],
    index: u64,
    trapped: Option<Trap>,
}

impl IsaStream {
    /// Wrap a machine positioned at its entry point.
    pub fn new(machine: Machine) -> Self {
        IsaStream {
            machine,
            last_writer: [0; piranha_isa::NUM_REGS],
            index: 0,
            trapped: None,
        }
    }

    /// The wrapped machine (for inspecting registers/memory afterwards).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// A trap, if execution ended abnormally.
    pub fn trap(&self) -> Option<&Trap> {
        self.trapped.as_ref()
    }

    fn dep_of(&self, reg: piranha_isa::Reg) -> u32 {
        if reg == piranha_isa::ZERO_REG {
            return 0;
        }
        let w = self.last_writer[reg as usize];
        if w == 0 {
            0
        } else {
            (self.index - w).min(u32::MAX as u64) as u32
        }
    }
}

impl InstrStream for IsaStream {
    fn next_op(&mut self) -> Option<StreamOp> {
        if self.trapped.is_some() || self.machine.halted() {
            return None;
        }
        let before = self.machine.retired();
        let exec = match self.machine.step() {
            Ok(Some(e)) => e,
            Ok(None) => return None,
            Err(t) => {
                self.trapped = Some(t);
                return None;
            }
        };
        debug_assert_eq!(self.machine.retired(), before + 1);
        self.index += 1;
        // Locate the executed instruction to extract its registers.
        let instr_idx = (exec.pc.0 - self.machine.program().text_base) / 4;
        let instr = self.machine.program().instrs[instr_idx as usize];
        // Distances to the sources' writers, taken before this
        // instruction becomes its destination's last writer.
        let sources = instr.sources();
        let dep = |i: usize| sources.get(i).map_or(0, |&r| self.dep_of(r));
        let (dep1, dep2) = (dep(0), dep(1));
        if let Some(d) = instr.dest() {
            self.last_writer[d as usize] = self.index;
        }
        let kind = match exec.kind {
            ExecKind::Alu => OpKind::Alu {
                mul: false,
                dep1,
                dep2,
            },
            ExecKind::Mul => OpKind::Alu {
                mul: true,
                dep1,
                dep2,
            },
            ExecKind::Load(a) => OpKind::Load {
                addr: a,
                dep_addr: dep1,
            },
            ExecKind::Store(a) => OpKind::Store { addr: a },
            ExecKind::WriteHint(a) => OpKind::WriteHint { addr: a },
            ExecKind::Branch { taken } => OpKind::Branch {
                taken,
                mispredict: None,
            },
            ExecKind::Halt => return None,
        };
        Some(StreamOp { pc: exec.pc, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_isa::asm;

    fn stream_of(src: &str) -> Vec<StreamOp> {
        let mut s = IsaStream::new(Machine::new(asm::assemble(src).unwrap()));
        std::iter::from_fn(|| s.next_op()).collect()
    }

    #[test]
    fn ops_follow_program() {
        let ops = stream_of("li r1, 0x100\nldq r2, 0(r1)\nstq r2, 8(r1)\nhalt");
        assert_eq!(ops.len(), 3, "halt terminates the stream");
        assert!(matches!(ops[0].kind, OpKind::Alu { .. }));
        assert!(matches!(ops[1].kind, OpKind::Load { addr, .. } if addr.0 == 0x100));
        assert!(matches!(ops[2].kind, OpKind::Store { addr } if addr.0 == 0x108));
    }

    #[test]
    fn dependency_distances_reflect_registers() {
        // r2 depends on r1 written one instruction earlier; r3 on r1 at
        // distance two and r2 at distance one.
        let ops = stream_of("li r1, 5\naddi r2, r1, 1\nadd r3, r1, r2\nhalt");
        let OpKind::Alu { dep1, .. } = ops[1].kind else {
            panic!()
        };
        assert_eq!(dep1, 1);
        let OpKind::Alu { dep1, dep2, .. } = ops[2].kind else {
            panic!()
        };
        assert_eq!((dep1, dep2), (2, 1));
    }

    #[test]
    fn load_address_dependency() {
        let ops = stream_of("li r1, 0x40\nldq r2, 0(r1)\nhalt");
        let OpKind::Load { dep_addr, .. } = ops[1].kind else {
            panic!()
        };
        assert_eq!(dep_addr, 1);
    }

    #[test]
    fn branches_and_pcs() {
        let ops = stream_of("li r1, 1\nbeq r1, out\nout: halt");
        assert!(matches!(
            ops[1].kind,
            OpKind::Branch {
                taken: false,
                mispredict: None
            }
        ));
        assert_eq!(ops[0].pc.0, 0);
        assert_eq!(ops[1].pc.0, 4);
    }

    #[test]
    fn zero_register_never_creates_dependencies() {
        let ops = stream_of("li r31, 3\naddi r1, r31, 1\nhalt");
        let OpKind::Alu { dep1, .. } = ops[1].kind else {
            panic!()
        };
        assert_eq!(dep1, 0);
    }

    #[test]
    fn closure_streams_work() {
        let mut n = 0;
        let mut s = move || {
            n += 1;
            (n <= 2).then_some(StreamOp {
                pc: Addr(0),
                kind: OpKind::Alu {
                    mul: false,
                    dep1: 0,
                    dep2: 0,
                },
            })
        };
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_none());
    }
}
