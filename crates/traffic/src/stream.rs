//! The open-loop stream wrapper: parks a closed-loop instruction stream
//! at every transaction boundary so the traffic plane controls when the
//! next transaction begins.

use piranha_cpu::{InstrStream, StreamOp};

/// Wraps a closed-loop [`InstrStream`] (OLTP, web) and gates it on
/// open-loop admission.
///
/// The wrapper holds a one-op lookahead buffer. Transaction boundaries
/// are detected by watching the inner stream's
/// [`units_completed`](InstrStream::units_completed) counter: the
/// closed-loop generators bump it when the first op of the *next*
/// transaction is pulled, so the boundary is observed while the current
/// transaction's last op is being handed out — the core never sees an
/// op of transaction *N+1* before the plane admits it.
///
/// Lifecycle per transaction:
///
/// 1. starts **parked**; the core's park check sees
///    [`parked`](InstrStream::parked) and yields instead of fetching,
/// 2. the dispatcher polls the plane, which eventually
///    [`admit`](InstrStream::admit)s it,
/// 3. ops flow until the lookahead detects the next boundary and the
///    stream re-parks with the boundary *armed*,
/// 4. the core quiesces and calls
///    [`mark_quiescent`](InstrStream::mark_quiescent), stamping the
///    commit cycle, which the dispatcher drains via
///    [`take_completion`](InstrStream::take_completion) and forwards to
///    the plane.
pub struct OpenLoopStream {
    inner: Box<dyn InstrStream>,
    /// One-op lookahead (the op that triggered a boundary, or simply
    /// the next op).
    buf: Option<StreamOp>,
    /// No ops may be handed out until the plane admits.
    parked: bool,
    /// A boundary was detected but its commit cycle is not yet stamped.
    armed: bool,
    /// Stamped commit cycle awaiting collection by the dispatcher.
    completion: Option<u64>,
    /// Last observed `units_completed` of the inner stream.
    last_units: u64,
    /// The inner stream returned `None`.
    inner_done: bool,
}

impl OpenLoopStream {
    /// Wrap a closed-loop stream. Starts parked with no boundary armed:
    /// the first admission simply begins transaction 1.
    pub fn new(inner: Box<dyn InstrStream>) -> Self {
        let last_units = inner.units_completed().unwrap_or(0);
        OpenLoopStream {
            inner,
            buf: None,
            parked: true,
            armed: false,
            completion: None,
            last_units,
            inner_done: false,
        }
    }

    /// Pull the very first op of a transaction run (no boundary
    /// bookkeeping: the units bump observed here means the transaction
    /// *started*, not that one completed).
    fn prime(&mut self) {
        debug_assert!(self.buf.is_none() && !self.inner_done);
        match self.inner.next_op() {
            Some(op) => {
                self.buf = Some(op);
                self.last_units = self.inner.units_completed().unwrap_or(self.last_units);
            }
            None => self.inner_done = true,
        }
    }

    /// Refill the lookahead and detect a transaction boundary: a units
    /// bump means the buffered op belongs to the next transaction, and
    /// inner exhaustion means the final transaction just ended.
    fn prefetch(&mut self) {
        debug_assert!(self.buf.is_none() && !self.inner_done);
        match self.inner.next_op() {
            Some(op) => {
                self.buf = Some(op);
                let units = self.inner.units_completed().unwrap_or(self.last_units);
                if units != self.last_units {
                    self.last_units = units;
                    self.parked = true;
                    self.armed = true;
                }
            }
            None => {
                self.inner_done = true;
                self.parked = true;
                self.armed = true;
            }
        }
    }
}

impl InstrStream for OpenLoopStream {
    fn next_op(&mut self) -> Option<StreamOp> {
        debug_assert!(!self.parked, "next_op on a parked open-loop stream");
        if self.buf.is_none() {
            if self.inner_done {
                return None;
            }
            self.prime();
        }
        let cur = self.buf.take()?;
        if !self.inner_done && self.buf.is_none() {
            self.prefetch();
        }
        Some(cur)
    }

    fn txns_committed(&self) -> Option<u64> {
        self.inner.txns_committed()
    }

    fn units_completed(&self) -> Option<u64> {
        self.inner.units_completed()
    }

    fn parked(&self) -> bool {
        self.parked
    }

    fn boundary_pending(&self) -> bool {
        self.armed || self.completion.is_some()
    }

    fn exhausted(&self) -> bool {
        self.inner_done && self.buf.is_none()
    }

    fn mark_quiescent(&mut self, cycle: u64) {
        if self.armed {
            self.armed = false;
            self.completion = Some(cycle);
        }
    }

    fn take_completion(&mut self) -> Option<u64> {
        self.completion.take()
    }

    fn admit(&mut self) {
        debug_assert!(!self.boundary_pending(), "admit with an unclaimed boundary");
        self.parked = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_cpu::OpKind;
    use piranha_types::Addr;

    /// A closed-loop fake: `per_txn` ALU ops per transaction, `txns`
    /// transactions, bumping `units` when the first op of each new
    /// transaction is pulled (the OltpStream discipline).
    struct FakeTxnStream {
        per_txn: u64,
        txns: u64,
        emitted: u64,
        units: u64,
    }

    impl InstrStream for FakeTxnStream {
        fn next_op(&mut self) -> Option<StreamOp> {
            if self.emitted >= self.per_txn * self.txns {
                return None;
            }
            if self.emitted.is_multiple_of(self.per_txn) {
                self.units += 1;
            }
            self.emitted += 1;
            Some(StreamOp {
                pc: Addr(8 * self.emitted),
                kind: OpKind::Alu {
                    mul: false,
                    dep1: 0,
                    dep2: 0,
                },
            })
        }

        fn txns_committed(&self) -> Option<u64> {
            Some(self.units)
        }
    }

    fn wrap(per_txn: u64, txns: u64) -> OpenLoopStream {
        OpenLoopStream::new(Box::new(FakeTxnStream {
            per_txn,
            txns,
            emitted: 0,
            units: 0,
        }))
    }

    #[test]
    fn starts_parked_without_boundary() {
        let s = wrap(3, 2);
        assert!(s.parked());
        assert!(!s.boundary_pending());
        assert!(!s.exhausted());
    }

    #[test]
    fn txn_flows_then_reparks_at_boundary() {
        let mut s = wrap(3, 2);
        s.admit();
        assert!(!s.parked());
        for _ in 0..3 {
            assert!(s.next_op().is_some());
        }
        // Handing out op 3 prefetched op 4 (txn 2's first), arming the
        // boundary and re-parking.
        assert!(s.parked());
        assert!(s.boundary_pending());
        s.mark_quiescent(123);
        assert_eq!(s.take_completion(), Some(123));
        assert!(!s.boundary_pending());
        assert!(s.parked(), "still parked until re-admitted");
    }

    #[test]
    fn final_txn_arms_on_exhaustion() {
        let mut s = wrap(2, 1);
        s.admit();
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_some());
        assert!(s.parked() && s.boundary_pending());
        s.mark_quiescent(50);
        assert_eq!(s.take_completion(), Some(50));
        assert!(s.exhausted());
        s.admit();
        assert_eq!(s.next_op(), None, "exhausted stream ends cleanly");
    }

    #[test]
    fn mark_quiescent_is_idempotent_per_boundary() {
        let mut s = wrap(1, 2);
        s.admit();
        assert!(s.next_op().is_some());
        s.mark_quiescent(10);
        s.mark_quiescent(99);
        assert_eq!(s.take_completion(), Some(10), "first stamp wins");
        assert_eq!(s.take_completion(), None);
    }

    #[test]
    fn all_ops_delivered_across_admissions() {
        let mut s = wrap(4, 3);
        let mut total = 0;
        for txn in 0..3 {
            s.admit();
            while !s.parked() {
                if s.next_op().is_some() {
                    total += 1;
                }
            }
            s.mark_quiescent(txn);
            assert_eq!(s.take_completion(), Some(txn));
        }
        assert_eq!(total, 12, "every inner op surfaced exactly once");
        assert!(s.exhausted());
        assert_eq!(s.txns_committed(), Some(3));
    }
}
