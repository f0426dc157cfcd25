//! The cache-complex component adapter.
//!
//! One node's L1 set, interleaved L2 banks, and the bank occupancy
//! servers, behind the kernel's [`Component`] interface. The complex is
//! pure coherence-state logic: a [`CacheEvent`] names a bank and the
//! [`BankEvent`] to run through it, and every resulting [`BankAction`]
//! comes back out the port at the event's own time — latency (bank
//! occupancy, ICS transfers, memory reads) is charged by the wiring.

use piranha_kernel::{Component, Port, Server};
use piranha_types::{Duration, SimTime};

use crate::{BankAction, BankEvent, DupTags, L1Set, L2Bank};

/// An event for the cache complex: run `ev` through bank `bank`.
#[derive(Debug, Clone)]
pub struct CacheEvent {
    /// Target L2 bank index within this node.
    pub bank: usize,
    /// The protocol event to process.
    pub ev: BankEvent,
}

/// One node's cache hierarchy: L1 instruction/data pairs plus the
/// node-interleaved L2 banks and their occupancy servers.
#[derive(Debug)]
pub struct CacheComplex {
    l1s: L1Set,
    banks: Vec<L2Bank>,
    bank_srv: Vec<Server>,
    /// Reused buffer the banks append their actions to.
    actions: Vec<BankAction>,
}

impl CacheComplex {
    /// Assemble a complex from a pre-built L1 set and L2 banks.
    pub fn new(l1s: L1Set, banks: Vec<L2Bank>) -> Self {
        let bank_srv = (0..banks.len()).map(|_| Server::new()).collect();
        CacheComplex {
            l1s,
            banks,
            bank_srv,
            actions: Vec::new(),
        }
    }

    /// Number of L2 banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The duplicate-tag directory of bank `bank`.
    pub fn dup(&self, bank: usize) -> &DupTags {
        self.banks[bank].dup()
    }

    /// Bank `bank` itself (coherence checks, tests).
    pub fn bank(&self, bank: usize) -> &L2Bank {
        &self.banks[bank]
    }

    /// The node's L1 set.
    pub fn l1s(&self) -> &L1Set {
        &self.l1s
    }

    /// Mutable access to the L1 set (the CPU cluster advances against
    /// it; the RAS persist barrier scans it).
    pub fn l1s_mut(&mut self) -> &mut L1Set {
        &mut self.l1s
    }

    /// Acquire bank `bank`'s occupancy server for `dur` starting no
    /// earlier than `at`; returns the service start time.
    pub fn acquire(&mut self, bank: usize, at: SimTime, dur: Duration) -> SimTime {
        self.bank_srv[bank].acquire(at, dur)
    }

    /// Total lookups served across the node's banks.
    pub fn lookups(&self) -> u64 {
        self.bank_srv.iter().map(|s| s.jobs()).sum()
    }
}

impl Component for CacheComplex {
    type Event = CacheEvent;
    type Action = BankAction;
    type Ctx<'a> = ();

    fn handle(&mut self, now: SimTime, event: CacheEvent, _ctx: (), out: &mut Port<BankAction>) {
        self.banks[event.bank].handle_into(event.ev, &mut self.l1s, &mut self.actions);
        for act in self.actions.drain(..) {
            out.emit(now, act);
        }
    }
}
