//! The Intra-Chip Switch (ICS) — paper §2.2.
//!
//! The ICS is the crossbar connecting the 27 on-chip clients (8 CPUs'
//! L1 pairs, 8 L2 banks, two protocol engines, the packet switch, and the
//! system controller). It is "uni-directional, push-only": the initiator
//! sources data, a grant starts a transfer of one 64-bit word per cycle,
//! and transfers are atomic. Eight internal datapaths provide 32 GB/s of
//! aggregate capacity — about three times the memory bandwidth, so "an
//! optimal schedule is not critical" — and two logical lanes (low/high
//! priority) break protocol deadlocks.
//!
//! The timing model reflects that structure: a transfer acquires one of
//! the [`DATAPATHS`] datapath servers for its serialization time (header
//! word + optional 8-word cache line) after a fixed [`GRANT_CYCLES`]
//! arbitration/grant delay at the chip clock, and per-lane statistics
//! are kept. Because capacity is plentiful, queueing only appears under
//! heavy bursts, exactly as in the real design.

#![warn(missing_docs)]

use piranha_kernel::{Counter, MultiServer};
use piranha_types::time::Clock;
use piranha_types::{Duration, Lane, SimTime};

/// Number of internal datapaths (8 in the paper).
pub const DATAPATHS: usize = 8;

/// Arbitration + grant pipeline depth in cycles before data moves.
pub const GRANT_CYCLES: u64 = 2;

/// The size of an ICS transaction, in 64-bit data words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferSize {
    /// A request/grant/invalidate message: header only.
    Header,
    /// A full 64-byte cache line plus header.
    Line,
}

impl TransferSize {
    /// Number of 64-bit words moved.
    pub fn words(self) -> u64 {
        match self {
            TransferSize::Header => 1,
            TransferSize::Line => 9,
        }
    }
}

/// The intra-chip switch timing model.
///
/// # Examples
///
/// ```
/// use piranha_ics::{Ics, TransferSize};
/// use piranha_types::time::Clock;
/// use piranha_types::{Lane, SimTime};
///
/// let mut ics = Ics::new(Clock::from_mhz(500));
/// let t = ics.transfer(SimTime::ZERO, TransferSize::Header, Lane::Low);
/// // 2-cycle grant + 1 word at 500 MHz = 6 ns.
/// assert_eq!(t.as_ns(), 6);
/// ```
#[derive(Debug)]
pub struct Ics {
    /// The chip clock (transfers move one 64-bit word per cycle).
    clock: Clock,
    datapaths: MultiServer,
    transfers: [Counter; 2],
    words: Counter,
}

impl Ics {
    /// A new, idle switch clocked with the chip.
    pub fn new(clock: Clock) -> Self {
        Ics {
            clock,
            datapaths: MultiServer::new(DATAPATHS),
            transfers: [Counter::new(); 2],
            words: Counter::new(),
        }
    }

    /// Perform a transfer starting at `now`; returns when the last word
    /// arrives at the destination.
    ///
    /// The high-priority lane models the paper's second logical lane: it
    /// exists to break deadlocks, not to preempt (the real ICS shares the
    /// datapaths too and distinguishes lanes only by ready lines), so both
    /// lanes share the datapath pool here and are tracked separately in
    /// the statistics.
    pub fn transfer(&mut self, now: SimTime, size: TransferSize, lane: Lane) -> SimTime {
        let idx = usize::from(lane == Lane::High);
        self.transfers[idx].inc();
        self.words.add(size.words());
        let service = self.clock.cycles_dur(size.words());
        let granted = now + self.clock.cycles_dur(GRANT_CYCLES);
        self.datapaths.acquire(granted, service)
    }

    /// Total transfers on the low-priority (and I/O) lane.
    pub fn low_transfers(&self) -> u64 {
        self.transfers[0].get()
    }

    /// Total transfers on the high-priority lane.
    pub fn high_transfers(&self) -> u64 {
        self.transfers[1].get()
    }

    /// Total 64-bit words moved.
    pub fn words_moved(&self) -> u64 {
        self.words.get()
    }

    /// Aggregate datapath utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_ps() == 0 {
            return 0.0;
        }
        let cap = Duration::from_ps(horizon.as_ps() * DATAPATHS as u64);
        self.datapaths.busy_time().as_ps() as f64 / cap.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_ics() -> Ics {
        Ics::new(Clock::from_mhz(500))
    }

    #[test]
    fn header_and_line_sizes() {
        assert_eq!(TransferSize::Header.words(), 1);
        assert_eq!(TransferSize::Line.words(), 9);
    }

    #[test]
    fn uncontended_latency() {
        let mut ics = paper_ics();
        // 2 grant cycles + 9 words at 2ns/cycle = 22ns for a line.
        let t = ics.transfer(SimTime::ZERO, TransferSize::Line, Lane::High);
        assert_eq!(t.as_ns(), 22);
    }

    #[test]
    fn eight_transfers_proceed_in_parallel() {
        let mut ics = paper_ics();
        let times: Vec<u64> = (0..8)
            .map(|_| {
                ics.transfer(SimTime::ZERO, TransferSize::Line, Lane::Low)
                    .as_ns()
            })
            .collect();
        assert!(
            times.iter().all(|&t| t == 22),
            "all eight datapaths usable: {times:?}"
        );
        // The ninth queues behind one of them.
        let t9 = ics.transfer(SimTime::ZERO, TransferSize::Line, Lane::Low);
        assert_eq!(t9.as_ns(), 40);
    }

    #[test]
    fn lane_statistics_are_separate() {
        let mut ics = paper_ics();
        ics.transfer(SimTime::ZERO, TransferSize::Header, Lane::Low);
        ics.transfer(SimTime::ZERO, TransferSize::Header, Lane::Io);
        ics.transfer(SimTime::ZERO, TransferSize::Line, Lane::High);
        assert_eq!(ics.low_transfers(), 2);
        assert_eq!(ics.high_transfers(), 1);
        assert_eq!(ics.words_moved(), 11);
    }

    #[test]
    fn utilization_accounts_for_all_datapaths() {
        let mut ics = paper_ics();
        ics.transfer(SimTime::ZERO, TransferSize::Line, Lane::Low);
        let u = ics.utilization(SimTime::from_ns(180));
        assert!(u > 0.0 && u < 0.05, "u = {u}");
        assert_eq!(ics.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn paper_bandwidth_matches_32_gb_per_s() {
        // 8 datapaths x 8 bytes/cycle x 500 MHz = 32 GB/s.
        let bytes_per_s = DATAPATHS as u64 * 8 * paper_ics().clock.mhz() * 1_000_000;
        assert_eq!(bytes_per_s, 32_000_000_000);
    }
}
