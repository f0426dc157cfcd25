//! The availability ledger attached to a run's results.

use std::collections::BTreeMap;

use crate::schedule::FaultKind;

/// Counts of faults injected and how each was handled, plus the repair
/// latency they cost. Attached to `RunResult` and folded into its
/// fingerprint, so two runs only fingerprint-match when they saw the
/// same faults handled the same way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AvailabilityReport {
    /// Total faults injected (scripted + random).
    pub injected: u64,
    /// Faults repaired transparently (CRC retransmit within budget, ECC
    /// single-bit scrub, engine replay, router stall absorbed).
    pub corrected: u64,
    /// Faults that exhausted their first-line recovery and escalated
    /// (retry budget blown, double-bit error → mirroring failover).
    pub escalated: u64,
    /// Packet retransmissions performed (can exceed `injected`: one
    /// flap may take several attempts).
    pub retransmits: u64,
    /// Total repair latency in CPU cycles, summed over faults.
    pub recovery_cycles: u64,
    /// Injections per fault kind.
    pub by_kind: BTreeMap<FaultKind, u64>,
}

impl AvailabilityReport {
    /// Mean time to repair, in cycles per injected fault (0 when no
    /// faults were injected).
    pub fn mttr_cycles(&self) -> u64 {
        self.recovery_cycles.checked_div(self.injected).unwrap_or(0)
    }

    /// The structural identity every run must satisfy: each injected
    /// fault was resolved exactly once.
    pub fn is_consistent(&self) -> bool {
        self.corrected + self.escalated == self.injected
            && self.by_kind.values().sum::<u64>() == self.injected
    }

    /// Fold another ledger into this one (counts add, per-kind maps
    /// union). Used to aggregate per-lane ledgers of a partitioned
    /// machine into one machine-wide report; merging consistent reports
    /// yields a consistent report.
    pub fn merge(&mut self, other: &AvailabilityReport) {
        self.injected += other.injected;
        self.corrected += other.corrected;
        self.escalated += other.escalated;
        self.retransmits += other.retransmits;
        self.recovery_cycles += other.recovery_cycles;
        for (&kind, &count) in &other.by_kind {
            *self.by_kind.entry(kind).or_insert(0) += count;
        }
    }

    /// A stable digest string folded into `RunResult::fingerprint` —
    /// identical reports (including the all-zero disabled one) digest
    /// identically.
    pub fn digest(&self) -> String {
        format!(
            "inj{}cor{}esc{}ret{}rec{}",
            self.injected, self.corrected, self.escalated, self.retransmits, self.recovery_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_consistent_and_quiet() {
        let r = AvailabilityReport::default();
        assert!(r.is_consistent());
        assert_eq!(r.mttr_cycles(), 0);
        assert_eq!(r.digest(), "inj0cor0esc0ret0rec0");
    }

    #[test]
    fn consistency_requires_exact_resolution() {
        let mut r = AvailabilityReport {
            injected: 3,
            corrected: 2,
            escalated: 1,
            ..Default::default()
        };
        r.by_kind.insert(FaultKind::LinkFlap, 3);
        assert!(r.is_consistent());
        r.corrected = 3;
        assert!(!r.is_consistent(), "double-resolved fault detected");
    }

    #[test]
    fn merge_sums_counts_and_unions_kinds() {
        let mut a = AvailabilityReport {
            injected: 2,
            corrected: 2,
            retransmits: 1,
            recovery_cycles: 10,
            ..Default::default()
        };
        a.by_kind.insert(FaultKind::LinkFlap, 2);
        let mut b = AvailabilityReport {
            injected: 3,
            corrected: 2,
            escalated: 1,
            recovery_cycles: 30,
            ..Default::default()
        };
        b.by_kind.insert(FaultKind::LinkFlap, 1);
        b.by_kind.insert(FaultKind::MemFlipDouble, 2);
        a.merge(&b);
        assert_eq!(a.injected, 5);
        assert_eq!(a.corrected, 4);
        assert_eq!(a.escalated, 1);
        assert_eq!(a.retransmits, 1);
        assert_eq!(a.recovery_cycles, 40);
        assert_eq!(a.by_kind[&FaultKind::LinkFlap], 3);
        assert_eq!(a.by_kind[&FaultKind::MemFlipDouble], 2);
        assert!(
            a.is_consistent(),
            "merging consistent reports stays consistent"
        );
    }
}
