//! The fault plane: the object the machine consults at dispatch points.
//!
//! Each fault category (packet, router stall, memory, engine) has its
//! own PRNG stream derived from `fault_seed ^ machine_seed`, so adding a
//! consult in one category never shifts the draws of another, and the
//! same seed reproduces the same fault sequence bit-for-bit. Scripted
//! events fire on the first consult of their category at or after their
//! cycle, independently of the random rate.

use piranha_kernel::Prng;

use crate::report::AvailabilityReport;
use crate::schedule::{FaultConfig, FaultKind, FaultSchedule, RETRY_BUDGET, STALL_CYCLES};

/// Independent-stream tags (arbitrary distinct constants).
const TAG_PACKET: u64 = 0xFA17_0001;
const TAG_STALL: u64 = 0xFA17_0002;
const TAG_MEM: u64 = 0xFA17_0003;
const TAG_ENGINE: u64 = 0xFA17_0004;

/// A packet fault decision: the payload is lost (flap) or corrupted
/// (caught by CRC); either way the sender must retransmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFault {
    /// [`FaultKind::LinkFlap`] or [`FaultKind::PacketCorrupt`].
    pub kind: FaultKind,
    /// How many transmission attempts fail before one succeeds. When
    /// this exceeds the retry budget the fault escalates (the final
    /// delivery still happens — the model keeps forward progress — but
    /// availability accounting records the budget blow-through).
    pub failed_attempts: u32,
    /// Raw entropy for choosing which payload bit to corrupt (the
    /// recovery path reduces it modulo the encoded payload width).
    pub flip_bit: u32,
}

/// A memory fault decision: one or two bits of a line's ECC word flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// [`FaultKind::MemFlipSingle`] or [`FaultKind::MemFlipDouble`].
    pub kind: FaultKind,
    /// First flipped bit position within the 72-bit SEC-DED codeword.
    pub bit_a: u32,
    /// Second flipped bit (only meaningful for double-bit faults;
    /// always differs from `bit_a`).
    pub bit_b: u32,
}

/// A protocol-engine hiccup decision: the engine's watchdog will expire
/// and the transaction replays from its TSRF inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHiccup {
    /// Always [`FaultKind::EngineHiccup`]; carried so recovery code can
    /// report uniformly.
    pub kind: FaultKind,
}

/// The machine-facing injection oracle plus the availability ledger.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    cfg: FaultConfig,
    schedule: FaultSchedule,
    /// Per-category cursors into the scripted queues:
    /// packet/stall/mem/engine.
    cursors: [usize; 4],
    packet_rng: Prng,
    stall_rng: Prng,
    mem_rng: Prng,
    engine_rng: Prng,
    enabled: bool,
    report: AvailabilityReport,
}

impl FaultPlane {
    /// Build the plane for one machine. The machine seed is mixed in so
    /// a given fault seed explores a different interleaving on each
    /// configuration, while (fault seed, machine config) stays fully
    /// reproducible.
    pub fn new(cfg: FaultConfig, machine_seed: u64) -> Self {
        let root = Prng::seed_from_u64(cfg.seed ^ machine_seed ^ 0x5EED_FA17);
        let schedule = FaultSchedule::compile(&cfg);
        let enabled = cfg.enabled();
        FaultPlane {
            packet_rng: root.derive(TAG_PACKET),
            stall_rng: root.derive(TAG_STALL),
            mem_rng: root.derive(TAG_MEM),
            engine_rng: root.derive(TAG_ENGINE),
            cfg,
            schedule,
            cursors: [0; 4],
            enabled,
            report: AvailabilityReport::default(),
        }
    }

    /// Build the plane for one lane (node) of a partitioned machine.
    ///
    /// Lane 0's plane is bit-identical to [`FaultPlane::new`], including
    /// the scripted schedule — scripted events fire exactly once
    /// machine-wide, and lane 0 owns them. Other lanes mix the node
    /// index into the machine seed (so their random streams are
    /// independent of lane 0's and of each other's) and carry no script.
    /// Each lane consults only its own plane, which is what keeps fault
    /// draws deterministic when lanes run on separate worker threads.
    pub fn for_node(cfg: FaultConfig, machine_seed: u64, node: usize) -> Self {
        if node == 0 {
            return Self::new(cfg, machine_seed);
        }
        let mut plane = Self::new(
            cfg,
            machine_seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        plane.schedule = FaultSchedule::default();
        plane
    }

    /// Whether anything can ever be injected. When false, every consult
    /// returns `None`/`false` without touching a PRNG.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pop a scripted event of category `cat` if one is due at
    /// `now_cycle` (at most one per consult, in cycle order).
    fn scripted(&mut self, cat: usize, now_cycle: u64) -> Option<FaultKind> {
        let queue = match cat {
            0 => &self.schedule.packet,
            1 => &self.schedule.stall,
            2 => &self.schedule.mem,
            _ => &self.schedule.engine,
        };
        let cur = self.cursors[cat];
        if cur < queue.len() && now_cycle >= queue[cur].at_cycle {
            self.cursors[cat] = cur + 1;
            Some(queue[cur].kind)
        } else {
            None
        }
    }

    /// Consult at a packet send. Returns the fault to inject, if any.
    pub fn packet_fault(&mut self, now_cycle: u64) -> Option<PacketFault> {
        if !self.enabled {
            return None;
        }
        let kind = match self.scripted(0, now_cycle) {
            Some(k) => k,
            None => {
                if self.cfg.rate <= 0.0 || !self.packet_rng.chance(self.cfg.rate) {
                    return None;
                }
                if self.packet_rng.below(2) == 0 {
                    FaultKind::LinkFlap
                } else {
                    FaultKind::PacketCorrupt
                }
            }
        };
        // How many attempts fail: usually one, occasionally a burst that
        // blows the retry budget and escalates.
        let burst = 1 + self.packet_rng.geometric(0.5) as u32;
        let failed_attempts = burst.min(RETRY_BUDGET + 1);
        let flip_bit = self.packet_rng.below(1 << 16) as u32;
        Some(PacketFault {
            kind,
            failed_attempts,
            flip_bit,
        })
    }

    /// Consult at a router hop. Returns the stall length in cycles, if
    /// this hop stalls.
    pub fn router_stall(&mut self, now_cycle: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let scripted = self.scripted(1, now_cycle).is_some();
        if !scripted && (self.cfg.rate <= 0.0 || !self.stall_rng.chance(self.cfg.rate)) {
            return None;
        }
        Some(STALL_CYCLES)
    }

    /// Consult at a memory line read. Returns the bit flips to apply to
    /// the line's SEC-DED codeword, if any.
    pub fn mem_fault(&mut self, now_cycle: u64) -> Option<MemFault> {
        if !self.enabled {
            return None;
        }
        let kind = match self.scripted(2, now_cycle) {
            Some(k) => k,
            None => {
                if self.cfg.rate <= 0.0 || !self.mem_rng.chance(self.cfg.rate) {
                    return None;
                }
                // Double-bit flips are the rare tail of the distribution.
                if self.mem_rng.below(8) == 0 {
                    FaultKind::MemFlipDouble
                } else {
                    FaultKind::MemFlipSingle
                }
            }
        };
        let bit_a = self.mem_rng.below(72) as u32;
        let bit_b = (bit_a + 1 + self.mem_rng.below(71) as u32) % 72;
        Some(MemFault { kind, bit_a, bit_b })
    }

    /// Consult at a protocol-engine dispatch. Returns the hiccup to
    /// inject, if any.
    pub fn engine_hiccup(&mut self, now_cycle: u64) -> Option<EngineHiccup> {
        if !self.enabled {
            return None;
        }
        let scripted = self.scripted(3, now_cycle).is_some();
        if !scripted && (self.cfg.rate <= 0.0 || !self.engine_rng.chance(self.cfg.rate)) {
            return None;
        }
        Some(EngineHiccup {
            kind: FaultKind::EngineHiccup,
        })
    }

    /// Record the resolution of one injected fault. Must be called
    /// exactly once per decision returned by the consult methods — that
    /// discipline is what makes `corrected + escalated == injected` a
    /// structural identity rather than a hope.
    pub fn note_recovery(
        &mut self,
        kind: FaultKind,
        corrected: bool,
        mttr_cycles: u64,
        retransmits: u64,
    ) {
        self.report.injected += 1;
        if corrected {
            self.report.corrected += 1;
        } else {
            self.report.escalated += 1;
        }
        self.report.retransmits += retransmits;
        self.report.recovery_cycles += mttr_cycles;
        *self.report.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// The ledger so far.
    pub fn report(&self) -> &AvailabilityReport {
        &self.report
    }

    /// Scripted events not yet fired (e.g. scheduled past the end of the
    /// run); useful for experiment drivers to warn about dead script
    /// entries.
    pub fn unfired_scripted(&self) -> usize {
        self.schedule.len() - self.cursors.iter().sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consult_all(p: &mut FaultPlane, cycles: impl Iterator<Item = u64>) -> Vec<String> {
        let mut log = Vec::new();
        for c in cycles {
            if let Some(f) = p.packet_fault(c) {
                log.push(format!("pkt@{c}:{:?}", f));
            }
            if let Some(s) = p.router_stall(c) {
                log.push(format!("stall@{c}:{s}"));
            }
            if let Some(f) = p.mem_fault(c) {
                log.push(format!("mem@{c}:{:?}", f));
            }
            if p.engine_hiccup(c).is_some() {
                log.push(format!("eng@{c}"));
            }
        }
        log
    }

    #[test]
    fn disabled_plane_never_fires_and_never_draws() {
        let mut p = FaultPlane::new(FaultConfig::default(), 0xB10_CA5);
        assert!(!p.enabled());
        let before = p.packet_rng.clone();
        assert!(consult_all(&mut p, 0..10_000).is_empty());
        // No PRNG state advanced: a zero-rate run is bit-identical to a
        // fault-free one by construction.
        assert_eq!(p.packet_rng, before);
        assert!(p.report().is_consistent());
        assert_eq!(p.report().injected, 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig::seeded(42, 0.01);
        let mut a = FaultPlane::new(cfg.clone(), 7);
        let mut b = FaultPlane::new(cfg, 7);
        let la = consult_all(&mut a, 0..50_000);
        let lb = consult_all(&mut b, 0..50_000);
        assert!(!la.is_empty(), "rate 1% over 50k consults fired");
        assert_eq!(la, lb, "bit-identical fault sequences");
    }

    #[test]
    fn different_machine_seed_different_interleaving() {
        let cfg = FaultConfig::seeded(42, 0.01);
        let mut a = FaultPlane::new(cfg.clone(), 1);
        let mut b = FaultPlane::new(cfg, 2);
        assert_ne!(
            consult_all(&mut a, 0..50_000),
            consult_all(&mut b, 0..50_000)
        );
    }

    #[test]
    fn categories_are_independent_streams() {
        let cfg = FaultConfig::seeded(9, 0.02);
        // Plane A consults only memory; plane B consults packets first.
        let mut a = FaultPlane::new(cfg.clone(), 0);
        let mut b = FaultPlane::new(cfg, 0);
        for c in 0..10_000 {
            b.packet_fault(c);
        }
        let ma: Vec<_> = (0..10_000).filter_map(|c| a.mem_fault(c)).collect();
        let mb: Vec<_> = (0..10_000).filter_map(|c| b.mem_fault(c)).collect();
        assert_eq!(ma, mb, "packet consults must not shift memory draws");
    }

    #[test]
    fn scripted_events_fire_once_at_their_cycle() {
        let cfg =
            FaultConfig::scripted("corrupt@100, flap@100, flip2@500, stall@2, hiccup@7").unwrap();
        let mut p = FaultPlane::new(cfg, 0);
        assert!(p.packet_fault(50).is_none(), "not due yet");
        let f1 = p.packet_fault(100).expect("corrupt due");
        assert_eq!(f1.kind, FaultKind::PacketCorrupt);
        let f2 = p.packet_fault(100).expect("flap due, one per consult");
        assert_eq!(f2.kind, FaultKind::LinkFlap);
        assert!(p.packet_fault(10_000).is_none(), "script exhausted");
        assert_eq!(p.router_stall(3), Some(60));
        assert!(p.engine_hiccup(7).is_some());
        let m = p.mem_fault(600).expect("flip2 due");
        assert_eq!(m.kind, FaultKind::MemFlipDouble);
        assert_ne!(m.bit_a, m.bit_b);
        assert_eq!(p.unfired_scripted(), 0);
    }

    #[test]
    fn note_recovery_keeps_the_identity() {
        let mut p = FaultPlane::new(FaultConfig::seeded(1, 0.05), 0);
        let mut fired = 0;
        for c in 0..5_000 {
            if let Some(f) = p.packet_fault(c) {
                fired += 1;
                let corrected = f.failed_attempts <= RETRY_BUDGET;
                p.note_recovery(f.kind, corrected, 10, f.failed_attempts as u64);
            }
            if let Some(m) = p.mem_fault(c) {
                fired += 1;
                p.note_recovery(m.kind, m.kind == FaultKind::MemFlipSingle, 40, 0);
            }
        }
        let r = p.report();
        assert!(fired > 0);
        assert_eq!(r.injected, fired);
        assert!(r.is_consistent());
        assert!(r.mttr_cycles() > 0);
    }

    #[test]
    fn mem_fault_bits_always_distinct_and_in_codeword() {
        let mut p = FaultPlane::new(FaultConfig::seeded(3, 1.0), 0);
        for c in 0..1_000 {
            let m = p.mem_fault(c).expect("rate 1.0 always fires");
            assert!(m.bit_a < 72 && m.bit_b < 72);
            assert_ne!(m.bit_a, m.bit_b);
        }
    }
}
