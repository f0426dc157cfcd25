//! Fault configuration and schedules: what can fail, how often, when.
//!
//! A [`FaultConfig`] is carried inside the machine's `SystemConfig` (it
//! derives `Debug` so the memoized harness keys runs on it like every
//! other knob). It names a seed-driven random rate and/or an explicit
//! script of `kind@cycle` events; [`FaultSchedule::compile`] splits the
//! script into per-category queues so the [`crate::FaultPlane`] can fire
//! scripted events without scanning.

/// A typed fault event (paper §2.7's failure classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// An inter-chip link flap: the packet is lost in flight and must be
    /// retransmitted after the NACK timeout.
    LinkFlap,
    /// Packet payload bit-corruption: caught by the link CRC, NACKed,
    /// and retransmitted.
    PacketCorrupt,
    /// A transient router queue stall: the hop completes late.
    RouterStall,
    /// A memory single-bit flip: corrected in place by the SEC-DED
    /// scrub.
    MemFlipSingle,
    /// A memory double-bit flip: detected but uncorrectable by SEC-DED;
    /// escalates to mirroring failover when a mirror copy exists.
    MemFlipDouble,
    /// A protocol-engine hiccup: the engine's microcode watchdog expires
    /// and the transaction's TSRF entry is replayed from its inputs.
    EngineHiccup,
}

impl FaultKind {
    /// The short script token for this kind (`flap`, `corrupt`, `stall`,
    /// `flip1`, `flip2`, `hiccup`).
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::LinkFlap => "flap",
            FaultKind::PacketCorrupt => "corrupt",
            FaultKind::RouterStall => "stall",
            FaultKind::MemFlipSingle => "flip1",
            FaultKind::MemFlipDouble => "flip2",
            FaultKind::EngineHiccup => "hiccup",
        }
    }

    /// Parse a script token back into its kind (the inverse of
    /// [`FaultKind::token`]); used by fault-script parsing and by the
    /// persistent result store when rebuilding an availability ledger's
    /// per-kind map from its JSON envelope.
    pub fn from_token(tok: &str) -> Option<Self> {
        Some(match tok {
            "flap" => FaultKind::LinkFlap,
            "corrupt" => FaultKind::PacketCorrupt,
            "stall" => FaultKind::RouterStall,
            "flip1" => FaultKind::MemFlipSingle,
            "flip2" => FaultKind::MemFlipDouble,
            "hiccup" => FaultKind::EngineHiccup,
            _ => return None,
        })
    }
}

/// One explicitly scheduled fault: fire `kind` at the first consult of
/// its category at or after `at_cycle` (CPU cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// What fails.
    pub kind: FaultKind,
    /// When (CPU cycles since simulation start).
    pub at_cycle: u64,
}

/// Retransmit attempts allowed before a packet fault escalates.
pub const RETRY_BUDGET: u32 = 4;
/// Cycles for the NACK to reach the sender (per retransmit).
pub const NACK_CYCLES: u64 = 20;
/// Base cycles of exponential backoff (doubles per attempt).
pub const BACKOFF_CYCLES: u64 = 16;
/// Cycles for the ECC scrub that corrects a single-bit flip.
pub const SCRUB_CYCLES: u64 = 40;
/// Cycles to restore a line from its mirror after an uncorrectable
/// (double-bit) error.
pub const FAILOVER_CYCLES: u64 = 200;
/// Cycles a transient router stall delays one hop.
pub const STALL_CYCLES: u64 = 60;
/// Cycles of the protocol-engine watchdog timeout before a TSRF replay.
pub const REPLAY_TIMEOUT_CYCLES: u64 = 50;
/// While faults are enabled, lines `[0, MIRROR_LINES)` on every node are
/// registered as mirrored through `RasPolicy`, so double-bit
/// escalations have a mirror to fail over to.
pub const MIRROR_LINES: u64 = 64;

/// Exponential-backoff delay (cycles) before retransmit `attempt`
/// (1-based): `NACK_CYCLES + BACKOFF_CYCLES * 2^(attempt-1)`,
/// saturating.
pub fn retransmit_delay_cycles(attempt: u32) -> u64 {
    let factor = 1u64 << (attempt.saturating_sub(1)).min(16);
    NACK_CYCLES.saturating_add(BACKOFF_CYCLES.saturating_mul(factor))
}

/// The fault-injection knobs, carried in `SystemConfig`. The recovery
/// costs are the named constants above.
///
/// `Default` is fully disabled: zero rate, empty script, so existing
/// configurations are bit-for-bit unaffected.
///
/// # Examples
///
/// ```
/// use piranha_faults::FaultConfig;
/// assert!(!FaultConfig::default().enabled());
/// assert!(FaultConfig::seeded(42, 1e-4).enabled());
/// let f = FaultConfig::scripted("corrupt@1000, flip1@5000; hiccup@9000").unwrap();
/// assert_eq!(f.script.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault PRNG streams (XORed with the machine seed so
    /// the same fault seed explores different interleavings per config).
    pub seed: u64,
    /// Probability that any one consult (packet send, memory read,
    /// engine dispatch, router hop) injects a fault. Zero disables
    /// random injection.
    pub rate: f64,
    /// Explicitly scheduled faults, fired on top of the random rate.
    pub script: Vec<ScriptedFault>,
}

impl FaultConfig {
    /// A purely random schedule: every consult injects with probability
    /// `rate`, drawn from streams seeded by `seed`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            rate,
            ..Self::default()
        }
    }

    /// Parse an explicit script: comma- or semicolon-separated
    /// `kind@cycle` entries, where `kind` is one of `flap`, `corrupt`,
    /// `stall`, `flip1`, `flip2`, `hiccup`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    pub fn scripted(script: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for entry in script.split([',', ';']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (tok, cycle) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault script entry {entry:?}: expected kind@cycle"))?;
            let kind = FaultKind::from_token(tok.trim())
                .ok_or_else(|| format!("fault script entry {entry:?}: unknown kind {tok:?}"))?;
            let at_cycle: u64 = cycle
                .trim()
                .parse()
                .map_err(|e| format!("fault script entry {entry:?}: bad cycle ({e})"))?;
            events.push(ScriptedFault { kind, at_cycle });
        }
        events.sort_by_key(|e| e.at_cycle);
        Ok(FaultConfig {
            script: events,
            ..Self::default()
        })
    }

    /// Whether this configuration can inject anything at all. A disabled
    /// config costs zero PRNG draws and zero latency at every consult.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0 || !self.script.is_empty()
    }
}

/// The script compiled into per-category firing queues (each sorted by
/// cycle), so the plane pops scripted events in O(1) per consult.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Packet-category events (`flap`, `corrupt`), sorted by cycle.
    pub packet: Vec<ScriptedFault>,
    /// Router-stall events, sorted by cycle.
    pub stall: Vec<ScriptedFault>,
    /// Memory-flip events (`flip1`, `flip2`), sorted by cycle.
    pub mem: Vec<ScriptedFault>,
    /// Engine-hiccup events, sorted by cycle.
    pub engine: Vec<ScriptedFault>,
}

impl FaultSchedule {
    /// Split a config's script into the per-category queues.
    pub fn compile(cfg: &FaultConfig) -> Self {
        let mut s = FaultSchedule::default();
        for ev in &cfg.script {
            match ev.kind {
                FaultKind::LinkFlap | FaultKind::PacketCorrupt => s.packet.push(*ev),
                FaultKind::RouterStall => s.stall.push(*ev),
                FaultKind::MemFlipSingle | FaultKind::MemFlipDouble => s.mem.push(*ev),
                FaultKind::EngineHiccup => s.engine.push(*ev),
            }
        }
        s
    }

    /// Total scripted events across all categories.
    pub fn len(&self) -> usize {
        self.packet.len() + self.stall.len() + self.mem.len() + self.engine.len()
    }

    /// Whether no events are scripted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert_eq!(f.rate, 0.0);
        assert!(f.script.is_empty());
    }

    #[test]
    fn script_parses_all_kinds_and_sorts() {
        let f = FaultConfig::scripted("flip2@900, flap@100; corrupt@200, stall@50, hiccup@400")
            .unwrap();
        assert!(f.enabled());
        let kinds: Vec<_> = f.script.iter().map(|e| e.kind.token()).collect();
        assert_eq!(kinds, vec!["stall", "flap", "corrupt", "hiccup", "flip2"]);
        let s = FaultSchedule::compile(&f);
        assert_eq!(s.packet.len(), 2);
        assert_eq!(s.stall.len(), 1);
        assert_eq!(s.mem.len(), 1);
        assert_eq!(s.engine.len(), 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn script_rejects_garbage() {
        assert!(FaultConfig::scripted("flap").is_err());
        assert!(FaultConfig::scripted("meteor@100").is_err());
        assert!(FaultConfig::scripted("flap@soon").is_err());
        assert!(FaultConfig::scripted("  ,  ;  ").unwrap().script.is_empty());
    }

    #[test]
    fn token_round_trips() {
        for k in [
            FaultKind::LinkFlap,
            FaultKind::PacketCorrupt,
            FaultKind::RouterStall,
            FaultKind::MemFlipSingle,
            FaultKind::MemFlipDouble,
            FaultKind::EngineHiccup,
        ] {
            assert_eq!(FaultKind::from_token(k.token()), Some(k));
        }
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        assert_eq!(retransmit_delay_cycles(1), 20 + 16);
        assert_eq!(retransmit_delay_cycles(2), 20 + 32);
        assert_eq!(retransmit_delay_cycles(3), 20 + 64);
        // Large attempts cap the shift instead of overflowing.
        assert!(retransmit_delay_cycles(200) > retransmit_delay_cycles(3));
    }
}
