//! The structured trace ring buffer.
//!
//! Every record is a cycle-stamped (picosecond-stamped — the simulator's
//! global clock) span or instant with a static category and name, an
//! integer track (rendered as a Chrome-trace "thread"), and one numeric
//! argument. Recording is gated at run time by a [`TraceLevel`] stored
//! in the buffer: recording at a level above the configured one is a
//! single relaxed atomic load.
//!
//! The buffer is bounded: once `capacity` events are held, further
//! records are counted in `dropped` instead of growing memory, so a
//! full-scale run can be traced with a fixed footprint.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// How much the probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing.
    #[default]
    Off = 0,
    /// Record begin/end spans of subsystem work (the normal setting).
    Spans = 1,
    /// Additionally record fine-grained instants (per-message, per-fill).
    Verbose = 2,
}

impl TraceLevel {
    fn from_u8(v: u8) -> TraceLevel {
        match v {
            0 => TraceLevel::Off,
            1 => TraceLevel::Spans,
            _ => TraceLevel::Verbose,
        }
    }
}

impl std::str::FromStr for TraceLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TraceLevel::Off),
            "spans" | "on" => Ok(TraceLevel::Spans),
            "verbose" => Ok(TraceLevel::Verbose),
            other => Err(format!("unknown trace level {other:?} (off|spans|verbose)")),
        }
    }
}

/// One recorded event. `dur_ps == 0` renders as an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start timestamp, picoseconds of simulated time.
    pub ts_ps: u64,
    /// Span length in picoseconds (0 = instant).
    pub dur_ps: u64,
    /// Subsystem category (`"cpu"`, `"cache"`, `"protocol"`, `"net"`, …).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Track (Chrome-trace thread) the event belongs to.
    pub track: u32,
    /// One numeric payload (line address, request id, byte count…).
    pub arg: u64,
}

/// The bounded, cycle-stamped trace buffer.
#[derive(Debug)]
pub struct TraceBuffer {
    level: AtomicU8,
    capacity: usize,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
    tracks: Mutex<Vec<(u32, String)>>,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events at `level`.
    pub fn new(level: TraceLevel, capacity: usize) -> Self {
        TraceBuffer {
            level: AtomicU8::new(level as u8),
            capacity,
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// The current runtime level.
    pub fn level(&self) -> TraceLevel {
        TraceLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Change the runtime level mid-run.
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Whether records at `level` are currently kept.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= level as u8
    }

    /// Name a track for the exporters (idempotent per id; the last name
    /// wins).
    pub fn name_track(&self, track: u32, name: impl Into<String>) {
        let mut tracks = self.tracks.lock().unwrap();
        let name = name.into();
        if let Some(t) = tracks.iter_mut().find(|(id, _)| *id == track) {
            t.1 = name;
        } else {
            tracks.push((track, name));
        }
    }

    /// Record one event (level already checked by the caller).
    pub fn record(&self, ev: TraceEvent) {
        let mut events = self.events.lock().unwrap();
        if events.len() < self.capacity {
            events.push(ev);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone out the buffered events and track names.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            events: self.events.lock().unwrap().clone(),
            tracks: self.tracks.lock().unwrap().clone(),
            dropped: self.dropped(),
        }
    }
}

/// An immutable copy of a trace buffer's contents.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// The recorded events, in recording order.
    pub events: Vec<TraceEvent>,
    /// `(track id, label)` pairs for the exporters.
    pub tracks: Vec<(u32, String)>,
    /// Events dropped because the ring was full.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// The distinct categories present, sorted.
    pub fn categories(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> = self.events.iter().map(|e| e.cat).collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }

    /// Number of events in the snapshot.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the snapshot holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, cat: &'static str) -> TraceEvent {
        TraceEvent {
            ts_ps: ts,
            dur_ps: 10,
            cat,
            name: "x",
            track: 0,
            arg: 0,
        }
    }

    #[test]
    fn level_gates_enabled() {
        let b = TraceBuffer::new(TraceLevel::Spans, 10);
        assert!(b.enabled(TraceLevel::Spans));
        assert!(!b.enabled(TraceLevel::Verbose));
        b.set_level(TraceLevel::Off);
        assert!(!b.enabled(TraceLevel::Spans));
        assert_eq!(b.level(), TraceLevel::Off);
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let b = TraceBuffer::new(TraceLevel::Spans, 2);
        for i in 0..5 {
            b.record(ev(i, "cpu"));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
        let snap = b.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 3);
    }

    #[test]
    fn categories_dedup() {
        let b = TraceBuffer::new(TraceLevel::Spans, 10);
        b.record(ev(0, "net"));
        b.record(ev(1, "cpu"));
        b.record(ev(2, "cpu"));
        assert_eq!(b.snapshot().categories(), vec!["cpu", "net"]);
    }

    #[test]
    fn track_naming_is_idempotent() {
        let b = TraceBuffer::new(TraceLevel::Spans, 10);
        b.name_track(7, "node0.cpu1");
        b.name_track(7, "node0.cpu1(renamed)");
        let snap = b.snapshot();
        assert_eq!(snap.tracks, vec![(7, "node0.cpu1(renamed)".to_string())]);
    }

    #[test]
    fn level_parses() {
        assert_eq!("spans".parse::<TraceLevel>().unwrap(), TraceLevel::Spans);
        assert_eq!("off".parse::<TraceLevel>().unwrap(), TraceLevel::Off);
        assert!("bogus".parse::<TraceLevel>().is_err());
    }
}
