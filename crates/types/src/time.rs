//! Simulated time.
//!
//! The simulator keeps one global clock in **picoseconds** so that chips
//! with different cycle times (500 MHz ASIC Piranha, 1 GHz OOO baseline,
//! 1.25 GHz full-custom Piranha — paper Table 1) can coexist in one event
//! queue without rounding error: all of those clocks have integral periods
//! in picoseconds (2000, 1000, and 800 ps).

/// An absolute simulated time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1000)
    }

    /// This time expressed in whole nanoseconds (truncating).
    pub fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// This time expressed in picoseconds.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1000)
    }

    /// Construct from picoseconds.
    pub fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// This span in whole nanoseconds (truncating).
    pub fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// This span in picoseconds.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Multiply the span by an integer count (e.g. cycles × period).
    pub fn times(self, n: u64) -> Duration {
        Duration(self.0 * n)
    }
}

impl core::ops::Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl core::ops::AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl core::ops::Add for Duration {
    type Output = Duration;
    fn add(self, o: Duration) -> Duration {
        Duration(self.0 + o.0)
    }
}

impl core::ops::AddAssign for Duration {
    fn add_assign(&mut self, o: Duration) {
        self.0 += o.0;
    }
}

impl core::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, o: Duration) -> Duration {
        Duration(self.0.saturating_sub(o.0))
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}ns", self.0 as f64 / 1000.0)
    }
}

impl core::fmt::Display for Duration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}ns", self.0 as f64 / 1000.0)
    }
}

/// A fixed clock: converts between cycles of a component and global time.
///
/// ```
/// use piranha_types::time::Clock;
/// let c = Clock::from_mhz(500);
/// assert_eq!(c.period().as_ps(), 2000);
/// assert_eq!(c.cycles(c.period().times(10)), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// A clock with the given frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if the frequency does not divide 1 THz evenly (all clocks in
    /// the paper — 400, 500, 1000, 1250 MHz — do) or is zero.
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be positive");
        assert_eq!(
            1_000_000 % mhz,
            0,
            "clock frequency {mhz} MHz has a non-integral period in ps"
        );
        Clock {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// The clock period.
    pub fn period(self) -> Duration {
        Duration(self.period_ps)
    }

    /// The span of `n` cycles.
    pub fn cycles_dur(self, n: u64) -> Duration {
        Duration(self.period_ps * n)
    }

    /// How many whole cycles fit in `d`.
    pub fn cycles(self, d: Duration) -> u64 {
        d.0 / self.period_ps
    }

    /// The frequency in MHz.
    pub fn mhz(self) -> u64 {
        1_000_000 / self.period_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        assert_eq!(SimTime::from_ns(80).as_ns(), 80);
        assert_eq!(Duration::from_ns(60).as_ps(), 60_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(10) + Duration::from_ns(5);
        assert_eq!(t, SimTime::from_ns(15));
        assert_eq!(t.since(SimTime::from_ns(3)), Duration::from_ns(12));
        // `since` saturates rather than underflowing.
        assert_eq!(SimTime::ZERO.since(t), Duration::ZERO);
        assert_eq!(
            Duration::from_ns(3) + Duration::from_ns(4),
            Duration::from_ns(7)
        );
        assert_eq!(Duration::from_ns(2).times(5), Duration::from_ns(10));
    }

    #[test]
    fn paper_clocks_have_exact_periods() {
        assert_eq!(Clock::from_mhz(500).period().as_ps(), 2000);
        assert_eq!(Clock::from_mhz(1000).period().as_ps(), 1000);
        assert_eq!(Clock::from_mhz(1250).period().as_ps(), 800);
        assert_eq!(Clock::from_mhz(400).period().as_ps(), 2500);
    }

    #[test]
    fn clock_cycle_conversions() {
        let c = Clock::from_mhz(1000);
        assert_eq!(c.cycles_dur(7), Duration::from_ns(7));
        assert_eq!(c.cycles(Duration::from_ns(7)), 7);
        assert_eq!(c.mhz(), 1000);
    }

    #[test]
    #[should_panic(expected = "non-integral")]
    fn odd_clock_rejected() {
        let _ = Clock::from_mhz(999_999);
    }

    #[test]
    fn time_display() {
        assert_eq!(SimTime::from_ns(2).to_string(), "2ns");
        assert_eq!(Duration(1500).to_string(), "1.5ns");
    }
}
