//! Virtual time: nanosecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A virtual instant, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A virtual duration, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole nanoseconds.
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds; panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

fn fmt_nanos(n: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if n >= 1_000_000_000 {
        write!(f, "{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        write!(f, "{:.3}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        write!(f, "{:.3}us", n as f64 / 1e3)
    } else {
        write!(f, "{n}ns")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!((t + SimDuration::from_secs(1)) - t, SimDuration::from_secs(1));
    }

    #[test]
    fn sub_saturates() {
        let a = SimTime(10);
        let b = SimTime(20);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration(10));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
