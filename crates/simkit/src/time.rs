//! Simulation time as integer nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in simulated time, in nanoseconds since the start of the run;
/// also the type of every simulated duration (a latency, a delay).
///
/// Integer nanoseconds keep event ordering exact and let symmetric
/// processes land on *identical* timestamps, which the engine exploits to
/// batch completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as the deadline of stalled flows.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) seconds, rounding up to the
    /// next nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimTime((s * 1e9).ceil() as u64)
    }

    /// Nanoseconds since time zero.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since time zero as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`, in nanoseconds.
    #[inline]
    pub fn nanos_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Seconds elapsed since `earlier` as a float.
    #[inline]
    pub fn secs_since(self, earlier: SimTime) -> f64 {
        self.nanos_since(earlier) as f64 / 1e9
    }

    /// This duration scaled by a dimensionless factor, **truncating** to
    /// whole nanoseconds exactly like `(ns as f64 * factor) as u64`.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime((self.0 as f64 * factor) as u64)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, ns: u64) {
        self.0 = self.0.saturating_add(ns);
    }
}

/// A duration repeated `n` times (`n` round trips, `n` servers).
impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, n: u64) -> SimTime {
        SimTime(self.0 * n)
    }
}

impl Sub for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_nanos(250).as_secs_f64() - 2.5e-7).abs() < 1e-18);
    }

    #[test]
    fn from_secs_rounds_up() {
        // 1ns expressed in seconds must not round down to zero.
        assert_eq!(SimTime::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimTime::from_secs_f64(1.0000000001e-9).as_nanos(), 2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        assert_eq!((t + 500).as_nanos(), 10_500);
        assert_eq!(t - SimTime::from_micros(4), 6_000);
        assert_eq!(SimTime::from_micros(4) - t, 0, "saturating");
        assert_eq!(t.nanos_since(SimTime::ZERO), 10_000);
        assert!((t.secs_since(SimTime::ZERO) - 1e-5).abs() < 1e-15);
        assert_eq!(t * 3, SimTime::from_micros(30));
        assert_eq!(SimTime(70_000).scale(1.5), SimTime(105_000));
        assert_eq!(SimTime(3).scale(0.5), SimTime(1), "truncates");
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::NEVER);
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250s");
    }
}
