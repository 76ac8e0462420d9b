//! Typed byte/rate units and second↔nanosecond conversion helpers.
//!
//! The simulator's hot arithmetic mixes three physical dimensions —
//! byte counts, transfer rates (bytes or service units per second) and
//! integer-nanosecond time — and a silently wrong conversion corrupts a
//! paper verdict without failing any test.  This module is the single
//! home for that arithmetic: [`Bytes`] and [`Rate`] newtypes whose
//! operators encode the legal combinations (`Bytes / Rate → SimTime`,
//! `Rate * seconds → Bytes`), plus the raw conversion helpers for call
//! sites that must stay `f64`.  [`Step::delay`](crate::Step::delay) and
//! [`Step::transfer`](crate::Step::transfer) accept only these types, so
//! the compiler rejects a mixed or unconverted expression:
//!
//! ```compile_fail
//! use simkit::{Bytes, SimTime};
//! let _ = Bytes(4096.0) + SimTime::from_nanos(10);
//! ```
//!
//! ```compile_fail
//! use simkit::{Bytes, Rate};
//! let _: Bytes = Bytes(4096.0) / Rate(1e9);
//! ```
//!
//! **Digest neutrality.** Every helper here reproduces the exact `f64`
//! expression it replaced, including evaluation order and the
//! truncating-vs-ceiling distinction: [`secs_to_ns`] truncates (it
//! replaces `(s * 1e9) as u64`), while [`Bytes`]`/`[`Rate`] ceils via
//! [`SimTime::from_secs_f64`] (it replaces
//! `((bytes / rate) * 1e9).ceil() as u64`).  Swapping one for the other
//! shifts event timestamps by one nanosecond and changes every replay
//! digest downstream, so a call site that truncated keeps calling
//! [`secs_to_ns`] explicitly.

use crate::time::SimTime;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub, SubAssign};

/// One kibibyte in bytes.
pub const KIB: f64 = 1024.0;
/// One mebibyte in bytes.
pub const MIB: f64 = 1024.0 * 1024.0;
/// One gibibyte in bytes.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// One decimal megabyte in bytes (vendor-sheet rates quote these).
pub const MB: f64 = 1e6;
/// One decimal gigabyte in bytes.
pub const GB: f64 = 1e9;
/// Nanoseconds per second, as the `f64` the conversion sites multiply
/// and divide by.
pub const NS_PER_SEC: f64 = 1e9;
/// Nanoseconds per second as an integer, for derived-rate arithmetic
/// that must stay exact (telemetry exports divide window deltas by the
/// window width without ever touching floating point).
pub const NS_PER_SEC_INT: u64 = 1_000_000_000;

/// A byte count (or, on service resources, a generic work amount) as
/// carried by flow-level transfers.
///
/// Kept as `f64` because the max-min solver divides capacities
/// fractionally; the newtype exists so the *dimension* travels with the
/// value.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bytes(pub f64);

/// A transfer rate in bytes (or service units) per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(pub f64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0.0);

    /// The raw byte count.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Smaller of two byte counts.
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// True once the count has drained to (or below) zero.
    #[inline]
    pub fn is_drained(self) -> bool {
        self.0 <= 0.0
    }
}

impl Rate {
    /// Zero rate (a stalled flow).
    pub const ZERO: Rate = Rate(0.0);

    /// The raw rate in bytes per second.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Larger of two rates.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// Smaller of two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Work moved at this rate over `secs` seconds.
    ///
    /// A named method rather than `Rate * f64` because that operator is
    /// taken by *dimensionless* scaling (fault injection multiplies a
    /// capacity by a scale factor); multiplying by a duration changes
    /// the dimension and deserves to be visible at the call site.
    #[inline]
    pub fn bytes_in(self, secs: f64) -> Bytes {
        Bytes(self.0 * secs)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    #[inline]
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        Rate(self.0 - rhs.0)
    }
}

impl SubAssign for Rate {
    #[inline]
    fn sub_assign(&mut self, rhs: Rate) {
        self.0 -= rhs.0;
    }
}

/// `bytes / rate` is the time the transfer takes.  Rounds up to the next
/// nanosecond exactly like the engine's flow-deadline expression
/// `((remaining / rate) * 1e9).ceil() as u64` always has.
impl Div<Rate> for Bytes {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: Rate) -> SimTime {
        SimTime::from_secs_f64(self.0 / rhs.0)
    }
}

/// Dimensionless scaling: `capacity × 0.5` is still a rate (fault
/// injection, burst factors).  Rate × *time* is [`Rate::bytes_in`].
impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, scale: f64) -> Rate {
        Rate(self.0 * scale)
    }
}

impl MulAssign<f64> for Rate {
    #[inline]
    fn mul_assign(&mut self, scale: f64) {
        self.0 *= scale;
    }
}

/// Dimensionless division: a capacity split across `n` flows is the
/// per-flow fair share, still a rate.
impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, n: f64) -> Rate {
        Rate(self.0 / n)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_bytes(self.0))
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_bw(self.0))
    }
}

/// Fractional seconds → integer nanoseconds, **truncating**.
///
/// Replaces bare `(s * 1e9) as u64`; distinct from
/// [`SimTime::from_secs_f64`], which ceils.  Callers that switched
/// between the two would move every downstream event by a nanosecond and
/// break replay digests.
#[inline]
pub fn secs_to_ns(s: f64) -> u64 {
    (s * NS_PER_SEC) as u64
}

/// Integer nanoseconds → fractional seconds.
///
/// Replaces bare `ns as f64 / 1e9`.
#[inline]
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / NS_PER_SEC
}

/// Mean service interval in nanoseconds for a rate given in operations
/// per second.
///
/// Preserves the exact expression `(1e9 / per_sec) as u64`: computing
/// `secs_to_ns(1.0 / per_sec)` instead performs two roundings and is
/// *not* bit-identical for all inputs.
#[inline]
pub fn ops_interval_ns(per_sec: f64) -> u64 {
    (NS_PER_SEC / per_sec) as u64
}

/// Render a byte count as a human-readable size.
pub fn fmt_bytes(b: f64) -> String {
    if b >= GIB {
        format!("{:.2} GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.2} MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.2} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

/// Render a bandwidth (bytes/second) the way the paper's figures do.
pub fn fmt_bw(bps: f64) -> String {
    format!("{}/s", fmt_bytes(bps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_values() {
        assert_eq!(KIB, 1024.0);
        assert_eq!(MIB, 1048576.0);
        assert_eq!(GIB, 1073741824.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2.0 * KIB), "2.00 KiB");
        assert_eq!(fmt_bytes(3.5 * MIB), "3.50 MiB");
        assert_eq!(fmt_bw(61.76 * GIB), "61.76 GiB/s");
        assert_eq!(format!("{}", Bytes(2.0 * KIB)), "2.00 KiB");
        assert_eq!(format!("{}", Rate(1.5 * GIB)), "1.50 GiB/s");
    }

    #[test]
    fn bytes_over_rate_matches_engine_deadline_expression() {
        // The engine's historical deadline math, verbatim.
        let cases: [(f64, f64); 4] = [
            (4096.0, 3.0),
            (1.0, 3e9),
            (123456789.0, 9999.5),
            (0.0, 100.0),
        ];
        for (remaining, rate) in cases {
            let legacy = ((remaining / rate) * 1e9).ceil() as u64;
            assert_eq!((Bytes(remaining) / Rate(rate)).as_nanos(), legacy);
        }
    }

    #[test]
    fn secs_to_ns_truncates_exactly_like_the_cast() {
        for s in [0.0, 1e-9, 2.5e-7, 0.3333333333, 12.75, 1.0 / 3.0] {
            assert_eq!(secs_to_ns(s), (s * 1e9) as u64);
        }
        // Truncation, not rounding: 1.9ns of seconds is 1ns.
        assert_eq!(secs_to_ns(1.9e-9), 1);
    }

    #[test]
    fn ops_interval_preserves_single_rounding() {
        for iops in [3.0, 7.0, 170_000.0, 1e6] {
            assert_eq!(ops_interval_ns(iops), (1e9 / iops) as u64);
        }
    }

    #[test]
    fn ns_round_trip() {
        assert_eq!(ns_to_secs(1_500_000_000), 1.5);
        assert_eq!(secs_to_ns(ns_to_secs(42)), 42);
    }

    #[test]
    fn rate_over_seconds_is_bytes() {
        let moved = Rate(100.0).bytes_in(0.25);
        assert_eq!(moved, Bytes(25.0));
        let mut rem = Bytes(30.0);
        rem -= moved.min(rem);
        assert_eq!(rem, Bytes(5.0));
        assert!(Bytes(0.0).is_drained());
        assert!(!rem.is_drained());
    }

    #[test]
    fn scalar_rate_arithmetic() {
        assert_eq!(Rate(100.0) * 0.5, Rate(50.0));
        assert_eq!(Rate(100.0) / 4.0, Rate(25.0));
        assert_eq!(Rate(1.0).max(Rate(2.0)), Rate(2.0));
        assert_eq!(Rate(1.0).min(Rate(2.0)), Rate(1.0));
        let mut r = Rate(100.0);
        r *= 0.25;
        assert_eq!(r, Rate(25.0));
    }

    #[test]
    fn sums_and_ordering() {
        let total: Bytes = [Bytes(1.0), Bytes(2.5)].into_iter().sum();
        assert_eq!(total, Bytes(3.5));
        assert!(Rate(1.0) < Rate(2.0));
        assert_eq!(Rate(1.0) + Rate(2.0) - Rate(0.5), Rate(2.5));
    }
}
