//! Virtual time.
//!
//! The simulator runs entirely in virtual time with nanosecond resolution.
//! [`SimTime`] is an instant (nanoseconds since simulation start) and
//! [`SimDuration`] a span. Both are thin `u64` wrappers so they are `Copy`,
//! totally ordered, and cheap to store in every queued IO.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// The one door from float arithmetic to integer time: exactly
    /// `ns as u64` — the fraction truncated, out-of-range values saturated
    /// (negative → 0, ≥ 2⁶⁴ and +∞ → `u64::MAX`), NaN → 0. Callers that
    /// want another rounding `ceil()` / `round()` in `f64` first.
    /// `clippy::cast_sign_loss` is denied workspace-wide, so a float that
    /// becomes a time anywhere else does not pass CI.
    #[expect(
        clippy::cast_sign_loss,
        reason = "the door itself: negative and NaN → 0 is the documented contract"
    )]
    pub fn from_nanos_f64(ns: f64) -> Self {
        SimDuration(ns as u64)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The span in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
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
        SimDuration(self.0 - rhs.0)
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

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant of virtual time: nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed span since `earlier`. Panics in debug builds if `earlier`
    /// is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference, returning zero if `earlier > self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_scale_correctly() {
        assert_eq!(SimDuration::from_nanos(7).as_nanos(), 7);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn from_nanos_f64_truncates_saturates_and_zeroes_nan() {
        let ns = |x: f64| SimDuration::from_nanos_f64(x).as_nanos();
        assert_eq!(ns(f64::NAN), 0);
        assert_eq!(ns(-1.0), 0);
        assert_eq!(ns(0.9), 0);
        assert_eq!(ns(1_500.7), 1_500);
        assert_eq!(ns(18_446_744_073_709_551_616.0), u64::MAX);
        assert_eq!(ns(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 2).as_nanos(), 5_000);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn time_advances_and_diffs() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(25);
        assert_eq!(t1.since(t0).as_nanos(), 25_000);
        assert_eq!(t1 - t0, SimDuration::from_micros(25));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn time_ordering_is_total() {
        let mut v = vec![
            SimTime::from_nanos(5),
            SimTime::ZERO,
            SimTime::from_nanos(9),
            SimTime::from_nanos(5),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_nanos(5),
                SimTime::from_nanos(5),
                SimTime::from_nanos(9),
            ]
        );
    }

    #[test]
    fn display_picks_human_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_nanos(10);
        t += SimDuration::from_nanos(5);
        assert_eq!(t.as_nanos(), 15);
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_nanos(3);
        assert_eq!(d.as_nanos(), 3);
    }
}
