//! The integer tick clock.
//!
//! The paper assigns events real nonnegative times. We use an integer tick
//! clock instead: the timing constants `(c1, c2, d)` are rationals in every
//! experiment, so they can be scaled to integers, and all of the paper's
//! bounds are homogeneous of degree one in `(c1, c2, d)` — multiplying all
//! three by the same factor multiplies effort by that factor and changes
//! nothing else. Integer time keeps every simulation exact and every run
//! reproducible bit-for-bit.
//!
//! [`Time`] is an absolute instant; [`TimeDelta`] is a duration. Arithmetic
//! that could overflow is checked and panics with a clear message in debug
//! *and* release builds (an overflowing clock is a logic error, never data).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant on the simulation clock, in ticks since time zero.
///
/// Paper §2.2: timings map events to nonnegative reals starting at 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A nonnegative duration in ticks.
///
/// The problem constants `c1`, `c2` and `d` of the paper are `TimeDelta`s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeDelta(u64);

impl Time {
    /// Time zero — the time of the first event of every timed execution.
    pub const ZERO: Time = Time(0);

    /// The greatest representable instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[must_use]
    #[expect(clippy::expect_used, reason = "documented # Panics contract")]
    pub fn since(self, earlier: Time) -> TimeDelta {
        TimeDelta(
            self.0
                .checked_sub(earlier.0)
                .expect("Time::since: `earlier` is after `self`"),
        )
    }

    /// Duration since an earlier instant, or `None` if `earlier > self`.
    #[must_use]
    pub fn checked_since(self, earlier: Time) -> Option<TimeDelta> {
        self.0.checked_sub(earlier.0).map(TimeDelta)
    }

    /// Adds a duration, returning `None` on overflow.
    #[must_use]
    pub fn checked_add(self, delta: TimeDelta) -> Option<Time> {
        self.0.checked_add(delta.0).map(Time)
    }

    /// Adds a duration, clamping at [`Time::MAX`].
    #[must_use]
    pub fn saturating_add(self, delta: TimeDelta) -> Time {
        Time(self.0.saturating_add(delta.0))
    }
}

impl TimeDelta {
    /// The zero duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// The greatest representable duration.
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Creates a duration from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        TimeDelta(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whether this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked multiplication by a step count.
    #[must_use]
    pub fn checked_mul(self, n: u64) -> Option<TimeDelta> {
        self.0.checked_mul(n).map(TimeDelta)
    }

    /// `ceil(self / unit)` — the least number of `unit`-length steps whose
    /// total length is at least `self`.
    ///
    /// This is the paper's `δ1 = d / c1` (the *maximum* number of steps a
    /// process can take in `d` time units) generalized to the case where
    /// `unit` does not divide `self` exactly: a protocol that must wait *at
    /// least* `d` needs `ceil(d / c1)` steps of length `>= c1`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    #[must_use]
    pub fn div_ceil(self, unit: TimeDelta) -> u64 {
        assert!(!unit.is_zero(), "TimeDelta::div_ceil: zero unit");
        self.0.div_ceil(unit.0)
    }

    /// `floor(self / unit)` — the greatest number of `unit`-length steps that
    /// fit inside `self`.
    ///
    /// This is the paper's `δ2 = d / c2` (the *minimum* number of steps a
    /// process takes in `d` time units) generalized to inexact division.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    #[must_use]
    pub fn div_floor(self, unit: TimeDelta) -> u64 {
        assert!(!unit.is_zero(), "TimeDelta::div_floor: zero unit");
        self.0 / unit.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;

    #[expect(clippy::expect_used, reason = "checked_* overflow guard")]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(
            self.0
                .checked_add(rhs.0)
                .expect("Time + TimeDelta overflowed"),
        )
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;

    #[expect(clippy::expect_used, reason = "checked_* overflow guard")]
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("Time - TimeDelta underflowed"),
        )
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;

    fn sub(self, rhs: Time) -> TimeDelta {
        self.since(rhs)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;

    #[expect(clippy::expect_used, reason = "checked_* overflow guard")]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.checked_add(rhs.0).expect("TimeDelta + overflowed"))
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;

    #[expect(clippy::expect_used, reason = "checked_* overflow guard")]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.checked_sub(rhs.0).expect("TimeDelta - underflowed"))
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;

    #[expect(clippy::expect_used, reason = "checked_* overflow guard")]
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0.checked_mul(rhs).expect("TimeDelta * overflowed"))
    }
}

impl Mul<TimeDelta> for u64 {
    type Output = TimeDelta;

    fn mul(self, rhs: TimeDelta) -> TimeDelta {
        rhs * self
    }
}

impl Div<TimeDelta> for TimeDelta {
    type Output = u64;

    /// Floor division: how many whole `rhs` fit in `self`.
    fn div(self, rhs: TimeDelta) -> u64 {
        self.div_floor(rhs)
    }
}

impl Rem<TimeDelta> for TimeDelta {
    type Output = TimeDelta;

    fn rem(self, rhs: TimeDelta) -> TimeDelta {
        assert!(!rhs.is_zero(), "TimeDelta % zero");
        TimeDelta(self.0 % rhs.0)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Time::default(), Time::ZERO);
        assert_eq!(TimeDelta::default(), TimeDelta::ZERO);
    }

    #[test]
    fn roundtrips_ticks() {
        assert_eq!(Time::from_ticks(42).ticks(), 42);
        assert_eq!(TimeDelta::from_ticks(7).ticks(), 7);
    }

    #[test]
    fn add_sub_time() {
        let t = Time::from_ticks(10) + TimeDelta::from_ticks(5);
        assert_eq!(t, Time::from_ticks(15));
        assert_eq!(t - TimeDelta::from_ticks(15), Time::ZERO);
        assert_eq!(t - Time::from_ticks(10), TimeDelta::from_ticks(5));
    }

    #[test]
    fn since_and_checked_since() {
        let a = Time::from_ticks(3);
        let b = Time::from_ticks(9);
        assert_eq!(b.since(a), TimeDelta::from_ticks(6));
        assert_eq!(b.checked_since(a), Some(TimeDelta::from_ticks(6)));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        let _ = Time::from_ticks(1).since(Time::from_ticks(2));
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(Time::MAX.checked_add(TimeDelta::from_ticks(1)), None);
        assert_eq!(
            Time::ZERO.checked_add(TimeDelta::from_ticks(1)),
            Some(Time::from_ticks(1))
        );
        assert_eq!(
            Time::MAX.saturating_add(TimeDelta::from_ticks(9)),
            Time::MAX
        );
    }

    #[test]
    fn delta_arithmetic() {
        let c = TimeDelta::from_ticks(4);
        assert_eq!(c + c, TimeDelta::from_ticks(8));
        assert_eq!(c - TimeDelta::from_ticks(1), TimeDelta::from_ticks(3));
        assert_eq!(c * 3, TimeDelta::from_ticks(12));
        assert_eq!(3 * c, TimeDelta::from_ticks(12));
        assert_eq!(TimeDelta::from_ticks(13) / c, 3);
        assert_eq!(TimeDelta::from_ticks(13) % c, TimeDelta::from_ticks(1));
    }

    #[test]
    fn div_ceil_and_floor_model_delta1_delta2() {
        // Exact division: both agree with the paper's d/c.
        let d = TimeDelta::from_ticks(12);
        assert_eq!(d.div_ceil(TimeDelta::from_ticks(3)), 4);
        assert_eq!(d.div_floor(TimeDelta::from_ticks(3)), 4);
        // Inexact: delta1 rounds up (enough fast steps to cover d),
        // delta2 rounds down (fewest slow steps inside d).
        assert_eq!(d.div_ceil(TimeDelta::from_ticks(5)), 3);
        assert_eq!(d.div_floor(TimeDelta::from_ticks(5)), 2);
    }

    #[test]
    fn delta_sum() {
        let total: TimeDelta = (1..=4).map(TimeDelta::from_ticks).sum();
        assert_eq!(total, TimeDelta::from_ticks(10));
    }

    #[test]
    fn ordering() {
        assert!(Time::from_ticks(1) < Time::from_ticks(2));
        assert!(TimeDelta::from_ticks(1) < TimeDelta::from_ticks(2));
    }

    #[test]
    fn display() {
        assert_eq!(Time::from_ticks(5).to_string(), "t=5");
        assert_eq!(TimeDelta::from_ticks(5).to_string(), "5t");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = Time::MAX + TimeDelta::from_ticks(1);
    }
}
