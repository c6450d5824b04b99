//! Discrete time values used throughout the framework.
//!
//! All schedule computations are performed on integer microseconds to
//! keep the static schedules exactly reproducible (no floating-point
//! drift between the optimizer's cost evaluation and the validator).
//! The paper quotes every quantity in milliseconds, so [`Time::from_ms`]
//! and [`Time::as_ms`] are the idiomatic entry points.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in time or a duration, in integer microseconds.
///
/// `Time` is used both for instants (schedule start times) and for
/// durations (worst-case execution times, fault recovery overhead µ);
/// the arithmetic is the same and the paper does not distinguish them
/// either.
///
/// The arithmetic is unchecked: `+`, `-` and `*` (and
/// [`Time::from_ms`]) panic on overflow in debug builds and wrap in
/// release builds. The optimizer's horizon budget keeps every time the
/// scheduler computes in range, and code converting untrusted values
/// checks first ([`Time::checked_add`], or `u64::checked_mul` before
/// [`Time::from_us`]).
///
/// # Examples
///
/// ```
/// use ftdes_model::time::Time;
///
/// let c1 = Time::from_ms(30);
/// let mu = Time::from_ms(10);
/// // Worst-case finish of a process re-executed twice (Fig. 2a):
/// let wc = c1 + (c1 + mu) * 2;
/// assert_eq!(wc.as_ms(), 110);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The zero instant / empty duration.
    pub const ZERO: Time = Time(0);

    /// The maximum representable time, used as "never" / +∞ sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from integer microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Time(us)
    }

    /// Creates a time from integer milliseconds, unchecked like the
    /// rest of the arithmetic (see [`Time`]).
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000)
    }

    /// Returns the value in whole microseconds.
    #[must_use]
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Returns the value in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the value in fractional milliseconds.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns `true` if this is the zero time.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division rounding up: the number of whole `unit`s
    /// needed to cover `self`.
    ///
    /// Used for TDMA round arithmetic (how many rounds until a given
    /// instant).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    #[must_use]
    pub fn div_ceil(self, unit: Time) -> u64 {
        assert!(!unit.is_zero(), "division by zero time");
        self.0.div_ceil(unit.0)
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Div<Time> for Time {
    type Output = u64;
    fn div(self, rhs: Time) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// Computes the least common multiple of two times, or `None` when it
/// does not fit in a [`Time`].
///
/// Used to derive the hyper-period of an application with processes
/// of different periods (paper §3): two coprime periods of a few
/// months each already have an LCM past `u64` microseconds.
///
/// # Panics
///
/// Panics if either argument is zero.
#[must_use]
pub fn lcm(a: Time, b: Time) -> Option<Time> {
    assert!(!a.is_zero() && !b.is_zero(), "lcm of zero period");
    (a.0 / gcd_u64(a.0, b.0)).checked_mul(b.0).map(Time)
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_round_trip() {
        let t = Time::from_ms(42);
        assert_eq!(t.as_ms(), 42);
        assert_eq!(t.as_us(), 42_000);
    }

    #[test]
    fn display_prefers_ms() {
        assert_eq!(Time::from_ms(5).to_string(), "5ms");
        assert_eq!(Time::from_us(1500).to_string(), "1500us");
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ms(10);
        let b = Time::from_ms(3);
        assert_eq!((a + b).as_ms(), 13);
        assert_eq!((a - b).as_ms(), 7);
        assert_eq!((a * 3).as_ms(), 30);
        assert_eq!(a / b, 3);
        assert_eq!((a % b).as_ms(), 1);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Time::from_ms(1).saturating_sub(Time::from_ms(5)),
            Time::ZERO
        );
    }

    #[test]
    fn min_max() {
        let a = Time::from_ms(1);
        let b = Time::from_ms(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn div_ceil_covers() {
        assert_eq!(Time::from_ms(25).div_ceil(Time::from_ms(10)), 3);
        assert_eq!(Time::from_ms(30).div_ceil(Time::from_ms(10)), 3);
        assert_eq!(Time::ZERO.div_ceil(Time::from_ms(10)), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_ceil_zero_unit_panics() {
        let _ = Time::from_ms(1).div_ceil(Time::ZERO);
    }

    #[test]
    fn lcm_of_periods() {
        assert_eq!(
            lcm(Time::from_ms(20), Time::from_ms(30)),
            Some(Time::from_ms(60))
        );
        assert_eq!(
            lcm(Time::from_ms(7), Time::from_ms(7)),
            Some(Time::from_ms(7))
        );
        // Coprime periods whose product overflows u64 microseconds.
        assert_eq!(
            lcm(Time::from_ms(5_000_000_029), Time::from_ms(5_000_000_039)),
            None
        );
    }

    #[test]
    fn sum_iterator() {
        let total: Time = [1u64, 2, 3].iter().map(|&ms| Time::from_ms(ms)).sum();
        assert_eq!(total, Time::from_ms(6));
    }

    #[test]
    fn fig2_worst_case_reexecution() {
        // Paper Fig. 2a: C1 = 30 ms, k = 2, µ = 10 ms. The worst-case
        // scenario executes P1 three times with two detection overheads:
        // 30 + (10 + 30) + (10 + 30) = 110 ms.
        let c1 = Time::from_ms(30);
        let mu = Time::from_ms(10);
        let wc = c1 + (mu + c1) * 2;
        assert_eq!(wc, Time::from_ms(110));
    }
}
