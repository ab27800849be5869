//! Simulated time.
//!
//! The whole reproduction runs on a deterministic simulated clock:
//! [`SimTime`] is an instant (microseconds since simulation start) and
//! [`SimDuration`] a span. Microsecond resolution comfortably covers
//! everything the paper measures (network transfers, GPU inference in the
//! tens-to-hundreds of milliseconds, SLOs around one second).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            micros: millis * 1_000,
        }
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            micros: secs * 1_000_000,
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    ///
    /// ```
    /// # use tangram_types::time::SimDuration;
    /// assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_millis(500));
    /// assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    /// ```
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Self::ZERO;
        }
        Self {
            micros: (secs * 1.0e6).round() as u64,
        }
    }

    /// Whole microseconds.
    #[must_use]
    pub const fn as_micros(&self) -> u64 {
        self.micros
    }

    /// Whole milliseconds (truncated).
    #[must_use]
    pub const fn as_millis(&self) -> u64 {
        self.micros / 1_000
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(&self) -> f64 {
        self.micros as f64 / 1.0e6
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(&self) -> f64 {
        self.micros as f64 / 1.0e3
    }

    /// `true` when the duration is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.micros == 0
    }

    /// Subtraction that stops at zero instead of underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }

    /// Checked subtraction.
    #[must_use]
    pub const fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.micros.checked_sub(rhs.micros) {
            Some(micros) => Some(SimDuration { micros }),
            None => None,
        }
    }

    /// Multiplies by a non-negative float, rounding to microseconds.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.micros >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.micros)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros += rhs.micros;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self
                .micros
                .checked_sub(rhs.micros)
                .expect("SimDuration subtraction underflow"),
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros * rhs,
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros / rhs,
        }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// An instant on the simulated clock (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    micros: u64,
}

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime { micros: 0 };
    /// The far future — useful as an "never fires" sentinel deadline.
    pub const MAX: SimTime = SimTime { micros: u64::MAX };

    /// Creates an instant from whole microseconds since the epoch.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// Creates an instant from fractional seconds since the epoch.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    /// Microseconds since the epoch.
    #[must_use]
    pub const fn as_micros(&self) -> u64 {
        self.micros
    }

    /// Fractional seconds since the epoch.
    #[must_use]
    pub fn as_secs_f64(&self) -> f64 {
        self.micros as f64 / 1.0e6
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    ///
    /// ```
    /// # use tangram_types::time::{SimDuration, SimTime};
    /// let t0 = SimTime::from_micros(10);
    /// let t1 = SimTime::from_micros(25);
    /// assert_eq!(t1.since(t0), SimDuration::from_micros(15));
    /// assert_eq!(t0.since(t1), SimDuration::ZERO);
    /// ```
    #[must_use]
    pub const fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration::from_micros(self.micros.saturating_sub(earlier.micros))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.micros >= other.micros {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.micros <= other.micros {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            micros: self.micros.saturating_add(rhs.as_micros()),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime {
            micros: self
                .micros
                .checked_sub(rhs.as_micros())
                .expect("SimTime subtraction underflow"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(
            SimDuration::from_millis(1500),
            SimDuration::from_micros(1_500_000)
        );
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_secs_f64(0.123456);
        assert!((d.as_secs_f64() - 0.123456).abs() < 1e-9);
        assert!((d.as_millis_f64() - 123.456).abs() < 1e-6);
    }

    #[test]
    fn duration_nan_clamps_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(100);
        let b = SimDuration::from_millis(30);
        assert_eq!(a + b, SimDuration::from_millis(130));
        assert_eq!(a - b, SimDuration::from_millis(70));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimDuration::from_millis(70)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a * 3, SimDuration::from_millis(300));
        assert_eq!(a / 4, SimDuration::from_millis(25));
        assert_eq!(a.mul_f64(0.5), SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_panics_on_underflow() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn duration_display_scales_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2_250).to_string(), "2.250s");
    }

    #[test]
    fn time_advances_and_measures() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(250);
        assert_eq!(t.as_micros(), 250_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(250));
    }

    #[test]
    fn time_min_max() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn time_add_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }
}
