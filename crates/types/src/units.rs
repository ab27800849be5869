//! Measurement units: data volume, link bandwidth, money, and memory.
//!
//! Newtypes keep the cost model honest — dollars can't be added to
//! gigabytes, and link bandwidth converts to transfer time in exactly one
//! place.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A number of bytes (payload size of a frame, patch or message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// From a raw byte count.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// From kibibytes.
    #[must_use]
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Raw byte count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// As fractional kibibytes.
    #[must_use]
    pub fn as_kib_f64(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// As fractional mebibytes.
    #[must_use]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.as_mib_f64())
        } else if self.0 >= 1024 {
            write!(f, "{:.2}KiB", self.as_kib_f64())
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

/// Link bandwidth. Stored in bits per second; the paper's experiments use
/// 20, 40 and 80 Mbps uplinks.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// From megabits per second (the unit used throughout the paper).
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is not finite and positive.
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        assert!(
            mbps.is_finite() && mbps > 0.0,
            "bandwidth must be positive, got {mbps}"
        );
        Self {
            bits_per_sec: mbps * 1.0e6,
        }
    }

    /// Megabits per second.
    #[must_use]
    pub fn as_mbps(&self) -> f64 {
        self.bits_per_sec / 1.0e6
    }

    /// Bytes transferable per second.
    #[must_use]
    pub fn bytes_per_sec(&self) -> f64 {
        self.bits_per_sec / 8.0
    }

    /// Time to serialise `payload` onto the wire at this rate.
    ///
    /// ```
    /// # use tangram_types::units::{Bandwidth, Bytes};
    /// let bw = Bandwidth::from_mbps(80.0);
    /// // 1 MB at 80 Mbps = 0.1 s.
    /// let t = bw.transmission_time(Bytes::new(1_000_000));
    /// assert!((t.as_secs_f64() - 0.1).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn transmission_time(&self, payload: Bytes) -> SimDuration {
        SimDuration::from_secs_f64(payload.get() as f64 / self.bytes_per_sec())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}Mbps", self.as_mbps())
    }
}

/// US dollars, the unit of the Alibaba Function Compute cost model (Eqn. 1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dollars(pub f64);

impl Dollars {
    /// Zero cost.
    pub const ZERO: Dollars = Dollars(0.0);

    /// Wraps a dollar amount.
    #[must_use]
    pub const fn new(amount: f64) -> Self {
        Dollars(amount)
    }

    /// The raw amount.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Dollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.6}", self.0)
    }
}

impl Add for Dollars {
    type Output = Dollars;
    fn add(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 + rhs.0)
    }
}

impl AddAssign for Dollars {
    fn add_assign(&mut self, rhs: Dollars) {
        self.0 += rhs.0;
    }
}

impl Sub for Dollars {
    type Output = Dollars;
    fn sub(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 - rhs.0)
    }
}

impl Mul<f64> for Dollars {
    type Output = Dollars;
    fn mul(self, rhs: f64) -> Dollars {
        Dollars(self.0 * rhs)
    }
}

impl Sum for Dollars {
    fn sum<I: Iterator<Item = Dollars>>(iter: I) -> Dollars {
        iter.fold(Dollars::ZERO, Add::add)
    }
}

/// Memory measured in gigabytes (function RAM and GPU VRAM allocations).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct GigaBytes(pub f64);

impl GigaBytes {
    /// Zero memory.
    pub const ZERO: GigaBytes = GigaBytes(0.0);

    /// Wraps a GB amount.
    #[must_use]
    pub const fn new(gb: f64) -> Self {
        GigaBytes(gb)
    }

    /// Raw GB value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for GigaBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB", self.0)
    }
}

impl Add for GigaBytes {
    type Output = GigaBytes;
    fn add(self, rhs: GigaBytes) -> GigaBytes {
        GigaBytes(self.0 + rhs.0)
    }
}

impl AddAssign for GigaBytes {
    fn add_assign(&mut self, rhs: GigaBytes) {
        self.0 += rhs.0;
    }
}

impl Sub for GigaBytes {
    type Output = GigaBytes;
    fn sub(self, rhs: GigaBytes) -> GigaBytes {
        GigaBytes(self.0 - rhs.0)
    }
}

impl Mul<f64> for GigaBytes {
    type Output = GigaBytes;
    fn mul(self, rhs: f64) -> GigaBytes {
        GigaBytes(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::from_kib(2).get(), 2048);
    }

    #[test]
    fn bytes_display_scales() {
        assert_eq!(Bytes::new(512).to_string(), "512B");
        assert_eq!(Bytes::from_kib(4).to_string(), "4.00KiB");
        assert_eq!(Bytes::from_kib(3 * 1024).to_string(), "3.00MiB");
    }

    #[test]
    fn bytes_arithmetic_saturates() {
        assert_eq!(Bytes::new(10) - Bytes::new(20), Bytes::ZERO);
        let total: Bytes = [Bytes::new(1), Bytes::new(2)].into_iter().sum();
        assert_eq!(total, Bytes::new(3));
    }

    #[test]
    fn bandwidth_transfer_times() {
        // The paper's 20 Mbps uplink: a 2.5 MB 4K frame takes 1 s.
        let bw = Bandwidth::from_mbps(20.0);
        let t = bw.transmission_time(Bytes::new(2_500_000));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((bw.as_mbps() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::from_mbps(0.0);
    }

    #[test]
    fn dollars_sum_and_scale() {
        let c = Dollars::new(0.5) + Dollars::new(0.25);
        assert!((c.get() - 0.75).abs() < 1e-12);
        assert!(((c * 2.0).get() - 1.5).abs() < 1e-12);
        let total: Dollars = vec![Dollars::new(0.1); 5].into_iter().sum();
        assert!((total.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gigabytes_arithmetic() {
        let g = GigaBytes::new(6.0) - GigaBytes::new(1.5);
        assert!((g.get() - 4.5).abs() < 1e-12);
        assert_eq!(GigaBytes::new(2.0).to_string(), "2.00GB");
    }
}
