//! Host-side clocks and order statistics.

use std::time::Instant;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so the benchmark's own spread matches what its driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Quartiles {
    /// A single exact reading (counts, simulated statistics).
    #[must_use]
    pub fn exact(value: f64) -> Self {
        Self {
            q1: value,
            median: value,
            q3: value,
            n: 1,
        }
    }

    /// Quartiles of `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
        let n = sorted.len();
        if n == 1 {
            return Self::exact(sorted[0]);
        }
        let at = |k: usize| {
            // Exclusive method: position k(n+1)/4, clamped to the sample.
            let pos = k as f64 * (n + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let delta = pos - j as f64;
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
        };
        Self {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Seconds `f` took on the wall clock, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used, read from `/proc/self/stat`. Resolution is one
/// clock tick (10 ms); callers difference two readings around a region
/// that runs for seconds. Returns 0 where `/proc` is unavailable.
#[must_use]
pub fn process_cpu_seconds() -> f64 {
    // Linux reports utime/stime in USER_HZ units, which is 100 on every
    // supported architecture.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let utime = tick();
    let stime = tick();
    (utime + stime) / TICKS_PER_SECOND
}

/// Seconds the calibration kernel takes on the reference host in its
/// fast state. Host times are reported in **reference seconds**:
/// measured seconds × `CALIBRATION_REFERENCE_S` ÷ the kernel's time
/// measured around the same region.
pub const CALIBRATION_REFERENCE_S: f64 = 0.0105;

/// The host-speed probe.
///
/// Shared hosts change speed under a benchmark. The 2-core reference
/// host flips — for seconds or for minutes at a time — between two
/// states that leave cache-resident arithmetic almost untouched but make
/// everything that misses the caches or churns the allocator about 1.5x
/// slower (memory-system contention from outside the VM). That is every
/// workload here, so raw seconds spread by 30–40 % between runs of the
/// same binary. The probe is a fixed piece of exactly that kind of work
/// — scattered read-modify-writes over a 32 MiB table, then a churn of
/// small allocations — timed right before and right after a measured
/// region; the region's seconds are scaled by how fast the probe ran.
/// The probe shares no code with the repository, so no change to the
/// repository can move it.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    const TABLE_WORDS: usize = 1 << 22; // 32 MiB: far beyond the caches
    const SCATTER_STEPS: usize = 400_000;
    const CHURN_STEPS: usize = 40_000;

    /// Allocates the probe's table (do this before any counted pass).
    #[must_use]
    pub fn new() -> Self {
        Self {
            table: vec![0; Self::TABLE_WORDS],
        }
    }

    /// One run of the kernel.
    fn kernel(&mut self) {
        let mask = self.table.len() - 1;
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..Self::SCATTER_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & mask;
            self.table[slot] = self.table[slot].wrapping_add(x);
        }
        let mut live: Vec<Vec<u64>> = Vec::new();
        for step in 0..Self::CHURN_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut block = Vec::with_capacity(4 + ((x >> 58) as usize) * 4);
            block.push(x);
            live.push(block);
            if step % 3 == 2 {
                let victim = (x >> 33) as usize % live.len();
                live.swap_remove(victim);
            }
        }
        std::hint::black_box((&self.table, live));
    }

    /// Seconds the kernel takes right now (the median of three runs).
    pub fn sample(&mut self) -> f64 {
        let mut samples = [0.0; 3];
        for sample in &mut samples {
            *sample = timed(|| self.kernel()).1;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
        samples[1]
    }

    /// The factor that turns seconds measured between two probe samples
    /// into reference seconds.
    #[must_use]
    pub fn to_reference(before: f64, after: f64) -> f64 {
        CALIBRATION_REFERENCE_S / (0.5 * (before + after))
    }
}

/// Threads the host offers (`available_parallelism`, 1 when unknown).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = Quartiles::of(&[4.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() >= before + 0.03, "{x}");
    }
}
