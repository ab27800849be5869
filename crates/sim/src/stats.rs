//! Statistics collectors used by the experiment harness.
//!
//! * [`OnlineStats`] — single-pass mean/variance (Welford), the basis of
//!   the paper's latency estimator (`T_slack = µ + 3σ`, Eqn. 9);
//! * [`EmpiricalCdf`] — sample-based CDFs, matching the CDF plots in
//!   Figs. 3(b), 10(b) and 13.

/// Single-pass mean / variance / extrema accumulator (Welford's method).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// Where the nearest-rank `q`-quantile of `n` sorted samples sits
/// (0-based): the smallest sample whose cumulative frequency reaches
/// `q`, i.e. the `⌈q·n⌉`-th smallest (1-based), clamped so `q ≤ 0`
/// yields the minimum and `q ≥ 1` the maximum.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn nearest_rank_index(q: f64, n: usize) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// An empirical cumulative distribution built from raw samples.
#[derive(Debug, Clone, Default)]
pub struct EmpiricalCdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl EmpiricalCdf {
    /// Creates an empty CDF.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        self.samples.extend(xs);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the CDF holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in CDF"));
            self.sorted = true;
        }
    }

    /// Fraction of samples `<= x` — the CDF evaluated at `x`.
    ///
    /// ```
    /// # use tangram_sim::stats::EmpiricalCdf;
    /// let mut cdf = EmpiricalCdf::new();
    /// cdf.extend([1.0, 2.0, 3.0, 4.0]);
    /// assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
    /// ```
    pub fn fraction_at_or_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`, nearest-rank): the sample at
    /// [`nearest_rank_index`] of the sorted samples.
    ///
    /// Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.samples[nearest_rank_index(q, self.samples.len())])
    }

    /// `n` evenly-spaced `(value, cumulative_probability)` points — exactly
    /// what a CDF plot needs.
    pub fn points(&mut self, n: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || n == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let len = self.samples.len();
        (0..n)
            .map(|i| {
                let idx = if n == 1 {
                    len - 1
                } else {
                    i * (len - 1) / (n - 1)
                };
                (self.samples[idx], (idx + 1) as f64 / len as f64)
            })
            .collect()
    }

    /// Mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn cdf_quantiles() {
        let mut cdf = EmpiricalCdf::new();
        cdf.extend((1..=100).map(f64::from));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        let median = cdf.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
    }

    #[test]
    fn nearest_rank_index_is_ceil_qn_clamped_to_the_samples() {
        // Rows are n; columns are q = 0, 0.5, 0.99, 1.
        for (n, expected) in [
            (1, [0, 0, 0, 0]),
            (2, [0, 0, 1, 1]),
            (100, [0, 49, 98, 99]),
            (101, [0, 50, 99, 100]),
        ] {
            let got = [0.0, 0.5, 0.99, 1.0].map(|q| nearest_rank_index(q, n));
            assert_eq!(got, expected, "n = {n}");
        }
        // Out-of-range `q` clamps rather than indexing out of bounds.
        assert_eq!(nearest_rank_index(-3.0, 10), 0);
        assert_eq!(nearest_rank_index(7.0, 10), 9);
    }

    #[test]
    fn quantile_is_true_nearest_rank() {
        // 10 samples at q = 0.5: nearest rank is ⌈0.5·10⌉ = 5, the 5th
        // smallest — not the 6th the old round((len−1)·q) produced.
        let mut cdf = EmpiricalCdf::new();
        cdf.extend((1..=10).map(f64::from));
        assert_eq!(cdf.quantile(0.5), Some(5.0));
        // 100 samples at q = 0.99: rank ⌈99⌉ = 99 → the 99th smallest.
        let mut cdf = EmpiricalCdf::new();
        cdf.extend((1..=100).map(f64::from));
        assert_eq!(cdf.quantile(0.99), Some(99.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        // Small cells: with 10 samples, p99 rank ⌈9.9⌉ = 10 → the max.
        let mut cdf = EmpiricalCdf::new();
        cdf.extend((1..=10).map(f64::from));
        assert_eq!(cdf.quantile(0.99), Some(10.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(10.0));
    }

    #[test]
    fn cdf_fraction_below() {
        let mut cdf = EmpiricalCdf::new();
        cdf.extend([0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(cdf.fraction_at_or_below(0.05), 0.0);
        assert_eq!(cdf.fraction_at_or_below(0.3), 0.6);
        assert_eq!(cdf.fraction_at_or_below(9.9), 1.0);
    }

    #[test]
    fn cdf_points_monotone() {
        let mut cdf = EmpiricalCdf::new();
        cdf.extend((0..50).map(|i| f64::from(i) * 0.37));
        let pts = cdf.points(10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_empty_behaviour() {
        let mut cdf = EmpiricalCdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert!(cdf.points(5).is_empty());
    }
}
