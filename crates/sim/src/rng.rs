//! Seeded, forkable random-number streams.
//!
//! Every stochastic component (scene dynamics, sensor noise, inference
//! latency, cold starts, …) draws from its own [`DetRng`] forked from a
//! single experiment seed by a stable label. Forking decorrelates the
//! streams — adding draws to one component never perturbs another — which
//! is what makes ablations comparable across runs.
//!
//! The distributions the substrates need (normal, lognormal, Poisson,
//! exponential) are implemented here directly on top of `rand`'s uniform
//! source, avoiding an extra dependency.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    rng: SmallRng,
}

impl DetRng {
    /// Creates a stream from an experiment seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The seed this stream was created from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream for the component named `label`.
    ///
    /// The derived seed mixes the parent seed with an FNV-1a hash of the
    /// label, so `fork("gmm")` is stable across runs and distinct from
    /// `fork("latency")`.
    ///
    /// ```
    /// # use tangram_sim::rng::DetRng;
    /// let root = DetRng::new(42);
    /// let mut a1 = root.fork("component-a");
    /// let mut a2 = root.fork("component-a");
    /// let mut b = root.fork("component-b");
    /// let x1: f64 = a1.uniform();
    /// assert_eq!(x1, a2.uniform());
    /// assert_ne!(x1, b.uniform());
    /// ```
    #[must_use]
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(splitmix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Derives an independent stream for an indexed entity (e.g. camera N).
    #[must_use]
    pub fn fork_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(self.derive_seed(label, index))
    }

    /// Derives the seed [`DetRng::fork_indexed`] would use, without
    /// constructing the stream.
    ///
    /// This is the hand-off point for components that carry a bare `u64`
    /// seed across a thread or config boundary — e.g. the experiment
    /// harness stamping each sweep cell's `EngineConfig::seed` — while
    /// staying on the same labelled-fork discipline as everything else.
    /// Results are independent of *when* or *where* the derived seed is
    /// consumed, which is what makes a parallel sweep bit-identical to a
    /// sequential one.
    #[must_use]
    pub fn derive_seed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index.wrapping_add(0x9e37)))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.random_range(0..n)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging the first uniform away from zero.
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0, "negative std dev");
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal draw parameterised by the *underlying* normal's µ and σ.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential draw with the given rate λ (mean 1/λ).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -self.uniform().max(f64::MIN_POSITIVE).ln() / rate
    }

    /// Poisson draw with mean `lambda`.
    ///
    /// Uses Knuth's product method for small λ and a normal approximation
    /// (rounded, clamped at zero) for λ > 30 where Knuth's method becomes
    /// slow and numerically fragile.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.round().max(0.0) as u64;
        }
        let limit = (-lambda).exp();
        let mut product = self.uniform();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.uniform();
        }
        count
    }
}

/// FNV-1a hash of a byte string (stable across platforms and runs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finaliser — scrambles related seeds into unrelated ones.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn forks_are_stable_and_distinct() {
        let root = DetRng::new(1234);
        let mut x = root.fork("alpha");
        let mut y = root.fork("alpha");
        let z = root.fork("beta");
        assert_eq!(x.uniform(), y.uniform());
        assert_ne!(x.seed(), z.seed());
    }

    #[test]
    fn fork_indexed_distinguishes_entities() {
        let root = DetRng::new(5);
        let s0 = root.fork_indexed("camera", 0).seed();
        let s1 = root.fork_indexed("camera", 1).seed();
        assert_ne!(s0, s1);
    }

    #[test]
    fn derive_seed_matches_fork_indexed() {
        let root = DetRng::new(5);
        assert_eq!(
            root.derive_seed("cell", 3),
            root.fork_indexed("cell", 3).seed()
        );
        assert_ne!(root.derive_seed("cell", 3), root.derive_seed("cell", 4));
        assert_ne!(
            root.derive_seed("cell", 3),
            root.derive_seed("trace", 3),
            "labels decorrelate streams"
        );
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = DetRng::new(99);
        for _ in 0..1000 {
            let v = r.uniform_in(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = DetRng::new(2024);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn poisson_mean_small_lambda() {
        let mut r = DetRng::new(7);
        let n = 20_000;
        let mean = (0..n).map(|_| r.poisson(3.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let mut r = DetRng::new(8);
        let n = 10_000;
        let mean = (0..n).map(|_| r.poisson(100.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = DetRng::new(9);
        assert_eq!(r.poisson(0.0), 0);
        assert_eq!(r.poisson(-1.0), 0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::new(10);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            assert!(r.lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn index_covers_range() {
        let mut r = DetRng::new(12);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
