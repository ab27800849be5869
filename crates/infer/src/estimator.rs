//! The Latency Estimator (Eqn. 9).
//!
//! "Canvases of size M×N featuring diverse patch compositions are grouped
//! into different batch sizes. Each group undergoes 1000 inference
//! iterations, with their corresponding average time µ and standard
//! deviation σ being recorded. […] we set the slack time as the mean plus
//! three times the standard deviation." — §III-C.
//!
//! Profiling happens offline, so the estimator is free at scheduling time:
//! [`LatencyEstimator::slack_for`] is a table lookup. The profile is a
//! pure function of its inputs: a single engine run takes it when it
//! builds its Tangram scheduler, and a sweep takes it once per engine
//! seed and σ multiplier before any cell runs, handing every cell on that
//! key a copy.

use crate::latency::InferenceLatencyModel;
use tangram_sim::rng::DetRng;
use tangram_sim::stats::OnlineStats;
use tangram_types::geometry::Size;
use tangram_types::time::SimDuration;

/// Offline-profiled conservative execution-time bounds per batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyEstimator {
    canvas: Size,
    /// `(µ, σ)` in seconds and `T_slack = µ + k·σ` rounded once, indexed
    /// by batch size − 1.
    profile: Vec<(f64, f64, SimDuration)>,
    /// The σ multiplier `k` (3 in the paper; exposed for the slack
    /// ablation and for "applications highly sensitive to the SLO", §V-B).
    sigma_multiplier: f64,
}

impl LatencyEstimator {
    /// Profiles `model` offline for batch sizes `1..=max_batch`, running
    /// `iterations` simulated inferences per size (the paper uses 1000).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `iterations` is zero.
    #[must_use]
    pub fn profile(
        model: &InferenceLatencyModel,
        canvas: Size,
        max_batch: usize,
        iterations: usize,
        sigma_multiplier: f64,
        seed: u64,
    ) -> Self {
        assert!(max_batch > 0, "need at least batch size 1");
        assert!(iterations > 0, "need at least one iteration");
        let mut rng = DetRng::new(seed).fork("latency-estimator");
        let mut profile = Vec::with_capacity(max_batch);
        for b in 1..=max_batch {
            let mpx = InferenceLatencyModel::batch_megapixels(b, canvas);
            let mut stats = OnlineStats::new();
            for _ in 0..iterations {
                stats.push(model.sample(mpx, &mut rng).as_secs_f64());
            }
            let (mu, sigma) = (stats.mean(), stats.std_dev());
            let slack = SimDuration::from_secs_f64(mu + sigma_multiplier * sigma);
            profile.push((mu, sigma, slack));
        }
        Self {
            canvas,
            profile,
            sigma_multiplier,
        }
    }

    /// Convenience: the paper's defaults (1000 iterations, k = 3).
    #[must_use]
    pub fn paper_default(model: &InferenceLatencyModel, canvas: Size, max_batch: usize) -> Self {
        Self::profile(model, canvas, max_batch, 1000, 3.0, 0x7a6e)
    }

    /// The canvas size the profile was built for.
    #[must_use]
    pub fn canvas(&self) -> Size {
        self.canvas
    }

    /// `T_slack(b) = µ_b + k·σ_b` for a batch of `b` canvases. Batch sizes
    /// beyond the profiled range extrapolate linearly from the last two
    /// entries (conservative: the affine latency model makes this exact in
    /// expectation).
    ///
    /// A batch of zero canvases needs no time.
    #[must_use]
    pub fn slack_for(&self, batch: usize) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        let k = self.sigma_multiplier;
        if let Some(&(_, _, slack)) = self.profile.get(batch - 1) {
            return slack;
        }
        // Linear extrapolation on µ; σ taken from the largest profiled size.
        let n = self.profile.len();
        let (mu_last, sigma_last, _) = self.profile[n - 1];
        let slope = if n >= 2 {
            mu_last - self.profile[n - 2].0
        } else {
            mu_last
        };
        let mu = mu_last + slope * (batch - n) as f64;
        SimDuration::from_secs_f64(mu + k * sigma_last)
    }

    /// The profiled mean for a batch size (diagnostics / reports).
    #[must_use]
    pub fn mean_for(&self, batch: usize) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        let idx = batch.min(self.profile.len()) - 1;
        SimDuration::from_secs_f64(self.profile[idx].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> LatencyEstimator {
        LatencyEstimator::paper_default(
            &InferenceLatencyModel::rtx4090_yolov8x(),
            Size::CANVAS_1024,
            8,
        )
    }

    #[test]
    fn slack_grows_with_batch() {
        let e = estimator();
        let mut prev = SimDuration::ZERO;
        for b in 1..=8 {
            let s = e.slack_for(b);
            assert!(s > prev, "slack must grow with batch size");
            prev = s;
        }
    }

    #[test]
    fn slack_exceeds_mean() {
        let e = estimator();
        for b in 1..=8 {
            assert!(
                e.slack_for(b) > e.mean_for(b),
                "µ+3σ must exceed µ at batch {b}"
            );
        }
    }

    #[test]
    fn slack_covers_most_samples() {
        // The point of µ+3σ: execution virtually never exceeds the slack.
        let model = InferenceLatencyModel::rtx4090_yolov8x();
        let e = estimator();
        let mut rng = DetRng::new(99);
        for b in [1usize, 4, 8] {
            let slack = e.slack_for(b).as_secs_f64();
            let mpx = InferenceLatencyModel::batch_megapixels(b, Size::CANVAS_1024);
            let n = 2000;
            let over = (0..n)
                .filter(|_| model.sample(mpx, &mut rng).as_secs_f64() > slack)
                .count();
            let rate = over as f64 / n as f64;
            assert!(rate < 0.01, "batch {b}: {rate:.3} of samples exceed slack");
        }
    }

    #[test]
    fn zero_batch_zero_slack() {
        assert_eq!(estimator().slack_for(0), SimDuration::ZERO);
    }

    #[test]
    fn extrapolates_beyond_profiled_range() {
        let e = estimator();
        let inside = e.slack_for(8);
        let beyond = e.slack_for(12);
        let further = e.slack_for(16);
        assert!(beyond > inside);
        assert!(further > beyond);
        // Roughly linear growth per extra canvas.
        let step1 = beyond.as_secs_f64() - inside.as_secs_f64();
        let step2 = further.as_secs_f64() - beyond.as_secs_f64();
        assert!((step1 / step2 - 1.0).abs() < 0.25);
    }

    #[test]
    fn higher_k_is_more_conservative() {
        let model = InferenceLatencyModel::rtx4090_yolov8x();
        let e1 = LatencyEstimator::profile(&model, Size::CANVAS_1024, 4, 500, 1.0, 1);
        let e3 = LatencyEstimator::profile(&model, Size::CANVAS_1024, 4, 500, 3.0, 1);
        for b in 1..=4 {
            assert!(e3.slack_for(b) > e1.slack_for(b));
        }
    }

    /// `slack_for` as it was before the profile kept its slack column:
    /// `µ + k·σ` rounded on every call.
    fn slack_per_call(e: &LatencyEstimator, batch: usize) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        let (k, n) = (e.sigma_multiplier, e.profile.len());
        if batch <= n {
            let (mu, sigma, _) = e.profile[batch - 1];
            return SimDuration::from_secs_f64(mu + k * sigma);
        }
        let (mu_last, sigma_last, _) = e.profile[n - 1];
        let slope = if n >= 2 {
            mu_last - e.profile[n - 2].0
        } else {
            mu_last
        };
        let mu = mu_last + slope * (batch - n) as f64;
        SimDuration::from_secs_f64(mu + k * sigma_last)
    }

    #[test]
    fn the_slack_table_equals_the_per_call_formula() {
        let model = InferenceLatencyModel::rtx4090_yolov8x();
        for k in [1.0, 3.0, 4.5] {
            for max_batch in [1, 2, 9] {
                let e = LatencyEstimator::profile(&model, Size::CANVAS_1024, max_batch, 300, k, 11);
                for b in 0..=2 * max_batch {
                    assert_eq!(
                        e.slack_for(b),
                        slack_per_call(&e, b),
                        "k {k}, max_batch {max_batch}, batch {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = InferenceLatencyModel::rtx4090_yolov8x();
        let a = LatencyEstimator::profile(&model, Size::CANVAS_1024, 4, 200, 3.0, 7);
        let b = LatencyEstimator::profile(&model, Size::CANVAS_1024, 4, 200, 3.0, 7);
        assert_eq!(a.slack_for(3), b.slack_for(3));
    }
}
