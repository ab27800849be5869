//! Batch inference latency model.
//!
//! Execution time is modelled as `base + per_megapixel × Mpx`, scaled by
//! multiplicative lognormal noise with mean 1. The affine-in-pixels shape
//! matches how batched CNN inference behaves once the GPU is saturated,
//! and reproduces the paper's observations:
//!
//! * Fig. 2b — RoI inference at ~59 ms for one camera, super-linear queue
//!   growth as cameras pile on;
//! * Fig. 14a — per-batch execution of 0.1–0.5 s for 1–9 canvases;
//! * Fig. 8 — full-frame (8.3 Mpx) invocations costing ≈ 2× a stitched
//!   4-canvas Tangram request on the serverless GPU slice.

use tangram_sim::rng::DetRng;
use tangram_types::time::SimDuration;

/// Affine-in-pixels latency model with lognormal noise.
#[derive(Debug, Clone)]
pub struct InferenceLatencyModel {
    /// Profile name (for reports).
    pub name: &'static str,
    /// Fixed per-invocation overhead (kernel launches, pre/post-processing,
    /// result serialisation).
    pub base: SimDuration,
    /// Marginal cost per megapixel of batched input.
    pub per_megapixel: SimDuration,
    /// σ of the multiplicative lognormal noise (mean-1 parameterisation).
    pub noise_sigma: f64,
}

impl InferenceLatencyModel {
    /// Yolov8x on the testbed's RTX-4090-class GPU (Figs. 2b/12/13/14).
    #[must_use]
    pub fn rtx4090_yolov8x() -> Self {
        Self {
            name: "yolov8x-rtx4090",
            base: SimDuration::from_millis(35),
            per_megapixel: SimDuration::from_millis(45),
            noise_sigma: 0.10,
        }
    }

    /// Yolov8x on an Alibaba Function Compute GPU slice
    /// (2 vCPU / 4 GB / 6 GB GPU; Fig. 8's cost magnitudes).
    #[must_use]
    pub fn alibaba_gpu_slice() -> Self {
        Self {
            name: "yolov8x-fc-gpu",
            base: SimDuration::from_millis(150),
            per_megapixel: SimDuration::from_millis(180),
            noise_sigma: 0.12,
        }
    }

    /// Expected execution time for `megapixels` of batched input.
    #[must_use]
    pub fn mean(&self, megapixels: f64) -> SimDuration {
        debug_assert!(megapixels >= 0.0);
        self.base + self.per_megapixel.mul_f64(megapixels)
    }

    /// Samples an execution time (lognormal noise with mean 1).
    pub fn sample(&self, megapixels: f64, rng: &mut DetRng) -> SimDuration {
        let mean = self.mean(megapixels).as_secs_f64();
        let s = self.noise_sigma;
        // E[lognormal(−σ²/2, σ)] = 1, so the sample mean stays calibrated.
        let noise = rng.lognormal(-s * s / 2.0, s);
        SimDuration::from_secs_f64(mean * noise)
    }

    /// Megapixels of a batch of `n` canvases of the given size — the
    /// quantity the scheduler passes to [`Self::sample`].
    #[must_use]
    pub fn batch_megapixels(n: usize, canvas: tangram_types::geometry::Size) -> f64 {
        n as f64 * canvas.megapixels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Size;

    #[test]
    fn mean_is_affine() {
        let m = InferenceLatencyModel::rtx4090_yolov8x();
        let one = m.mean(1.0);
        let two = m.mean(2.0);
        assert_eq!(
            two.as_micros() - one.as_micros(),
            m.per_megapixel.as_micros()
        );
        assert_eq!(m.mean(0.0), m.base);
    }

    #[test]
    fn calibration_matches_fig2b_scale() {
        // One camera's worth of RoIs (~0.5 Mpx) lands near 59 ms.
        let m = InferenceLatencyModel::rtx4090_yolov8x();
        let t = m.mean(0.5).as_millis_f64();
        assert!((45.0..75.0).contains(&t), "one-camera latency {t} ms");
    }

    #[test]
    fn calibration_matches_fig14a_scale() {
        // Batches of 1–9 canvases run in ~0.08–0.5 s.
        let m = InferenceLatencyModel::rtx4090_yolov8x();
        let canvas = Size::CANVAS_1024;
        let one = m.mean(InferenceLatencyModel::batch_megapixels(1, canvas));
        let nine = m.mean(InferenceLatencyModel::batch_megapixels(9, canvas));
        assert!(
            one.as_millis() >= 60 && one.as_millis() <= 150,
            "1 canvas: {one}"
        );
        assert!(
            nine.as_millis() >= 350 && nine.as_millis() <= 600,
            "9 canvases: {nine}"
        );
    }

    #[test]
    fn full_frame_slower_than_stitched_on_fc() {
        // Fig. 8's driver: a full 4K frame (8.3 Mpx) costs much more than
        // the ~4 canvases Tangram stitches the same content into.
        let m = InferenceLatencyModel::alibaba_gpu_slice();
        let full = m.mean(Size::UHD_4K.megapixels());
        let stitched = m.mean(InferenceLatencyModel::batch_megapixels(
            4,
            Size::CANVAS_1024,
        ));
        assert!(full.as_secs_f64() > 1.5 * stitched.as_secs_f64());
    }

    #[test]
    fn samples_center_on_mean() {
        let m = InferenceLatencyModel::rtx4090_yolov8x();
        let mut rng = DetRng::new(7);
        let n = 4000;
        let mean_s: f64 = (0..n)
            .map(|_| m.sample(2.0, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        let expected = m.mean(2.0).as_secs_f64();
        assert!(
            (mean_s / expected - 1.0).abs() < 0.03,
            "sample mean {mean_s} vs {expected}"
        );
    }

    #[test]
    fn samples_are_positive_and_noisy() {
        let m = InferenceLatencyModel::rtx4090_yolov8x();
        let mut rng = DetRng::new(8);
        let a = m.sample(1.0, &mut rng);
        let b = m.sample(1.0, &mut rng);
        assert!(a.as_micros() > 0);
        assert_ne!(a, b, "noise must vary");
    }

    #[test]
    fn batch_megapixels_scales() {
        let mpx = InferenceLatencyModel::batch_megapixels(3, Size::CANVAS_1024);
        assert!((mpx - 3.0 * 1.048_576).abs() < 1e-9);
    }
}
