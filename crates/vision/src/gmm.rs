//! Stauffer–Grimson adaptive mixture-of-Gaussians background subtraction.
//!
//! Each pixel maintains `K` Gaussian modes `(weight, mean, variance)`. On
//! every frame the pixel value is matched against its modes (within 2.5σ);
//! a matched mode is updated towards the observation, unmatched modes decay,
//! and if nothing matches, the weakest mode is replaced. Modes are ranked by
//! `weight / σ` and the top modes covering `background_ratio` of the weight
//! mass are considered background — a pixel is *foreground* when its
//! matching mode is not among them (or nothing matched).
//!
//! This is the algorithm of Stauffer & Grimson (CVPR 1999), the basis of
//! OpenCV's `BackgroundSubtractorMOG2` that the paper's prototype uses on
//! the Jetson edge device.

use crate::mask::BitMask;
use tangram_video::raster::Raster;

/// The most modes a pixel may keep: `apply` ranks them in stack buffers of
/// this length.
const MAX_MODES: usize = 8;

/// Per-mode state, stored struct-of-arrays-style per pixel.
#[derive(Debug, Clone, Copy)]
struct Mode {
    weight: f32,
    mean: f32,
    var: f32,
}

/// Tunable parameters of the subtractor.
#[derive(Debug, Clone)]
pub struct GmmParams {
    /// Number of Gaussian modes per pixel (OpenCV default 5; 3 is the
    /// classic Stauffer–Grimson choice and plenty for grayscale).
    pub modes: usize,
    /// Learning rate α: how fast the model adapts (OpenCV: 1/history).
    pub learning_rate: f32,
    /// Mahalanobis match threshold in standard deviations (classic 2.5).
    pub match_sigma: f32,
    /// Weight mass that counts as background (classic 0.7).
    pub background_ratio: f32,
    /// Variance assigned to a newly created mode.
    pub initial_variance: f32,
    /// Lower bound on mode variance (keeps matching numerically sane).
    pub min_variance: f32,
}

impl Default for GmmParams {
    fn default() -> Self {
        Self {
            modes: 3,
            learning_rate: 0.035,
            match_sigma: 2.5,
            background_ratio: 0.7,
            initial_variance: 90.0,
            min_variance: 4.0,
        }
    }
}

/// The per-pixel mixture model for one camera.
#[derive(Debug, Clone)]
pub struct GaussianMixtureModel {
    params: GmmParams,
    width: u32,
    height: u32,
    /// `width × height × modes` mode records, row-major by pixel.
    modes: Vec<Mode>,
    frames_seen: u64,
}

impl GaussianMixtureModel {
    /// Creates an untrained model for `width × height` rasters.
    ///
    /// # Panics
    ///
    /// Panics if the raster would be empty or `params.modes` is not in
    /// `1..=8`.
    #[must_use]
    pub fn new(width: u32, height: u32, params: GmmParams) -> Self {
        assert!(width > 0 && height > 0, "empty raster");
        assert!(
            (1..=MAX_MODES).contains(&params.modes),
            "GmmParams::modes must be in 1..={MAX_MODES}, got {}",
            params.modes
        );
        let n = width as usize * height as usize * params.modes;
        Self {
            params,
            width,
            height,
            modes: vec![
                Mode {
                    weight: 0.0,
                    mean: 0.0,
                    var: 1.0,
                };
                n
            ],
            frames_seen: 0,
        }
    }

    /// Number of frames the model has absorbed.
    #[must_use]
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Absorbs one frame and returns its foreground mask.
    ///
    /// # Panics
    ///
    /// Panics if the raster's dimensions differ from the model's.
    pub fn apply(&mut self, raster: &Raster) -> BitMask {
        assert_eq!(
            (raster.width(), raster.height()),
            (self.width, self.height),
            "raster size changed mid-stream"
        );
        let p = self.params.clone();
        let k = p.modes;
        // Boost the learning rate on early frames so the model converges
        // from a cold start (mirrors OpenCV's 1/frames behaviour).
        let alpha = if self.frames_seen < 50 {
            (1.0 / (self.frames_seen as f32 + 2.0)).max(p.learning_rate)
        } else {
            p.learning_rate
        };
        let mut mask = BitMask::new(self.width, self.height);
        let pixels = raster.pixels();
        for (idx, &px) in pixels.iter().enumerate() {
            let x = f32::from(px);
            let modes = &mut self.modes[idx * k..(idx + 1) * k];
            let mut matched: Option<usize> = None;
            for (m, mode) in modes.iter().enumerate() {
                if mode.weight <= 0.0 {
                    continue;
                }
                let d = x - mode.mean;
                if d * d <= p.match_sigma * p.match_sigma * mode.var {
                    matched = Some(m);
                    break;
                }
            }
            match matched {
                Some(m) => {
                    // Update matched mode towards the observation; decay the
                    // rest.
                    for (j, mode) in modes.iter_mut().enumerate() {
                        if j == m {
                            mode.weight += alpha * (1.0 - mode.weight);
                            let rho = alpha;
                            let d = x - mode.mean;
                            mode.mean += rho * d;
                            mode.var = (mode.var + rho * (d * d - mode.var)).max(p.min_variance);
                        } else {
                            mode.weight *= 1.0 - alpha;
                        }
                    }
                }
                None => {
                    // Replace the weakest mode with a new one centred here.
                    let weakest = (0..k)
                        .min_by(|&a, &b| {
                            modes[a]
                                .weight
                                .partial_cmp(&modes[b].weight)
                                .expect("weights are finite")
                        })
                        .expect("at least one mode");
                    modes[weakest] = Mode {
                        weight: alpha.max(0.05),
                        mean: x,
                        var: p.initial_variance,
                    };
                    for (j, mode) in modes.iter_mut().enumerate() {
                        if j != weakest {
                            mode.weight *= 1.0 - alpha;
                        }
                    }
                }
            }
            // Normalise weights.
            let total: f32 = modes.iter().map(|m| m.weight).sum();
            if total > 0.0 {
                for mode in modes.iter_mut() {
                    mode.weight /= total;
                }
            }
            // Rank by weight/σ and find which modes form the background.
            // K is tiny (≤5), insertion-sort indices on the stack.
            let mut order = [0usize; MAX_MODES];
            for (i, o) in order.iter_mut().enumerate().take(k) {
                *o = i;
            }
            let fitness = |m: &Mode| -> f32 {
                if m.var > 0.0 {
                    m.weight / m.var.sqrt()
                } else {
                    0.0
                }
            };
            order[..k].sort_by(|&a, &b| {
                fitness(&modes[b])
                    .partial_cmp(&fitness(&modes[a]))
                    .expect("fitness is finite")
            });
            let mut cum = 0.0f32;
            let mut background_of = [false; MAX_MODES];
            for &i in &order[..k] {
                if cum < p.background_ratio {
                    background_of[i] = true;
                    cum += modes[i].weight;
                }
            }
            let is_foreground = match matched {
                Some(m) => !background_of[m],
                None => true,
            };
            if is_foreground {
                mask.set_index(idx, true);
            }
        }
        self.frames_seen += 1;
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::{Rect, Size};
    use tangram_video::object::GtObject;
    use tangram_video::raster::FrameRenderer;

    fn renderer() -> FrameRenderer {
        FrameRenderer::new(3, Size::new(640, 360), 1.0)
    }

    fn warmed_model(r: &FrameRenderer, frames: u64) -> GaussianMixtureModel {
        let mut gmm = GaussianMixtureModel::new(640, 360, GmmParams::default());
        for i in 0..frames {
            let _ = gmm.apply(&r.render(i, &[]));
        }
        gmm
    }

    #[test]
    fn static_background_goes_quiet() {
        let r = renderer();
        let mut gmm = warmed_model(&r, 40);
        let mask = gmm.apply(&r.render(40, &[]));
        let fg_fraction = mask.count_set() as f64 / (640.0 * 360.0);
        assert!(
            fg_fraction < 0.02,
            "background still noisy after warm-up: {fg_fraction}"
        );
    }

    #[test]
    fn moving_object_detected() {
        let r = renderer();
        let mut gmm = warmed_model(&r, 40);
        let obj = GtObject::new(900, Rect::new(200, 100, 60, 120));
        let mask = gmm.apply(&r.render(41, &[obj]));
        // Count foreground inside the object's box.
        let mut inside = 0u32;
        for y in 100..220 {
            for x in 200..260 {
                if mask.get(x, y) {
                    inside += 1;
                }
            }
        }
        let coverage = f64::from(inside) / (60.0 * 120.0);
        assert!(coverage > 0.6, "object coverage only {coverage}");
    }

    #[test]
    fn stationary_object_absorbs_into_background() {
        let r = renderer();
        let mut gmm = warmed_model(&r, 40);
        let obj = GtObject::new(900, Rect::new(300, 200, 40, 80));
        // Present the same object at the same spot for many frames.
        let mut last = BitMask::new(640, 360);
        for i in 0..120 {
            last = gmm.apply(&r.render(100 + i, &[obj]));
        }
        let mut inside = 0u32;
        for y in 200..280 {
            for x in 300..340 {
                if last.get(x, y) {
                    inside += 1;
                }
            }
        }
        let coverage = f64::from(inside) / (40.0 * 80.0);
        assert!(
            coverage < 0.3,
            "parked object should fade into background, coverage {coverage}"
        );
    }

    #[test]
    fn early_frames_learn_quickly() {
        let r = renderer();
        let mut gmm = GaussianMixtureModel::new(640, 360, GmmParams::default());
        // After only 10 frames the static scene should already be mostly
        // background thanks to the boosted early learning rate.
        let mut mask = gmm.apply(&r.render(0, &[]));
        for i in 1..10 {
            mask = gmm.apply(&r.render(i, &[]));
        }
        let fg = mask.count_set() as f64 / (640.0 * 360.0);
        assert!(fg < 0.1, "cold start too slow: {fg}");
        assert_eq!(gmm.frames_seen(), 10);
    }

    #[test]
    #[should_panic(expected = "GmmParams::modes must be in 1..=8, got 9")]
    fn more_modes_than_the_rank_buffer_holds_panic_at_construction() {
        let params = GmmParams {
            modes: 9,
            ..GmmParams::default()
        };
        let _ = GaussianMixtureModel::new(64, 36, params);
    }

    #[test]
    fn eight_modes_apply() {
        let r = FrameRenderer::new(3, Size::new(64, 36), 1.0);
        let params = GmmParams {
            modes: 8,
            ..GmmParams::default()
        };
        let mut gmm = GaussianMixtureModel::new(64, 36, params);
        let _ = gmm.apply(&r.render(0, &[]));
        assert_eq!(gmm.frames_seen(), 1);
    }

    #[test]
    #[should_panic(expected = "raster size changed")]
    fn size_mismatch_panics() {
        let r = renderer();
        let mut gmm = GaussianMixtureModel::new(100, 100, GmmParams::default());
        let _ = gmm.apply(&r.render(0, &[]));
    }
}
