//! The detection simulator.
//!
//! Detection quality in the paper is governed by how large an object
//! appears *in the pixels actually presented to the model*: downsizing a
//! 4K frame to 480P shrinks every object 81-fold in area and AP collapses
//! from 0.744 to 0.374 (Fig. 4b), while Tangram's stitching presents
//! patches at native scale and loses nothing. We model per-object recall
//! as a calibrated function of presented area, times a per-scene base
//! difficulty (Table III's full-frame column), times a visibility factor
//! for objects clipped at patch boundaries.

use crate::ap::Detection;
use tangram_sim::rng::DetRng;
use tangram_types::geometry::Rect;

/// Resolution-sensitivity profile of a trained model.
///
/// `size_factor(a) = 1 / (1 + (a_half/a)^s + (a/a_big)^t)` where `a` is
/// the object's presented pixel area: the first penalty term models
/// too-small objects (downsizing), the second too-large ones (upsizing
/// past the training distribution, Fig. 4b's 480P-trained curve).
#[derive(Debug, Clone)]
pub struct ResolutionProfile {
    /// Profile name.
    pub name: &'static str,
    /// Presented area (px²) at which small-object recall halves.
    pub a_half: f64,
    /// Steepness of the small-object penalty.
    pub s: f64,
    /// Presented area above which over-scaling starts to hurt
    /// (`f64::INFINITY` disables the term).
    pub a_big: f64,
    /// Steepness of the over-scaling penalty.
    pub t: f64,
    /// Recall ceiling of the model (training quality).
    pub ceiling: f64,
}

impl ResolutionProfile {
    /// Yolov8x trained on the 4K PANDA split (Fig. 4b blue curve).
    /// Calibrated so that presenting a typical 12 000 px² object at
    /// 1080P/720P/480P scales reproduces AP ratios ≈ 0.93/0.81/0.50.
    #[must_use]
    pub fn yolov8x_4k() -> Self {
        Self {
            name: "yolov8x-4k",
            a_half: 590.0,
            s: 1.8,
            a_big: f64::INFINITY,
            t: 1.0,
            ceiling: 1.0,
        }
    }

    /// Yolov8x trained on the 480P split (Fig. 4b orange curve): fine on
    /// small presented objects, degrades when inputs are upsized.
    #[must_use]
    pub fn yolov8x_480p() -> Self {
        Self {
            name: "yolov8x-480p",
            a_half: 60.0,
            s: 1.8,
            a_big: 28_900.0,
            t: 1.02,
            ceiling: 0.78,
        }
    }

    /// The size-dependent recall multiplier for a presented area.
    #[must_use]
    pub fn size_factor(&self, presented_area: f64) -> f64 {
        if presented_area <= 0.0 {
            return 0.0;
        }
        let small = (self.a_half / presented_area).powf(self.s);
        let big = if self.a_big.is_finite() {
            (presented_area / self.a_big).powf(self.t)
        } else {
            0.0
        };
        self.ceiling / (1.0 + small + big)
    }
}

/// An object as presented to the model after the transmission pipeline
/// (full frame, masked frame, or stitched patches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresentedObject {
    /// Ground-truth track (for diagnostics; not used by detection).
    pub track: u64,
    /// The object's box in *frame* coordinates (detections are evaluated
    /// in frame space, mapping back through the lossless stitch).
    pub true_rect: Rect,
    /// Pixel area the model actually sees for this object (after any
    /// down/upscaling).
    pub presented_area: f64,
    /// Fraction of the object visible in the presented pixels (< 1 when a
    /// patch boundary clips it).
    pub visible_fraction: f64,
}

impl PresentedObject {
    /// An object presented at native scale, fully visible.
    #[must_use]
    pub fn native(track: u64, rect: Rect) -> Self {
        Self {
            track,
            true_rect: rect,
            presented_area: rect.area() as f64,
            visible_fraction: 1.0,
        }
    }

    /// An object presented after uniform rescaling by `scale` (e.g. 0.125
    /// for a 4K frame downsized to 480P).
    #[must_use]
    pub fn scaled(track: u64, rect: Rect, scale: f64) -> Self {
        Self {
            track,
            true_rect: rect,
            presented_area: rect.area() as f64 * scale * scale,
            visible_fraction: 1.0,
        }
    }
}

/// Simulates the detector head: recall, box jitter, confidence, false
/// positives.
#[derive(Debug, Clone)]
pub struct DetectionSimulator {
    /// The model's resolution profile.
    pub profile: ResolutionProfile,
    /// False positives per presented megapixel.
    pub fp_per_mpx: f64,
    /// Relative box jitter of true positives (fraction of box size).
    pub jitter: f64,
    /// Minimum visible fraction below which an object cannot be detected.
    pub min_visible: f64,
}

impl DetectionSimulator {
    /// Creates a simulator with defaults calibrated for Yolov8x-style
    /// serving (low FP rate at the confidence threshold the paper serves
    /// at, tight boxes).
    #[must_use]
    pub fn new(profile: ResolutionProfile) -> Self {
        Self {
            profile,
            fp_per_mpx: 0.05,
            jitter: 0.04,
            min_visible: 0.35,
        }
    }

    /// Detection probability for one presented object in a scene with the
    /// given base difficulty (Table III full-frame AP).
    #[must_use]
    pub fn detection_probability(&self, obj: &PresentedObject, scene_base: f64) -> f64 {
        if obj.visible_fraction < self.min_visible {
            return 0.0;
        }
        // Partially visible objects are harder: ramp from min_visible→1.
        let vis =
            ((obj.visible_fraction - self.min_visible) / (1.0 - self.min_visible)).clamp(0.0, 1.0);
        let vis_factor = 0.5 + 0.5 * vis;
        (scene_base * self.profile.size_factor(obj.presented_area) * vis_factor).clamp(0.0, 1.0)
    }

    /// Runs the detector over presented objects plus `presented_mpx` of
    /// pixels (for the false-positive rate), returning detections in frame
    /// coordinates.
    pub fn detect(
        &self,
        objects: &[PresentedObject],
        presented_mpx: f64,
        scene_base: f64,
        frame_bounds: Rect,
        rng: &mut DetRng,
    ) -> Vec<Detection> {
        let mut out = Vec::new();
        for obj in objects {
            let p = self.detection_probability(obj, scene_base);
            if !rng.chance(p) {
                continue;
            }
            let rect = self.jitter_box(obj.true_rect, &frame_bounds, rng);
            // Confidence correlates with how easy the object was.
            let confidence = (0.55 + 0.4 * p + rng.normal(0.0, 0.05)).clamp(0.05, 0.999);
            out.push(Detection { rect, confidence });
        }
        // False positives: low-confidence clutter.
        let expected_fp = self.fp_per_mpx * presented_mpx.max(0.0);
        for _ in 0..rng.poisson(expected_fp) {
            let w = rng.uniform_in(30.0, 120.0) as u32;
            let h = (f64::from(w) * rng.uniform_in(1.5, 2.2)) as u32;
            let max_x = frame_bounds.width.saturating_sub(w).max(1) as usize;
            let max_y = frame_bounds.height.saturating_sub(h).max(1) as usize;
            let x = frame_bounds.x + rng.index(max_x) as u32;
            let y = frame_bounds.y + rng.index(max_y) as u32;
            let confidence = (0.3 + rng.uniform() * 0.35).min(0.9);
            out.push(Detection {
                rect: Rect::new(x, y, w, h),
                confidence,
            });
        }
        out
    }

    fn jitter_box(&self, rect: Rect, bounds: &Rect, rng: &mut DetRng) -> Rect {
        let jw = f64::from(rect.width) * self.jitter;
        let jh = f64::from(rect.height) * self.jitter;
        let x = (f64::from(rect.x) + rng.normal(0.0, jw)).max(0.0) as u32;
        let y = (f64::from(rect.y) + rng.normal(0.0, jh)).max(0.0) as u32;
        let w = ((f64::from(rect.width) * (1.0 + rng.normal(0.0, self.jitter))).max(4.0)) as u32;
        let h = ((f64::from(rect.height) * (1.0 + rng.normal(0.0, self.jitter))).max(4.0)) as u32;
        Rect::new(x, y, w, h).clamped(bounds).unwrap_or(rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Size;

    #[test]
    fn size_factor_reproduces_fig4b_downsizing() {
        // A typical 12 000 px² PANDA person at the five evaluation
        // resolutions; ratios against the paper's 4K-trained AP curve
        // (0.744 → 0.736/0.691/0.600/0.374).
        let p = ResolutionProfile::yolov8x_4k();
        let a0 = 12_000.0;
        let native = p.size_factor(a0);
        let checks = [
            (2.0 / 3.0, 0.736 / 0.744), // 2K
            (0.5, 0.691 / 0.744),       // 1080P
            (1.0 / 3.0, 0.600 / 0.744), // 720P
            (2.0 / 9.0, 0.374 / 0.744), // 480P
        ];
        for (scale, expected_ratio) in checks {
            let ratio = p.size_factor(a0 * scale * scale) / native;
            assert!(
                (ratio - expected_ratio).abs() < 0.08,
                "scale {scale}: ratio {ratio:.3} vs paper {expected_ratio:.3}"
            );
        }
    }

    #[test]
    fn size_factor_reproduces_fig4b_upsizing() {
        // The 480P-trained model degrades as inputs are upsized towards 4K
        // (0.551 at 480P down to 0.411 at 4K).
        let p = ResolutionProfile::yolov8x_480p();
        let native_480 = 12_000.0 * (2.0f64 / 9.0).powi(2); // ≈ 593 px²
        let at_480 = p.size_factor(native_480);
        let at_4k = p.size_factor(12_000.0);
        let ratio = at_4k / at_480;
        let paper = 0.411 / 0.551;
        assert!(
            (ratio - paper).abs() < 0.08,
            "upsizing ratio {ratio:.3} vs paper {paper:.3}"
        );
    }

    #[test]
    fn native_beats_downsized_for_4k_model() {
        let p = ResolutionProfile::yolov8x_4k();
        assert!(p.size_factor(12_000.0) > p.size_factor(12_000.0 / 16.0));
        assert_eq!(p.size_factor(0.0), 0.0);
    }

    #[test]
    fn clipped_objects_harder_invisible_impossible() {
        let sim = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
        let full = PresentedObject {
            visible_fraction: 1.0,
            ..PresentedObject::native(1, Rect::new(0, 0, 100, 200))
        };
        let half = PresentedObject {
            visible_fraction: 0.6,
            ..full
        };
        let sliver = PresentedObject {
            visible_fraction: 0.2,
            ..full
        };
        let p_full = sim.detection_probability(&full, 0.8);
        let p_half = sim.detection_probability(&half, 0.8);
        let p_sliver = sim.detection_probability(&sliver, 0.8);
        assert!(p_full > p_half, "{p_full} vs {p_half}");
        assert_eq!(p_sliver, 0.0);
    }

    #[test]
    fn scene_base_scales_probability() {
        let sim = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
        let obj = PresentedObject::native(1, Rect::new(0, 0, 100, 200));
        let hard = sim.detection_probability(&obj, 0.5);
        let easy = sim.detection_probability(&obj, 0.95);
        assert!((easy / hard - 0.95 / 0.5).abs() < 1e-9);
    }

    #[test]
    fn detect_returns_frame_space_boxes() {
        let sim = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
        let bounds = Rect::from_size(Size::UHD_4K);
        let objects: Vec<PresentedObject> = (0..50)
            .map(|i| PresentedObject::native(i, Rect::new(100 + i as u32 * 60, 400, 50, 100)))
            .collect();
        let mut rng = DetRng::new(3);
        let dets = sim.detect(&objects, 8.3, 0.9, bounds, &mut rng);
        assert!(!dets.is_empty());
        for d in &dets {
            assert!(bounds.contains_rect(&d.rect), "detection escapes frame");
            assert!(d.confidence > 0.0 && d.confidence < 1.0);
        }
    }

    #[test]
    fn scaled_constructor_shrinks_presented_area() {
        let obj = PresentedObject::scaled(1, Rect::new(0, 0, 100, 100), 0.25);
        assert!((obj.presented_area - 625.0).abs() < 1e-9);
        assert_eq!(obj.true_rect, Rect::new(0, 0, 100, 100));
    }

    #[test]
    fn deterministic_given_stream() {
        let sim = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
        let bounds = Rect::from_size(Size::UHD_4K);
        let objs = vec![PresentedObject::native(1, Rect::new(50, 50, 80, 160))];
        let a = sim.detect(&objs, 1.0, 0.9, bounds, &mut DetRng::new(5));
        let b = sim.detect(&objs, 1.0, 0.9, bounds, &mut DetRng::new(5));
        assert_eq!(a, b);
    }
}
