//! Stochastic proxies for learning-based RoI extractors.
//!
//! Table IV of the paper compares GMM and optical flow against two
//! lightweight detectors (SSDLite-MobileNetV2 and Yolov3-MobileNetV2) used
//! as RoI extractors on the edge. Pre-trained CNNs are not available in
//! this environment, so each detector is replaced by a *calibrated
//! stochastic proxy*: it sees the ground truth and detects each object
//! with a probability that follows a logistic curve in the object's pixel
//! area (small objects are missed, as lightweight models do), jitters the
//! box, and adds false positives at a per-megapixel rate. The curve
//! parameters are fitted so the end-to-end Table IV numbers land near the
//! paper's.

use tangram_sim::rng::DetRng;
use tangram_types::geometry::Rect;
use tangram_video::generator::FrameTruth;

/// A calibrated stochastic stand-in for a lightweight detector.
#[derive(Debug, Clone)]
pub struct DetectorProxy {
    /// Human-readable model name.
    pub name: &'static str,
    /// Recall ceiling on very large objects.
    pub max_recall: f64,
    /// Object area (px² at 4K) at which recall reaches half its ceiling.
    pub area_at_half_recall: f64,
    /// Logistic steepness (larger = sharper size cut-off).
    pub steepness: f64,
    /// False positives per megapixel of frame area.
    pub fp_per_mpx: f64,
    /// Relative box jitter (fraction of width/height).
    pub jitter: f64,
    /// Margin added around detected boxes (fraction of size); loose boxes
    /// inflate the bandwidth their crops consume.
    pub box_margin: f64,
}

impl DetectorProxy {
    /// SSDLite-MobileNetV2: modest recall, struggles on small objects,
    /// loose boxes (hence the high bandwidth share in Table IV).
    #[must_use]
    pub fn ssdlite_mobilenet_v2() -> Self {
        Self {
            name: "SSDLite-MobileNetV2",
            max_recall: 0.78,
            area_at_half_recall: 5200.0,
            steepness: 1.6,
            fp_per_mpx: 0.12,
            jitter: 0.10,
            box_margin: 0.35,
        }
    }

    /// Yolov3-MobileNetV2: lower recall overall but tight boxes (lowest
    /// bandwidth share in Table IV).
    #[must_use]
    pub fn yolov3_mobilenet_v2() -> Self {
        Self {
            name: "Yolov3-MobileNetV2",
            max_recall: 0.66,
            area_at_half_recall: 6500.0,
            steepness: 1.8,
            fp_per_mpx: 0.08,
            jitter: 0.06,
            box_margin: 0.08,
        }
    }

    /// Probability of detecting an object with the given pixel area.
    #[must_use]
    pub fn recall_at_area(&self, area: f64) -> f64 {
        self.recall(area, self.area_at_half_recall.ln())
    }

    /// The logistic recall curve at `area`, given `ln(area_at_half_recall)`
    /// (which [`Self::detect`] takes once per frame).
    fn recall(&self, area: f64, ln_half_recall: f64) -> f64 {
        if area <= 0.0 {
            return 0.0;
        }
        let x = (area.ln() - ln_half_recall) * self.steepness;
        self.max_recall / (1.0 + (-x).exp())
    }

    /// Runs the proxy on one frame, producing RoI boxes in 4K coordinates.
    pub fn detect(&self, frame: &FrameTruth, rng: &mut DetRng) -> Vec<Rect> {
        let bounds = Rect::from_size(frame.frame_size);
        let ln_half_recall = self.area_at_half_recall.ln();
        // Room for every object and a few false positives (about one a
        // 4K frame at the calibrated rates), so the list rarely grows.
        let mut rois = Vec::with_capacity(frame.objects.len() + 4);
        for obj in &frame.objects {
            let p = self.recall(obj.rect.area() as f64, ln_half_recall);
            if !rng.chance(p) {
                continue;
            }
            rois.push(self.perturb(obj.rect, &bounds, rng));
        }
        // False positives: background texture misread as a person.
        let expected_fp = self.fp_per_mpx * frame.frame_size.megapixels();
        for _ in 0..rng.poisson(expected_fp) {
            let w = rng.uniform_in(40.0, 140.0) as u32;
            let h = (f64::from(w) * rng.uniform_in(1.4, 2.4)) as u32;
            let x = rng.index((frame.frame_size.width - w) as usize) as u32;
            let y = rng.index((frame.frame_size.height - h) as usize) as u32;
            rois.push(Rect::new(x, y, w, h));
        }
        rois
    }

    fn perturb(&self, rect: Rect, bounds: &Rect, rng: &mut DetRng) -> Rect {
        let jw = f64::from(rect.width) * self.jitter;
        let jh = f64::from(rect.height) * self.jitter;
        let grown_w = f64::from(rect.width) * (1.0 + self.box_margin) + rng.normal(0.0, jw);
        let grown_h = f64::from(rect.height) * (1.0 + self.box_margin) + rng.normal(0.0, jh);
        let cx = f64::from(rect.x) + f64::from(rect.width) / 2.0 + rng.normal(0.0, jw / 2.0);
        let cy = f64::from(rect.y) + f64::from(rect.height) / 2.0 + rng.normal(0.0, jh / 2.0);
        let x0 = (cx - grown_w / 2.0).max(0.0) as u32;
        let y0 = (cy - grown_h / 2.0).max(0.0) as u32;
        let r = Rect::new(x0, y0, grown_w.max(4.0) as u32, grown_h.max(4.0) as u32);
        r.clamped(bounds).unwrap_or(rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::ids::SceneId;
    use tangram_video::generator::{SceneSimulation, VideoConfig};

    fn frame() -> FrameTruth {
        let mut sim = SceneSimulation::new(SceneId::new(2), VideoConfig::default(), 99);
        sim.next_frame()
    }

    #[test]
    fn recall_curve_is_monotone_in_area() {
        let d = DetectorProxy::ssdlite_mobilenet_v2();
        let mut prev = 0.0;
        for area in [100.0, 1000.0, 5000.0, 20_000.0, 100_000.0] {
            let r = d.recall_at_area(area);
            assert!(r >= prev, "recall must grow with area");
            assert!(r <= d.max_recall + 1e-12);
            prev = r;
        }
        assert_eq!(d.recall_at_area(0.0), 0.0);
    }

    #[test]
    fn half_recall_at_calibrated_area() {
        let d = DetectorProxy::yolov3_mobilenet_v2();
        let r = d.recall_at_area(d.area_at_half_recall);
        assert!((r - d.max_recall / 2.0).abs() < 1e-9);
    }

    #[test]
    fn detects_a_reasonable_fraction() {
        let f = frame();
        let d = DetectorProxy::ssdlite_mobilenet_v2();
        let mut rng = DetRng::new(5);
        let mut total = 0usize;
        const ROUNDS: usize = 20;
        for _ in 0..ROUNDS {
            total += d.detect(&f, &mut rng).len();
        }
        let mean = total as f64 / ROUNDS as f64;
        let n = f.objects.len() as f64;
        assert!(
            mean > 0.3 * n && mean < 1.4 * n,
            "mean detections {mean:.1} vs {n} objects"
        );
    }

    #[test]
    fn boxes_stay_in_frame() {
        let f = frame();
        let d = DetectorProxy::ssdlite_mobilenet_v2();
        let mut rng = DetRng::new(6);
        let bounds = Rect::from_size(f.frame_size);
        for _ in 0..10 {
            for r in d.detect(&f, &mut rng) {
                assert!(bounds.contains_rect(&r), "box {r} outside frame");
            }
        }
    }

    #[test]
    fn yolo_boxes_tighter_than_ssd() {
        let f = frame();
        let mut rng_a = DetRng::new(7);
        let mut rng_b = DetRng::new(7);
        let ssd = DetectorProxy::ssdlite_mobilenet_v2();
        let yolo = DetectorProxy::yolov3_mobilenet_v2();
        let area = |rois: Vec<Rect>| -> f64 {
            if rois.is_empty() {
                return 0.0;
            }
            rois.iter().map(|r| r.area() as f64).sum::<f64>() / rois.len() as f64
        };
        let mut ssd_total = 0.0;
        let mut yolo_total = 0.0;
        for _ in 0..10 {
            ssd_total += area(ssd.detect(&f, &mut rng_a));
            yolo_total += area(yolo.detect(&f, &mut rng_b));
        }
        assert!(
            ssd_total > yolo_total,
            "SSD proxy must produce looser boxes ({ssd_total} vs {yolo_total})"
        );
    }

    #[test]
    fn deterministic_for_same_stream() {
        let f = frame();
        let d = DetectorProxy::ssdlite_mobilenet_v2();
        let a = d.detect(&f, &mut DetRng::new(11));
        let b = d.detect(&f, &mut DetRng::new(11));
        assert_eq!(a, b);
    }
}
