//! The unified RoI-extractor interface.
//!
//! Every extraction strategy (background subtraction, optical flow,
//! lightweight detectors) implements [`RoiExtractor`], producing RoI boxes
//! in *logical 4K coordinates* regardless of the raster resolution it
//! works at — exactly the contract the adaptive frame partitioning
//! algorithm consumes.

use crate::cc::connected_components;
use crate::detector::DetectorProxy;
use crate::flow::BlockMatcher;
use crate::gmm::{GaussianMixtureModel, GmmParams};
use tangram_sim::rng::DetRng;
use tangram_types::geometry::Rect;
use tangram_video::generator::FrameTruth;
use tangram_video::raster::Raster;

/// Extracts candidate RoIs from a frame.
pub trait RoiExtractor {
    /// Human-readable name of the strategy (for experiment tables).
    fn name(&self) -> &'static str;

    /// Processes the next frame of the stream and returns the RoIs in
    /// logical frame coordinates. Extractors are stateful (background
    /// models, previous frames) and must be fed frames in order.
    fn extract(&mut self, frame: &FrameTruth) -> Vec<Rect>;
}

impl<E: RoiExtractor + ?Sized> RoiExtractor for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn extract(&mut self, frame: &FrameTruth) -> Vec<Rect> {
        (**self).extract(frame)
    }
}

/// Iteratively merges boxes that overlap (or nearly touch, within `gap`
/// pixels) until a fixed point — GMM blobs of one person often fragment,
/// and overlapping RoIs would otherwise be stitched twice.
///
/// Each pass folds every box, in order, into the first kept box whose
/// `gap`-inflated rectangle it intersects, or keeps it. The kept boxes
/// are compacted into a prefix of `boxes` (a box is kept at or before
/// the slot it was read from), so merging allocates nothing.
#[must_use]
pub fn merge_overlapping(mut boxes: Vec<Rect>, gap: u32) -> Vec<Rect> {
    loop {
        let mut merged_any = false;
        let mut kept = 0;
        'outer: for read in 0..boxes.len() {
            let b = boxes[read];
            for o in &mut boxes[..kept] {
                let inflated = Rect::new(
                    o.x.saturating_sub(gap),
                    o.y.saturating_sub(gap),
                    o.width + 2 * gap,
                    o.height + 2 * gap,
                );
                if inflated.intersects(&b) {
                    *o = o.union(&b);
                    merged_any = true;
                    continue 'outer;
                }
            }
            boxes[kept] = b;
            kept += 1;
        }
        boxes.truncate(kept);
        if !merged_any {
            return boxes;
        }
    }
}

/// Background-subtraction extractor: GMM → closing → opening → connected
/// components → upscale to 4K → merge.
pub struct GmmExtractor {
    params: GmmParams,
    /// Minimum component size as a fraction of the raster area (filters
    /// sensor-noise specks; small real objects survive via dilation).
    pub min_component_fraction: f64,
    /// Margin added around each RoI in logical pixels (GMM boxes hug the
    /// silhouette; detectors want some context).
    pub margin: u32,
    model: Option<GaussianMixtureModel>,
}

impl GmmExtractor {
    /// Creates an extractor with the given GMM parameters.
    #[must_use]
    pub fn new(params: GmmParams) -> Self {
        Self {
            params,
            min_component_fraction: 12.0e-6,
            margin: 12,
            model: None,
        }
    }

    fn raster_of(frame: &FrameTruth) -> &Raster {
        frame
            .raster
            .as_ref()
            .expect("GmmExtractor requires rendered frames (VideoConfig::render = true)")
    }
}

impl Default for GmmExtractor {
    fn default() -> Self {
        Self::new(GmmParams::default())
    }
}

impl RoiExtractor for GmmExtractor {
    fn name(&self) -> &'static str {
        "GMM"
    }

    /// # Panics
    ///
    /// Panics if the frame carries no raster.
    fn extract(&mut self, frame: &FrameTruth) -> Vec<Rect> {
        let raster = Self::raster_of(frame);
        let model = self.model.get_or_insert_with(|| {
            GaussianMixtureModel::new(raster.width(), raster.height(), self.params.clone())
        });
        let mask = model.apply(raster);
        // Closing bridges the torso/leg fragments of one person; opening
        // then removes isolated noise specks.
        let cleaned = mask.closed().opened();
        let min_pixels = (self.min_component_fraction * raster.size().area() as f64).ceil() as u32;
        let scale_up = 1.0 / raster.scale();
        let frame_bounds = Rect::from_size(frame.frame_size);
        let boxes: Vec<Rect> = connected_components(&cleaned, min_pixels.max(2))
            .into_iter()
            .map(|c| c.rect.scaled(scale_up).inflated(self.margin, &frame_bounds))
            .collect();
        merge_overlapping(boxes, 8)
    }
}

/// Optical-flow extractor: block matching → dilation → connected
/// components → upscale → merge.
pub struct FlowExtractor {
    matcher: BlockMatcher,
    /// Minimum component size as a fraction of the raster area.
    pub min_component_fraction: f64,
    /// Margin added around each RoI in logical pixels (motion boxes lag the
    /// silhouette, so flow uses a larger margin than GMM — this is why
    /// Table IV measures a higher bandwidth share for optical flow).
    pub margin: u32,
}

impl Default for FlowExtractor {
    fn default() -> Self {
        Self {
            matcher: BlockMatcher::new(),
            min_component_fraction: 30.0e-6,
            margin: 28,
        }
    }
}

impl RoiExtractor for FlowExtractor {
    fn name(&self) -> &'static str {
        "OpticalFlow"
    }

    /// # Panics
    ///
    /// Panics if the frame carries no raster.
    fn extract(&mut self, frame: &FrameTruth) -> Vec<Rect> {
        let raster = frame
            .raster
            .as_ref()
            .expect("FlowExtractor requires rendered frames (VideoConfig::render = true)");
        let mask = self.matcher.apply(raster).dilated();
        let min_pixels = (self.min_component_fraction * raster.size().area() as f64).ceil() as u32;
        let scale_up = 1.0 / raster.scale();
        let frame_bounds = Rect::from_size(frame.frame_size);
        let boxes: Vec<Rect> = connected_components(&mask, min_pixels.max(2))
            .into_iter()
            .map(|c| c.rect.scaled(scale_up).inflated(self.margin, &frame_bounds))
            .collect();
        merge_overlapping(boxes, 8)
    }
}

/// Wraps a [`DetectorProxy`] as an extractor.
pub struct ProxyExtractor {
    proxy: DetectorProxy,
    rng: DetRng,
}

impl ProxyExtractor {
    /// Creates an extractor from a proxy and a random stream.
    #[must_use]
    pub fn new(proxy: DetectorProxy, rng: DetRng) -> Self {
        Self { proxy, rng }
    }
}

impl RoiExtractor for ProxyExtractor {
    fn name(&self) -> &'static str {
        self.proxy.name
    }

    fn extract(&mut self, frame: &FrameTruth) -> Vec<Rect> {
        merge_overlapping(self.proxy.detect(frame, &mut self.rng), 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::ids::SceneId;
    use tangram_video::generator::{SceneSimulation, VideoConfig};

    fn rendered_sim(scene: u8) -> SceneSimulation {
        let config = VideoConfig {
            render: true,
            raster_scale: 0.12,
            ..VideoConfig::default()
        };
        SceneSimulation::new(SceneId::new(scene), config, 2024)
    }

    /// `merge_overlapping` as it was written first: each pass folds the
    /// boxes into a fresh list.
    fn merge_into_fresh_lists(mut boxes: Vec<Rect>, gap: u32) -> Vec<Rect> {
        loop {
            let mut merged_any = false;
            let mut out: Vec<Rect> = Vec::with_capacity(boxes.len());
            'outer: for b in &boxes {
                for o in &mut out {
                    let inflated = Rect::new(
                        o.x.saturating_sub(gap),
                        o.y.saturating_sub(gap),
                        o.width + 2 * gap,
                        o.height + 2 * gap,
                    );
                    if inflated.intersects(b) {
                        *o = o.union(b);
                        merged_any = true;
                        continue 'outer;
                    }
                }
                out.push(*b);
            }
            boxes = out;
            if !merged_any {
                return boxes;
            }
        }
    }

    #[test]
    fn merging_in_place_equals_merging_into_fresh_lists() {
        let mut rng = DetRng::new(42);
        let mut merged_some = 0;
        for case in 0..400 {
            let n = rng.index(40);
            let mut boxes: Vec<Rect> = (0..n)
                .map(|_| {
                    let (x, y) = (rng.index(600) as u32, rng.index(400) as u32);
                    Rect::new(x, y, 1 + rng.index(90) as u32, rng.index(90) as u32)
                })
                .collect();
            let gap = rng.index(12) as u32;
            // A chain, below the random boxes, whose links touch only
            // their neighbours, fed even links first: a pass joins each
            // odd link to the even one before it, and only a later pass
            // joins the chain up.
            let links = 2 + rng.index(6) as u32;
            let link = |k: u32| Rect::new(10 + 30 * k, 700, 32, 20);
            boxes.extend((0..links).step_by(2).chain((1..links).step_by(2)).map(link));
            let expected = merge_into_fresh_lists(boxes.clone(), gap);
            let chain = Rect::enclosing(&[link(0), link(links - 1)]).unwrap();
            assert!(expected.contains(&chain), "case {case}");
            merged_some += usize::from(expected.len() + links as usize <= boxes.len());
            assert_eq!(merge_overlapping(boxes, gap), expected, "case {case}");
        }
        assert!(merged_some > 200, "{merged_some} cases merged a random box");
    }

    #[test]
    fn merge_overlapping_unions_intersecting() {
        let boxes = vec![
            Rect::new(0, 0, 10, 10),
            Rect::new(5, 5, 10, 10),
            Rect::new(100, 100, 5, 5),
        ];
        let merged = merge_overlapping(boxes, 0);
        assert_eq!(merged.len(), 2);
        assert!(merged.contains(&Rect::new(0, 0, 15, 15)));
    }

    #[test]
    fn merge_overlapping_respects_gap() {
        let boxes = vec![Rect::new(0, 0, 10, 10), Rect::new(12, 0, 10, 10)];
        assert_eq!(merge_overlapping(boxes.clone(), 0).len(), 2);
        assert_eq!(merge_overlapping(boxes, 3).len(), 1);
    }

    #[test]
    fn merge_overlapping_chains_transitively() {
        // a∩b and b∩c but not a∩c — all three must merge.
        let boxes = vec![
            Rect::new(0, 0, 10, 10),
            Rect::new(8, 0, 10, 10),
            Rect::new(16, 0, 10, 10),
        ];
        let merged = merge_overlapping(boxes, 0);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], Rect::new(0, 0, 26, 10));
    }

    #[test]
    fn gmm_extractor_finds_movers_after_warmup() {
        let mut sim = rendered_sim(1);
        let mut ex = GmmExtractor::default();
        let mut rois = Vec::new();
        for _ in 0..30 {
            rois = ex.extract(&sim.next_frame());
        }
        assert!(!rois.is_empty(), "no RoIs after warm-up");
        // RoIs should be in 4K coordinates.
        let frame_bounds = Rect::from_size(tangram_types::geometry::Size::UHD_4K);
        for r in &rois {
            assert!(frame_bounds.contains_rect(r), "RoI {r} outside 4K frame");
        }
    }

    #[test]
    fn gmm_rois_cover_ground_truth() {
        let mut sim = rendered_sim(1);
        let mut ex = GmmExtractor::default();
        let mut frame = sim.next_frame();
        for _ in 0..35 {
            frame = sim.next_frame();
            let _ = ex.extract(&frame);
        }
        let rois = ex.extract(&frame);
        // Count ground-truth objects substantially covered by some RoI.
        let covered = frame
            .objects
            .iter()
            .filter(|o| {
                rois.iter()
                    .any(|r| r.overlap_area(&o.rect) as f64 >= 0.5 * o.rect.area() as f64)
            })
            .count();
        let recall = covered as f64 / frame.objects.len() as f64;
        assert!(recall > 0.5, "GMM recall only {recall:.2}");
    }

    #[test]
    fn flow_extractor_runs() {
        let mut sim = rendered_sim(5);
        let mut ex = FlowExtractor::default();
        let mut rois = Vec::new();
        for _ in 0..5 {
            rois = ex.extract(&sim.next_frame());
        }
        assert!(!rois.is_empty(), "moving scene should trigger flow RoIs");
    }

    #[test]
    fn proxy_extractor_names_match() {
        let ex = ProxyExtractor::new(DetectorProxy::ssdlite_mobilenet_v2(), DetRng::new(1));
        assert_eq!(ex.name(), "SSDLite-MobileNetV2");
    }

    #[test]
    #[should_panic(expected = "requires rendered frames")]
    fn gmm_without_raster_panics() {
        let mut sim = SceneSimulation::new(SceneId::new(1), VideoConfig::default(), 1);
        let mut ex = GmmExtractor::default();
        let _ = ex.extract(&sim.next_frame());
    }
}
