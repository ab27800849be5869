//! What the cloud model gets to see of a frame.
//!
//! The accuracy experiments (Tables III/IV, Figs. 2a/4b) score detections
//! over [`PresentedObject`]s: each ground-truth object as it reaches the
//! model — whole and rescaled (full/masked-frame baselines), or only the
//! part inside the uploaded regions (RoIs, patches).
//!
//! ```
//! use tangram_harness::present::covered_fraction;
//! use tangram_types::geometry::Rect;
//!
//! // Half of a 100×100 object lies inside the served region.
//! let object = Rect::new(0, 0, 100, 100);
//! let covered = covered_fraction(&object, &[Rect::new(0, 0, 50, 100)]);
//! assert!((covered - 0.5).abs() < 1e-9);
//! ```

use tangram_infer::accuracy::PresentedObject;
use tangram_types::geometry::Rect;
use tangram_video::generator::FrameTruth;

/// Fraction of `object` covered by the union of `regions`, computed
/// exactly via inclusion-exclusion on the clipped pieces (regions rarely
/// overlap after merging, so the quadratic term is cheap).
#[must_use]
pub fn covered_fraction(object: &Rect, regions: &[Rect]) -> f64 {
    let pieces: Vec<Rect> = regions.iter().filter_map(|r| r.intersect(object)).collect();
    if pieces.is_empty() {
        return 0.0;
    }
    let mut covered: i64 = pieces.iter().map(|p| p.area() as i64).sum();
    // Subtract pairwise overlaps (regions overlapping inside the object).
    for (i, a) in pieces.iter().enumerate() {
        for b in &pieces[i + 1..] {
            covered -= a.overlap_area(b) as i64;
        }
    }
    (covered.max(0) as f64 / object.area() as f64).min(1.0)
}

/// Builds the presented objects for a frame whose pixels reach the model
/// only inside `regions` (RoIs, patches or mask), presented at native
/// scale. Objects completely outside the regions are absent.
#[must_use]
pub fn present_through_regions(frame: &FrameTruth, regions: &[Rect]) -> Vec<PresentedObject> {
    frame
        .objects
        .iter()
        .filter_map(|o| {
            let coverage = covered_fraction(&o.rect, regions);
            if coverage <= 0.0 {
                return None;
            }
            Some(PresentedObject {
                track: o.track,
                true_rect: o.rect,
                presented_area: o.rect.area() as f64 * coverage,
                visible_fraction: coverage,
            })
        })
        .collect()
}

/// Builds the presented objects for a whole frame uniformly rescaled by
/// `scale` (full-frame and masked-frame baselines; downsizing baselines).
#[must_use]
pub fn present_scaled(frame: &FrameTruth, scale: f64) -> Vec<PresentedObject> {
    frame
        .objects
        .iter()
        .map(|o| PresentedObject::scaled(o.track, o.rect, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Size;
    use tangram_types::ids::{FrameId, SceneId};
    use tangram_types::time::SimTime;
    use tangram_video::object::GtObject;

    #[test]
    fn coverage_is_full_or_none() {
        let obj = Rect::new(10, 10, 100, 100);
        assert_eq!(covered_fraction(&obj, &[Rect::new(0, 0, 200, 200)]), 1.0);
        assert_eq!(covered_fraction(&obj, &[Rect::new(500, 500, 10, 10)]), 0.0);
    }

    #[test]
    fn coverage_of_a_union_counts_overlap_once() {
        let obj = Rect::new(0, 0, 100, 100);
        // Two disjoint halves cover everything.
        let halves = [Rect::new(0, 0, 50, 100), Rect::new(50, 0, 50, 100)];
        assert!((covered_fraction(&obj, &halves) - 1.0).abs() < 1e-12);
        // Two identical halves cover only half (double counting removed).
        let dup = [Rect::new(0, 0, 50, 100), Rect::new(0, 0, 50, 100)];
        assert!((covered_fraction(&obj, &dup) - 0.5).abs() < 1e-12);
    }

    fn mini_frame() -> FrameTruth {
        FrameTruth {
            scene: SceneId::new(1),
            frame: FrameId::new(0),
            timestamp: SimTime::ZERO,
            frame_size: Size::UHD_4K,
            objects: vec![
                GtObject::new(1, Rect::new(0, 0, 100, 200)),
                GtObject::new(2, Rect::new(2000, 1000, 80, 160)),
            ],
            raster: None,
        }
    }

    #[test]
    fn present_through_regions_drops_uncovered() {
        let frame = mini_frame();
        let regions = [Rect::new(0, 0, 500, 500)];
        let presented = present_through_regions(&frame, &regions);
        assert_eq!(presented.len(), 1);
        assert_eq!(presented[0].track, 1);
        assert!((presented[0].visible_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn present_scaled_shrinks_areas() {
        let frame = mini_frame();
        let presented = present_scaled(&frame, 0.5);
        assert_eq!(presented.len(), 2);
        assert!((presented[0].presented_area - 100.0 * 200.0 * 0.25).abs() < 1e-9);
    }
}
