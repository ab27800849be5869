//! Block-matching motion estimation.
//!
//! Stands in for Gunnar-Farnebäck dense optical flow (Table IV): the frame
//! is tiled into blocks, each block is matched against the previous frame
//! within a small search window (sum of absolute differences), and blocks
//! whose best displacement is non-zero — or which match nowhere well —
//! are marked as moving. The resulting motion mask feeds the same
//! connected-components stage as the GMM extractor.

use crate::mask::BitMask;
use tangram_video::raster::Raster;

/// Block side length in raster pixels.
const BLOCK: u32 = 8;
/// Search radius in pixels (displacements in `[-RADIUS, RADIUS]`).
const RADIUS: i32 = 4;
/// Minimum displacement magnitude (pixels) to count as motion.
const MIN_MAGNITUDE: f64 = 1.0;
/// Mean-absolute-difference above which a block counts as changed even
/// with zero best displacement (appearance change).
const RESIDUAL_THRESHOLD: f64 = 12.0;

/// Block-matching motion estimator for one camera stream.
#[derive(Debug, Clone, Default)]
pub struct BlockMatcher {
    previous: Option<Raster>,
}

impl BlockMatcher {
    /// Creates an estimator that has seen no frame yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs a frame and returns the motion mask relative to the previous
    /// frame (all-clear for the first frame).
    pub fn apply(&mut self, raster: &Raster) -> BitMask {
        let mask = match &self.previous {
            Some(prev) if prev.size() == raster.size() => Self::motion_mask(prev, raster),
            _ => BitMask::new(raster.width(), raster.height()),
        };
        self.previous = Some(raster.clone());
        mask
    }

    fn motion_mask(prev: &Raster, cur: &Raster) -> BitMask {
        let (w, h) = (cur.width(), cur.height());
        let mut mask = BitMask::new(w, h);
        let mut by = 0;
        while by < h {
            let bh = BLOCK.min(h - by);
            let mut bx = 0;
            while bx < w {
                let bw = BLOCK.min(w - bx);
                let (dx, dy, best) = Self::best_displacement(prev, cur, bx, by, bw, bh);
                let magnitude = f64::from(dx * dx + dy * dy).sqrt();
                let moving =
                    magnitude >= MIN_MAGNITUDE || best / f64::from(bw * bh) > RESIDUAL_THRESHOLD;
                if moving {
                    for y in by..by + bh {
                        for x in bx..bx + bw {
                            mask.set(x, y, true);
                        }
                    }
                }
                bx += BLOCK;
            }
            by += BLOCK;
        }
        mask
    }

    /// Best (dx, dy) displacement of the block into the previous frame and
    /// the SAD at that displacement.
    fn best_displacement(
        prev: &Raster,
        cur: &Raster,
        bx: u32,
        by: u32,
        bw: u32,
        bh: u32,
    ) -> (i32, i32, f64) {
        let mut best = f64::INFINITY;
        let mut best_d = (0i32, 0i32);
        for dy in -RADIUS..=RADIUS {
            for dx in -RADIUS..=RADIUS {
                let mut sad = 0.0f64;
                let mut valid = true;
                for y in 0..bh {
                    for x in 0..bw {
                        let cx = bx + x;
                        let cy = by + y;
                        let px = i64::from(cx) + i64::from(dx);
                        let py = i64::from(cy) + i64::from(dy);
                        if px < 0
                            || py < 0
                            || px >= i64::from(prev.width())
                            || py >= i64::from(prev.height())
                        {
                            valid = false;
                            break;
                        }
                        sad += f64::from(
                            i32::from(cur.get(cx, cy))
                                .abs_diff(i32::from(prev.get(px as u32, py as u32))),
                        );
                    }
                    if !valid {
                        break;
                    }
                }
                if !valid {
                    continue;
                }
                // Prefer the zero displacement on ties so static blocks
                // report no motion.
                let tie_break = f64::from(dx * dx + dy * dy) * 1e-6;
                if sad + tie_break < best {
                    best = sad + tie_break;
                    best_d = (dx, dy);
                }
            }
        }
        (best_d.0, best_d.1, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::{Rect, Size};
    use tangram_video::object::GtObject;
    use tangram_video::raster::FrameRenderer;

    fn quiet_renderer() -> FrameRenderer {
        let mut r = FrameRenderer::new(5, Size::new(128, 96), 1.0);
        r.noise_sigma = 0.0;
        r
    }

    #[test]
    fn first_frame_reports_nothing() {
        let r = quiet_renderer();
        let mut bm = BlockMatcher::new();
        let mask = bm.apply(&r.render(0, &[]));
        assert_eq!(mask.count_set(), 0);
    }

    #[test]
    fn static_scene_stays_quiet() {
        let r = quiet_renderer();
        let mut bm = BlockMatcher::new();
        let _ = bm.apply(&r.render(0, &[]));
        let mask = bm.apply(&r.render(0, &[]));
        assert_eq!(
            mask.count_set(),
            0,
            "identical frames must report no motion"
        );
    }

    #[test]
    fn moving_object_detected() {
        let r = quiet_renderer();
        let mut bm = BlockMatcher::new();
        let a = GtObject::new(1, Rect::new(30, 30, 16, 24));
        let b = GtObject::new(1, Rect::new(33, 30, 16, 24)); // moved 3 px
        let _ = bm.apply(&r.render(0, &[a]));
        let mask = bm.apply(&r.render(0, &[b]));
        // Motion should appear around the object.
        let mut hits = 0;
        for y in 28..56 {
            for x in 28..52 {
                if mask.get(x, y) {
                    hits += 1;
                }
            }
        }
        assert!(hits > 100, "only {hits} motion pixels near the mover");
    }

    #[test]
    fn appearing_object_detected_via_residual() {
        let r = quiet_renderer();
        let mut bm = BlockMatcher::new();
        let _ = bm.apply(&r.render(0, &[]));
        let obj = GtObject::new(2, Rect::new(60, 40, 20, 30));
        let mask = bm.apply(&r.render(0, &[obj]));
        assert!(
            mask.count_set() > 0,
            "a newly appeared object must trigger the residual path"
        );
    }

    #[test]
    fn resolution_change_resets_cleanly() {
        let r1 = quiet_renderer();
        let r2 = FrameRenderer::new(5, Size::new(64, 48), 1.0);
        let mut bm = BlockMatcher::new();
        let _ = bm.apply(&r1.render(0, &[]));
        // Different size: must not panic, returns empty mask.
        let mask = bm.apply(&r2.render(0, &[]));
        assert_eq!(mask.count_set(), 0);
    }
}
