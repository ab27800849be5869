//! The canvas data model.
//!
//! A canvas is one fixed-size DNN input holding stitched patches. Batches
//! of canvases are what the scheduler dispatches to the serverless
//! function; canvas *efficiency* (patch area / canvas area) is the
//! utilisation metric the paper plots in Fig. 10b and Fig. 13.

use tangram_types::geometry::{Point, Rect, Size};
use tangram_types::ids::CanvasId;
use tangram_types::patch::PatchInfo;
use tangram_types::time::SimTime;

/// One patch placed at a position on a canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedPatch {
    /// The patch's metadata (including its source-frame rectangle).
    pub patch: PatchInfo,
    /// Top-left corner of the patch on the canvas.
    pub position: Point,
}

impl PlacedPatch {
    /// The rectangle this patch occupies on the canvas.
    #[must_use]
    pub fn canvas_rect(&self) -> Rect {
        Rect::new(
            self.position.x,
            self.position.y,
            self.patch.rect.width,
            self.patch.rect.height,
        )
    }
}

/// A fixed-size canvas with stitched patches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    /// Canvas identity.
    pub id: CanvasId,
    /// Canvas extent (`M × N`; the paper uses 1024×1024).
    pub size: Size,
    /// The placements, in stitching order.
    pub placements: Vec<PlacedPatch>,
}

impl Canvas {
    /// Creates an empty canvas.
    ///
    /// # Panics
    ///
    /// Panics if `size` is empty.
    #[must_use]
    pub fn new(id: CanvasId, size: Size) -> Self {
        assert!(!size.is_empty(), "canvas must be non-empty");
        Self {
            id,
            size,
            placements: Vec::new(),
        }
    }

    /// Adds a placement.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the placement escapes the canvas or
    /// overlaps an existing placement — the packer must prevent both.
    pub fn place(&mut self, patch: PatchInfo, position: Point) {
        let placed = PlacedPatch { patch, position };
        debug_assert!(
            Rect::from_size(self.size).contains_rect(&placed.canvas_rect()),
            "placement escapes canvas"
        );
        debug_assert!(
            self.placements
                .iter()
                .all(|p| !p.canvas_rect().intersects(&placed.canvas_rect())),
            "placement overlaps"
        );
        self.placements.push(placed);
    }

    /// Number of patches on the canvas.
    #[must_use]
    pub fn patch_count(&self) -> usize {
        self.placements.len()
    }

    /// Whether the canvas holds no patches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Total patch area on the canvas.
    #[must_use]
    pub fn used_area(&self) -> u64 {
        self.placements.iter().map(|p| p.patch.rect.area()).sum()
    }

    /// Canvas efficiency: patch area over canvas area (Fig. 10b).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.used_area() as f64 / self.size.area() as f64
    }

    /// The earliest deadline among the canvas's patches (`None` if empty).
    #[must_use]
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        self.placements.iter().map(|p| p.patch.deadline()).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::time::SimDuration;

    fn patch(id: u64, w: u32, h: u32, gen_us: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, w, h),
            SimTime::from_micros(gen_us),
            SimDuration::from_secs(1),
        )
    }

    #[test]
    fn efficiency_accumulates() {
        let mut c = Canvas::new(CanvasId::new(1), Size::new(100, 100));
        assert!(c.is_empty());
        c.place(patch(1, 50, 50, 0), Point::new(0, 0));
        c.place(patch(2, 50, 50, 0), Point::new(50, 0));
        assert_eq!(c.patch_count(), 2);
        assert_eq!(c.used_area(), 5000);
        assert!((c.efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn earliest_deadline_is_min() {
        let mut c = Canvas::new(CanvasId::new(1), Size::new(100, 100));
        assert_eq!(c.earliest_deadline(), None);
        c.place(patch(1, 10, 10, 500_000), Point::new(0, 0));
        c.place(patch(2, 10, 10, 100_000), Point::new(20, 0));
        assert_eq!(c.earliest_deadline(), Some(SimTime::from_micros(1_100_000)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "placement overlaps")]
    fn overlapping_placement_caught() {
        let mut c = Canvas::new(CanvasId::new(1), Size::new(100, 100));
        c.place(patch(1, 60, 60, 0), Point::new(0, 0));
        c.place(patch(2, 60, 60, 0), Point::new(30, 30));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "escapes canvas")]
    fn out_of_bounds_placement_caught() {
        let mut c = Canvas::new(CanvasId::new(1), Size::new(100, 100));
        c.place(patch(1, 60, 60, 0), Point::new(50, 50));
    }
}
