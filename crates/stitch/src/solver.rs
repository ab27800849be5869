//! The multi-canvas Patch-stitching Solver.
//!
//! Patches are stitched, in arrival order, onto a growing sequence of
//! canvases; when no free space fits a patch, a fresh canvas is opened
//! (line 36). Free space is pooled across all open canvases so a later
//! small patch can still fill an earlier canvas's gap.
//!
//! Algorithm 2 *specifies* a re-stitch of the whole queue on every patch
//! arrival. Placement is first-fit and never moves an earlier patch, so
//! the stitching of `Q ∪ {p}` is the stitching of `Q` with `p` placed:
//! [`Stitching`] keeps the canvases open and places each patch once, and
//! [`PatchStitchingSolver::stitch`] is the same loop over a whole queue.

use crate::canvas::Canvas;
use crate::packer::{GuillotinePacker, Packer};
use std::error::Error;
use std::fmt;
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::CanvasId;
use tangram_types::patch::PatchInfo;

/// Error returned when a patch cannot be stitched at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchError {
    /// The patch is larger than an empty canvas; it must be pre-split
    /// (see [`split_to_fit`]).
    PatchTooLarge {
        /// The offending patch size.
        patch: Size,
        /// The canvas size it must fit into.
        canvas: Size,
    },
    /// The patch has no area, so no packer can place it.
    EmptyPatch {
        /// The offending patch size.
        patch: Size,
    },
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::PatchTooLarge { patch, canvas } => {
                write!(f, "patch {patch} exceeds canvas {canvas}; split it first")
            }
            StitchError::EmptyPatch { patch } => write!(f, "patch {patch} is empty"),
        }
    }
}

impl Error for StitchError {}

/// Splits `rect` into tiles no larger than `canvas`, cutting along both
/// axes as needed, row by row from the top-left corner. Oversized patches
/// occur when a zone's enclosing rectangle outgrows the canvas (dense
/// scenes with spread-out RoIs); real deployments must make the same
/// choice, trading one stitched boundary for uniform inputs.
///
/// # Panics
///
/// Panics if `canvas` is empty.
#[must_use]
pub fn split_to_fit(rect: Rect, canvas: Size) -> Tiles {
    assert!(!canvas.is_empty(), "canvas must be non-empty");
    let columns = rect.width.div_ceil(canvas.width);
    let rows = rect.height.div_ceil(canvas.height);
    Tiles {
        rect,
        canvas,
        columns,
        next: 0,
        end: u64::from(columns) * u64::from(rows),
    }
}

/// The tiles of [`split_to_fit`], in row-major order: every tile is the
/// canvas's size except in the last column and row, which take the
/// remainder.
#[derive(Debug, Clone)]
pub struct Tiles {
    rect: Rect,
    canvas: Size,
    columns: u32,
    /// The row-major index of the next tile, and the tile count.
    next: u64,
    end: u64,
}

impl Iterator for Tiles {
    type Item = Rect;

    fn next(&mut self) -> Option<Rect> {
        if self.next == self.end {
            return None;
        }
        let columns = u64::from(self.columns);
        let (row, column) = ((self.next / columns) as u32, (self.next % columns) as u32);
        self.next += 1;
        let x = self.rect.x + column * self.canvas.width;
        let y = self.rect.y + row * self.canvas.height;
        let w = self.canvas.width.min(self.rect.right() - x);
        let h = self.canvas.height.min(self.rect.bottom() - y);
        Some(Rect::new(x, y, w, h))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Tiles {}

/// An open stitching: the canvases of the patches pushed so far, each
/// with the packer that still knows its free space.
///
/// Canvases are recycled: [`Self::close`] empties the open ones and keeps
/// them, packers and all, and the next [`Self::push`]es open them again
/// in the same order, so steady-state stitching allocates nothing.
#[derive(Debug)]
pub struct Stitching {
    canvas_size: Size,
    /// `packers[i]` packs `canvases[i]`, whose id is `i`.
    packers: Vec<GuillotinePacker>,
    canvases: Vec<Canvas>,
    /// The first `open` canvases hold patches; the rest are empty, reset
    /// and waiting to be opened.
    open: usize,
}

impl Stitching {
    /// Starts an empty stitching onto canvases of `canvas_size`.
    ///
    /// # Panics
    ///
    /// Panics if `canvas_size` is empty.
    #[must_use]
    pub fn new(canvas_size: Size) -> Self {
        assert!(!canvas_size.is_empty(), "canvas must be non-empty");
        Self {
            canvas_size,
            packers: Vec::new(),
            canvases: Vec::new(),
            open: 0,
        }
    }

    /// The open canvases, oldest first.
    #[must_use]
    pub fn canvases(&self) -> &[Canvas] {
        &self.canvases[..self.open]
    }

    /// The open canvases' [`Canvas::efficiency`], read off their packers.
    pub fn efficiencies(&self) -> impl Iterator<Item = f64> + '_ {
        self.packers[..self.open].iter().map(Packer::efficiency)
    }

    /// Read-only probe: where a `size`-shaped patch lands — the oldest
    /// open canvas whose packer fits it, at its best short-side fit — or
    /// `None` when it opens a new one.
    #[must_use]
    pub fn fitting(&self, size: Size) -> Option<Fit> {
        self.packers[..self.open]
            .iter()
            .enumerate()
            .find_map(|(canvas, p)| p.best_fit(size).map(|slot| Fit { canvas, slot }))
    }

    /// Stitches one patch: onto the oldest open canvas whose packer
    /// accepts it, else onto a new canvas (Algorithm 2, line 36). Earlier
    /// placements never move.
    ///
    /// # Errors
    ///
    /// Same as [`Self::push_at`].
    pub fn push(&mut self, patch: PatchInfo) -> Result<(), StitchError> {
        self.push_at(patch, self.fitting(patch.rect.size()))
    }

    /// [`Self::push`] at `at`, [`Self::fitting`]'s answer: no second search.
    ///
    /// # Errors
    ///
    /// [`StitchError::PatchTooLarge`] or [`StitchError::EmptyPatch`], and
    /// nothing placed; pre-split oversized patches with [`split_to_fit`].
    ///
    /// # Panics
    ///
    /// If `at` is not an open canvas's free slot with room for the patch.
    pub fn push_at(&mut self, patch: PatchInfo, at: Option<Fit>) -> Result<(), StitchError> {
        let size = patch.rect.size();
        if size.is_empty() {
            return Err(StitchError::EmptyPatch { patch: size });
        }
        if !self.canvas_size.fits(size) {
            return Err(StitchError::PatchTooLarge {
                patch: size,
                canvas: self.canvas_size,
            });
        }
        debug_assert_eq!(at, self.fitting(size), "not the probe's answer");
        // A new canvas's one free rectangle, slot 0, is the whole canvas.
        let (canvas, slot) = at.map_or((self.open, 0), |fit| (fit.canvas, fit.slot));
        if canvas == self.canvases.len() {
            // No closed canvas left to reopen: make one.
            let id = CanvasId::new(self.open as u64);
            self.packers.push(GuillotinePacker::new(self.canvas_size));
            self.canvases.push(Canvas::new(id, self.canvas_size));
        }
        self.open += usize::from(at.is_none());
        let pos = self.packers[..self.open][canvas].place(size, slot);
        self.canvases[canvas].place(patch, pos);
        Ok(())
    }

    /// Closes the open canvases and starts empty: they and their packers
    /// are reset and kept for the next pushes to reopen. Read
    /// [`Self::canvases`] first.
    pub fn close(&mut self) {
        let open = self.packers.iter_mut().zip(&mut self.canvases);
        for (packer, canvas) in open.take(self.open) {
            packer.reset();
            canvas.placements.clear();
        }
        self.open = 0;
    }

    /// Hands the open canvases over.
    #[must_use]
    pub fn into_canvases(mut self) -> Vec<Canvas> {
        self.canvases.truncate(self.open);
        self.canvases
    }
}

/// Where [`Stitching::fitting`] lands a patch on the open canvases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fit {
    /// The open canvas, counted from the oldest.
    pub canvas: usize,
    /// Its free-list index there, [`GuillotinePacker::best_fit`]'s answer.
    pub slot: usize,
}

/// Multi-canvas stitching of a whole queue at once: a fresh [`Stitching`]
/// with every patch pushed in queue order.
#[derive(Debug, Clone)]
pub struct PatchStitchingSolver {
    canvas_size: Size,
}

impl PatchStitchingSolver {
    /// Creates a solver producing canvases of `canvas_size`.
    ///
    /// # Panics
    ///
    /// Panics if `canvas_size` is empty.
    #[must_use]
    pub fn new(canvas_size: Size) -> Self {
        assert!(!canvas_size.is_empty(), "canvas must be non-empty");
        Self { canvas_size }
    }

    /// The canvas extent this solver packs into.
    #[must_use]
    pub fn canvas_size(&self) -> Size {
        self.canvas_size
    }

    /// Stitches the queue of patches onto canvases, in queue order.
    ///
    /// # Errors
    ///
    /// Returns [`StitchError::PatchTooLarge`] if any patch exceeds the
    /// canvas (pre-split such patches with [`split_to_fit`]), and
    /// [`StitchError::EmptyPatch`] if any has no area.
    pub fn stitch(&self, patches: &[PatchInfo]) -> Result<Vec<Canvas>, StitchError> {
        let mut stitching = Stitching::new(self.canvas_size);
        for p in patches {
            stitching.push(*p)?;
        }
        Ok(stitching.into_canvases())
    }

    /// Convenience for tests and benches: stitch bare sizes (metadata is
    /// synthesised).
    ///
    /// # Errors
    ///
    /// Same as [`Self::stitch`].
    pub fn stitch_sizes(&self, sizes: &[Size]) -> Result<Vec<Canvas>, StitchError> {
        use tangram_types::ids::{CameraId, FrameId, PatchId};
        use tangram_types::time::{SimDuration, SimTime};
        let patches: Vec<PatchInfo> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                PatchInfo::new(
                    PatchId::new(i as u64),
                    CameraId::new(0),
                    FrameId::new(0),
                    Rect::new(0, 0, s.width, s.height),
                    SimTime::ZERO,
                    SimDuration::from_secs(1),
                )
            })
            .collect();
        self.stitch(&patches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANVAS: Size = Size::new(1024, 1024);

    fn solver() -> PatchStitchingSolver {
        PatchStitchingSolver::new(CANVAS)
    }

    /// Asserts every placement lies inside its canvas and overlaps no other.
    fn validate_canvases(canvases: &[Canvas]) {
        for canvas in canvases {
            let bounds = Rect::from_size(canvas.size);
            let rects: Vec<Rect> = canvas
                .placements
                .iter()
                .map(crate::canvas::PlacedPatch::canvas_rect)
                .collect();
            for (i, r) in rects.iter().enumerate() {
                assert!(bounds.contains_rect(r), "placement {r} escapes canvas");
                for o in &rects[..i] {
                    assert!(!r.intersects(o), "overlap {r} vs {o}");
                }
            }
        }
    }

    #[test]
    fn single_small_patch_single_canvas() {
        let canvases = solver().stitch_sizes(&[Size::new(100, 100)]).unwrap();
        assert_eq!(canvases.len(), 1);
        assert_eq!(canvases[0].patch_count(), 1);
        validate_canvases(&canvases);
    }

    #[test]
    fn all_patches_placed_exactly_once() {
        let sizes: Vec<Size> = (0..30)
            .map(|i| Size::new(150 + (i * 37) % 300, 200 + (i * 53) % 350))
            .collect();
        let canvases = solver().stitch_sizes(&sizes).unwrap();
        let placed: usize = canvases.iter().map(Canvas::patch_count).sum();
        assert_eq!(placed, sizes.len());
        validate_canvases(&canvases);
    }

    #[test]
    fn overflow_opens_new_canvas() {
        // Three 700x700 patches cannot share a 1024 canvas.
        let sizes = [Size::new(700, 700); 3];
        let canvases = solver().stitch_sizes(&sizes).unwrap();
        assert_eq!(canvases.len(), 3);
    }

    #[test]
    fn later_small_patch_fills_earlier_gap() {
        // Big patch leaves a 1024x324 strip on canvas 0; after a second
        // canvas opens, a small patch must still land in that strip.
        let sizes = vec![
            Size::new(1024, 700), // canvas 0, leaves bottom strip
            Size::new(1024, 700), // canvas 1
            Size::new(300, 300),  // fits canvas 0's strip
        ];
        let canvases = solver().stitch_sizes(&sizes).unwrap();
        assert_eq!(canvases.len(), 2);
        assert_eq!(canvases[0].patch_count(), 2);
        validate_canvases(&canvases);
    }

    #[test]
    fn oversized_patch_is_an_error() {
        let err = solver().stitch_sizes(&[Size::new(2000, 100)]).unwrap_err();
        assert!(matches!(err, StitchError::PatchTooLarge { .. }));
        assert!(err.to_string().contains("split it first"));
    }

    #[test]
    fn empty_patch_is_an_error() {
        for size in [Size::new(0, 40), Size::new(40, 0), Size::new(0, 0)] {
            let err = solver().stitch_sizes(&[size]).unwrap_err();
            assert_eq!(err, StitchError::EmptyPatch { patch: size });
            let err = solver().stitch_sizes(&[Size::new(8, 8), size]).unwrap_err();
            assert_eq!(err.to_string(), format!("patch {size} is empty"));
        }
    }

    #[test]
    fn split_to_fit_tiles_cover_exactly() {
        let rect = Rect::new(100, 200, 2500, 1800);
        let tiles: Vec<Rect> = split_to_fit(rect, CANVAS).collect();
        // Tiles are disjoint and cover the rect.
        let total: u64 = tiles.iter().map(Rect::area).sum();
        assert_eq!(total, rect.area());
        for (i, t) in tiles.iter().enumerate() {
            assert!(rect.contains_rect(t));
            assert!(CANVAS.fits(t.size()), "tile {t} too big");
            for o in &tiles[..i] {
                assert!(!t.intersects(o), "tiles overlap");
            }
        }
        // 2500/1024 → 3 columns, 1800/1024 → 2 rows.
        assert_eq!(tiles.len(), 6);
    }

    #[test]
    fn split_to_fit_noop_for_small() {
        let rect = Rect::new(5, 5, 100, 100);
        assert!(split_to_fit(rect, CANVAS).eq([rect]));
    }

    /// `split_to_fit` as two nested loops into a list: the row-major
    /// order `Tiles` must follow.
    fn tiles_by_nested_loops(rect: Rect, canvas: Size) -> Vec<Rect> {
        let mut tiles = Vec::new();
        let mut y = rect.y;
        while y < rect.bottom() {
            let h = canvas.height.min(rect.bottom() - y);
            let mut x = rect.x;
            while x < rect.right() {
                let w = canvas.width.min(rect.right() - x);
                tiles.push(Rect::new(x, y, w, h));
                x += w;
            }
            y += h;
        }
        tiles
    }

    #[test]
    fn tiles_follow_the_nested_loops_and_know_their_length() {
        let mut multi_row = 0;
        for (cw, ch) in [(1, 1), (1, 4), (3, 2), (4, 4), (5, 3), (16, 16)] {
            let canvas = Size::new(cw, ch);
            for (x, y) in [(0, 0), (2, 5), (7, 1)] {
                for w in 0..=13 {
                    for h in 0..=13 {
                        let rect = Rect::new(x, y, w, h);
                        let expected = tiles_by_nested_loops(rect, canvas);
                        let mut tiles = split_to_fit(rect, canvas);
                        for (i, want) in expected.iter().enumerate() {
                            assert_eq!(tiles.len(), expected.len() - i, "{rect} on {canvas}");
                            assert_eq!(tiles.next(), Some(*want), "{rect} on {canvas}");
                        }
                        assert_eq!((tiles.len(), tiles.next()), (0, None), "{rect} on {canvas}");
                        multi_row += usize::from(expected.len() > w.div_ceil(cw) as usize);
                    }
                }
            }
        }
        assert!(multi_row > 1_000, "{multi_row} splits of more than one row");
    }

    #[test]
    fn stitching_probe_predicts_push_and_close_starts_empty() {
        use tangram_types::ids::{CameraId, FrameId, PatchId};
        use tangram_types::time::{SimDuration, SimTime};
        let patch = |i: u64, w: u32, h: u32| {
            PatchInfo::new(
                PatchId::new(i),
                CameraId::new(0),
                FrameId::new(0),
                Rect::new(0, 0, w, h),
                SimTime::ZERO,
                SimDuration::from_secs(1),
            )
        };
        let mut open = Stitching::new(CANVAS);
        for i in 0..40u32 {
            let p = patch(u64::from(i), 90 + (i * 131) % 800, 60 + (i * 71) % 900);
            let (before, fitting) = (open.canvases().to_vec(), open.fitting(p.rect.size()));
            open.push(p).unwrap();
            let landed = fitting.map_or(before.len(), |fit| fit.canvas);
            assert_eq!(open.canvases().len(), before.len().max(landed + 1));
            let placements = open.canvases()[landed].placements.last();
            assert_eq!(placements.map(|placed| placed.patch), Some(p));
            let efficiencies: Vec<u64> = open.efficiencies().map(f64::to_bits).collect();
            let summed = open.canvases().iter().map(|c| c.efficiency().to_bits());
            assert_eq!(efficiencies, summed.collect::<Vec<_>>(), "after patch {i}");
        }
        assert!(open.canvases().len() > 3);
        validate_canvases(open.canvases());
        let before = open.canvases().to_vec();
        assert!(open.push(patch(99, 1025, 4)).is_err());
        assert!(open.push(patch(98, 0, 4)).is_err());
        assert_eq!(open.canvases(), before, "a refused patch places nothing");
        open.close();
        assert!(open.canvases().is_empty() && open.fitting(Size::new(1, 1)).is_none());
        open.push(patch(100, 8, 8)).unwrap();
        assert_eq!(open.canvases()[0].id, CanvasId::new(0), "ids restart");
        assert_eq!(open.canvases()[0].patch_count(), 1, "reopened empty");
        assert_eq!(open.into_canvases().len(), 1, "closed canvases stay behind");
    }

    #[test]
    fn stitch_is_deterministic() {
        let sizes: Vec<Size> = (0..25)
            .map(|i| Size::new(100 + (i * 97) % 500, 100 + (i * 61) % 400))
            .collect();
        let a = solver().stitch_sizes(&sizes).unwrap();
        let b = solver().stitch_sizes(&sizes).unwrap();
        assert_eq!(a, b);
    }
}
