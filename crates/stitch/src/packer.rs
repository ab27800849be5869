//! Single-canvas rectangle packers.
//!
//! The paper's Patch-stitching Solver is a guillotine packer: among the
//! free rectangles that fit the incoming patch it picks the one minimising
//! `min(w_c − w_i, h_c − h_i)` (best short side fit), places the patch in
//! the corner, and splits the remaining space into two disjoint free
//! rectangles along the shorter axis. [`ShelfPacker`] and
//! [`SkylinePacker`] implement the classic alternatives for the packing
//! ablation bench.

use tangram_types::geometry::{Point, Rect, Size};

/// Places rectangles into one fixed-size canvas. No rotation, no overlap.
pub trait Packer {
    /// Attempts to place a `size`-shaped patch; returns its top-left
    /// corner, or `None` when no free space fits it.
    fn insert(&mut self, size: Size) -> Option<Point>;

    /// Clears all placements.
    fn reset(&mut self);

    /// The canvas extent this packer packs into.
    fn canvas_size(&self) -> Size;

    /// Total area placed so far.
    fn used_area(&self) -> u64;

    /// Fraction of the canvas covered by placed patches.
    fn efficiency(&self) -> f64 {
        self.used_area() as f64 / self.canvas_size().area() as f64
    }
}

/// The paper's guillotine packer (best-short-side-fit + shorter-axis
/// split).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuillotinePacker {
    size: Size,
    free: Vec<Rect>,
    /// The width of the widest and the height of the tallest rectangle in
    /// `free`: no free rectangle holds a patch this does not.
    bound: Size,
    used: u64,
}

impl GuillotinePacker {
    /// Creates an empty packer for a canvas of `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is empty.
    #[must_use]
    pub fn new(size: Size) -> Self {
        assert!(!size.is_empty(), "canvas must be non-empty");
        Self {
            size,
            free: vec![Rect::from_size(size)],
            bound: size,
            used: 0,
        }
    }

    /// Read-only probe: would [`Packer::insert`] place a `size`-shaped patch?
    #[must_use]
    pub fn fits(&self, size: Size) -> bool {
        self.best_fit(size).is_some()
    }

    /// The free-list index [`Packer::insert`] places a `size`-shaped patch
    /// at: the first free rectangle minimising `min(w_c − w_i, h_c − h_i)`
    /// (best short side fit, line 30). One branch-free pass: a misfit's key
    /// is `u64::MAX`, a fit's its leftover above its index.
    #[must_use]
    pub fn best_fit(&self, size: Size) -> Option<usize> {
        if size.is_empty() || !self.bound.fits(size) {
            return None;
        }
        let key = self.free.iter().enumerate().fold(u64::MAX, |best, (i, c)| {
            let w = c.width.wrapping_sub(size.width);
            let h = c.height.wrapping_sub(size.height);
            let key = (u64::from(w.min(h)) << 32) | i as u64;
            best.min(if c.size().fits(size) { key } else { u64::MAX })
        });
        (key != u64::MAX).then_some(key as u32 as usize)
    }

    /// Places a `size`-shaped patch at free rectangle `slot`,
    /// [`Self::best_fit`]'s answer, and returns its top-left corner.
    pub(crate) fn place(&mut self, size: Size, slot: usize) -> Point {
        let cell = self.free.swap_remove(slot);
        assert!(cell.size().fits(size), "slot {slot} does not hold {size}");
        let origin = cell.origin();
        // Remaining space after placing at the corner: a right strip of
        // (W−w) × ? and a bottom strip of ? × (H−h). Splitting "on the
        // shorter axis" (line 32) gives the smaller leftover its own thin
        // rectangle and keeps the larger leftover wide.
        let rem_w = cell.width - size.width;
        let rem_h = cell.height - size.height;
        let (c1, c2) = if rem_w <= rem_h {
            // Horizontal cut: thin right strip next to the patch, full-width
            // bottom rectangle.
            (
                Rect::new(cell.x + size.width, cell.y, rem_w, size.height),
                Rect::new(cell.x, cell.y + size.height, cell.width, rem_h),
            )
        } else {
            // Vertical cut: full-height right rectangle, thin bottom strip
            // under the patch.
            (
                Rect::new(cell.x + size.width, cell.y, rem_w, cell.height),
                Rect::new(cell.x, cell.y + size.height, size.width, rem_h),
            )
        };
        for c in [c1, c2] {
            if !c.is_empty() {
                self.free.push(c);
            }
        }
        // Both pieces lie inside `cell`, so the bound can only shrink, and
        // only if `cell` set it.
        if cell.width == self.bound.width || cell.height == self.bound.height {
            self.bound = self.free.iter().fold(Size::new(0, 0), |b, c| {
                Size::new(b.width.max(c.width), b.height.max(c.height))
            });
        }
        self.used += size.area();
        origin
    }
}

impl Packer for GuillotinePacker {
    fn insert(&mut self, size: Size) -> Option<Point> {
        let slot = self.best_fit(size)?;
        Some(self.place(size, slot))
    }

    fn reset(&mut self) {
        self.free.clear();
        self.free.push(Rect::from_size(self.size));
        self.bound = self.size;
        self.used = 0;
    }

    fn canvas_size(&self) -> Size {
        self.size
    }

    fn used_area(&self) -> u64 {
        self.used
    }
}

/// First-fit shelf packer: patches fill left-to-right shelves whose height
/// is set by their first patch. Simple and fast, but wastes the space
/// above short patches — the packing ablation's lower bar.
#[derive(Debug, Clone)]
pub struct ShelfPacker {
    size: Size,
    shelves: Vec<(u32, u32, u32)>, // (y, height, used_width)
    next_y: u32,
    used: u64,
}

impl ShelfPacker {
    /// Creates an empty shelf packer.
    ///
    /// # Panics
    ///
    /// Panics if `size` is empty.
    #[must_use]
    pub fn new(size: Size) -> Self {
        assert!(!size.is_empty(), "canvas must be non-empty");
        Self {
            size,
            shelves: Vec::new(),
            next_y: 0,
            used: 0,
        }
    }
}

impl Packer for ShelfPacker {
    fn insert(&mut self, size: Size) -> Option<Point> {
        if size.is_empty() || size.width > self.size.width {
            return None;
        }
        // Try existing shelves first (first fit).
        for (y, height, used_width) in &mut self.shelves {
            if size.height <= *height && *used_width + size.width <= self.size.width {
                let p = Point::new(*used_width, *y);
                *used_width += size.width;
                self.used += size.area();
                return Some(p);
            }
        }
        // Open a new shelf.
        if self.next_y + size.height > self.size.height {
            return None;
        }
        let p = Point::new(0, self.next_y);
        self.shelves.push((self.next_y, size.height, size.width));
        self.next_y += size.height;
        self.used += size.area();
        Some(p)
    }

    fn reset(&mut self) {
        self.shelves.clear();
        self.next_y = 0;
        self.used = 0;
    }

    fn canvas_size(&self) -> Size {
        self.size
    }

    fn used_area(&self) -> u64 {
        self.used
    }
}

/// Bottom-left skyline packer: maintains the skyline profile and drops
/// each patch at the lowest (then leftmost) position. Often close to
/// guillotine quality; the packing ablation's second baseline.
#[derive(Debug, Clone)]
pub struct SkylinePacker {
    size: Size,
    /// `(x, y, width)` segments covering the canvas width, left to right.
    skyline: Vec<(u32, u32, u32)>,
    used: u64,
}

impl SkylinePacker {
    /// Creates an empty skyline packer.
    ///
    /// # Panics
    ///
    /// Panics if `size` is empty.
    #[must_use]
    pub fn new(size: Size) -> Self {
        assert!(!size.is_empty(), "canvas must be non-empty");
        Self {
            size,
            skyline: vec![(0, 0, size.width)],
            used: 0,
        }
    }

    /// The y the patch would rest at when left-aligned to segment `i`, or
    /// `None` if it would not fit horizontally or vertically.
    fn fit_at(&self, i: usize, size: Size) -> Option<u32> {
        let (x, _, _) = self.skyline[i];
        if x + size.width > self.size.width {
            return None;
        }
        let mut rest_y = 0u32;
        let mut remaining = size.width;
        let mut j = i;
        while remaining > 0 {
            let (_, sy, sw) = *self.skyline.get(j)?;
            rest_y = rest_y.max(sy);
            if sw >= remaining {
                remaining = 0;
            } else {
                remaining -= sw;
                j += 1;
            }
        }
        (rest_y + size.height <= self.size.height).then_some(rest_y)
    }

    fn place_at(&mut self, i: usize, x: u32, y: u32, size: Size) {
        // Replace the covered span with a single raised segment.
        let new_seg = (x, y + size.height, size.width);
        let mut rebuilt: Vec<(u32, u32, u32)> = Vec::with_capacity(self.skyline.len() + 2);
        rebuilt.extend_from_slice(&self.skyline[..i]);
        rebuilt.push(new_seg);
        let end_x = x + size.width;
        for &(sx, sy, sw) in &self.skyline[i..] {
            let seg_end = sx + sw;
            if seg_end <= end_x {
                continue; // fully covered
            }
            if sx >= end_x {
                rebuilt.push((sx, sy, sw));
            } else {
                rebuilt.push((end_x, sy, seg_end - end_x));
            }
        }
        // Merge adjacent segments of equal height.
        let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(rebuilt.len());
        for seg in rebuilt {
            if let Some(last) = merged.last_mut() {
                if last.1 == seg.1 && last.0 + last.2 == seg.0 {
                    last.2 += seg.2;
                    continue;
                }
            }
            merged.push(seg);
        }
        self.skyline = merged;
    }
}

impl Packer for SkylinePacker {
    fn insert(&mut self, size: Size) -> Option<Point> {
        if size.is_empty() {
            return None;
        }
        let mut best: Option<(u32, u32, usize)> = None; // (y, x, segment)
        for i in 0..self.skyline.len() {
            if let Some(y) = self.fit_at(i, size) {
                let x = self.skyline[i].0;
                let candidate = (y, x, i);
                if best.is_none_or(|b| (candidate.0, candidate.1) < (b.0, b.1)) {
                    best = Some(candidate);
                }
            }
        }
        let (y, x, i) = best?;
        self.place_at(i, x, y, size);
        self.used += size.area();
        Some(Point::new(x, y))
    }

    fn reset(&mut self) {
        self.skyline = vec![(0, 0, self.size.width)];
        self.used = 0;
    }

    fn canvas_size(&self) -> Size {
        self.size
    }

    fn used_area(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANVAS: Size = Size::new(1024, 1024);

    fn check_no_overlap(placements: &[(Point, Size)], canvas: Size) {
        let rects: Vec<Rect> = placements
            .iter()
            .map(|(p, s)| Rect::new(p.x, p.y, s.width, s.height))
            .collect();
        let bounds = Rect::from_size(canvas);
        for (i, r) in rects.iter().enumerate() {
            assert!(bounds.contains_rect(r), "placement {r} escapes canvas");
            for other in &rects[..i] {
                assert!(!r.intersects(other), "placements overlap: {r} vs {other}");
            }
        }
    }

    fn exercise(packer: &mut dyn Packer, sizes: &[Size]) -> Vec<(Point, Size)> {
        let mut placed = Vec::new();
        for &s in sizes {
            if let Some(p) = packer.insert(s) {
                placed.push((p, s));
            }
        }
        placed
    }

    fn workload(seed: u64, n: usize) -> Vec<Size> {
        // Deterministic pseudo-random patch mix like Fig. 4a's scatter.
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let w = 60 + (x % 400) as u32;
                let h = 80 + ((x >> 16) % 500) as u32;
                Size::new(w, h)
            })
            .collect()
    }

    #[test]
    fn guillotine_valid_packing() {
        let mut p = GuillotinePacker::new(CANVAS);
        let placed = exercise(&mut p, &workload(1, 40));
        assert!(placed.len() >= 4, "too few placements: {}", placed.len());
        check_no_overlap(&placed, CANVAS);
        let area: u64 = placed.iter().map(|(_, s)| s.area()).sum();
        assert_eq!(area, p.used_area());
        assert!(p.efficiency() <= 1.0);
    }

    #[test]
    fn shelf_valid_packing() {
        let mut p = ShelfPacker::new(CANVAS);
        let placed = exercise(&mut p, &workload(2, 40));
        check_no_overlap(&placed, CANVAS);
    }

    #[test]
    fn skyline_valid_packing() {
        let mut p = SkylinePacker::new(CANVAS);
        let placed = exercise(&mut p, &workload(3, 40));
        check_no_overlap(&placed, CANVAS);
    }

    #[test]
    fn guillotine_fills_exactly_with_tiles() {
        // Four 512x512 tiles fill a 1024 canvas completely.
        let mut p = GuillotinePacker::new(CANVAS);
        let tile = Size::new(512, 512);
        for _ in 0..4 {
            assert!(p.insert(tile).is_some());
        }
        assert!((p.efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(p.insert(Size::new(1, 1)), None, "canvas is full");
    }

    #[test]
    fn guillotine_rejects_oversized() {
        let mut p = GuillotinePacker::new(CANVAS);
        assert_eq!(p.insert(Size::new(1025, 10)), None);
        assert_eq!(p.insert(Size::new(10, 1025)), None);
        assert_eq!(p.insert(Size::new(0, 10)), None, "empty patches rejected");
    }

    /// What `Stitching` and the scheduler lean on: `fits` answers what
    /// `insert` is about to, a rejected `insert` changes nothing, and the
    /// bound is the free list's widest width and tallest height.
    fn insert_checked(p: &mut GuillotinePacker, size: Size) -> Option<Point> {
        let before = p.clone();
        let placed = p.insert(size);
        assert_eq!(before.fits(size), placed.is_some(), "probe of {size}");
        if placed.is_none() {
            assert_eq!(*p, before, "rejected {size} changed the packer");
        }
        let widest = p.free.iter().map(|c| c.width).max().unwrap_or(0);
        let tallest = p.free.iter().map(|c| c.height).max().unwrap_or(0);
        assert_eq!(p.bound, Size::new(widest, tallest), "bound after {size}");
        placed
    }

    #[test]
    fn rejected_insert_is_pure_and_the_probe_agrees_at_the_edges() {
        let mut p = GuillotinePacker::new(CANVAS);
        // Empty canvas: zero-sized and oversized are rejected, untouched.
        for size in [Size::new(0, 0), Size::new(0, 7), Size::new(1025, 1)] {
            assert_eq!(insert_checked(&mut p, size), None);
        }
        assert_eq!(p.free, vec![Rect::from_size(CANVAS)]);
        // Exact fits: a full-width strip, then exactly what is left.
        assert!(insert_checked(&mut p, Size::new(1024, 700)).is_some());
        assert_eq!(insert_checked(&mut p, CANVAS), None, "canvas-sized");
        assert_eq!(insert_checked(&mut p, Size::new(1024, 325)), None);
        assert!(insert_checked(&mut p, Size::new(1024, 324)).is_some());
        // Full canvas: nothing fits, nothing changes.
        assert!(p.free.is_empty());
        for size in [Size::new(1, 1), Size::new(0, 0), CANVAS] {
            assert_eq!(insert_checked(&mut p, size), None);
        }
        assert_eq!(p.used_area(), CANVAS.area());
        // Canvas-sized into an empty packer is the one exact fit of all.
        assert!(insert_checked(&mut GuillotinePacker::new(CANVAS), CANVAS).is_some());
        // And the contract holds along mixed fills that end in rejections.
        for seed in 0..50 {
            let mut p = GuillotinePacker::new(CANVAS);
            for size in workload(seed, 40) {
                insert_checked(&mut p, size);
            }
        }
    }

    #[test]
    fn full_size_patch_fits_exactly() {
        let mut p = GuillotinePacker::new(CANVAS);
        assert_eq!(p.insert(CANVAS), Some(Point::new(0, 0)));
        assert_eq!(p.insert(Size::new(1, 1)), None);
    }

    #[test]
    fn reset_restores_capacity() {
        let mut p = GuillotinePacker::new(CANVAS);
        assert!(p.insert(CANVAS).is_some());
        p.reset();
        assert_eq!(p.used_area(), 0);
        assert!(p.insert(CANVAS).is_some());
    }

    #[test]
    fn guillotine_beats_shelf_on_mixed_sizes() {
        // The reason the paper packs with a guillotine rather than shelves:
        // mixed patch heights leave shelves with dead space.
        let mut guillotine_total = 0u64;
        let mut shelf_total = 0u64;
        for seed in 0..10u64 {
            let sizes = workload(seed, 60);
            let mut g = GuillotinePacker::new(CANVAS);
            let mut s = ShelfPacker::new(CANVAS);
            exercise(&mut g, &sizes);
            exercise(&mut s, &sizes);
            guillotine_total += g.used_area();
            shelf_total += s.used_area();
        }
        assert!(
            guillotine_total > shelf_total,
            "guillotine {guillotine_total} should beat shelf {shelf_total}"
        );
    }

    #[test]
    fn skyline_positions_are_bottom_left() {
        let mut p = SkylinePacker::new(Size::new(100, 100));
        assert_eq!(p.insert(Size::new(40, 30)), Some(Point::new(0, 0)));
        assert_eq!(p.insert(Size::new(40, 20)), Some(Point::new(40, 0)));
        // Next patch of width 60 fits at (40, 20) — the lowest position.
        assert_eq!(p.insert(Size::new(60, 20)), Some(Point::new(40, 20)));
    }

    #[test]
    fn deterministic_packing() {
        let sizes = workload(9, 50);
        let mut a = GuillotinePacker::new(CANVAS);
        let mut b = GuillotinePacker::new(CANVAS);
        let pa = exercise(&mut a, &sizes);
        let pb = exercise(&mut b, &sizes);
        assert_eq!(pa, pb);
    }
}
