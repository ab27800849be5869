//! Pixel-space geometry used throughout the pipeline.
//!
//! All coordinates live in the *logical* frame space of a camera (e.g.
//! 3840×2160 for 4K), with the origin at the top-left corner, `x` growing
//! right and `y` growing down. Rectangles are half-open: a rectangle with
//! `x = 0, width = 10` covers pixel columns `0..10`.

use std::fmt;

/// A pixel position in frame coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate (pixels from the left edge).
    pub x: u32,
    /// Vertical coordinate (pixels from the top edge).
    pub y: u32,
}

impl Point {
    /// Creates a new point.
    ///
    /// ```
    /// # use tangram_types::geometry::Point;
    /// let p = Point::new(3, 4);
    /// assert_eq!((p.x, p.y), (3, 4));
    /// ```
    #[must_use]
    pub const fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A width × height extent in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Size {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Size {
    /// 4K UHD resolution (3840×2160), the resolution of the PANDA4K frames
    /// used throughout the paper's evaluation.
    pub const UHD_4K: Size = Size::new(3840, 2160);
    /// The default canvas size used by the paper (1024×1024).
    pub const CANVAS_1024: Size = Size::new(1024, 1024);

    /// Creates a new size.
    #[must_use]
    pub const fn new(width: u32, height: u32) -> Self {
        Self { width, height }
    }

    /// Total number of pixels.
    ///
    /// ```
    /// # use tangram_types::geometry::Size;
    /// assert_eq!(Size::new(1024, 1024).area(), 1 << 20);
    /// ```
    #[must_use]
    pub const fn area(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Whether either dimension is zero.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Whether `other` fits inside `self` without rotation.
    ///
    /// ```
    /// # use tangram_types::geometry::Size;
    /// assert!(Size::new(100, 100).fits(Size::new(100, 40)));
    /// assert!(!Size::new(100, 100).fits(Size::new(101, 1)));
    /// ```
    #[must_use]
    pub const fn fits(&self, other: Size) -> bool {
        self.width >= other.width && self.height >= other.height
    }

    /// Scales both dimensions by `factor`, rounding to the nearest pixel
    /// (minimum 1 in each dimension if the input was non-empty).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Size {
        debug_assert!(factor >= 0.0, "negative scale factor");
        let scale = |v: u32| -> u32 {
            if v == 0 {
                0
            } else {
                ((f64::from(v) * factor).round() as u32).max(1)
            }
        };
        Size::new(scale(self.width), scale(self.height))
    }

    /// Megapixels (10^6 pixels) as a float, handy for latency models.
    #[must_use]
    pub fn megapixels(&self) -> f64 {
        self.area() as f64 / 1.0e6
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

impl From<(u32, u32)> for Size {
    fn from((width, height): (u32, u32)) -> Self {
        Size::new(width, height)
    }
}

/// An axis-aligned rectangle in frame coordinates (half-open intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and extent.
    ///
    /// ```
    /// # use tangram_types::geometry::Rect;
    /// let r = Rect::new(10, 20, 30, 40);
    /// assert_eq!(r.right(), 40);
    /// assert_eq!(r.bottom(), 60);
    /// ```
    #[must_use]
    pub const fn new(x: u32, y: u32, width: u32, height: u32) -> Self {
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// A rectangle anchored at the origin covering the whole `size`.
    #[must_use]
    pub const fn from_size(size: Size) -> Self {
        Self::new(0, 0, size.width, size.height)
    }

    /// The exclusive right edge (`x + width`).
    #[must_use]
    pub const fn right(&self) -> u32 {
        self.x + self.width
    }

    /// The exclusive bottom edge (`y + height`).
    #[must_use]
    pub const fn bottom(&self) -> u32 {
        self.y + self.height
    }

    /// Top-left corner.
    #[must_use]
    pub const fn origin(&self) -> Point {
        Point::new(self.x, self.y)
    }

    /// Extent of the rectangle.
    #[must_use]
    pub const fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    /// Pixel area.
    #[must_use]
    pub const fn area(&self) -> u64 {
        self.size().area()
    }

    /// Whether the rectangle covers no pixels.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.size().is_empty()
    }

    /// Whether `other` lies entirely inside `self`.
    #[must_use]
    pub const fn contains_rect(&self, other: &Rect) -> bool {
        other.x >= self.x
            && other.y >= self.y
            && other.right() <= self.right()
            && other.bottom() <= self.bottom()
    }

    /// The overlapping region of two rectangles, if any.
    ///
    /// ```
    /// # use tangram_types::geometry::Rect;
    /// let a = Rect::new(0, 0, 10, 10);
    /// let b = Rect::new(5, 5, 10, 10);
    /// assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
    /// assert_eq!(a.intersect(&Rect::new(10, 0, 5, 5)), None);
    /// ```
    #[must_use]
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.right().min(other.right());
        let y1 = self.bottom().min(other.bottom());
        if x0 < x1 && y0 < y1 {
            Some(Rect::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// Area of the overlap between two rectangles (`S_{b,r}` in Algorithm 1
    /// of the paper: the quantity used to affiliate an RoI with a zone).
    #[must_use]
    pub fn overlap_area(&self, other: &Rect) -> u64 {
        self.intersect(other).map_or(0, |r| r.area())
    }

    /// Whether the two rectangles share at least one pixel.
    #[must_use]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.overlap_area(other) > 0
    }

    /// The minimum rectangle enclosing both inputs.
    ///
    /// ```
    /// # use tangram_types::geometry::Rect;
    /// let a = Rect::new(0, 0, 2, 2);
    /// let b = Rect::new(8, 8, 2, 2);
    /// assert_eq!(a.union(&b), Rect::new(0, 0, 10, 10));
    /// ```
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = self.right().max(other.right());
        let y1 = self.bottom().max(other.bottom());
        Rect::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// The minimum rectangle enclosing every rectangle in `rects`
    /// (used by Algorithm 1 step 3: "resize each zone to the minimum
    /// enclosing rectangle that covers all the RoIs").
    ///
    /// Returns `None` for an empty iterator.
    #[must_use]
    pub fn enclosing<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Option<Rect> {
        let mut it = rects.into_iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// Intersection-over-union of two boxes, the standard detection
    /// matching criterion (AP@0.5 uses `iou >= 0.5`).
    ///
    /// ```
    /// # use tangram_types::geometry::Rect;
    /// let a = Rect::new(0, 0, 10, 10);
    /// assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    /// assert_eq!(a.iou(&Rect::new(20, 20, 5, 5)), 0.0);
    /// ```
    #[must_use]
    pub fn iou(&self, other: &Rect) -> f64 {
        let inter = self.overlap_area(other);
        if inter == 0 {
            return 0.0;
        }
        let union = self.area() + other.area() - inter;
        inter as f64 / union as f64
    }

    /// Clamps the rectangle so it lies within `bounds`; returns `None` when
    /// nothing remains.
    #[must_use]
    pub fn clamped(&self, bounds: &Rect) -> Option<Rect> {
        self.intersect(bounds)
    }

    /// Scales position and extent by `factor` (used to map RoIs detected on
    /// a downscaled raster back to logical 4K coordinates).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Rect {
        debug_assert!(factor >= 0.0, "negative scale factor");
        let sz = self.size().scaled(factor);
        Rect::new(
            (f64::from(self.x) * factor).round() as u32,
            (f64::from(self.y) * factor).round() as u32,
            sz.width,
            sz.height,
        )
    }

    /// Grows the rectangle by `margin` pixels on every side, clamped to
    /// `bounds` (used to pad RoIs before partitioning).
    #[must_use]
    pub fn inflated(&self, margin: u32, bounds: &Rect) -> Rect {
        let x0 = self.x.saturating_sub(margin).max(bounds.x);
        let y0 = self.y.saturating_sub(margin).max(bounds.y);
        let x1 = (self.right() + margin).min(bounds.right());
        let y1 = (self.bottom() + margin).min(bounds.bottom());
        Rect::new(x0, y0, x1.saturating_sub(x0), y1.saturating_sub(y0))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} {}x{}]", self.x, self.y, self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_display() {
        assert_eq!(Point::new(1, 2).to_string(), "(1, 2)");
    }

    #[test]
    fn size_area_and_fits() {
        let s = Size::new(3840, 2160);
        assert_eq!(s.area(), 8_294_400);
        assert!(s.fits(Size::new(1024, 1024)));
        assert!(!Size::new(100, 100).fits(s));
        assert!((s.megapixels() - 8.2944).abs() < 1e-9);
    }

    #[test]
    fn size_scaled_rounds_and_keeps_nonzero() {
        assert_eq!(Size::new(10, 10).scaled(0.25), Size::new(3, 3));
        assert_eq!(Size::new(1, 1).scaled(0.01), Size::new(1, 1));
        assert_eq!(Size::new(0, 5).scaled(2.0), Size::new(0, 10));
    }

    #[test]
    fn rect_edges() {
        let r = Rect::new(5, 6, 7, 8);
        assert_eq!(r.right(), 12);
        assert_eq!(r.bottom(), 14);
        assert_eq!(r.area(), 56);
    }

    #[test]
    fn intersect_disjoint_and_touching() {
        let a = Rect::new(0, 0, 10, 10);
        // Touching edges share no pixels in half-open coordinates.
        assert_eq!(a.intersect(&Rect::new(10, 0, 10, 10)), None);
        assert_eq!(a.intersect(&Rect::new(0, 10, 10, 10)), None);
        assert!(a.intersects(&Rect::new(9, 9, 10, 10)));
    }

    #[test]
    fn overlap_area_matches_intersect() {
        let a = Rect::new(0, 0, 100, 100);
        let b = Rect::new(50, 80, 100, 100);
        assert_eq!(a.overlap_area(&b), 50 * 20);
    }

    #[test]
    fn union_with_empty() {
        let a = Rect::new(3, 3, 5, 5);
        let empty = Rect::new(100, 100, 0, 0);
        assert_eq!(a.union(&empty), a);
        assert_eq!(empty.union(&a), a);
    }

    #[test]
    fn enclosing_multiple() {
        let rs = [
            Rect::new(10, 10, 5, 5),
            Rect::new(0, 20, 2, 2),
            Rect::new(30, 0, 1, 1),
        ];
        assert_eq!(Rect::enclosing(rs.iter()), Some(Rect::new(0, 0, 31, 22)));
        assert_eq!(Rect::enclosing(std::iter::empty()), None);
    }

    #[test]
    fn iou_half_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(0, 5, 10, 10);
        // intersection 50, union 150.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn contains_rect_boundary() {
        let outer = Rect::new(0, 0, 10, 10);
        assert!(outer.contains_rect(&Rect::new(0, 0, 10, 10)));
        assert!(!outer.contains_rect(&Rect::new(1, 1, 10, 9)));
    }

    #[test]
    fn scaled_up_and_down() {
        let r = Rect::new(100, 200, 50, 60);
        let up = r.scaled(2.0);
        assert_eq!(up, Rect::new(200, 400, 100, 120));
        let down = up.scaled(0.5);
        assert_eq!(down, r);
    }

    #[test]
    fn inflated_clamps_to_bounds() {
        let bounds = Rect::new(0, 0, 100, 100);
        let r = Rect::new(5, 5, 10, 10);
        assert_eq!(r.inflated(10, &bounds), Rect::new(0, 0, 25, 25));
        let edge = Rect::new(95, 95, 5, 5);
        assert_eq!(edge.inflated(10, &bounds), Rect::new(85, 85, 15, 15));
    }
}
