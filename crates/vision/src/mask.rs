//! Binary foreground masks and 3×3 morphology.

use tangram_types::geometry::Size;

/// A width × height binary mask (row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    width: u32,
    height: u32,
    bits: Vec<bool>,
}

impl BitMask {
    /// Creates an all-clear mask.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mask must be non-empty");
        Self {
            width,
            height,
            bits: vec![false; width as usize * height as usize],
        }
    }

    /// Mask width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask height.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Mask size.
    #[must_use]
    pub fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// Bit at `(x, y)`.
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> bool {
        self.bits[self.idx(x, y)]
    }

    /// Sets the bit at `(x, y)`.
    pub fn set(&mut self, x: u32, y: u32, v: bool) {
        let i = self.idx(x, y);
        self.bits[i] = v;
    }

    /// Sets a bit by linear (row-major) index.
    pub fn set_index(&mut self, index: usize, v: bool) {
        self.bits[index] = v;
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_set(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Morphological erosion with a 3×3 box kernel: a bit survives only if
    /// its entire 3×3 neighbourhood (clamped at edges) is set.
    #[must_use]
    pub fn eroded(&self) -> BitMask {
        self.morph(|all, _any| all)
    }

    /// Morphological dilation with a 3×3 box kernel: a bit is set if any
    /// neighbour is set.
    #[must_use]
    pub fn dilated(&self) -> BitMask {
        self.morph(|_all, any| any)
    }

    /// Opening (erode → dilate): removes isolated specks.
    #[must_use]
    pub fn opened(&self) -> BitMask {
        self.eroded().dilated()
    }

    /// Closing (dilate → erode): fills small holes.
    #[must_use]
    pub fn closed(&self) -> BitMask {
        self.dilated().eroded()
    }

    fn morph(&self, keep: impl Fn(bool, bool) -> bool) -> BitMask {
        let mut out = BitMask::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let mut all = true;
                let mut any = false;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let nx = i64::from(x) + dx;
                        let ny = i64::from(y) + dy;
                        if nx < 0
                            || ny < 0
                            || nx >= i64::from(self.width)
                            || ny >= i64::from(self.height)
                        {
                            // Outside pixels count as clear.
                            all = false;
                            continue;
                        }
                        let b = self.get(nx as u32, ny as u32);
                        all &= b;
                        any |= b;
                    }
                }
                if keep(all, any) {
                    out.set(x, y, true);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_with_block(w: u32, h: u32, x0: u32, y0: u32, bw: u32, bh: u32) -> BitMask {
        let mut m = BitMask::new(w, h);
        for y in y0..y0 + bh {
            for x in x0..x0 + bw {
                m.set(x, y, true);
            }
        }
        m
    }

    #[test]
    fn count_set_counts_the_block() {
        let m = mask_with_block(10, 10, 2, 2, 4, 4);
        assert_eq!(m.count_set(), 16);
    }

    #[test]
    fn erosion_shrinks_block() {
        let m = mask_with_block(20, 20, 5, 5, 6, 6);
        let e = m.eroded();
        assert_eq!(e.count_set(), 16); // 6x6 -> 4x4
        assert!(e.get(6, 6));
        assert!(!e.get(5, 5));
    }

    #[test]
    fn dilation_grows_block() {
        let m = mask_with_block(20, 20, 5, 5, 2, 2);
        let d = m.dilated();
        assert_eq!(d.count_set(), 16); // 2x2 -> 4x4
        assert!(d.get(4, 4));
    }

    #[test]
    fn opening_removes_speck_keeps_block() {
        let mut m = mask_with_block(30, 30, 10, 10, 5, 5);
        m.set(2, 2, true); // isolated speck
        let o = m.opened();
        assert!(!o.get(2, 2), "speck must be removed");
        assert!(o.get(12, 12), "block interior must survive");
    }

    #[test]
    fn closing_fills_hole() {
        let mut m = mask_with_block(30, 30, 10, 10, 7, 7);
        m.set(13, 13, false); // small hole in the middle
        let c = m.closed();
        assert!(c.get(13, 13), "hole must be filled");
    }

    #[test]
    fn erosion_at_border_clears_edge_pixels() {
        let m = mask_with_block(10, 10, 0, 0, 3, 3);
        let e = m.eroded();
        // Edge-adjacent pixels see out-of-bounds neighbours and die.
        assert!(!e.get(0, 0));
        assert!(e.get(1, 1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        let _ = BitMask::new(0, 5);
    }
}
