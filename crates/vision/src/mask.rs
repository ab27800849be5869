//! Binary foreground masks and 3×3 morphology.
//!
//! A row is packed 64 pixels to a word — pixel `x` is bit `x % 64` of the
//! row's word `x / 64` — so a 3×3 erosion or dilation is a handful of
//! shifts and `&` / `|` per word instead of nine reads per pixel.

use tangram_types::geometry::Size;

/// A width × height binary mask (row-major, 64 pixels per word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    width: u32,
    height: u32,
    /// `height` rows of `stride()` words. Bits past `width` in a row's
    /// last word are always clear: `==`, `count_set` and erosion at the
    /// right border rely on it.
    words: Vec<u64>,
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
        let stride = (width as usize).div_ceil(64);
        Self {
            width,
            height,
            words: vec![0; stride * height as usize],
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

    /// Words per row.
    #[inline]
    fn stride(&self) -> usize {
        (self.width as usize).div_ceil(64)
    }

    /// The pixels of a row's last word: its padding bits are clear.
    fn last_word(&self) -> u64 {
        u64::MAX >> (self.stride() * 64 - self.width as usize)
    }

    /// Word index and bit of `(x, y)`. Checked in every profile: an `x`
    /// past the row would otherwise address a padding bit.
    #[inline]
    fn locate(&self, x: u32, y: u32) -> (usize, u64) {
        assert!(
            x < self.width && y < self.height,
            "mask pixel ({x},{y}) out of bounds"
        );
        (y as usize * self.stride() + x as usize / 64, 1 << (x % 64))
    }

    /// Bit at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> bool {
        let (word, bit) = self.locate(x, y);
        self.words[word] & bit != 0
    }

    /// Sets the bit at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: u32, y: u32, v: bool) {
        let (word, bit) = self.locate(x, y);
        if v {
            self.words[word] |= bit;
        } else {
            self.words[word] &= !bit;
        }
    }

    /// Sets a bit by linear (row-major) index.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not below `width × height`.
    pub fn set_index(&mut self, index: usize, v: bool) {
        let width = self.width as usize;
        let (x, y) = (index % width, index / width);
        assert!(y < self.height as usize, "mask index {index} out of bounds");
        self.set(x as u32, y as u32, v);
    }

    /// The `x` of every set pixel of row `y`, ascending: a clear word is
    /// skipped whole, a set bit costs one `trailing_zeros`.
    pub(crate) fn set_in_row(&self, y: u32) -> impl Iterator<Item = u32> + '_ {
        let stride = self.stride();
        let row = &self.words[y as usize * stride..][..stride];
        row.iter().zip((0..).step_by(64)).flat_map(|(&word, x0)| {
            let nonzero = |w: u64| (w != 0).then_some(w);
            std::iter::successors(nonzero(word), move |&w| nonzero(w & (w - 1)))
                .map(move |w| x0 + w.trailing_zeros())
        })
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Morphological erosion with a 3×3 box kernel: a bit survives only if
    /// its entire 3×3 neighbourhood (clamped at edges) is set.
    #[must_use]
    pub fn eroded(&self) -> BitMask {
        self.clone().morph(|a, b| a & b)
    }

    /// Morphological dilation with a 3×3 box kernel: a bit is set if any
    /// neighbour is set.
    #[must_use]
    pub fn dilated(&self) -> BitMask {
        self.clone().morph(|a, b| a | b)
    }

    /// Opening (erode → dilate): removes isolated specks.
    #[must_use]
    pub fn opened(&self) -> BitMask {
        self.eroded().morph(|a, b| a | b)
    }

    /// Closing (dilate → erode): fills small holes.
    #[must_use]
    pub fn closed(&self) -> BitMask {
        self.dilated().morph(|a, b| a & b)
    }

    /// One 3×3 box pass, in place: `join` is `&` for erosion and `|` for
    /// dilation. The box is separable, so a row pass joins each word with
    /// itself shifted one pixel left and right, then a column pass joins
    /// each row with the rows above and below. Pixels outside the frame
    /// count as clear: zeros enter at both ends of a row and stand in for
    /// the missing rows, and the row pass re-clears the padding that a
    /// dilation shifted a bit into.
    fn morph(mut self, join: impl Fn(u64, u64) -> u64) -> BitMask {
        let (stride, last_word) = (self.stride(), self.last_word());
        for row in self.words.chunks_exact_mut(stride) {
            let mut prev = 0;
            for i in 0..stride {
                let w = row[i];
                let next = row.get(i + 1).map_or(0, |n| n << 63);
                row[i] = join(join(w, w << 1 | prev >> 63), w >> 1 | next);
                prev = w;
            }
            row[stride - 1] &= last_word;
        }
        // Down one word column at a time, so the row above (already
        // overwritten) is carried in a register and nothing is allocated.
        for column in 0..stride {
            let mut above = 0;
            for i in (column..self.words.len()).step_by(stride) {
                let w = self.words[i];
                let below = self.words.get(i + stride).copied().unwrap_or(0);
                self.words[i] = join(join(above, w), below);
                above = w;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_sim::rng::DetRng;

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

    /// The per-pixel 3×3 pass the word kernel replaced, kept as its
    /// oracle: `keep(all, any)` of the nine neighbours, outside = clear.
    fn morph_oracle(m: &BitMask, keep: impl Fn(bool, bool) -> bool) -> BitMask {
        let mut out = BitMask::new(m.width, m.height);
        for y in 0..m.height {
            for x in 0..m.width {
                let mut all = true;
                let mut any = false;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let nx = i64::from(x) + dx;
                        let ny = i64::from(y) + dy;
                        let inside = nx >= 0
                            && ny >= 0
                            && nx < i64::from(m.width)
                            && ny < i64::from(m.height);
                        let b = inside && m.get(nx as u32, ny as u32);
                        all &= b;
                        any |= b;
                    }
                }
                out.set(x, y, keep(all, any));
            }
        }
        out
    }

    fn erode_oracle(m: &BitMask) -> BitMask {
        morph_oracle(m, |all, _| all)
    }

    fn dilate_oracle(m: &BitMask) -> BitMask {
        morph_oracle(m, |_, any| any)
    }

    fn count_per_pixel(m: &BitMask) -> usize {
        let xs = 0..m.width();
        (0..m.height())
            .flat_map(|y| xs.clone().map(move |x| (x, y)))
            .filter(|&(x, y)| m.get(x, y))
            .count()
    }

    fn random_mask(w: u32, h: u32, density: f64, rng: &mut DetRng) -> BitMask {
        let mut m = BitMask::new(w, h);
        for index in 0..w as usize * h as usize {
            if rng.chance(density) {
                m.set_index(index, true);
            }
        }
        m
    }

    fn assert_padding_clear(m: &BitMask, what: &str) {
        for (y, row) in m.words.chunks_exact(m.stride()).enumerate() {
            assert_eq!(row[m.stride() - 1] & !m.last_word(), 0, "{what}: row {y}");
        }
    }

    fn assert_kernel_matches_oracle(m: &BitMask, what: &str) {
        let (eroded, dilated) = (erode_oracle(m), dilate_oracle(m));
        let (closed, opened) = (erode_oracle(&dilated), dilate_oracle(&eroded));
        let cleaned = dilate_oracle(&erode_oracle(&closed));
        let cases = [
            ("eroded", m.eroded(), eroded),
            ("dilated", m.dilated(), dilated),
            ("closed", m.closed(), closed),
            ("opened", m.opened(), opened),
            ("closed().opened()", m.closed().opened(), cleaned),
        ];
        for (op, kernel, oracle) in cases {
            assert!(kernel == oracle, "{what}: {op} differs from the oracle");
            assert_eq!(kernel.count_set(), count_per_pixel(&oracle), "{what}: {op}");
        }
    }

    #[test]
    fn word_kernel_matches_the_per_pixel_oracle() {
        let rng = DetRng::new(19).fork("mask-differential");
        let densities = [0.02, 0.5, 0.98, 1.0, 0.0];
        for w in [1, 2, 63, 64, 65, 127, 128, 130, 960] {
            for h in [1, 2, 3, 17] {
                for (d, &density) in densities.iter().enumerate() {
                    let mut rng = rng.fork_indexed("case", u64::from(w * 100 + h) * 10 + d as u64);
                    let m = random_mask(w, h, density, &mut rng);
                    assert_eq!(m.count_set(), count_per_pixel(&m));
                    for y in 0..h {
                        let set: Vec<u32> = (0..w).filter(|&x| m.get(x, y)).collect();
                        assert_eq!(m.set_in_row(y).collect::<Vec<_>>(), set, "{w}x{h} row {y}");
                    }
                    assert_kernel_matches_oracle(&m, &format!("{w}x{h} at density {density}"));
                }
            }
        }
        // The extractor's raster size, once.
        let m = random_mask(960, 540, 0.5, &mut rng.fork("raster"));
        assert_kernel_matches_oracle(&m, "960x540 at density 0.5");
    }

    #[test]
    fn padding_stays_clear_on_a_ragged_width() {
        let (w, h) = (70, 5);
        let mut m = BitMask::new(w, h);
        for index in 0..(w * h) as usize {
            m.set_index(index, true);
        }
        assert_padding_clear(&m, "all set by index");
        assert_eq!(m.count_set(), (w * h) as usize);
        m.set(w - 1, 2, false);
        m.set(w - 1, 2, true);
        assert_padding_clear(&m, "right border toggled");
        for (op, out) in [
            ("dilated", m.dilated()),
            ("eroded", m.eroded()),
            ("closed", m.closed()),
            ("opened", m.opened()),
        ] {
            assert_padding_clear(&out, op);
        }
        // A full frame dilates to itself: nothing leaked past the border.
        assert_eq!(m.dilated(), m);
        // Erosion sees the padding as clear: the right column dies.
        assert!(!m.eroded().get(w - 1, 2));
        assert!(m.eroded().get(w - 2, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_at_x_equal_to_width_panics() {
        let _ = BitMask::new(70, 5).get(70, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_at_y_equal_to_height_panics() {
        BitMask::new(70, 5).set(3, 5, true);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_index_at_width_times_height_panics() {
        BitMask::new(70, 5).set_index(70 * 5, true);
    }
}
