//! Deterministic grayscale frame rendering.
//!
//! The renderer exists to feed the *real* background-subtraction pipeline
//! in `tangram-vision`: a static textured background plus moving textured
//! objects plus per-frame sensor noise is exactly the signal a
//! Stauffer–Grimson mixture model is designed for. Rendering happens at a
//! configurable downscale of the logical 4K frame (real deployments also
//! run background subtraction on downsampled video).
//!
//! All texture and noise comes from counter-based hashes, so a frame is a
//! pure function of `(scene seed, frame index)` — no RNG stream state.

use tangram_types::geometry::{Rect, Size};

use crate::object::GtObject;

/// A grayscale image at the renderer's (downscaled) resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    width: u32,
    height: u32,
    /// Scale of this raster relative to logical 4K coordinates.
    scale: f64,
    data: Vec<u8>,
}

impl Raster {
    /// Image width in raster pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in raster pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raster size.
    #[must_use]
    pub fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    /// Scale of raster pixels relative to logical frame pixels.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Sets the pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y as usize * self.width as usize + x as usize] = v;
    }

    /// Raw row-major pixel data.
    #[must_use]
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }
}

/// Renders frames of one scene: a fixed background plus per-frame objects.
#[derive(Debug, Clone)]
pub struct FrameRenderer {
    seed: u64,
    frame_size: Size,
    raster_size: Size,
    scale: f64,
    background: Vec<u8>,
    /// Std-dev of the per-frame sensor noise (intensity levels), at most
    /// 26,760 — a hundred times the range of a pixel.
    pub noise_sigma: f64,
}

impl FrameRenderer {
    /// Creates a renderer for a scene.
    ///
    /// `scale` maps logical frame coordinates to raster pixels (e.g. `0.25`
    /// renders a 4K scene at 960×540).
    ///
    /// # Panics
    ///
    /// Panics if `scale` would produce an empty raster.
    #[must_use]
    pub fn new(seed: u64, frame_size: Size, scale: f64) -> Self {
        let raster_size = frame_size.scaled(scale);
        assert!(!raster_size.is_empty(), "raster scale too small");
        // Static background texture: smooth large-scale structure
        // (pavement, shadows, buildings) plus fixed fine-grained texture.
        // Each trig factor of the smooth term depends on one coordinate,
        // so it is taken once per column or row, not once per texel.
        let phase = (seed % 628) as f64 / 100.0;
        let columns: Vec<(f64, f64)> = (0..raster_size.width)
            .map(|x| {
                let fx = f64::from(x);
                ((fx * 0.011 + phase).sin(), (fx * 0.031).cos())
            })
            .collect();
        let mut background = Vec::with_capacity(raster_size.area() as usize);
        for y in 0..raster_size.height {
            let fy = f64::from(y);
            let (cy, sy) = ((fy * 0.007 + phase * 0.5).cos(), (fy * 0.023).sin());
            for (x, &(sx, cx)) in (0..raster_size.width).zip(&columns) {
                let smooth = 24.0 * (sx * cy) + 10.0 * (cx + sy);
                let grain = (hash3(seed, u64::from(x), u64::from(y)) % 17) as f64 - 8.0;
                background.push((118.0 + smooth + grain).clamp(0.0, 255.0) as u8);
            }
        }
        Self {
            seed,
            frame_size,
            raster_size,
            scale,
            background,
            noise_sigma: 2.5,
        }
    }

    /// The raster resolution this renderer produces.
    #[must_use]
    pub fn raster_size(&self) -> Size {
        self.raster_size
    }

    /// Renders frame `frame_index` containing `objects` (in logical
    /// coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma` is above 26,760.
    #[must_use]
    pub fn render(&self, frame_index: u64, objects: &[GtObject]) -> Raster {
        let mut raster = Raster {
            width: self.raster_size.width,
            height: self.raster_size.height,
            scale: self.scale,
            data: self.background.clone(),
        };
        for obj in objects {
            self.draw_object(&mut raster, obj);
        }
        self.apply_sensor_noise(&mut raster, frame_index);
        raster
    }

    fn draw_object(&self, raster: &mut Raster, obj: &GtObject) {
        let scaled = obj.rect.scaled(self.scale);
        let bounds = Rect::from_size(self.raster_size);
        let Some(r) = scaled.clamped(&bounds) else {
            return;
        };
        // Per-object base shade chosen to contrast with the ~118 background.
        let shade = 42
            + (hash3(self.seed ^ obj.track, 1, 2) % 70) as i32
            + if obj.track.is_multiple_of(3) { 110 } else { 0 };
        for y in r.y..r.bottom() {
            for x in r.x..r.right() {
                // Clothing texture: low-amplitude per-pixel variation that
                // moves with the object (hash keyed by object-local coords).
                let lx = x - r.x;
                let ly = y - r.y;
                let tex =
                    (hash3(self.seed ^ obj.track, u64::from(lx), u64::from(ly)) % 25) as i32 - 12;
                raster.set(x, y, (shade + tex).clamp(0, 255) as u8);
            }
        }
    }

    fn apply_sensor_noise(&self, raster: &mut Raster, frame_index: u64) {
        if self.noise_sigma <= 0.0 {
            return;
        }
        // Approximate Gaussian noise as the sum of two uniform hashes
        // (triangular distribution, σ ≈ range/√6) — cheap and deterministic.
        let amp = (self.noise_sigma * 2.449).round().max(1.0) as i32; // √6 ≈ 2.449
        let rem = remainder_by(amp as u64 + 1);
        let key = self
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(frame_index);
        for (i, px) in raster.data.iter_mut().enumerate() {
            let h = hash3(key, i as u64, 0);
            // `h % m` from the halves of `h`: the high one counts only by
            // its remainder, which keeps the numerator below `m·2^32`.
            let high = rem(h >> 32);
            let whole = rem(high << 32 | h & 0xffff_ffff);
            let n = whole as i32 + high as i32 - amp;
            *px = (i32::from(*px) + n).clamp(0, 255) as u8;
        }
    }

    /// Logical frame size this renderer was built for.
    #[must_use]
    pub fn frame_size(&self) -> Size {
        self.frame_size
    }
}

/// `n % m` for a fixed `m`, by two multiplications instead of a division
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019):
/// with `c = ⌈2^64 / m⌉`, `c·n mod 2^64` read as a fraction of `2^64`
/// exceeds `(n % m) / m` by less than `n / 2^64`, so while `n < 2^64 / m`
/// its product with `m` has `n % m` as its high word. The sensor noise
/// takes two such remainders per pixel.
///
/// # Panics
///
/// Panics unless `2 ≤ m ≤ 2^16`; the returned function panics unless
/// `n < m·2^32` (which is at most `2^64 / m`). That check is per call in
/// every profile; it also keeps the noise loop scalar, which on baseline
/// x86-64 (no vector 64-bit multiply) is a third faster than vectorised.
fn remainder_by(m: u64) -> impl Fn(u64) -> u64 {
    assert!((2..=1 << 16).contains(&m), "modulus {m} out of range");
    let c = u64::MAX / m + 1;
    move |n| {
        assert!(n >> 32 < m, "{n} is not below {m}·2^32");
        ((u128::from(c.wrapping_mul(n)) * u128::from(m)) >> 64) as u64
    }
}

/// A small counter-based mixing hash (xorshift-multiply), stable across
/// platforms.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ c.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-texel reference for the tabulated background.
    fn background_texel(seed: u64, x: u32, y: u32) -> u8 {
        let fx = f64::from(x);
        let fy = f64::from(y);
        let phase = (seed % 628) as f64 / 100.0;
        let smooth = 24.0 * ((fx * 0.011 + phase).sin() * (fy * 0.007 + phase * 0.5).cos())
            + 10.0 * ((fx * 0.031).cos() + (fy * 0.023).sin());
        let grain = (hash3(seed, u64::from(x), u64::from(y)) % 17) as f64 - 8.0;
        (118.0 + smooth + grain).clamp(0.0, 255.0) as u8
    }

    fn renderer() -> FrameRenderer {
        FrameRenderer::new(9, Size::UHD_4K, 0.1)
    }

    fn mean_intensity(img: &Raster) -> f64 {
        img.pixels().iter().map(|&p| f64::from(p)).sum::<f64>() / img.pixels().len() as f64
    }

    #[test]
    fn tabulated_background_is_the_per_texel_one() {
        // 0 and 627 are the ends of the phase range (`seed % 628`).
        for seed in [0, 9, 42, 627, 628, 1255, u64::MAX] {
            let r = FrameRenderer::new(seed, Size::new(1001, 403), 0.37);
            let size = r.raster_size();
            let per_texel: Vec<u8> = (0..size.height)
                .flat_map(|y| (0..size.width).map(move |x| background_texel(seed, x, y)))
                .collect();
            assert!(r.background == per_texel, "seed {seed}");
        }
    }

    #[test]
    fn remainder_by_is_the_division() {
        for m in [2, 3, 7, 17, 255, 256, 40_001, 65_535, 65_536] {
            let rem = remainder_by(m);
            // `top ≡ m - 1` is where the approximation has least room.
            let top = (m << 32) - 1;
            let near = [0, 1, m - 1, m, m + 1, (1 << 32) - 1, 1 << 32];
            let high = [top - m, top - 1, top];
            let hashed = (0..2_000).map(|i| hash3(m, i, 0) % (top + 1));
            for n in near.into_iter().chain(high).chain(hashed) {
                assert_eq!(rem(n), n % m, "{n} % {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not below")]
    fn remainder_by_checks_its_numerator() {
        let _ = remainder_by(7)(7 << 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remainder_by_checks_its_modulus() {
        let _ = remainder_by((1 << 16) + 1);
    }

    #[test]
    fn sensor_noise_is_the_two_remainders_of_the_hash() {
        let mut r = renderer();
        for sigma in [0.3, 2.5, 40.0, 26_000.0] {
            r.noise_sigma = sigma;
            let amp = (sigma * 2.449).round() as i64;
            let m = amp as u64 + 1;
            let key = 9u64.wrapping_mul(0x9e37_79b9).wrapping_add(5);
            let divided: Vec<u8> = (0..)
                .zip(&r.background)
                .map(|(i, &px)| {
                    let h = hash3(key, i, 0);
                    let n = (h % m) as i64 + ((h >> 32) % m) as i64 - amp;
                    (i64::from(px) + n).clamp(0, 255) as u8
                })
                .collect();
            assert!(r.render(5, &[]).pixels() == divided, "sigma {sigma}");
        }
    }

    #[test]
    fn raster_dimensions_follow_scale() {
        let r = renderer();
        assert_eq!(r.raster_size(), Size::new(384, 216));
        assert_eq!(r.frame_size(), Size::UHD_4K);
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = renderer();
        let objs = vec![GtObject::new(3, Rect::new(400, 400, 300, 600))];
        assert_eq!(r.render(5, &objs), r.render(5, &objs));
    }

    #[test]
    fn different_frames_differ_only_by_noise() {
        let r = renderer();
        let a = r.render(1, &[]);
        let b = r.render(2, &[]);
        assert_ne!(a, b, "sensor noise must vary per frame");
        // But the mean intensity stays close to the background.
        assert!((mean_intensity(&a) - mean_intensity(&b)).abs() < 1.0);
    }

    #[test]
    fn objects_change_pixels_inside_their_box() {
        let mut quiet = renderer();
        quiet.noise_sigma = 0.0;
        let empty = quiet.render(0, &[]);
        let obj = GtObject::new(7, Rect::new(1000, 1000, 400, 800));
        let with_obj = quiet.render(0, &[obj]);
        let scaled = obj.rect.scaled(0.1);
        let mut changed = 0u32;
        for y in scaled.y..scaled.bottom().min(with_obj.height()) {
            for x in scaled.x..scaled.right().min(with_obj.width()) {
                if empty.get(x, y) != with_obj.get(x, y) {
                    changed += 1;
                }
            }
        }
        let total = scaled.area() as u32;
        assert!(
            changed > total * 7 / 10,
            "only {changed}/{total} pixels changed under the object"
        );
    }

    #[test]
    fn object_outside_frame_is_ignored() {
        let r = renderer();
        let far = GtObject::new(1, Rect::new(100_000, 100_000, 10, 10));
        // Must not panic.
        let _ = r.render(0, &[far]);
    }

    #[test]
    fn background_texture_has_structure() {
        let r = renderer();
        let img = r.render(0, &[]);
        let mean = mean_intensity(&img);
        assert!((90.0..150.0).contains(&mean), "mean {mean}");
        // Not a flat image: some pixels deviate noticeably.
        let spread = img
            .pixels()
            .iter()
            .map(|&p| (f64::from(p) - mean).abs())
            .fold(0.0f64, f64::max);
        assert!(spread > 15.0, "background too flat (max dev {spread})");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let r = renderer().render(0, &[]);
        let _ = r.get(10_000, 0);
    }
}
