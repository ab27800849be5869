//! Ground-truth objects and their pedestrian dynamics.
//!
//! Objects are "walkers": each is attracted to one of the scene's drifting
//! cluster centres, moves with per-frame velocity noise, and has a
//! perspective-scaled person-shaped bounding box (height ≈ 2 × width,
//! larger near the bottom of the frame). The population is modulated by the
//! scene's fluctuation model to reproduce the irregular workload peaks of
//! Fig. 3a.

use tangram_sim::rng::DetRng;
use tangram_types::geometry::{Rect, Size};

/// A ground-truth object visible in one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GtObject {
    /// Stable track id (unique within a scene run).
    pub track: u64,
    /// Bounding box in logical 4K frame coordinates.
    pub rect: Rect,
}

impl GtObject {
    /// Creates a ground-truth record.
    #[must_use]
    pub fn new(track: u64, rect: Rect) -> Self {
        Self { track, rect }
    }
}

/// A drifting attraction point that walkers congregate around.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCenter {
    pub x: f64,
    pub y: f64,
    vx: f64,
    vy: f64,
}

impl ClusterCenter {
    pub(crate) fn spawn(frame: Size, rng: &mut DetRng) -> Self {
        // Keep centres away from the extreme border so enclosing boxes stay
        // mostly inside the frame.
        let margin_x = f64::from(frame.width) * 0.12;
        let margin_y = f64::from(frame.height) * 0.12;
        Self {
            x: rng.uniform_in(margin_x, f64::from(frame.width) - margin_x),
            y: rng.uniform_in(margin_y, f64::from(frame.height) - margin_y),
            vx: rng.normal(0.0, 1.2),
            vy: rng.normal(0.0, 0.8),
        }
    }

    /// Slow random drift with reflection at the frame border.
    pub(crate) fn step(&mut self, frame: Size, rng: &mut DetRng) {
        self.vx = 0.96 * self.vx + rng.normal(0.0, 0.35);
        self.vy = 0.96 * self.vy + rng.normal(0.0, 0.25);
        self.x += self.vx;
        self.y += self.vy;
        let (w, h) = (f64::from(frame.width), f64::from(frame.height));
        if self.x < 0.05 * w || self.x > 0.95 * w {
            self.vx = -self.vx;
            self.x = self.x.clamp(0.05 * w, 0.95 * w);
        }
        if self.y < 0.05 * h || self.y > 0.95 * h {
            self.vy = -self.vy;
            self.y = self.y.clamp(0.05 * h, 0.95 * h);
        }
    }
}

/// Internal walker state (continuous coordinates; the public view is the
/// clamped [`GtObject`] box).
#[derive(Debug, Clone)]
pub(crate) struct Walker {
    pub track: u64,
    /// Centre position.
    pub x: f64,
    pub y: f64,
    vx: f64,
    vy: f64,
    /// Box width, fixed at spawn (perspective applied once at the spawn
    /// location so the population's mean area stays stationary).
    width: f64,
    /// Box height, fixed at spawn.
    height: f64,
    /// Cluster this walker is attracted to.
    pub cluster: usize,
    /// Remaining lifetime in frames.
    pub ttl: u32,
}

impl Walker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        track: u64,
        cluster: usize,
        centers: &[ClusterCenter],
        frame: Size,
        mean_width: f64,
        spread: f64,
        mean_ttl: f64,
        rng: &mut DetRng,
    ) -> Self {
        let c = &centers[cluster];
        let x = (c.x + rng.normal(0.0, spread)).clamp(0.0, f64::from(frame.width) - 1.0);
        let y = (c.y + rng.normal(0.0, spread * 0.7)).clamp(0.0, f64::from(frame.height) - 1.0);
        // Lognormal size mix reproduces the heavy-tailed RoI scatter of
        // Fig. 4a: many small distant objects, a few large near ones.
        // Perspective is applied once, at the spawn location: objects near
        // the bottom of a surveillance view are closer, hence larger
        // (0.6–1.4× across the vertical span). It is normalised by the
        // current mean cluster perspective so the population's expected
        // area stays stationary while the clusters wander in depth.
        let persp_of = |py: f64| 0.6 + 0.8 * (py / f64::from(frame.height));
        let mean_persp = centers.iter().map(|c| persp_of(c.y)).sum::<f64>() / centers.len() as f64;
        let perspective = persp_of(y) / mean_persp;
        let width = (mean_width * rng.lognormal(-0.06, 0.35) * perspective).max(8.0);
        let height = (width * rng.uniform_in(1.6, 2.2)).max(12.0);
        let ttl = rng.exponential(1.0 / mean_ttl.max(1.0)).ceil().max(3.0) as u32;
        Self {
            track,
            x,
            y,
            vx: rng.normal(0.0, 2.0),
            vy: rng.normal(0.0, 1.4),
            width,
            height,
            cluster,
            ttl,
        }
    }

    /// Applies a multiplicative size correction (run-time calibration).
    pub(crate) fn scale_width(&mut self, factor: f64) {
        self.width *= factor;
        self.height *= factor;
    }

    /// One frame of motion: cluster attraction + velocity noise.
    pub(crate) fn step(
        &mut self,
        centers: &[ClusterCenter],
        frame: Size,
        walk_speed: f64,
        rng: &mut DetRng,
    ) {
        let c = &centers[self.cluster];
        let (dx, dy) = (c.x - self.x, c.y - self.y);
        let dist = (dx * dx + dy * dy).sqrt().max(1.0);
        // Attraction grows with distance so walkers orbit their cluster.
        let pull = (dist / 1200.0).min(1.0) * walk_speed * 0.4;
        self.vx = 0.88 * self.vx + pull * dx / dist + rng.normal(0.0, walk_speed * 0.25);
        self.vy = 0.88 * self.vy + pull * dy / dist + rng.normal(0.0, walk_speed * 0.18);
        let speed = (self.vx * self.vx + self.vy * self.vy).sqrt();
        let max_speed = walk_speed * 2.5;
        if speed > max_speed {
            self.vx *= max_speed / speed;
            self.vy *= max_speed / speed;
        }
        self.x = (self.x + self.vx).clamp(0.0, f64::from(frame.width) - 1.0);
        self.y = (self.y + self.vy).clamp(0.0, f64::from(frame.height) - 1.0);
        self.ttl = self.ttl.saturating_sub(1);
    }

    /// The walker's box, clamped into the frame.
    pub(crate) fn bounding_box(&self, frame: Size) -> Rect {
        let w = self.width;
        let h = self.height;
        let x0 = (self.x - w / 2.0).max(0.0) as u32;
        let y0 = (self.y - h / 2.0).max(0.0) as u32;
        let x1 = ((self.x + w / 2.0) as u32).min(frame.width.saturating_sub(1));
        let y1 = ((self.y + h / 2.0) as u32).min(frame.height.saturating_sub(1));
        Rect::new(
            x0,
            y0,
            (x1.saturating_sub(x0)).max(1),
            (y1.saturating_sub(y0)).max(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(77)
    }

    #[test]
    fn cluster_centers_stay_in_frame() {
        let frame = Size::UHD_4K;
        let mut r = rng();
        let mut c = ClusterCenter::spawn(frame, &mut r);
        for _ in 0..500 {
            c.step(frame, &mut r);
            assert!(c.x >= 0.0 && c.x <= f64::from(frame.width));
            assert!(c.y >= 0.0 && c.y <= f64::from(frame.height));
        }
    }

    #[test]
    fn walker_box_inside_frame() {
        let frame = Size::UHD_4K;
        let mut r = rng();
        let centers = vec![ClusterCenter::spawn(frame, &mut r)];
        let mut w = Walker::spawn(1, 0, &centers, frame, 80.0, 300.0, 100.0, &mut r);
        for _ in 0..200 {
            w.step(&centers, frame, 10.0, &mut r);
            let b = w.bounding_box(frame);
            assert!(Rect::from_size(frame).contains_rect(&b), "box {b} outside");
            assert!(b.width >= 1 && b.height >= 1);
        }
    }

    #[test]
    fn perspective_scales_with_spawn_depth() {
        // Within one scene, objects spawned at a lower (closer) cluster are
        // larger on average than those at a higher (farther) cluster — the
        // Fig. 4a depth–size correlation. Perspective is normalised by the
        // mean cluster depth, so the comparison must happen inside a single
        // multi-cluster scene.
        let frame = Size::UHD_4K;
        let mut r = rng();
        let mut high = ClusterCenter::spawn(frame, &mut r);
        high.y = f64::from(frame.height) * 0.15;
        let mut low = ClusterCenter::spawn(frame, &mut r);
        low.y = f64::from(frame.height) * 0.85;
        let centers = vec![high, low];
        let mean_area = |cluster: usize, r: &mut DetRng| {
            (0..200)
                .map(|t| {
                    Walker::spawn(t, cluster, &centers, frame, 80.0, 1.0, 100.0, r)
                        .bounding_box(frame)
                        .area() as f64
                })
                .sum::<f64>()
                / 200.0
        };
        let top_area = mean_area(0, &mut r);
        let bottom_area = mean_area(1, &mut r);
        assert!(
            bottom_area > top_area * 1.5,
            "closer objects must be larger: top {top_area:.0} bottom {bottom_area:.0}"
        );
    }

    #[test]
    fn ttl_decrements() {
        let frame = Size::UHD_4K;
        let mut r = rng();
        let centers = vec![ClusterCenter::spawn(frame, &mut r)];
        let mut w = Walker::spawn(1, 0, &centers, frame, 80.0, 300.0, 5.0, &mut r);
        let initial = w.ttl;
        w.step(&centers, frame, 10.0, &mut r);
        assert_eq!(w.ttl, initial - 1);
    }

    #[test]
    fn boxes_are_person_shaped() {
        let frame = Size::UHD_4K;
        let mut r = rng();
        let centers = vec![ClusterCenter::spawn(frame, &mut r)];
        let mut taller = 0;
        for t in 0..50 {
            let w = Walker::spawn(t, 0, &centers, frame, 80.0, 200.0, 100.0, &mut r);
            let b = w.bounding_box(frame);
            if b.height > b.width {
                taller += 1;
            }
        }
        assert!(taller >= 45, "only {taller}/50 boxes taller than wide");
    }
}
