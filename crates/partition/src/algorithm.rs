//! The adaptive frame partitioning algorithm (Algorithm 1).

use tangram_types::geometry::{Rect, Size};

/// Zone-grid shape `X × Y` — the paper's partitioning knob (Table II /
/// Table III trade accuracy against bandwidth through this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionConfig {
    /// Number of zone columns (`X`).
    pub zones_x: u32,
    /// Number of zone rows (`Y`).
    pub zones_y: u32,
}

impl PartitionConfig {
    /// Creates a grid configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(zones_x: u32, zones_y: u32) -> Self {
        assert!(zones_x > 0 && zones_y > 0, "zone grid must be non-empty");
        Self { zones_x, zones_y }
    }

    /// The rectangle of zone `(ix, iy)` for a `frame`-sized image. Zones
    /// tile the frame exactly; the last row/column absorbs the remainder
    /// when the frame size is not divisible by the grid.
    #[must_use]
    pub fn zone_rect(&self, frame: Size, ix: u32, iy: u32) -> Rect {
        debug_assert!(ix < self.zones_x && iy < self.zones_y);
        let zw = frame.width / self.zones_x;
        let zh = frame.height / self.zones_y;
        let x = ix * zw;
        let y = iy * zh;
        let w = if ix + 1 == self.zones_x {
            frame.width - x
        } else {
            zw
        };
        let h = if iy + 1 == self.zones_y {
            frame.height - y
        } else {
            zh
        };
        Rect::new(x, y, w, h)
    }

    /// Iterates over all zone rectangles in row-major order.
    pub fn zones(&self, frame: Size) -> impl Iterator<Item = Rect> + '_ {
        let (nx, ny) = (self.zones_x, self.zones_y);
        (0..ny).flat_map(move |iy| (0..nx).map(move |ix| self.zone_rect(frame, ix, iy)))
    }
}

impl Default for PartitionConfig {
    /// The paper's default evaluation setting, 4 × 4.
    fn default() -> Self {
        Self::new(4, 4)
    }
}

/// A patch cut from one zone, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonePatch {
    /// Row-major zone index the patch came from.
    pub zone: u32,
    /// The patch rectangle: the minimum enclosing rectangle of the zone's
    /// affiliated RoIs (may extend beyond the zone when RoIs straddle the
    /// boundary).
    pub rect: Rect,
}

/// Runs Algorithm 1 and returns only the patch rectangles.
///
/// Zero-area RoIs are ignored. See [`partition_detailed`] for provenance.
#[must_use]
pub fn partition(frame: Size, config: PartitionConfig, rois: &[Rect]) -> Vec<Rect> {
    partition_detailed(frame, config, rois)
        .into_iter()
        .map(|p| p.rect)
        .collect()
}

/// Runs Algorithm 1, keeping per-patch provenance.
///
/// Steps (paper numbering):
/// 1. divide the frame into `X × Y` equal zones;
/// 2. affiliate each RoI `b` with the zone `r* = argmax_r S_{b,r}`
///    (largest overlap area; ties resolve to the lowest zone index, which
///    makes the algorithm deterministic);
/// 3. resize each non-empty zone to the minimum enclosing rectangle of its
///    RoI list;
/// 4. cut each resized zone as a patch.
///
/// The patches are the one allocation: a slot per zone, grown RoI by RoI
/// and emptied slots dropped at the end. Only the zones an RoI's span
/// touches can overlap it, so only those are scanned, in row-major order.
#[must_use]
pub fn partition_detailed(frame: Size, config: PartitionConfig, rois: &[Rect]) -> Vec<ZonePatch> {
    let (nx, ny) = (config.zones_x, config.zones_y);
    let mut patches: Vec<ZonePatch> = (0..nx * ny)
        .map(|zone| ZonePatch {
            zone,
            rect: Rect::default(),
        })
        .collect();
    for roi in rois {
        if roi.is_empty() {
            continue;
        }
        let (ix0, ix1) = zone_span(roi.x, roi.right(), frame.width / nx, nx);
        let (iy0, iy1) = zone_span(roi.y, roi.bottom(), frame.height / ny, ny);
        let mut best_zone = None;
        let mut best_overlap = 0u64;
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let overlap = roi.overlap_area(&config.zone_rect(frame, ix, iy));
                if overlap > best_overlap {
                    best_overlap = overlap;
                    best_zone = Some(iy * nx + ix);
                }
            }
        }
        if let Some(z) = best_zone {
            let slot = &mut patches[z as usize].rect;
            *slot = slot.union(roi);
        }
    }
    patches.retain(|p| !p.rect.is_empty());
    patches
}

/// The first and last of `zones` zone indices along one axis that the
/// non-empty span `start..end` touches, for zones `size` wide whose last
/// one takes the remainder (as [`PartitionConfig::zone_rect`] cuts them;
/// with `size == 0` every zone but the last is empty).
fn zone_span(start: u32, end: u32, size: u32, zones: u32) -> (u32, u32) {
    let index = |at: u32| match at.checked_div(size) {
        Some(i) => i.min(zones - 1),
        None => zones - 1,
    };
    (index(start), index(end - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_sim::rng::DetRng;

    const FRAME: Size = Size::UHD_4K;

    /// Algorithm 1 as first written: every RoI scans all `X × Y` zones,
    /// each zone keeps its list of RoIs, and a patch encloses its list.
    fn partition_by_full_scan(
        frame: Size,
        config: PartitionConfig,
        rois: &[Rect],
    ) -> Vec<ZonePatch> {
        let zone_rects: Vec<Rect> = config.zones(frame).collect();
        let mut lists: Vec<Vec<&Rect>> = vec![Vec::new(); zone_rects.len()];
        for roi in rois.iter().filter(|r| !r.is_empty()) {
            let mut best_zone = None;
            let mut best_overlap = 0u64;
            for (z, zr) in zone_rects.iter().enumerate() {
                let overlap = roi.overlap_area(zr);
                if overlap > best_overlap {
                    best_overlap = overlap;
                    best_zone = Some(z);
                }
            }
            if let Some(z) = best_zone {
                lists[z].push(roi);
            }
        }
        let patches = lists.into_iter().enumerate().filter_map(|(z, list)| {
            let rect = Rect::enclosing(list)?;
            Some(ZonePatch {
                zone: z as u32,
                rect,
            })
        });
        patches.collect()
    }

    #[test]
    fn scanning_the_spanned_zones_equals_the_full_scan() {
        let mut rng = DetRng::new(2024);
        let (mut narrow, mut patches) = (0, 0);
        for case in 0..3_000 {
            let config = PartitionConfig::new(1 + rng.index(7) as u32, 1 + rng.index(7) as u32);
            // Frames down to 1x1, so some grids are wider or taller than
            // the frame and all their zones but the last are empty.
            let frame = Size::new(1 + rng.index(160) as u32, 1 + rng.index(90) as u32);
            narrow += usize::from(frame.width < config.zones_x || frame.height < config.zones_y);
            // RoIs inside the frame, straddling its far edges, past them,
            // and empty.
            let rois: Vec<Rect> = (0..rng.index(12))
                .map(|_| {
                    let x = rng.index(frame.width as usize + 20) as u32;
                    let y = rng.index(frame.height as usize + 20) as u32;
                    Rect::new(x, y, rng.index(60) as u32, rng.index(40) as u32)
                })
                .collect();
            let expected = partition_by_full_scan(frame, config, &rois);
            patches += expected.len();
            assert_eq!(
                partition_detailed(frame, config, &rois),
                expected,
                "case {case}: {config:?} on {frame}, {rois:?}"
            );
        }
        assert!(
            narrow > 100 && patches > 5_000,
            "{narrow} narrow grids, {patches} patches"
        );
    }

    #[test]
    fn zone_rects_tile_the_frame() {
        for config in [
            PartitionConfig::new(2, 2),
            PartitionConfig::new(4, 4),
            PartitionConfig::new(6, 6),
            PartitionConfig::new(3, 5),
        ] {
            let total: u64 = config.zones(FRAME).map(|z| z.area()).sum();
            assert_eq!(total, FRAME.area(), "zones must tile {config:?}");
            // 6 does not divide 2160*? 2160/6=360 ✓; use a non-divisible case:
        }
        // Non-divisible case: 3840/7 leaves a remainder for the last column.
        let c = PartitionConfig::new(7, 3);
        let total: u64 = c.zones(FRAME).map(|z| z.area()).sum();
        assert_eq!(total, FRAME.area());
    }

    #[test]
    fn roi_goes_to_max_overlap_zone() {
        // RoI mostly inside the top-left zone of a 2x2 grid, spilling a bit
        // into the top-right.
        let config = PartitionConfig::new(2, 2);
        // Spans 1700..2000 across the 1920 split: 220 px in zone 0, 80 px in
        // zone 1 — the majority overlap wins.
        let roi = Rect::new(1700, 100, 300, 200);
        let detailed = partition_detailed(FRAME, config, &[roi]);
        assert_eq!(detailed.len(), 1);
        assert_eq!(detailed[0].zone, 0, "majority of the RoI is in zone 0");
        assert_eq!(detailed[0].rect, roi);
    }

    #[test]
    fn patch_is_minimum_enclosing_rectangle() {
        let config = PartitionConfig::new(2, 2);
        let rois = [
            Rect::new(100, 100, 50, 50),
            Rect::new(700, 400, 80, 60),
            Rect::new(300, 900, 40, 120),
        ];
        let detailed = partition_detailed(FRAME, config, &rois);
        assert_eq!(detailed.len(), 1);
        let expected = Rect::enclosing(rois.iter()).unwrap();
        assert_eq!(detailed[0].rect, expected);
    }

    #[test]
    fn every_roi_fully_inside_its_patch() {
        let config = PartitionConfig::new(4, 4);
        let rois = [
            Rect::new(940, 530, 100, 80), // straddles the zone boundary at 960
            Rect::new(2000, 1500, 60, 90),
            Rect::new(3700, 2000, 120, 150),
        ];
        let patches = partition(FRAME, config, &rois);
        for roi in &rois {
            assert!(
                patches.iter().any(|p| p.contains_rect(roi)),
                "RoI {roi} not covered"
            );
        }
    }

    #[test]
    fn patch_count_bounded_by_zone_count() {
        let config = PartitionConfig::new(2, 2);
        // Many RoIs spread everywhere.
        let rois: Vec<Rect> = (0..50)
            .map(|i| Rect::new((i * 73) % 3700, (i * 131) % 2000, 60, 90))
            .collect();
        let patches = partition(FRAME, config, &rois);
        assert!(patches.len() <= 4);
        assert!(!patches.is_empty());
    }

    #[test]
    fn empty_inputs() {
        assert!(partition(FRAME, PartitionConfig::default(), &[]).is_empty());
        // Zero-area RoIs are skipped.
        let degenerate = [Rect::new(10, 10, 0, 5)];
        assert!(partition(FRAME, PartitionConfig::default(), &degenerate).is_empty());
    }

    #[test]
    fn finer_grids_produce_tighter_coverage() {
        // The Table II driver: coarser grids enclose more background.
        let rois: Vec<Rect> = (0..24)
            .map(|i| Rect::new(200 + (i % 6) * 600, 200 + (i / 6) * 450, 80, 120))
            .collect();
        let area = |cfg: PartitionConfig| -> u64 {
            partition(FRAME, cfg, &rois).iter().map(Rect::area).sum()
        };
        let coarse = area(PartitionConfig::new(2, 2));
        let medium = area(PartitionConfig::new(4, 4));
        let fine = area(PartitionConfig::new(6, 6));
        assert!(coarse >= medium, "2x2 {coarse} < 4x4 {medium}");
        assert!(medium >= fine, "4x4 {medium} < 6x6 {fine}");
    }

    #[test]
    fn tie_breaks_to_lowest_zone_index() {
        // An RoI exactly centred on the 2x2 crossing overlaps all four
        // zones equally; it must deterministically go to zone 0.
        let config = PartitionConfig::new(2, 2);
        let roi = Rect::new(1920 - 50, 1080 - 50, 100, 100);
        let detailed = partition_detailed(FRAME, config, &[roi]);
        assert_eq!(detailed.len(), 1);
        assert_eq!(detailed[0].zone, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_zone_grid_rejected() {
        let _ = PartitionConfig::new(0, 3);
    }

    #[test]
    fn default_is_paper_setting() {
        let d = PartitionConfig::default();
        assert_eq!((d.zones_x, d.zones_y), (4, 4));
    }
}
