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
    /// Indices (into the input slice) of the RoIs affiliated to this zone.
    pub roi_indices: Vec<usize>,
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
#[must_use]
pub fn partition_detailed(frame: Size, config: PartitionConfig, rois: &[Rect]) -> Vec<ZonePatch> {
    let zone_rects: Vec<Rect> = config.zones(frame).collect();
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); zone_rects.len()];

    for (i, roi) in rois.iter().enumerate() {
        if roi.is_empty() {
            continue;
        }
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
            lists[z].push(i);
        }
    }

    lists
        .into_iter()
        .enumerate()
        .filter(|(_, list)| !list.is_empty())
        .map(|(z, list)| {
            let rect = Rect::enclosing(list.iter().map(|&i| &rois[i]))
                .expect("non-empty list has an enclosing rect");
            ZonePatch {
                zone: z as u32,
                rect,
                roi_indices: list,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: Size = Size::UHD_4K;

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
        assert_eq!(detailed[0].roi_indices, vec![0, 1, 2]);
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
