//! The patch data model: what the edge uploads to the cloud scheduler.
//!
//! Per §III of the paper, the edge transmits each patch together with its
//! *generation time*, *size*, and *SLO*; the scheduler derives the deadline
//! `t_ddl = generation time + SLO` and uses the patch dimensions for
//! stitching. The pixel payload itself never influences scheduling, so this
//! crate carries only its encoded size; rasters travel separately in the
//! accuracy pipeline.

use crate::geometry::{Rect, Size};
use crate::ids::{CameraId, FrameId, PatchId};
use crate::time::{SimDuration, SimTime};
use crate::units::Bytes;
use std::fmt;

/// Metadata describing one patch (the `P_i = {w_i, h_i, t_ddl_i}` record of
/// Algorithm 2, extended with provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatchInfo {
    /// Unique patch id.
    pub id: PatchId,
    /// Camera that produced the source frame.
    pub camera: CameraId,
    /// Source frame within that camera's stream.
    pub frame: FrameId,
    /// Position of the patch inside the source frame (logical 4K coords).
    pub rect: Rect,
    /// Moment the source frame was captured; the SLO countdown starts here.
    pub generated_at: SimTime,
    /// End-to-end latency budget for this patch.
    pub slo: SimDuration,
}

impl PatchInfo {
    /// Creates patch metadata.
    #[must_use]
    pub fn new(
        id: PatchId,
        camera: CameraId,
        frame: FrameId,
        rect: Rect,
        generated_at: SimTime,
        slo: SimDuration,
    ) -> Self {
        Self {
            id,
            camera,
            frame,
            rect,
            generated_at,
            slo,
        }
    }

    /// Width × height of the patch.
    #[must_use]
    pub fn size(&self) -> Size {
        self.rect.size()
    }

    /// The absolute deadline `t_ddl = generated_at + SLO`.
    ///
    /// ```
    /// # use tangram_types::{geometry::Rect, patch::PatchInfo};
    /// # use tangram_types::ids::{CameraId, FrameId, PatchId};
    /// # use tangram_types::time::{SimDuration, SimTime};
    /// let p = PatchInfo::new(
    ///     PatchId::new(0), CameraId::new(0), FrameId::new(0),
    ///     Rect::new(0, 0, 64, 64),
    ///     SimTime::from_micros(1_000_000),
    ///     SimDuration::from_secs(1),
    /// );
    /// assert_eq!(p.deadline(), SimTime::from_micros(2_000_000));
    /// ```
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.generated_at + self.slo
    }

    /// Remaining budget before the deadline; zero if already violated.
    #[must_use]
    pub fn remaining_budget(&self, now: SimTime) -> SimDuration {
        self.deadline().since(now)
    }
}

impl fmt::Display for PatchInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}@{} rect={} slo={}",
            self.id, self.camera, self.frame, self.rect, self.slo
        )
    }
}

/// A patch as transmitted over the uplink: metadata plus the encoded
/// payload size (the raster content is modelled, not carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Patch {
    /// Scheduling metadata.
    pub info: PatchInfo,
    /// Encoded (compressed) size on the wire.
    pub encoded_size: Bytes,
}

impl Patch {
    /// Pairs metadata with an encoded payload size.
    #[must_use]
    pub fn new(info: PatchInfo, encoded_size: Bytes) -> Self {
        Self { info, encoded_size }
    }

    /// Shorthand for the patch id.
    #[must_use]
    pub fn id(&self) -> PatchId {
        self.info.id
    }

    /// Shorthand for the patch extent.
    #[must_use]
    pub fn size(&self) -> Size {
        self.info.size()
    }

    /// Raw pixel area of the patch.
    #[must_use]
    pub fn area(&self) -> u64 {
        self.info.rect.area()
    }
}

impl fmt::Display for Patch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.info, self.encoded_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patch_at(gen_us: u64, slo_ms: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(7),
            CameraId::new(1),
            FrameId::new(3),
            Rect::new(10, 20, 100, 50),
            SimTime::from_micros(gen_us),
            SimDuration::from_millis(slo_ms),
        )
    }

    #[test]
    fn deadline_is_generation_plus_slo() {
        let p = patch_at(500_000, 1000);
        assert_eq!(p.deadline(), SimTime::from_micros(1_500_000));
    }

    #[test]
    fn budget_counts_down_to_the_deadline() {
        let p = patch_at(0, 1000);
        let now = SimTime::from_micros(400_000);
        assert_eq!(p.remaining_budget(now), SimDuration::from_millis(600));
    }

    #[test]
    fn budget_saturates_after_deadline() {
        let p = patch_at(0, 100);
        let late = SimTime::from_micros(500_000);
        assert_eq!(p.remaining_budget(late), SimDuration::ZERO);
    }

    #[test]
    fn patch_accessors() {
        let p = Patch::new(patch_at(0, 1000), Bytes::from_kib(12));
        assert_eq!(p.id(), PatchId::new(7));
        assert_eq!(p.size(), Size::new(100, 50));
        assert_eq!(p.area(), 5000);
        assert_eq!(p.encoded_size, Bytes::from_kib(12));
    }
}
