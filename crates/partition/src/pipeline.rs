//! The complete edge-side pipeline: extract RoIs → partition → stamp
//! patch metadata (generation time, size, SLO) → encode.
//!
//! This is the paper's `partition(Frame, X, Y, M, N)` edge API: everything
//! that happens on the camera/Jetson before patches enter the uplink.

use crate::algorithm::{partition_detailed, PartitionConfig, ZonePatch};
use tangram_types::geometry::Rect;
use tangram_types::ids::{CameraId, PatchId};
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::SimDuration;
use tangram_types::units::Bytes;
use tangram_video::codec::CodecModel;
use tangram_video::generator::FrameTruth;
use tangram_vision::extractor::RoiExtractor;

/// Static configuration of one edge pipeline.
#[derive(Debug, Clone)]
pub struct EdgePipelineConfig {
    /// Camera identity (stamped into every patch).
    pub camera: CameraId,
    /// Zone grid for Algorithm 1.
    pub partition: PartitionConfig,
    /// SLO attached to every patch of a frame (same for all patches of one
    /// frame, per §III-A).
    pub slo: SimDuration,
}

impl EdgePipelineConfig {
    /// Creates a configuration with the paper's defaults (4×4 zones).
    #[must_use]
    pub fn new(camera: CameraId, slo: SimDuration) -> Self {
        Self {
            camera,
            partition: PartitionConfig::default(),
            slo,
        }
    }
}

/// Everything the edge produced for one frame.
#[derive(Debug, Clone)]
pub struct FrameOutput {
    /// The patches, ready for upload.
    pub patches: Vec<Patch>,
    /// The raw RoIs the extractor produced (diagnostics/experiments).
    pub rois: Vec<Rect>,
    /// Zone provenance for each patch (same order as `patches`).
    pub zone_patches: Vec<ZonePatch>,
    /// Total encoded bytes of all patches.
    pub uploaded: Bytes,
}

/// The stateful edge pipeline for one camera.
pub struct EdgePipeline<E> {
    config: EdgePipelineConfig,
    extractor: E,
    next_patch: u64,
}

impl<E: RoiExtractor> EdgePipeline<E> {
    /// Wraps an extractor into a pipeline.
    #[must_use]
    pub fn new(config: EdgePipelineConfig, extractor: E) -> Self {
        Self {
            config,
            extractor,
            next_patch: 0,
        }
    }

    /// Processes one captured frame: extraction, partitioning, stamping.
    ///
    /// Patch ids are globally unique: the camera id occupies the high bits.
    pub fn process(&mut self, frame: &FrameTruth) -> FrameOutput {
        let rois = self.extractor.extract(frame);
        let zone_patches = partition_detailed(frame.frame_size, self.config.partition, &rois);
        let mut patches = Vec::with_capacity(zone_patches.len());
        let mut uploaded = Bytes::ZERO;
        for zp in &zone_patches {
            let id = PatchId::new((u64::from(self.config.camera.raw()) << 40) | self.next_patch);
            self.next_patch += 1;
            let info = PatchInfo::new(
                id,
                self.config.camera,
                frame.frame,
                zp.rect,
                frame.timestamp,
                self.config.slo,
            );
            let encoded = CodecModel.patch_bytes(zp.rect);
            uploaded += encoded;
            patches.push(Patch::new(info, encoded));
        }
        FrameOutput {
            patches,
            rois,
            zone_patches,
            uploaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_sim::rng::DetRng;
    use tangram_types::ids::SceneId;
    use tangram_video::generator::{SceneSimulation, VideoConfig};
    use tangram_vision::detector::DetectorProxy;
    use tangram_vision::extractor::ProxyExtractor;

    fn pipeline() -> EdgePipeline<ProxyExtractor> {
        let config = EdgePipelineConfig::new(CameraId::new(3), SimDuration::from_secs(1));
        let extractor = ProxyExtractor::new(DetectorProxy::ssdlite_mobilenet_v2(), DetRng::new(1));
        EdgePipeline::new(config, extractor)
    }

    fn a_frame() -> FrameTruth {
        let mut sim = SceneSimulation::new(SceneId::new(2), VideoConfig::default(), 11);
        sim.next_frame()
    }

    #[test]
    fn patches_carry_frame_metadata() {
        let mut p = pipeline();
        let frame = a_frame();
        let out = p.process(&frame);
        assert!(!out.patches.is_empty());
        for patch in &out.patches {
            assert_eq!(patch.info.camera, CameraId::new(3));
            assert_eq!(patch.info.frame, frame.frame);
            assert_eq!(patch.info.generated_at, frame.timestamp);
            assert_eq!(patch.info.slo, SimDuration::from_secs(1));
            assert!(patch.encoded_size.get() > 0);
        }
    }

    #[test]
    fn patch_ids_unique_and_camera_scoped() {
        let mut p = pipeline();
        let frame = a_frame();
        let out1 = p.process(&frame);
        let out2 = p.process(&frame);
        let mut ids: Vec<u64> = out1
            .patches
            .iter()
            .chain(out2.patches.iter())
            .map(|p| p.id().raw())
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate patch ids");
        for id in ids {
            assert_eq!(id >> 40, 3, "camera id must occupy the high bits");
        }
    }

    #[test]
    fn uploaded_matches_patch_sum() {
        let mut p = pipeline();
        let out = p.process(&a_frame());
        let sum: Bytes = out.patches.iter().map(|p| p.encoded_size).sum();
        assert_eq!(out.uploaded, sum);
    }

    #[test]
    fn zone_patches_align_with_patches() {
        let mut p = pipeline();
        let out = p.process(&a_frame());
        assert_eq!(out.patches.len(), out.zone_patches.len());
        for (patch, zp) in out.patches.iter().zip(&out.zone_patches) {
            assert_eq!(patch.info.rect, zp.rect);
        }
    }
}
