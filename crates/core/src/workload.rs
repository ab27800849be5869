//! Per-camera workload traces.
//!
//! A trace captures what the edge uploads for each frame — its patches,
//! with crop byte sizes — *before* any timing: the engine re-stamps
//! generation times and SLOs at replay. The rival uploads (ELF's raw
//! crops, Full and Masked Frame) are priced from the patches and the
//! scene's frame size, through [`CodecModel`], by the code that compares
//! them. Building the trace once and replaying it across policies keeps
//! the comparison controlled, exactly like running every system over the
//! same PANDA clip.

use tangram_partition::algorithm::PartitionConfig;
use tangram_partition::pipeline::{EdgePipeline, EdgePipelineConfig};
use tangram_sim::rng::DetRng;
use tangram_types::ids::{CameraId, FrameId, SceneId};
use tangram_types::patch::Patch;
use tangram_types::time::SimDuration;
use tangram_video::codec::CodecModel;
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_vision::detector::DetectorProxy;
use tangram_vision::extractor::{GmmExtractor, ProxyExtractor, RoiExtractor};

/// One frame's worth of edge output.
#[derive(Debug)]
pub struct TraceFrame {
    /// Frame index.
    pub frame: FrameId,
    /// Patches with crop-encoded sizes (Tangram / Clipper / MArk).
    pub patches: Vec<Patch>,
    /// Number of raw RoIs the extractor found (diagnostics).
    pub roi_count: usize,
}

impl Clone for TraceFrame {
    fn clone(&self) -> Self {
        Self {
            frame: self.frame,
            patches: self.patches.clone(),
            roi_count: self.roi_count,
        }
    }

    /// Copies `source` into the patch list `self` already holds,
    /// allocating only when it must grow. The pattern names every field,
    /// so a new one cannot be skipped.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            frame,
            patches,
            roi_count,
        } = source;
        self.frame = *frame;
        self.patches.clone_from(patches);
        self.roi_count = *roi_count;
    }
}

/// The workload of one camera.
#[derive(Debug, Clone)]
pub struct CameraTrace {
    /// Camera identity.
    pub camera: CameraId,
    /// Scene the camera observes.
    pub scene: SceneId,
    /// Frames in capture order.
    pub frames: Vec<TraceFrame>,
}

impl CameraTrace {
    /// Total patches across the trace.
    #[must_use]
    pub fn patch_count(&self) -> usize {
        self.frames.iter().map(|f| f.patches.len()).sum()
    }
}

/// Which RoI extractor builds the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractorKind {
    /// Full pixel pipeline: render rasters, run the Stauffer–Grimson GMM.
    /// Matches the paper's prototype; slower to build.
    Gmm {
        /// Raster scale relative to 4K (the prototype downsamples too).
        raster_scale_milli: u32,
    },
    /// Ground-truth-driven stochastic proxy (SSDLite-calibrated): fast,
    /// no rasters; used where pixel fidelity is not under test.
    Proxy,
}

/// Configuration for building one camera's trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Scene to simulate.
    pub scene: SceneId,
    /// Camera id stamped on the trace.
    pub camera: CameraId,
    /// Number of evaluation frames.
    pub frames: usize,
    /// Warm-up frames fed to the extractor before recording starts (the
    /// paper trains on each scene's first frames and evaluates on the
    /// rest).
    pub warmup_frames: usize,
    /// Extractor choice.
    pub extractor: ExtractorKind,
    /// Zone grid for Algorithm 1.
    pub partition: PartitionConfig,
    /// Byte-cost model the edge encodes with (field-less: there is one
    /// calibration).
    pub codec: CodecModel,
    /// Experiment seed.
    pub seed: u64,
}

impl TraceConfig {
    /// Fast proxy-extractor trace (no rasters).
    #[must_use]
    pub fn proxy_extractor(scene: SceneId, frames: usize, seed: u64) -> Self {
        Self {
            scene,
            camera: CameraId::new(u32::from(scene.index())),
            frames,
            warmup_frames: 0,
            extractor: ExtractorKind::Proxy,
            partition: PartitionConfig::default(),
            codec: CodecModel,
            seed,
        }
    }

    /// Full GMM pipeline trace (renders rasters at 1/4 scale).
    #[must_use]
    pub fn gmm_extractor(scene: SceneId, frames: usize, seed: u64) -> Self {
        Self {
            scene,
            camera: CameraId::new(u32::from(scene.index())),
            frames,
            warmup_frames: 30,
            extractor: ExtractorKind::Gmm {
                raster_scale_milli: 250,
            },
            partition: PartitionConfig::default(),
            codec: CodecModel,
            seed,
        }
    }

    /// Builds the trace.
    #[must_use]
    pub fn build(&self) -> CameraTrace {
        let render = matches!(self.extractor, ExtractorKind::Gmm { .. });
        let raster_scale = match self.extractor {
            ExtractorKind::Gmm { raster_scale_milli } => f64::from(raster_scale_milli) / 1000.0,
            ExtractorKind::Proxy => 0.25,
        };
        let video = VideoConfig {
            render,
            raster_scale,
            ..VideoConfig::default()
        };
        let mut sim = SceneSimulation::new(self.scene, video, self.seed);
        let extractor: Box<dyn RoiExtractor> = match self.extractor {
            ExtractorKind::Gmm { .. } => Box::new(GmmExtractor::default()),
            ExtractorKind::Proxy => Box::new(ProxyExtractor::new(
                DetectorProxy::ssdlite_mobilenet_v2(),
                DetRng::new(self.seed).fork_indexed("edge-proxy", u64::from(self.camera.raw())),
            )),
        };
        let pipeline_config = EdgePipelineConfig {
            camera: self.camera,
            partition: self.partition,
            // Placeholder SLO; the engine re-stamps at replay.
            slo: SimDuration::from_secs(1),
        };
        let mut pipeline = EdgePipeline::new(pipeline_config, extractor);
        for _ in 0..self.warmup_frames {
            let frame = sim.next_frame();
            let _ = pipeline.process(&frame);
        }
        let mut frames = Vec::with_capacity(self.frames);
        for i in 0..self.frames {
            let frame = sim.next_frame();
            let out = pipeline.process(&frame);
            frames.push(TraceFrame {
                frame: FrameId::new(i as u64),
                roi_count: out.rois.len(),
                patches: out.patches,
            });
        }
        CameraTrace {
            camera: self.camera,
            scene: self.scene,
            frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_trace_has_patches() {
        let trace = TraceConfig::proxy_extractor(SceneId::new(2), 10, 3).build();
        assert_eq!(trace.frames.len(), 10);
        assert!(trace.patch_count() > 10, "several patches per frame");
        for f in &trace.frames {
            // Each RoI joins one zone, and each zone with an RoI is a patch.
            assert!(f.patches.len() <= f.roi_count, "frame {}", f.frame);
        }
    }

    #[test]
    fn elf_bytes_exceed_crop_bytes() {
        let trace = TraceConfig::proxy_extractor(SceneId::new(1), 5, 3).build();
        for f in &trace.frames {
            let crop: u64 = f.patches.iter().map(|p| p.encoded_size.get()).sum();
            let rects = f.patches.iter().map(|p| p.info.rect);
            let elf: u64 = rects.map(|r| CodecModel.elf_patch_bytes(r).get()).sum();
            assert!(elf > crop, "raw crops must outweigh compressed crops");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TraceConfig::proxy_extractor(SceneId::new(3), 6, 11).build();
        let b = TraceConfig::proxy_extractor(SceneId::new(3), 6, 11).build();
        assert_eq!(a.patch_count(), b.patch_count());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.patches, fb.patches);
        }
    }

    #[test]
    fn partition_knob_changes_patches() {
        let with_grid = |partition| TraceConfig {
            partition,
            ..TraceConfig::proxy_extractor(SceneId::new(2), 8, 5)
        };
        let coarse = with_grid(PartitionConfig::new(2, 2)).build();
        let fine = with_grid(PartitionConfig::new(6, 6)).build();
        assert!(fine.patch_count() >= coarse.patch_count());
        let coarse_bytes: u64 = coarse
            .frames
            .iter()
            .flat_map(|f| f.patches.iter().map(|p| p.encoded_size.get()))
            .sum();
        let fine_bytes: u64 = fine
            .frames
            .iter()
            .flat_map(|f| f.patches.iter().map(|p| p.encoded_size.get()))
            .sum();
        assert!(
            fine_bytes < coarse_bytes,
            "finer zones must upload fewer bytes (Table II)"
        );
    }
}
