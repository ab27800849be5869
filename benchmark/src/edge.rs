//! The `edge-gmm` workload: the paper's edge half at full fidelity.
//!
//! One repetition builds the GMM-extractor trace of scenes 1 and 2 with
//! [`TraceConfig::build`] (30 warm-up frames for the background model,
//! then 10 evaluated frames, on 960×540 rasters) — scene rendering →
//! Stauffer–Grimson GMM → closing/opening → connected components → RoI
//! merge → Algorithm 1 → crop sizing. That is the timed region. Outside
//! it, the two traces are replayed once through the engine (Tangram,
//! 40 Mbps, 1 s SLO — what `fig12_e2e` does with each trace it builds),
//! so the simulated metrics say what the edge's output costs downstream.
//!
//! The staged pass makes the same calls one layer at a time, a span per
//! call, and checks that they produce the trace's rectangles exactly.

use crate::alloc;
use crate::metrics::{ratio, Ledger};
use crate::spans::{Phase, Spans};
use crate::workload::{close_ledger, fnv1a, Outcome, Scale, Workload, FNV_OFFSET};
use std::hint::black_box;
use tangram_core::engine::EngineConfig;
use tangram_core::workload::{CameraTrace, ExtractorKind, TraceConfig};
use tangram_partition::algorithm::partition_detailed;
use tangram_types::geometry::Rect;
use tangram_types::ids::SceneId;
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_vision::cc::connected_components;
use tangram_vision::extractor::{merge_overlapping, GmmExtractor};
use tangram_vision::gmm::{GaussianMixtureModel, GmmParams};

/// The scenes one repetition builds.
const SCENES: [u8; 2] = [1, 2];
/// Evaluated frames per scene at the declared size.
const EVAL_FRAMES: usize = 10;
/// Background-model warm-up frames per scene at the declared size.
const WARMUP_FRAMES: usize = 30;
/// The staged pass samples the host-speed probe this often.
const PROBE_EVERY_FRAMES: usize = 8;

/// The `edge-gmm` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeGmm {
    scale: Scale,
}

impl EdgeGmm {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Self { scale }
    }
}

/// The generated inputs: one trace configuration per scene and the
/// replay's engine configuration.
pub struct EdgeInputs {
    configs: Vec<TraceConfig>,
    engine: EngineConfig,
}

/// The full output of one repetition.
pub struct EdgeDetail {
    traces: Vec<CameraTrace>,
    phases: Vec<Phase>,
}

fn video_config(config: &TraceConfig) -> VideoConfig {
    let ExtractorKind::Gmm { raster_scale_milli } = config.extractor else {
        unreachable!("edge-gmm builds GMM traces only");
    };
    VideoConfig {
        render: true,
        raster_scale: f64::from(raster_scale_milli) / 1000.0,
        ..VideoConfig::default()
    }
}

impl Workload for EdgeGmm {
    type Inputs = EdgeInputs;
    type Detail = EdgeDetail;

    fn name(&self) -> &'static str {
        "edge-gmm"
    }

    /// Resolves the per-scene configurations and validates the camera
    /// feed the seed generates: every scene renders a quarter-scale
    /// raster of its logical frame.
    fn setup(&self, seed: u64) -> EdgeInputs {
        let configs: Vec<TraceConfig> = SCENES
            .iter()
            .map(|&scene| TraceConfig {
                warmup_frames: self.scale.of(WARMUP_FRAMES, 3),
                ..TraceConfig::gmm_extractor(
                    SceneId::new(scene),
                    self.scale.of(EVAL_FRAMES, 2),
                    seed,
                )
            })
            .collect();
        for config in &configs {
            let video = video_config(config);
            let frame = SceneSimulation::new(config.scene, video.clone(), seed).next_frame();
            let raster = frame.raster.as_ref().expect("rendering is on");
            assert_eq!(
                raster.size(),
                frame.frame_size.scaled(video.raster_scale),
                "scene {} renders an unexpected raster",
                config.scene
            );
        }
        EdgeInputs {
            configs,
            engine: EngineConfig {
                seed,
                ..EngineConfig::default()
            },
        }
    }

    fn run(&self, inputs: &EdgeInputs, _workers: usize) -> EdgeDetail {
        let mut phases = Vec::new();
        let traces = Phase::run(&mut phases, "core.workload", || {
            inputs.configs.iter().map(TraceConfig::build).collect()
        });
        EdgeDetail { traces, phases }
    }

    fn outcome(&self, inputs: &EdgeInputs, detail: &EdgeDetail) -> Outcome {
        let mut digest = FNV_OFFSET;
        let patches = detail
            .traces
            .iter()
            .flat_map(|t| &t.frames)
            .flat_map(|f| &f.patches);
        for patch in patches {
            let r = patch.info.rect;
            for word in [r.x, r.y, r.width, r.height, patch.encoded_size.get() as u32] {
                digest = fnv1a(digest, &word.to_le_bytes());
            }
        }
        Outcome {
            operations: inputs
                .configs
                .iter()
                .map(|c| (c.warmup_frames + c.frames) as u64)
                .sum(),
            summaries: vec![inputs.engine.run(&detail.traces).summarize()],
            digest,
        }
    }

    fn check(
        &self,
        inputs: &EdgeInputs,
        outcome: &Outcome,
        detail: &EdgeDetail,
    ) -> Result<(), String> {
        let mut produced = 0;
        for (config, trace) in inputs.configs.iter().zip(&detail.traces) {
            if trace.frames.len() != config.frames {
                return Err(format!(
                    "scene {}: {} frames built, {} configured",
                    config.scene,
                    trace.frames.len(),
                    config.frames
                ));
            }
            let bounds =
                Rect::from_size(tangram_video::scene::SceneProfile::panda(config.scene).frame_size);
            for patch in trace.frames.iter().flat_map(|f| &f.patches) {
                produced += 1;
                if patch.info.rect.is_empty()
                    || !bounds.contains_rect(&patch.info.rect)
                    || patch.encoded_size.get() == 0
                {
                    return Err(format!(
                        "scene {}: malformed patch {}",
                        config.scene, patch.info
                    ));
                }
            }
        }
        let summary = &outcome.summaries[0];
        let frames: usize = inputs.configs.iter().map(|c| c.frames).sum();
        if produced == 0 || summary.frames != frames as u64 {
            return Err(format!(
                "{produced} patches produced, {} of {frames} frames replayed",
                summary.frames
            ));
        }
        if summary.patches < produced || summary.dropped_arrivals != 0 {
            return Err(format!(
                "replay completed {} of {produced} patches, dropped {}",
                summary.patches, summary.dropped_arrivals
            ));
        }
        Ok(())
    }

    fn staged(&self, seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> Result<(), String> {
        let inputs = self.setup(seed);
        drop(self.run(&inputs, 1));
        spans.probe();
        let reference = spans.open("reference", None);
        drop(self.run(&inputs, 1));
        spans.close(reference);
        spans.probe();
        let root = spans.open("end_to_end", None);
        let detail = self.run(&inputs, 1);
        spans.close(root);
        spans.probe();
        let outcome = self.outcome(&inputs, &detail);
        self.check(&inputs, &outcome, &detail)?;
        let mut build_span = root;
        for phase in &detail.phases {
            let id = spans.adopt(phase, Some(root));
            if phase.name == "core.workload" {
                build_span = id;
            }
        }
        let parent = Some(build_span);

        // The edge pipeline, one layer per span. The constants mirror
        // `GmmExtractor::extract`, whose steps this makes one by one.
        let defaults = GmmExtractor::default();
        let mut pixels = 0u64;
        let mut components = 0u64;
        let mut roi_count = 0u64;
        let mut roi_area = 0u64;
        let mut patch_count = 0u64;
        let mut patch_area = 0u64;
        let mut bytes = 0u64;
        for (config, trace) in inputs.configs.iter().zip(&detail.traces) {
            let mut sim = SceneSimulation::new(config.scene, video_config(config), config.seed);
            let mut model: Option<GaussianMixtureModel> = None;
            for index in 0..config.warmup_frames + config.frames {
                if index % PROBE_EVERY_FRAMES == 0 {
                    spans.probe();
                }
                let frame = spans.record("video.scene", parent, || sim.next_frame());
                let raster = frame.raster.as_ref().expect("rendering is on");
                pixels += raster.size().area();
                let mask = spans.record("vision.gmm", parent, || {
                    model
                        .get_or_insert_with(|| {
                            GaussianMixtureModel::new(
                                raster.width(),
                                raster.height(),
                                GmmParams::default(),
                            )
                        })
                        .apply(raster)
                });
                let cleaned = spans.record("vision.mask", parent, || mask.closed().opened());
                let min_pixels =
                    (defaults.min_component_fraction * raster.size().area() as f64).ceil() as u32;
                let found = spans.record("vision.cc", parent, || {
                    connected_components(&cleaned, min_pixels.max(2))
                });
                components += found.len() as u64;
                let scale_up = 1.0 / raster.scale();
                let bounds = Rect::from_size(frame.frame_size);
                let rois = spans.record("vision.extractor", parent, || {
                    let boxes: Vec<Rect> = found
                        .into_iter()
                        .map(|c| c.rect.scaled(scale_up).inflated(defaults.margin, &bounds))
                        .collect();
                    merge_overlapping(boxes, 8)
                });
                let zone_patches = spans.record("partition.algorithm", parent, || {
                    partition_detailed(frame.frame_size, config.partition, &rois)
                });
                let encoded: Vec<u64> = spans.record("video.codec", parent, || {
                    zone_patches
                        .iter()
                        .map(|zp| config.codec.patch_bytes(zp.rect).get())
                        .collect()
                });
                roi_count += rois.len() as u64;
                roi_area += rois.iter().map(Rect::area).sum::<u64>();
                patch_count += zone_patches.len() as u64;
                patch_area += zone_patches.iter().map(|zp| zp.rect.area()).sum::<u64>();
                bytes += encoded.iter().sum::<u64>();

                // Every RoI lies inside the patch of the zone it joined.
                for roi in rois.iter().filter(|r| !r.is_empty()) {
                    if !zone_patches.iter().any(|zp| zp.rect.contains_rect(roi)) {
                        return Err(format!(
                            "scene {} frame {index}: RoI {roi} is not covered by a patch",
                            config.scene
                        ));
                    }
                }
                // The evaluated frames reproduce the built trace exactly.
                if let Some(built) = index
                    .checked_sub(config.warmup_frames)
                    .map(|i| &trace.frames[i])
                {
                    let same = built.patches.len() == zone_patches.len()
                        && built
                            .patches
                            .iter()
                            .zip(zone_patches.iter().zip(&encoded))
                            .all(|(p, (zp, &size))| {
                                p.info.rect == zp.rect && p.encoded_size.get() == size
                            });
                    if !same || built.roi_count != rois.len() {
                        return Err(format!(
                            "scene {} frame {index}: staged patches differ from TraceConfig::build's",
                            config.scene
                        ));
                    }
                }
            }
        }

        // Every frame's raster passes once through the GMM and once
        // through the morphology.
        let per_px = |busy: f64| ratio(1e9 * busy, pixels as f64);
        let scene = spans.total("video.scene");
        let gmm = spans.total("vision.gmm");
        let mask = spans.total("vision.mask");
        ledger.busy("video.scene", "frames", scene);
        ledger.busy("vision.gmm", "calls", gmm);
        ledger.set("vision.gmm.ns_per_px", per_px(gmm.0));
        ledger.busy("vision.mask", "calls", mask);
        ledger.set("vision.mask.ns_per_px", per_px(mask.0));
        ledger.busy("vision.cc", "calls", spans.total("vision.cc"));
        ledger.set("vision.cc.components", components as f64);
        ledger.set("vision.extractor.busy_s", spans.total("vision.extractor").0);
        ledger.set("vision.extractor.rois", roi_count as f64);
        ledger.busy(
            "partition.algorithm",
            "calls",
            spans.total("partition.algorithm"),
        );
        ledger.set("partition.algorithm.patches", patch_count as f64);
        ledger.set(
            "partition.algorithm.area_ratio",
            ratio(patch_area as f64, roi_area as f64),
        );
        ledger.busy("video.codec", "calls", spans.total("video.codec"));
        ledger.set("video.codec.bytes", bytes as f64);
        spans.probe();
        ledger.set("core.workload.build_s", spans.seconds(build_span));

        // The downstream replay, outside the timed region and the root
        // span: nothing is staged below it, so it is all self time.
        let report = spans.record("core.online", None, || inputs.engine.run(&detail.traces));
        spans.record("core.report", None, || black_box(report.summarize()));
        spans.probe();
        let run_s = spans.total("core.online").0;
        let events = report.events_processed as f64;
        let (_, engine_allocs) = alloc::counted(|| black_box(inputs.engine.run(&detail.traces)));
        ledger.set("core.online.events", events);
        ledger.set("core.online.run_s", run_s);
        ledger.set("core.online.self_s", run_s);
        ledger.set("core.online.ns_per_event", 1e9 * run_s / events);
        ledger.set(
            "core.online.events_per_patch",
            ratio(events, outcome.summaries[0].patches as f64),
        );
        ledger.set(
            "core.online.allocs_per_event",
            engine_allocs.allocs as f64 / events,
        );
        ledger.busy(
            "core.report",
            "records",
            (
                spans.total("core.report").0,
                (report.patches.len() + report.batches.len()) as u64,
            ),
        );
        let coverage_pct = 100.0 * spans.children_seconds(build_span) / spans.seconds(root);
        close_ledger(ledger, spans, &outcome, (root, reference), coverage_pct);
        Ok(())
    }
}
