//! Shared experiment setup.
//!
//! Every fig/table/ablation bin used to hand-roll the same blocks: the
//! paper's bandwidth/SLO sweep constants, the "proxy in `--quick`, GMM
//! otherwise" trace construction, the warmed-up extractor rig of the
//! table experiments, and the default engine configuration. They live
//! here once, as constructors with a paper-default and a stress variant.

use crate::grid::{
    AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec, SweepGrid, TraceKind, WorkloadSpec,
};
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::workload::{CameraTrace, TraceConfig};
use tangram_sim::rng::DetRng;
use tangram_types::ids::{CameraId, SceneId};
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_vision::detector::DetectorProxy;
use tangram_vision::extractor::{FlowExtractor, GmmExtractor, ProxyExtractor, RoiExtractor};

/// The paper's uplink sweep (Fig. 12/13/14).
pub const PAPER_BANDWIDTHS_MBPS: [f64; 3] = [20.0, 40.0, 80.0];

/// The four systems of the end-to-end comparison (Fig. 12).
pub const E2E_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Tangram,
    PolicyKind::Clipper,
    PolicyKind::Elf,
    PolicyKind::Mark,
];

/// The SLO axis the paper pairs with each bandwidth (tighter links get
/// looser SLOs).
#[must_use]
pub fn paper_slos_s(bandwidth_mbps: f64) -> [f64; 5] {
    if bandwidth_mbps <= 20.0 {
        [1.0, 1.1, 1.2, 1.3, 1.4]
    } else if bandwidth_mbps <= 40.0 {
        [0.8, 0.9, 1.0, 1.1, 1.2]
    } else {
        [0.6, 0.7, 0.8, 0.9, 1.0]
    }
}

/// The motivation-scene subset the end-to-end experiments replay: two
/// scenes in quick mode, the paper's five otherwise.
#[must_use]
pub fn motivation_scenes(quick: bool) -> Vec<SceneId> {
    SceneId::all().take(if quick { 2 } else { 5 }).collect()
}

/// The trace pipeline for a mode: the fast proxy in quick mode, the full
/// GMM pixel pipeline (the paper's prototype) otherwise.
#[must_use]
pub fn trace_kind(quick: bool) -> TraceKind {
    if quick {
        TraceKind::Proxy
    } else {
        TraceKind::Gmm
    }
}

/// Builds one camera trace with the chosen pipeline.
#[must_use]
pub fn build_trace(scene: SceneId, frames: usize, seed: u64, kind: TraceKind) -> CameraTrace {
    match kind {
        TraceKind::Proxy => TraceConfig::proxy_extractor(scene, frames, seed).build(),
        TraceKind::Gmm => TraceConfig::gmm_extractor(scene, frames, seed).build(),
    }
}

/// Builds every camera of a workload (one trace per scene entry).
#[must_use]
pub fn build_workload(spec: &WorkloadSpec, trace_seed: u64) -> Vec<CameraTrace> {
    spec.scene_ids()
        .iter()
        .map(|&scene| build_trace(scene, spec.frames, trace_seed, spec.trace))
        .collect()
}

/// The Fig. 12-shaped grid at one bandwidth: four systems × the paper's
/// five SLOs for that link, one single-camera workload per scene.
#[must_use]
pub fn e2e_grid(
    name: &str,
    bandwidth_mbps: f64,
    scenes: &[SceneId],
    frames: usize,
    kind: TraceKind,
    seed: u64,
) -> SweepGrid {
    let mut grid = SweepGrid::named(name);
    grid.policies = E2E_POLICIES.to_vec();
    grid.seeds = vec![seed];
    grid.slos_s = paper_slos_s(bandwidth_mbps).to_vec();
    grid.bandwidths_mbps = vec![bandwidth_mbps];
    grid.workloads = WorkloadSpec::per_scene(scenes, frames, kind);
    grid
}

/// The CI smoke grid: a reduced two-axis sweep (four systems × two
/// bandwidths over two proxy scenes) that finishes in seconds yet still
/// exercises batching, stitching, padding and per-patch dispatch.
#[must_use]
pub fn smoke_grid(seed: u64) -> SweepGrid {
    let mut grid = SweepGrid::named("smoke");
    grid.policies = E2E_POLICIES.to_vec();
    grid.seeds = vec![seed];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![20.0, 40.0];
    grid.workloads = WorkloadSpec::per_scene(&motivation_scenes(true), 12, TraceKind::Proxy);
    grid
}

/// The gold/best-effort tenant SLO mix shared by the streaming presets:
/// a tight 0.8 s class alternating with a lax 1.5 s one.
pub const TENANT_MIX_SLOS_S: [f64; 2] = [0.8, 1.5];

/// A Poisson streaming scenario at `fps` per camera with the standard
/// gold/best-effort tenant mix and simultaneous joins — the building
/// block of the overload sweep's offered-load axis.
#[must_use]
pub fn churn_scenario(fps: f64, frames_per_camera: usize) -> ScenarioSpec {
    ScenarioSpec {
        arrival: ArrivalSpec::Poisson { fps },
        frames_per_camera,
        join_stagger_s: 0.0,
        session_s: None,
        tenant_slos_s: TENANT_MIX_SLOS_S.to_vec(),
        faults: Vec::new(),
    }
}

/// The churny multi-tenant streaming grid (the `ext_churn` row): four
/// cameras share one uplink, arrive open-loop (Poisson), join staggered
/// and leave before their frame budget runs out, and alternate between a
/// tight "gold" SLO and a lax best-effort one. Swept over the four
/// end-to-end systems at two uplinks.
#[must_use]
pub fn churn_grid(seed: u64, frames_per_camera: usize) -> SweepGrid {
    let mut grid = SweepGrid::named("churn");
    grid.policies = E2E_POLICIES.to_vec();
    grid.seeds = vec![seed];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![40.0, 80.0];
    grid.workloads = vec![WorkloadSpec {
        scenes: vec![1, 2, 3, 4],
        frames: 8, // content pool per camera; the generator cycles it
        trace: TraceKind::Proxy,
    }];
    grid.scenarios = vec![ScenarioSpec {
        arrival: ArrivalSpec::Poisson { fps: 6.0 },
        frames_per_camera,
        join_stagger_s: 2.0,
        session_s: Some(12.0),
        tenant_slos_s: TENANT_MIX_SLOS_S.to_vec(),
        faults: Vec::new(),
    }];
    grid
}

/// The offered-load ramp of the overload sweep, mean frames per second
/// per camera: from comfortably under capacity to well past it (four
/// cameras share the uplink, so the top rate is a sustained overload).
pub const OVERLOAD_RAMP_FPS: [f64; 4] = [3.0, 6.0, 12.0, 24.0];

/// The overload grid (the `ext_overload` row): Tangram under a ramp of
/// Poisson rates crossing backend capacity, × the admission axis — the
/// paper-style "attainment vs offered load" experiment. Four cameras
/// with the gold/best-effort tenant mix; `smoke` keeps two ramp points
/// for CI.
#[must_use]
pub fn overload_grid(seed: u64, frames_per_camera: usize, smoke: bool) -> SweepGrid {
    let mut grid = SweepGrid::named(if smoke { "overload" } else { "overload_full" });
    grid.policies = vec![PolicyKind::Tangram];
    grid.seeds = vec![seed];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![80.0];
    grid.workloads = vec![WorkloadSpec {
        scenes: vec![1, 2, 3, 4],
        frames: 8, // content pool per camera; the generator cycles it
        trace: TraceKind::Proxy,
    }];
    let ramp: &[f64] = if smoke {
        &[OVERLOAD_RAMP_FPS[1], OVERLOAD_RAMP_FPS[3]]
    } else {
        &OVERLOAD_RAMP_FPS
    };
    grid.scenarios = ramp
        .iter()
        .map(|&fps| churn_scenario(fps, frames_per_camera))
        .collect();
    // The open door (drops nothing, attainment collapses past capacity)
    // against the SLO-aware shedder.
    let shedder = AdmissionSpec::SloShedder {
        per_item_s: 0.02,
        pressure: 0.5,
    };
    grid.admission = vec![AdmissionSpec::Always, shedder];
    grid
}

/// The seed every committed file under `baselines/` is generated at.
pub const BASELINE_SEED: u64 = 42;

/// The golden smoke trace cell (`baselines/TRACE_smoke.jsonl`): Tangram
/// at 20 Mbps over the first proxy scene — cell 0 of [`smoke_grid`],
/// restricted to that one cell so the trace is byte-identical to the
/// cell's trace in the full sweep — with [`SweepGrid::capture_traces`]
/// on.
#[must_use]
pub fn trace_smoke_grid() -> SweepGrid {
    let mut grid = smoke_grid(BASELINE_SEED);
    grid.name = "trace_smoke".to_string();
    grid.policies = vec![PolicyKind::Tangram];
    grid.bandwidths_mbps = vec![20.0];
    grid.workloads.truncate(1);
    grid.capture_traces = true;
    grid
}

/// The golden overload trace cell (`baselines/TRACE_overload.jsonl`):
/// the 24 fps ramp point under the SLO shedder — the admission-heavy
/// cell of [`overload_grid`] — with [`SweepGrid::capture_traces`] on.
#[must_use]
pub fn trace_overload_grid() -> SweepGrid {
    let mut grid = overload_grid(BASELINE_SEED, 12, true);
    grid.name = "trace_overload".to_string();
    // Of (6, 24 fps) × (open door, shedder), keep the last of each.
    grid.scenarios.remove(0);
    grid.admission.remove(0);
    grid.capture_traces = true;
    grid
}

/// The gold-over-best-effort DRR weights of the fairness sweep.
pub const FAIRNESS_WEIGHTS: [f64; 2] = [3.0, 1.0];

/// The weighted-DRR fair-ingress spec of the fairness sweep: gold
/// weighted [`FAIRNESS_WEIGHTS`] (3:1) over best-effort, bounded
/// per-class queues, and an ingress service rate of
/// `Σ weights × quantum / tick` = 80 items/s — pinned below what the
/// fairness grid's backend sustains, so admitted work flows through an
/// uncongested scheduler. The Tangram scheduler runs admission-aware
/// (it consults the predicted backend drain before dispatching).
#[must_use]
pub fn fairness_drr_spec() -> FairnessSpec {
    FairnessSpec {
        weights: FAIRNESS_WEIGHTS.to_vec(),
        queue_capacity: 16,
        tick_s: 0.02,
        quantum: 0.4,
        admission_aware: true,
    }
}

/// The offered-load ramp of the fairness sweep, mean frames per second
/// per camera. At ~7.8 patches per frame over four cameras the three
/// points offer ≈ 1×, 2× and 4× the DRR ingress service rate — the
/// middle point is the "2× overload" cell of the weighted-share table.
pub const FAIRNESS_RAMP_FPS: [f64; 3] = [2.5, 5.0, 10.0];

/// The fairness grid (the `ext_fairness` row): Tangram under a Poisson
/// ramp crossing the DRR ingress capacity, with the gold/best-effort
/// tenant mix and the weighted-DRR fair-ingress axis — the
/// weighted-share-vs-offered-load experiment. The uplink is wide
/// (200 Mbps) and the backend cap raised to 8 instances so the *ingress*
/// is the binding stage: under the 2×-overload cell the admitted
/// per-class mix must track the 3:1 weights instead of collapsing to a
/// single class (the `SloShedder` under the same pressure serves a
/// best-effort-dominant residue — see `baselines/BENCH_overload.json`).
/// `smoke` keeps the 2× and 4× points for CI.
#[must_use]
pub fn fairness_grid(seed: u64, frames_per_camera: usize, smoke: bool) -> SweepGrid {
    let mut grid = SweepGrid::named(if smoke { "fairness" } else { "fairness_full" });
    grid.policies = vec![PolicyKind::Tangram];
    grid.seeds = vec![seed];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![200.0];
    grid.max_instances = Some(8);
    grid.workloads = vec![WorkloadSpec {
        scenes: vec![1, 2, 3, 4],
        frames: 8, // content pool per camera; the generator cycles it
        trace: TraceKind::Proxy,
    }];
    let ramp: &[f64] = if smoke {
        &[FAIRNESS_RAMP_FPS[1], FAIRNESS_RAMP_FPS[2]]
    } else {
        &FAIRNESS_RAMP_FPS
    };
    grid.scenarios = ramp
        .iter()
        .map(|&fps| churn_scenario(fps, frames_per_camera))
        .collect();
    grid.fairness = vec![fairness_drr_spec()];
    grid
}

/// Camera count of the full city-scale preset (the `ext_throughput`
/// workload); smoke mode runs [`CITY_SCALE_SMOKE_CAMERAS`].
pub const CITY_SCALE_CAMERAS: usize = 32;

/// Camera count of the CI-sized city-scale smoke preset.
pub const CITY_SCALE_SMOKE_CAMERAS: usize = 12;

/// A fleet's content pools: camera `cam` observes `scenes[cam % n]`
/// (1-based scene indices) through a `pool_frames`-frame proxy trace.
/// Each trace's camera id is re-stamped with the camera index — the trace
/// builder derives ids from the *scene*, so without the override two
/// cameras on the same scene would collide (and so would their generated
/// patch ids, which embed the camera id). A single-scene list is the
/// content-correlated stitcher stress: every camera offers patches from
/// the same scene geometry.
#[must_use]
pub fn fleet_traces(
    cameras: usize,
    scenes: &[u8],
    pool_frames: usize,
    seed: u64,
) -> Vec<CameraTrace> {
    (0..cameras)
        .map(|cam| {
            let scene = SceneId::new(scenes[cam % scenes.len()]);
            let mut trace = build_trace(scene, pool_frames, seed, TraceKind::Proxy);
            trace.camera = CameraId::new(cam as u32);
            trace
        })
        .collect()
}

/// The city-scale streaming scenario: open-loop Poisson cameras with the
/// standard tenant mix, joining in a short stagger — the workload
/// `ext_throughput` runs.
#[must_use]
pub fn city_scale_scenario(frames_per_camera: usize) -> ScenarioSpec {
    ScenarioSpec {
        arrival: ArrivalSpec::Poisson { fps: 6.0 },
        frames_per_camera,
        join_stagger_s: 0.25,
        session_s: None,
        tenant_slos_s: TENANT_MIX_SLOS_S.to_vec(),
        faults: Vec::new(),
    }
}

/// The engine configuration of the city-scale preset: Tangram on a wide
/// uplink with unlimited scale-out, so neither the link nor the backend
/// cap serialises the fleet and the measured events/sec reflects the
/// runtime, not a saturated bottleneck.
#[must_use]
pub fn city_scale_engine(seed: u64) -> EngineConfig {
    EngineConfig {
        policy: PolicyKind::Tangram,
        bandwidth_mbps: 200.0,
        max_instances: None,
        seed,
        ..EngineConfig::default()
    }
}

/// Which edge extractor a [`SceneRig`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeExtractor {
    /// Stauffer–Grimson background subtraction (reads rasters).
    Gmm,
    /// Dense optical flow (reads rasters).
    Flow,
    /// SSDLite-MobileNetV2 proxy (ground-truth-driven, no rasters).
    SsdProxy,
    /// Yolov3-MobileNetV2 proxy (ground-truth-driven, no rasters).
    YoloProxy,
}

impl EdgeExtractor {
    /// Whether the extractor consumes rendered rasters (and therefore
    /// needs warm-up frames for its background model).
    #[must_use]
    pub fn needs_raster(self) -> bool {
        matches!(self, EdgeExtractor::Gmm | EdgeExtractor::Flow)
    }

    /// The proxy-or-GMM choice the table experiments make from `--quick`.
    #[must_use]
    pub fn for_mode(quick: bool) -> Self {
        if quick {
            EdgeExtractor::SsdProxy
        } else {
            EdgeExtractor::Gmm
        }
    }

    /// Stable name, used as an rng-fork label so different extractors
    /// never share a random stream.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EdgeExtractor::Gmm => "gmm",
            EdgeExtractor::Flow => "flow",
            EdgeExtractor::SsdProxy => "ssd-proxy",
            EdgeExtractor::YoloProxy => "yolo-proxy",
        }
    }
}

/// A scene simulation paired with a warmed-up RoI extractor — the
/// repeated preamble of the Table II/III/IV experiments.
pub struct SceneRig {
    /// The scene simulation, positioned just past warm-up.
    pub sim: SceneSimulation,
    /// The extractor, background model converged.
    pub extractor: Box<dyn RoiExtractor>,
}

impl SceneRig {
    /// Builds the rig: raster rendering switched by the extractor's
    /// needs, 30 warm-up frames fed through when it reads pixels, and the
    /// proxy's randomness forked from `(label, extractor, scene)` so rigs
    /// are decorrelated across experiments *and* across extractor kinds
    /// within one experiment (Table IV compares proxies side by side).
    #[must_use]
    pub fn new(scene: SceneId, extractor: EdgeExtractor, seed: u64, label: &str) -> Self {
        let video = VideoConfig {
            render: extractor.needs_raster(),
            raster_scale: 0.25,
            ..VideoConfig::default()
        };
        let mut sim = SceneSimulation::new(scene, video, seed);
        let rng = DetRng::new(seed)
            .fork(label)
            .fork(extractor.name())
            .fork_indexed("edge", u64::from(scene.index()));
        let mut boxed: Box<dyn RoiExtractor> = match extractor {
            EdgeExtractor::Gmm => Box::new(GmmExtractor::default()),
            EdgeExtractor::Flow => Box::new(FlowExtractor::default()),
            EdgeExtractor::SsdProxy => Box::new(ProxyExtractor::new(
                DetectorProxy::ssdlite_mobilenet_v2(),
                rng,
            )),
            EdgeExtractor::YoloProxy => Box::new(ProxyExtractor::new(
                DetectorProxy::yolov3_mobilenet_v2(),
                rng,
            )),
        };
        if extractor.needs_raster() {
            for _ in 0..30 {
                let frame = sim.next_frame();
                let _ = boxed.extract(&frame);
            }
        }
        Self {
            sim,
            extractor: boxed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_axes_follow_bandwidth() {
        assert_eq!(paper_slos_s(20.0)[0], 1.0);
        assert_eq!(paper_slos_s(40.0)[0], 0.8);
        assert_eq!(paper_slos_s(80.0)[0], 0.6);
    }

    #[test]
    fn smoke_grid_is_small_and_two_axis() {
        let grid = smoke_grid(42);
        assert_eq!(grid.cell_count(), 4 * 2 * 2);
        assert!(grid.cell_count() <= 16, "smoke must stay CI-sized");
        assert_eq!(grid.bandwidths_mbps.len(), 2);
        assert_eq!(grid.policies.len(), 4);
    }

    #[test]
    fn e2e_grid_matches_paper_shape() {
        let scenes = motivation_scenes(false);
        let grid = e2e_grid("fig12_bw20", 20.0, &scenes, 40, TraceKind::Proxy, 1);
        assert_eq!(grid.cell_count(), 4 * 5 * 5);
    }

    /// Every preset's BENCH grid echo has exactly the schema-6 keys, in
    /// order: no preset sets a key the schema dropped.
    #[test]
    fn every_preset_grid_echoes_the_v6_keys() {
        let scenes = motivation_scenes(true);
        let grids = [
            smoke_grid(1),
            churn_grid(1, 8),
            overload_grid(1, 8, true),
            overload_grid(1, 8, false),
            fairness_grid(1, 8, true),
            fairness_grid(1, 8, false),
            e2e_grid("e2e", 40.0, &scenes, 8, TraceKind::Proxy, 1),
            trace_smoke_grid(),
            trace_overload_grid(),
        ];
        for grid in &grids {
            let crate::json::Json::Object(fields) = crate::report::grid_to_value(grid) else {
                panic!("{}: the grid echo is not an object", grid.name);
            };
            let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "policies",
                    "seeds",
                    "slos_s",
                    "bandwidths_mbps",
                    "sigma_multipliers",
                    "workloads",
                    "max_instances",
                    "scenarios",
                    "admission",
                    "fairness",
                ],
                "{}",
                grid.name
            );
        }
    }

    #[test]
    fn rig_warms_up_raster_extractors() {
        let mut proxy = SceneRig::new(SceneId::new(1), EdgeExtractor::SsdProxy, 7, "t");
        let frame = proxy.sim.next_frame();
        // Frame counter starts at zero for non-raster rigs…
        assert_eq!(frame.frame.raw(), 0);
        let mut gmm = SceneRig::new(SceneId::new(1), EdgeExtractor::Gmm, 7, "t");
        let frame = gmm.sim.next_frame();
        // …and past the 30 warm-up frames for raster ones.
        assert_eq!(frame.frame.raw(), 30);
        let _ = gmm.extractor.extract(&frame);
    }

    #[test]
    fn city_scale_traces_have_unique_camera_ids() {
        let scenes: Vec<u8> = SceneId::all().map(|s| s.index()).collect();
        let traces = fleet_traces(12, &scenes, 4, 7);
        assert_eq!(traces.len(), 12);
        let ids: std::collections::HashSet<u32> = traces.iter().map(|t| t.camera.raw()).collect();
        assert_eq!(ids.len(), 12, "camera ids must not collide across scenes");
        // Scenes cycle: cameras 0 and 5 observe the same scene but keep
        // distinct identities.
        assert_eq!(traces[0].frames.len(), traces[5].frames.len());
        assert_ne!(traces[0].camera, traces[5].camera);
    }

    #[test]
    fn workload_builder_builds_one_trace_per_scene() {
        let spec = WorkloadSpec {
            scenes: vec![1, 2],
            frames: 5,
            trace: TraceKind::Proxy,
        };
        let traces = build_workload(&spec, 9);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].frames.len(), 5);
        assert_ne!(traces[0].camera, traces[1].camera);
    }
}
