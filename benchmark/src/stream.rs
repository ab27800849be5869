//! The four stream workloads — `city-wide`, `link-saturated`,
//! `overload-fair`, `overload-traced` — and their staged pass.
//!
//! All four drive the streaming engine through
//! [`tangram_harness::run_scenario_sharded`] at one shard: open-loop
//! Poisson cameras (the cameras ignore the system), policy Tangram, the
//! 0.8 s / 1.5 s tenant mix, a 0.25 s join stagger. Each camera cycles
//! its own content pool, built from a per-camera fork of the benchmark
//! seed, so a run averages over 16–32 independent scene simulations and
//! its metrics depend little on which seed it was given.
//!
//! The staged pass lives in [`staged`].

mod staged;

use crate::metrics::Ledger;
use crate::spans::{Phase, Spans};
use crate::workload::{Outcome, Scale, Workload};
use std::hint::black_box;
use tangram_core::engine::EngineConfig;
use tangram_core::report::{RunReport, RunSummary};
use tangram_core::workload::CameraTrace;
use tangram_harness::presets::{build_trace, city_scale_engine, city_scale_scenario};
use tangram_harness::{
    run_scenario_sharded, AdmissionSpec, FairnessSpec, ScenarioFile, ScenarioSpec, TraceKind,
};
use tangram_sim::rng::DetRng;
use tangram_stitch::solver::split_to_fit;
use tangram_trace::TraceLog;
use tangram_types::ids::{CameraId, SceneId};
use tangram_types::patch::Patch;
use tangram_types::time::SimDuration;

/// Cameras of the two fleet workloads.
const FLEET_CAMERAS: usize = 32;
/// Frames each fleet camera captures at the declared size.
const FLEET_FRAMES: usize = 1500;
/// Content-pool frames per camera.
const POOL_FRAMES: usize = 48;
/// The five synthetic scenes the cameras cycle.
const SCENES: [u8; 5] = [1, 2, 3, 4, 5];

const OVERLOAD_FAIR: &str = include_str!("../workloads/overload_fair.toml");
const OVERLOAD_TRACED: &str = include_str!("../workloads/overload_traced.toml");

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// The city-scale preset's fleet at the given uplink.
    Fleet { bandwidth_mbps: f64 },
    /// A scenario file; `traced` adds capture and the trace codec.
    Scenario { toml: &'static str, traced: bool },
}

/// One of the four stream workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stream {
    name: &'static str,
    kind: Kind,
    scale: Scale,
}

impl Stream {
    /// The stream workload called `name`, if there is one.
    #[must_use]
    pub fn named(name: &str, scale: Scale) -> Option<Self> {
        let (name, kind) = match name {
            "city-wide" => (
                "city-wide",
                Kind::Fleet {
                    bandwidth_mbps: 1000.0,
                },
            ),
            "link-saturated" => (
                "link-saturated",
                Kind::Fleet {
                    bandwidth_mbps: 200.0,
                },
            ),
            "overload-fair" => (
                "overload-fair",
                Kind::Scenario {
                    toml: OVERLOAD_FAIR,
                    traced: false,
                },
            ),
            "overload-traced" => (
                "overload-traced",
                Kind::Scenario {
                    toml: OVERLOAD_TRACED,
                    traced: true,
                },
            ),
            _ => return None,
        };
        Some(Self { name, kind, scale })
    }
}

/// The generated inputs of a stream workload.
pub struct StreamInputs {
    config: EngineConfig,
    traces: Vec<CameraTrace>,
    scenario: ScenarioSpec,
    admission: Option<AdmissionSpec>,
    fairness: Option<FairnessSpec>,
    /// Whether the workload itself captures (and round-trips) a trace.
    traced: bool,
    /// Patches the cameras will offer, counted from the pools alone.
    offered: u64,
    /// The same in the unit batches drain in: a patch larger than the
    /// canvas is tiled by the scheduler and completes once per tile.
    offered_tiles: u64,
}

/// The full output of one stream repetition.
pub struct StreamDetail {
    report: RunReport,
    summary: RunSummary,
    /// The captured trace, where the workload captures one.
    log: Option<TraceLog>,
    /// The trace's JSONL size and what parsing and verifying it gave.
    round_trip: Option<(usize, Result<TraceLog, String>)>,
    /// The calls into each layer `run` made, in order.
    phases: Vec<Phase>,
}

/// Per-camera content pools: camera `cam` observes `scenes[cam % n]`
/// through its own fork of `seed`, and is stamped with a distinct id (the
/// trace builder derives ids from the scene, so cameras sharing a scene
/// would otherwise collide).
fn fleet_traces(cameras: usize, scenes: &[u8], pool_frames: usize, seed: u64) -> Vec<CameraTrace> {
    let root = DetRng::new(seed);
    (0..cameras)
        .map(|cam| {
            let scene = SceneId::new(scenes[cam % scenes.len()]);
            let pool_seed = root.derive_seed("benchmark-pool", cam as u64);
            let mut trace = build_trace(scene, pool_frames, pool_seed, TraceKind::Proxy);
            trace.camera = CameraId::new(cam as u32);
            trace
        })
        .collect()
}

impl StreamInputs {
    fn engine(&self, capture: bool, shards: usize) -> (RunReport, Option<TraceLog>) {
        run_scenario_sharded(
            &self.config,
            &self.traces,
            &self.scenario,
            self.admission.as_ref(),
            self.fairness.as_ref(),
            capture,
            shards,
            None,
        )
    }

    fn slo_of(&self, cam: usize) -> SimDuration {
        let mix = &self.scenario.tenant_slos_s;
        if mix.is_empty() {
            self.config.slo
        } else {
            SimDuration::from_secs_f64(mix[cam % mix.len()])
        }
    }

    fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.config.max_fps)
    }

    fn max_batch(&self) -> usize {
        self.config.function_spec.max_canvases().max(1)
    }
}

/// A stream workload resolved from its declaration and the seed:
/// everything but the content pools.
struct Plan {
    config: EngineConfig,
    scenario: ScenarioSpec,
    admission: Option<AdmissionSpec>,
    fairness: Option<FairnessSpec>,
    traced: bool,
    cameras: usize,
    scenes: Vec<u8>,
    pool_frames: usize,
}

impl Stream {
    /// Parses the scenario file (if the workload has one) and applies
    /// the benchmark's seed and scale.
    fn plan(&self, seed: u64) -> Plan {
        match self.kind {
            Kind::Fleet { bandwidth_mbps } => Plan {
                config: EngineConfig {
                    bandwidth_mbps,
                    ..city_scale_engine(seed)
                },
                scenario: city_scale_scenario(self.scale.of(FLEET_FRAMES, 40)),
                admission: None,
                fairness: None,
                traced: false,
                cameras: FLEET_CAMERAS,
                scenes: SCENES.to_vec(),
                pool_frames: POOL_FRAMES,
            },
            Kind::Scenario { toml, traced } => {
                let mut file = ScenarioFile::parse_str(toml)
                    .unwrap_or_else(|e| panic!("{}: scenario file line {e}", self.name));
                // The seed is a benchmark argument; the file's is a default.
                file.run.seed = seed;
                file.scenario.frames_per_camera =
                    self.scale.of(file.scenario.frames_per_camera, 240);
                Plan {
                    config: file.engine_config(),
                    scenario: file.scenario,
                    admission: file.admission,
                    fairness: file.fairness,
                    traced,
                    cameras: file.run.cameras,
                    scenes: file.run.scenes,
                    pool_frames: file.run.pool_frames,
                }
            }
        }
    }
}

impl Plan {
    /// Builds the content pools and counts the patches they will offer.
    fn build(self) -> StreamInputs {
        let traces = fleet_traces(
            self.cameras,
            &self.scenes,
            self.pool_frames,
            self.config.seed,
        );
        let budget = self.scenario.frames_per_camera;
        let canvas = self.config.canvas_size;
        let tiles = |patch: &Patch| {
            if canvas.fits(patch.info.rect.size()) {
                1
            } else {
                split_to_fit(patch.info.rect, canvas).len() as u64
            }
        };
        let (mut offered, mut offered_tiles) = (0, 0);
        for trace in &traces {
            for k in 0..budget {
                let patches = &trace.frames[k % trace.frames.len()].patches;
                offered += patches.len() as u64;
                offered_tiles += patches.iter().map(tiles).sum::<u64>();
            }
        }
        StreamInputs {
            config: self.config,
            traces,
            scenario: self.scenario,
            admission: self.admission,
            fairness: self.fairness,
            traced: self.traced,
            offered,
            offered_tiles,
        }
    }
}

impl Workload for Stream {
    type Inputs = StreamInputs;
    type Detail = StreamDetail;

    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&self, seed: u64) -> StreamInputs {
        self.plan(seed).build()
    }

    fn run(&self, inputs: &StreamInputs, _workers: usize) -> StreamDetail {
        let mut phases = Vec::new();
        let (report, log) = Phase::run(&mut phases, "core.online", || {
            inputs.engine(inputs.traced, 1)
        });
        let summary = Phase::run(&mut phases, "core.report", || {
            let summary = report.summarize();
            black_box(report.tenant_breakdown());
            summary
        });
        // The trace round trip; comparing its two ends is `check`'s job.
        let round_trip = log.as_ref().map(|log| {
            let text = Phase::run(&mut phases, "trace.log.to_jsonl", || log.to_jsonl());
            let parsed = Phase::run(&mut phases, "trace.log.from_jsonl", || {
                TraceLog::from_jsonl(&text)
            });
            let parsed = parsed.and_then(|parsed| {
                Phase::run(&mut phases, "trace.log.verify", || parsed.verify())?;
                Ok(parsed)
            });
            (text.len(), parsed)
        });
        StreamDetail {
            report,
            summary,
            log,
            round_trip,
            phases,
        }
    }

    fn outcome(&self, inputs: &StreamInputs, detail: &StreamDetail) -> Outcome {
        Outcome {
            operations: inputs.offered,
            summaries: vec![detail.summary.clone()],
            digest: detail.report.events_processed
                ^ detail.log.as_ref().map_or(0, TraceLog::final_hash),
        }
    }

    fn check(
        &self,
        inputs: &StreamInputs,
        outcome: &Outcome,
        detail: &StreamDetail,
    ) -> Result<(), String> {
        let report = &detail.report;
        let summary = &outcome.summaries[0];
        let cameras = inputs.traces.len() as u64;
        let expected_frames = cameras * inputs.scenario.frames_per_camera as u64;
        if report.frames != expected_frames - report.frames_muted {
            return Err(format!(
                "frames {} != cameras x frames_per_camera - muted ({expected_frames} - {})",
                report.frames, report.frames_muted
            ));
        }
        // Every offered patch completes (once per tile) or is shed whole.
        let accounted = summary.patches + summary.dropped_arrivals;
        let exact = summary.dropped_arrivals > 0 || summary.patches == inputs.offered_tiles;
        if accounted < inputs.offered || accounted > inputs.offered_tiles || !exact {
            return Err(format!(
                "completed {} + dropped {} does not account for {} offered patches ({} tiles)",
                summary.patches, summary.dropped_arrivals, inputs.offered, inputs.offered_tiles
            ));
        }
        if inputs.traced != detail.log.is_some() {
            return Err("trace capture does not match the workload".to_string());
        }
        if let (Some(log), Some((_, parsed))) = (&detail.log, &detail.round_trip) {
            match parsed {
                Ok(parsed) if parsed == log => {}
                Ok(_) => return Err("from_jsonl(to_jsonl(log)) != log".to_string()),
                Err(e) => return Err(format!("trace round trip: {e}")),
            }
            let counts = log.replay_counts();
            // Fair-ingress overflow sheds are not verdicts, so the
            // trace's drop count is a lower bound on the report's.
            if counts.batches != summary.batches
                || counts.patches != summary.patches
                || counts.completions != summary.invocations
                || counts.dropped > summary.dropped_arrivals
            {
                return Err(format!(
                    "trace replay counts {counts:?} do not match the report"
                ));
            }
        }
        Ok(())
    }

    fn staged(&self, seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> Result<(), String> {
        staged::stage(self, seed, spans, ledger)
    }
}
