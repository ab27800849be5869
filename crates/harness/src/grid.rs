//! Declarative sweep grids.
//!
//! An experiment is the cartesian product of its axes — policy × seed ×
//! workload × bandwidth × SLO × slack multiplier — exactly the shape of
//! the paper's Fig. 8/12/13 evaluations. [`SweepGrid`] names the axes
//! once; [`SweepGrid::cells`] enumerates every cell in a fixed order so a
//! parallel run can be reassembled bit-for-bit identical to a sequential
//! one.
//!
//! Each cell carries two *derived* seeds, forked from the cell's
//! seed-axis value via [`DetRng::derive_seed`]:
//!
//! * `trace_seed` drives workload construction, shared by every cell on
//!   the same (workload, seed) pair, so policies are compared over
//!   byte-identical camera traces (paired comparison, as in the paper);
//! * `engine_seed` seeds the engine's own stochastic substrates, likewise
//!   shared across policy/bandwidth/SLO so only the axis under test
//!   varies.

use tangram_core::admission::{AdmissionPolicy, SloShedder};
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::fairness::{DrrConfig, DrrIngress};
use tangram_core::faults::FaultSpec;
use tangram_core::online::ArrivalProcess;
use tangram_sim::rng::DetRng;
use tangram_types::ids::SceneId;
use tangram_types::time::SimDuration;

/// Which trace pipeline builds a workload's cameras.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Ground-truth-driven stochastic proxy: fast, no rasters.
    Proxy,
    /// Full pixel pipeline (Stauffer–Grimson GMM on rendered rasters).
    Gmm,
}

impl TraceKind {
    /// Stable name used in `BENCH_*.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Proxy => "proxy",
            TraceKind::Gmm => "gmm",
        }
    }
}

/// One workload axis entry: which cameras exist and what they observe.
///
/// A single-scene workload reproduces the paper's per-scene runs; a
/// multi-scene workload replays all its cameras into one engine run
/// (multi-camera load on a shared uplink).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Scene indices (1-based, as in `SceneId::new`), one camera each.
    pub scenes: Vec<u8>,
    /// Evaluation frames per camera.
    pub frames: usize,
    /// Trace pipeline.
    pub trace: TraceKind,
}

impl WorkloadSpec {
    /// A single-camera workload.
    #[must_use]
    pub fn single(scene: SceneId, frames: usize, trace: TraceKind) -> Self {
        Self {
            scenes: vec![scene.index()],
            frames,
            trace,
        }
    }

    /// One single-camera workload per scene (the paper's per-scene runs).
    #[must_use]
    pub fn per_scene(scenes: &[SceneId], frames: usize, trace: TraceKind) -> Vec<Self> {
        scenes
            .iter()
            .map(|&s| Self::single(s, frames, trace))
            .collect()
    }

    /// The scene ids.
    #[must_use]
    pub fn scene_ids(&self) -> Vec<SceneId> {
        self.scenes.iter().map(|&i| SceneId::new(i)).collect()
    }
}

/// How a streaming scenario's cameras pace their captures — the
/// declarative face of [`ArrivalProcess`] (stable names for
/// `BENCH_*.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Open-loop Poisson arrivals at mean `fps`.
    Poisson {
        /// Mean frame rate.
        fps: f64,
    },
    /// Markov-modulated calm/burst process.
    Bursty {
        /// Frame rate in the calm state.
        calm_fps: f64,
        /// Frame rate in the burst state.
        burst_fps: f64,
        /// Mean dwell time in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell time in the burst state, seconds.
        mean_burst_s: f64,
    },
    /// Sinusoidal day/night rate curve.
    Diurnal {
        /// Trough frame rate.
        min_fps: f64,
        /// Peak frame rate.
        max_fps: f64,
        /// Full day length, seconds.
        period_s: f64,
    },
}

impl ArrivalSpec {
    /// The engine-side process this spec configures.
    #[must_use]
    pub fn process(self) -> ArrivalProcess {
        match self {
            ArrivalSpec::Poisson { fps } => ArrivalProcess::Poisson { fps },
            ArrivalSpec::Bursty {
                calm_fps,
                burst_fps,
                mean_calm_s,
                mean_burst_s,
            } => ArrivalProcess::Bursty {
                calm_fps,
                burst_fps,
                mean_calm_s,
                mean_burst_s,
            },
            ArrivalSpec::Diurnal {
                min_fps,
                max_fps,
                period_s,
            } => ArrivalProcess::Diurnal {
                min_fps,
                max_fps,
                period_s,
            },
        }
    }

    /// Stable name used in `BENCH_*.json`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ArrivalSpec::Poisson { .. } => "poisson",
            ArrivalSpec::Bursty { .. } => "bursty",
            ArrivalSpec::Diurnal { .. } => "diurnal",
        }
    }
}

/// A streaming scenario: runs every cell through the event-driven
/// [`tangram_core::online::OnlineEngine`] instead of trace replay. The
/// cell's workload traces become per-camera *content pools*; arrival
/// timing, camera churn and tenant SLOs come from here.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Capture pacing for every camera.
    pub arrival: ArrivalSpec,
    /// Frames each camera emits before its stream ends (the content pool
    /// cycles; churny runs usually cut sessions short instead).
    pub frames_per_camera: usize,
    /// Camera `i` joins the stream at `i * join_stagger_s` — together
    /// with `session_s` this is the churn-rate axis.
    pub join_stagger_s: f64,
    /// Cameras leave this long after joining (`None` = stay until their
    /// budget runs out).
    pub session_s: Option<f64>,
    /// Tenant SLO classes, seconds, assigned to cameras round-robin — the
    /// tenant-mix axis. Empty = every camera uses the cell's SLO.
    pub tenant_slos_s: Vec<f64>,
    /// Declarative fault windows injected into the run (see
    /// [`tangram_core::faults`]). Empty = fault-free.
    pub faults: Vec<FaultSpec>,
}

/// The declarative face of [`tangram_core::admission`]: which ingress
/// admission-control policy a cell runs, with stable names for
/// `BENCH_*.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionSpec {
    /// Admit everything (identical to running with no policy).
    Always,
    /// The SLO-aware shedder: sheds doomed work and lower-class tenants
    /// first under overload.
    SloShedder {
        /// Estimated per-item service time, seconds.
        per_item_s: f64,
        /// Fraction of the tightest SLO the predicted ingress delay may
        /// reach before lower classes are shed.
        pressure: f64,
    },
}

impl AdmissionSpec {
    /// Stable name used in `BENCH_*.json` and report tables.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AdmissionSpec::Always => "always",
            AdmissionSpec::SloShedder { .. } => "slo-shedder",
        }
    }

    /// Builds the engine-side policy. `tenant_slos_s` primes the
    /// SLO-aware shedder's class table (the scenario's tenant axis), so
    /// shedding priorities are right from the first arrival.
    #[must_use]
    pub fn build(&self, tenant_slos_s: &[f64]) -> AdmissionPolicy {
        match *self {
            AdmissionSpec::Always => AdmissionPolicy::Always,
            AdmissionSpec::SloShedder {
                per_item_s,
                pressure,
            } => {
                let classes: Vec<SimDuration> = tenant_slos_s
                    .iter()
                    .map(|&s| SimDuration::from_secs_f64(s))
                    .collect();
                AdmissionPolicy::SloShedder(
                    SloShedder::new(SimDuration::from_secs_f64(per_item_s))
                        .with_pressure(pressure)
                        .with_classes(&classes),
                )
            }
        }
    }
}

/// The declarative face of [`tangram_core::fairness`]: a weighted-DRR
/// fair-ingress stage for every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessSpec {
    /// Per-class DRR weights, aligned with the cell's distinct tenant
    /// SLOs sorted ascending (tightest class first). Classes beyond the
    /// list fall back to weight 1.
    pub weights: Vec<f64>,
    /// Per-class ingress queue bound; arrivals past it are shed.
    pub queue_capacity: usize,
    /// DRR service-round interval, seconds.
    pub tick_s: f64,
    /// Credits per weight unit per round; with `tick_s` this sets the
    /// ingress service rate (`Σ weights × quantum / tick_s` items/s).
    pub quantum: f64,
    /// Whether the Tangram scheduler also runs admission-aware (consults
    /// the predicted backend drain before dispatching).
    pub admission_aware: bool,
}

impl FairnessSpec {
    /// What mounting this stage changes in the cell's engine
    /// configuration: the Tangram scheduler runs admission-aware exactly
    /// when the stage says so.
    pub fn configure(&self, config: &mut EngineConfig) {
        config.scheduler_admission_aware = self.admission_aware;
    }

    /// Builds the engine-side ingress. `tenant_slos_s` is the cell's
    /// tenant mix (the scenario axis); a cell without one runs a single
    /// class at `default_slo_s`.
    #[must_use]
    pub fn build(&self, tenant_slos_s: &[f64], default_slo_s: f64) -> DrrIngress {
        let mut slos: Vec<f64> = if tenant_slos_s.is_empty() {
            vec![default_slo_s]
        } else {
            tenant_slos_s.to_vec()
        };
        slos.sort_by(|a, b| a.partial_cmp(b).expect("finite SLO"));
        slos.dedup();
        let classes = slos
            .iter()
            .enumerate()
            .map(|(i, &slo_s)| {
                (
                    SimDuration::from_secs_f64(slo_s),
                    self.weights.get(i).copied().unwrap_or(1.0),
                )
            })
            .collect();
        DrrIngress::new(&DrrConfig {
            classes,
            queue_capacity: self.queue_capacity,
            quantum: self.quantum,
            tick: SimDuration::from_secs_f64(self.tick_s),
        })
    }
}

/// A declarative experiment: the cartesian product of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Experiment name; `BENCH_<name>.json` is derived from it.
    pub name: String,
    /// Policies under test.
    pub policies: Vec<PolicyKind>,
    /// Replicate seeds; every derived stream forks from these.
    pub seeds: Vec<u64>,
    /// SLO axis, seconds.
    pub slos_s: Vec<f64>,
    /// Uplink bandwidth axis, Mbps.
    pub bandwidths_mbps: Vec<f64>,
    /// Estimator slack-multiplier axis (the paper's k; usually `[3.0]`).
    pub sigma_multipliers: Vec<f64>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Backend instance-cap override for every cell. `None` keeps the
    /// engine default.
    pub max_instances: Option<usize>,
    /// Streaming-scenario axis: empty (the default) replays traces
    /// through the legacy batch path; non-empty runs every cell on the
    /// event-driven engine with generated arrivals, churn and tenants,
    /// once per scenario (cross-product with every other axis).
    pub scenarios: Vec<ScenarioSpec>,
    /// Admission-control axis: empty (the default) runs with no ingress
    /// policy; non-empty crosses every cell with each policy.
    pub admission: Vec<AdmissionSpec>,
    /// Fair-ingress axis: empty (the default) feeds admitted arrivals to
    /// the policy directly; non-empty crosses every cell with each
    /// weighted-DRR stage.
    pub fairness: Vec<FairnessSpec>,
    /// Record a runtime event trace per cell (see `tangram_trace`).
    /// Execution-only: the flag is *not* part of the serialized
    /// `BENCH_*.json` grid echo, because trace capture never changes
    /// report bytes.
    pub capture_traces: bool,
}

impl SweepGrid {
    /// A grid with empty axes (fill in what the experiment sweeps;
    /// `sigma_multipliers` defaults to the paper's k = 3).
    #[must_use]
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            policies: Vec::new(),
            seeds: Vec::new(),
            slos_s: Vec::new(),
            bandwidths_mbps: Vec::new(),
            sigma_multipliers: vec![3.0],
            workloads: Vec::new(),
            max_instances: None,
            scenarios: Vec::new(),
            admission: Vec::new(),
            fairness: Vec::new(),
            capture_traces: false,
        }
    }

    /// Number of cells the product spans.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.workloads.len()
            * self.scenarios.len().max(1)
            * self.policies.len()
            * self.bandwidths_mbps.len()
            * self.slos_s.len()
            * self.sigma_multipliers.len()
            * self.seeds.len()
            * self.admission.len().max(1)
            * self.fairness.len().max(1)
    }

    /// Enumerates every cell in a fixed order (workload-major, then
    /// scenario, policy, bandwidth, SLO, sigma, seed, admission,
    /// fairness; absent scenario/admission/fairness axes contribute a
    /// single pass-through iteration, so legacy grids keep their exact
    /// cell order). The order — and everything else about a cell — is
    /// independent of how many workers later run it.
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        // Optional axes iterate once as `None` when unset.
        let opt = |len: usize| -> Vec<Option<usize>> {
            if len == 0 {
                vec![None]
            } else {
                (0..len).map(Some).collect()
            }
        };
        let scenario_axis = opt(self.scenarios.len());
        let admission_axis = opt(self.admission.len());
        let fairness_axis = opt(self.fairness.len());
        let mut cells = Vec::with_capacity(self.cell_count());
        for (workload_index, _) in self.workloads.iter().enumerate() {
            for &scenario_index in &scenario_axis {
                for &policy in &self.policies {
                    for &bandwidth_mbps in &self.bandwidths_mbps {
                        for &slo_s in &self.slos_s {
                            for &sigma_multiplier in &self.sigma_multipliers {
                                for &seed in &self.seeds {
                                    for &admission_index in &admission_axis {
                                        for &fairness_index in &fairness_axis {
                                            let root = DetRng::new(seed);
                                            cells.push(SweepCell {
                                                index: cells.len(),
                                                policy,
                                                seed,
                                                slo_s,
                                                bandwidth_mbps,
                                                sigma_multiplier,
                                                workload_index,
                                                scenario_index,
                                                admission_index,
                                                fairness_index,
                                                trace_seed: root.derive_seed(
                                                    "harness-trace",
                                                    workload_index as u64,
                                                ),
                                                engine_seed: root.derive_seed(
                                                    "harness-engine",
                                                    workload_index as u64,
                                                ),
                                                max_instances: self.max_instances,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// MArk's per-bandwidth timeout `(bandwidth_mbps, timeout_s)` ("an
/// appropriate timeout for each bandwidth setting", §V-A): fixed per
/// bandwidth, unaware of the SLO, which is exactly the knob-tuning burden
/// Tangram removes. A cell at an unlisted bandwidth leaves
/// [`EngineConfig::mark_timeout`] `None`, so the engine falls back to
/// half the SLO.
const MARK_TIMEOUTS_S: [(f64, f64); 3] = [(20.0, 0.55), (40.0, 0.45), (80.0, 0.35)];

/// One fully-resolved cell of a [`SweepGrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in [`SweepGrid::cells`] order.
    pub index: usize,
    /// Policy under test.
    pub policy: PolicyKind,
    /// The seed-axis value this cell replicates.
    pub seed: u64,
    /// SLO, seconds.
    pub slo_s: f64,
    /// Uplink bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Estimator slack multiplier.
    pub sigma_multiplier: f64,
    /// Index into [`SweepGrid::workloads`].
    pub workload_index: usize,
    /// Index into [`SweepGrid::scenarios`] (`None` = trace replay).
    pub scenario_index: Option<usize>,
    /// Index into [`SweepGrid::admission`] (`None` = no ingress policy).
    pub admission_index: Option<usize>,
    /// Index into [`SweepGrid::fairness`] (`None` = no fair ingress).
    pub fairness_index: Option<usize>,
    /// Derived seed for workload/trace construction (shared across
    /// policies at the same workload × seed).
    pub trace_seed: u64,
    /// Derived seed for the engine's stochastic substrates.
    pub engine_seed: u64,
    /// Instance-cap override.
    pub max_instances: Option<usize>,
}

impl SweepCell {
    /// Materialises the engine configuration for this cell.
    #[must_use]
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig {
            policy: self.policy,
            slo: SimDuration::from_secs_f64(self.slo_s),
            bandwidth_mbps: self.bandwidth_mbps,
            sigma_multiplier: self.sigma_multiplier,
            mark_timeout: MARK_TIMEOUTS_S
                .iter()
                .find(|(bw, _)| (bw - self.bandwidth_mbps).abs() < 1e-9)
                .map(|&(_, t)| SimDuration::from_secs_f64(t)),
            seed: self.engine_seed,
            ..EngineConfig::default()
        };
        if let Some(cap) = self.max_instances {
            config.max_instances = Some(cap);
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        let mut grid = SweepGrid::named("tiny");
        grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
        grid.seeds = vec![7, 8];
        grid.slos_s = vec![1.0];
        grid.bandwidths_mbps = vec![20.0, 40.0];
        grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 10, TraceKind::Proxy)];
        grid
    }

    #[test]
    fn cell_count_matches_product() {
        let grid = tiny_grid();
        assert_eq!(grid.cell_count(), 2 * 2 * 2);
        assert_eq!(grid.cells().len(), grid.cell_count());
    }

    #[test]
    fn cell_indices_are_dense_and_ordered() {
        let cells = tiny_grid().cells();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn trace_seed_is_paired_across_policies() {
        let cells = tiny_grid().cells();
        let tangram: Vec<_> = cells
            .iter()
            .filter(|c| c.policy == PolicyKind::Tangram && c.seed == 7)
            .collect();
        let elf: Vec<_> = cells
            .iter()
            .filter(|c| c.policy == PolicyKind::Elf && c.seed == 7)
            .collect();
        assert_eq!(tangram[0].trace_seed, elf[0].trace_seed);
        assert_eq!(tangram[0].engine_seed, elf[0].engine_seed);
        // …but replicate seeds decorrelate.
        let other: Vec<_> = cells.iter().filter(|c| c.seed == 8).collect();
        assert_ne!(tangram[0].trace_seed, other[0].trace_seed);
    }

    #[test]
    fn mark_timeout_lookup() {
        let mut grid = tiny_grid();
        grid.policies = vec![PolicyKind::Mark];
        grid.seeds = vec![7];
        grid.bandwidths_mbps = vec![20.0, 40.0, 80.0, 200.0];
        let timeouts: Vec<Option<SimDuration>> = grid
            .cells()
            .iter()
            .map(|cell| cell.engine_config().mark_timeout)
            .collect();
        let secs = |t: f64| Some(SimDuration::from_secs_f64(t));
        assert_eq!(timeouts, [secs(0.55), secs(0.45), secs(0.35), None]);
    }

    #[test]
    fn engine_config_reflects_cell() {
        let mut grid = tiny_grid();
        grid.max_instances = Some(3);
        let cell = &grid.cells()[0];
        let config = cell.engine_config();
        assert_eq!(config.policy, cell.policy);
        assert_eq!(config.seed, cell.engine_seed);
        assert_eq!(config.max_instances, Some(3));
        assert!((config.slo.as_secs_f64() - cell.slo_s).abs() < 1e-12);
    }

    #[test]
    fn arrival_specs_map_to_engine_processes() {
        use tangram_core::online::ArrivalProcess;
        assert_eq!(
            ArrivalSpec::Poisson { fps: 5.0 }.process(),
            ArrivalProcess::Poisson { fps: 5.0 }
        );
        assert_eq!(ArrivalSpec::Poisson { fps: 5.0 }.kind(), "poisson");
        assert_eq!(
            ArrivalSpec::Bursty {
                calm_fps: 1.0,
                burst_fps: 9.0,
                mean_calm_s: 2.0,
                mean_burst_s: 0.5
            }
            .kind(),
            "bursty"
        );
        assert_eq!(
            ArrivalSpec::Diurnal {
                min_fps: 1.0,
                max_fps: 8.0,
                period_s: 30.0
            }
            .kind(),
            "diurnal"
        );
    }

    #[test]
    fn grids_default_to_trace_replay() {
        let grid = SweepGrid::named("x");
        assert!(grid.scenarios.is_empty());
        assert!(grid.admission.is_empty());
        assert!(grid.fairness.is_empty());
    }

    #[test]
    fn fairness_axis_multiplies_the_product() {
        let drr = |aware: bool| FairnessSpec {
            weights: vec![3.0, 1.0],
            queue_capacity: 16,
            tick_s: 0.02,
            quantum: 1.0,
            admission_aware: aware,
        };
        let mut grid = tiny_grid();
        let base = grid.cell_count();
        grid.fairness = vec![drr(false), drr(true)];
        assert_eq!(grid.cell_count(), base * 2);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.cell_count());
        // Fairness is the innermost axis; both indices resolve.
        assert_eq!(cells[0].fairness_index, Some(0));
        assert_eq!(cells[1].fairness_index, Some(1));
        assert_eq!(cells[0].policy, cells[1].policy);
        // Paired comparison holds: the fairness axis shares seeds.
        assert_eq!(cells[0].trace_seed, cells[1].trace_seed);
        assert_eq!(cells[0].engine_seed, cells[1].engine_seed);
    }

    #[test]
    fn fairness_specs_build_engine_ingresses() {
        let spec = FairnessSpec {
            weights: vec![3.0, 1.0],
            queue_capacity: 8,
            tick_s: 0.02,
            quantum: 1.0,
            admission_aware: false,
        };
        // Tenant mixes dedup and sort tightest-first; the weights align.
        let ingress = spec.build(&[1.5, 0.8, 1.5], 1.0);
        assert_eq!(ingress.peak_depths().len(), 2);
        assert_eq!(ingress.peak_depths()[0].0, SimDuration::from_secs_f64(0.8));
        // Without a tenant mix the cell's own SLO forms a single class.
        let single = spec.build(&[], 1.0);
        assert_eq!(single.peak_depths(), vec![(SimDuration::from_secs(1), 0)]);
    }

    #[test]
    fn scenario_and_admission_axes_multiply_the_product() {
        use crate::presets::churn_scenario;
        let mut grid = tiny_grid();
        let base = grid.cell_count();
        grid.scenarios = vec![churn_scenario(6.0, 10), churn_scenario(12.0, 10)];
        grid.admission = vec![
            AdmissionSpec::Always,
            AdmissionSpec::SloShedder {
                per_item_s: 0.04,
                pressure: 0.5,
            },
        ];
        assert_eq!(grid.cell_count(), base * 4);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.cell_count());
        // Both optional indices are resolved on every cell, and adjacent
        // cells differ in admission first (innermost axis).
        assert_eq!(cells[0].scenario_index, Some(0));
        assert_eq!(cells[0].admission_index, Some(0));
        assert_eq!(cells[1].admission_index, Some(1));
        assert_eq!(cells[1].scenario_index, Some(0));
        assert!(cells.iter().any(|c| c.scenario_index == Some(1)));
        // Paired comparison holds across the new axes: same workload ×
        // seed × scenario cells share trace and engine seeds.
        assert_eq!(cells[0].trace_seed, cells[1].trace_seed);
        assert_eq!(cells[0].engine_seed, cells[1].engine_seed);
    }

    #[test]
    fn admission_specs_build_engine_policies() {
        assert_eq!(AdmissionSpec::Always.kind(), "always");
        let spec = AdmissionSpec::SloShedder {
            per_item_s: 0.05,
            pressure: 0.5,
        };
        assert_eq!(spec.kind(), "slo-shedder");
        // Policies build without panicking, classes primed or not.
        let _ = AdmissionSpec::Always.build(&[]);
        let _ = spec.build(&[0.8, 1.5]);
    }
}
