//! Grid execution: fan cells out over the pool, reassemble in order.

use crate::grid::{AdmissionSpec, FairnessSpec, ScenarioSpec, SweepCell, SweepGrid};
use crate::pool::parallel_map;
use crate::presets::build_workload;
use crate::report::{grid_to_value, BenchReport, CellReport};
use std::collections::BTreeMap;
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::online::{GeneratedSource, OnlineEngine, Plan, TenantClass};
use tangram_core::report::RunReport;
use tangram_core::workload::CameraTrace;
use tangram_infer::estimator::LatencyEstimator;
use tangram_sim::rng::DetRng;
use tangram_trace::TraceLog;
use tangram_types::time::{SimDuration, SimTime};

/// One cell's full outcome: the resolved cell plus the engine's complete
/// [`RunReport`] (per-patch and per-batch records included), for
/// experiments that need distributions rather than the scalar digest.
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The engine's full report.
    pub report: RunReport,
    /// The cell's runtime event trace, when the grid opted in with
    /// [`SweepGrid::capture_traces`].
    pub trace: Option<TraceLog>,
}

/// Runs every cell of `grid` on `workers` threads, returning full
/// outcomes in grid enumeration order. Keeps every cell's [`RunReport`]
/// (each `PatchRecord` and `BatchRecord`) alive until the caller drops
/// the list; use [`run_grid`] when the digest is all you read.
///
/// # Panics
///
/// Panics if a cell's engine run panics (the engine asserts on invalid
/// configurations, e.g. an empty workload).
#[must_use]
pub fn run_grid_full(grid: &SweepGrid, workers: usize) -> Vec<CellOutcome> {
    run_cells(grid, workers, |outcome| outcome)
}

/// The one cell runner: each outcome goes to `keep` on the worker that
/// produced it, and what `keep` returns is collected in grid enumeration
/// order. What `keep` lets go of is dropped before the worker pulls its
/// next cell, so a digesting `keep` holds `workers` reports plus the
/// shared inputs at its peak, not one report per cell.
///
/// Two parallel phases: [`prepare`] builds what cells share, then cells
/// run against it, borrowing their traces and copying their latency
/// profile. Both phases are deterministic per item, so the outcome is
/// bit-for-bit identical for any worker count — including `--workers 1`.
fn run_cells<T: Send>(
    grid: &SweepGrid,
    workers: usize,
    keep: impl Fn(CellOutcome) -> T + Sync,
) -> Vec<T> {
    let cells = grid.cells();
    let shared = prepare(grid, &cells, workers);
    parallel_map(cells, workers, |_, cell| {
        let traces = &shared.traces[&(cell.workload_index, cell.trace_seed)];
        let admission = cell.admission_index.map(|i| &grid.admission[i]);
        let fairness = cell.fairness_index.map(|i| &grid.fairness[i]);
        let mut config = cell.engine_config();
        if let Some(spec) = fairness {
            spec.configure(&mut config);
        }
        let estimator = shared.estimator(&config);
        let (report, trace) = match cell.scenario_index.map(|i| &grid.scenarios[i]) {
            // Trace replay, with the cell's ingress stages (if any)
            // installed. Replay cells carry no tenant mix, so the fair
            // ingress runs a single class at the cell SLO.
            None => config.replay(
                traces,
                Plan {
                    admission: admission.map(|spec| spec.build(&[])),
                    fair_ingress: fairness.map(|spec| spec.build(&[], cell.slo_s)),
                    trace: grid.capture_traces,
                    estimator,
                    ..Plan::default()
                },
            ),
            Some(scenario) => stream_scenario(
                &config,
                traces,
                scenario,
                admission,
                fairness,
                grid.capture_traces,
                estimator,
            ),
        };
        keep(CellOutcome {
            cell,
            report,
            trace,
        })
    })
}

/// What a grid's cells share, built once before any of them runs.
struct Shared {
    /// The camera traces of each `(workload, trace_seed)` pair: cells on
    /// the same pair replay the exact same traces — the paired comparison
    /// the paper's per-scene tables need.
    traces: BTreeMap<(usize, u64), Vec<CameraTrace>>,
    /// The Tangram cells' latency profiles, by [`profile_key`].
    estimators: BTreeMap<(u64, u64), LatencyEstimator>,
}

impl Shared {
    /// The profile a cell running `config` receives: a copy of the shared
    /// one for Tangram, `None` for the policies that read none.
    fn estimator(&self, config: &EngineConfig) -> Option<LatencyEstimator> {
        (config.policy == PolicyKind::Tangram)
            .then(|| self.estimators[&profile_key(config)].clone())
    }
}

/// What a grid cell's [`EngineConfig::estimator`] reads that the grid
/// varies: the engine seed, derived from the `(workload, seed)` pair
/// alone, and the σ multiplier. The latency model, canvas and function
/// spec are the defaults in every cell.
fn profile_key(config: &EngineConfig) -> (u64, u64) {
    (config.seed, config.sigma_multiplier.to_bits())
}

/// Phase 1: one parallel job per `(workload, trace_seed)` pair builds the
/// pair's traces and profiles one latency estimator for each σ multiplier
/// its Tangram cells run with — none when the grid has no Tangram cell.
fn prepare(grid: &SweepGrid, cells: &[SweepCell], workers: usize) -> Shared {
    let mut jobs: BTreeMap<(usize, u64), BTreeMap<(u64, u64), EngineConfig>> = BTreeMap::new();
    for cell in cells {
        let profiles = jobs
            .entry((cell.workload_index, cell.trace_seed))
            .or_default();
        if cell.policy == PolicyKind::Tangram {
            let config = cell.engine_config();
            profiles.entry(profile_key(&config)).or_insert(config);
        }
    }
    let built = parallel_map(
        jobs.into_iter().collect(),
        workers,
        |_, ((workload_index, seed), profiles)| {
            let traces = build_workload(&grid.workloads[workload_index], seed);
            let estimators: Vec<_> = profiles
                .into_iter()
                .map(|(key, config)| (key, config.estimator()))
                .collect();
            ((workload_index, seed), traces, estimators)
        },
    );
    let mut shared = Shared {
        traces: BTreeMap::new(),
        estimators: BTreeMap::new(),
    };
    for (pair, traces, estimators) in built {
        shared.traces.insert(pair, traces);
        shared.estimators.extend(estimators);
    }
    shared
}

/// Runs one streaming-scenario cell: the cell's traces become per-camera
/// content pools on an [`OnlineEngine`], cameras join staggered (and
/// leave after their session, when churn is configured), arrival timing
/// comes from the scenario's seeded process, tenant SLO classes are
/// assigned round-robin, and the cell's ingress stages (if any) guard
/// the entrance — the SLO-aware shedder's class table and the weighted
/// DRR's class queues are primed from the scenario's tenant mix.
///
/// Everything is derived from `config.seed` (the cell's engine seed) via
/// labelled forks, so the outcome is independent of which worker thread
/// runs the cell — the same guarantee trace-replay cells have.
#[must_use]
pub fn run_scenario(
    config: &EngineConfig,
    traces: &[CameraTrace],
    scenario: &ScenarioSpec,
    admission: Option<&AdmissionSpec>,
    fairness: Option<&FairnessSpec>,
    capture: bool,
) -> (RunReport, Option<TraceLog>) {
    stream_scenario(config, traces, scenario, admission, fairness, capture, None)
}

/// [`run_scenario`] with the Tangram latency profile taken by the caller
/// (see [`Plan::estimator`]).
fn stream_scenario(
    config: &EngineConfig,
    traces: &[CameraTrace],
    scenario: &ScenarioSpec,
    admission: Option<&AdmissionSpec>,
    fairness: Option<&FairnessSpec>,
    capture: bool,
    estimator: Option<LatencyEstimator>,
) -> (RunReport, Option<TraceLog>) {
    let plan = Plan {
        admission: admission.map(|spec| spec.build(&scenario.tenant_slos_s)),
        fair_ingress: fairness
            .map(|spec| spec.build(&scenario.tenant_slos_s, config.slo.as_secs_f64())),
        faults: scenario.faults.clone(),
        trace: capture,
        estimator,
    };
    let mut engine = OnlineEngine::new(config, plan);
    let root = DetRng::new(config.seed);
    for (cam, trace) in traces.iter().enumerate() {
        let rng = root.fork_indexed("scenario-arrival", cam as u64);
        let mut source = GeneratedSource::new(
            trace,
            scenario.frames_per_camera,
            scenario.arrival.process(),
            rng,
        );
        if !scenario.tenant_slos_s.is_empty() {
            let class = cam % scenario.tenant_slos_s.len();
            let tenant = TenantClass::new(
                &format!("tenant-{class}"),
                SimDuration::from_secs_f64(scenario.tenant_slos_s[class]),
            );
            source = source.with_tenant(&tenant);
        }
        let join = SimTime::from_secs_f64(scenario.join_stagger_s * cam as f64);
        let index = engine.add_camera_at(join, Box::new(source));
        if let Some(session_s) = scenario.session_s {
            engine.remove_camera_at(join + SimDuration::from_secs_f64(session_s), index);
        }
    }
    engine.run()
}

/// [`run_scenario`] under its older eight-argument signature, which the
/// standalone `benchmark/` package still calls. `_shards` and
/// `_credit_window` are ignored: capture runs on the one event loop.
/// ROADMAP item 6(c) deletes this shim together with that caller.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_sharded(
    config: &EngineConfig,
    traces: &[CameraTrace],
    scenario: &ScenarioSpec,
    admission: Option<&AdmissionSpec>,
    fairness: Option<&FairnessSpec>,
    capture: bool,
    _shards: usize,
    _credit_window: Option<usize>,
) -> (RunReport, Option<TraceLog>) {
    run_scenario(config, traces, scenario, admission, fairness, capture)
}

/// One cell's row of the [`BenchReport`]: its coordinates on the grid's
/// axes and the scalar digest of its run.
fn cell_report(outcome: &CellOutcome) -> CellReport {
    let cell = &outcome.cell;
    let axis = |index: Option<usize>| index.map(|i| i as u64);
    CellReport {
        index: cell.index as u64,
        seed: cell.seed,
        slo_s: cell.slo_s,
        bandwidth_mbps: cell.bandwidth_mbps,
        sigma_multiplier: cell.sigma_multiplier,
        workload: cell.workload_index as u64,
        scenario: axis(cell.scenario_index),
        admission: axis(cell.admission_index),
        fairness: axis(cell.fairness_index),
        metrics: outcome.report.summarize(),
    }
}

/// Collapses full outcomes into the serialisable [`BenchReport`], for a
/// caller that reads the full records *and* writes the digest.
#[must_use]
pub fn bench_report(grid: &SweepGrid, outcomes: &[CellOutcome]) -> BenchReport {
    BenchReport {
        name: grid.name.clone(),
        grid: grid_to_value(grid),
        cells: outcomes.iter().map(cell_report).collect(),
    }
}

/// Runs every cell of `grid` and collects the [`BenchReport`] digest,
/// each cell summarised — and its full report dropped — on the worker
/// that ran it. Byte for byte [`bench_report`] of [`run_grid_full`].
#[must_use]
pub fn run_grid(grid: &SweepGrid, workers: usize) -> BenchReport {
    BenchReport {
        name: grid.name.clone(),
        grid: grid_to_value(grid),
        cells: run_cells(grid, workers, |outcome| cell_report(&outcome)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{TraceKind, WorkloadSpec};
    use tangram_types::ids::SceneId;

    fn micro_grid() -> SweepGrid {
        let mut grid = SweepGrid::named("micro");
        grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
        grid.seeds = vec![7];
        grid.slos_s = vec![1.0];
        grid.bandwidths_mbps = vec![40.0];
        grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 6, TraceKind::Proxy)];
        grid
    }

    #[test]
    fn runs_every_cell_in_order() {
        let grid = micro_grid();
        let report = run_grid(&grid, 2);
        assert_eq!(report.cells.len(), grid.cell_count());
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.index, i as u64);
            assert!(cell.metrics.patches > 0, "cell {i} ran the engine");
        }
        let policies: Vec<&str> = report
            .cells
            .iter()
            .map(|c| c.metrics.policy.as_str())
            .collect();
        assert_eq!(policies, ["Tangram", "ELF"]);
    }

    #[test]
    fn parallel_report_matches_sequential_bytes() {
        let grid = micro_grid();
        let sequential = run_grid(&grid, 1);
        let parallel = run_grid(&grid, 4);
        assert_eq!(sequential.to_json(), parallel.to_json());
    }

    #[test]
    fn scenario_cells_run_the_streaming_engine() {
        use crate::grid::{ArrivalSpec, ScenarioSpec};
        let mut grid = micro_grid();
        grid.name = "micro_scenario".to_string();
        grid.workloads = vec![WorkloadSpec {
            scenes: vec![1, 2],
            frames: 4,
            trace: TraceKind::Proxy,
        }];
        grid.scenarios = vec![ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps: 8.0 },
            frames_per_camera: 10,
            join_stagger_s: 0.5,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: Vec::new(),
        }];
        let report = run_grid(&grid, 2);
        for cell in &report.cells {
            // Two cameras × 10 generated frames each.
            assert_eq!(cell.metrics.frames, 20, "cell {}", cell.index);
            assert!(cell.metrics.patches > 0);
            // Two tenant classes stream side by side.
            assert_eq!(cell.metrics.tenants.len(), 2, "cell {}", cell.index);
        }
        // The streaming path keeps the harness guarantee: parallel output
        // is byte-identical to sequential.
        assert_eq!(run_grid(&grid, 1).to_json(), report.to_json());
    }

    #[test]
    fn admission_axis_fans_out_and_always_admit_matches_the_batch_path() {
        use crate::grid::AdmissionSpec;
        let mut grid = micro_grid();
        grid.name = "micro_admission".to_string();
        grid.policies = vec![PolicyKind::Tangram];
        let bare = run_grid(&grid, 2);
        grid.admission = vec![
            AdmissionSpec::Always,
            // A 100 s service time per item dooms every arrival.
            AdmissionSpec::SloShedder {
                per_item_s: 100.0,
                pressure: 1.0,
            },
        ];
        let report = run_grid(&grid, 2);
        assert_eq!(report.cells.len(), 2 * bare.cells.len());
        // The open door over replay sources reproduces the batch digest.
        let always = &report.cells[0];
        assert_eq!(always.admission, Some(0));
        assert_eq!(always.metrics, bare.cells[0].metrics);
        // A shedder that finds every arrival doomed sheds everything.
        let starved = &report.cells[1];
        assert_eq!(starved.admission, Some(1));
        assert_eq!(starved.metrics.patches, 0);
        assert!(starved.metrics.dropped_arrivals > 0);
        // The admission path keeps the worker-count guarantee.
        assert_eq!(run_grid(&grid, 1).to_json(), report.to_json());
    }

    /// Every optional axis swept: two scenarios × two admission
    /// policies × two fairness variants over the micro grid's policies.
    fn axes_grid() -> SweepGrid {
        use crate::grid::{AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec};
        let scenario = |fps: f64| ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps },
            frames_per_camera: 6,
            join_stagger_s: 0.25,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: Vec::new(),
        };
        let drr = |aware: bool| FairnessSpec {
            weights: vec![3.0, 1.0],
            queue_capacity: 16,
            tick_s: 0.02,
            quantum: 1.0,
            admission_aware: aware,
        };
        let mut grid = micro_grid();
        grid.name = "micro_axes".to_string();
        grid.scenarios = vec![scenario(8.0), scenario(12.0)];
        grid.admission = vec![
            AdmissionSpec::Always,
            AdmissionSpec::SloShedder {
                per_item_s: 0.04,
                pressure: 0.5,
            },
        ];
        grid.fairness = vec![drr(false), drr(true)];
        grid
    }

    /// A sweep profiles one latency estimator per key and hands each
    /// Tangram cell a copy, so the key must cover every input of the
    /// profile a lone run would take. Over a grid that varies everything
    /// the profile could read — seeds, SLOs, σ multipliers, and a fair
    /// ingress that switches the scheduler's admission-aware mode on and
    /// off — every Tangram cell receives exactly its own profile, and
    /// every cell reports what a lone replay that profiles for itself
    /// reports.
    #[test]
    fn every_cell_receives_the_profile_it_would_have_taken() {
        let drr = |aware: bool| FairnessSpec {
            weights: vec![1.0],
            queue_capacity: 64,
            tick_s: 0.02,
            quantum: 1.0,
            admission_aware: aware,
        };
        let mut grid = micro_grid();
        grid.name = "micro_profiles".to_string();
        grid.seeds = vec![7, 8];
        grid.slos_s = vec![0.8, 1.5];
        grid.sigma_multipliers = vec![1.0, 3.0];
        grid.fairness = vec![drr(false), drr(true)];
        let cells = grid.cells();
        assert_eq!(cells.len(), 32);
        let shared = prepare(&grid, &cells, 2);
        assert_eq!(shared.estimators.len(), 4, "one profile per seed and σ");
        let mut expected = Vec::new();
        for cell in &cells {
            let fairness = cell.fairness_index.map(|i| &grid.fairness[i]);
            let mut config = cell.engine_config();
            if let Some(spec) = fairness {
                spec.configure(&mut config);
            }
            let own = LatencyEstimator::profile(
                &config.latency_model,
                config.canvas_size,
                config.function_spec.max_canvases().max(1),
                1000,
                config.sigma_multiplier,
                config.seed ^ 0x51ac,
            );
            assert_eq!(
                shared.estimator(&config),
                (cell.policy == PolicyKind::Tangram).then_some(own),
                "cell {}",
                cell.index
            );
            let traces = build_workload(&grid.workloads[cell.workload_index], cell.trace_seed);
            let plan = Plan {
                fair_ingress: fairness.map(|spec| spec.build(&[], cell.slo_s)),
                ..Plan::default()
            };
            expected.push(config.replay(&traces, plan).0.summarize());
        }
        for workers in [1, 2] {
            let report = run_grid(&grid, workers);
            for (cell, expected) in report.cells.iter().zip(&expected) {
                assert_eq!(
                    &cell.metrics, expected,
                    "cell {}, {workers} workers",
                    cell.index
                );
            }
        }
    }

    /// The benchmark's staged pass compares a run through the
    /// eight-argument shim with its own one-worker run: summary, event
    /// count and trace must be exactly `run_scenario`'s.
    #[test]
    fn the_eight_argument_shim_is_run_scenario() {
        use crate::grid::{ArrivalSpec, ScenarioSpec};
        use crate::presets::fleet_traces;
        let config = EngineConfig {
            seed: 7,
            ..EngineConfig::default()
        };
        let traces = fleet_traces(3, &[1, 2, 3], 4, 7);
        let scenario = ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps: 8.0 },
            frames_per_camera: 8,
            join_stagger_s: 0.25,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: Vec::new(),
        };
        let (report, trace) = run_scenario(&config, &traces, &scenario, None, None, true);
        let (shim, shim_trace) =
            run_scenario_sharded(&config, &traces, &scenario, None, None, true, 2, Some(1));
        assert_eq!(shim.summarize(), report.summarize());
        assert_eq!(shim.events_processed, report.events_processed);
        let jsonl = |trace: Option<TraceLog>| trace.expect("capture on").to_jsonl();
        assert_eq!(jsonl(shim_trace), jsonl(trace));
    }

    #[test]
    fn the_two_grid_entry_points_write_the_same_bytes() {
        let grid = axes_grid();
        for workers in [1, 3] {
            let digest = run_grid(&grid, workers);
            assert_eq!(digest.cells.len(), 16);
            assert_eq!(
                digest.to_json(),
                bench_report(&grid, &run_grid_full(&grid, workers)).to_json(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn every_cell_names_all_three_axes_and_each_index_resolves_in_the_echo() {
        use crate::json::Json;
        let grid = axes_grid();
        let report = run_grid(&grid, 2);
        let echoed = |axis: &str, index: Option<u64>| {
            let index = index.unwrap_or_else(|| panic!("a cell without a {axis} coordinate"));
            report.grid.get(axis).and_then(Json::as_array).unwrap()[index as usize].clone()
        };
        let mut triples = Vec::new();
        for (cell, swept) in report.cells.iter().zip(grid.cells()) {
            let at = |index: Option<usize>| index.map(|i| i as u64);
            assert_eq!(cell.scenario, at(swept.scenario_index));
            assert_eq!(cell.admission, at(swept.admission_index));
            assert_eq!(cell.fairness, at(swept.fairness_index));
            let scenario = &grid.scenarios[swept.scenario_index.unwrap()];
            let admission = &grid.admission[swept.admission_index.unwrap()];
            let fairness = &grid.fairness[swept.fairness_index.unwrap()];
            assert_eq!(
                echoed("scenarios", cell.scenario),
                crate::report::scenario_to_value(scenario)
            );
            assert_eq!(
                echoed("admission", cell.admission),
                crate::report::admission_to_value(admission)
            );
            assert_eq!(
                echoed("fairness", cell.fairness),
                crate::report::fairness_to_value(fairness)
            );
            triples.push((
                cell.metrics.policy.clone(),
                cell.scenario,
                cell.admission,
                cell.fairness,
            ));
        }
        // The coordinates tell every cell of a policy apart.
        triples.sort();
        triples.dedup();
        assert_eq!(triples.len(), report.cells.len());
    }
}
