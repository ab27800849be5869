//! Versioned, machine-readable bench reports.
//!
//! A [`BenchReport`] is what one [`crate::grid::SweepGrid`] run leaves
//! behind: a schema version, an echo of the grid that was swept (so the
//! file is self-describing), and one [`CellReport`] per cell carrying the
//! engine's [`RunSummary`] digest. Serialisation goes through the
//! deterministic JSON writer in [`crate::json`], so the same run always
//! produces the same bytes — which is what lets `baselines check` hold a
//! regenerated `BENCH_smoke.json` byte-equal to the committed one, and
//! what the parallel-equals-sequential test asserts byte-for-byte.
//!
//! The `*_to_value` functions here are the one field list of each
//! declarative spec (arrival, fault, admission, fairness, scenario and a
//! scenario file's `[run]`): the grid echo is built from them, and
//! [`crate::scenario_file::ScenarioFile::to_toml`] renders the same
//! values as TOML tables.
//!
//! Nothing wall-clock-dependent is recorded: `throughput_pps` is patches
//! per *simulated* second, so a scheduling regression moves it while the
//! host machine's speed cannot.

use crate::grid::{
    AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec, SweepGrid, WorkloadSpec,
};
use crate::json::Json;
use crate::scenario_file::RunSpec;
use tangram_core::faults::{FaultKind, FaultSpec};
use tangram_core::report::{RunSummary, TenantSummary};

/// Version stamped into every `BENCH_*.json`; bump on any field change.
/// v2 added drop accounting (`dropped_arrivals`, `tenants`) to the
/// per-cell metrics and the scenario/admission sweep axes to the grid.
/// v3 added per-class fair-ingress queue accounting (`peak_queued` on
/// every tenant row) and the weighted-DRR `fairness` sweep axis.
/// v4 added declarative fault injection (`faults` on every scenario,
/// emitted only when non-empty) and made weighted-DRR work-conserving,
/// which moves fairness-axis metrics.
/// v5 is one shape for every grid: `scenarios`, `admission` and
/// `fairness` are always arrays (possibly empty; the singular `scenario`
/// form is gone), every scenario carries `faults`, the fairness echo
/// drops its constant `kind`, and every cell names its `scenario`,
/// `admission` and `fairness` coordinates as an axis index or `null`.
/// v6 drops two grid keys no grid ever varied: `mark_timeouts_s` (MArk's
/// per-bandwidth timeout is one fixed table, applied by
/// [`crate::grid::SweepCell::engine_config`]) and `max_fps` (always
/// `null`).
pub const SCHEMA_VERSION: u64 = 6;

/// One cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Position in grid enumeration order.
    pub index: u64,
    /// Seed-axis value.
    pub seed: u64,
    /// SLO, seconds.
    pub slo_s: f64,
    /// Uplink bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Estimator slack multiplier.
    pub sigma_multiplier: f64,
    /// Index into the grid's workload axis.
    pub workload: u64,
    /// Index into the grid's scenario axis (`None` = trace replay).
    pub scenario: Option<u64>,
    /// Index into the grid's admission axis (`None` = no ingress policy).
    pub admission: Option<u64>,
    /// Index into the grid's fairness axis (`None` = no fair ingress).
    pub fairness: Option<u64>,
    /// The engine's scalar digest (policy name included).
    pub metrics: RunSummary,
}

/// The full outcome of one grid run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Experiment name (`BENCH_<name>.json`).
    pub name: String,
    /// The grid that was swept, as its rendered echo ([`grid_to_value`]):
    /// nothing reads a parsed report's grid back into a typed
    /// [`SweepGrid`], so the report carries what the file carries.
    pub grid: Json,
    /// Per-cell outcomes, in grid enumeration order.
    pub cells: Vec<CellReport>,
}

impl BenchReport {
    /// The canonical file name for this report.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serialises to deterministic, pretty-printed JSON (with a trailing
    /// newline, as checked-in baselines want).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = self.to_value().render();
        text.push('\n');
        text
    }

    /// Parses a report back, validating the schema version.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing/unknown field, or a
    /// schema-version mismatch.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = Json::parse(text)?;
        let version = value
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let grid = match value.get("grid") {
            Some(grid @ Json::Object(_)) => grid.clone(),
            Some(_) => return Err("grid is not an object".to_string()),
            None => return Err("missing grid".to_string()),
        };
        let cells = value
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("missing cells")?
            .iter()
            .map(cell_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport { name, grid, cells })
    }

    /// The full document as a JSON value.
    #[must_use]
    pub fn to_value(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::U64(SCHEMA_VERSION)),
            ("name", Json::Str(self.name.clone())),
            ("grid", self.grid.clone()),
            (
                "cells",
                Json::Array(self.cells.iter().map(cell_to_value).collect()),
            ),
        ])
    }

    /// Writes `BENCH_<name>.json` under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The grid echo a report carries: every axis, in a fixed key order,
/// empty ones included. The grid's name is omitted (the report's own
/// carries it), as is the execution-only `capture_traces`, which never
/// changes report bytes.
#[must_use]
pub fn grid_to_value(grid: &SweepGrid) -> Json {
    let floats = |values: &[f64]| Json::Array(values.iter().map(|&v| Json::F64(v)).collect());
    Json::object(vec![
        (
            "policies",
            Json::Array(
                grid.policies
                    .iter()
                    .map(|p| Json::Str(p.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "seeds",
            Json::Array(grid.seeds.iter().map(|&s| Json::U64(s)).collect()),
        ),
        ("slos_s", floats(&grid.slos_s)),
        ("bandwidths_mbps", floats(&grid.bandwidths_mbps)),
        ("sigma_multipliers", floats(&grid.sigma_multipliers)),
        (
            "workloads",
            Json::Array(grid.workloads.iter().map(workload_to_value).collect()),
        ),
        ("max_instances", max_instances_to_value(grid.max_instances)),
        (
            "scenarios",
            Json::Array(grid.scenarios.iter().map(scenario_to_value).collect()),
        ),
        (
            "admission",
            Json::Array(grid.admission.iter().map(admission_to_value).collect()),
        ),
        (
            "fairness",
            Json::Array(grid.fairness.iter().map(fairness_to_value).collect()),
        ),
    ])
}

/// A backend-cap override: `null` keeps the engine default, a number is
/// the cap.
fn max_instances_to_value(cap: Option<usize>) -> Json {
    cap.map_or(Json::Null, |n| Json::U64(n as u64))
}

/// A scenario file's `[run]` table.
pub(crate) fn run_to_value(spec: &RunSpec) -> Json {
    Json::object(vec![
        ("cameras", Json::U64(spec.cameras as u64)),
        ("pool_frames", Json::U64(spec.pool_frames as u64)),
        (
            "scenes",
            Json::Array(
                spec.scenes
                    .iter()
                    .map(|&s| Json::U64(u64::from(s)))
                    .collect(),
            ),
        ),
        ("bandwidth_mbps", Json::F64(spec.bandwidth_mbps)),
        ("slo_s", Json::F64(spec.slo_s)),
        ("seed", Json::U64(spec.seed)),
        ("max_instances", max_instances_to_value(spec.max_instances)),
    ])
}

pub(crate) fn fairness_to_value(spec: &FairnessSpec) -> Json {
    Json::object(vec![
        (
            "weights",
            Json::Array(spec.weights.iter().map(|&w| Json::F64(w)).collect()),
        ),
        ("queue_capacity", Json::U64(spec.queue_capacity as u64)),
        ("tick_s", Json::F64(spec.tick_s)),
        ("quantum", Json::F64(spec.quantum)),
        ("admission_aware", Json::Bool(spec.admission_aware)),
    ])
}

pub(crate) fn admission_to_value(spec: &AdmissionSpec) -> Json {
    let mut fields = vec![("kind", Json::Str(spec.kind().to_string()))];
    match *spec {
        AdmissionSpec::Always => {}
        AdmissionSpec::SloShedder {
            per_item_s,
            pressure,
        } => {
            fields.push(("per_item_s", Json::F64(per_item_s)));
            fields.push(("pressure", Json::F64(pressure)));
        }
    }
    Json::object(fields)
}

pub(crate) fn arrival_to_value(spec: &ArrivalSpec) -> Json {
    let mut fields = vec![("kind", Json::Str(spec.kind().to_string()))];
    match *spec {
        ArrivalSpec::Poisson { fps } => fields.push(("fps", Json::F64(fps))),
        ArrivalSpec::Bursty {
            calm_fps,
            burst_fps,
            mean_calm_s,
            mean_burst_s,
        } => {
            fields.push(("calm_fps", Json::F64(calm_fps)));
            fields.push(("burst_fps", Json::F64(burst_fps)));
            fields.push(("mean_calm_s", Json::F64(mean_calm_s)));
            fields.push(("mean_burst_s", Json::F64(mean_burst_s)));
        }
        ArrivalSpec::Diurnal {
            min_fps,
            max_fps,
            period_s,
        } => {
            fields.push(("min_fps", Json::F64(min_fps)));
            fields.push(("max_fps", Json::F64(max_fps)));
            fields.push(("period_s", Json::F64(period_s)));
        }
    }
    Json::object(fields)
}

pub(crate) fn fault_to_value(spec: &FaultSpec) -> Json {
    let mut fields = vec![("kind", Json::Str(spec.kind.name().to_string()))];
    match spec.kind {
        FaultKind::LinkOutage | FaultKind::ColdStartStorm => {}
        FaultKind::LatencyTail { factor } | FaultKind::Brownout { factor } => {
            fields.push(("factor", Json::F64(factor)));
        }
        FaultKind::CameraFlap {
            mean_up_s,
            mean_down_s,
        } => {
            fields.push(("mean_up_s", Json::F64(mean_up_s)));
            fields.push(("mean_down_s", Json::F64(mean_down_s)));
        }
    }
    fields.push(("at_s", Json::F64(spec.at_s)));
    fields.push(("duration_s", Json::F64(spec.duration_s)));
    Json::object(fields)
}

/// A streaming scenario, its `arrival` and `faults` nested.
pub(crate) fn scenario_to_value(spec: &ScenarioSpec) -> Json {
    Json::object(vec![
        ("arrival", arrival_to_value(&spec.arrival)),
        (
            "frames_per_camera",
            Json::U64(spec.frames_per_camera as u64),
        ),
        ("join_stagger_s", Json::F64(spec.join_stagger_s)),
        ("session_s", spec.session_s.map_or(Json::Null, Json::F64)),
        (
            "tenant_slos_s",
            Json::Array(spec.tenant_slos_s.iter().map(|&v| Json::F64(v)).collect()),
        ),
        (
            "faults",
            Json::Array(spec.faults.iter().map(fault_to_value).collect()),
        ),
    ])
}

fn workload_to_value(spec: &WorkloadSpec) -> Json {
    Json::object(vec![
        (
            "scenes",
            Json::Array(
                spec.scenes
                    .iter()
                    .map(|&s| Json::U64(u64::from(s)))
                    .collect(),
            ),
        ),
        ("frames", Json::U64(spec.frames as u64)),
        ("trace", Json::Str(spec.trace.name().to_string())),
    ])
}

fn tenant_to_value(t: &TenantSummary) -> Json {
    Json::object(vec![
        ("slo_s", Json::F64(t.slo_s)),
        ("patches", Json::U64(t.patches)),
        ("violations", Json::U64(t.violations)),
        ("dropped", Json::U64(t.dropped)),
        ("admitted", Json::U64(t.admitted)),
        ("peak_queued", Json::U64(t.peak_queued)),
    ])
}

fn tenant_from_value(value: &Json) -> Result<TenantSummary, String> {
    let u = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing tenant.{key}"))
    };
    Ok(TenantSummary {
        slo_s: value
            .get("slo_s")
            .and_then(Json::as_f64)
            .ok_or("missing tenant.slo_s")?,
        patches: u("patches")?,
        violations: u("violations")?,
        dropped: u("dropped")?,
        admitted: u("admitted")?,
        peak_queued: u("peak_queued")?,
    })
}

fn cell_to_value(cell: &CellReport) -> Json {
    let m = &cell.metrics;
    let axis = |index: Option<u64>| index.map_or(Json::Null, Json::U64);
    Json::object(vec![
        ("index", Json::U64(cell.index)),
        ("policy", Json::Str(m.policy.clone())),
        ("seed", Json::U64(cell.seed)),
        ("slo_s", Json::F64(cell.slo_s)),
        ("bandwidth_mbps", Json::F64(cell.bandwidth_mbps)),
        ("sigma_multiplier", Json::F64(cell.sigma_multiplier)),
        ("workload", Json::U64(cell.workload)),
        ("scenario", axis(cell.scenario)),
        ("admission", axis(cell.admission)),
        ("fairness", axis(cell.fairness)),
        (
            "metrics",
            Json::object(vec![
                ("frames", Json::U64(m.frames)),
                ("patches", Json::U64(m.patches)),
                ("batches", Json::U64(m.batches)),
                ("violations", Json::U64(m.violations)),
                ("dropped_arrivals", Json::U64(m.dropped_arrivals)),
                (
                    "tenants",
                    Json::Array(m.tenants.iter().map(tenant_to_value).collect()),
                ),
                ("slo_attainment", Json::F64(m.slo_attainment)),
                ("mean_latency_s", Json::F64(m.mean_latency_s)),
                ("p50_latency_s", Json::F64(m.p50_latency_s)),
                ("p99_latency_s", Json::F64(m.p99_latency_s)),
                ("cost_usd", Json::F64(m.cost_usd)),
                ("uplink_bytes", Json::U64(m.uplink_bytes)),
                ("invocations", Json::U64(m.invocations)),
                ("cold_starts", Json::U64(m.cold_starts)),
                (
                    "mean_canvas_efficiency",
                    Json::F64(m.mean_canvas_efficiency),
                ),
                (
                    "mean_patches_per_batch",
                    Json::F64(m.mean_patches_per_batch),
                ),
                ("execution_total_s", Json::F64(m.execution_total_s)),
                ("transmission_total_s", Json::F64(m.transmission_total_s)),
                ("makespan_s", Json::F64(m.makespan_s)),
                ("throughput_pps", Json::F64(m.throughput_pps)),
            ]),
        ),
    ])
}

fn cell_from_value(value: &Json) -> Result<CellReport, String> {
    let metrics = value.get("metrics").ok_or("missing cell.metrics")?;
    let mu = |key: &str| -> Result<u64, String> {
        metrics
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing metrics.{key}"))
    };
    let mf = |key: &str| -> Result<f64, String> {
        metrics
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing metrics.{key}"))
    };
    let cu = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing cell.{key}"))
    };
    let cf = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing cell.{key}"))
    };
    let tenants = match metrics.get("tenants") {
        Some(v) => v
            .as_array()
            .ok_or("bad metrics.tenants")?
            .iter()
            .map(tenant_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        None => return Err("missing metrics.tenants".to_string()),
    };
    // An axis coordinate: an index, or `null` off that axis.
    let axis = |key: &str| -> Result<Option<u64>, String> {
        match value.get(key) {
            Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("bad cell.{key}")),
            None => Err(format!("missing cell.{key}")),
        }
    };
    Ok(CellReport {
        index: cu("index")?,
        seed: cu("seed")?,
        slo_s: cf("slo_s")?,
        bandwidth_mbps: cf("bandwidth_mbps")?,
        sigma_multiplier: cf("sigma_multiplier")?,
        workload: cu("workload")?,
        scenario: axis("scenario")?,
        admission: axis("admission")?,
        fairness: axis("fairness")?,
        metrics: RunSummary {
            policy: value
                .get("policy")
                .and_then(Json::as_str)
                .ok_or("missing cell.policy")?
                .to_string(),
            frames: mu("frames")?,
            patches: mu("patches")?,
            batches: mu("batches")?,
            violations: mu("violations")?,
            dropped_arrivals: mu("dropped_arrivals")?,
            tenants,
            slo_attainment: mf("slo_attainment")?,
            mean_latency_s: mf("mean_latency_s")?,
            p50_latency_s: mf("p50_latency_s")?,
            p99_latency_s: mf("p99_latency_s")?,
            cost_usd: mf("cost_usd")?,
            uplink_bytes: mu("uplink_bytes")?,
            invocations: mu("invocations")?,
            cold_starts: mu("cold_starts")?,
            mean_canvas_efficiency: mf("mean_canvas_efficiency")?,
            mean_patches_per_batch: mf("mean_patches_per_batch")?,
            execution_total_s: mf("execution_total_s")?,
            transmission_total_s: mf("transmission_total_s")?,
            makespan_s: mf("makespan_s")?,
            throughput_pps: mf("throughput_pps")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TraceKind;
    use tangram_core::engine::PolicyKind;
    use tangram_types::ids::SceneId;

    fn sample_summary(policy: &str) -> RunSummary {
        RunSummary {
            policy: policy.to_string(),
            frames: 12,
            patches: 100,
            batches: 10,
            violations: 2,
            dropped_arrivals: 3,
            tenants: vec![TenantSummary {
                slo_s: 1.0,
                patches: 100,
                violations: 2,
                dropped: 3,
                admitted: 0,
                peak_queued: 0,
            }],
            slo_attainment: 0.98,
            mean_latency_s: 0.4,
            p50_latency_s: 0.35,
            p99_latency_s: 0.9,
            cost_usd: 0.0123,
            uplink_bytes: 1 << 33,
            invocations: 10,
            cold_starts: 1,
            mean_canvas_efficiency: 0.71,
            mean_patches_per_batch: 10.0,
            execution_total_s: 1.5,
            transmission_total_s: 3.25,
            makespan_s: 14.5,
            throughput_pps: 100.0 / 14.5,
        }
    }

    fn sample_grid() -> SweepGrid {
        let mut grid = SweepGrid::named("smoke");
        grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
        grid.seeds = vec![42];
        grid.slos_s = vec![1.0];
        grid.bandwidths_mbps = vec![20.0, 40.0];
        grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 12, TraceKind::Proxy)];
        grid.max_instances = Some(4);
        grid
    }

    fn sample_report() -> BenchReport {
        report_of(&sample_grid())
    }

    /// What the byte-equality gate (`baselines check`) prints when a
    /// regenerated report is not the committed one: the differing paths.
    fn drift(baseline: &BenchReport, candidate: &BenchReport) -> Vec<String> {
        baseline.to_value().diff(&candidate.to_value())
    }

    fn report_of(grid: &SweepGrid) -> BenchReport {
        BenchReport {
            name: "smoke".to_string(),
            grid: grid_to_value(grid),
            cells: vec![CellReport {
                index: 0,
                seed: 42,
                slo_s: 1.0,
                bandwidth_mbps: 20.0,
                sigma_multiplier: 3.0,
                workload: 0,
                scenario: None,
                admission: None,
                fairness: None,
                metrics: sample_summary("Tangram"),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless_and_stable() {
        let report = sample_report();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
    }

    #[test]
    fn scenario_free_reports_write_empty_axes_and_null_coordinates() {
        // One shape: an unswept axis is an empty array in the grid echo
        // and a `null` coordinate on every cell, never an absent key.
        let text = sample_report().to_json();
        for key in ["scenarios", "admission", "fairness"] {
            assert!(text.contains(&format!("\"{key}\": []")), "{key}");
        }
        for key in ["scenario", "admission", "fairness"] {
            assert!(text.contains(&format!("\"{key}\": null")), "{key}");
        }
    }

    #[test]
    fn a_cell_without_an_axis_coordinate_is_rejected() {
        let text = sample_report().to_json();
        for (key, spelling) in [
            ("scenario", "\"scenario\": null,"),
            ("fairness", "\"fairness\": null,"),
        ] {
            let err = BenchReport::from_json(&text.replace(spelling, "")).unwrap_err();
            assert_eq!(err, format!("missing cell.{key}"));
        }
        let err = BenchReport::from_json(
            &text.replace("\"admission\": null,", "\"admission\": \"always\","),
        )
        .unwrap_err();
        assert_eq!(err, "bad cell.admission");
    }

    #[test]
    fn fairness_grids_round_trip() {
        let mut grid = sample_grid();
        grid.fairness = vec![FairnessSpec {
            weights: vec![3.0, 1.0],
            queue_capacity: 16,
            tick_s: 0.02,
            quantum: 1.5,
            admission_aware: true,
        }];
        let mut report = report_of(&grid);
        report.cells[0].fairness = Some(0);
        report.cells[0].metrics.tenants[0].peak_queued = 16;
        let text = report.to_json();
        assert!(text.contains("\"fairness\""));
        assert!(text.contains("\"admission_aware\": true"));
        assert!(!text.contains("\"drr\""), "no constant kind");
        assert!(text.contains("\"peak_queued\": 16"));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
    }

    #[test]
    fn gate_catches_queue_peak_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.tenants[0].peak_queued = 7;
        assert_eq!(
            drift(&baseline, &candidate),
            ["cells[0].metrics.tenants[0].peak_queued: 0 → 7"]
        );
    }

    #[test]
    fn scenario_grids_round_trip() {
        for arrival in [
            ArrivalSpec::Poisson { fps: 6.0 },
            ArrivalSpec::Bursty {
                calm_fps: 2.0,
                burst_fps: 18.0,
                mean_calm_s: 3.0,
                mean_burst_s: 0.5,
            },
            ArrivalSpec::Diurnal {
                min_fps: 1.0,
                max_fps: 10.0,
                period_s: 60.0,
            },
        ] {
            let mut grid = sample_grid();
            grid.scenarios = vec![ScenarioSpec {
                arrival,
                frames_per_camera: 40,
                join_stagger_s: 2.0,
                session_s: if matches!(arrival, ArrivalSpec::Poisson { .. }) {
                    Some(12.0)
                } else {
                    None
                },
                tenant_slos_s: vec![0.8, 1.5],
                faults: Vec::new(),
            }];
            let mut report = report_of(&grid);
            report.cells[0].scenario = Some(0);
            let text = report.to_json();
            // One scenario is an axis of length one, like any other.
            assert!(text.contains("\"scenarios\": [\n"));
            assert!(!text.contains("\"scenario\": {"));
            assert!(text.contains("\"scenario\": 0"));
            let back = BenchReport::from_json(&text).unwrap();
            assert_eq!(back, report);
            assert_eq!(back.to_json(), text, "render(parse(x)) == x");
        }
    }

    #[test]
    fn faulted_and_fault_free_scenarios_round_trip_with_a_faults_array() {
        let mut grid = sample_grid();
        grid.scenarios = vec![ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps: 6.0 },
            frames_per_camera: 40,
            join_stagger_s: 0.0,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: vec![
                FaultSpec {
                    kind: FaultKind::LinkOutage,
                    at_s: 2.0,
                    duration_s: 1.5,
                },
                FaultSpec {
                    kind: FaultKind::LatencyTail { factor: 3.0 },
                    at_s: 1.0,
                    duration_s: 4.0,
                },
                FaultSpec {
                    kind: FaultKind::ColdStartStorm,
                    at_s: 0.5,
                    duration_s: 2.0,
                },
                FaultSpec {
                    kind: FaultKind::CameraFlap {
                        mean_up_s: 3.0,
                        mean_down_s: 0.5,
                    },
                    at_s: 0.0,
                    duration_s: 10.0,
                },
                FaultSpec {
                    kind: FaultKind::Brownout { factor: 2.0 },
                    at_s: 4.0,
                    duration_s: 3.0,
                },
            ],
        }];
        let report = report_of(&grid);
        let text = report.to_json();
        assert!(text.contains("\"faults\""));
        assert!(text.contains("\"link_outage\""));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");

        // A fault-free scenario carries an empty schedule.
        grid.scenarios[0].faults.clear();
        let report = report_of(&grid);
        let text = report.to_json();
        assert!(text.contains("\"faults\": []"));
        assert_eq!(BenchReport::from_json(&text).unwrap(), report);
    }

    #[test]
    fn multi_scenario_and_admission_grids_round_trip() {
        let scenario = |fps: f64| ScenarioSpec {
            arrival: ArrivalSpec::Poisson { fps },
            frames_per_camera: 30,
            join_stagger_s: 0.0,
            session_s: None,
            tenant_slos_s: vec![0.8, 1.5],
            faults: Vec::new(),
        };
        let mut grid = sample_grid();
        grid.scenarios = vec![scenario(4.0), scenario(16.0)];
        grid.admission = vec![
            AdmissionSpec::Always,
            AdmissionSpec::SloShedder {
                per_item_s: 0.02,
                pressure: 1.0,
            },
            AdmissionSpec::SloShedder {
                per_item_s: 0.04,
                pressure: 0.5,
            },
        ];
        let mut report = report_of(&grid);
        report.cells[0].scenario = Some(1);
        report.cells[0].admission = Some(2);
        let text = report.to_json();
        assert!(text.contains("\"scenarios\""));
        assert!(text.contains("\"scenario\": 1"));
        assert!(text.contains("\"admission\": 2"));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "render(parse(x)) == x");
    }

    #[test]
    fn schema_version_is_enforced() {
        let text = sample_report().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn gate_catches_drop_count_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.dropped_arrivals += 1;
        assert_eq!(
            drift(&baseline, &candidate),
            ["cells[0].metrics.dropped_arrivals: 3 → 4"]
        );

        // Per-class drift is caught even when the totals stay flat.
        let mut reshuffled = baseline.clone();
        reshuffled.cells[0].metrics.tenants[0].dropped += 2;
        assert_eq!(
            drift(&baseline, &reshuffled),
            ["cells[0].metrics.tenants[0].dropped: 3 → 5"]
        );
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let report = sample_report();
        assert!(drift(&report, &report).is_empty());
    }

    #[test]
    fn gate_catches_correctness_drift() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells[0].metrics.cost_usd = 0.0124;
        // Perf metrics are held as exactly as correctness ones: the
        // simulator is deterministic, so a wobble is a behaviour change.
        candidate.cells[0].metrics.p99_latency_s = 0.91;
        assert_eq!(
            drift(&baseline, &candidate),
            [
                "cells[0].metrics.p99_latency_s: 0.9 → 0.91",
                "cells[0].metrics.cost_usd: 0.0123 → 0.0124"
            ]
        );
    }

    #[test]
    fn gate_rejects_a_different_grid_with_the_same_cell_count() {
        let baseline = sample_report();
        // Same shape, other seeds: every cell would line up positionally.
        let mut grid = sample_grid();
        grid.seeds = vec![43];
        let candidate = report_of(&grid);
        assert_eq!(baseline.cells.len(), candidate.cells.len());
        assert_eq!(drift(&baseline, &candidate), ["grid.seeds[0]: 42 → 43"]);

        // An axis only one side sweeps is named too.
        grid.seeds = vec![42];
        grid.admission = vec![AdmissionSpec::Always];
        assert_eq!(
            drift(&baseline, &report_of(&grid)),
            ["grid.admission: [0 items] → [1 items]"]
        );
    }

    #[test]
    fn a_grid_that_is_not_an_object_is_rejected() {
        let text = sample_report().to_json();
        let start = text.find("\"grid\": {").expect("grid echo");
        let end = text.find("\"cells\"").expect("cells follow the grid");
        let broken = format!("{}\"grid\": 7,\n  {}", &text[..start], &text[end..]);
        let err = BenchReport::from_json(&broken).unwrap_err();
        assert!(err.contains("grid is not an object"), "{err}");
    }

    #[test]
    fn gate_flags_grid_shape_change() {
        let baseline = sample_report();
        let mut candidate = baseline.clone();
        candidate.cells.clear();
        assert_eq!(
            drift(&baseline, &candidate),
            ["cells: [1 items] → [0 items]"]
        );
    }
}
