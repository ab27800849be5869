//! Declarative scenario files (`config/scenarios/*.toml`).
//!
//! A scenario file is the authoritative, reviewable description of one
//! hard streaming run: the fleet (`[run]`), the streaming shape
//! (`[scenario]` + `[arrival]`), the declarative fault schedule
//! (`[[fault]]`, see [`tangram_core::faults`]), and optional ingress
//! stages (`[admission]`, `[fairness]`). Files are parsed with the
//! line-tracking reader in [`tangram_types::toml`] and validated at load time —
//! unknown keys, out-of-range rates and overlapping same-kind fault
//! windows are rejected with an error naming the offending line, so a
//! bad scenario never silently runs as something else.
//!
//! The grammar:
//!
//! ```toml
//! name = "brownout-squeeze"          # required, non-empty
//! description = "what it stresses"   # required
//!
//! [run]                              # required: the fleet and the cell
//! cameras = 4                        # >= 1
//! pool_frames = 8                    # content pool per camera, >= 1
//! scenes = [1, 2, 3, 4]              # optional; cameras cycle it (1-5)
//! bandwidth_mbps = 80.0              # > 0
//! slo_s = 1.0                        # >= 1e-6 (durations: the 1 µs clock)
//! seed = 42
//! max_instances = 8                  # optional, >= 1
//!
//! [scenario]                         # required: the streaming shape
//! frames_per_camera = 40             # >= 1
//! join_stagger_s = 0.5               # >= 0
//! session_s = 20.0                   # optional, >= 1e-6
//! tenant_slos_s = [0.8, 1.5]         # optional, each >= 1e-6
//!
//! [arrival]                          # required: poisson|bursty|diurnal
//! kind = "poisson"
//! fps = 6.0                          # rates must be in (0, 240]
//!
//! [[fault]]                          # zero or more fault windows
//! kind = "brownout"                  # link_outage | latency_tail |
//! factor = 2.0                       #   cold_start_storm | camera_flap
//! at_s = 4.0                         #   | brownout
//! duration_s = 6.0                   # >= 1e-6; same-kind windows must not overlap
//!
//! [admission]                        # optional ingress stages
//! kind = "slo-shedder"
//! per_item_s = 0.02
//! pressure = 0.5
//!
//! [fairness]
//! weights = [3.0, 1.0]
//! queue_capacity = 16
//! tick_s = 0.02
//! quantum = 0.4
//! admission_aware = true
//! ```

use crate::grid::{AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec};
use crate::json::Json;
use crate::presets::fleet_traces;
use crate::report::{
    admission_to_value, arrival_to_value, fairness_to_value, fault_to_value, run_to_value,
    scenario_to_value,
};
use crate::runner::run_scenario;
use std::path::{Path, PathBuf};
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::faults::{FaultKind, FaultSpec};
use tangram_core::report::RunReport;
use tangram_trace::TraceLog;
use tangram_types::ids::SceneId;
use tangram_types::time::SimDuration;
use tangram_types::toml::{TomlDocument, TomlEntry, TomlError, TomlTable};

/// Camera frame rates past this are rejected as out of range.
pub const MAX_RATE_FPS: f64 = 240.0;

/// The `[run]` table: the fleet and the single cell the scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Fleet size.
    pub cameras: usize,
    /// Content-pool frames per camera (the generator cycles them).
    pub pool_frames: usize,
    /// Scene indices (1-based) the cameras cycle through.
    pub scenes: Vec<u8>,
    /// Uplink bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Cell SLO, seconds.
    pub slo_s: f64,
    /// Engine seed (traces and all stochastic substrates fork from it).
    pub seed: u64,
    /// Backend cap override: `None` keeps the engine default.
    pub max_instances: Option<usize>,
}

/// One fully-parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Stable scenario name (keys `BENCH_scenarios.json` rows).
    pub name: String,
    /// What the scenario stresses, for humans.
    pub description: String,
    /// The fleet and cell.
    pub run: RunSpec,
    /// The streaming shape, fault schedule included.
    pub scenario: ScenarioSpec,
    /// Optional ingress admission policy.
    pub admission: Option<AdmissionSpec>,
    /// Optional weighted-DRR fair ingress.
    pub fairness: Option<FairnessSpec>,
}

impl ScenarioFile {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a [`TomlError`] whose `line` names the offending source
    /// line (the table header line for missing-key errors).
    pub fn parse_str(text: &str) -> Result<ScenarioFile, TomlError> {
        let doc = TomlDocument::parse(text)?;
        check_layout(&doc)?;
        let name = root_string(&doc, "name")?;
        if name.is_empty() {
            return fail(
                doc.root_entry("name").expect("present").line,
                "name is empty",
            );
        }
        let description = root_string(&doc, "description")?;
        let run = parse_run(doc.table("run").ok_or_else(|| missing_table("run"))?)?;
        let arrival = parse_arrival(
            doc.table("arrival")
                .ok_or_else(|| missing_table("arrival"))?,
        )?;
        let scenario = parse_scenario(
            doc.table("scenario")
                .ok_or_else(|| missing_table("scenario"))?,
            arrival,
            parse_faults(&doc.array_tables("fault"))?,
        )?;
        let admission = doc.table("admission").map(parse_admission).transpose()?;
        let fairness = doc.table("fairness").map(parse_fairness).transpose()?;
        Ok(ScenarioFile {
            name,
            description,
            run,
            scenario,
            admission,
            fairness,
        })
    }

    /// Loads and validates one file; errors read `path:line: message`.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or any parse/validation error.
    pub fn load(path: &Path) -> Result<ScenarioFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ScenarioFile::parse_str(&text).map_err(|e| format!("{}:{e}", path.display()))
    }

    /// Loads every `*.toml` under `dir`, sorted by file name (so every
    /// consumer sees the library in the same deterministic order).
    ///
    /// # Errors
    ///
    /// Returns the first I/O or validation error, a message naming both
    /// paths when two files declare one `name` (reports key their rows by
    /// it), or a message when the directory holds no scenario files at
    /// all.
    pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, ScenarioFile)>, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("{}: no scenario files found", dir.display()));
        }
        let mut library: Vec<(PathBuf, ScenarioFile)> = Vec::new();
        for path in paths {
            let file = ScenarioFile::load(&path)?;
            if let Some((first, _)) = library.iter().find(|(_, f)| f.name == file.name) {
                return Err(format!(
                    "{}: duplicate scenario name `{}` (also {})",
                    path.display(),
                    file.name,
                    first.display()
                ));
            }
            library.push((path, file));
        }
        Ok(library)
    }

    /// Renders the canonical TOML form: each table is the BENCH echo of
    /// its spec ([`crate::report`] writes every spec's keys, in order,
    /// once), one `key = value` line per field; strings are TOML-escaped,
    /// floats shortest round-trip, and a `null` or empty array has no
    /// line. `parse_str(to_toml(x)) == x` for any valid file — the
    /// round-trip property `tests/scenario_format.rs` holds the library
    /// to.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let root = Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
        ]);
        write_table(&mut out, None, &root);
        write_table(&mut out, Some("[run]"), &run_to_value(&self.run));
        let s = &self.scenario;
        write_table(&mut out, Some("[scenario]"), &scenario_to_value(s));
        write_table(&mut out, Some("[arrival]"), &arrival_to_value(&s.arrival));
        for fault in &s.faults {
            write_table(&mut out, Some("[[fault]]"), &fault_to_value(fault));
        }
        if let Some(admission) = &self.admission {
            write_table(
                &mut out,
                Some("[admission]"),
                &admission_to_value(admission),
            );
        }
        if let Some(fairness) = &self.fairness {
            write_table(&mut out, Some("[fairness]"), &fairness_to_value(fairness));
        }
        out
    }

    /// The engine configuration of the scenario's single cell (Tangram,
    /// the file's link/SLO/seed, configured by the fairness stage exactly
    /// as the grid runner's cells are).
    #[must_use]
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig {
            policy: PolicyKind::Tangram,
            slo: SimDuration::from_secs_f64(self.run.slo_s),
            bandwidth_mbps: self.run.bandwidth_mbps,
            seed: self.run.seed,
            ..EngineConfig::default()
        };
        if let Some(cap) = self.run.max_instances {
            config.max_instances = Some(cap);
        }
        if let Some(fairness) = &self.fairness {
            fairness.configure(&mut config);
        }
        config
    }

    /// Runs the scenario end to end, optionally capturing the runtime
    /// event trace. Deterministic in the file contents alone.
    #[must_use]
    pub fn run(&self, capture: bool) -> (RunReport, Option<TraceLog>) {
        let run = &self.run;
        let traces = fleet_traces(run.cameras, &run.scenes, run.pool_frames, run.seed);
        run_scenario(
            &self.engine_config(),
            &traces,
            &self.scenario,
            self.admission.as_ref(),
            self.fairness.as_ref(),
            capture,
        )
    }
}

fn fail<T>(line: usize, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError::new(line, message))
}

fn missing_table(name: &str) -> TomlError {
    TomlError::new(1, format!("missing required [{name}] table"))
}

/// Rejects unknown root keys and unknown/mis-shaped tables up front.
fn check_layout(doc: &TomlDocument) -> Result<(), TomlError> {
    for entry in &doc.root {
        let key = entry.key();
        if !matches!(key.as_str(), "name" | "description") {
            return fail(entry.line, format!("unknown top-level key `{key}`"));
        }
    }
    for table in &doc.tables {
        let name = table.name();
        let known_array = match name.as_str() {
            "run" | "scenario" | "arrival" | "admission" | "fairness" => false,
            "fault" => true,
            other => return fail(table.line, format!("unknown table [{other}]")),
        };
        if known_array != table.is_array {
            let want = if known_array {
                format!("[[{name}]]")
            } else {
                format!("[{name}]")
            };
            return fail(table.line, format!("{} should be {want}", table.header()));
        }
    }
    Ok(())
}

fn root_string(doc: &TomlDocument, key: &str) -> Result<String, TomlError> {
    let entry = doc
        .root_entry(key)
        .ok_or_else(|| TomlError::new(1, format!("missing top-level key `{key}`")))?;
    Ok(entry.str()?.to_string())
}

fn positive_f64(entry: &TomlEntry) -> Result<f64, TomlError> {
    let value = entry.f64()?;
    if value > 0.0 {
        Ok(value)
    } else {
        fail(
            entry.line,
            format!("key `{}` must be positive, got {value}", entry.key()),
        )
    }
}

/// The simulator's clock resolution: `SimDuration` counts whole
/// microseconds.
const RESOLUTION_S: f64 = 1e-6;

/// `value`, unless it is a duration the simulator cannot represent: below
/// 1 µs, `SimDuration::from_secs_f64` would round it to zero.
fn resolvable(entry: &TomlEntry, value: f64) -> Result<f64, TomlError> {
    if value >= RESOLUTION_S {
        Ok(value)
    } else {
        fail(
            entry.line,
            format!(
                "key `{}`: {value} s is below the simulator's 1 µs resolution",
                entry.key()
            ),
        )
    }
}

/// A positive duration, seconds, of at least the clock resolution.
fn duration_of(entry: &TomlEntry) -> Result<f64, TomlError> {
    resolvable(entry, positive_f64(entry)?)
}

fn rate_fps(entry: &TomlEntry) -> Result<f64, TomlError> {
    let value = positive_f64(entry)?;
    if value <= MAX_RATE_FPS {
        Ok(value)
    } else {
        fail(
            entry.line,
            format!(
                "key `{}`: rate {value} out of range (0, {MAX_RATE_FPS}]",
                entry.key()
            ),
        )
    }
}

fn count_of(entry: &TomlEntry) -> Result<usize, TomlError> {
    let value = entry.u64()? as usize;
    if value >= 1 {
        Ok(value)
    } else {
        fail(
            entry.line,
            format!("key `{}` must be at least 1", entry.key()),
        )
    }
}

fn positive_f64_list(entry: &TomlEntry) -> Result<Vec<f64>, TomlError> {
    entry
        .array()?
        .iter()
        .map(|item| {
            let value = item.as_f64().filter(|v| v.is_finite() && *v > 0.0);
            value.ok_or_else(|| {
                TomlError::new(
                    entry.line,
                    format!(
                        "key `{}`: every element must be a positive number",
                        entry.key()
                    ),
                )
            })
        })
        .collect()
}

fn parse_run(table: &TomlTable) -> Result<RunSpec, TomlError> {
    table.check_keys(&[
        "cameras",
        "pool_frames",
        "scenes",
        "bandwidth_mbps",
        "slo_s",
        "seed",
        "max_instances",
    ])?;
    let scenes = match table.get("scenes") {
        None => SceneId::all().map(|s| s.index()).collect(),
        Some(entry) => {
            let items = entry
                .value
                .as_array()
                .ok_or_else(|| TomlError::new(entry.line, "key `scenes`: expected array"))?;
            if items.is_empty() {
                return fail(entry.line, "key `scenes` is empty");
            }
            let count = SceneId::all().count() as u64;
            items
                .iter()
                .map(|item| match item.as_u64() {
                    Some(n) if (1..=count).contains(&n) => Ok(n as u8),
                    _ => fail(
                        entry.line,
                        format!("key `scenes`: every element must be an integer in 1..={count}"),
                    ),
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    Ok(RunSpec {
        cameras: count_of(table.require("cameras")?)?,
        pool_frames: count_of(table.require("pool_frames")?)?,
        scenes,
        bandwidth_mbps: positive_f64(table.require("bandwidth_mbps")?)?,
        slo_s: duration_of(table.require("slo_s")?)?,
        seed: table.require("seed")?.u64()?,
        max_instances: table.get("max_instances").map(count_of).transpose()?,
    })
}

fn parse_arrival(table: &TomlTable) -> Result<ArrivalSpec, TomlError> {
    let kind = table.require("kind")?;
    match kind.str()? {
        "poisson" => {
            table.check_keys(&["kind", "fps"])?;
            Ok(ArrivalSpec::Poisson {
                fps: rate_fps(table.require("fps")?)?,
            })
        }
        "bursty" => {
            table.check_keys(&[
                "kind",
                "calm_fps",
                "burst_fps",
                "mean_calm_s",
                "mean_burst_s",
            ])?;
            Ok(ArrivalSpec::Bursty {
                calm_fps: rate_fps(table.require("calm_fps")?)?,
                burst_fps: rate_fps(table.require("burst_fps")?)?,
                mean_calm_s: positive_f64(table.require("mean_calm_s")?)?,
                mean_burst_s: positive_f64(table.require("mean_burst_s")?)?,
            })
        }
        "diurnal" => {
            table.check_keys(&["kind", "min_fps", "max_fps", "period_s"])?;
            let min_entry = table.require("min_fps")?;
            let min_fps = rate_fps(min_entry)?;
            let max_fps = rate_fps(table.require("max_fps")?)?;
            if min_fps > max_fps {
                return fail(
                    min_entry.line,
                    format!("min_fps {min_fps} exceeds max_fps {max_fps}"),
                );
            }
            Ok(ArrivalSpec::Diurnal {
                min_fps,
                max_fps,
                period_s: positive_f64(table.require("period_s")?)?,
            })
        }
        other => fail(
            kind.line,
            format!("unknown arrival kind `{other}` (poisson | bursty | diurnal)"),
        ),
    }
}

fn parse_scenario(
    table: &TomlTable,
    arrival: ArrivalSpec,
    faults: Vec<FaultSpec>,
) -> Result<ScenarioSpec, TomlError> {
    table.check_keys(&[
        "frames_per_camera",
        "join_stagger_s",
        "session_s",
        "tenant_slos_s",
    ])?;
    let stagger_entry = table.require("join_stagger_s")?;
    let join_stagger_s = stagger_entry.f64()?;
    if join_stagger_s < 0.0 {
        return fail(stagger_entry.line, "key `join_stagger_s` must be >= 0");
    }
    Ok(ScenarioSpec {
        arrival,
        frames_per_camera: count_of(table.require("frames_per_camera")?)?,
        join_stagger_s,
        session_s: table.get("session_s").map(duration_of).transpose()?,
        tenant_slos_s: match table.get("tenant_slos_s") {
            None => Vec::new(),
            Some(entry) => positive_f64_list(entry)?
                .into_iter()
                .map(|slo_s| resolvable(entry, slo_s))
                .collect::<Result<_, _>>()?,
        },
        faults,
    })
}

fn parse_faults(tables: &[&TomlTable]) -> Result<Vec<FaultSpec>, TomlError> {
    let mut faults = Vec::with_capacity(tables.len());
    // (kind name, start, end, header line) of every accepted window, for
    // the same-kind overlap check.
    let mut windows: Vec<(&'static str, f64, f64, usize)> = Vec::new();
    for table in tables {
        let kind_entry = table.require("kind")?;
        let kind = match kind_entry.str()? {
            "link_outage" => {
                table.check_keys(&["kind", "at_s", "duration_s"])?;
                FaultKind::LinkOutage
            }
            "cold_start_storm" => {
                table.check_keys(&["kind", "at_s", "duration_s"])?;
                FaultKind::ColdStartStorm
            }
            "latency_tail" => {
                table.check_keys(&["kind", "factor", "at_s", "duration_s"])?;
                FaultKind::LatencyTail {
                    factor: slowdown_factor(table.require("factor")?)?,
                }
            }
            "brownout" => {
                table.check_keys(&["kind", "factor", "at_s", "duration_s"])?;
                FaultKind::Brownout {
                    factor: slowdown_factor(table.require("factor")?)?,
                }
            }
            "camera_flap" => {
                table.check_keys(&["kind", "mean_up_s", "mean_down_s", "at_s", "duration_s"])?;
                FaultKind::CameraFlap {
                    mean_up_s: positive_f64(table.require("mean_up_s")?)?,
                    mean_down_s: positive_f64(table.require("mean_down_s")?)?,
                }
            }
            other => {
                return fail(
                    kind_entry.line,
                    format!(
                        "unknown fault kind `{other}` (link_outage | latency_tail | \
                         cold_start_storm | camera_flap | brownout)"
                    ),
                )
            }
        };
        let at_entry = table.require("at_s")?;
        let at_s = at_entry.f64()?;
        if at_s < 0.0 {
            return fail(at_entry.line, "key `at_s` must be >= 0");
        }
        let duration_s = duration_of(table.require("duration_s")?)?;
        let (start, end) = (at_s, at_s + duration_s);
        let name = kind.name();
        if let Some((_, other_start, _, other_line)) = windows
            .iter()
            .find(|(k, s, e, _)| *k == name && start < *e && *s < end)
        {
            return fail(
                table.line,
                format!(
                    "{name} window [{start}s, {end}s) overlaps the {name} window \
                     starting at {other_start}s (line {other_line})"
                ),
            );
        }
        windows.push((name, start, end, table.line));
        faults.push(FaultSpec {
            kind,
            at_s,
            duration_s,
        });
    }
    Ok(faults)
}

/// Latency-tail and brownout factors scale execution up; a factor below
/// 1 would be a speedup, which is never a fault.
fn slowdown_factor(entry: &TomlEntry) -> Result<f64, TomlError> {
    let value = entry.f64()?;
    if value >= 1.0 {
        Ok(value)
    } else {
        fail(
            entry.line,
            format!("key `factor` must be >= 1 (a slowdown), got {value}"),
        )
    }
}

fn parse_admission(table: &TomlTable) -> Result<AdmissionSpec, TomlError> {
    let kind = table.require("kind")?;
    match kind.str()? {
        "always" => {
            table.check_keys(&["kind"])?;
            Ok(AdmissionSpec::Always)
        }
        "slo-shedder" => {
            table.check_keys(&["kind", "per_item_s", "pressure"])?;
            let pressure_entry = table.require("pressure")?;
            let pressure = positive_f64(pressure_entry)?;
            if pressure > 1.0 {
                return fail(
                    pressure_entry.line,
                    format!("key `pressure` must be in (0, 1], got {pressure}"),
                );
            }
            Ok(AdmissionSpec::SloShedder {
                per_item_s: duration_of(table.require("per_item_s")?)?,
                pressure,
            })
        }
        other => fail(
            kind.line,
            format!("unknown admission kind `{other}` (always | slo-shedder)"),
        ),
    }
}

fn parse_fairness(table: &TomlTable) -> Result<FairnessSpec, TomlError> {
    table.check_keys(&[
        "weights",
        "queue_capacity",
        "tick_s",
        "quantum",
        "admission_aware",
    ])?;
    let weights_entry = table.require("weights")?;
    let weights = positive_f64_list(weights_entry)?;
    if weights.is_empty() {
        return fail(weights_entry.line, "key `weights` is empty");
    }
    Ok(FairnessSpec {
        weights,
        queue_capacity: count_of(table.require("queue_capacity")?)?,
        tick_s: duration_of(table.require("tick_s")?)?,
        quantum: positive_f64(table.require("quantum")?)?,
        admission_aware: table.require("admission_aware")?.bool()?,
    })
}

/// Writes one table: its header (none for the root) and a `key = value`
/// line per field of `fields`, in order. A `null`, an empty array and a
/// nested table (written as a table of its own) have no line.
fn write_table(out: &mut String, header: Option<&str>, fields: &Json) {
    if let Some(header) = header {
        out.push('\n');
        out.push_str(header);
        out.push('\n');
    }
    let Json::Object(fields) = fields else {
        return;
    };
    for (key, value) in fields {
        if let Some(value) = toml_value(value) {
            out.push_str(&format!("{key} = {value}\n"));
        }
    }
}

/// A scalar or an array of scalars in TOML spelling: strings through
/// [`toml_str`], booleans and numbers through [`Json::render`] (floats in
/// their shortest round-trip form; a spec's floats are finite, as the
/// TOML reader rejects `inf` and `nan`).
fn toml_value(value: &Json) -> Option<String> {
    match value {
        Json::Null | Json::Object(_) => None,
        Json::Array(items) if items.is_empty() => None,
        Json::Array(items) => {
            let items: Option<Vec<String>> = items.iter().map(toml_value).collect();
            items.map(|items| format!("[{}]", items.join(", ")))
        }
        Json::Bool(_) | Json::U64(_) | Json::F64(_) => Some(value.render()),
        Json::Str(s) => Some(toml_str(s)),
    }
}

fn toml_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        "name = \"t\"\ndescription = \"d\"\n\n[run]\ncameras = 2\npool_frames = 4\n\
         bandwidth_mbps = 80.0\nslo_s = 1.0\nseed = 7\n\n[scenario]\nframes_per_camera = 6\n\
         join_stagger_s = 0.0\n\n[arrival]\nkind = \"poisson\"\nfps = 6.0\n"
            .to_string()
    }

    #[test]
    fn minimal_file_parses_with_defaults() {
        let file = ScenarioFile::parse_str(&minimal()).unwrap();
        assert_eq!(file.name, "t");
        let all: Vec<u8> = SceneId::all().map(|s| s.index()).collect();
        assert_eq!(file.run.scenes, all);
        assert_eq!(file.run.max_instances, None);
        assert!(file.scenario.faults.is_empty());
        assert!(file.scenario.tenant_slos_s.is_empty());
        assert!(file.admission.is_none());
        assert!(file.fairness.is_none());
    }

    #[test]
    fn load_dir_rejects_two_files_with_one_name() {
        let dir = std::env::temp_dir().join(format!("tangram-load-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.toml"), minimal()).unwrap();
        assert_eq!(ScenarioFile::load_dir(&dir).unwrap().len(), 1);
        std::fs::write(dir.join("b.toml"), minimal()).unwrap();
        let err = ScenarioFile::load_dir(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("duplicate scenario name `t`"), "{err}");
        assert!(err.contains("a.toml") && err.contains("b.toml"), "{err}");
    }

    #[test]
    fn canonical_writer_round_trips() {
        let text = format!(
            "{}\n[[fault]]\nkind = \"brownout\"\n\
             factor = 2.0\nat_s = 1.0\nduration_s = 2.0\n\n[[fault]]\nkind = \"camera_flap\"\n\
             mean_up_s = 2.0\nmean_down_s = 0.5\nat_s = 0.0\nduration_s = 8.0\n\n[admission]\n\
             kind = \"slo-shedder\"\nper_item_s = 0.02\npressure = 0.5\n\n[fairness]\n\
             weights = [3.0, 1.0]\nqueue_capacity = 16\ntick_s = 0.02\nquantum = 0.4\n\
             admission_aware = true\n",
            minimal().replace(
                "join_stagger_s = 0.0\n",
                "join_stagger_s = 0.0\nsession_s = 9.0\ntenant_slos_s = [0.8, 1.5]\n"
            )
        );
        let file = ScenarioFile::parse_str(&text).unwrap();
        let canonical = file.to_toml();
        let back = ScenarioFile::parse_str(&canonical).unwrap();
        assert_eq!(back, file);
        // The canonical form is a fixed point.
        assert_eq!(back.to_toml(), canonical);
    }

    /// A file that uses every table and every optional key.
    fn every_table() -> ScenarioFile {
        let fault = |kind, at_s, duration_s| FaultSpec {
            kind,
            at_s,
            duration_s,
        };
        ScenarioFile {
            name: "all \"tables\"\tone".to_string(),
            description: "a back\\slash and\na newline".to_string(),
            run: RunSpec {
                cameras: 3,
                pool_frames: 4,
                scenes: vec![2, 5],
                bandwidth_mbps: 80.0,
                slo_s: 1.25,
                seed: 9,
                max_instances: Some(8),
            },
            scenario: ScenarioSpec {
                arrival: ArrivalSpec::Bursty {
                    calm_fps: 2.0,
                    burst_fps: 18.0,
                    mean_calm_s: 3.0,
                    mean_burst_s: 0.5,
                },
                frames_per_camera: 12,
                join_stagger_s: 0.5,
                session_s: Some(9.0),
                tenant_slos_s: vec![0.8, 1.5, 3.0],
                faults: vec![
                    fault(FaultKind::LinkOutage, 1.0, 0.5),
                    fault(FaultKind::LatencyTail { factor: 3.0 }, 0.0, 4.0),
                    fault(FaultKind::ColdStartStorm, 2.0, 1.0),
                    fault(
                        FaultKind::CameraFlap {
                            mean_up_s: 3.0,
                            mean_down_s: 0.25,
                        },
                        0.5,
                        6.0,
                    ),
                    fault(FaultKind::Brownout { factor: 1.5 }, 4.0, 1e-6),
                ],
            },
            admission: Some(AdmissionSpec::SloShedder {
                per_item_s: 0.02,
                pressure: 0.5,
            }),
            fairness: Some(FairnessSpec {
                weights: vec![3.0, 1.0],
                queue_capacity: 16,
                tick_s: 0.02,
                quantum: 0.4,
                admission_aware: true,
            }),
        }
    }

    const EVERY_TABLE: &str = r#"name = "all \"tables\"\tone"
description = "a back\\slash and\na newline"

[run]
cameras = 3
pool_frames = 4
scenes = [2, 5]
bandwidth_mbps = 80.0
slo_s = 1.25
seed = 9
max_instances = 8

[scenario]
frames_per_camera = 12
join_stagger_s = 0.5
session_s = 9.0
tenant_slos_s = [0.8, 1.5, 3.0]

[arrival]
kind = "bursty"
calm_fps = 2.0
burst_fps = 18.0
mean_calm_s = 3.0
mean_burst_s = 0.5

[[fault]]
kind = "link_outage"
at_s = 1.0
duration_s = 0.5

[[fault]]
kind = "latency_tail"
factor = 3.0
at_s = 0.0
duration_s = 4.0

[[fault]]
kind = "cold_start_storm"
at_s = 2.0
duration_s = 1.0

[[fault]]
kind = "camera_flap"
mean_up_s = 3.0
mean_down_s = 0.25
at_s = 0.5
duration_s = 6.0

[[fault]]
kind = "brownout"
factor = 1.5
at_s = 4.0
duration_s = 1e-6

[admission]
kind = "slo-shedder"
per_item_s = 0.02
pressure = 0.5

[fairness]
weights = [3.0, 1.0]
queue_capacity = 16
tick_s = 0.02
quantum = 0.4
admission_aware = true
"#;

    #[test]
    fn to_toml_writes_every_table_byte_for_byte() {
        assert_eq!(every_table().to_toml(), EVERY_TABLE);
        assert_eq!(ScenarioFile::parse_str(EVERY_TABLE).unwrap(), every_table());
    }

    #[test]
    fn every_arrival_fault_and_admission_kind_round_trips() {
        let arrivals = [
            ArrivalSpec::Poisson { fps: 6.0 },
            ArrivalSpec::Bursty {
                calm_fps: 1.5,
                burst_fps: 24.0,
                mean_calm_s: 2.0,
                mean_burst_s: 0.25,
            },
            ArrivalSpec::Diurnal {
                min_fps: 0.5,
                max_fps: 12.0,
                period_s: 30.0,
            },
        ];
        let faults = [
            FaultKind::LinkOutage,
            FaultKind::LatencyTail { factor: 2.5 },
            FaultKind::ColdStartStorm,
            FaultKind::CameraFlap {
                mean_up_s: 4.0,
                mean_down_s: 0.75,
            },
            FaultKind::Brownout { factor: 1.25 },
        ];
        let admissions = [
            AdmissionSpec::Always,
            AdmissionSpec::SloShedder {
                per_item_s: 0.015,
                pressure: 0.75,
            },
        ];
        let mut cases = 0;
        for arrival in arrivals {
            for kind in &faults {
                for admission in admissions {
                    for fairness in [None, every_table().fairness] {
                        let mut file = every_table();
                        file.scenario.arrival = arrival;
                        file.scenario.faults = vec![FaultSpec {
                            kind: kind.clone(),
                            at_s: 0.125,
                            duration_s: 3.5,
                        }];
                        file.admission = Some(admission);
                        file.fairness = fairness;
                        let canonical = file.to_toml();
                        let back = ScenarioFile::parse_str(&canonical)
                            .unwrap_or_else(|e| panic!("{e}\n{canonical}"));
                        assert_eq!(back, file, "{canonical}");
                        assert_eq!(back.to_toml(), canonical);
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 5 * 2 * 2);
    }

    #[test]
    fn durations_below_the_clock_resolution_are_rejected_with_their_line() {
        for (line, bad) in [
            ("slo_s = 1.25", "slo_s = 0.0000004"),
            ("session_s = 9.0", "session_s = 5e-7"),
            (
                "tenant_slos_s = [0.8, 1.5, 3.0]",
                "tenant_slos_s = [0.8, 1e-9]",
            ),
            ("duration_s = 0.5", "duration_s = 0.0000009"),
            ("per_item_s = 0.02", "per_item_s = 1e-7"),
            ("tick_s = 0.02", "tick_s = 0.0000001"),
        ] {
            let text = EVERY_TABLE.replacen(line, bad, 1);
            let e = ScenarioFile::parse_str(&text).unwrap_err();
            assert!(
                e.message.contains("below the simulator's 1 µs resolution"),
                "{bad}: {e}"
            );
            let expected = text.lines().position(|l| l == bad).unwrap() + 1;
            assert_eq!(e.line, expected, "{bad}: {e}");
        }
        // Exactly one tick is representable (the golden's last fault).
        assert!(EVERY_TABLE.contains("duration_s = 1e-6"));
    }

    #[test]
    fn values_outside_the_grammar_are_rejected_with_their_line() {
        for (line, bad, needle) in [
            (
                "kind = \"slo-shedder\"",
                "kind = \"queue-depth\"",
                "(always | slo-shedder)",
            ),
            (
                "max_instances = 8",
                "max_instances = \"unlimited\"",
                "max_instances",
            ),
            ("max_instances = 8", "max_instances = 0", "at least 1"),
        ] {
            let text = EVERY_TABLE.replacen(line, bad, 1);
            let e = ScenarioFile::parse_str(&text).unwrap_err();
            assert!(e.message.contains(needle), "{bad}: {e}");
            let expected = text.lines().position(|l| l == bad).unwrap() + 1;
            assert_eq!(e.line, expected, "{bad}: {e}");
        }
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_line() {
        let text = minimal().replace("fps = 6.0", "fps = 6.0\nfpss = 1.0");
        let e = ScenarioFile::parse_str(&text).unwrap_err();
        assert!(e.message.contains("unknown key `fpss` in [arrival]"), "{e}");
        // The named line is the line the bad key sits on.
        let expected_line = text.lines().position(|l| l.starts_with("fpss")).unwrap() + 1;
        assert_eq!(e.line, expected_line, "{e}");
    }

    #[test]
    fn out_of_range_rates_are_rejected() {
        for (bad, needle) in [
            ("fps = -3.0", "must be positive"),
            ("fps = 0.0", "must be positive"),
            ("fps = 961.0", "out of range"),
        ] {
            let text = minimal().replace("fps = 6.0", bad);
            let e = ScenarioFile::parse_str(&text).unwrap_err();
            assert!(e.message.contains(needle), "{bad}: {e}");
        }
    }

    #[test]
    fn overlapping_same_kind_fault_windows_are_rejected() {
        let faults = "\n[[fault]]\nkind = \"link_outage\"\nat_s = 1.0\nduration_s = 2.0\n\
                      \n[[fault]]\nkind = \"link_outage\"\nat_s = 2.5\nduration_s = 1.0\n";
        let text = format!("{}{faults}", minimal());
        let e = ScenarioFile::parse_str(&text).unwrap_err();
        assert!(e.message.contains("overlaps"), "{e}");
        assert!(e.message.contains("link_outage"), "{e}");
        // The error names the second window's header line.
        let second = text.lines().filter(|l| *l == "[[fault]]").count();
        assert_eq!(second, 2);

        // Different kinds may overlap freely; adjacent same-kind windows
        // (half-open) may touch.
        let ok = "\n[[fault]]\nkind = \"link_outage\"\nat_s = 1.0\nduration_s = 2.0\n\
                  \n[[fault]]\nkind = \"brownout\"\nfactor = 2.0\nat_s = 1.5\nduration_s = 2.0\n\
                  \n[[fault]]\nkind = \"link_outage\"\nat_s = 3.0\nduration_s = 1.0\n";
        assert!(ScenarioFile::parse_str(&format!("{}{ok}", minimal())).is_ok());
    }

    #[test]
    fn missing_tables_and_keys_are_rejected() {
        let e = ScenarioFile::parse_str("name = \"x\"\ndescription = \"d\"\n").unwrap_err();
        assert!(e.message.contains("missing required [run]"), "{e}");

        let text = minimal().replace("slo_s = 1.0\n", "");
        let e = ScenarioFile::parse_str(&text).unwrap_err();
        assert!(e.message.contains("missing required key `slo_s`"), "{e}");

        // A table in the wrong shape, and a dotted key, name themselves.
        let e = ScenarioFile::parse_str(&minimal().replace("[run]", "[[run]]")).unwrap_err();
        assert_eq!(e.message, "[[run]] should be [run]");
        let e = ScenarioFile::parse_str(&minimal().replace("seed = 7", "seed.x = 7")).unwrap_err();
        assert_eq!(e.message, "unknown key `seed.x` in [run]");
    }

    #[test]
    fn speedup_factors_are_rejected() {
        let fault =
            "\n[[fault]]\nkind = \"brownout\"\nfactor = 0.5\nat_s = 0.0\nduration_s = 1.0\n";
        let e = ScenarioFile::parse_str(&format!("{}{fault}", minimal())).unwrap_err();
        assert!(e.message.contains("must be >= 1"), "{e}");
    }
}
