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
//! slo_s = 1.0                        # > 0
//! seed = 42
//! max_instances = 8                  # optional; integer or "unlimited"
//!
//! [scenario]                         # required: the streaming shape
//! frames_per_camera = 40             # >= 1
//! join_stagger_s = 0.5               # >= 0
//! session_s = 20.0                   # optional, > 0
//! tenant_slos_s = [0.8, 1.5]         # optional, each > 0
//!
//! [arrival]                          # required: poisson|bursty|diurnal
//! kind = "poisson"
//! fps = 6.0                          # rates must be in (0, 240]
//!
//! [[fault]]                          # zero or more fault windows
//! kind = "brownout"                  # link_outage | latency_tail |
//! factor = 2.0                       #   cold_start_storm | camera_flap
//! at_s = 4.0                         #   | brownout
//! duration_s = 6.0                   # same-kind windows must not overlap
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
use crate::presets::build_trace;
use crate::runner::run_scenario_sharded;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::faults::{FaultKind, FaultSpec};
use tangram_core::report::RunReport;
use tangram_core::workload::CameraTrace;
use tangram_trace::TraceLog;
use tangram_types::ids::{CameraId, SceneId};
use tangram_types::time::SimDuration;
use tangram_types::toml::{TomlDocument, TomlEntry, TomlError, TomlTable, TomlValue};

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
    /// Backend cap override: `None` keeps the engine default,
    /// `Some(None)` is unlimited scale-out.
    pub max_instances: Option<Option<usize>>,
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

    /// Renders the canonical TOML form (stable key order, shortest
    /// round-trip floats). `parse_str(to_toml(x)) == x` for any valid
    /// file — the round-trip property `tests/scenario_format.rs` holds
    /// the library to.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        let _ = writeln!(out, "description = {}", toml_str(&self.description));
        let _ = writeln!(out, "\n[run]");
        let _ = writeln!(out, "cameras = {}", self.run.cameras);
        let _ = writeln!(out, "pool_frames = {}", self.run.pool_frames);
        let _ = writeln!(
            out,
            "scenes = [{}]",
            self.run
                .scenes
                .iter()
                .map(u8::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "bandwidth_mbps = {:?}", self.run.bandwidth_mbps);
        let _ = writeln!(out, "slo_s = {:?}", self.run.slo_s);
        let _ = writeln!(out, "seed = {}", self.run.seed);
        match self.run.max_instances {
            None => {}
            Some(None) => {
                let _ = writeln!(out, "max_instances = \"unlimited\"");
            }
            Some(Some(n)) => {
                let _ = writeln!(out, "max_instances = {n}");
            }
        }
        let s = &self.scenario;
        let _ = writeln!(out, "\n[scenario]");
        let _ = writeln!(out, "frames_per_camera = {}", s.frames_per_camera);
        let _ = writeln!(out, "join_stagger_s = {:?}", s.join_stagger_s);
        if let Some(session_s) = s.session_s {
            let _ = writeln!(out, "session_s = {session_s:?}");
        }
        if !s.tenant_slos_s.is_empty() {
            let _ = writeln!(out, "tenant_slos_s = [{}]", float_list(&s.tenant_slos_s));
        }
        let _ = writeln!(out, "\n[arrival]");
        let _ = writeln!(out, "kind = \"{}\"", s.arrival.kind());
        match s.arrival {
            ArrivalSpec::Poisson { fps } => {
                let _ = writeln!(out, "fps = {fps:?}");
            }
            ArrivalSpec::Bursty {
                calm_fps,
                burst_fps,
                mean_calm_s,
                mean_burst_s,
            } => {
                let _ = writeln!(out, "calm_fps = {calm_fps:?}");
                let _ = writeln!(out, "burst_fps = {burst_fps:?}");
                let _ = writeln!(out, "mean_calm_s = {mean_calm_s:?}");
                let _ = writeln!(out, "mean_burst_s = {mean_burst_s:?}");
            }
            ArrivalSpec::Diurnal {
                min_fps,
                max_fps,
                period_s,
            } => {
                let _ = writeln!(out, "min_fps = {min_fps:?}");
                let _ = writeln!(out, "max_fps = {max_fps:?}");
                let _ = writeln!(out, "period_s = {period_s:?}");
            }
        }
        for fault in &s.faults {
            let _ = writeln!(out, "\n[[fault]]");
            let _ = writeln!(out, "kind = \"{}\"", fault.kind.name());
            match fault.kind {
                FaultKind::LinkOutage | FaultKind::ColdStartStorm => {}
                FaultKind::LatencyTail { factor } | FaultKind::Brownout { factor } => {
                    let _ = writeln!(out, "factor = {factor:?}");
                }
                FaultKind::CameraFlap {
                    mean_up_s,
                    mean_down_s,
                } => {
                    let _ = writeln!(out, "mean_up_s = {mean_up_s:?}");
                    let _ = writeln!(out, "mean_down_s = {mean_down_s:?}");
                }
            }
            let _ = writeln!(out, "at_s = {:?}", fault.at_s);
            let _ = writeln!(out, "duration_s = {:?}", fault.duration_s);
        }
        if let Some(admission) = &self.admission {
            let _ = writeln!(out, "\n[admission]");
            let _ = writeln!(out, "kind = \"{}\"", admission.kind());
            match *admission {
                AdmissionSpec::Always => {}
                AdmissionSpec::QueueDepth { max_queued } => {
                    let _ = writeln!(out, "max_queued = {max_queued}");
                }
                AdmissionSpec::SloShedder {
                    per_item_s,
                    pressure,
                } => {
                    let _ = writeln!(out, "per_item_s = {per_item_s:?}");
                    let _ = writeln!(out, "pressure = {pressure:?}");
                }
            }
        }
        if let Some(fairness) = &self.fairness {
            let _ = writeln!(out, "\n[fairness]");
            let _ = writeln!(out, "weights = [{}]", float_list(&fairness.weights));
            let _ = writeln!(out, "queue_capacity = {}", fairness.queue_capacity);
            let _ = writeln!(out, "tick_s = {:?}", fairness.tick_s);
            let _ = writeln!(out, "quantum = {:?}", fairness.quantum);
            let _ = writeln!(out, "admission_aware = {}", fairness.admission_aware);
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
            config.max_instances = cap;
        }
        if let Some(fairness) = &self.fairness {
            fairness.configure(&mut config);
        }
        config
    }

    /// Builds the fleet's content pools: `cameras` proxy traces cycling
    /// the file's scene list, camera ids re-stamped per index so cameras
    /// sharing a scene keep distinct identities (and distinct patch
    /// ids). A single-scene list is the content-correlated stitcher
    /// stress: every camera offers patches from the same scene geometry.
    #[must_use]
    pub fn build_traces(&self) -> Vec<CameraTrace> {
        (0..self.run.cameras)
            .map(|cam| {
                let scene = SceneId::new(self.run.scenes[cam % self.run.scenes.len()]);
                let mut trace = build_trace(
                    scene,
                    self.run.pool_frames,
                    self.run.seed,
                    crate::grid::TraceKind::Proxy,
                );
                trace.camera = CameraId::new(cam as u32);
                trace
            })
            .collect()
    }

    /// Runs the scenario end to end on `shards` engine shards,
    /// optionally capturing the runtime event trace. Deterministic in
    /// the file contents alone: byte-identical report and trace at any
    /// shard count.
    #[must_use]
    pub fn run(&self, capture: bool, shards: usize) -> (RunReport, Option<TraceLog>) {
        let traces = self.build_traces();
        run_scenario_sharded(
            &self.engine_config(),
            &traces,
            &self.scenario,
            self.admission.as_ref(),
            self.fairness.as_ref(),
            capture,
            shards,
            None,
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
    let max_instances = match table.get("max_instances") {
        None => None,
        Some(entry) => match &entry.value {
            TomlValue::Str(s) if s == "unlimited" => Some(None),
            TomlValue::Int(_) => Some(Some(count_of(entry)?)),
            other => {
                return fail(
                    entry.line,
                    format!(
                        "key `max_instances`: expected integer or \"unlimited\", got {}",
                        other.type_name()
                    ),
                )
            }
        },
    };
    Ok(RunSpec {
        cameras: count_of(table.require("cameras")?)?,
        pool_frames: count_of(table.require("pool_frames")?)?,
        scenes,
        bandwidth_mbps: positive_f64(table.require("bandwidth_mbps")?)?,
        slo_s: positive_f64(table.require("slo_s")?)?,
        seed: table.require("seed")?.u64()?,
        max_instances,
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
        session_s: table.get("session_s").map(positive_f64).transpose()?,
        tenant_slos_s: table
            .get("tenant_slos_s")
            .map(positive_f64_list)
            .transpose()?
            .unwrap_or_default(),
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
        let duration_s = positive_f64(table.require("duration_s")?)?;
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
        "queue-depth" => {
            table.check_keys(&["kind", "max_queued"])?;
            Ok(AdmissionSpec::QueueDepth {
                max_queued: table.require("max_queued")?.u64()? as usize,
            })
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
                per_item_s: positive_f64(table.require("per_item_s")?)?,
                pressure,
            })
        }
        other => fail(
            kind.line,
            format!("unknown admission kind `{other}` (always | queue-depth | slo-shedder)"),
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
        tick_s: positive_f64(table.require("tick_s")?)?,
        quantum: positive_f64(table.require("quantum")?)?,
        admission_aware: table.require("admission_aware")?.bool()?,
    })
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

fn float_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(", ")
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

    #[test]
    fn scenario_runs_deterministically_across_shards() {
        let fault =
            "\n[[fault]]\nkind = \"brownout\"\nfactor = 2.0\nat_s = 1.0\nduration_s = 3.0\n";
        let file = ScenarioFile::parse_str(&format!("{}{fault}", minimal())).unwrap();
        let (a, _) = file.run(false, 1);
        let (b, _) = file.run(false, 4);
        assert_eq!(a.summarize(), b.summarize());
        assert!(a.frames > 0);
    }
}
