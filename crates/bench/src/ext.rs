//! Rows beyond the paper: the streaming runtime's own experiments —
//! overload with admission control, weighted-DRR fair ingress, camera
//! churn, the sharded city-scale preset and the declarative scenario
//! library. `--quick` runs the CI-sized shape whose report
//! [`crate::baselines::FILES`] pins byte for byte (churn has none); the
//! two shard-oracle rows share their run and their document with that
//! table.

use crate::{heading, same, say, workspace_root, ExpOpts};
use std::io::Write;
use std::path::Path;
use tangram_core::report::{RunReport, RunSummary};
use tangram_core::TenantSummary;
use tangram_harness::json::Json;
use tangram_harness::presets::{
    churn_grid, city_scale_engine, city_scale_scenario, fairness_grid, fleet_traces, overload_grid,
    CITY_SCALE_CAMERAS, CITY_SCALE_SMOKE_CAMERAS, FAIRNESS_RAMP_FPS, FAIRNESS_WEIGHTS,
    TENANT_MIX_SLOS_S,
};
use tangram_harness::{
    run_grid, run_scenario_sharded, table, ArrivalSpec, BenchReport, CellReport, ScenarioFile,
    SweepGrid,
};
use tangram_types::ids::SceneId;

/// Frames per camera of the two ramp rows, and of the baselines that pin
/// their `--quick` grids: `--quick` picks the ramp points, only an
/// explicit `--frames` moves the budget.
pub(crate) const RAMP_FRAMES: usize = 48;

/// Runs a ramp grid (`--out` writes its report): the report and, per
/// cell, the offered load in frames per second over all cameras.
fn run_ramp(grid: &SweepGrid, opts: &ExpOpts, out: &mut dyn Write) -> (BenchReport, Vec<f64>) {
    let report = run_grid(grid, opts.workers());
    opts.maybe_write(&report, out);
    let cameras = grid.workloads[0].scenes.len() as f64;
    let offered = |cell: &CellReport| {
        let scenario = cell.scenario.expect("a ramp cell runs a scenario");
        match grid.scenarios[scenario as usize].arrival {
            ArrivalSpec::Poisson { fps } => fps * cameras,
            _ => f64::NAN,
        }
    };
    let offered = report.cells.iter().map(offered).collect();
    (report, offered)
}

/// The gold and best-effort digests of a cell (absent classes read as
/// all-zero).
fn gold_and_best_effort(metrics: &RunSummary) -> [TenantSummary; 2] {
    let class = |slo_s| metrics.tenants.iter().find(|t| same(t.slo_s, slo_s));
    TENANT_MIX_SLOS_S.map(|slo_s| class(slo_s).cloned().unwrap_or_default())
}

fn attainment(t: &TenantSummary) -> f64 {
    match t.patches {
        0 => 1.0,
        patches => 1.0 - t.violations as f64 / patches as f64,
    }
}

fn drop_rate(t: &TenantSummary) -> f64 {
    match t.patches + t.dropped {
        0 => 0.0,
        offered => t.dropped as f64 / offered as f64,
    }
}

/// SLO attainment against offered load, with the open door (`always`)
/// and with the SLO-aware shedder, gold and best-effort accounted
/// separately.
pub(crate) fn ext_overload(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frames.unwrap_or(RAMP_FRAMES);
    let grid = overload_grid(opts.seed, frames, opts.quick);
    let (report, offered) = run_ramp(&grid, opts, out);

    heading(out, "Overload: attainment vs offered load, by admission");
    let rows = report.cells.iter().zip(&offered).map(|(cell, offered)| {
        let m = &cell.metrics;
        let [gold, be] = gold_and_best_effort(m);
        format!(
            "{offered:.0} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.3}",
            cell.admission
                .map_or("-", |i| grid.admission[i as usize].kind()),
            m.patches + m.dropped_arrivals,
            m.patches,
            m.dropped_arrivals,
            m.slo_attainment * 100.0,
            attainment(&gold) * 100.0,
            drop_rate(&gold) * 100.0,
            drop_rate(&be) * 100.0,
            m.p99_latency_s
        )
    });
    let headers = "offered (fps) | admission | arrivals | served | dropped | attain % \
                   | gold attain % | gold drop % | be drop % | p99 (s)";
    table::write(out, headers, rows);

    // Cells enumerate ramp points with the admission axis innermost:
    // each point is (open door, shedder), overloaded when the shedder
    // sheds there.
    let points = report.cells.chunks(grid.admission.len());
    let points: Vec<_> = points.map(|p| (&p[0].metrics, &p[1].metrics)).collect();
    let overloaded = || points.iter().filter(|(_, shed)| shed.dropped_arrivals > 0);
    let gold_attain = |m: &RunSummary| attainment(&gold_and_best_effort(m)[0]);
    let open_attain = || overloaded().map(|(open, _)| open.slo_attainment);
    vec![
        points.iter().all(|(open, _)| open.dropped_arrivals == 0)
            && open_attain().all(|attain| attain < 0.5)
            && open_attain().is_sorted_by(|a, b| a >= b),
        overloaded().all(|(open, shed)| gold_attain(shed) > gold_attain(open)),
        points.iter().all(|(_, shed)| shed.slo_attainment > 0.85),
        overloaded().all(|(_, shed)| {
            let [gold, be] = gold_and_best_effort(shed);
            drop_rate(&be) > drop_rate(&gold)
        }),
    ]
}

/// The admitted traffic mix against offered load under the 3:1
/// weighted-DRR fair ingress, with admission-aware Tangram scheduling.
pub(crate) fn ext_fairness(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frames.unwrap_or(RAMP_FRAMES);
    let grid = fairness_grid(opts.seed, frames, opts.quick);
    let (report, offered) = run_ramp(&grid, opts, out);

    heading(out, "Fairness: admitted share vs offered load, 3:1 DRR");
    let [gold_w, be_w] = FAIRNESS_WEIGHTS;
    let target = gold_w / (gold_w + be_w) * 100.0;
    // Admitted gold and best-effort shares of a cell, percent.
    let shares = |m: &RunSummary| {
        let admitted = gold_and_best_effort(m).map(|class| class.admitted);
        admitted.map(|class| class as f64 / admitted.iter().sum::<u64>().max(1) as f64 * 100.0)
    };
    let rows = report.cells.iter().zip(&offered).map(|(cell, offered)| {
        let m = &cell.metrics;
        let [gold, be] = gold_and_best_effort(m);
        let [gold_share, be_share] = shares(m);
        format!(
            "{offered:.0} | {} | {} | {} | {gold_share:.1} | {target:.1} | {be_share:.1} | {} | {:.1} | {:.3}",
            m.patches + m.dropped_arrivals,
            gold.admitted + be.admitted,
            m.dropped_arrivals,
            gold.peak_queued,
            m.slo_attainment * 100.0,
            m.p99_latency_s
        )
    });
    let headers = "offered (fps) | arrivals | admitted | dropped | gold adm % | target % \
                   | be adm % | gold peak q | attain % | p99 (s)";
    table::write(out, headers, rows);

    // Past the knee: from the ramp's second point (2× the ingress rate).
    let knee = FAIRNESS_RAMP_FPS[1] * grid.workloads[0].scenes.len() as f64;
    let past_knee = report
        .cells
        .iter()
        .zip(&offered)
        .filter(|(_, &fps)| fps >= knee);
    let off_target: Vec<f64> = past_knee
        .map(|(cell, _)| (target - shares(&cell.metrics)[0]).abs())
        .collect();
    vec![
        off_target.iter().all(|&d| d <= 10.0) && off_target.windows(2).all(|w| w[1] <= w[0]),
        report.cells.iter().all(|c| c.metrics.violations == 0),
    ]
}

/// The four end-to-end systems under camera join/leave: four cameras
/// join 2 s apart, stream Poisson frames at 6 fps and leave 12 s after
/// joining, alternating the gold and best-effort SLOs.
pub(crate) fn ext_churn(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let grid = churn_grid(opts.seed, opts.frame_budget(20, 80));
    let report = run_grid(&grid, opts.workers());
    opts.maybe_write(&report, out);

    heading(out, "Churn: four systems under camera join/leave");
    let rows = report.cells.iter().map(|cell| {
        let m = &cell.metrics;
        format!(
            "{} | {} | {:.0} | {} | {} | {:.1} | {:.4} | {:.3} | {:.1}",
            cell.index,
            m.policy,
            cell.bandwidth_mbps,
            m.frames,
            m.patches,
            (1.0 - m.slo_attainment) * 100.0,
            m.cost_usd,
            m.p99_latency_s,
            m.throughput_pps
        )
    });
    let headers = "cell | policy | bw | frames | patches | viol % | cost $ | p99 (s) | pps";
    table::write(out, headers, rows);

    let scenario = &grid.scenarios[0];
    let budget = (grid.workloads[0].scenes.len() * scenario.frames_per_camera) as u64;
    let is_tangram = |c: &&CellReport| c.metrics.policy == "Tangram";
    let (tangram, others): (Vec<_>, Vec<_>) = report.cells.iter().partition(is_tangram);
    let beats = |t: &CellReport, other: &CellReport| {
        same(t.bandwidth_mbps, other.bandwidth_mbps)
            && t.metrics.slo_attainment > other.metrics.slo_attainment
    };
    vec![
        report.cells.iter().any(|c| c.metrics.frames < budget),
        others.iter().all(|o| tangram.iter().any(|t| beats(t, o))),
    ]
}

/// Runs `what` once per shard count. Every count must reproduce the
/// first (single-shard) run exactly — summary, events, frames, muted
/// frames: a divergence is a correctness bug in the sharded runtime.
///
/// # Errors
///
/// Names `what` and the first shard count whose run differs.
fn shard_oracle(
    what: &str,
    shard_counts: &[usize],
    run: impl Fn(usize) -> RunReport,
) -> Result<RunReport, String> {
    let oracle = run(shard_counts[0]);
    for &shards in &shard_counts[1..] {
        let report = run(shards);
        let counts = |r: &RunReport| (r.events_processed, r.frames, r.frames_muted);
        if report.summarize() != oracle.summarize() || counts(&report) != counts(&oracle) {
            return Err(format!(
                "DETERMINISM VIOLATION: {what} diverged at {shards} shards from the single-shard \
                 oracle"
            ));
        }
    }
    Ok(oracle)
}

/// The city-scale preset (open-loop Poisson cameras, Tangram policy, a
/// wide uplink) at one mode's size, run once per shard count.
pub(crate) struct CityScale {
    mode: &'static str,
    seed: u64,
    cameras: usize,
    frames_per_camera: usize,
    shard_counts: &'static [usize],
}

impl CityScale {
    /// The CI-sized preset (`quick`) or the full one; `frames` overrides
    /// the per-camera budget.
    pub(crate) fn preset(quick: bool, seed: u64, frames: Option<usize>) -> Self {
        let (mode, cameras, budget, shard_counts): (_, _, _, &[usize]) = if quick {
            ("smoke", CITY_SCALE_SMOKE_CAMERAS, 24, &[1, 2])
        } else {
            ("full", CITY_SCALE_CAMERAS, 96, &[1, 2, 4, 8])
        };
        let frames_per_camera = frames.unwrap_or(budget);
        Self {
            mode,
            seed,
            cameras,
            frames_per_camera,
            shard_counts,
        }
    }

    /// `smoke mode: 12 cameras x 24 frames, seed 42, shard counts [1, 2]`.
    fn shape(&self) -> String {
        format!(
            "{} mode: {} cameras x {} frames, seed {}, shard counts {:?}",
            self.mode, self.cameras, self.frames_per_camera, self.seed, self.shard_counts
        )
    }

    /// The single-shard run, reproduced at every other shard count.
    ///
    /// # Errors
    ///
    /// Names the shard count that diverged.
    pub(crate) fn oracle(&self) -> Result<RunReport, String> {
        let config = city_scale_engine(self.seed);
        // 24-frame content pools: the scenario cycles them, so the depth
        // shapes content variety, not run length.
        let scenes: Vec<u8> = SceneId::all().map(|s| s.index()).collect();
        let traces = fleet_traces(self.cameras, &scenes, 24, self.seed);
        let scenario = city_scale_scenario(self.frames_per_camera);
        let run = |shards: usize| {
            run_scenario_sharded(&config, &traces, &scenario, None, None, false, shards, None).0
        };
        shard_oracle("the city-scale preset", self.shard_counts, run)
    }

    /// The `BENCH_throughput.json` document: deterministic counts only.
    pub(crate) fn document(&self, oracle: &RunReport) -> Json {
        let summary = oracle.summarize();
        let shards = self.shard_counts.iter().map(|&s| Json::U64(s as u64));
        let counts = Json::object(vec![
            ("mode", Json::Str(self.mode.to_string())),
            ("seed", Json::U64(self.seed)),
            ("cameras", Json::U64(self.cameras as u64)),
            (
                "frames_per_camera",
                Json::U64(self.frames_per_camera as u64),
            ),
            ("shard_counts", Json::Array(shards.collect())),
            ("frames", Json::U64(summary.frames)),
            ("patches", Json::U64(summary.patches)),
            ("batches", Json::U64(summary.batches)),
            ("dropped_arrivals", Json::U64(summary.dropped_arrivals)),
            ("events", Json::U64(oracle.events_processed)),
            ("makespan_s", Json::F64(summary.makespan_s)),
        ]);
        Json::object(vec![
            ("schema_version", Json::U64(2)),
            ("name", Json::Str("throughput".to_string())),
            ("counts", counts),
        ])
    }
}

/// The sharded runtime on the city-scale preset: deterministic counts,
/// identical at every shard count or no counts at all.
pub(crate) fn ext_throughput(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let preset = CityScale::preset(opts.quick, opts.seed, opts.frames);
    heading(out, &format!("City-scale preset, {}", preset.shape()));
    let oracle = match preset.oracle() {
        Ok(oracle) => oracle,
        Err(divergence) => {
            say!(out, "{divergence}");
            return vec![false, false];
        }
    };
    let s = oracle.summarize();
    say!(
        out,
        "counts: {} frames, {} patches, {} batches, {} dropped, {} events, makespan {:.3}s",
        s.frames,
        s.patches,
        s.batches,
        s.dropped_arrivals,
        oracle.events_processed,
        s.makespan_s,
    );
    vec![true, s.patches > 2 * s.batches]
}

/// Every scenario file under `dir`, each run at every shard count
/// against its single-shard oracle, in library order.
///
/// # Errors
///
/// A library that does not load, or the scenario and shard count that
/// diverged.
pub(crate) fn scenario_library(
    dir: &Path,
    shard_counts: &[usize],
) -> Result<Vec<(String, RunReport)>, String> {
    let run_file = |(path, file): (std::path::PathBuf, ScenarioFile)| {
        let what = format!("{} ({})", file.name, path.display());
        let oracle = shard_oracle(&what, shard_counts, |shards| file.run(false, shards).0)?;
        Ok((file.name, oracle))
    };
    ScenarioFile::load_dir(dir)?
        .into_iter()
        .map(run_file)
        .collect()
}

/// The `BENCH_scenarios.json` document: per-scenario deterministic
/// counts. `mode` stays outside `counts` — runs are deterministic in the
/// scenario files alone, so every shard-count set states the same counts.
pub(crate) fn scenarios_document(mode: &str, rows: &[(String, RunReport)]) -> Json {
    let scenario = |(name, report): &(String, RunReport)| {
        let summary = report.summarize();
        Json::object(vec![
            ("name", Json::Str(name.clone())),
            ("frames", Json::U64(summary.frames)),
            ("frames_muted", Json::U64(report.frames_muted)),
            ("patches", Json::U64(summary.patches)),
            ("batches", Json::U64(summary.batches)),
            ("violations", Json::U64(summary.violations)),
            ("dropped_arrivals", Json::U64(summary.dropped_arrivals)),
            ("events", Json::U64(report.events_processed)),
            ("makespan_s", Json::F64(summary.makespan_s)),
        ])
    };
    let scenarios = Json::Array(rows.iter().map(scenario).collect());
    Json::object(vec![
        ("schema_version", Json::U64(2)),
        ("name", Json::Str("scenarios".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("counts", Json::object(vec![("scenarios", scenarios)])),
    ])
}

/// The declarative hard-scenario library (`config/scenarios/*.toml`),
/// end to end at shard counts 1 and 2 (`--quick`) or 1 and 8.
pub(crate) fn ext_scenarios(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let shard_counts: &[usize] = if opts.quick { &[1, 2] } else { &[1, 8] };
    heading(out, &format!("Scenario library, shards {shard_counts:?}"));
    let dir = workspace_root().join("config/scenarios");
    let library = match scenario_library(&dir, shard_counts) {
        Ok(library) => library,
        Err(err) => {
            say!(out, "{err}");
            return vec![false];
        }
    };
    let rows = library.iter().map(|(name, report)| {
        let s = report.summarize();
        format!(
            "{name} | {} | {} | {} | {} | {} | {:.3}",
            s.frames,
            report.frames_muted,
            s.patches,
            s.dropped_arrivals,
            s.violations,
            s.makespan_s
        )
    });
    let headers = "scenario | frames | muted | patches | dropped | viol | makespan_s";
    table::write(out, headers, rows);
    vec![true]
}
