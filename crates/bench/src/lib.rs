//! The paper's reproduction as one table, and the count-gate tail.
//!
//! Every figure, table and ablation of the paper is a row of
//! [`repro::ROWS`] — its id, what it reproduces, what it sweeps, the
//! function that prints it and the claims it must show — driven by the
//! one `repro` binary (`repro list`, `repro <id> --quick`, `repro all`).
//! The row bodies live in four modules named after the substrate they
//! exercise: edge/trace statistics (`edge`), the accuracy pipeline
//! (`accuracy`), stitching (`stitching`) and the end-to-end grids
//! (`e2e`). The sweep/parallelism/reporting machinery lives in
//! [`tangram_harness`]; this library adds only the write-and-gate tail
//! the count-gate bins (`bench_throughput`, `bench_scenarios`) share.
//!
//! # Example
//!
//! ```
//! use tangram_bench::repro::ROWS;
//!
//! assert_eq!(ROWS.len(), 17);
//! assert!(ROWS.iter().any(|row| row.id == "fig12_e2e" && row.paper == "Fig. 12 (§V)"));
//! ```

mod accuracy;
mod e2e;
mod edge;
pub mod repro;
mod stitching;

pub use tangram_harness::ExpOpts;

use std::io::Write;
use std::process::ExitCode;
use tangram_core::report::{RunReport, RunSummary};
use tangram_core::TenantSummary;
use tangram_harness::json::Json;
use tangram_harness::{parallel_map, ArrivalSpec, ScenarioSpec, SweepGrid};
use tangram_types::ids::SceneId;

/// `writeln!` onto a row's output; a closed pipe ends the run the way
/// `println!` would.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("experiment output is writable")
    };
}
pub(crate) use say;

/// A section heading, followed by a blank line.
pub(crate) fn heading(out: &mut dyn Write, title: &str) {
    say!(out, "== {title} ==\n");
}

/// Runs `f` once per scene on the harness pool; results come back in
/// scene order, so output never depends on the worker count.
pub(crate) fn per_scene<T: Send>(
    scenes: impl Iterator<Item = SceneId>,
    opts: &ExpOpts,
    f: impl Fn(SceneId) -> T + Sync,
) -> Vec<T> {
    parallel_map(scenes.collect(), opts.workers(), |_, scene| f(scene))
}

/// The "ours (paper)" cell: a measured value beside the paper's digitised
/// one, which is printed for reference and never asserted.
pub(crate) fn vs_paper(ours: f64, paper: f64, decimals: usize) -> String {
    format!("{ours:.decimals$} ({paper:.decimals$})")
}

/// [`vs_paper`] over a row of values, joined as table cells.
pub(crate) fn paper_cells(ours: &[f64], paper: &[f64], decimals: usize) -> String {
    let cells = ours
        .iter()
        .zip(paper)
        .map(|(o, p)| vs_paper(*o, *p, decimals));
    cells.collect::<Vec<_>>().join(" | ")
}

/// The frame budget of the ramp bins (`bench_overload`,
/// `bench_fairness`). `--smoke` pins the CI-gated grid shape: only an
/// explicit `--frames` may move it (`--quick` must not silently desync
/// the written report from the committed baseline).
#[must_use]
pub fn ramp_frames(opts: &ExpOpts) -> usize {
    if opts.smoke {
        opts.frames.unwrap_or(48)
    } else {
        opts.frame_budget(24, 48)
    }
}

/// Mean frames per second per camera of each scenario on a ramp grid.
#[must_use]
pub fn ramp_fps(grid: &SweepGrid) -> Vec<f64> {
    let fps = |s: &ScenarioSpec| match s.arrival {
        ArrivalSpec::Poisson { fps } => fps,
        _ => f64::NAN,
    };
    grid.scenarios.iter().map(fps).collect()
}

/// Whether two axis values (SLO, bandwidth, σ multiplier) are the same
/// grid point.
pub(crate) fn same(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// One tenant class's digest in a cell, by its SLO.
#[must_use]
pub fn tenant_class(metrics: &RunSummary, slo_s: f64) -> Option<&TenantSummary> {
    metrics.tenants.iter().find(|t| same(t.slo_s, slo_s))
}

/// Runs once per shard count. Every count must reproduce the first
/// (single-shard) run exactly — summary, events, frames, muted frames —
/// or the diverging count is returned: a divergence is a correctness bug
/// in the sharded runtime.
///
/// # Errors
///
/// The first shard count whose run differs from the oracle's.
pub fn shard_oracle(
    shard_counts: &[usize],
    run: impl Fn(usize) -> RunReport,
) -> Result<RunReport, usize> {
    let oracle = run(shard_counts[0]);
    for &shards in &shard_counts[1..] {
        let report = run(shards);
        let counts = |r: &RunReport| (r.events_processed, r.frames, r.frames_muted);
        if report.summarize() != oracle.summarize() || counts(&report) != counts(&oracle) {
            return Err(shards);
        }
    }
    Ok(oracle)
}

/// The shared tail of a count-gate bin: writes `doc` to
/// `<out>/BENCH_<name>.json` when `--out` was given, then, when
/// `--gate <baseline.json>` was, compares `doc`'s deterministic `counts`
/// object against the committed baseline's.
#[must_use]
pub fn finish_count_gate(doc: &Json, name: &str, opts: &ExpOpts) -> ExitCode {
    if let Some(dir) = &opts.out {
        let path = dir.join(format!("BENCH_{name}.json"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        {
            Ok(()) => println!("(wrote {})", path.display()),
            Err(err) => {
                eprintln!("failed to write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(gate) = &opts.gate else {
        return ExitCode::SUCCESS;
    };
    let baseline_path = gate.display();
    let baseline = match std::fs::read_to_string(gate)
        .map_err(|err| err.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("gate: cannot read baseline {baseline_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(ours), Some(theirs)) = (doc.get("counts"), baseline.get("counts")) else {
        eprintln!("gate: missing `counts` object (schema mismatch)");
        return ExitCode::FAILURE;
    };
    if ours == theirs {
        println!("gate: counts match {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!("gate: counts DIVERGED from {baseline_path}");
        eprintln!("--- baseline\n{}", theirs.render());
        eprintln!("--- candidate\n{}", ours.render());
        eprintln!("If the change is intentional, refresh the baseline per docs/PERFORMANCE.md.");
        ExitCode::FAILURE
    }
}
