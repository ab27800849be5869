//! `bench_scenarios` — the declarative hard-scenario library, end to end.
//!
//! Loads every scenario file under `config/scenarios/` (see
//! [`tangram_harness::scenario_file`]), runs each one at every shard
//! count, and emits `BENCH_scenarios.json`. The library is the repo's
//! fault-injection gauntlet: diurnal flash crowds, content-correlated
//! stitcher floods, brownout+partition compounds, flap storms and
//! cold-start squeezes — each declared in TOML, validated at load time,
//! and injected deterministically (see `docs/ARCHITECTURE.md`).
//!
//! Determinism is asserted, not assumed: every scenario must reproduce
//! the single-shard [`tangram_core::report::RunSummary`] (plus the raw
//! frame/mute/event counts) at every other shard count, or the bin
//! exits with code 2 before writing anything.
//!
//! The emitted JSON carries only deterministic `counts` (per-scenario
//! frames, muted frames, patches, batches, violations, dropped arrivals,
//! events, makespan), byte stable and gated by CI against
//! `baselines/BENCH_scenarios.json`. Nothing here reads the wall clock.
//!
//! Flags: the usual [`ExpOpts`] set plus `--smoke` (shard counts 1 and 2
//! instead of 1 and 8), `--dir PATH` (scenario directory override) and
//! `--gate PATH` (compare this run's counts against a baseline).

use std::path::PathBuf;
use std::process::ExitCode;

use tangram_bench::{finish_count_gate, shard_oracle, ExpOpts};
use tangram_core::report::RunReport;
use tangram_harness::json::Json;
use tangram_harness::{table, ScenarioFile};

fn main() -> ExitCode {
    let opts = ExpOpts::from_args();
    let dir = opts
        .dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("config/scenarios"));

    let shard_counts: &[usize] = if opts.smoke { &[1, 2] } else { &[1, 8] };
    let mode = if opts.smoke { "smoke" } else { "full" };

    let library = match ScenarioFile::load_dir(&dir) {
        Ok(library) => library,
        Err(err) => {
            eprintln!("bench_scenarios: {err}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_scenarios: {} scenario(s) from {}, {mode} mode",
        library.len(),
        dir.display()
    );
    println!("  shard counts {shard_counts:?} (byte-compared against the single-shard oracle)");

    // One oracle run per scenario, in library order.
    let mut rows: Vec<(String, RunReport)> = Vec::new();
    for (path, file) in &library {
        match shard_oracle(shard_counts, |shards| file.run(false, shards).0) {
            Ok(oracle) => rows.push((file.name.clone(), oracle)),
            Err(shards) => {
                let (name, path) = (&file.name, path.display());
                eprintln!("DETERMINISM VIOLATION: {name} ({path}) diverged at {shards} shards");
                return ExitCode::from(2);
            }
        }
    }

    let lines = rows.iter().map(|(name, report)| {
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
    table::write(&mut std::io::stdout(), headers, lines);
    println!("(counts identical at every shard count)");

    finish_count_gate(&render_report(mode, &rows), "scenarios", &opts)
}

/// Builds `BENCH_scenarios.json`: the gated per-scenario `counts` array.
/// `mode` stays outside `counts` on purpose — runs are deterministic in
/// the scenario files alone, so smoke and full produce the same gated
/// bytes.
fn render_report(mode: &str, rows: &[(String, RunReport)]) -> Json {
    let counts = Json::object(vec![(
        "scenarios",
        Json::Array(
            rows.iter()
                .map(|(name, report)| {
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
                })
                .collect(),
        ),
    )]);
    Json::object(vec![
        ("schema_version", Json::U64(2)),
        ("name", Json::Str("scenarios".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("counts", counts),
    ])
}
