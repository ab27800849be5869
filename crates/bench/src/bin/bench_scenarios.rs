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

use tangram_bench::{finish_count_gate, ExpOpts, TextTable};
use tangram_core::report::RunReport;
use tangram_harness::json::Json;
use tangram_harness::ScenarioFile;

fn main() -> ExitCode {
    let opts = ExpOpts::from_args();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("config/scenarios"), PathBuf::from);

    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 8] };
    let mode = if smoke { "smoke" } else { "full" };

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
        let (oracle, _) = file.run(false, shard_counts[0]);
        // Re-run at every other shard count; any divergence is a
        // correctness bug in the sharded runtime.
        for &shards in &shard_counts[1..] {
            let (report, _) = file.run(false, shards);
            if report.summarize() != oracle.summarize()
                || report.events_processed != oracle.events_processed
                || report.frames != oracle.frames
                || report.frames_muted != oracle.frames_muted
            {
                eprintln!(
                    "DETERMINISM VIOLATION: {} ({}) diverged at {shards} shards",
                    file.name,
                    path.display()
                );
                return ExitCode::from(2);
            }
        }
        rows.push((file.name.clone(), oracle));
    }

    let mut table = TextTable::new([
        "scenario",
        "frames",
        "muted",
        "patches",
        "dropped",
        "viol",
        "makespan_s",
    ]);
    for (name, report) in &rows {
        let summary = report.summarize();
        table.row([
            name.clone(),
            summary.frames.to_string(),
            report.frames_muted.to_string(),
            summary.patches.to_string(),
            summary.dropped_arrivals.to_string(),
            summary.violations.to_string(),
            format!("{:.3}", summary.makespan_s),
        ]);
    }
    table.print();
    println!("(counts identical at every shard count)");

    finish_count_gate(
        &render_report(mode, &rows),
        "scenarios",
        opts.out.as_deref(),
    )
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
