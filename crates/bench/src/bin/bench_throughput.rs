//! `bench_throughput` — the sharded streaming runtime's count gate.
//!
//! Runs the city-scale preset (open-loop Poisson cameras, Tangram
//! policy, a wide uplink so the runtime — not a saturated link — is the
//! bottleneck) once per shard count. Determinism is asserted, not
//! assumed: every shard count must produce the same
//! [`tangram_core::report::RunSummary`] and the same `events_processed`
//! as the single-shard oracle, or the bin exits non-zero before printing
//! a single number.
//!
//! The emitted `BENCH_throughput.json` carries only deterministic
//! `counts` (`frames`, `patches`, `batches`, `dropped_arrivals`,
//! `events`, `makespan_s`, the preset shape), byte stable and gated by CI
//! against the committed baseline. Nothing here reads the wall clock:
//! how fast the runtime goes is measured by `benchmark/` (see
//! `docs/PERFORMANCE.md`).
//!
//! `--gate <baseline.json>` re-reads a committed baseline and compares
//! the count fields; see `docs/PERFORMANCE.md` for the refresh
//! procedure.
//!
//! Flags: the usual [`ExpOpts`] set plus `--smoke` (CI-sized preset:
//! fewer cameras/frames, shard counts 1 and 2) and `--gate PATH`.

use std::process::ExitCode;

use tangram_bench::{finish_count_gate, shard_oracle, ExpOpts};
use tangram_harness::json::Json;
use tangram_harness::presets::{
    city_scale_engine, city_scale_scenario, city_scale_traces, CITY_SCALE_CAMERAS,
    CITY_SCALE_SMOKE_CAMERAS,
};
use tangram_harness::run_scenario_sharded;

/// Trace-pool depth per camera; the scenario cycles the pool, so this
/// only shapes content variety, not run length.
const POOL_FRAMES: usize = 24;

fn main() -> ExitCode {
    let opts = ExpOpts::from_args();
    let smoke = opts.smoke;

    let mode = if smoke { "smoke" } else { "full" };
    let cameras = if smoke {
        CITY_SCALE_SMOKE_CAMERAS
    } else {
        CITY_SCALE_CAMERAS
    };
    let frames_per_camera = opts.frames.unwrap_or(if smoke { 24 } else { 96 });
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    println!("bench_throughput: city-scale preset, {mode} mode");
    println!(
        "  {cameras} cameras x {frames_per_camera} frames, seed {}, shard counts {shard_counts:?}",
        opts.seed
    );

    let config = city_scale_engine(opts.seed);
    let traces = city_scale_traces(cameras, POOL_FRAMES, opts.seed);
    let scenario = city_scale_scenario(frames_per_camera);
    let run = |shards: usize| {
        run_scenario_sharded(&config, &traces, &scenario, None, None, false, shards, None).0
    };

    let oracle = match shard_oracle(shard_counts, run) {
        Ok(oracle) => oracle,
        Err(shards) => {
            eprintln!(
                "DETERMINISM VIOLATION: {shards} shards diverged from the single-shard oracle"
            );
            return ExitCode::from(2);
        }
    };
    let summary = oracle.summarize();

    println!(
        "counts: {} frames, {} patches, {} batches, {} dropped, {} events, makespan {:.3}s (identical at every shard count)",
        summary.frames,
        summary.patches,
        summary.batches,
        summary.dropped_arrivals,
        oracle.events_processed,
        summary.makespan_s,
    );

    let counts = Json::object(vec![
        ("mode", Json::Str(mode.to_string())),
        ("seed", Json::U64(opts.seed)),
        ("cameras", Json::U64(cameras as u64)),
        ("frames_per_camera", Json::U64(frames_per_camera as u64)),
        (
            "shard_counts",
            Json::Array(shard_counts.iter().map(|&s| Json::U64(s as u64)).collect()),
        ),
        ("frames", Json::U64(summary.frames)),
        ("patches", Json::U64(summary.patches)),
        ("batches", Json::U64(summary.batches)),
        ("dropped_arrivals", Json::U64(summary.dropped_arrivals)),
        ("events", Json::U64(oracle.events_processed)),
        ("makespan_s", Json::F64(summary.makespan_s)),
    ]);
    let doc = Json::object(vec![
        ("schema_version", Json::U64(2)),
        ("name", Json::Str("throughput".to_string())),
        ("counts", counts),
    ]);
    finish_count_gate(&doc, "throughput", &opts)
}
