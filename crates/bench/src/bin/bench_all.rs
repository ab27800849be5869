//! The umbrella perf bin: runs a sweep grid and records `BENCH_*.json`.
//!
//! * `--smoke` — the reduced CI grid (four systems × two bandwidths over
//!   two proxy scenes, 16 cells): finishes in seconds, exercises
//!   batching, stitching, padding and per-patch dispatch, and writes the
//!   `BENCH_smoke.json` the CI perf gate compares against
//!   `baselines/BENCH_smoke.json` (via the `bench_gate` bin).
//! * default — the fuller grid: four systems × {20, 40, 80} Mbps ×
//!   three SLOs over the five motivation scenes.
//!
//! Standard flags apply: `--workers N` (parallel fan-out; the JSON is
//! byte-identical for any worker count), `--seed`, `--frames`,
//! `--out DIR` (default: current directory — this bin always writes its
//! report).

use tangram_bench::{ExpOpts, TextTable};
use tangram_harness::presets::{
    motivation_scenes, paper_mark_timeouts_s, smoke_grid, E2E_POLICIES,
};
use tangram_harness::{run_grid, SweepGrid, TraceKind, WorkloadSpec};

fn main() {
    let mut opts = ExpOpts::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    if opts.out.is_none() {
        opts.out = Some(std::path::PathBuf::from("."));
    }

    let grid = if smoke {
        let mut grid = smoke_grid(opts.seed);
        if let Some(frames) = opts.frames {
            for w in &mut grid.workloads {
                w.frames = frames;
            }
        }
        grid
    } else {
        let mut grid = SweepGrid::named("all");
        grid.policies = E2E_POLICIES.to_vec();
        grid.seeds = vec![opts.seed];
        grid.slos_s = vec![0.8, 1.0, 1.2];
        grid.bandwidths_mbps = vec![20.0, 40.0, 80.0];
        grid.workloads = WorkloadSpec::per_scene(
            &motivation_scenes(false),
            opts.frame_budget(12, 40),
            TraceKind::Proxy,
        );
        grid.mark_timeouts_s = paper_mark_timeouts_s();
        grid
    };

    let workers = opts.workers();
    println!(
        "== bench_all: grid '{}', {} cells on {} workers ==\n",
        grid.name,
        grid.cell_count(),
        workers
    );
    let report = run_grid(&grid, workers);
    opts.maybe_write(&report);

    let mut table = TextTable::new([
        "cell", "policy", "bw", "SLO", "patches", "viol %", "cost $", "p99 (s)", "pps",
    ]);
    for cell in &report.cells {
        let m = &cell.metrics;
        table.row([
            cell.index.to_string(),
            m.policy.clone(),
            format!("{:.0}", cell.bandwidth_mbps),
            format!("{:.1}", cell.slo_s),
            m.patches.to_string(),
            format!("{:.1}", (1.0 - m.slo_attainment) * 100.0),
            format!("{:.4}", m.cost_usd),
            format!("{:.3}", m.p99_latency_s),
            format!("{:.1}", m.throughput_pps),
        ]);
    }
    table.print();
}
