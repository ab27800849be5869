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

use tangram_bench::ExpOpts;
use tangram_harness::presets::{
    motivation_scenes, paper_mark_timeouts_s, smoke_grid, E2E_POLICIES,
};
use tangram_harness::{run_grid, table, SweepGrid, TraceKind, WorkloadSpec};

fn main() {
    let mut opts = ExpOpts::from_args();
    if opts.out.is_none() {
        opts.out = Some(std::path::PathBuf::from("."));
    }

    let grid = if opts.smoke {
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
    let out = &mut std::io::stdout();
    opts.maybe_write(&report, out);

    let rows = report.cells.iter().map(|cell| {
        let m = &cell.metrics;
        format!(
            "{} | {} | {:.0} | {:.1} | {} | {:.1} | {:.4} | {:.3} | {:.1}",
            cell.index,
            m.policy,
            cell.bandwidth_mbps,
            cell.slo_s,
            m.patches,
            (1.0 - m.slo_attainment) * 100.0,
            m.cost_usd,
            m.p99_latency_s,
            m.throughput_pps
        )
    });
    let headers = "cell | policy | bw | SLO | patches | viol % | cost $ | p99 (s) | pps";
    table::write(out, headers, rows);
}
