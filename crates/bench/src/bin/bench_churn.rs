//! Churny multi-tenant streaming bench: the event-driven runtime under
//! camera join/leave, open-loop Poisson arrivals and mixed tenant SLOs.
//!
//! Four cameras share one uplink. Camera `i` joins at `2 s × i`, streams
//! Poisson-paced frames (mean 6 fps) cycled from a proxy content pool,
//! and leaves 12 s after joining — so the active camera count ramps up,
//! plateaus and drains, which is exactly the load shape the closed-world
//! trace replay cannot produce. Cameras alternate between a tight 0.8 s
//! "gold" SLO and a lax 1.5 s best-effort one. The four end-to-end
//! systems are swept at 40 and 80 Mbps.
//!
//! Standard flags apply: `--workers N` (the `BENCH_churn.json` output is
//! byte-identical for any worker count), `--seed`, `--frames N` (frame
//! budget per camera), `--out DIR`.

use tangram_bench::ExpOpts;
use tangram_harness::presets::churn_grid;
use tangram_harness::{run_grid, table};

fn main() {
    let opts = ExpOpts::from_args();
    let grid = churn_grid(opts.seed, opts.frame_budget(20, 80));
    let scenario = grid.scenarios.first().expect("churn grid is streaming");
    let workers = opts.workers();
    println!(
        "== bench_churn: {} cells on {} workers — {} cameras, Poisson arrivals, join every {:.0} s, leave after {:.0} s, tenants {:?} ==\n",
        grid.cell_count(),
        workers,
        grid.workloads[0].scenes.len(),
        scenario.join_stagger_s,
        scenario.session_s.unwrap_or(f64::INFINITY),
        scenario.tenant_slos_s,
    );

    let report = run_grid(&grid, workers);
    let out = &mut std::io::stdout();
    opts.maybe_write(&report, out);

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
    let cameras = grid.workloads[0].scenes.len() as u64;
    let full_budget = cameras * scenario.frames_per_camera as u64;
    if report.cells.iter().any(|c| c.metrics.frames < full_budget) {
        println!(
            "\nChurn bites: cameras leave after {:.0} s, so completed frames fall short of the full {} ({} cameras x {}-frame budget).",
            scenario.session_s.unwrap_or(f64::INFINITY),
            full_budget,
            cameras,
            scenario.frames_per_camera,
        );
    } else {
        println!(
            "\nSessions ({:.0} s) outlast the {}-frame budget at this arrival rate — raise --frames to see churn truncate camera streams.",
            scenario.session_s.unwrap_or(f64::INFINITY),
            scenario.frames_per_camera,
        );
    }
}
