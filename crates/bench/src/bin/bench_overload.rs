//! Overload bench: SLO attainment vs offered load, with and without
//! admission control — the paper-style "what happens past capacity"
//! table the streaming runtime exists to answer.
//!
//! Four cameras with the gold (0.8 s) / best-effort (1.5 s) tenant mix
//! stream open-loop Poisson frames at a ramp of rates crossing backend
//! capacity (the scenario axis), and every point runs twice (the
//! admission axis): once with the open door (`always`, sheds nothing,
//! attainment collapses past the knee) and once with the SLO-aware
//! shedder (`slo-shedder`, sheds doomed and best-effort work first so
//! gold keeps its attainment). Drops are first-class metrics:
//! `dropped_arrivals` and the per-tenant breakdown land in
//! `BENCH_overload*.json` and are gated like any other correctness
//! metric.
//!
//! Standard flags apply: `--workers N` (output is byte-identical for any
//! worker count), `--seed`, `--frames N` (frame budget per camera),
//! `--out DIR`; `--smoke` keeps two ramp points for CI (grid name
//! `overload`, gated against `baselines/BENCH_overload.json`).

use tangram_bench::{ramp_fps, ramp_frames, tenant_class, ExpOpts};
use tangram_core::TenantSummary;
use tangram_harness::presets::{overload_grid, TENANT_MIX_SLOS_S};
use tangram_harness::{run_grid, table};

fn main() {
    let opts = ExpOpts::from_args();
    let grid = overload_grid(opts.seed, ramp_frames(&opts), opts.smoke);
    let cameras = grid.workloads[0].scenes.len();
    let workers = opts.workers();
    let ramp = ramp_fps(&grid);
    println!(
        "== bench_overload: {} cells on {} workers — {} cameras, offered-load ramp {:?} fps/cam, admission {:?} ==\n",
        grid.cell_count(),
        workers,
        cameras,
        ramp,
        grid.admission.iter().map(|a| a.kind()).collect::<Vec<_>>(),
    );

    let report = run_grid(&grid, workers);
    let out = &mut std::io::stdout();
    opts.maybe_write(&report, out);

    // The attainment-vs-offered-load table: one row per (ramp point,
    // admission policy), gold and best-effort accounted separately.
    let attainment = |t: &TenantSummary| match t.patches {
        0 => 1.0,
        patches => 1.0 - t.violations as f64 / patches as f64,
    };
    let drop_rate = |t: &TenantSummary| match t.patches + t.dropped {
        0 => 0.0,
        offered => t.dropped as f64 / offered as f64,
    };
    let rows = report.cells.iter().map(|cell| {
        let m = &cell.metrics;
        let offered = ramp[cell.scenario.unwrap_or(0) as usize] * cameras as f64;
        let [gold, be] = TENANT_MIX_SLOS_S.map(|slo_s| tenant_class(m, slo_s));
        let pct = |class: Option<&TenantSummary>, rate: &dyn Fn(&TenantSummary) -> f64| {
            class.map_or(0.0, rate) * 100.0
        };
        format!(
            "{offered:.0} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.3}",
            cell.admission.as_deref().unwrap_or("-"),
            m.patches + m.dropped_arrivals,
            m.patches,
            m.dropped_arrivals,
            m.slo_attainment * 100.0,
            pct(gold, &attainment),
            pct(gold, &drop_rate),
            pct(be, &drop_rate),
            m.p99_latency_s
        )
    });
    let headers = "offered (fps) | admission | arrivals | served | dropped | attain % \
                   | gold attain % | gold drop % | be drop % | p99 (s)";
    table::write(out, headers, rows);
    println!(
        "\nPast the capacity knee the open door serves everything late (attainment collapses), while the \
         SLO-aware shedder trades best-effort arrivals for gold attainment — the drops are in the BENCH \
         json, so the CI gate sees them as correctness, not throughput."
    );
}
