//! Fairness bench: the weighted-share-vs-offered-load table — what the
//! admitted traffic mix looks like when a weighted-DRR fair ingress,
//! rather than class-blind shedding, gives ground under overload.
//!
//! Four cameras with the gold (0.8 s) / best-effort (1.5 s) tenant mix
//! stream open-loop Poisson frames at a ramp crossing the DRR ingress
//! service rate (the scenario axis), every cell mounting the 3:1
//! weighted-DRR stage of `fairness_drr_spec` (the fairness axis) with
//! admission-aware Tangram scheduling. Past the capacity knee the
//! *admitted* per-class shares must track the configured 3:1 weights —
//! contrast `bench_overload`'s `SloShedder`, whose admitted residue
//! collapses toward a single class. Admitted counts, per-class queue
//! peaks and overflow sheds are first-class metrics in
//! `BENCH_fairness*.json` and are gated like any other correctness
//! metric.
//!
//! Standard flags apply: `--workers N` (output is byte-identical for any
//! worker count), `--seed`, `--frames N` (frame budget per camera),
//! `--out DIR`; `--smoke` keeps the 2× and 4× ramp points for CI (grid
//! name `fairness`, gated against `baselines/BENCH_fairness.json`).

use tangram_bench::{ramp_fps, ramp_frames, tenant_class, ExpOpts};
use tangram_harness::presets::{fairness_grid, FAIRNESS_WEIGHTS, TENANT_MIX_SLOS_S};
use tangram_harness::{run_grid, table};

fn main() {
    let opts = ExpOpts::from_args();
    let grid = fairness_grid(opts.seed, ramp_frames(&opts), opts.smoke);
    let cameras = grid.workloads[0].scenes.len();
    let workers = opts.workers();
    let ramp = ramp_fps(&grid);
    println!(
        "== bench_fairness: {} cells on {} workers — {} cameras, offered-load ramp {:?} fps/cam, DRR weights {:?} ==\n",
        grid.cell_count(),
        workers,
        cameras,
        ramp,
        FAIRNESS_WEIGHTS,
    );

    let report = run_grid(&grid, workers);
    let out = &mut std::io::stdout();
    opts.maybe_write(&report, out);

    // The weighted-share-vs-offered-load table: one row per ramp point,
    // gold and best-effort admitted shares against the weight targets.
    let [gold_w, be_w] = FAIRNESS_WEIGHTS;
    let gold_target = gold_w / (gold_w + be_w);
    let rows = report.cells.iter().map(|cell| {
        let m = &cell.metrics;
        let offered = ramp[cell.scenario.unwrap_or(0) as usize] * cameras as f64;
        let [gold, be] =
            TENANT_MIX_SLOS_S.map(|slo_s| tenant_class(m, slo_s).cloned().unwrap_or_default());
        let admitted = gold.admitted + be.admitted;
        let share = |class_admitted: u64| class_admitted as f64 / admitted.max(1) as f64 * 100.0;
        format!(
            "{offered:.0} | {} | {admitted} | {} | {:.1} | {:.1} | {:.1} | {} | {:.1} | {:.3}",
            m.patches + m.dropped_arrivals,
            m.dropped_arrivals,
            share(gold.admitted),
            gold_target * 100.0,
            share(be.admitted),
            gold.peak_queued,
            m.slo_attainment * 100.0,
            m.p99_latency_s
        )
    });
    let headers = "offered (fps) | arrivals | admitted | dropped | gold adm % | target % \
                   | be adm % | gold peak q | attain % | p99 (s)";
    table::write(out, headers, rows);
    println!(
        "\nPast the ingress knee the weighted DRR keeps the admitted mix at the configured weights — \
         compare bench_overload, where the SLO shedder's admitted residue collapses toward one class. \
         Admitted counts and per-class queue peaks are in the BENCH json, gated as correctness."
    );
}
