//! Rows that run the engine: `SweepGrid`s over the motivation scenes,
//! fanned out on the harness pool (Figs. 12–14 and the slack ablation).
//! `--out DIR` writes each grid's `BENCH_<name>.json`.

use crate::{heading, same, say, vs_paper, ExpOpts};
use std::io::Write;
use tangram_core::engine::PolicyKind;
use tangram_harness::presets::{
    e2e_grid, motivation_scenes, paper_slos_s, trace_kind, E2E_POLICIES, PAPER_BANDWIDTHS_MBPS,
};
use tangram_harness::{
    bench_report, run_grid, run_grid_full, table, CellOutcome, CellReport, SweepGrid, TraceKind,
    WorkloadSpec,
};
use tangram_sim::stats::EmpiricalCdf;
use tangram_types::time::SimDuration;

/// The frame budget every engine row replays per scene.
fn frames(opts: &ExpOpts) -> usize {
    opts.frame_budget(40, 134)
}

/// A Tangram-only grid over the motivation scenes, one single-camera
/// workload per scene.
fn tangram_grid(name: &str, opts: &ExpOpts, kind: TraceKind) -> SweepGrid {
    let mut grid = SweepGrid::named(name);
    grid.policies = vec![PolicyKind::Tangram];
    grid.seeds = vec![opts.seed];
    grid.workloads = WorkloadSpec::per_scene(&motivation_scenes(opts.quick), frames(opts), kind);
    grid
}

/// Pooled SLO violation rate of `cells`, percent.
fn violation_pct(cells: &[&CellReport]) -> f64 {
    let violations: u64 = cells.iter().map(|c| c.metrics.violations).sum();
    let patches: u64 = cells.iter().map(|c| c.metrics.patches).sum();
    violations as f64 / patches.max(1) as f64 * 100.0
}

/// Per-cell mean of one metric over `cells`.
fn mean_of(cells: &[&CellReport], metric: impl Fn(&CellReport) -> f64) -> f64 {
    cells.iter().map(|c| metric(c)).sum::<f64>() / cells.len().max(1) as f64
}

/// Fig. 12. One grid per bandwidth; the tables report the average
/// per-scene cost and the pooled violation rate.
pub(crate) fn fig12_e2e(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let scenes = motivation_scenes(opts.quick);
    let kind = trace_kind(opts.quick);
    let (mut cheapest, mut within_budget, mut cost_falls) = (true, true, true);
    for bw in PAPER_BANDWIDTHS_MBPS {
        let name = format!("fig12_e2e_bw{bw:.0}");
        let grid = e2e_grid(&name, bw, &scenes, frames(opts), kind, opts.seed);
        let report = run_grid(&grid, opts.workers());
        opts.maybe_write(&report, out);

        // Per SLO: (cost, violation %) of each system, Tangram first.
        let by_slo = grid.slos_s.iter().map(|&slo| {
            E2E_POLICIES.map(|policy| {
                let cells = report.cells.iter();
                let cells: Vec<&CellReport> = cells
                    .filter(|c| same(c.slo_s, slo) && c.metrics.policy == policy.name())
                    .collect();
                let cost = mean_of(&cells, |c| c.metrics.cost_usd);
                (cost, violation_pct(&cells))
            })
        });
        let by_slo: Vec<[(f64, f64); 4]> = by_slo.collect();
        let rows = |cell: fn(&(f64, f64)) -> String| {
            grid.slos_s.iter().zip(&by_slo).map(move |(slo, systems)| {
                let cells: Vec<String> = systems.iter().map(cell).collect();
                format!("{slo:.1} | {}", cells.join(" | "))
            })
        };
        let headers = "SLO (s) | Tangram | Clipper | ELF | MArk";
        let title = format!("Fig. 12 @ {bw:.0} Mbps: average cost and SLO violation");
        heading(out, &title);
        say!(out, "-- average cost ($ per scene clip) --");
        table::write(out, headers, rows(|(cost, _)| format!("{cost:.4}")));
        say!(out, "\n-- SLO violation (%) --");
        table::write(out, headers, rows(|(_, viol)| format!("{viol:.1}")));
        say!(out, "");

        let tangram = |systems: &[(f64, f64); 4]| systems[0];
        cheapest &= by_slo
            .iter()
            .all(|s| s[1..].iter().all(|other| tangram(s).0 < other.0));
        within_budget &= by_slo.iter().all(|s| tangram(s).1 < 5.0);
        // At the table's resolution: a step that rises by less than
        // $0.0001 per scene prints as flat.
        let printed = |systems: &[(f64, f64); 4]| (tangram(systems).0 * 1.0e4).round();
        cost_falls &= by_slo.windows(2).all(|w| printed(&w[1]) <= printed(&w[0]));
    }
    vec![cheapest, within_budget, cost_falls]
}

/// Pools the canvas efficiencies of the outcomes at one grid point,
/// sorted: (mean, fraction above 0.6 efficiency, the CDF).
fn efficiency_at(outcomes: &[CellOutcome], bw: f64, slo: f64) -> (f64, f64, EmpiricalCdf) {
    let mut cdf = EmpiricalCdf::new();
    let at_point = |o: &&CellOutcome| same(o.cell.bandwidth_mbps, bw) && same(o.cell.slo_s, slo);
    for outcome in outcomes.iter().filter(at_point) {
        cdf.extend(outcome.report.canvas_efficiencies().iter().copied());
    }
    let above = 1.0 - cdf.fraction_at_or_below(0.6);
    (cdf.mean(), above, cdf)
}

/// Fig. 13. (d) reads SLO = 1 s, which is on every link's SLO axis,
/// across bandwidths. The CDFs come from the full per-batch records.
pub(crate) fn fig13_canvas_efficiency(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for bw in PAPER_BANDWIDTHS_MBPS {
        let name = format!("fig13_canvas_efficiency_bw{bw:.0}");
        let mut grid = tangram_grid(&name, opts, trace_kind(opts.quick));
        grid.slos_s = paper_slos_s(bw).to_vec();
        grid.bandwidths_mbps = vec![bw];
        let grid_outcomes = run_grid_full(&grid, opts.workers());
        opts.maybe_write(&bench_report(&grid, &grid_outcomes), out);
        outcomes.extend(grid_outcomes);
    }

    let mut mean_rises_with_slo = true;
    for bw in PAPER_BANDWIDTHS_MBPS {
        let title = format!("Fig. 13 @ {bw:.0} Mbps: canvas efficiency by SLO");
        heading(out, &title);
        let slos = paper_slos_s(bw).map(|slo| (slo, efficiency_at(&outcomes, bw, slo)));
        let mut slos: Vec<_> = slos.into_iter().filter(|(_, e)| !e.2.is_empty()).collect();
        let rows = slos.iter_mut().map(|(slo, (mean, above, cdf))| {
            let mut q = |q| cdf.quantile(q).unwrap_or(0.0);
            let (p25, p50, p75) = (q(0.25), q(0.5), q(0.75));
            format!("{slo:.1} | {mean:.3} | {p25:.3} | {p50:.3} | {p75:.3} | {above:.2}")
        });
        let headers = "SLO (s) | mean | p25 | median | p75 | frac > 0.6";
        table::write(out, headers, rows);
        say!(out, "");
        if let (Some((_, tightest)), Some((_, loosest))) = (slos.first(), slos.last()) {
            mean_rises_with_slo &= loosest.0 > tightest.0;
        }
    }

    heading(out, "Fig. 13(d): bandwidths compared at SLO = 1 s");
    let at_1s = PAPER_BANDWIDTHS_MBPS.map(|bw| efficiency_at(&outcomes, bw, 1.0));
    let paper_frac = [0.50, 0.80, 0.86];
    let rows = PAPER_BANDWIDTHS_MBPS.iter().zip(&at_1s).zip(paper_frac);
    let rows = rows.map(|((bw, (mean, above, _)), paper)| {
        format!("{bw:.0}Mbps | {mean:.3} | {}", vs_paper(*above, paper, 2))
    });
    table::write(out, "bandwidth | mean eff | frac > 0.6 (paper)", rows);
    vec![
        mean_rises_with_slo,
        at_1s.windows(2).all(|w| w[1].1 > w[0].1),
    ]
}

/// Fig. 14: Tangram's batches at SLO = 1 s, per bandwidth.
pub(crate) fn fig14_insight(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let mut grid = tangram_grid("fig14_insight", opts, trace_kind(opts.quick));
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = PAPER_BANDWIDTHS_MBPS.to_vec();
    let outcomes = run_grid_full(&grid, opts.workers());
    opts.maybe_write(&bench_report(&grid, &outcomes), out);

    let paper_amortized = [0.0252, 0.0223, 0.0213];
    let mut summary = Vec::new();
    // (median execution, amortised s/patch, transmission, execution).
    let mut observed: Vec<(f64, f64, f64, f64)> = Vec::new();
    for (bw, paper) in PAPER_BANDWIDTHS_MBPS.into_iter().zip(paper_amortized) {
        let mut exec_cdf = EmpiricalCdf::new();
        let mut patch_cdf = EmpiricalCdf::new();
        let mut transmission = SimDuration::ZERO;
        let mut execution = SimDuration::ZERO;
        let mut joint = [[0u32; 10]; 10]; // canvases (1..=9) × patch bands
        let mut total_patches = 0usize;
        let at_bw = |o: &&CellOutcome| same(o.cell.bandwidth_mbps, bw);
        for report in outcomes.iter().filter(at_bw).map(|o| &o.report) {
            for b in &report.batches {
                exec_cdf.push(b.execution.as_secs_f64());
                patch_cdf.push(b.patch_count as f64);
                let canvases = b.inputs.clamp(1, 9);
                let band = ((b.patch_count.saturating_sub(1)) / 5).min(8);
                joint[canvases][band] += 1;
            }
            transmission += report.transmission_busy;
            execution += report.total_execution();
            total_patches += report.patches_completed();
        }
        let (transmission, execution) = (transmission.as_secs_f64(), execution.as_secs_f64());
        let amortized = execution / total_patches.max(1) as f64;
        let mut exec_q = |q| exec_cdf.quantile(q).unwrap_or(0.0);
        let (p25, p50, p75) = (exec_q(0.25), exec_q(0.5), exec_q(0.75));
        let mut patch_q = |q| patch_cdf.quantile(q).unwrap_or(0.0);
        let (batch, batch_max) = (patch_q(0.5), patch_q(1.0));
        summary.push(format!(
            "{bw:.0}Mbps | {p25:.2}/{p50:.2}/{p75:.2} | {batch:.0} ({batch_max:.0}) \
             | {transmission:.1} | {execution:.1} | {}",
            vs_paper(amortized, paper, 4)
        ));
        observed.push((p50, amortized, transmission, execution));

        if same(bw, 80.0) {
            heading(out, "Fig. 14(d) @ 80 Mbps: batches by canvases x patches");
            let rows = joint.iter().enumerate().skip(1);
            let rows = rows.filter(|(_, row)| row.iter().any(|&n| n > 0));
            let rows = rows.map(|(canvases, row)| {
                let total = f64::from(row.iter().sum::<u32>());
                let shares = row[..9]
                    .iter()
                    .map(|&n| format!("{:.2}", f64::from(n) / total));
                let shares: Vec<String> = shares.collect();
                format!("{canvases} | {}", shares.join(" | "))
            });
            let headers = "canvases | 1-5 | 6-10 | 11-15 | 16-20 | 21-25 | 26-30 | 31-35 \
                           | 36-40 | >40";
            table::write(out, headers, rows);
            say!(out, "");
        }
    }

    heading(out, "Fig. 14(a–c) summary (SLO = 1 s)");
    let headers = "bandwidth | exec p25/p50/p75 (s) | patches/batch p50 (max) \
                   | transmission total (s) | execution total (s) | amortized s/patch (paper)";
    table::write(out, headers, summary);
    vec![
        observed.windows(2).all(|w| w[1].0 > w[0].0),
        observed.windows(2).all(|w| w[1].1 < w[0].1),
        observed.iter().all(|o| o.2 > o.3),
    ]
}

/// Ablation — the estimator's σ multiplier (Eqn. 9 uses k = 3): smaller
/// k waits longer (cheaper, riskier), larger k invokes earlier (safer,
/// costlier).
pub(crate) fn ablation_slack(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let mut grid = tangram_grid("ablation_slack", opts, TraceKind::Proxy);
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![40.0];
    grid.sigma_multipliers = vec![0.0, 1.0, 2.0, 3.0, 4.0];
    let report = run_grid(&grid, opts.workers());
    opts.maybe_write(&report, out);

    heading(out, "Ablation: slack multiplier k (T_slack = µ + k·σ)");
    // (violation %, mean patches per batch) per k.
    let mut observed: Vec<(f64, f64)> = Vec::new();
    let rows = grid.sigma_multipliers.iter().map(|&k| {
        let cells = report.cells.iter().filter(|c| same(c.sigma_multiplier, k));
        let cells: Vec<&CellReport> = cells.collect();
        let violations = violation_pct(&cells);
        let cost = mean_of(&cells, |c| c.metrics.cost_usd);
        let batch = mean_of(&cells, |c| c.metrics.mean_patches_per_batch);
        let latency = mean_of(&cells, |c| c.metrics.mean_latency_s);
        observed.push((violations, batch));
        format!("{k:.0} | {violations:.2} | {cost:.4} | {batch:.1} | {latency:.3}")
    });
    let headers = "k | violation % | cost $/scene | mean patches/batch | mean latency (s)";
    table::write(out, headers, rows);
    vec![
        observed.windows(2).all(|w| w[1].0 <= w[0].0),
        observed.windows(2).all(|w| w[1].1 <= w[0].1),
    ]
}
