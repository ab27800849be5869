//! The `paper-sweep` workload: the path every `fig*`/`table*` binary and
//! `bench_gate` takes.
//!
//! One repetition runs the Fig. 12-shaped grid at 20, 40 and 80 Mbps —
//! 4 policies × 5 SLOs × 5 scenes, replicated on 2 values of the seed
//! axis = 200 cells each, 600 in all — with
//! [`run_grid`] on `min(nproc, 2)` workers, then writes and re-reads each
//! `BENCH` report through the JSON codec. Cells are closed-loop trace
//! replays (a camera's next capture waits on the uplink), three of the
//! four policies never stitch, and the workload traces are built inside
//! `run_grid`, as they are for a paper reproducer.
//!
//! The staged pass runs the same cells one by one on this thread: trace
//! building, one engine run per cell grouped by policy, one digest per
//! cell — and checks every digest against the pool's.

use crate::alloc;
use crate::measure::timed;
use crate::metrics::{ratio, Ledger};
use crate::spans::{Phase, SpanId, Spans};
use crate::workload::{
    close_ledger, default_workers, fnv1a, sim_stats, Outcome, Scale, Workload, FNV_OFFSET,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use tangram_core::engine::PolicyKind;
use tangram_core::report::RunSummary;
use tangram_core::workload::CameraTrace;
use tangram_harness::presets::{
    build_workload, e2e_grid, motivation_scenes, PAPER_BANDWIDTHS_MBPS,
};
use tangram_harness::{run_grid, BenchReport, SweepGrid, TraceKind};
use tangram_infer::estimator::LatencyEstimator;
use tangram_sim::rng::DetRng;

/// Frames of each scene's proxy trace at the declared size.
const TRACE_FRAMES: usize = 300;
/// Values on each grid's seed axis. Every value simulates its five
/// scenes afresh, so a run averages over ten scene simulations and its
/// metrics depend less on which benchmark seed it was given.
const SEED_AXIS: u64 = 2;
/// Cells per grid: 4 policies x 5 SLOs x 5 scenes x the seed axis.
const CELLS_PER_GRID: usize = 4 * 5 * 5 * SEED_AXIS as usize;

/// The `paper-sweep` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSweep {
    scale: Scale,
}

impl PaperSweep {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Self { scale }
    }
}

/// The generated inputs: one grid per bandwidth.
pub struct SweepInputs {
    grids: Vec<SweepGrid>,
}

/// The full output of one repetition.
pub struct SweepDetail {
    reports: Vec<BenchReport>,
    json: Vec<String>,
    parsed: Vec<Result<BenchReport, String>>,
    phases: Vec<Phase>,
}

impl Workload for PaperSweep {
    type Inputs = SweepInputs;
    type Detail = SweepDetail;

    fn name(&self) -> &'static str {
        "paper-sweep"
    }

    /// Constructs the three grids and enumerates their cells once, so a
    /// malformed grid fails here and not inside a worker.
    fn setup(&self, seed: u64) -> SweepInputs {
        let scenes = motivation_scenes(false);
        let frames = self.scale.of(TRACE_FRAMES, 12);
        let grids: Vec<SweepGrid> = PAPER_BANDWIDTHS_MBPS
            .iter()
            .map(|&bw| {
                let name = format!("sweep_bw{bw}");
                let mut grid = e2e_grid(&name, bw, &scenes, frames, TraceKind::Proxy, seed);
                grid.seeds = (0..SEED_AXIS)
                    .map(|k| DetRng::new(seed).derive_seed("benchmark-sweep", k))
                    .collect();
                grid
            })
            .collect();
        for grid in &grids {
            assert_eq!(grid.cells().len(), CELLS_PER_GRID, "{}", grid.name);
        }
        SweepInputs { grids }
    }

    fn run(&self, inputs: &SweepInputs, workers: usize) -> SweepDetail {
        let mut detail = SweepDetail {
            reports: Vec::new(),
            json: Vec::new(),
            parsed: Vec::new(),
            phases: Vec::new(),
        };
        let phases = &mut detail.phases;
        for grid in &inputs.grids {
            let report = Phase::run(phases, "harness.pool", || run_grid(grid, workers));
            let json = Phase::run(phases, "harness.report.to_json", || report.to_json());
            let parsed = Phase::run(phases, "harness.report.from_json", || {
                BenchReport::from_json(&json)
            });
            detail.reports.push(report);
            detail.json.push(json);
            detail.parsed.push(parsed);
        }
        detail
    }

    fn outcome(&self, _inputs: &SweepInputs, detail: &SweepDetail) -> Outcome {
        let summaries: Vec<RunSummary> = detail
            .reports
            .iter()
            .flat_map(|r| r.cells.iter().map(|c| c.metrics.clone()))
            .collect();
        Outcome {
            operations: summaries.len() as u64,
            summaries,
            digest: detail
                .json
                .iter()
                .fold(FNV_OFFSET, |h, json| fnv1a(h, json.as_bytes())),
        }
    }

    fn check(
        &self,
        inputs: &SweepInputs,
        _outcome: &Outcome,
        detail: &SweepDetail,
    ) -> Result<(), String> {
        let outputs = detail.reports.iter().zip(&detail.json).zip(&detail.parsed);
        for (grid, ((report, json), parsed)) in inputs.grids.iter().zip(outputs) {
            if report.cells.len() != grid.cell_count() {
                return Err(format!(
                    "{}: {} of {} cells reported",
                    grid.name,
                    report.cells.len(),
                    grid.cell_count()
                ));
            }
            if let Some(idle) = report.cells.iter().find(|c| c.metrics.patches == 0) {
                return Err(format!(
                    "{}: cell {} completed no patch",
                    grid.name, idle.index
                ));
            }
            // `from_json` does not restore `grid.name` (the report's own
            // name carries it), so the round trip is held to the name, the
            // cells and a byte-identical re-rendering instead of `==`.
            match parsed {
                Ok(back)
                    if back.name == report.name
                        && back.cells == report.cells
                        && back.to_json() == *json => {}
                Ok(_) => return Err(format!("{}: the JSON round trip lost data", grid.name)),
                Err(e) => return Err(format!("{}: from_json failed: {e}", grid.name)),
            }
        }
        Ok(())
    }

    fn staged(&self, seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> Result<(), String> {
        let inputs = self.setup(seed);
        let workers = default_workers();

        // The serial cell loop, counted: the warm-up, and the engine's
        // allocation rate over the sweep.
        let (warm_up, cell_allocs) =
            alloc::counted(|| serial_cells(&inputs, &mut Spans::new(self.name()), None, None));
        warm_up?;

        // The plain call on one worker: what the staged spans are held
        // against, byte for byte and second for second.
        spans.probe();
        let serial_root = spans.open("end_to_end.serial", None);
        let serial_detail = self.run(&inputs, 1);
        spans.close(serial_root);
        spans.probe();
        let serial_outcome = self.outcome(&inputs, &serial_detail);
        self.check(&inputs, &serial_outcome, &serial_detail)?;
        for phase in &serial_detail.phases {
            spans.adopt(phase, Some(serial_root));
        }

        // The plain call as the timed repetitions make it.
        let reference = spans.open("reference", None);
        drop(self.run(&inputs, workers));
        spans.close(reference);
        spans.probe();
        let root = spans.open("end_to_end", None);
        let detail = self.run(&inputs, workers);
        spans.close(root);
        spans.probe();
        let outcome = self.outcome(&inputs, &detail);
        self.check(&inputs, &outcome, &detail)?;
        for phase in &detail.phases {
            spans.adopt(phase, Some(root));
        }
        if detail.json != serial_detail.json {
            return Err(format!(
                "sweep JSON on {workers} workers differs from the 1-worker JSON"
            ));
        }

        // The staged cells, under the serial root's pool phases.
        let staged = serial_cells(
            &inputs,
            spans,
            Some(serial_root),
            Some(&serial_detail.reports),
        )?;

        spans.probe();
        let pool_wall = spans.child_total(root, "harness.pool");
        let mut cell_busy = 0.0;
        for policy in POLICIES {
            let busy = spans.total(policy.span).0;
            cell_busy += busy;
            ledger.set(&format!("{}.busy_s", policy.span), busy);
            if policy.kind != PolicyKind::Tangram {
                ledger.set(
                    &format!("{}.cost_usd_per_kpatch", policy.span),
                    sim_stats(&outcome.summaries, policy.kind.name()).cost_usd_per_kpatch,
                );
            }
        }
        ledger.set("core.workload.build_s", spans.total("core.workload").0);
        ledger.set("harness.pool.cells", outcome.operations as f64);
        ledger.set("harness.pool.busy_s", cell_busy);
        ledger.set(
            "harness.pool.efficiency",
            ratio(cell_busy, workers as f64 * pool_wall),
        );
        ledger.set(
            "harness.report.bytes",
            detail.json.iter().map(String::len).sum::<usize>() as f64,
        );
        ledger.set(
            "harness.report.to_json_s",
            spans.child_total(root, "harness.report.to_json"),
        );
        ledger.set(
            "harness.report.from_json_s",
            spans.child_total(root, "harness.report.from_json"),
        );
        ledger.set("infer.estimator.profile_s", staged.profile_s);
        ledger.busy(
            "core.report",
            "records",
            (spans.total("core.report").0, staged.records),
        );

        // The engine runs are the cells themselves: all self time.
        let events = staged.events as f64;
        ledger.set("core.online.events", events);
        ledger.set("core.online.run_s", cell_busy);
        ledger.set("core.online.self_s", cell_busy);
        ledger.set("core.online.ns_per_event", 1e9 * cell_busy / events);
        let patches: u64 = outcome.summaries.iter().map(|s| s.patches).sum();
        ledger.set(
            "core.online.events_per_patch",
            ratio(events, patches as f64),
        );
        ledger.set(
            "core.online.allocs_per_event",
            cell_allocs.allocs as f64 / events,
        );

        // Staged spans and codec phases against the 1-worker call (the
        // staged loop is serial; the pool's share is `efficiency`).
        let serial_pool = spans.child_total(serial_root, "harness.pool");
        let explained = spans.children_seconds(serial_root) - serial_pool;
        let coverage_pct = 100.0 * explained / spans.seconds(serial_root);
        close_ledger(ledger, spans, &outcome, (root, reference), coverage_pct);
        Ok(())
    }
}

/// A policy of the end-to-end comparison and its span name.
struct Policy {
    kind: PolicyKind,
    span: &'static str,
}

const POLICIES: [Policy; 4] = [
    Policy {
        kind: PolicyKind::Tangram,
        span: "core.policy.tangram",
    },
    Policy {
        kind: PolicyKind::Clipper,
        span: "core.policy.clipper",
    },
    Policy {
        kind: PolicyKind::Elf,
        span: "core.policy.elf",
    },
    Policy {
        kind: PolicyKind::Mark,
        span: "core.policy.mark",
    },
];

/// What the serial cell loop saw.
struct SerialCells {
    /// Events the cells' engines processed.
    events: u64,
    /// Patch and batch records the cells' digests folded.
    records: u64,
    /// One estimator profile, as each Tangram cell pays it.
    profile_s: f64,
}

/// Runs every cell of every grid on this thread, as `run_grid`'s workers
/// do: traces built once per workload, one `EngineConfig::run` per cell
/// (a span under its policy's name), one `summarize` per report. With
/// `expect`, each digest must equal the pool's for the same cell.
fn serial_cells(
    inputs: &SweepInputs,
    spans: &mut Spans,
    parent: Option<SpanId>,
    expect: Option<&[BenchReport]>,
) -> Result<SerialCells, String> {
    let mut seen = SerialCells {
        events: 0,
        records: 0,
        profile_s: 0.0,
    };
    for (g, grid) in inputs.grids.iter().enumerate() {
        let cells = grid.cells();
        let mut traces: BTreeMap<(usize, u64), Vec<CameraTrace>> = BTreeMap::new();
        for cell in &cells {
            traces
                .entry((cell.workload_index, cell.trace_seed))
                .or_insert_with(|| {
                    spans.record("core.workload", parent, || {
                        build_workload(&grid.workloads[cell.workload_index], cell.trace_seed)
                    })
                });
        }
        for cell in &cells {
            let config = cell.engine_config();
            let policy = POLICIES
                .iter()
                .find(|p| p.kind == cell.policy)
                .ok_or_else(|| format!("unexpected policy {}", cell.policy.name()))?;
            if seen.profile_s == 0.0 && cell.policy == PolicyKind::Tangram {
                // Mirrors `EngineConfig::build_policy`.
                let (estimator, profile_s) = timed(|| {
                    LatencyEstimator::profile(
                        &config.latency_model,
                        config.canvas_size,
                        config.function_spec.max_canvases().max(1),
                        1000,
                        config.sigma_multiplier,
                        config.seed ^ 0x51ac,
                    )
                });
                black_box(estimator);
                seen.profile_s = profile_s;
            }
            let cell_traces = &traces[&(cell.workload_index, cell.trace_seed)];
            let report = spans.record(policy.span, parent, || config.run(cell_traces));
            let summary = spans.record("core.report", parent, || report.summarize());
            seen.events += report.events_processed;
            seen.records += (report.patches.len() + report.batches.len()) as u64;
            if let Some(expect) = expect {
                if expect[g].cells[cell.index].metrics != summary {
                    return Err(format!(
                        "{} cell {}: the staged digest differs from run_grid's",
                        grid.name, cell.index
                    ));
                }
            }
        }
    }
    Ok(seen)
}
