//! The workload interface and the two passes that measure one.
//!
//! * [`end_to_end`] — the **counted** pass (one repetition with the
//!   allocator counters on, which doubles as the warm-up) followed by the
//!   **timed** repetitions (counters off, no spans): the end-to-end
//!   metrics.
//! * [`Workload::staged`] (one per workload module) — the **staged**
//!   pass: the per-layer metrics, measured from outside.
//!
//! Every repetition's output is checked; a failed check fails every
//! operation of that repetition.

use crate::alloc;
use crate::measure::{process_cpu_seconds, timed, Calibrator, Quartiles};
use crate::metrics::{ratio, Ledger, END_TO_END};
use crate::spans::{SpanId, Spans};
use tangram_core::report::RunSummary;

/// How far below the declared size a run is (1.0 = the declared
/// workload; the package's tests run a small fraction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The declared workload size.
    pub const FULL: Scale = Scale(1.0);

    /// `n` scaled, never below `floor`.
    #[must_use]
    pub fn of(self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.0).round() as usize).max(floor)
    }
}

/// What one repetition produced, reduced to what the metrics and the
/// repetition-equality check need.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted: offered patches, processed frames or cells.
    pub operations: u64,
    /// The scalar digest of every engine run of the repetition (one for
    /// a stream workload, one per cell for the sweep).
    pub summaries: Vec<RunSummary>,
    /// Digest of any further output that must repeat exactly (patch
    /// rectangles, the trace's final hash, the report JSON).
    pub digest: u64,
}

/// The simulated statistics of an [`Outcome`], over its Tangram runs
/// (the baselines of `paper-sweep` report through `core.policy.*`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Completed patches as a percentage of completed + shed.
    pub completed_pct: f64,
    /// Mean over runs of the 99th-percentile patch latency, seconds.
    pub p99_latency_s: f64,
    /// Uplink megabytes per captured frame.
    pub uplink_mb_per_frame: f64,
    /// SLO violations as a percentage of completed patches.
    pub slo_violation_pct: f64,
    /// Dollars per thousand completed patches.
    pub cost_usd_per_kpatch: f64,
    /// Mean patches per batch.
    pub patches_per_batch: f64,
}

/// [`SimStats`] of the runs whose policy is `policy`.
#[must_use]
pub fn sim_stats(summaries: &[RunSummary], policy: &str) -> SimStats {
    let runs: Vec<&RunSummary> = summaries.iter().filter(|s| s.policy == policy).collect();
    let sum = |f: fn(&RunSummary) -> f64| runs.iter().map(|s| f(s)).sum::<f64>();
    let patches = sum(|s| s.patches as f64);
    SimStats {
        completed_pct: 100.0 * ratio(patches, patches + sum(|s| s.dropped_arrivals as f64)),
        p99_latency_s: ratio(sum(|s| s.p99_latency_s), runs.len() as f64),
        uplink_mb_per_frame: ratio(
            sum(|s| s.uplink_bytes as f64) / 1e6,
            sum(|s| s.frames as f64),
        ),
        slo_violation_pct: 100.0 * ratio(sum(|s| s.violations as f64), patches),
        cost_usd_per_kpatch: 1000.0 * ratio(sum(|s| s.cost_usd), patches),
        patches_per_batch: ratio(patches, sum(|s| s.batches as f64)),
    }
}

/// One declared workload.
pub trait Workload {
    /// The generated inputs one repetition runs on.
    type Inputs;
    /// The full output of a repetition (reports, logs), kept for the
    /// output checks and the staged pass.
    type Detail;

    /// The workload's declared name.
    fn name(&self) -> &'static str;

    /// Generates the inputs from `seed` — everything before the timed
    /// region, re-done each repetition and reported as `setup_s`.
    fn setup(&self, seed: u64) -> Self::Inputs;

    /// The timed region: the plain end-to-end call. `workers` bounds the
    /// threads a multi-threaded workload may use (the counted pass runs
    /// on one, so its counts repeat exactly).
    fn run(&self, inputs: &Self::Inputs, workers: usize) -> Self::Detail;

    /// Reduces a repetition's output to its [`Outcome`] — outside the
    /// timed region, like the checks.
    fn outcome(&self, inputs: &Self::Inputs, detail: &Self::Detail) -> Outcome;

    /// Output checks wired into every repetition.
    ///
    /// # Errors
    ///
    /// Names the first check that failed.
    fn check(
        &self,
        inputs: &Self::Inputs,
        outcome: &Outcome,
        detail: &Self::Detail,
    ) -> Result<(), String>;

    /// The staged pass: re-drives the generated inputs through each
    /// layer's public functions, recording spans, and fills the ledger.
    ///
    /// # Errors
    ///
    /// Names the first staged output check that failed.
    fn staged(&self, seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> Result<(), String>;
}

/// Threads the timed region of a multi-threaded workload uses:
/// `min(nproc, 2)`.
#[must_use]
pub fn default_workers() -> usize {
    crate::measure::nproc().min(2)
}

/// The result of one benchmark invocation on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted across the measured repetitions.
    pub attempted: u64,
    /// Operations of repetitions whose checks failed.
    pub failed: u64,
    /// `(metric name, unit, reading)` in declaration order.
    pub metrics: Vec<(&'static str, &'static str, Quartiles)>,
    /// The failed checks, for humans.
    pub errors: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object the driver reads.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, q)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(q.median)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits (JSON has no NaN or infinity; a
/// reading that is either is a benchmark bug and prints as `null`).
#[must_use]
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Fewest timed repetitions, however short `seconds` is.
pub const MIN_REPETITIONS: usize = 5;

/// Most additional set-ups timed after each repetition …
const EXTRA_SETUPS: usize = 16;
/// … and the share of the requested measuring time they may take.
const EXTRA_SETUP_SHARE: f64 = 0.02;

/// Runs the counted pass, then timed repetitions for at least `seconds`
/// seconds (never fewer than `min_repetitions`; the command line asks
/// for [`MIN_REPETITIONS`]), and reports the end-to-end metrics.
pub fn end_to_end<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: f64,
    min_repetitions: usize,
) -> RunResult {
    let mut errors = Vec::new();
    let mut probe = Calibrator::new();

    // Counted pass: one untimed repetition with the counters on. It is
    // also the warm-up (page faults, heap growth, instruction cache).
    alloc::start();
    let inputs = workload.setup(seed);
    let before_run = alloc::read();
    let detail = workload.run(&inputs, 1);
    let counts = alloc::stop();
    let first = workload.outcome(&inputs, &detail);
    if let Err(e) = workload.check(&inputs, &first, &detail) {
        errors.push(format!("counted pass: {e}"));
    }
    drop((inputs, detail));

    // Timed repetitions. Every timed region is bracketed by host-speed
    // probes and reported in reference seconds (see `Calibrator`).
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut raw_wall_s = Vec::new();
    let mut cpu_s = 0.0;
    let mut attempted = 0;
    let mut failed = 0;
    let workers = default_workers();
    while raw_wall_s.len() < min_repetitions || raw_wall_s.iter().sum::<f64>() < seconds {
        let probe_0 = probe.sample();
        let (inputs, setup) = timed(|| workload.setup(seed));
        let probe_1 = probe.sample();
        let cpu_before = process_cpu_seconds();
        let (detail, wall) = timed(|| workload.run(&inputs, workers));
        let cpu = process_cpu_seconds() - cpu_before;
        let probe_2 = probe.sample();
        let outcome = workload.outcome(&inputs, &detail);
        setup_s.push(setup * Calibrator::to_reference(probe_0, probe_1));
        wall_s.push(wall * Calibrator::to_reference(probe_1, probe_2));
        cpu_s += cpu * Calibrator::to_reference(probe_1, probe_2);
        raw_wall_s.push(wall);
        attempted += outcome.operations;
        let verdict = if outcome == first {
            workload.check(&inputs, &outcome, &detail)
        } else {
            Err("output differs from the first repetition's".to_string())
        };
        if let Err(e) = verdict {
            failed += outcome.operations;
            errors.push(format!("repetition {}: {e}", wall_s.len()));
        }
        drop((inputs, detail));
        // A cheap set-up is a noisy reading: take more of them, within a
        // small budget, so `setup_s` is a median over many.
        let mut extra = Vec::new();
        let mut budget = EXTRA_SETUP_SHARE * seconds;
        while extra.len() < EXTRA_SETUPS && budget > 0.0 {
            let (inputs, setup) = timed(|| workload.setup(seed));
            drop(inputs);
            extra.push(setup);
            budget -= setup;
        }
        let to_reference = Calibrator::to_reference(probe_2, probe.sample());
        setup_s.extend(extra.iter().map(|s| s * to_reference));
    }
    let raw = Quartiles::of(&raw_wall_s);
    eprintln!(
        "{}: raw wall_s median {:.6} [q1 {:.6}, q3 {:.6}], host speed {:.3} of reference",
        workload.name(),
        raw.median,
        raw.q1,
        raw.q3,
        Quartiles::of(&wall_s).median / raw.median,
    );

    let wall = Quartiles::of(&wall_s);
    let ops = first.operations as f64;
    let rate = |w: f64| ops / w;
    let sim = sim_stats(&first.summaries, "Tangram");
    let ops_per_s = Quartiles {
        q1: rate(wall.q3),
        median: rate(wall.median),
        q3: rate(wall.q1),
        n: wall.n,
    };
    let run_allocs = counts.allocs - before_run.allocs;
    let readings = [
        ("setup_s", Quartiles::of(&setup_s)),
        ("wall_s", wall),
        // CPU time is read in 10 ms ticks, so the mean over the timed
        // repetitions resolves finer than any one of them.
        ("cpu_s", Quartiles::exact(cpu_s / wall_s.len() as f64)),
        ("ops_per_s", ops_per_s),
        ("peak_alloc_mb", Quartiles::exact(counts.peak as f64 / 1e6)),
        ("allocs_per_op", Quartiles::exact(run_allocs as f64 / ops)),
        ("sim_completed_pct", Quartiles::exact(sim.completed_pct)),
        ("sim_p99_latency_s", Quartiles::exact(sim.p99_latency_s)),
    ];
    let reading = |name: &str| {
        let found = readings.iter().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("no reading for `{name}`")).1
    };
    RunResult {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, reading(m.name)))
            .collect(),
        errors,
    }
}

/// Runs the staged pass and reports the per-layer metrics; the spans
/// come back for the caller to write out.
pub fn per_layer<W: Workload>(workload: &W, seed: u64) -> (RunResult, Spans) {
    let mut spans = Spans::new(workload.name());
    let mut ledger = Ledger::default();
    let errors: Vec<String> = workload
        .staged(seed, &mut spans, &mut ledger)
        .err()
        .into_iter()
        .collect();
    let result = RunResult {
        correct: errors.is_empty(),
        attempted: 1,
        failed: u64::from(!errors.is_empty()),
        metrics: ledger
            .iter()
            .map(|(m, value)| (m.name, m.unit, Quartiles::exact(value)))
            .collect(),
        errors,
    };
    (result, spans)
}

/// FNV-1a over `bytes`, continuing from `state` — the digest of outputs
/// that must repeat exactly across repetitions.
#[must_use]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis: the initial `state` of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The last entries of every staged pass: the simulated statistics of
/// the root call's outcome and the instrument's own honesty figures.
/// `coverage_pct` is the staged time as a share of the call it replays;
/// `reference` is the repetition made just before the `root` one, with
/// no phase of it adopted.
pub fn close_ledger(
    ledger: &mut Ledger,
    spans: &Spans,
    outcome: &Outcome,
    (root, reference): (SpanId, SpanId),
    coverage_pct: f64,
) {
    let sim = sim_stats(&outcome.summaries, "Tangram");
    ledger.set("sim.slo_violation_pct", sim.slo_violation_pct);
    ledger.set("sim.cost_usd_per_kpatch", sim.cost_usd_per_kpatch);
    ledger.set("sim.uplink_mb_per_frame", sim.uplink_mb_per_frame);
    ledger.set("sim.patches_per_batch", sim.patches_per_batch);
    ledger.set("bench.coverage_pct", coverage_pct);
    let reference_s = spans.seconds(reference);
    ledger.set(
        "bench.staged_overhead_pct",
        100.0 * (spans.seconds(root) - reference_s) / reference_s,
    );
    ledger.set("bench.host_speed", spans.host_speed());
}
