//! The declared workloads and metrics — the same tables `BENCHMARK.json`
//! carries (a test holds the two in step).
//!
//! `sim_`/`sim.` metrics are **simulated**: statistics of the modelled
//! cameras, uplink and GPU functions, exact for a fixed seed. Everything
//! else is **host-side**: what this code takes to run.

use std::collections::BTreeMap;

/// The six workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "city-wide",
        "Healthy batching (about 35 patches per batch, no violations): core.scheduler and stitch.solver do nearly all the work, so a stitch or scheduler optimisation must show here",
    ),
    (
        "link-saturated",
        "Same fleet on a saturated uplink (1.0 patches per batch): the stitch path is bypassed and per-event engine overhead dominates; a stitch optimisation predicts no change here",
    ),
    (
        "overload-fair",
        "Same engine with admission, weighted-DRR ingress, backend snapshots and faults on; these layers make zero calls in city-wide and link-saturated",
    ),
    (
        "overload-traced",
        "Overload scenario with TRACE/1.0 capture plus to_jsonl, from_jsonl and verify: the trace layer does most of the work here and none elsewhere",
    ),
    (
        "edge-gmm",
        "The paper's edge half (GMM RoI extraction, then Algorithm 1) and the bottleneck of full-fidelity figure reproduction; video, vision and partition do the work, the engine almost none",
    ),
    (
        "paper-sweep",
        "600 closed-loop replay cells (4 policies x 5 SLOs x 5 scenes x 2 seeds at 20/40/80 Mbps) through run_grid and the BENCH JSON codec: the path every figure and table binary takes",
    ),
];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen (per-layer metrics carry none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The end-to-end metrics. An *operation* is one offered patch (the four
/// stream workloads), one processed frame (`edge-gmm`) or one sweep cell
/// (`paper-sweep`).
///
/// The driver holds every bound against the spread of ten runs on ten
/// *different* seeds, so a bound has to clear the seed-to-seed variation
/// of the noisiest workload (measured in `README.md`), not just timer
/// noise; on one seed the counts and simulated statistics repeat exactly.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_alloc_mb", "MB", Better::Lower, 0.15),
    e2e("allocs_per_op", "count", Better::Lower, 0.15),
    e2e("sim_completed_pct", "%", Better::Higher, 0.2),
    e2e("sim_p99_latency_s", "s", Better::Lower, 0.25),
];

/// The per-layer metrics, outside-in. Every one is emitted on every
/// workload; a layer the workload never calls reads 0.
pub const PER_LAYER: [Metric; 94] = [
    lo("video.scene.frames", "count"),
    lo("video.scene.busy_s", "s"),
    lo("vision.gmm.calls", "count"),
    lo("vision.gmm.busy_s", "s"),
    lo("vision.gmm.ns_per_px", "ns"),
    lo("vision.mask.calls", "count"),
    lo("vision.mask.busy_s", "s"),
    lo("vision.mask.ns_per_px", "ns"),
    lo("vision.cc.calls", "count"),
    lo("vision.cc.busy_s", "s"),
    lo("vision.cc.components", "count"),
    lo("vision.extractor.busy_s", "s"),
    lo("vision.extractor.rois", "count"),
    lo("partition.algorithm.calls", "count"),
    lo("partition.algorithm.busy_s", "s"),
    lo("partition.algorithm.patches", "count"),
    lo("partition.algorithm.area_ratio", "ratio"),
    lo("video.codec.calls", "count"),
    lo("video.codec.busy_s", "s"),
    lo("video.codec.bytes", "bytes"),
    lo("core.workload.build_s", "s"),
    lo("core.online.events", "count"),
    lo("core.online.run_s", "s"),
    lo("core.online.self_s", "s"),
    lo("core.online.ns_per_event", "ns"),
    lo("core.online.events_per_patch", "ratio"),
    lo("core.online.allocs_per_event", "count"),
    lo("core.online.source.frames", "count"),
    lo("core.online.source.busy_s", "s"),
    lo("sim.event.ops", "count"),
    lo("sim.event.busy_s", "s"),
    lo("net.link.calls", "count"),
    lo("net.link.busy_s", "s"),
    lo("net.link.utilisation", "ratio"),
    lo("core.scheduler.calls", "count"),
    lo("core.scheduler.busy_s", "s"),
    lo("core.scheduler.batches", "count"),
    hi("core.scheduler.patches_per_batch", "ratio"),
    lo("core.scheduler.restitch_patches_per_call", "ratio"),
    lo("core.scheduler.allocs_per_patch", "count"),
    lo("stitch.solver.calls", "count"),
    lo("stitch.solver.busy_s", "s"),
    lo("stitch.solver.canvases_per_batch", "ratio"),
    hi("stitch.solver.canvas_efficiency", "ratio"),
    lo("stitch.solver.allocs_per_call", "count"),
    lo("infer.estimator.calls", "count"),
    lo("infer.estimator.busy_s", "s"),
    lo("infer.estimator.profile_s", "s"),
    lo("serverless.platform.submits", "count"),
    lo("serverless.platform.busy_s", "s"),
    lo("serverless.platform.snapshots", "count"),
    lo("serverless.platform.cold_starts", "count"),
    lo("core.admission.calls", "count"),
    lo("core.admission.busy_s", "s"),
    lo("core.admission.shed_ratio", "ratio"),
    lo("core.admission.verdict_mismatches", "count"),
    lo("core.fairness.enqueues", "count"),
    lo("core.fairness.rounds", "count"),
    lo("core.fairness.busy_s", "s"),
    lo("core.fairness.overflow_ratio", "ratio"),
    hi("core.fairness.gold_share", "ratio"),
    lo("core.report.records", "count"),
    lo("core.report.busy_s", "s"),
    lo("core.shard.wall_s_2", "s"),
    hi("core.shard.speedup_2", "ratio"),
    lo("trace.sink.records", "count"),
    lo("trace.sink.busy_s", "s"),
    lo("trace.sink.overhead_pct", "%"),
    lo("trace.sink.allocs_per_record", "count"),
    lo("trace.log.bytes", "bytes"),
    lo("trace.log.to_jsonl_s", "s"),
    lo("trace.log.from_jsonl_s", "s"),
    lo("trace.log.verify_s", "s"),
    lo("harness.scenario_file.parse_s", "s"),
    lo("harness.pool.cells", "count"),
    lo("harness.pool.busy_s", "s"),
    hi("harness.pool.efficiency", "ratio"),
    lo("harness.report.bytes", "bytes"),
    lo("harness.report.to_json_s", "s"),
    lo("harness.report.from_json_s", "s"),
    lo("core.policy.tangram.busy_s", "s"),
    lo("core.policy.clipper.busy_s", "s"),
    lo("core.policy.elf.busy_s", "s"),
    lo("core.policy.mark.busy_s", "s"),
    lo("core.policy.clipper.cost_usd_per_kpatch", "usd"),
    lo("core.policy.elf.cost_usd_per_kpatch", "usd"),
    lo("core.policy.mark.cost_usd_per_kpatch", "usd"),
    lo("sim.slo_violation_pct", "%"),
    lo("sim.cost_usd_per_kpatch", "usd"),
    lo("sim.uplink_mb_per_frame", "MB"),
    hi("sim.patches_per_batch", "ratio"),
    hi("bench.coverage_pct", "%"),
    lo("bench.staged_overhead_pct", "%"),
    hi("bench.host_speed", "ratio"),
];

/// The per-layer readings of one staged pass: every declared metric,
/// zero until a stage sets it.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }
}

impl Ledger {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name — a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("per-layer metric `{name}` is not declared"),
        }
    }

    /// Sets a layer's `<layer>.busy_s` and its call count metric.
    pub fn busy(&mut self, layer: &str, count_metric: &str, (seconds, calls): (f64, u64)) {
        self.set(&format!("{layer}.busy_s"), seconds);
        self.set(&format!("{layer}.{count_metric}"), calls as f64);
    }

    /// `(metric, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        PER_LAYER.iter().map(|m| (m, self.values[m.name]))
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 10;

/// Renders `BENCHMARK.json` from the tables above
/// (`benchmark/run.sh --manifest > BENCHMARK.json`).
#[must_use]
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let list = |metrics: &[Metric]| metrics.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER),
    )
}
