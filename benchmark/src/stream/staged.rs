//! The staged pass of the stream workloads.
//!
//! The generated inputs are re-driven through each layer's public
//! functions in pipeline order — camera sources → uplink → event queue →
//! platform → (admission → fair ingress →) scheduler → stitch solver →
//! estimator — each stage consuming the previous stage's output, each
//! one span bracketed by host-speed probes. Stages that depend on
//! feedback from the backend (admission verdicts, DRR rounds, platform
//! snapshots) are replayed from the program's own TRACE/1.0 log, in the
//! exact order the engine made the calls; a run without ingress stages
//! needs no trace, its platform calls are rebuilt from the report.
//!
//! Every replay is held to what the engine reported: frame and patch
//! counts, platform statistics, every recorded backend signal, verdict
//! and DRR round, and the batches the scheduler formed.

use super::{Kind, Stream, StreamDetail, StreamInputs};
use crate::alloc;
use crate::metrics::{ratio, Ledger};
use crate::spans::{SpanId, Spans};
use crate::workload::{close_ledger, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use tangram_core::admission::{Admission, AdmissionSignals};
use tangram_core::faults::{FaultKind, FaultSpec};
use tangram_core::online::{CameraSource, GeneratedSource, StreamEvent, TenantClass};
use tangram_core::policy::{Arrival, BatchSpec, BatchingPolicy, PolicyOutput};
use tangram_core::report::{RunReport, RunSummary};
use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_core::workload::TraceFrame;
use tangram_infer::estimator::LatencyEstimator;
use tangram_net::{Link, LinkConfig};
use tangram_serverless::platform::{
    BackendSnapshot, InvocationRequest, PlatformStats, ServerlessPlatform,
};
use tangram_sim::event::EventQueue;
use tangram_sim::rng::DetRng;
use tangram_stitch::solver::PatchStitchingSolver;
use tangram_trace::{TraceEvent, TraceLog, TraceSink};
use tangram_types::ids::InvocationId;
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Bytes;

/// One frame a camera captured, with its capture instant.
struct Capture {
    at: SimTime,
    cam: usize,
    frame: TraceFrame,
}

/// One work item delivered to the cloud.
struct Delivery {
    at: SimTime,
    arrival: Arrival,
}

/// What the scheduler sees at one instant: fresh signals (admission-aware
/// runs) and the arrivals `infos[first..first + count]`.
struct SchedulerStep {
    at: SimTime,
    signals: Option<AdmissionSignals>,
    first: usize,
    count: usize,
}

/// One call into the serverless platform, in engine order.
enum PlatformOp {
    Submit {
        at: SimTime,
        canvases: usize,
        megapixels: f64,
    },
    /// Acknowledges the n-th submission.
    Complete(usize),
    Snapshot(SimTime),
    EvictIdle(SimTime),
}

/// The staged pass of `workload` on `seed`.
pub(super) fn stage(
    workload: &Stream,
    seed: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Result<(), String> {
    // Set-up layers, as stages of their own (they run before the root).
    let (planned, parse) = spans.stage("harness.scenario_file", None, || workload.plan(seed));
    if matches!(workload.kind, Kind::Scenario { .. }) {
        ledger.set("harness.scenario_file.parse_s", spans.seconds(parse));
    }
    let (inputs, build) = spans.stage("core.workload", None, || planned.build());
    ledger.set("core.workload.build_s", spans.seconds(build));

    // Warm-up, a reference repetition, then the root span.
    drop(workload.run(&inputs, 1));
    let (_, reference) = spans.stage("reference", None, || drop(workload.run(&inputs, 1)));
    let (detail, root) = spans.stage("end_to_end", None, || workload.run(&inputs, 1));
    let outcome = workload.outcome(&inputs, &detail);
    workload.check(&inputs, &outcome, &detail)?;
    let mut engine = root;
    for phase in &detail.phases {
        let id = spans.adopt(phase, Some(root));
        if phase.name == "core.online" {
            engine = id;
        }
    }

    // The replay script of the feedback-dependent stages: the program's
    // own trace (the workload's, or one captured just for this).
    let ingress = inputs.admission.is_some() || inputs.fairness.is_some();
    let captured;
    let script: Option<&TraceLog> = match (&detail.log, ingress) {
        (Some(log), _) => Some(log),
        (None, true) => {
            let (traced_report, log) = inputs.engine(true, 1);
            if traced_report.summarize() != detail.summary {
                return Err("a traced run's summary differs from the untraced run's".into());
            }
            captured = log;
            captured.as_ref()
        }
        (None, false) => None,
    };

    let mut staging = Staging {
        inputs: &inputs,
        report: &detail.report,
        summary: &detail.summary,
        spans,
        ledger,
        engine,
    };
    let captures = staging.sources()?;
    let deliveries = staging.uplink(&captures)?;
    staging.event_queue(&captures, &deliveries);
    let (infos, steps) = match script {
        Some(log) if ingress => {
            let snapshots = staging.platform(&platform_script_from_trace(&inputs, log)?)?;
            staging.ingress(log, &deliveries, &snapshots)?
        }
        _ => {
            staging.platform(&platform_script_from_report(&inputs, &detail.report))?;
            unfiltered_steps(&deliveries)
        }
    };
    staging.scheduler(&steps, &infos)?;
    if inputs.traced {
        staging.trace_layer(&detail);
    }
    staging.engine_and_shards()?;

    // Staged replays (the engine phase's children) plus the workload's
    // other phases, against the whole end-to-end call; the engine
    // phase's own self time is what the replay leaves unexplained.
    let explained =
        spans.children_seconds(engine) + spans.children_seconds(root) - spans.seconds(engine);
    let coverage_pct = 100.0 * explained / spans.seconds(root);
    close_ledger(ledger, spans, &outcome, (root, reference), coverage_pct);
    Ok(())
}

/// Without ingress stages every delivery reaches the scheduler, alone,
/// at its delivery instant.
fn unfiltered_steps(deliveries: &[Delivery]) -> (Vec<PatchInfo>, Vec<SchedulerStep>) {
    let infos = deliveries.iter().map(|d| *d.arrival.info()).collect();
    let steps = deliveries
        .iter()
        .enumerate()
        .map(|(first, d)| SchedulerStep {
            at: d.at,
            signals: None,
            first,
            count: 1,
        })
        .collect();
    (infos, steps)
}

/// The staged pass in flight: the inputs, what the engine reported for
/// them, and where the readings go.
struct Staging<'a> {
    inputs: &'a StreamInputs,
    report: &'a RunReport,
    summary: &'a RunSummary,
    spans: &'a mut Spans,
    ledger: &'a mut Ledger,
    /// The engine phase of the root call: the parent of every replay.
    engine: SpanId,
}

impl Staging<'_> {
    /// Stage 1 — the camera sources.
    fn sources(&mut self) -> Result<Vec<Capture>, String> {
        let (captures, span) = stage_source(self.inputs, self.spans, Some(self.engine));
        self.ledger.busy(
            "core.online.source",
            "frames",
            (self.spans.seconds(span), captures.len() as u64),
        );
        if captures.len() as u64 != self.report.frames {
            return Err(format!(
                "staged sources produced {} frames, the engine {}",
                captures.len(),
                self.report.frames
            ));
        }
        Ok(captures)
    }

    /// Stage 2 — the uplink.
    fn uplink(&mut self, captures: &[Capture]) -> Result<Vec<Delivery>, String> {
        let (deliveries, span) = stage_link(self.inputs, captures, self.spans, Some(self.engine));
        self.ledger.busy(
            "net.link",
            "calls",
            (self.spans.seconds(span), deliveries.len() as u64),
        );
        self.ledger.set(
            "net.link.utilisation",
            ratio(
                self.report.transmission_busy.as_secs_f64(),
                self.report.makespan.as_secs_f64(),
            ),
        );
        if deliveries.len() as u64 != self.inputs.offered {
            return Err(format!(
                "staged uplink carried {} patches, the cameras offered {}",
                deliveries.len(),
                self.inputs.offered
            ));
        }
        Ok(deliveries)
    }

    /// Stage 3 — the event queue: as many pop/push pairs as the engine
    /// processed events, at the run's mean queue depth.
    fn event_queue(&mut self, captures: &[Capture], deliveries: &[Delivery]) {
        let depth = mean_queue_depth(captures, deliveries) + self.inputs.traces.len() + 2;
        let events = self.report.events_processed;
        let span = stage_event_queue(depth, events, &deliveries[0], self.spans, Some(self.engine));
        self.ledger
            .busy("sim.event", "ops", (self.spans.seconds(span), 2 * events));
    }

    /// Stage 4 — the serverless platform, replaying `ops`; returns the
    /// snapshots taken.
    fn platform(&mut self, ops: &[PlatformOp]) -> Result<Vec<BackendSnapshot>, String> {
        let (replayed, span) = stage_platform(self.inputs, ops, self.spans, Some(self.engine));
        let (snapshots, stats) = replayed?;
        let submits = ops
            .iter()
            .filter(|op| matches!(op, PlatformOp::Submit { .. }))
            .count() as u64;
        self.ledger.busy(
            "serverless.platform",
            "submits",
            (self.spans.seconds(span), submits),
        );
        self.ledger
            .set("serverless.platform.snapshots", snapshots.len() as f64);
        self.ledger
            .set("serverless.platform.cold_starts", stats.cold_starts as f64);
        let engine = &self.report.platform;
        if stats.invocations != engine.invocations
            || stats.cold_starts != engine.cold_starts
            || (stats.total_cost.get() - engine.total_cost.get()).abs()
                > 1e-9 * engine.total_cost.get()
        {
            return Err(format!(
                "replayed platform stats {stats:?} differ from the engine's {engine:?}"
            ));
        }
        Ok(snapshots)
    }

    /// Stages 5 and 6 — admission and the fair ingress, replayed from
    /// the trace; returns what reaches the scheduler.
    fn ingress(
        &mut self,
        log: &TraceLog,
        deliveries: &[Delivery],
        snapshots: &[BackendSnapshot],
    ) -> Result<(Vec<PatchInfo>, Vec<SchedulerStep>), String> {
        let replay = stage_ingress(
            self.inputs,
            log,
            deliveries,
            snapshots,
            self.spans,
            Some(self.engine),
        )?;
        let (spans, ledger) = (&*self.spans, &mut *self.ledger);
        ledger.busy(
            "core.admission",
            "calls",
            (spans.total("core.admission").0, replay.verdicts),
        );
        ledger.set(
            "core.admission.shed_ratio",
            ratio(replay.shed as f64, replay.verdicts as f64),
        );
        ledger.set(
            "core.admission.verdict_mismatches",
            replay.verdict_mismatches as f64,
        );
        ledger.busy(
            "core.fairness",
            "enqueues",
            (spans.total("core.fairness").0, replay.enqueues),
        );
        ledger.set("core.fairness.rounds", replay.rounds as f64);
        ledger.set(
            "core.fairness.overflow_ratio",
            ratio(replay.overflow as f64, replay.enqueues as f64),
        );
        ledger.set("core.fairness.gold_share", replay.gold_share);
        if replay.verdict_mismatches > 0 || replay.round_mismatches > 0 {
            return Err(format!(
                "replay diverged from the trace: {} verdicts, {} DRR rounds",
                replay.verdict_mismatches, replay.round_mismatches
            ));
        }
        if replay.shed + replay.overflow != self.summary.dropped_arrivals {
            return Err(format!(
                "replayed sheds {} + overflow {} != dropped {}",
                replay.shed, replay.overflow, self.summary.dropped_arrivals
            ));
        }
        Ok((replay.infos, replay.steps))
    }

    /// Stages 7 to 9 — the scheduler (Algorithm 2) over the staged
    /// arrivals, then its two children: the stitch solver once per
    /// dispatched batch, and the estimator's slack lookups. The
    /// scheduler and the solver run once timed and once counted.
    fn scheduler(&mut self, steps: &[SchedulerStep], infos: &[PatchInfo]) -> Result<(), String> {
        let (inputs, spans, ledger) = (self.inputs, &mut *self.spans, &mut *self.ledger);
        let (estimator, profile) =
            spans.stage("infer.estimator.profile", Some(self.engine), || {
                profile_estimator(inputs)
            });
        ledger.set("infer.estimator.profile_s", spans.seconds(profile));

        let mut scheduler = new_scheduler(inputs, estimator.clone());
        let ((batches, calls), scheduler_span) =
            spans.stage("core.scheduler", Some(self.engine), || {
                drive_scheduler(&mut scheduler, steps, infos)
            });
        let mut recount = new_scheduler(inputs, estimator.clone());
        let (_, allocs) = alloc::counted(|| drive_scheduler(&mut recount, steps, infos));
        let patches: usize = batches.iter().map(BatchSpec::patch_count).sum();
        ledger.busy(
            "core.scheduler",
            "calls",
            (spans.seconds(scheduler_span), calls),
        );
        ledger.set("core.scheduler.batches", batches.len() as f64);
        ledger.set(
            "core.scheduler.patches_per_batch",
            ratio(patches as f64, batches.len() as f64),
        );
        // A batch of n patches was built by n arrivals that re-stitched
        // queues of 1, 2, …, n patches.
        let restitched: f64 = batches
            .iter()
            .map(|b| (b.patch_count() * (b.patch_count() + 1) / 2) as f64)
            .sum();
        ledger.set(
            "core.scheduler.restitch_patches_per_call",
            ratio(restitched, patches as f64),
        );
        ledger.set(
            "core.scheduler.allocs_per_patch",
            ratio(allocs.allocs as f64, patches as f64),
        );
        let engine_batches = self.summary.batches as f64;
        if patches as u64 != self.summary.patches
            || (batches.len() as f64 - engine_batches).abs() > 0.01 * engine_batches
        {
            return Err(format!(
                "staged scheduler made {} batches of {patches} patches, the engine {} of {}",
                batches.len(),
                self.summary.batches,
                self.summary.patches
            ));
        }

        let solver = PatchStitchingSolver::new(inputs.config.canvas_size);
        let (stitched, stitch_span) = spans.stage("stitch.solver", Some(scheduler_span), || {
            drive_solver(&solver, &batches)
        });
        let (canvases, efficiency) = stitched?;
        let (_, allocs) = alloc::counted(|| drive_solver(&solver, &batches));
        ledger.busy(
            "stitch.solver",
            "calls",
            (spans.seconds(stitch_span), batches.len() as u64),
        );
        ledger.set(
            "stitch.solver.canvases_per_batch",
            ratio(canvases as f64, batches.len() as f64),
        );
        ledger.set(
            "stitch.solver.canvas_efficiency",
            ratio(efficiency, canvases as f64),
        );
        ledger.set(
            "stitch.solver.allocs_per_call",
            ratio(allocs.allocs as f64, batches.len() as f64),
        );

        // One slack lookup per arrival, for its batch's canvas count.
        let lookups: Vec<usize> = batches
            .iter()
            .flat_map(|b| std::iter::repeat_n(b.inputs, b.patch_count()))
            .collect();
        let ((), lookup_span) = spans.stage("infer.estimator", Some(scheduler_span), || {
            for &canvases in &lookups {
                black_box(estimator.slack_for(black_box(canvases)));
            }
        });
        ledger.busy(
            "infer.estimator",
            "calls",
            (spans.seconds(lookup_span), lookups.len() as u64),
        );
        Ok(())
    }

    /// The trace layer (only where the workload itself traces): `emit`
    /// replayed over the recorded events, timed then counted; the cost
    /// of capture as traced minus untraced engine run; and the codec
    /// phases of the root call.
    fn trace_layer(&mut self, detail: &StreamDetail) {
        let Some(log) = &detail.log else { return };
        let (inputs, spans, ledger) = (self.inputs, &mut *self.spans, &mut *self.ledger);
        let events = || -> Vec<(SimTime, TraceEvent)> {
            log.records
                .iter()
                .map(|r| (SimTime::from_micros(r.at_us), r.event.clone()))
                .collect()
        };
        let emit = |events: Vec<(SimTime, TraceEvent)>| {
            let mut sink = TraceSink::new();
            for (at, event) in events {
                sink.emit(at, event);
            }
            sink.finish()
        };
        let timed_events = events();
        let (replayed, sink_span) =
            spans.stage("trace.sink", Some(self.engine), || emit(timed_events));
        debug_assert_eq!(replayed.final_hash(), log.final_hash());
        drop(replayed);
        let counted_events = events();
        let (_, allocs) = alloc::counted(|| emit(counted_events));
        let (_, untraced) = spans.stage("core.online.untraced", None, || {
            black_box(inputs.engine(false, 1))
        });
        let records = log.records.len();
        ledger.busy(
            "trace.sink",
            "records",
            (spans.seconds(sink_span), records as u64),
        );
        ledger.set(
            "trace.sink.overhead_pct",
            100.0 * (spans.seconds(self.engine) / spans.seconds(untraced) - 1.0),
        );
        ledger.set(
            "trace.sink.allocs_per_record",
            allocs.allocs as f64 / records as f64,
        );
        let jsonl_bytes = detail.round_trip.as_ref().map_or(0, |(bytes, _)| *bytes);
        ledger.set("trace.log.bytes", jsonl_bytes as f64);
        for codec in ["to_jsonl", "from_jsonl", "verify"] {
            ledger.set(
                &format!("trace.log.{codec}_s"),
                spans.total(&format!("trace.log.{codec}")).0,
            );
        }
    }

    /// The engine itself — what the staged layers leave unexplained, and
    /// its allocation rate from a counted run — and the same run at two
    /// shards: identical output, informational time.
    fn engine_and_shards(&mut self) -> Result<(), String> {
        let (inputs, spans, ledger) = (self.inputs, &mut *self.spans, &mut *self.ledger);
        let run_s = spans.seconds(self.engine);
        let events = self.report.events_processed as f64;
        let (_, allocs) = alloc::counted(|| black_box(inputs.engine(false, 1)));
        ledger.set("core.online.events", events);
        ledger.set("core.online.run_s", run_s);
        ledger.set("core.online.self_s", spans.self_seconds(self.engine));
        ledger.set("core.online.ns_per_event", 1e9 * run_s / events);
        ledger.set(
            "core.online.events_per_patch",
            ratio(events, inputs.offered as f64),
        );
        ledger.set(
            "core.online.allocs_per_event",
            allocs.allocs as f64 / events,
        );
        ledger.busy(
            "core.report",
            "records",
            (
                spans.total("core.report").0,
                (self.report.patches.len() + self.report.batches.len()) as u64,
            ),
        );

        let ((sharded, _), shard_span) =
            spans.stage("core.shard", None, || inputs.engine(false, 2));
        if sharded.summarize() != *self.summary
            || sharded.events_processed != self.report.events_processed
        {
            return Err("the 2-shard run diverged from the 1-shard run".into());
        }
        let wall_2 = spans.seconds(shard_span);
        ledger.set("core.shard.wall_s_2", wall_2);
        ledger.set("core.shard.speedup_2", run_s / wall_2);
        Ok(())
    }
}

/// Drives every camera's generator exactly as the engine's capture path
/// does (`next_frame`, then `next_capture`, then the exhaustion check),
/// and merges the per-camera timelines by capture instant.
fn stage_source(
    inputs: &StreamInputs,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> (Vec<Capture>, SpanId) {
    let root = DetRng::new(inputs.config.seed);
    let interval = inputs.frame_interval();
    let mut sources: Vec<(SimTime, GeneratedSource)> = inputs
        .traces
        .iter()
        .enumerate()
        .map(|(cam, trace)| {
            let tenant = TenantClass::new("tenant", inputs.slo_of(cam));
            let source = GeneratedSource::new(
                trace,
                inputs.scenario.frames_per_camera,
                inputs.scenario.arrival.process(),
                root.fork_indexed("scenario-arrival", cam as u64),
            )
            .with_tenant(&tenant);
            let join = SimTime::from_secs_f64(inputs.scenario.join_stagger_s * cam as f64);
            (join, source)
        })
        .collect();
    let mut captures = Vec::with_capacity(inputs.traces.len() * inputs.scenario.frames_per_camera);
    let ((), span) = spans.stage("core.online.source", parent, || {
        for (cam, (join, source)) in sources.iter_mut().enumerate() {
            let mut now = *join;
            while let Some(frame) = source.next_frame() {
                let next = source.next_capture(now, interval, SimTime::ZERO);
                captures.push(Capture {
                    at: now,
                    cam,
                    frame,
                });
                if source.is_exhausted() {
                    break;
                }
                now = next;
            }
        }
    });
    // Stable: simultaneous captures keep camera order.
    captures.sort_by_key(|c| c.at);
    (captures, span)
}

/// Feeds every captured patch to a [`Link`] in capture order, applying
/// link outages at their start edge, and returns the deliveries.
fn stage_link(
    inputs: &StreamInputs,
    captures: &[Capture],
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> (Vec<Delivery>, SpanId) {
    let mut outages: Vec<&FaultSpec> = inputs
        .scenario
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::LinkOutage)
        .collect();
    outages.sort_by_key(|f| f.start());
    // Materialise the wire items as the engine does: capture instant and
    // tenant SLO stamped on every patch, ready after the edge delay.
    let mut items: Vec<(SimTime, Bytes)> = Vec::with_capacity(inputs.offered as usize);
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(inputs.offered as usize);
    let mut outage_before: Vec<(usize, SimTime)> = Vec::new();
    let mut next_outage = 0;
    for capture in captures {
        while next_outage < outages.len() && outages[next_outage].start() <= capture.at {
            outage_before.push((items.len(), outages[next_outage].end()));
            next_outage += 1;
        }
        let slo = inputs.slo_of(capture.cam);
        for patch in &capture.frame.patches {
            let info = PatchInfo {
                generated_at: capture.at,
                slo,
                ..patch.info
            };
            items.push((capture.at + inputs.config.edge_delay, patch.encoded_size));
            arrivals.push(Arrival::Patch(Patch::new(info, patch.encoded_size)));
        }
    }
    outage_before.push((usize::MAX, SimTime::ZERO));

    let mut link = Link::new(LinkConfig::mbps(inputs.config.bandwidth_mbps));
    let mut delivered: Vec<SimTime> = Vec::with_capacity(items.len());
    let mut outage = 0;
    let ((), span) = spans.stage("net.link", parent, || {
        for (index, &(ready, bytes)) in items.iter().enumerate() {
            while outage_before[outage].0 == index {
                link.outage_until(outage_before[outage].1);
                outage += 1;
            }
            delivered.push(link.enqueue(ready, bytes));
        }
    });
    let deliveries = delivered
        .into_iter()
        .zip(arrivals)
        .map(|(at, arrival)| Delivery { at, arrival })
        .collect();
    (deliveries, span)
}

/// Mean number of patch-arrival events pending when one is popped: every
/// patch is pushed at its capture instant and popped at its delivery.
fn mean_queue_depth(captures: &[Capture], deliveries: &[Delivery]) -> usize {
    let pushes: Vec<SimTime> = captures
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.at, c.frame.patches.len()))
        .collect();
    let mut pushed = 0;
    let mut total = 0u64;
    for (popped, delivery) in deliveries.iter().enumerate() {
        while pushed < pushes.len() && pushes[pushed] <= delivery.at {
            pushed += 1;
        }
        total += (pushed - popped) as u64;
    }
    (total / deliveries.len().max(1) as u64) as usize
}

/// `events` pop/push pairs on an [`EventQueue`] of the engine's own event
/// type, held at `depth` pending events.
fn stage_event_queue(
    depth: usize,
    events: u64,
    sample: &Delivery,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> SpanId {
    let mut queue: EventQueue<StreamEvent> = EventQueue::new();
    for i in 0..depth {
        queue.push(
            SimTime::from_micros(i as u64),
            StreamEvent::PatchArrival {
                arrival: sample.arrival.clone(),
            },
        );
    }
    let horizon = SimDuration::from_micros(depth as u64);
    let ((), span) = spans.stage("sim.event", parent, || {
        for _ in 0..events {
            let (at, event) = queue.pop().expect("the queue is held at its depth");
            queue.push(at + horizon, event);
        }
    });
    black_box(queue.len());
    span
}

/// Whether a cold-start storm is active at `now`.
fn storm_active(faults: &[FaultSpec], now: SimTime) -> bool {
    faults
        .iter()
        .any(|f| f.kind == FaultKind::ColdStartStorm && f.active_at(now))
}

/// The platform call sequence of a run without ingress stages, rebuilt
/// from its report: one submission per batch record, acknowledged when
/// the batch's patches finished.
fn platform_script_from_report(inputs: &StreamInputs, report: &RunReport) -> Vec<PlatformOp> {
    let canvas_mpx = inputs.config.canvas_size.megapixels();
    let mut timeline: Vec<(SimTime, u8, PlatformOp)> = Vec::with_capacity(2 * report.batches.len());
    let mut first_patch = 0;
    for (index, batch) in report.batches.iter().enumerate() {
        let at = batch.dispatched_at;
        if storm_active(&inputs.scenario.faults, at) {
            timeline.push((at, 1, PlatformOp::EvictIdle(at)));
        }
        timeline.push((
            at,
            2,
            PlatformOp::Submit {
                at,
                canvases: batch.inputs.min(inputs.max_batch()),
                megapixels: batch.inputs as f64 * canvas_mpx,
            },
        ));
        let finished = report.patches[first_patch].finished_at;
        first_patch += batch.patch_count;
        timeline.push((finished, 0, PlatformOp::Complete(index)));
    }
    // Stable by (instant, kind): acknowledgements first, as a completion
    // event precedes the work it unblocks.
    timeline.sort_by_key(|&(at, order, _)| (at, order));
    timeline.into_iter().map(|(_, _, op)| op).collect()
}

/// The platform call sequence of a run with ingress stages, read off its
/// trace in record order: a snapshot per admission verdict (and per
/// releasing DRR round when the scheduler is admission-aware), a
/// submission per dispatch, an acknowledgement per completion, an
/// eviction per cold-start-storm edge.
fn platform_script_from_trace(
    inputs: &StreamInputs,
    log: &TraceLog,
) -> Result<Vec<PlatformOp>, String> {
    // Invocation ids are allocated sequentially, one per submission.
    let first_id = log
        .records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FunctionComplete { invocation, .. } => Some(invocation),
            _ => None,
        })
        .min()
        .unwrap_or(0);
    let aware = inputs.config.scheduler_admission_aware;
    let mut ops = Vec::with_capacity(log.records.len());
    for record in &log.records {
        let at = SimTime::from_micros(record.at_us);
        match &record.event {
            TraceEvent::AdmissionVerdict { .. } => ops.push(PlatformOp::Snapshot(at)),
            TraceEvent::DrrRound { released, .. } if aware && *released > 0 => {
                ops.push(PlatformOp::Snapshot(at));
            }
            TraceEvent::BatchDispatch {
                inputs: canvases,
                megapixels_e6,
                ..
            } => {
                if storm_active(&inputs.scenario.faults, at) {
                    ops.push(PlatformOp::EvictIdle(at));
                }
                ops.push(PlatformOp::Submit {
                    at,
                    canvases: (*canvases as usize).min(inputs.max_batch()),
                    megapixels: *megapixels_e6 as f64 / 1e6,
                });
            }
            TraceEvent::FunctionComplete { invocation, .. } => {
                ops.push(PlatformOp::Complete((invocation - first_id) as usize));
            }
            TraceEvent::FaultWindow { kind, .. } if kind == FaultKind::ColdStartStorm.name() => {
                ops.push(PlatformOp::EvictIdle(at));
            }
            _ => {}
        }
    }
    if inputs.admission.is_none() && !aware {
        return Err("an ingress replay needs verdict or round snapshots".into());
    }
    Ok(ops)
}

/// Replays a platform call sequence, returning the snapshots it took
/// and the platform's closing statistics.
fn stage_platform(
    inputs: &StreamInputs,
    ops: &[PlatformOp],
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> (
    Result<(Vec<BackendSnapshot>, PlatformStats), String>,
    SpanId,
) {
    let config = &inputs.config;
    let mut platform = ServerlessPlatform::new(
        config.function_spec.clone(),
        config.latency_model.clone(),
        config.seed,
    )
    .with_prices(config.prices);
    platform.max_instances = config.max_instances;
    let mut ids: Vec<InvocationId> = Vec::with_capacity(ops.len() / 2);
    let mut snapshots = Vec::new();
    let mut rejected = None;
    let ((), span) = spans.stage("serverless.platform", parent, || {
        for op in ops {
            match *op {
                PlatformOp::Submit {
                    at,
                    canvases,
                    megapixels,
                } => {
                    platform.set_compute_factor(1.0);
                    match platform.submit(InvocationRequest {
                        canvases,
                        megapixels,
                        submitted: at,
                    }) {
                        Ok(outcome) => ids.push(outcome.id),
                        Err(e) => {
                            rejected = Some(e);
                            break;
                        }
                    }
                }
                PlatformOp::Complete(index) => {
                    black_box(platform.complete(ids[index]));
                }
                PlatformOp::Snapshot(at) => snapshots.push(platform.snapshot(at)),
                PlatformOp::EvictIdle(at) => {
                    black_box(platform.evict_idle(at));
                }
            }
        }
    });
    let replayed = match rejected {
        Some(e) => Err(format!("replayed submission rejected: {e}")),
        None => Ok((snapshots, platform.stats())),
    };
    (replayed, span)
}

/// What the admission and fair-ingress replays produced.
struct IngressReplay {
    verdicts: u64,
    shed: u64,
    verdict_mismatches: u64,
    enqueues: u64,
    overflow: u64,
    rounds: u64,
    round_mismatches: u64,
    gold_share: f64,
    /// Released arrivals, flattened in release order.
    infos: Vec<PatchInfo>,
    /// One step per releasing round (or per admitted arrival when there
    /// is no fair ingress).
    steps: Vec<SchedulerStep>,
}

/// One recorded DRR service round.
struct Round {
    at: SimTime,
    released: u64,
    backlog: u64,
    /// Index of the snapshot taken for this round, if one was.
    snapshot: Option<usize>,
}

/// Replays the admission policy and the weighted-DRR ingress against the
/// trace: every verdict with the signals it was given, every service
/// round at its recorded instant.
fn stage_ingress(
    inputs: &StreamInputs,
    log: &TraceLog,
    deliveries: &[Delivery],
    snapshots: &[BackendSnapshot],
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> Result<IngressReplay, String> {
    let by_patch: HashMap<u64, usize> = deliveries
        .iter()
        .enumerate()
        .map(|(i, d)| (d.arrival.info().id.raw(), i))
        .collect();
    let aware = inputs.config.scheduler_admission_aware;

    // Pair every verdict / releasing round with its snapshot, in order.
    struct Verdict {
        at: SimTime,
        delivery: usize,
        signals: AdmissionSignals,
        admitted: bool,
    }
    let mut verdicts: Vec<Verdict> = Vec::new();
    // Fair-ingress calls in engine order: `Some` enqueues the arrival,
    // `None` runs the next recorded service round.
    let mut ingress_ops: Vec<Option<Arrival>> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut snapshot = 0;
    let mut signal_mismatches = 0u64;
    for record in &log.records {
        let at = SimTime::from_micros(record.at_us);
        match record.event {
            TraceEvent::AdmissionVerdict {
                patch,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
                ..
            } => {
                let backend = snapshots[snapshot];
                snapshot += 1;
                if backend.in_flight as u64 != in_flight
                    || backend.earliest_start != SimTime::from_micros(earliest_start_us)
                {
                    signal_mismatches += 1;
                }
                let delivery = *by_patch
                    .get(&patch)
                    .ok_or_else(|| format!("verdict on unknown patch {patch}"))?;
                verdicts.push(Verdict {
                    at,
                    delivery,
                    signals: AdmissionSignals {
                        queued: queued as usize,
                        backend,
                    },
                    admitted,
                });
                if admitted && inputs.fairness.is_some() {
                    ingress_ops.push(Some(deliveries[delivery].arrival.clone()));
                }
            }
            TraceEvent::DrrRound { released, backlog } => {
                let taken = (aware && released > 0).then(|| {
                    snapshot += 1;
                    snapshot - 1
                });
                ingress_ops.push(None);
                rounds.push(Round {
                    at,
                    released,
                    backlog,
                    snapshot: taken,
                });
            }
            _ => {}
        }
    }
    if signal_mismatches > 0 {
        return Err(format!(
            "{signal_mismatches} replayed backend snapshots differ from the recorded signals"
        ));
    }

    let mut replay = IngressReplay {
        verdicts: verdicts.len() as u64,
        shed: 0,
        verdict_mismatches: 0,
        enqueues: 0,
        overflow: 0,
        rounds: 0,
        round_mismatches: 0,
        gold_share: 0.0,
        infos: Vec::new(),
        steps: Vec::new(),
    };

    // Admission: the policy sees the recorded signals, verdict by verdict.
    if let Some(spec) = &inputs.admission {
        let mut policy = spec.build(&inputs.scenario.tenant_slos_s);
        let mut replayed: Vec<bool> = Vec::with_capacity(verdicts.len());
        spans.stage("core.admission", parent, || {
            for v in &verdicts {
                let verdict = policy.admit(v.at, &deliveries[v.delivery].arrival, &v.signals);
                replayed.push(verdict != Admission::Drop);
            }
        });
        for (v, &admitted) in verdicts.iter().zip(&replayed) {
            replay.shed += u64::from(!admitted);
            replay.verdict_mismatches += u64::from(admitted != v.admitted);
        }
    }

    // Fair ingress: enqueue what was admitted, serve at recorded rounds.
    let Some(spec) = &inputs.fairness else {
        for v in verdicts.iter().filter(|v| v.admitted) {
            replay.steps.push(SchedulerStep {
                at: v.at,
                signals: aware.then_some(v.signals),
                first: replay.infos.len(),
                count: 1,
            });
            replay.infos.push(*deliveries[v.delivery].arrival.info());
        }
        return Ok(replay);
    };
    let mut ingress = spec.build(
        &inputs.scenario.tenant_slos_s,
        inputs.config.slo.as_secs_f64(),
    );
    let mut released: Vec<(Vec<Arrival>, usize)> = Vec::with_capacity(rounds.len());
    let (mut enqueues, mut overflow) = (0, 0);
    spans.stage("core.fairness", parent, || {
        for op in ingress_ops {
            match op {
                Some(arrival) => {
                    enqueues += 1;
                    if ingress.enqueue(arrival).is_err() {
                        overflow += 1;
                    }
                }
                None => {
                    let out = ingress.service_round();
                    released.push((out, ingress.backlog()));
                }
            }
        }
    });
    replay.enqueues = enqueues;
    replay.overflow = overflow;
    replay.rounds = rounds.len() as u64;
    for (round, (out, backlog)) in rounds.iter().zip(released) {
        if out.len() as u64 != round.released || backlog as u64 != round.backlog {
            replay.round_mismatches += 1;
        }
        if out.is_empty() {
            continue;
        }
        replay.steps.push(SchedulerStep {
            at: round.at,
            signals: round.snapshot.map(|s| AdmissionSignals {
                queued: backlog,
                backend: snapshots[s],
            }),
            first: replay.infos.len(),
            count: out.len(),
        });
        replay.infos.extend(out.iter().map(|a| *a.info()));
    }
    let admitted = ingress.admitted_by_class();
    let total: u64 = admitted.iter().map(|&(_, n)| n).sum();
    replay.gold_share = ratio(admitted.first().map_or(0, |&(_, n)| n) as f64, total as f64);
    Ok(replay)
}

/// The estimator the engine profiles for its Tangram scheduler (mirrors
/// `EngineConfig::build_policy`, seed derivation included, so the staged
/// scheduler makes the engine's decisions).
fn profile_estimator(inputs: &StreamInputs) -> LatencyEstimator {
    let config = &inputs.config;
    LatencyEstimator::profile(
        &config.latency_model,
        config.canvas_size,
        inputs.max_batch(),
        1000,
        config.sigma_multiplier,
        config.seed ^ 0x51ac,
    )
}

fn new_scheduler(inputs: &StreamInputs, estimator: LatencyEstimator) -> TangramScheduler {
    TangramScheduler::new(
        SchedulerConfig {
            canvas_size: inputs.config.canvas_size,
            max_canvases: inputs.max_batch(),
            admission_aware: inputs.config.scheduler_admission_aware,
        },
        estimator,
    )
}

/// Drives Algorithm 2 over the staged arrivals: the armed timer fires
/// whenever the next step lies at or beyond it, then signals and patches
/// are handed over; the queue is flushed at the end of the stream.
/// Returns the dispatched batches and the number of scheduler calls.
fn drive_scheduler(
    scheduler: &mut TangramScheduler,
    steps: &[SchedulerStep],
    infos: &[PatchInfo],
) -> (Vec<BatchSpec>, u64) {
    let mut batches: Vec<BatchSpec> = Vec::new();
    let mut calls = 0u64;
    let mut collect = |out: PolicyOutput| batches.extend(out.dispatches);
    for step in steps {
        while let Some(invoke_by) = scheduler.invoke_by().filter(|&t| t <= step.at) {
            calls += 1;
            collect(scheduler.on_timer(invoke_by));
        }
        if let Some(signals) = &step.signals {
            scheduler.on_signals(step.at, signals);
        }
        for &info in &infos[step.first..step.first + step.count] {
            calls += 1;
            collect(scheduler.on_patch(step.at, info));
        }
    }
    while let Some(invoke_by) = scheduler.invoke_by() {
        calls += 1;
        collect(scheduler.on_timer(invoke_by));
    }
    collect(scheduler.drain());
    (batches, calls)
}

/// Stitches every batch once; returns the canvas count and the summed
/// canvas efficiency.
fn drive_solver(
    solver: &PatchStitchingSolver,
    batches: &[BatchSpec],
) -> Result<(usize, f64), String> {
    let mut canvases = 0;
    let mut efficiency = 0.0;
    for batch in batches {
        let stitched = solver
            .stitch(&batch.patches)
            .map_err(|e| format!("staged stitch failed: {e}"))?;
        canvases += stitched.len();
        efficiency += stitched.iter().map(|c| c.efficiency()).sum::<f64>();
    }
    Ok((canvases, efficiency))
}
