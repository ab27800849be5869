//! The event-driven streaming engine: the paper's cloud pipeline as an
//! event loop over six stages.
//!
//! [`crate::engine::EngineConfig::run`] replays pre-materialised traces —
//! a closed world. Real deployments are open: patches arrive continuously
//! from many cameras, cameras join and leave mid-run, tenants carry
//! different SLOs, and the operator may shed load at the ingress. This
//! module is that open world, built on the same deterministic substrate.
//! [`OnlineEngine`] is a [`tangram_sim::driver::EventLoop`] over
//! [`StreamEvent`]s plus the wiring between the stages a patch passes
//! through, each of which owns its state, keeps its own counters and
//! emits its own trace records:
//!
//! | stage | lives in | consumes |
//! |---|---|---|
//! | ingest | `online/ingest.rs` | camera join / leave / capture |
//! | admit | [`crate::admission`] | patch arrivals (verdicts, the drop ledger) |
//! | fair-queue | [`crate::fairness`] | admitted arrivals, DRR ticks |
//! | batch | `online/batch.rs` | released arrivals, invoke timers |
//! | execute | `online/execute.rs` | dispatched batches, completions |
//! | account | [`crate::report`] | executed batches → [`RunReport`] |
//!
//! What a run does beyond its [`EngineConfig`] is decided once, at
//! construction, by a [`Plan`]. Cameras are [`CameraSource`] generators:
//! [`TraceReplaySource`] is the legacy closed-loop replay (the batch
//! entry point mounts one per trace on this very loop), while
//! [`GeneratedSource`] emits frames under a seeded [`ArrivalProcess`]
//! with a per-tenant SLO class.

pub(crate) mod batch;
mod execute;
mod ingest;
mod source;

pub use source::{
    ArrivalProcess, CameraSource, GeneratedSource, StreamEvent, TenantClass, TraceReplaySource,
};

use crate::admission::{AdmissionPolicy, AdmissionSignals, Admit};
use crate::engine::{EngineConfig, PolicyKind};
use crate::fairness::DrrIngress;
use crate::faults::{mute_windows, FaultKind, FaultSpec};
use crate::policy::{BatchSpec, PolicyOutput};
use crate::report::{Account, RunReport};
use batch::Batch;
use execute::Execute;
use ingest::Ingest;
use tangram_sim::driver::EventLoop;
use tangram_trace::{TraceEvent, TraceLog, TraceSink};
use tangram_types::time::SimTime;

/// Everything about a run that is not its [`EngineConfig`], decided once
/// at construction. The default plan — no ingress stages, no faults, no
/// trace — is the legacy batch engine.
#[derive(Default)]
pub struct Plan {
    /// Ingress admission control; `None` admits every arrival
    /// (equivalent to [`AdmissionPolicy::Always`]).
    pub admission: Option<AdmissionPolicy>,
    /// A weighted-DRR stage between admission and the batching policy
    /// (see [`crate::fairness`]); its overflow is counted per class like
    /// any other ingress drop. `None` hands admitted arrivals to the
    /// policy directly.
    pub fair_ingress: Option<DrrIngress>,
    /// Declarative fault windows (see [`crate::faults`]); an empty list
    /// leaves the run bit-for-bit identical.
    pub faults: Vec<FaultSpec>,
    /// Record the runtime event trace. Pure observation: the run itself
    /// is byte-identical with or without it.
    pub trace: bool,
}

/// Where a stage's effects go: future events onto the loop, records into
/// the runtime trace when one is being captured.
pub(crate) struct Outbox {
    events: EventLoop<StreamEvent>,
    pub(crate) trace: Option<TraceSink>,
}

impl Outbox {
    pub(crate) fn new(trace: bool) -> Self {
        Self {
            events: EventLoop::new(),
            trace: trace.then(TraceSink::new),
        }
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: StreamEvent) {
        self.events.schedule(at, event);
    }

    pub(crate) fn emit(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(sink) = &mut self.trace {
            sink.emit(at, event);
        }
    }
}

/// The event-driven streaming engine: an [`EventLoop`] over
/// [`StreamEvent`]s and the wiring between the six pipeline stages.
pub struct OnlineEngine {
    out: Outbox,
    ingest: Ingest,
    admit: Admit,
    fair: Option<DrrIngress>,
    batch: Batch,
    execute: Execute,
    account: Account,
    policy: PolicyKind,
    seed: u64,
}

impl OnlineEngine {
    /// Builds an engine with no cameras; add sources with
    /// [`OnlineEngine::add_camera_at`], then call [`OnlineEngine::run`].
    #[must_use]
    pub fn new(config: &EngineConfig, plan: Plan) -> Self {
        Self {
            out: Outbox::new(plan.trace),
            ingest: Ingest::new(config),
            admit: Admit {
                policy: plan.admission,
                ..Admit::default()
            },
            fair: plan.fair_ingress,
            batch: Batch::new(config),
            execute: Execute::new(config, plan.faults),
            account: Account::default(),
            policy: config.policy,
            seed: config.seed,
        }
    }

    /// Registers a camera that joins the stream at `at`, returning its
    /// index (usable with [`OnlineEngine::remove_camera_at`]).
    pub fn add_camera_at(&mut self, at: SimTime, source: Box<dyn CameraSource>) -> usize {
        let cam = self.ingest.cameras();
        let muted = mute_windows(self.seed, &self.execute.faults.faults, cam);
        self.ingest.add_camera(source, muted);
        self.out.schedule(at, StreamEvent::CameraJoin { cam });
        cam
    }

    /// Schedules camera `cam` to leave the stream at `at`; frames it
    /// would have captured afterwards are never produced.
    pub fn remove_camera_at(&mut self, at: SimTime, cam: usize) {
        self.out.schedule(at, StreamEvent::CameraLeave { cam });
    }

    /// Drives the event loop to quiescence and reports the run, with the
    /// sealed event trace when the [`Plan`] asked for one.
    ///
    /// # Panics
    ///
    /// Panics if no cameras were added.
    #[must_use]
    pub fn run(mut self) -> (RunReport, Option<TraceLog>) {
        let cameras = self.ingest.cameras() as u64;
        assert!(cameras > 0, "need at least one camera source");
        for (fault, spec) in self.execute.faults.faults.iter().enumerate() {
            self.out
                .schedule(spec.start(), StreamEvent::FaultStart { fault });
        }
        self.out.emit(
            SimTime::ZERO,
            TraceEvent::SessionStart {
                policy: self.policy.name().to_string(),
                seed: self.seed,
                cameras,
            },
        );
        let mut events_processed = 0u64;
        while let Some((now, event)) = self.out.events.step() {
            events_processed += 1;
            self.handle(now, event);
        }
        // End of stream: flush whatever the policy still holds; only
        // those batches' completions remain to be acknowledged.
        let now = self.out.events.now();
        for spec in self.batch.flush(now).dispatches {
            self.dispatch(now, spec);
        }
        while let Some((now, event)) = self.out.events.step() {
            events_processed += 1;
            if let StreamEvent::FunctionComplete { id, feedback } = event {
                self.execute.on_complete(now, id, &feedback, &mut self.out);
            }
        }
        // Every accepted work item was dispatched: the queue-depth
        // signal must drain back to exactly zero.
        debug_assert_eq!(
            self.batch.queued, 0,
            "queue-depth accounting leaked {} items past the flush",
            self.batch.queued
        );
        let end = self.out.events.now();
        let makespan = end.since(SimTime::ZERO);
        self.out.emit(
            end,
            TraceEvent::SessionEnd {
                frames: self.ingest.frames_injected,
                batches: self.account.batch_records.len() as u64,
                completions: self.execute.completions,
                dropped: self.admit.dropped_arrivals,
                makespan_us: makespan.as_micros(),
            },
        );
        let fair = self.fair.as_ref();
        let report = RunReport {
            policy: self.policy.name().to_string(),
            patches: self.account.patch_records,
            batches: self.account.batch_records,
            link: self.ingest.link.stats(),
            platform: self.execute.platform.stats(),
            frames: self.ingest.frames_injected,
            frames_muted: self.ingest.frames_muted,
            dropped_arrivals: self.admit.dropped_arrivals,
            dropped_by_slo: self.admit.dropped_by_slo,
            ingress_peak_depth: fair.map(DrrIngress::peak_depths).unwrap_or_default(),
            ingress_admitted: fair.map(DrrIngress::admitted_by_class).unwrap_or_default(),
            transmission_busy: self.ingest.transmission_busy,
            makespan,
            events_processed,
        };
        (report, self.out.trace.map(TraceSink::finish))
    }

    /// Routes one event to the stage that consumes it.
    fn handle(&mut self, now: SimTime, event: StreamEvent) {
        match event {
            StreamEvent::CameraJoin { cam } => self.ingest.on_join(now, cam, &mut self.out),
            StreamEvent::CameraLeave { cam } => self.ingest.on_leave(now, cam, &mut self.out),
            StreamEvent::Capture { cam } => self.ingest.on_capture(now, cam, &mut self.out),
            StreamEvent::PatchArrival { arrival } => {
                // One snapshot serves both consumers: the admission
                // policy's verdict and the batching policy's
                // admission-aware timing.
                if self.admit.policy.is_some() || self.batch.reads_signals {
                    let signals = self.signals(now);
                    if !self
                        .admit
                        .on_arrival(now, &arrival, &signals, &mut self.out)
                    {
                        return;
                    }
                    if self.batch.reads_signals {
                        self.batch.policy.on_signals(now, &signals);
                    }
                }
                match self.fair.as_mut() {
                    // No fair ingress: admitted arrivals reach the policy
                    // directly (the legacy path, byte-identical).
                    None => {
                        let output = self.batch.on_arrival(now, arrival);
                        self.apply(now, output);
                    }
                    Some(fair) => match fair.on_arrival(now, arrival) {
                        Ok(Some(at)) => self.out.schedule(at, StreamEvent::DrrTick),
                        Ok(None) => {}
                        // Overflow: shed at the ingress, charged to the
                        // arrival's own class.
                        Err(shed) => self.admit.count_drop(shed.info().slo),
                    },
                }
            }
            StreamEvent::DrrTick => {
                let Some(fair) = self.fair.as_mut() else {
                    return;
                };
                let (released, next_tick) = fair.on_tick(now, &mut self.out);
                if self.batch.reads_signals && !released.is_empty() {
                    let signals = self.signals(now);
                    self.batch.policy.on_signals(now, &signals);
                }
                for arrival in released {
                    let output = self.batch.on_arrival(now, arrival);
                    self.apply(now, output);
                }
                if let Some(at) = next_tick {
                    self.out.schedule(at, StreamEvent::DrrTick);
                }
            }
            StreamEvent::InvokeTimer => {
                let output = self.batch.on_timer(now);
                self.apply(now, output);
            }
            StreamEvent::FunctionComplete { id, feedback } => {
                self.execute.on_complete(now, id, &feedback, &mut self.out);
                let output = self.batch.policy.on_completion(now, feedback);
                self.apply(now, output);
            }
            StreamEvent::FaultStart { fault } => {
                let spec = &self.execute.faults.faults[fault];
                self.out.emit(
                    now,
                    TraceEvent::FaultWindow {
                        kind: spec.kind.name().to_string(),
                        until_us: spec.end().since(SimTime::ZERO).as_micros(),
                    },
                );
                match spec.kind {
                    // Store-and-forward: everything in flight and
                    // everything enqueued later queues behind the end.
                    FaultKind::LinkOutage => self.ingest.link.outage_until(spec.end()),
                    // Kill the warm pool at the window's start edge; the
                    // execute stage keeps it dead for the duration.
                    FaultKind::ColdStartStorm => {
                        let _ = self.execute.platform.evict_idle(now);
                    }
                    // Window-duration faults actuate statically, at the
                    // dispatch and deliver boundaries.
                    _ => {}
                }
            }
        }
    }

    /// The ingress load signals at `now`. Fair-ingress residents are
    /// admitted-but-not-dispatched work too: without them the shedder
    /// would admit arrivals already doomed by ingress queueing delay.
    fn signals(&self, now: SimTime) -> AdmissionSignals {
        AdmissionSignals {
            queued: self.batch.queued + self.fair.as_ref().map_or(0, DrrIngress::backlog),
            backend: self.execute.platform.snapshot(now),
        }
    }

    /// Acts on what the batch stage returned: dispatches first, then the
    /// wake-up (coalesced by [`Batch::arm`]), so completion events precede
    /// the timer at equal instants.
    fn apply(&mut self, now: SimTime, output: PolicyOutput) {
        for spec in output.dispatches {
            self.dispatch(now, spec);
        }
        if let Some(wake) = self.batch.arm(now, output.next_wake) {
            self.out.schedule(wake, StreamEvent::InvokeTimer);
        }
    }

    /// One batch leaves the batch stage: executed, booked, and its
    /// completion scheduled.
    fn dispatch(&mut self, now: SimTime, spec: BatchSpec) {
        if spec.patches.is_empty() {
            return;
        }
        self.batch.on_dispatch(spec.patches.len());
        let batch = self.account.batch_records.len();
        let outcome = self.execute.on_dispatch(now, batch, &spec, &mut self.out);
        let feedback = self.account.on_dispatch(now, spec, &outcome);
        self.out.schedule(
            outcome.finished,
            StreamEvent::FunctionComplete {
                id: outcome.id,
                feedback,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CameraTrace, TraceConfig};
    use tangram_sim::rng::DetRng;
    use tangram_types::ids::SceneId;
    use tangram_types::time::SimDuration;

    fn trace(scene: u8, frames: usize) -> CameraTrace {
        TraceConfig::proxy_extractor(SceneId::new(scene), frames, 7).build()
    }

    fn config(policy: PolicyKind) -> EngineConfig {
        EngineConfig {
            policy,
            seed: 7,
            ..EngineConfig::default()
        }
    }

    fn poisson_source(scene: u8, budget: usize, fps: f64, seed: u64) -> GeneratedSource {
        GeneratedSource::new(
            &trace(scene, 6),
            budget,
            ArrivalProcess::Poisson { fps },
            DetRng::new(seed).fork_indexed("online-test", u64::from(scene)),
        )
    }

    #[test]
    fn replay_sources_match_the_batch_entry_point() {
        let t = trace(1, 10);
        let cfg = config(PolicyKind::Tangram);
        let batch = cfg.run(std::slice::from_ref(&t));
        let mut online = OnlineEngine::new(&cfg, Plan::default());
        online.add_camera_at(SimTime::ZERO, Box::new(TraceReplaySource::new(t)));
        let streamed = online.run().0;
        assert_eq!(batch.summarize(), streamed.summarize());
    }

    #[test]
    fn poisson_cameras_stream_patches() {
        let mut engine = OnlineEngine::new(&config(PolicyKind::Tangram), Plan::default());
        engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 8.0, 3)));
        engine.add_camera_at(
            SimTime::from_micros(500),
            Box::new(poisson_source(2, 20, 8.0, 4)),
        );
        let report = engine.run().0;
        assert_eq!(report.frames, 40);
        assert!(report.patches_completed() > 40, "several patches per frame");
        assert_eq!(report.dropped_arrivals, 0);
        let cams: std::collections::HashSet<u32> =
            report.patches.iter().map(|p| p.camera.raw()).collect();
        assert_eq!(cams.len(), 2);
    }

    #[test]
    fn generated_ids_stay_unique_across_cycles() {
        // Budget far beyond the 6-frame pool: content cycles, ids must not.
        let mut src = poisson_source(1, 30, 10.0, 5);
        let mut seen = std::collections::HashSet::new();
        while let Some(frame) = src.next_frame() {
            for p in &frame.patches {
                assert!(seen.insert(p.info.id), "duplicate patch id {:?}", p.info.id);
            }
        }
        assert!(src.is_exhausted());
    }

    #[test]
    fn camera_leave_truncates_the_stream() {
        let cfg = config(PolicyKind::Tangram);
        let mut full = OnlineEngine::new(&cfg, Plan::default());
        full.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 200, 10.0, 9)));
        let full_report = full.run().0;

        let mut churned = OnlineEngine::new(&cfg, Plan::default());
        let cam = churned.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 200, 10.0, 9)));
        churned.remove_camera_at(SimTime::from_secs_f64(5.0), cam);
        let churned_report = churned.run().0;

        assert!(
            churned_report.frames < full_report.frames,
            "leave at 5 s must cut the 200-frame budget short ({} vs {})",
            churned_report.frames,
            full_report.frames
        );
        assert!(churned_report.frames > 0);
    }

    #[test]
    fn admission_hook_sheds_load() {
        let cfg = config(PolicyKind::Tangram);
        let plan = Plan {
            // A zero-depth bound sheds everything.
            admission: Some(AdmissionPolicy::QueueDepth { max_queued: 0 }),
            ..Plan::default()
        };
        let mut engine = OnlineEngine::new(&cfg, plan);
        engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 10, 10.0, 11)));
        let report = engine.run().0;
        assert_eq!(report.patches_completed(), 0);
        assert!(report.dropped_arrivals > 0);
        assert!(report.batches.is_empty());
        // Per-class accounting: one class (the engine default SLO),
        // carrying every drop.
        assert_eq!(report.dropped_by_slo.len(), 1);
        assert_eq!(report.dropped_by_slo[0].0, cfg.slo);
        assert_eq!(report.dropped_by_slo[0].1, report.dropped_arrivals);
        let tenants = report.tenant_breakdown();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].dropped, report.dropped_arrivals);
        assert_eq!(tenants[0].patches, 0);
        let summary = report.summarize();
        assert_eq!(summary.dropped_arrivals, report.dropped_arrivals);
        assert_eq!(summary.tenants, tenants);
    }

    #[test]
    fn always_admit_matches_no_admission_policy() {
        let cfg = config(PolicyKind::Tangram);
        let bare = {
            let mut engine = OnlineEngine::new(&cfg, Plan::default());
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 8.0, 17)));
            engine.run().0.summarize()
        };
        let policed = {
            let plan = Plan {
                admission: Some(AdmissionPolicy::Always),
                ..Plan::default()
            };
            let mut engine = OnlineEngine::new(&cfg, plan);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 8.0, 17)));
            engine.run().0.summarize()
        };
        assert_eq!(bare, policed, "the open door must be a behavioural no-op");
        assert_eq!(policed.dropped_arrivals, 0);
    }

    #[test]
    fn slo_shedder_protects_gold_under_a_capacity_burst() {
        use crate::admission::SloShedder;
        // Two serverless instances, a wide uplink, and a Poisson burst at
        // roughly twice what the backend sustains, split between a tight
        // "gold" tenant and a lax best-effort one: gold alone fits
        // capacity, the mix does not.
        let mut cfg = config(PolicyKind::Tangram);
        cfg.max_instances = Some(2);
        cfg.bandwidth_mbps = 200.0;
        let gold = TenantClass::new("gold", SimDuration::from_millis(800));
        let best_effort = TenantClass::new("best-effort", SimDuration::from_secs(3));

        let plan = Plan {
            admission: Some(AdmissionPolicy::SloShedder(
                SloShedder::new(SimDuration::from_millis(20))
                    .with_pressure(0.5)
                    .with_classes(&[gold.slo, best_effort.slo]),
            )),
            ..Plan::default()
        };
        let mut engine = OnlineEngine::new(&cfg, plan);
        engine.add_camera_at(
            SimTime::ZERO,
            Box::new(poisson_source(1, 60, 16.0, 21).with_tenant(&gold)),
        );
        engine.add_camera_at(
            SimTime::ZERO,
            Box::new(poisson_source(2, 60, 16.0, 22).with_tenant(&best_effort)),
        );
        let report = engine.run().0;
        let tenants = report.tenant_breakdown();
        assert_eq!(tenants.len(), 2);
        let gold_row = &tenants[0];
        let lax_row = &tenants[1];
        assert!((gold_row.slo_s - 0.8).abs() < 1e-12);
        assert!(
            gold_row.patches > 0,
            "gold keeps completing under the burst"
        );
        assert_eq!(
            gold_row.dropped, 0,
            "gold-class patches survive the 2x burst"
        );
        assert!(
            lax_row.dropped > 0,
            "best-effort is shed first under pressure"
        );
        assert_eq!(
            report.dropped_arrivals,
            gold_row.dropped + lax_row.dropped,
            "per-class drops sum to the total"
        );
    }

    fn drr_ingress(weights: &[f64], capacity: usize) -> crate::fairness::DrrIngress {
        use crate::fairness::{DrrConfig, DrrIngress};
        DrrIngress::new(&DrrConfig {
            classes: vec![
                (SimDuration::from_millis(800), weights[0]),
                (SimDuration::from_millis(1500), weights[1]),
            ],
            queue_capacity: capacity,
            quantum: 1.0,
            tick: SimDuration::from_millis(20),
        })
    }

    /// Two gold and two best-effort cameras at roughly 2× the DRR service
    /// rate: the admitted mix must track the 3:1 weights instead of
    /// collapsing to one class, and the per-class queue peaks must land
    /// in the report.
    #[test]
    fn fair_ingress_holds_weighted_shares_under_overload() {
        let gold = TenantClass::new("gold", SimDuration::from_millis(800));
        let lax = TenantClass::new("best-effort", SimDuration::from_millis(1500));
        // A wide uplink so the ingress — not the link — is the limiter:
        // ~500 patches/s offered against a 200 item/s DRR service rate.
        let mut cfg = config(PolicyKind::Tangram);
        cfg.bandwidth_mbps = 200.0;
        let plan = Plan {
            fair_ingress: Some(drr_ingress(&[3.0, 1.0], 32)),
            ..Plan::default()
        };
        let mut engine = OnlineEngine::new(&cfg, plan);
        for (i, tenant) in [&gold, &lax, &gold, &lax].into_iter().enumerate() {
            engine.add_camera_at(
                SimTime::ZERO,
                Box::new(poisson_source(1 + i as u8, 60, 16.0, 31 + i as u64).with_tenant(tenant)),
            );
        }
        let report = engine.run().0;
        let tenants = report.tenant_breakdown();
        assert_eq!(tenants.len(), 2);
        let (gold_row, lax_row) = (&tenants[0], &tenants[1]);
        assert!(lax_row.dropped > 0, "overload must overflow best-effort");
        let admitted = (gold_row.admitted + lax_row.admitted) as f64;
        let gold_share = gold_row.admitted as f64 / admitted;
        // Work-conserving DRR lets an intermittently empty gold queue
        // donate its credit to best-effort, so the admitted mix sits a
        // little below the pure 3:1 weight split — but must still track
        // it, not collapse to one class.
        assert!(
            (gold_share - 0.75).abs() < 0.11,
            "admitted gold share {gold_share:.3} should track weight 3/4"
        );
        assert_eq!(
            gold_row.admitted + gold_row.dropped,
            report
                .ingress_admitted
                .iter()
                .find(|&&(slo, _)| slo == gold.slo)
                .map(|&(_, n)| n)
                .unwrap()
                + gold_row.dropped,
            "admitted + dropped accounts every gold arrival"
        );
        // Per-class queue-depth accounting reaches the report: the
        // overflowing class peaks at its capacity bound.
        assert_eq!(report.ingress_peak_depth.len(), 2);
        assert_eq!(lax_row.peak_queued, 8, "best-effort pins its buffer slice");
        assert!(gold_row.peak_queued > 0);
        // Overflow sheds are ingress drops like any other.
        assert_eq!(report.dropped_arrivals, gold_row.dropped + lax_row.dropped);
        let summary = report.summarize();
        assert_eq!(summary.tenants, tenants);
    }

    /// An uncongested DRR ingress is (almost) invisible: nothing sheds,
    /// every patch completes, and the run drains fully at end of stream.
    #[test]
    fn fair_ingress_is_transparent_below_capacity() {
        let cfg = config(PolicyKind::Tangram);
        let bare = {
            let mut engine = OnlineEngine::new(&cfg, Plan::default());
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 4.0, 17)));
            engine.run().0
        };
        let fair = {
            use crate::fairness::DrrConfig;
            // One class (the engine default SLO) owning the whole buffer.
            let plan = Plan {
                fair_ingress: Some(DrrIngress::new(&DrrConfig {
                    classes: vec![(cfg.slo, 1.0)],
                    queue_capacity: 64,
                    quantum: 1.0,
                    tick: SimDuration::from_millis(20),
                })),
                ..Plan::default()
            };
            let mut engine = OnlineEngine::new(&cfg, plan);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 4.0, 17)));
            engine.run().0
        };
        assert_eq!(fair.dropped_arrivals, 0);
        assert_eq!(
            fair.patches_completed(),
            bare.patches_completed(),
            "every admitted patch must drain through the DRR stage"
        );
        assert_eq!(fair.frames, bare.frames);
    }

    /// With both stages installed, admitted-but-unreleased work sitting
    /// in the DRR queues must count toward the admission policy's
    /// queue-depth signal — otherwise the shedder admits arrivals that
    /// are already doomed by ingress queueing delay.
    #[test]
    fn admission_signals_include_fair_ingress_backlog() {
        use crate::fairness::DrrConfig;
        let cfg = config(PolicyKind::Tangram);
        let plan = Plan {
            admission: Some(AdmissionPolicy::QueueDepth { max_queued: 5 }),
            // A crawling single-class ingress: its standing queue, not
            // the scheduler's, is where admitted-but-undispatched work
            // piles up.
            fair_ingress: Some(DrrIngress::new(&DrrConfig {
                classes: vec![(cfg.slo, 1.0)],
                queue_capacity: 1000,
                quantum: 1.0,
                tick: SimDuration::from_millis(200),
            })),
            ..Plan::default()
        };
        let mut engine = OnlineEngine::new(&cfg, plan);
        engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 20, 16.0, 19)));
        let report = engine.run().0;
        assert!(
            report.dropped_arrivals > 0,
            "queue-depth admission must see the ingress backlog"
        );
    }

    #[test]
    fn fair_ingress_runs_are_deterministic() {
        let run = || {
            let plan = Plan {
                fair_ingress: Some(drr_ingress(&[3.0, 1.0], 8)),
                ..Plan::default()
            };
            let mut engine = OnlineEngine::new(&config(PolicyKind::Tangram), plan);
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(1, 40, 16.0, 23)));
            engine.add_camera_at(SimTime::ZERO, Box::new(poisson_source(2, 40, 16.0, 24)));
            engine.run().0.summarize()
        };
        assert_eq!(run(), run(), "same seed, same digest, sheds included");
    }

    #[test]
    fn tenant_slo_classes_stamp_patches() {
        let cfg = config(PolicyKind::Tangram);
        let gold = TenantClass::new("gold", SimDuration::from_millis(600));
        let best_effort = TenantClass::new("best-effort", SimDuration::from_secs(3));
        let mut engine = OnlineEngine::new(&cfg, Plan::default());
        engine.add_camera_at(
            SimTime::ZERO,
            Box::new(poisson_source(1, 8, 8.0, 13).with_tenant(&gold)),
        );
        engine.add_camera_at(
            SimTime::from_micros(1000),
            Box::new(poisson_source(2, 8, 8.0, 14).with_tenant(&best_effort)),
        );
        let report = engine.run().0;
        let slos: std::collections::HashSet<u64> =
            report.patches.iter().map(|p| p.slo.as_micros()).collect();
        assert!(slos.contains(&600_000), "gold SLO stamped");
        assert!(slos.contains(&3_000_000), "best-effort SLO stamped");
    }

    #[test]
    fn bursty_and_diurnal_processes_are_deterministic() {
        for process in [
            ArrivalProcess::Bursty {
                calm_fps: 2.0,
                burst_fps: 20.0,
                mean_calm_s: 2.0,
                mean_burst_s: 0.5,
            },
            ArrivalProcess::Diurnal {
                min_fps: 1.0,
                max_fps: 12.0,
                period_s: 30.0,
            },
        ] {
            let run = |seed: u64| {
                let mut engine = OnlineEngine::new(&config(PolicyKind::Tangram), Plan::default());
                engine.add_camera_at(
                    SimTime::ZERO,
                    Box::new(GeneratedSource::new(
                        &trace(1, 6),
                        25,
                        process,
                        DetRng::new(seed).fork("bursty-diurnal"),
                    )),
                );
                engine.run().0.summarize()
            };
            assert_eq!(run(5), run(5), "same seed, same digest");
            assert_ne!(
                run(5).makespan_s,
                run(6).makespan_s,
                "different seeds should move the arrival timeline"
            );
        }
    }
}
