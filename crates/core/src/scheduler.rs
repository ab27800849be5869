//! The online SLO-aware batching invoker — Algorithm 2 of the paper.
//!
//! State: a queue `Q` of pending patches and its current stitching `C`
//! (a set of canvases). On every patch arrival the scheduler
//!
//! 1. appends the patch to `Q`, takes the earliest deadline
//!    `t_DDL = min t_ddl_i`, saves the previous canvases `C_old`;
//! 2. re-stitches `Q` with the Patch-stitching Solver — realised as
//!    placing the one new tile onto the canvases kept open since the last
//!    arrival, because the solver is arrival-order first-fit and never
//!    moves an earlier patch — and asks the Latency Estimator for the
//!    conservative execution bound `T_slack = µ + 3σ` of the new canvas
//!    set;
//! 3. computes the invoke-by instant `t_remain = t_DDL − T_slack`;
//! 4. if `t_remain` is already in the past — adding this patch would
//!    break the SLO — or the canvases no longer fit the function's GPU
//!    memory (constraint (5)), it dispatches `C_old` immediately and
//!    restarts the queue with just the new patch;
//! 5. otherwise it (re-)arms a timer for `t_remain`; when the clock
//!    reaches it, the whole canvas set dispatches as one batch.
//!
//! The scheduler is a pure state machine (no IO, no clock reads): both
//! the discrete-event engine and the live runtime drive it with
//! explicit times, which makes Algorithm 2 directly unit-testable.

use crate::policy::{Arrival, BatchSpec, BatchingPolicy, PolicyOutput, Spares};
use tangram_infer::estimator::LatencyEstimator;
use tangram_stitch::solver::{split_to_fit, PatchStitchingSolver, Stitching};
use tangram_types::geometry::Size;
use tangram_types::patch::PatchInfo;
use tangram_types::time::SimTime;

/// Static configuration of the Tangram scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Canvas extent `M × N` (the paper evaluates 1024×1024).
    pub canvas_size: Size,
    /// Maximum canvases one invocation may carry (constraint (5):
    /// `w·Σy + τ ≤ m_G`).
    pub max_canvases: usize,
    /// Admission-aware invoke timing: when set, the scheduler consults
    /// the ingress load signals (fed through
    /// [`crate::policy::BatchingPolicy::on_signals`]) and refuses to
    /// dispatch before the backend's predicted earliest start —
    /// dispatching a batch the backend cannot begin yet buys nothing,
    /// while waiting lets more patches join the canvases. Off (the
    /// default) reproduces Algorithm 2 byte-for-byte.
    pub admission_aware: bool,
}

impl SchedulerConfig {
    /// The paper's defaults: 1024×1024 canvases, batch bound from the
    /// 6 GB-GPU function spec (9 canvases), admission-blind timing.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            canvas_size: Size::CANVAS_1024,
            max_canvases: 9,
            admission_aware: false,
        }
    }
}

/// The Tangram scheduler (Algorithm 2).
pub struct TangramScheduler {
    config: SchedulerConfig,
    estimator: LatencyEstimator,
    /// The pending queue `Q`.
    queue: Vec<PatchInfo>,
    /// Current stitching `C` of `queue`, kept open across arrivals.
    stitching: Stitching,
    /// Earliest (`t_DDL`) and latest deadline in `queue`; `None` when it
    /// is empty.
    deadlines: Option<(SimTime, SimTime)>,
    /// Armed invoke-by instant (`t_remain`), if any.
    invoke_by: Option<SimTime>,
    /// Latest observed backend earliest-start (admission-aware mode only;
    /// `None` until the first signal arrives).
    backend_free_at: Option<SimTime>,
    /// Batches the engine handed back: the next batches' buffers.
    spares: Spares,
}

impl TangramScheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the estimator was profiled for a different canvas size,
    /// or `max_canvases` is zero.
    #[must_use]
    pub fn new(config: SchedulerConfig, estimator: LatencyEstimator) -> Self {
        assert!(
            config.max_canvases > 0,
            "need at least one canvas per batch"
        );
        assert_eq!(
            estimator.canvas(),
            config.canvas_size,
            "estimator profiled for a different canvas size"
        );
        let stitching = Stitching::new(config.canvas_size);
        Self {
            config,
            estimator,
            queue: Vec::new(),
            stitching,
            deadlines: None,
            invoke_by: None,
            backend_free_at: None,
            spares: Spares::default(),
        }
    }

    /// Current number of open canvases.
    #[must_use]
    pub fn open_canvases(&self) -> usize {
        self.stitching.canvases().len()
    }

    /// The armed invoke-by instant, if a batch is pending.
    #[must_use]
    pub fn invoke_by(&self) -> Option<SimTime> {
        self.invoke_by
    }

    /// Accepts one patch at `now` (Algorithm 2, lines 4–18). Oversized
    /// patches (zone rectangles larger than the canvas) are pre-split into
    /// canvas-sized tiles that share the original deadline.
    pub fn on_patch(&mut self, now: SimTime, patch: PatchInfo) -> PolicyOutput {
        let mut out = PolicyOutput::idle();
        if self.config.canvas_size.fits(patch.rect.size()) {
            self.admit(now, patch, &mut out);
        } else {
            for rect in split_to_fit(patch.rect, self.config.canvas_size) {
                self.admit(now, PatchInfo { rect, ..patch }, &mut out);
            }
        }
        out.next_wake = self.invoke_by;
        out
    }

    /// Timer fired (line 19: `t = t_remain`). Spurious ticks are ignored.
    pub fn on_timer(&mut self, now: SimTime) -> PolicyOutput {
        match self.invoke_by {
            Some(t) if now >= t => self.flush_open_canvases(),
            _ => {
                let mut out = PolicyOutput::idle();
                out.next_wake = self.invoke_by;
                out
            }
        }
    }

    /// Dispatches whatever is queued (end of stream).
    pub fn drain(&mut self) -> PolicyOutput {
        self.flush_open_canvases()
    }

    /// Dispatches the open canvas set as one batch — the shared tail of
    /// [`Self::on_timer`] and [`Self::drain`]. A no-op on an empty queue.
    fn flush_open_canvases(&mut self) -> PolicyOutput {
        if self.queue.is_empty() {
            return PolicyOutput::idle();
        }
        PolicyOutput::dispatch(self.take_batch())
    }

    /// `t_remain = t_DDL − T_slack` (lines 8–10) for a stitching of
    /// `inputs` canvases whose patches' deadlines span `t_ddl..=latest`.
    ///
    /// Admission-aware wait extension: while the backend cannot start a
    /// batch before `backend_free_at`, dispatching earlier buys nothing —
    /// execution begins at the same instant either way — so the invoke-by
    /// deadline is pushed out to that instant, letting more patches join
    /// the canvases for free. The extension applies only while *every*
    /// queued patch is already doomed (its deadline unreachable even from
    /// the backend-free instant): a feasible patch must never be dragged
    /// past its own slack by doomed queue-mates, and for feasible work
    /// the SLO-driven `t_remain` always governs. A no-op in the default
    /// (admission-blind) configuration.
    fn t_remain(&self, now: SimTime, inputs: usize, t_ddl: SimTime, latest: SimTime) -> SimTime {
        let slack = self.estimator.slack_for(inputs);
        let invoke_by = if t_ddl.since(SimTime::ZERO) > slack {
            t_ddl - slack
        } else {
            SimTime::ZERO
        };
        if !self.config.admission_aware {
            return invoke_by;
        }
        match self.backend_free_at {
            Some(free) if free > now && free + slack >= latest => invoke_by.max(free),
            _ => invoke_by,
        }
    }

    /// Lines 5–18 for one canvas-sized patch. Algorithm 2 appends it to
    /// `Q`, re-stitches all of `Q` and then decides; the stitching of
    /// `Q ∪ {p}` is that of `Q` with `p` placed, so the decision needs only
    /// its canvas count — a read-only probe of the open canvases — and
    /// `C_old` is still untouched when it has to be dispatched.
    fn admit(&mut self, now: SimTime, patch: PatchInfo, out: &mut PolicyOutput) {
        let deadline = patch.deadline();
        let mut fitting = self.stitching.fitting(patch.rect.size());
        let inputs = self.open_canvases() + usize::from(fitting.is_none());
        let (mut t_ddl, mut latest) = match self.deadlines {
            Some((t_ddl, latest)) => (t_ddl.min(deadline), latest.max(deadline)),
            None => (deadline, deadline),
        };
        let mut invoke_by = self.t_remain(now, inputs, t_ddl, latest);
        let over_memory = inputs > self.config.max_canvases;
        if (over_memory || invoke_by <= now) && !self.queue.is_empty() {
            // Lines 11–17: dispatch C_old and restart with this patch.
            out.dispatches.push(self.take_batch());
            fitting = None;
            (t_ddl, latest) = (deadline, deadline);
            invoke_by = self.t_remain(now, 1, t_ddl, latest);
        }
        self.queue.push(patch);
        self.stitching
            .push_at(patch, fitting)
            .expect("tiles are non-empty and canvas-sized");
        self.deadlines = Some((t_ddl, latest));
        debug_assert_eq!(
            Ok(self.stitching.canvases()),
            PatchStitchingSolver::new(self.config.canvas_size)
                .stitch(&self.queue)
                .as_deref(),
            "carried canvases differ from a from-scratch stitch of the queue"
        );
        if invoke_by <= now {
            // Even alone the patch cannot meet its SLO; sending it
            // immediately minimises the overrun.
            out.dispatches.push(self.take_batch());
        } else {
            self.invoke_by = Some(invoke_by);
        }
    }

    /// Builds the dispatch for the current canvases and clears the state.
    /// The canvases are read, then closed for the next queue to reopen.
    /// The queue leaves as the batch's patch list; the next queue is a
    /// spare batch's cleared list, so a queue and a batch trade buffers
    /// and a warm run allocates none. Without a spare (the first batch,
    /// or a host that keeps its batches) the next queue starts with room
    /// for as many patches as this one held: a steady batch size grows it
    /// once, not by doubling.
    fn take_batch(&mut self) -> BatchSpec {
        let inputs = self.open_canvases();
        let mut spec = self.spares.take(self.queue.len());
        std::mem::swap(&mut spec.patches, &mut self.queue);
        spec.canvas_efficiencies
            .extend(self.stitching.efficiencies());
        spec.inputs = inputs;
        spec.megapixels = inputs as f64 * self.config.canvas_size.megapixels();
        self.stitching.close();
        self.invoke_by = None;
        self.deadlines = None;
        spec
    }
}

impl BatchingPolicy for TangramScheduler {
    fn on_signals(&mut self, now: SimTime, signals: &crate::admission::AdmissionSignals) {
        if self.config.admission_aware {
            self.backend_free_at = Some(signals.backend.earliest_start.max(now));
        }
    }

    fn on_arrival(&mut self, now: SimTime, arrival: Arrival) -> PolicyOutput {
        let Arrival::Patch(p) = arrival;
        self.on_patch(now, p.info)
    }

    /// The pending queue `Q`, in tiles.
    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn on_tick(&mut self, now: SimTime) -> PolicyOutput {
        self.on_timer(now)
    }

    fn flush(&mut self, _now: SimTime) -> PolicyOutput {
        self.drain()
    }

    fn recycle(&mut self, spec: BatchSpec) {
        self.spares.put(spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_infer::latency::InferenceLatencyModel;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::time::SimDuration;

    fn scheduler() -> TangramScheduler {
        let estimator = LatencyEstimator::paper_default(
            &InferenceLatencyModel::rtx4090_yolov8x(),
            Size::CANVAS_1024,
            9,
        );
        TangramScheduler::new(SchedulerConfig::paper_default(), estimator)
    }

    fn patch(id: u64, w: u32, h: u32, gen_ms: u64, slo_ms: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, w, h),
            SimTime::from_micros(gen_ms * 1000),
            SimDuration::from_millis(slo_ms),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    #[test]
    fn patch_waits_until_invoke_by() {
        let mut s = scheduler();
        let out = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert!(out.dispatches.is_empty(), "plenty of budget: wait");
        let invoke_by = out.next_wake.expect("timer armed");
        // t_remain = deadline (1 s) − slack(1 canvas) ≈ 1 s − ~0.1 s.
        assert!(
            invoke_by > t(700) && invoke_by < t(1000),
            "invoke_by {invoke_by}"
        );
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn timer_dispatches_batch() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        let _ = s.on_patch(t(10), patch(2, 400, 200, 10, 1000));
        let invoke_by = s.invoke_by().unwrap();
        // Early tick: nothing.
        let early = s.on_timer(t(100));
        assert!(early.dispatches.is_empty());
        // On-time tick: everything in one batch.
        let fire = s.on_timer(invoke_by);
        assert_eq!(fire.dispatches.len(), 1);
        let batch = &fire.dispatches[0];
        assert_eq!(batch.patch_count(), 2);
        assert_eq!(batch.inputs, 1, "two small patches share a canvas");
        assert!(!batch.canvas_efficiencies.is_empty());
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn deadline_is_min_across_patches() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 2000)); // lax
        let lax_invoke = s.invoke_by().unwrap();
        let _ = s.on_patch(t(1), patch(2, 300, 300, 1, 500)); // tight
        let tight_invoke = s.invoke_by().unwrap();
        assert!(
            tight_invoke < lax_invoke,
            "earliest deadline governs: {tight_invoke} vs {lax_invoke}"
        );
    }

    #[test]
    fn late_patch_flushes_old_queue_first() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        // This patch's deadline is nearly exhausted: stitching it with the
        // queue would violate, so the old canvas set dispatches and the new
        // patch forms the next queue (lines 11–17)… and since it cannot
        // make its own deadline either, it ships immediately too.
        let out = s.on_patch(t(900), patch(2, 300, 300, 0, 950));
        assert_eq!(out.dispatches.len(), 2);
        assert_eq!(out.dispatches[0].patches[0].id, PatchId::new(1));
        assert_eq!(out.dispatches[1].patches[0].id, PatchId::new(2));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn late_patch_with_budget_restarts_queue() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        // Arrives late enough that batching with patch 1 is unsafe (its
        // invoke-by ≈ 1000 ms − slack ≈ 890 ms has passed), but fresh
        // enough to wait on its own.
        let out = s.on_patch(t(900), patch(2, 300, 300, 890, 1000));
        assert_eq!(out.dispatches.len(), 1, "old queue dispatches");
        assert_eq!(s.queue_len(), 1, "new patch starts the next queue");
        assert!(s.invoke_by().is_some());
    }

    #[test]
    fn gpu_memory_bound_forces_dispatch() {
        let mut s = scheduler();
        // 9 huge patches fill nine canvases (the paper's GPU bound).
        for i in 0..9 {
            let out = s.on_patch(t(i), patch(i, 1000, 1000, i, 60_000));
            assert!(out.dispatches.is_empty(), "patch {i} fits the bound");
        }
        assert_eq!(s.open_canvases(), 9);
        // The tenth would need a tenth canvas -> C_old dispatches.
        let out = s.on_patch(t(9), patch(9, 1000, 1000, 9, 60_000));
        assert_eq!(out.dispatches.len(), 1);
        assert_eq!(out.dispatches[0].inputs, 9);
        assert_eq!(s.queue_len(), 1, "new patch begins the next batch");
    }

    #[test]
    fn oversized_patch_is_tiled() {
        let mut s = scheduler();
        // A 2000×1500 zone patch cannot fit a 1024² canvas: 2×2 tiles.
        let out = s.on_patch(t(0), patch(1, 2000, 1500, 0, 5000));
        assert!(out.dispatches.is_empty());
        assert_eq!(s.queue_len(), 4);
    }

    #[test]
    fn drain_flushes_queue() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 200, 200, 0, 10_000));
        let out = s.drain();
        assert_eq!(out.dispatches.len(), 1);
        assert_eq!(s.queue_len(), 0);
        assert!(s.drain().dispatches.is_empty(), "second drain is a no-op");
    }

    #[test]
    fn flush_on_empty_queue_is_a_no_op() {
        let mut s = scheduler();
        let out = s.flush_open_canvases();
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, None);
        assert_eq!(s.queue_len(), 0);
        assert!(s.invoke_by().is_none());
        // A flush with work dispatches once; the next flush is empty again.
        let _ = s.on_patch(t(0), patch(1, 200, 200, 0, 10_000));
        assert_eq!(s.flush_open_canvases().dispatches.len(), 1);
        assert!(s.flush_open_canvases().dispatches.is_empty());
    }

    #[test]
    fn spurious_timer_is_harmless() {
        let mut s = scheduler();
        let out = s.on_timer(t(50));
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, None);
    }

    fn aware_scheduler() -> TangramScheduler {
        let estimator = LatencyEstimator::paper_default(
            &InferenceLatencyModel::rtx4090_yolov8x(),
            Size::CANVAS_1024,
            9,
        );
        let config = SchedulerConfig {
            admission_aware: true,
            ..SchedulerConfig::paper_default()
        };
        TangramScheduler::new(config, estimator)
    }

    fn signals(earliest_start_ms: u64) -> crate::admission::AdmissionSignals {
        crate::admission::AdmissionSignals {
            queued: 0,
            backend: tangram_serverless::platform::BackendSnapshot {
                in_flight: 0,
                live_instances: 1,
                max_instances: Some(1),
                earliest_start: t(earliest_start_ms),
                backlog: SimDuration::ZERO,
            },
        }
    }

    #[test]
    fn admission_aware_scheduler_waits_for_a_saturated_backend() {
        let mut s = aware_scheduler();
        // Backend saturated until t = 2 s.
        s.on_signals(t(0), &signals(2000));
        // The patch's own invoke-by (~890 ms) is earlier than the backend
        // can start: the timer extends to the backend-free instant.
        let out = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, Some(t(2000)));
        // A second patch whose deadline has already passed would normally
        // force an immediate dispatch (lines 11–17); aware of the
        // saturated backend, the scheduler keeps batching — execution
        // cannot begin before 2 s either way.
        let out = s.on_patch(t(1900), patch(2, 300, 300, 0, 1000));
        assert!(out.dispatches.is_empty());
        assert_eq!(s.queue_len(), 2);
        // The timer at the backend-free instant flushes one joint batch.
        let fire = s.on_timer(t(2000));
        assert_eq!(fire.dispatches.len(), 1);
        assert_eq!(fire.dispatches[0].patch_count(), 2);
    }

    #[test]
    fn aware_scheduler_never_drags_feasible_work_behind_doomed_batches() {
        let mut s = aware_scheduler();
        s.on_signals(t(0), &signals(2000));
        // A doomed patch (deadline 1 s, backend busy until 2 s) waits for
        // the backend-free instant.
        let _ = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert_eq!(s.invoke_by(), Some(t(2000)));
        // A feasible patch (deadline 5.1 s) joins: the queue is no longer
        // all-doomed, so the SLO-driven `t_remain` (min deadline − slack
        // ≈ 0.89 s) governs again instead of the 2 s backend wait.
        let out = s.on_patch(t(100), patch(2, 300, 300, 100, 5000));
        assert!(out.dispatches.is_empty());
        let wake = s.invoke_by().expect("timer armed");
        assert!(
            wake < t(1000),
            "feasible work reverts to SLO timing: {wake}"
        );
    }

    #[test]
    fn admission_blind_scheduler_ignores_signals() {
        let mut s = scheduler();
        s.on_signals(t(0), &signals(2000));
        let out = s.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        let invoke_by = out.next_wake.expect("timer armed");
        assert!(
            invoke_by < t(1000),
            "legacy timing must be untouched: {invoke_by}"
        );
    }

    #[test]
    fn aware_scheduler_with_an_idle_backend_matches_legacy_timing() {
        let mut aware = aware_scheduler();
        // Idle backend: earliest start is "now", so max() is a no-op.
        aware.on_signals(t(0), &signals(0));
        let mut blind = scheduler();
        let a = aware.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        let b = blind.on_patch(t(0), patch(1, 300, 300, 0, 1000));
        assert_eq!(a.next_wake, b.next_wake);
        assert_eq!(a.dispatches.len(), b.dispatches.len());
    }

    #[test]
    fn efficiency_reported_per_canvas() {
        let mut s = scheduler();
        let _ = s.on_patch(t(0), patch(1, 512, 512, 0, 2000));
        let _ = s.on_patch(t(1), patch(2, 512, 512, 1, 2000));
        let out = s.drain();
        let batch = &out.dispatches[0];
        assert_eq!(batch.canvas_efficiencies.len(), batch.inputs);
        let eff = batch.canvas_efficiencies[0];
        assert!((eff - 0.5).abs() < 1e-9, "two 512² patches on 1024²: {eff}");
    }
}
