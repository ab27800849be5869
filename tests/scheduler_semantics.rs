//! Focused semantic tests of Algorithm 2's timing decisions, driven as a
//! pure state machine (no engine, no threads), a differential test of
//! the production scheduler against Algorithm 2 as the paper writes it,
//! and one of the live runtime against that scheduler driven by hand.

use std::cell::RefCell;
use std::rc::Rc;
use tangram_core::admission::AdmissionSignals;
use tangram_core::policy::{BatchSpec, BatchingPolicy, PolicyOutput};
use tangram_core::runtime::LiveTangram;
use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_serverless::platform::BackendSnapshot;
use tangram_sim::clock::{Clock, ManualClock};
use tangram_sim::rng::DetRng;
use tangram_stitch::canvas::Canvas;
use tangram_stitch::solver::{split_to_fit, PatchStitchingSolver};
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};

fn scheduler(k: f64) -> TangramScheduler {
    let estimator = LatencyEstimator::profile(
        &InferenceLatencyModel::rtx4090_yolov8x(),
        Size::CANVAS_1024,
        9,
        1000,
        k,
        7,
    );
    TangramScheduler::new(SchedulerConfig::paper_default(), estimator)
}

fn patch(id: u64, camera: u32, gen_ms: u64, slo_ms: u64, side: u32) -> PatchInfo {
    PatchInfo::new(
        PatchId::new((u64::from(camera) << 40) | id),
        CameraId::new(camera),
        FrameId::new(id / 8),
        Rect::new(0, 0, side, side),
        SimTime::from_micros(gen_ms * 1000),
        SimDuration::from_millis(slo_ms),
    )
}

fn t(ms: u64) -> SimTime {
    SimTime::from_micros(ms * 1000)
}

#[test]
fn invoke_by_equals_deadline_minus_slack() {
    let mut s = scheduler(3.0);
    let _ = s.on_patch(t(0), patch(1, 0, 0, 1000, 300));
    let invoke_by = s.invoke_by().expect("armed");
    // One canvas: t_remain = 1000 ms − T_slack(1).
    // T_slack(1) ≈ 83 ms mean + 3σ ≈ 105–115 ms.
    let remain_ms = invoke_by.as_micros() / 1000;
    assert!(
        (870..=920).contains(&remain_ms),
        "invoke_by at {remain_ms} ms"
    );
}

#[test]
fn growing_batch_pulls_invoke_by_earlier() {
    // As canvases accumulate, the slack grows, so the same deadline forces
    // an earlier invocation.
    let mut s = scheduler(3.0);
    let _ = s.on_patch(t(0), patch(1, 0, 0, 2000, 1000)); // 1 canvas
    let one = s.invoke_by().unwrap();
    let _ = s.on_patch(t(1), patch(2, 0, 0, 2000, 1000)); // 2 canvases
    let two = s.invoke_by().unwrap();
    let _ = s.on_patch(t(2), patch(3, 0, 0, 2000, 1000)); // 3 canvases
    let three = s.invoke_by().unwrap();
    assert!(two < one, "{two} !< {one}");
    assert!(three < two);
}

#[test]
fn cross_camera_patches_share_batches() {
    let mut s = scheduler(3.0);
    let _ = s.on_patch(t(0), patch(1, 0, 0, 1500, 400));
    let _ = s.on_patch(t(5), patch(1, 1, 5, 1500, 400));
    let _ = s.on_patch(t(9), patch(1, 2, 9, 1500, 400));
    let out = s.on_timer(s.invoke_by().unwrap());
    assert_eq!(out.dispatches.len(), 1);
    let batch = &out.dispatches[0];
    assert_eq!(batch.patch_count(), 3);
    let cameras: std::collections::HashSet<u32> =
        batch.patches.iter().map(|p| p.camera.raw()).collect();
    assert_eq!(cameras.len(), 3, "three cameras in one batch");
    assert_eq!(batch.inputs, 1, "three 400² patches share one canvas");
}

#[test]
fn zero_sigma_multiplier_still_reserves_mean_execution() {
    // Even with k = 0, T_slack = µ > 0: the invoker never waits past
    // deadline − mean execution time.
    let mut s = scheduler(0.0);
    let _ = s.on_patch(t(0), patch(1, 0, 0, 500, 300));
    let invoke_by = s.invoke_by().unwrap();
    assert!(invoke_by < t(500));
    assert!(invoke_by > t(380), "µ(1 canvas) ≈ 83 ms: {invoke_by}");
}

#[test]
fn timer_then_new_patch_starts_fresh_cycle() {
    let mut s = scheduler(3.0);
    let _ = s.on_patch(t(0), patch(1, 0, 0, 1000, 300));
    let fire_at = s.invoke_by().unwrap();
    let fired = s.on_timer(fire_at);
    assert_eq!(fired.dispatches.len(), 1);
    assert_eq!(s.queue_len(), 0);
    assert_eq!(s.invoke_by(), None);
    // A new patch re-arms from scratch.
    let gen2 = fire_at.as_micros() / 1000 + 10;
    let _ = s.on_patch(t(gen2), patch(2, 0, gen2, 1000, 300));
    let second = s.invoke_by().expect("re-armed");
    assert!(second > fire_at);
}

#[test]
fn queue_survives_exact_memory_boundary() {
    let mut s = scheduler(3.0);
    // Exactly nine canvas-filling patches: no overflow dispatch.
    for i in 0..9 {
        let out = s.on_patch(t(i), patch(i, 0, i, 60_000, 1024));
        assert!(out.dispatches.is_empty(), "patch {i} dispatched early");
    }
    assert_eq!(s.open_canvases(), 9);
    // Drain returns all nine as one batch at the GPU bound.
    let out = s.drain();
    assert_eq!(out.dispatches.len(), 1);
    assert_eq!(out.dispatches[0].inputs, 9);
}

#[test]
fn interleaved_slos_respect_the_tightest() {
    let mut s = scheduler(3.0);
    let _ = s.on_patch(t(0), patch(1, 0, 0, 5000, 300)); // lax
    let _ = s.on_patch(t(1), patch(2, 0, 1, 400, 300)); // tight
    let invoke_by = s.invoke_by().unwrap();
    assert!(invoke_by < t(401), "tightest deadline governs: {invoke_by}");
    // Firing the timer dispatches BOTH patches together.
    let out = s.on_timer(invoke_by);
    assert_eq!(out.dispatches[0].patch_count(), 2);
}

/// Algorithm 2 as the paper writes it — append the patch, re-stitch the
/// whole queue from scratch, re-estimate, decide — and as
/// `TangramScheduler::admit` implemented it before it kept its canvases
/// open across arrivals. Kept here only, as the oracle the production
/// scheduler must match step for step.
struct Reference {
    config: SchedulerConfig,
    solver: PatchStitchingSolver,
    estimator: LatencyEstimator,
    queue: Vec<PatchInfo>,
    canvases: Vec<Canvas>,
    invoke_by: Option<SimTime>,
    backend_free_at: Option<SimTime>,
}

impl Reference {
    fn new(config: SchedulerConfig, estimator: LatencyEstimator) -> Self {
        Self {
            solver: PatchStitchingSolver::new(config.canvas_size),
            config,
            estimator,
            queue: Vec::new(),
            canvases: Vec::new(),
            invoke_by: None,
            backend_free_at: None,
        }
    }

    fn on_signals(&mut self, now: SimTime, signals: &AdmissionSignals) {
        if self.config.admission_aware {
            self.backend_free_at = Some(signals.backend.earliest_start.max(now));
        }
    }

    fn on_patch(&mut self, now: SimTime, patch: PatchInfo) -> PolicyOutput {
        let mut out = PolicyOutput::idle();
        for rect in split_to_fit(patch.rect, self.config.canvas_size) {
            self.admit(now, PatchInfo { rect, ..patch }, &mut out);
        }
        out.next_wake = self.invoke_by;
        out
    }

    fn on_timer(&mut self, now: SimTime) -> PolicyOutput {
        match self.invoke_by {
            Some(t) if now >= t => self.drain(),
            _ => PolicyOutput {
                next_wake: self.invoke_by,
                ..PolicyOutput::idle()
            },
        }
    }

    fn drain(&mut self) -> PolicyOutput {
        if self.queue.is_empty() {
            return PolicyOutput::idle();
        }
        PolicyOutput::dispatch(self.take_batch())
    }

    /// Re-stitches the whole queue and re-estimates `t_remain` from it.
    fn restitch(&mut self, now: SimTime) -> (Vec<Canvas>, SimTime) {
        let canvases = self.solver.stitch(&self.queue).expect("tiles fit");
        let t_ddl = canvases
            .iter()
            .filter_map(Canvas::earliest_deadline)
            .min()
            .expect("queue is non-empty");
        let slack = self.estimator.slack_for(canvases.len());
        let mut invoke_by = if t_ddl.since(SimTime::ZERO) > slack {
            t_ddl - slack
        } else {
            SimTime::ZERO
        };
        if let Some(free) = self.backend_free_at.filter(|&free| free > now) {
            let latest = self.queue.iter().map(PatchInfo::deadline).max();
            if self.config.admission_aware && latest.is_some_and(|l| free + slack >= l) {
                invoke_by = invoke_by.max(free);
            }
        }
        (canvases, invoke_by)
    }

    fn admit(&mut self, now: SimTime, patch: PatchInfo, out: &mut PolicyOutput) {
        self.queue.push(patch);
        let (canvases, invoke_by) = self.restitch(now);
        let over_memory = canvases.len() > self.config.max_canvases;
        let too_late = invoke_by <= now;
        if (over_memory || too_late) && self.queue.len() > 1 {
            let new_patch = self.queue.pop().expect("just pushed");
            out.dispatches.push(self.take_batch());
            self.queue.push(new_patch);
            let (canvases, invoke_by) = self.restitch(now);
            self.canvases = canvases;
            if invoke_by <= now {
                out.dispatches.push(self.take_batch());
            } else {
                self.invoke_by = Some(invoke_by);
            }
        } else {
            self.canvases = canvases;
            if too_late {
                out.dispatches.push(self.take_batch());
            } else {
                self.invoke_by = Some(invoke_by);
            }
        }
    }

    fn take_batch(&mut self) -> BatchSpec {
        let patches = std::mem::take(&mut self.queue);
        let canvases = std::mem::take(&mut self.canvases);
        self.invoke_by = None;
        BatchSpec {
            patches,
            inputs: canvases.len(),
            megapixels: canvases.len() as f64 * self.config.canvas_size.megapixels(),
            canvas_efficiencies: canvases.iter().map(Canvas::efficiency).collect(),
        }
    }
}

/// Everything a step shows: its output bit for bit, then the state left.
fn observed(out: &PolicyOutput, queue: usize, canvases: usize) -> String {
    let batches: Vec<_> = out
        .dispatches
        .iter()
        .map(|b| {
            let bits = |x: &f64| x.to_bits();
            (
                &b.patches,
                b.inputs,
                bits(&b.megapixels),
                b.canvas_efficiencies.iter().map(bits).collect::<Vec<_>>(),
            )
        })
        .collect();
    format!(
        "{batches:?} wake {:?} queue {queue} canvases {canvases}",
        out.next_wake
    )
}

#[test]
fn one_tile_placement_matches_a_re_stitch_per_arrival_step_for_step() {
    // What the sequences must reach, counted on the production side.
    let (mut restarts, mut shipped_alone, mut at_bound, mut tiled, mut waited) = (0, 0, 0, 0, 0);
    for case in 0..240u64 {
        let mut rng = DetRng::new(0x5eed_0018).fork_indexed("scheduler_differential", case);
        let config = SchedulerConfig {
            admission_aware: case % 2 == 1,
            ..SchedulerConfig::paper_default()
        };
        let estimator = || {
            let model = InferenceLatencyModel::rtx4090_yolov8x();
            LatencyEstimator::paper_default(&model, Size::CANVAS_1024, 9)
        };
        let mut production = TangramScheduler::new(config.clone(), estimator());
        let mut reference = Reference::new(config, estimator());
        // A third of the cases are bursts of big, patient patches (the
        // 9-canvas bound); the rest mix sizes under the 0.8 s / 1.5 s SLOs.
        let burst = case % 3 == 0;
        let mut now_us = 0u64;
        for step in 0..(40 + rng.index(120)) as u64 {
            now_us += if rng.chance(0.05) {
                rng.index(1_500_000) as u64
            } else {
                rng.index(if burst { 2_000 } else { 40_000 }) as u64
            };
            let now = SimTime::from_micros(now_us);
            let (out, expected) = match rng.index(20) {
                0 => (production.drain(), reference.drain()),
                // A timer tick: the armed one when due, else a spurious one.
                1..=3 => (production.on_timer(now), reference.on_timer(now)),
                4..=5 => {
                    let signals = AdmissionSignals {
                        queued: production.queue_len(),
                        backend: BackendSnapshot {
                            in_flight: 0,
                            live_instances: 1,
                            max_instances: Some(1),
                            earliest_start: now
                                + SimDuration::from_micros(rng.index(2_000_000) as u64),
                            backlog: SimDuration::ZERO,
                        },
                    };
                    BatchingPolicy::on_signals(&mut production, now, &signals);
                    reference.on_signals(now, &signals);
                    (PolicyOutput::idle(), PolicyOutput::idle())
                }
                _ => {
                    let side = |rng: &mut DetRng| match rng.index(if burst { 4 } else { 12 }) {
                        0 => 1025 + rng.index(2000),
                        1..=2 => 700 + rng.index(325),
                        3 => 1024,
                        4..=6 => 4 + rng.index(60),
                        _ => 64 + rng.index(600),
                    } as u32;
                    let (w, h) = (side(&mut rng), side(&mut rng));
                    // Late patches: generated up to 1.6 s before they arrive.
                    let age_us = if rng.chance(0.25) {
                        rng.index(1_600_000) as u64
                    } else {
                        rng.index(30_000) as u64
                    };
                    let slo_ms = match (burst, rng.chance(0.5)) {
                        (true, _) => 60_000,
                        (false, true) => 800,
                        (false, false) => 1500,
                    };
                    let info = PatchInfo::new(
                        PatchId::new(step),
                        CameraId::new(rng.index(8) as u32),
                        FrameId::new(step / 8),
                        Rect::new(0, 0, w, h),
                        SimTime::from_micros(now_us.saturating_sub(age_us)),
                        SimDuration::from_millis(slo_ms),
                    );
                    let out = production.on_patch(now, info);
                    tiled += usize::from(!Size::CANVAS_1024.fits(info.rect.size()));
                    match (out.dispatches.len(), production.queue_len()) {
                        (0, _) => {
                            waited +=
                                usize::from(out.next_wake.is_some_and(|t| t > info.deadline()))
                        }
                        (_, 0) => shipped_alone += 1,
                        _ => restarts += 1,
                    }
                    at_bound += out.dispatches.iter().filter(|b| b.inputs == 9).count();
                    (out, reference.on_patch(now, info))
                }
            };
            assert_eq!(
                observed(&out, production.queue_len(), production.open_canvases()),
                observed(&expected, reference.queue.len(), reference.canvases.len()),
                "case {case} step {step} at {now}"
            );
            assert_eq!(
                production.invoke_by(),
                reference.invoke_by,
                "case {case} step {step}"
            );
        }
    }
    let reached = [restarts, shipped_alone, at_bound, tiled, waited];
    assert!(
        reached.iter().all(|&n| n >= 20),
        "paths reached: {reached:?}"
    );
}

/// One dispatch as both drivers see it: when, which patches (tiles of an
/// oversized patch repeat its id), on how many canvases.
type Dispatch = (SimTime, Vec<u64>, usize);

fn dispatches<'a>(at: SimTime, batches: impl IntoIterator<Item = &'a BatchSpec>) -> Vec<Dispatch> {
    batches
        .into_iter()
        .map(|b| {
            let ids = b.patches.iter().map(|p| p.id.raw()).collect();
            (at, ids, b.inputs)
        })
        .collect()
}

/// `LiveTangram` is one more driver of the same state machine: streamed
/// the same patches on a `ManualClock` — the host sleeping until the
/// earlier of the next arrival and the instant `poll` returned — it fires
/// the batches a bare `TangramScheduler` fires when its timer is
/// delivered by hand at `invoke_by`, at the same instants.
#[test]
fn the_live_runtime_fires_what_the_scheduler_driven_by_hand_fires() {
    let estimator = || {
        let model = InferenceLatencyModel::rtx4090_yolov8x();
        LatencyEstimator::paper_default(&model, Size::CANVAS_1024, 9)
    };
    let mut rng = DetRng::new(0x5eed_0020).fork("live_differential");
    let mut now_us = 0u64;
    let arrivals: Vec<(SimTime, PatchInfo)> = (0..320u64)
        .map(|id| {
            // Bursts a few ms apart, then a lull long enough for timers;
            // ids 200..240 are one burst of big, patient patches (the
            // 9-canvas bound).
            let big_burst = (200..240).contains(&id);
            now_us += if rng.chance(0.12) && !big_burst {
                200_000 + rng.index(1_200_000)
            } else {
                rng.index(6_000)
            } as u64;
            let side = |rng: &mut DetRng| match rng.index(if big_burst { 3 } else { 10 }) {
                0..=1 => 700 + rng.index(325),
                2 => 1024,
                3..=5 => 8 + rng.index(120),
                _ => 128 + rng.index(500),
            } as u32;
            // One patch larger than the canvas; a fifth arrive late.
            let (w, h) = match id {
                97 => (2600, 1400),
                _ => (side(&mut rng), side(&mut rng)),
            };
            let age_us = if rng.chance(0.2) && !big_burst {
                rng.index(900_000) as u64
            } else {
                0
            };
            let slo_ms = match big_burst {
                true => 60_000,
                false => [400, 800, 1500, 60_000][rng.index(4)],
            };
            let info = PatchInfo::new(
                PatchId::new(id),
                CameraId::new(rng.index(8) as u32),
                FrameId::new(id / 8),
                Rect::new(0, 0, w, h),
                SimTime::from_micros(now_us.saturating_sub(age_us)),
                SimDuration::from_millis(slo_ms),
            );
            (SimTime::from_micros(now_us), info)
        })
        .collect();

    let mut by_hand: Vec<Dispatch> = Vec::new();
    let mut bare = TangramScheduler::new(SchedulerConfig::paper_default(), estimator());
    let mut by_timer = 0;
    for &(arrival, info) in &arrivals {
        while let Some(due) = bare.invoke_by().filter(|&due| due <= arrival) {
            by_timer += 1;
            by_hand.extend(dispatches(due, bare.on_timer(due).dispatches.iter()));
        }
        by_hand.extend(dispatches(
            arrival,
            bare.on_patch(arrival, info).dispatches.iter(),
        ));
    }
    let end = arrivals.last().expect("arrivals").0;
    by_hand.extend(dispatches(end, bare.drain().dispatches.iter()));

    let clock = ManualClock::new();
    let live: Rc<RefCell<Vec<Dispatch>>> = Rc::default();
    let (sink, now) = (Rc::clone(&live), clock.clone());
    let mut runtime = LiveTangram::start(
        SchedulerConfig::paper_default(),
        estimator(),
        clock.clone(),
        Box::new(move |spec| sink.borrow_mut().extend(dispatches(now.now(), &[spec]))),
    );
    let mut wake = None;
    for &(arrival, info) in &arrivals {
        while let Some(due) = wake.filter(|&due| due <= arrival) {
            clock.advance_to(due);
            wake = runtime.poll();
        }
        clock.advance_to(arrival);
        runtime.receive_patch(info);
        wake = runtime.poll();
    }
    runtime.shutdown();

    assert_eq!(*live.borrow(), by_hand);
    // The sequence exercised every way a batch leaves: the timer, an
    // arrival that restarts the queue, the memory bound, the final drain.
    let arrivals_at: Vec<SimTime> = arrivals.iter().map(|a| a.0).collect();
    let on_arrival = by_hand
        .iter()
        .filter(|d| arrivals_at.contains(&d.0))
        .count();
    let at_bound = by_hand.iter().filter(|d| d.2 == 9).count();
    assert!(
        by_timer >= 20 && on_arrival >= 20 && at_bound >= 2,
        "timer {by_timer}, on arrival {on_arrival}, at the bound {at_bound}, of {}",
        by_hand.len()
    );
    assert!(by_hand
        .last()
        .is_some_and(|d| d.0 == end && !d.1.is_empty()));
}
