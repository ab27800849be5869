//! Regression coverage for the standing-queue accounting: the standing
//! queue is counted in post-normalize units (tiles), so an admission
//! policy reading `AdmissionSignals::queued` sees the true backlog even
//! when oversized patches fan out into several tiles. Each
//! `admission.verdict` trace record carries the count its policy read.
//!
//! The historical bug counted `+1` per arrival but subtracted the
//! tile count per dispatched batch — arrivals whose patches tiled 4:1
//! under-reported the queue 4×, so a shedder reading it saw a quarter of
//! the backlog. The count now comes from the one component that holds
//! the queue, `BatchingPolicy::queue_len`; the last test holds every
//! policy's count to the items it took in less the items it dispatched.

use std::collections::BTreeSet;
use tangram_core::admission::AdmissionPolicy;
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::online::{OnlineEngine, Plan, TraceReplaySource};
use tangram_core::policy::baselines::{ClipperPolicy, ElfPolicy, MarkPolicy};
use tangram_core::policy::{Arrival, BatchingPolicy, CompletionFeedback, PolicyOutput};
use tangram_core::report::RunReport;
use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_core::workload::{CameraTrace, TraceFrame};
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_sim::rng::DetRng;
use tangram_stitch::solver::split_to_fit;
use tangram_trace::TraceEvent;
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, FrameId, PatchId, SceneId};
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Bytes;

/// A trace of `frames` frames, each carrying exactly one oversized
/// 2000×1500 patch — larger than the default 1024×1024 canvas on both
/// axes, so the scheduler tiles every arrival into 4 standing items.
fn oversized_trace(frames: usize) -> CameraTrace {
    let frames = (0..frames)
        .map(|i| {
            let info = PatchInfo::new(
                PatchId::new(100 + i as u64),
                CameraId::new(1),
                FrameId::new(i as u64),
                Rect::new(0, 0, 2000, 1500),
                SimTime::ZERO, // re-stamped at capture
                SimDuration::from_secs_f64(10.0),
            );
            TraceFrame {
                frame: FrameId::new(i as u64),
                patches: vec![Patch::new(info, Bytes(1_000))],
                roi_count: 1,
            }
        })
        .collect();
    CameraTrace {
        camera: CameraId::new(1),
        scene: SceneId::new(1),
        frames,
    }
}

/// Runs three oversized arrivals through the open door with the trace
/// on, returning the report and the `queued` each verdict read.
fn run_three_oversized(config: &EngineConfig) -> (RunReport, Vec<u64>) {
    let plan = Plan {
        admission: Some(AdmissionPolicy::Always),
        trace: true,
        ..Plan::default()
    };
    let trace = oversized_trace(3);
    let mut engine = OnlineEngine::new(config, plan);
    engine.add_camera_at(SimTime::ZERO, Box::new(TraceReplaySource::new(&trace)));
    let (report, log) = engine.run();
    let queued = log
        .expect("trace requested")
        .records
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::AdmissionVerdict {
                admitted, queued, ..
            } => {
                assert!(admitted, "the open door admits every arrival");
                Some(queued)
            }
            _ => None,
        })
        .collect();
    (report, queued)
}

/// Three oversized arrivals under a lax SLO stand together. In tile
/// units the standing queue reads 0 → 4 → 8 across the three admission
/// checks; the pre-fix per-arrival accounting read 0 → 1 → 2.
#[test]
fn queue_depth_signal_counts_tiles_not_arrivals() {
    let config = EngineConfig {
        policy: PolicyKind::Tangram,
        slo: SimDuration::from_secs_f64(10.0),
        seed: 11,
        ..EngineConfig::default()
    };
    let (report, queued) = run_three_oversized(&config);
    assert_eq!(queued, [0, 4, 8], "one verdict per arrival, in tiles");
    assert_eq!(report.dropped_arrivals, 0);
    assert_eq!(report.patches.len(), 12, "3 admitted arrivals × 4 tiles");
    assert_eq!(report.frames, 3);
}

/// The same arrivals one second apart under a half-second SLO: each
/// arrival's four tiles dispatch before the next capture, so every
/// verdict reads an empty queue. The counter falls by tiles, the unit
/// it rose by; falling by anything else would leave a residue here (or
/// underflow in the batch stage's debug check).
#[test]
fn the_standing_queue_falls_by_tiles_on_dispatch() {
    let config = EngineConfig {
        policy: PolicyKind::Tangram,
        slo: SimDuration::from_secs_f64(0.5),
        max_fps: 1.0,
        seed: 11,
        ..EngineConfig::default()
    };
    let (report, queued) = run_three_oversized(&config);
    assert_eq!(queued, [0, 0, 0], "each arrival drained before the next");
    assert_eq!(report.batches.len(), 3, "one batch of 4 tiles per arrival");
    assert_eq!(report.patches.len(), 12);
}

/// One policy's books: the arrivals and items it took in, the patches
/// it dispatched, and what the drive reached — the deepest standing
/// queue, the distinct batch sizes and the requested wake-up.
#[derive(Default)]
struct Ledger {
    arrivals: usize,
    taken: usize,
    dispatched: usize,
    peak: usize,
    sizes: BTreeSet<usize>,
    wake: Option<SimTime>,
}

impl Ledger {
    /// Books `out`'s batches, hands each back through `recycle`, and
    /// holds the policy's count to the books.
    fn settle(&mut self, policy: &mut dyn BatchingPolicy, out: PolicyOutput, at: &str) {
        if out.next_wake.is_some() {
            self.wake = out.next_wake;
        }
        for spec in out.dispatches {
            self.dispatched += spec.patches.len();
            self.sizes.insert(spec.patches.len());
            policy.recycle(spec);
        }
        let queued = policy.queue_len();
        assert_eq!(queued, self.taken - self.dispatched, "{at}");
        self.peak = self.peak.max(queued);
    }
}

/// Drives `policy` through a seeded mix of arrivals (a fifth of them
/// 2000×1500, four tiles on a 1024×1024 canvas), due and stale ticks and
/// completion feedback with and without violations. After every call the
/// policy's `queue_len` must equal the items it took in (`items(rect)`
/// per arrival) less the patches it dispatched; after the flush nothing
/// may stand.
fn drive(name: &str, policy: &mut dyn BatchingPolicy, items: fn(Rect) -> usize) -> Ledger {
    let mut rng = DetRng::new(0x9e0e_0040).fork(name);
    let mut books = Ledger::default();
    let mut now = SimTime::ZERO;
    for step in 0..600u64 {
        now += SimDuration::from_micros(rng.index(30_000) as u64);
        let out = match rng.index(10) {
            // The requested wake-up, when one is pending and not past.
            0 | 1 => {
                now = now.max(books.wake.take().unwrap_or(now));
                policy.on_tick(now)
            }
            // A stale tick: whatever the policy asked for, it is `now`.
            2 => policy.on_tick(now),
            3 => policy.on_completion(
                now,
                CompletionFeedback {
                    finished: now,
                    execution: SimDuration::from_millis(80),
                    violations: usize::from(rng.chance(0.3)),
                    inputs: 1 + rng.index(9),
                },
            ),
            _ => {
                let rect = if rng.chance(0.2) {
                    Rect::new(0, 0, 2000, 1500)
                } else {
                    let side = |rng: &mut DetRng| 16 + rng.index(700) as u32;
                    Rect::new(0, 0, side(&mut rng), side(&mut rng))
                };
                let info = PatchInfo::new(
                    PatchId::new(step),
                    CameraId::new(rng.index(4) as u32),
                    FrameId::new(step / 4),
                    rect,
                    now,
                    SimDuration::from_millis(400 + rng.index(1_200) as u64),
                );
                books.arrivals += 1;
                books.taken += items(rect);
                policy.on_arrival(now, Arrival::Patch(Patch::new(info, Bytes(1_000))))
            }
        };
        books.settle(policy, out, &format!("{name} step {step}"));
    }
    let out = policy.flush(now);
    books.settle(policy, out, &format!("{name} flush"));
    assert_eq!(policy.queue_len(), 0, "{name}: the flush leaves nothing");
    books
}

/// The policy is the one owner of the standing queue, so its count is
/// checked against what went in and out of it, for all four policies.
#[test]
fn every_policy_counts_its_standing_queue_in_the_unit_batches_drain_in() {
    let estimator = LatencyEstimator::paper_default(
        &InferenceLatencyModel::rtx4090_yolov8x(),
        Size::CANVAS_1024,
        9,
    );
    let mut tangram = TangramScheduler::new(SchedulerConfig::paper_default(), estimator);
    let tiles = |rect| split_to_fit(rect, Size::CANVAS_1024).len();
    let tangram = drive("tangram", &mut tangram, tiles);
    // Tiled arrivals stood: more items went in than arrivals did.
    assert!(tangram.taken > tangram.arrivals + 40, "{}", tangram.taken);
    assert!(tangram.peak > 4, "{}", tangram.peak);

    let one = |_| 1;
    let clipper = drive("clipper", &mut ClipperPolicy::new(9), one);
    // AIMD moved the target: Clipper dispatched batches of many sizes.
    assert!(
        clipper.peak > 1 && clipper.sizes.len() > 3,
        "{:?}",
        clipper.sizes
    );
    let mark = drive(
        "mark",
        &mut MarkPolicy::new(9, SimDuration::from_millis(100)),
        one,
    );
    assert!(mark.peak > 1, "{}", mark.peak);
    let elf = drive("elf", &mut ElfPolicy::default(), one);
    assert_eq!((elf.peak, elf.sizes.len()), (0, 1), "ELF holds nothing");
}
