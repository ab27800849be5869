//! Regression coverage for the standing-queue accounting fix: the
//! engine's standing-work counter is kept in post-normalize units
//! (tiles), so an admission policy reading `AdmissionSignals::queued`
//! sees the true backlog even when oversized patches fan out into
//! several tiles. Each `admission.verdict` trace record carries the
//! counter its policy read.
//!
//! The historical bug counted `+1` per arrival but subtracted the
//! tile count per dispatched batch — arrivals whose patches tiled 4:1
//! under-reported the queue 4×, so a shedder reading it saw a quarter of
//! the backlog (and the counter only survived dispatch through a masking
//! `saturating_sub`).

use tangram_core::admission::AdmissionPolicy;
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::online::{OnlineEngine, Plan, TraceReplaySource};
use tangram_core::report::RunReport;
use tangram_core::workload::{CameraTrace, TraceFrame};
use tangram_trace::TraceEvent;
use tangram_types::geometry::Rect;
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
                elf_patch_bytes: vec![Bytes(4_000)],
                full_frame_bytes: Bytes(50_000),
                masked_frame_bytes: Bytes(20_000),
                full_megapixels: 8.3,
                masked_megapixels: 3.0,
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
