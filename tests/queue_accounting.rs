//! Regression coverage for the queue-depth accounting fix: the engine's
//! standing-work counter is kept in post-normalize units (tiles), so an
//! admission policy reading `AdmissionSignals::queued` sees the true
//! backlog even when oversized patches fan out into several tiles.
//!
//! The historical bug counted `+1` per arrival but subtracted the
//! tile count per dispatched batch — arrivals whose patches tiled 4:1
//! under-reported the queue 4×, so depth-bounded shedders admitted far
//! past their threshold (and the counter only survived dispatch through
//! a masking `saturating_sub`).

use tangram_core::admission::AdmissionPolicy;
use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::online::{OnlineEngine, Plan, TraceReplaySource};
use tangram_core::workload::{CameraTrace, TraceFrame};
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

/// Three oversized arrivals against a depth-5 shedder. In tile units
/// the standing queue is 0 → 4 → 8 across the three admission checks,
/// so exactly the third arrival is shed. The pre-fix per-arrival
/// accounting saw 0 → 1 → 2 and admitted everything.
#[test]
fn queue_depth_signal_counts_tiles_not_arrivals() {
    let config = EngineConfig {
        policy: PolicyKind::Tangram,
        slo: SimDuration::from_secs_f64(10.0),
        seed: 11,
        ..EngineConfig::default()
    };
    let plan = Plan {
        admission: Some(AdmissionPolicy::QueueDepth { max_queued: 5 }),
        ..Plan::default()
    };
    let trace = oversized_trace(3);
    let mut engine = OnlineEngine::new(&config, plan);
    engine.add_camera_at(SimTime::ZERO, Box::new(TraceReplaySource::new(&trace)));
    let (report, _) = engine.run();

    assert_eq!(
        report.dropped_arrivals, 1,
        "the third oversized arrival must be shed: the first two stand \
         as 8 tiles, past the depth-5 bound"
    );
    // The two admitted arrivals tile 4:1 and all dispatched work
    // completes within the lax SLO.
    assert_eq!(report.patches.len(), 8, "2 admitted arrivals × 4 tiles");
    assert_eq!(report.frames, 3);
}

/// With the bound lifted just past the true two-arrival backlog, the
/// same workload is admitted in full — pinning the threshold semantics
/// (shed at `queued >= max_queued`, in tile units) from both sides.
#[test]
fn queue_depth_bound_is_exact_in_tile_units() {
    let config = EngineConfig {
        policy: PolicyKind::Tangram,
        slo: SimDuration::from_secs_f64(10.0),
        seed: 11,
        ..EngineConfig::default()
    };
    let plan = Plan {
        admission: Some(AdmissionPolicy::QueueDepth { max_queued: 9 }),
        ..Plan::default()
    };
    let trace = oversized_trace(3);
    let mut engine = OnlineEngine::new(&config, plan);
    engine.add_camera_at(SimTime::ZERO, Box::new(TraceReplaySource::new(&trace)));
    let (report, _) = engine.run();

    assert_eq!(
        report.dropped_arrivals, 0,
        "a depth-9 bound clears the 8-tile standing queue"
    );
    assert_eq!(report.patches.len(), 12, "3 admitted arrivals × 4 tiles");
}
