//! Cross-crate integration tests: the full pipeline from synthetic scenes
//! through extraction, partitioning, scheduling and the serverless
//! platform, compared across policies.

use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::workload::{CameraTrace, TraceConfig};
use tangram_types::ids::SceneId;
use tangram_types::time::SimDuration;
use tangram_video::codec::CodecModel;
use tangram_video::scene::SceneProfile;

fn trace(scene: u8, frames: usize, seed: u64) -> CameraTrace {
    TraceConfig::proxy_extractor(SceneId::new(scene), frames, seed).build()
}

/// Full Frame's bytes for every frame of `trace`.
fn full_frame_bytes(trace: &CameraTrace) -> u64 {
    let size = SceneProfile::panda(trace.scene).frame_size;
    CodecModel.full_frame_bytes(size).get() * trace.frames.len() as u64
}

fn run(policy: PolicyKind, trace: &CameraTrace, slo_s: f64, bw: f64) -> tangram_core::RunReport {
    EngineConfig {
        policy,
        slo: SimDuration::from_secs_f64(slo_s),
        bandwidth_mbps: bw,
        seed: 99,
        ..EngineConfig::default()
    }
    .run(std::slice::from_ref(trace))
}

#[test]
fn every_patch_is_accounted_exactly_once() {
    let t = trace(2, 20, 5);
    for policy in [
        PolicyKind::Tangram,
        PolicyKind::Clipper,
        PolicyKind::Elf,
        PolicyKind::Mark,
    ] {
        let report = run(policy, &t, 1.0, 40.0);
        // Conservation: batches carry exactly the completed patches.
        let batched: usize = report.batches.iter().map(|b| b.patch_count).sum();
        assert_eq!(
            batched,
            report.patches_completed(),
            "{policy:?}: batches vs patch records disagree"
        );
        // No duplicate patch completions (ids unique per camera; Tangram
        // may split oversized patches into tiles that share an id, so we
        // compare against the per-policy batch totals instead).
        assert!(report.patches_completed() >= t.patch_count());
        // Byte conservation: one camera, no faults, so the uplink carries
        // exactly the trace's bytes for this policy's wire format — ELF's
        // raw crops priced from each patch's rectangle.
        let patches = t.frames.iter().flat_map(|f| &f.patches);
        let shipped: u64 = patches
            .map(|p| match policy {
                PolicyKind::Elf => CodecModel.elf_patch_bytes(p.info.rect).get(),
                _ => p.encoded_size.get(),
            })
            .sum();
        assert_eq!(
            report.total_bytes().get(),
            shipped,
            "{policy:?}: uplink bytes"
        );
    }
}

#[test]
fn tangram_dominates_cost_across_policies() {
    let t = trace(1, 30, 7);
    let tangram = run(PolicyKind::Tangram, &t, 1.0, 40.0);
    for policy in [PolicyKind::Clipper, PolicyKind::Elf, PolicyKind::Mark] {
        let other = run(policy, &t, 1.0, 40.0);
        assert!(
            tangram.total_cost() < other.total_cost(),
            "Tangram {} should undercut {policy:?} {}",
            tangram.total_cost(),
            other.total_cost()
        );
    }
}

#[test]
fn tangram_meets_slo_under_paper_settings() {
    for scene in [1u8, 3] {
        let t = trace(scene, 40, 11);
        for bw in [20.0, 40.0, 80.0] {
            let report = run(PolicyKind::Tangram, &t, 1.0, bw);
            assert!(
                report.slo_violation_rate() < 0.05,
                "scene {scene} at {bw} Mbps: violation {:.3}",
                report.slo_violation_rate()
            );
        }
    }
}

#[test]
fn looser_slo_never_costs_more_for_tangram() {
    let t = trace(2, 40, 13);
    let tight = run(PolicyKind::Tangram, &t, 0.8, 40.0);
    let loose = run(PolicyKind::Tangram, &t, 1.6, 40.0);
    // More batching headroom ⇒ fewer, fuller invocations.
    assert!(loose.batches.len() <= tight.batches.len());
    assert!(loose.total_cost().get() <= tight.total_cost().get() * 1.05);
}

#[test]
fn bandwidth_reduction_vs_full_frame_matches_paper_band() {
    let t = trace(1, 25, 17);
    let tangram = run(PolicyKind::Tangram, &t, 1.0, 40.0);
    // Full Frame is priced per frame from the scene's frame size: Fig. 9's
    // denominator.
    let full = full_frame_bytes(&t);
    let ratio = tangram.total_bytes().get() as f64 / full as f64;
    // Paper Table II / Fig. 9: Tangram uploads 10–90% of Full Frame.
    assert!(
        (0.05..0.95).contains(&ratio),
        "bandwidth ratio {ratio} outside the paper band"
    );
}

#[test]
fn masked_frame_close_to_full_frame_bytes() {
    let t = trace(4, 15, 19);
    let size = SceneProfile::panda(t.scene).frame_size;
    let masked: u64 = t
        .frames
        .iter()
        .map(|f| CodecModel.masked_frame_bytes(size, f.patches.len()).get())
        .sum();
    let ratio = masked as f64 / full_frame_bytes(&t) as f64;
    assert!((0.9..1.25).contains(&ratio), "masked/full ratio {ratio}");
}

#[test]
fn determinism_across_identical_runs() {
    let t = trace(5, 25, 23);
    let a = run(PolicyKind::Tangram, &t, 1.0, 20.0);
    let b = run(PolicyKind::Tangram, &t, 1.0, 20.0);
    assert_eq!(a.total_cost().get(), b.total_cost().get());
    assert_eq!(a.batches.len(), b.batches.len());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.link.bytes, b.link.bytes);
}

#[test]
fn multi_camera_shared_uplink() {
    let traces: Vec<CameraTrace> = (1u8..=3)
        .map(|s| TraceConfig::proxy_extractor(SceneId::new(s), 15, 29).build())
        .collect();
    let report = EngineConfig {
        policy: PolicyKind::Tangram,
        slo: SimDuration::from_secs(2),
        bandwidth_mbps: 80.0,
        seed: 29,
        ..EngineConfig::default()
    }
    .run(&traces);
    assert_eq!(report.frames, 45);
    assert!(report.slo_violation_rate() < 0.05);
    // Batches may mix patches from different cameras — the scheduler
    // stitches across sources (the paper's multi-camera design).
    let mixed = report.batches.iter().any(|b| b.patch_count > 1);
    assert!(mixed);
}

#[test]
fn canvas_efficiency_improves_with_bandwidth() {
    let t = trace(3, 50, 31);
    let slow = run(PolicyKind::Tangram, &t, 1.0, 20.0);
    let fast = run(PolicyKind::Tangram, &t, 1.0, 80.0);
    let mean = |r: &tangram_core::RunReport| {
        let e = r.canvas_efficiencies();
        e.iter().sum::<f64>() / e.len().max(1) as f64
    };
    // Fig. 13(d): more patches arrive per unit time at higher bandwidth,
    // filling canvases better.
    assert!(
        mean(&fast) >= mean(&slow) * 0.9,
        "efficiency collapsed with bandwidth: {} vs {}",
        mean(&fast),
        mean(&slow)
    );
}

#[test]
fn gpu_memory_bound_respected_in_every_batch() {
    let t = trace(10, 30, 37); // densest scene
    for policy in [PolicyKind::Tangram, PolicyKind::Clipper, PolicyKind::Mark] {
        let report = run(policy, &t, 2.0, 80.0);
        for b in &report.batches {
            assert!(
                b.inputs <= 9,
                "{policy:?} dispatched {} inputs > GPU bound",
                b.inputs
            );
        }
    }
}
