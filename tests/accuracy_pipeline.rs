//! Integration tests of the accuracy pipeline: extraction → partitioning
//! → presentation → detection → AP, the path behind Tables III/IV and
//! Figs. 2a/4b.

use tangram_harness::present::present_through_regions;
use tangram_infer::accuracy::{DetectionSimulator, PresentedObject, ResolutionProfile};
use tangram_infer::ap::{ap50, FrameEval};
use tangram_partition::algorithm::{partition, PartitionConfig};
use tangram_sim::rng::DetRng;
use tangram_types::geometry::Rect;
use tangram_types::ids::SceneId;
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_video::scene::SceneProfile;
use tangram_vision::detector::DetectorProxy;
use tangram_vision::extractor::{ProxyExtractor, RoiExtractor};

fn scene_aps(scene: SceneId, frames: usize, seed: u64) -> (f64, f64) {
    let profile = SceneProfile::panda(scene);
    let simulator = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
    let mut rng = DetRng::new(seed).fork("acc-test");
    let mut sim = SceneSimulation::new(scene, VideoConfig::default(), seed);
    let mut extractor =
        ProxyExtractor::new(DetectorProxy::ssdlite_mobilenet_v2(), rng.fork("edge"));
    let mut full_evals = Vec::new();
    let mut part_evals = Vec::new();
    for frame in sim.frames(frames) {
        let bounds = Rect::from_size(frame.frame_size);
        let truths = frame.object_rects();
        let native: Vec<PresentedObject> = frame
            .objects
            .iter()
            .map(|o| PresentedObject::native(o.track, o.rect))
            .collect();
        let dets = simulator.detect(
            &native,
            frame.frame_size.megapixels(),
            profile.full_frame_ap,
            bounds,
            &mut rng,
        );
        full_evals.push(FrameEval::new(truths.clone(), dets));

        let rois = extractor.extract(&frame);
        let patches = partition(frame.frame_size, PartitionConfig::default(), &rois);
        let presented = present_through_regions(&frame, &patches);
        let mpx = patches.iter().map(|p| p.area() as f64).sum::<f64>() / 1.0e6;
        let dets = simulator.detect(&presented, mpx, profile.full_frame_ap, bounds, &mut rng);
        part_evals.push(FrameEval::new(truths, dets));
    }
    (ap50(&full_evals), ap50(&part_evals))
}

#[test]
fn full_frame_ap_matches_calibration() {
    // The detection simulator's per-scene base difficulty is calibrated to
    // Table III's full-frame column; simulated AP must land near it.
    for scene_idx in [1u8, 2, 4] {
        let scene = SceneId::new(scene_idx);
        let expected = SceneProfile::panda(scene).full_frame_ap;
        let (full_ap, _) = scene_aps(scene, 40, 77);
        assert!(
            (full_ap - expected).abs() < 0.08,
            "scene {scene_idx}: AP {full_ap:.3} vs calibration {expected:.3}"
        );
    }
}

#[test]
fn partitioning_loss_is_bounded() {
    // Table III: partitioned accuracy trails full-frame accuracy only
    // slightly (the proxy extractor is lossier than the paper's GMM, so
    // the bound here is looser than the paper's ≤5%).
    let (full_ap, part_ap) = scene_aps(SceneId::new(2), 40, 78);
    assert!(part_ap > 0.0);
    assert!(
        part_ap >= full_ap - 0.25,
        "partition loss too large: {full_ap:.3} → {part_ap:.3}"
    );
}

#[test]
fn downsizing_hurts_accuracy() {
    // Fig. 4b's monotone downsize curve, end to end.
    let scene = SceneId::new(2);
    let profile = SceneProfile::panda(scene);
    let simulator = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
    let mut aps = Vec::new();
    for scale in [1.0, 0.5, 2.0 / 9.0] {
        let mut rng = DetRng::new(5).fork("downsize");
        let mut sim = SceneSimulation::new(scene, VideoConfig::default(), 5);
        let mut evals = Vec::new();
        for frame in sim.frames(30) {
            let bounds = Rect::from_size(frame.frame_size);
            let presented: Vec<PresentedObject> = frame
                .objects
                .iter()
                .map(|o| PresentedObject::scaled(o.track, o.rect, scale))
                .collect();
            let dets = simulator.detect(
                &presented,
                frame.frame_size.megapixels() * scale * scale,
                profile.full_frame_ap,
                bounds,
                &mut rng,
            );
            evals.push(FrameEval::new(frame.object_rects(), dets));
        }
        aps.push(ap50(&evals));
    }
    assert!(
        aps[0] > aps[1] && aps[1] > aps[2],
        "downsize curve not monotone: {aps:?}"
    );
    assert!(aps[0] - aps[2] > 0.2, "480P cliff too shallow: {aps:?}");
}

#[test]
fn stitched_presentation_beats_downsized_presentation() {
    // The paper's core accuracy claim: transmitting patches at native
    // scale (stitching) preserves accuracy that downsizing the full frame
    // to a comparable pixel budget destroys.
    let scene = SceneId::new(1);
    let profile = SceneProfile::panda(scene);
    let simulator = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
    let mut rng = DetRng::new(9).fork("stitch-vs-resize");
    let mut sim = SceneSimulation::new(scene, VideoConfig::default(), 9);
    let mut extractor =
        ProxyExtractor::new(DetectorProxy::ssdlite_mobilenet_v2(), rng.fork("edge"));
    let mut stitched = Vec::new();
    let mut downsized = Vec::new();
    for frame in sim.frames(40) {
        let bounds = Rect::from_size(frame.frame_size);
        let truths = frame.object_rects();
        let rois = extractor.extract(&frame);
        let patches = partition(frame.frame_size, PartitionConfig::default(), &rois);
        let coverage =
            patches.iter().map(|p| p.area() as f64).sum::<f64>() / frame.frame_size.area() as f64;
        // Native-scale patches.
        let presented = present_through_regions(&frame, &patches);
        let dets = simulator.detect(
            &presented,
            frame.frame_size.megapixels() * coverage,
            profile.full_frame_ap,
            bounds,
            &mut rng,
        );
        stitched.push(FrameEval::new(truths.clone(), dets));
        // Same pixel budget spent on a uniformly downsized full frame.
        let scale = coverage.sqrt().clamp(0.05, 1.0);
        let presented: Vec<PresentedObject> = frame
            .objects
            .iter()
            .map(|o| PresentedObject::scaled(o.track, o.rect, scale))
            .collect();
        let dets = simulator.detect(
            &presented,
            frame.frame_size.megapixels() * coverage,
            profile.full_frame_ap,
            bounds,
            &mut rng,
        );
        downsized.push(FrameEval::new(truths, dets));
    }
    let stitched_ap = ap50(&stitched);
    let downsized_ap = ap50(&downsized);
    assert!(
        stitched_ap > downsized_ap + 0.05,
        "stitching {stitched_ap:.3} must clearly beat downsizing {downsized_ap:.3}"
    );
}
