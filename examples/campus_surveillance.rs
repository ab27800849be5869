//! Campus surveillance: choosing the partition granularity.
//!
//! The `X × Y` zone grid is the paper's accuracy-vs-bandwidth knob
//! (Tables II/III). This example runs the full pixel pipeline (rendered
//! frames + Stauffer–Grimson GMM) on the University Campus scene and
//! reports, per grid: uploaded bytes, patches per frame, and detection
//! AP — the data an operator needs to pick a setting.
//!
//! Run with: `cargo run --release --example campus_surveillance`

use tangram_harness::present::present_through_regions;
use tangram_infer::accuracy::{DetectionSimulator, ResolutionProfile};
use tangram_infer::ap::{ap50, FrameEval};
use tangram_partition::algorithm::{partition, PartitionConfig};
use tangram_sim::rng::DetRng;
use tangram_types::geometry::Rect;
use tangram_types::ids::SceneId;
use tangram_video::codec::CodecModel;
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_video::scene::SceneProfile;
use tangram_vision::extractor::{GmmExtractor, RoiExtractor};

fn main() {
    let scene = SceneId::new(7); // University Campus
    let profile = SceneProfile::panda(scene);
    println!("Scene: {} ({})\n", scene, profile.name);

    let video = VideoConfig {
        render: true,
        raster_scale: 0.2,
        ..VideoConfig::default()
    };
    let mut sim = SceneSimulation::new(scene, video, 7);
    let mut extractor = GmmExtractor::default();
    // Warm the background model.
    for _ in 0..30 {
        let f = sim.next_frame();
        let _ = extractor.extract(&f);
    }

    let frames = 40;
    let simulator = DetectionSimulator::new(ResolutionProfile::yolov8x_4k());
    let grids = [
        PartitionConfig::new(2, 2),
        PartitionConfig::new(4, 4),
        PartitionConfig::new(6, 6),
    ];
    let mut stats = vec![(0u64, 0usize, Vec::<FrameEval>::new()); grids.len()];
    let mut full_bytes = 0u64;
    let mut rng = DetRng::new(7).fork("campus");

    for _ in 0..frames {
        let frame = sim.next_frame();
        let rois = extractor.extract(&frame);
        full_bytes += CodecModel.full_frame_bytes(frame.frame_size).get();
        let bounds = Rect::from_size(frame.frame_size);
        for (gi, grid) in grids.iter().enumerate() {
            let patches = partition(frame.frame_size, *grid, &rois);
            stats[gi].0 += CodecModel.patches_bytes(patches.iter()).get();
            stats[gi].1 += patches.len();
            let presented = present_through_regions(&frame, &patches);
            let mpx = patches.iter().map(|p| p.area() as f64).sum::<f64>() / 1.0e6;
            let dets = simulator.detect(&presented, mpx, profile.full_frame_ap, bounds, &mut rng);
            stats[gi].2.push(FrameEval::new(frame.object_rects(), dets));
        }
    }

    println!(
        "{:<6} {:>14} {:>16} {:>10}",
        "grid", "bandwidth %", "patches/frame", "AP@0.5"
    );
    for (gi, grid) in grids.iter().enumerate() {
        println!(
            "{:<6} {:>13.1}% {:>16.1} {:>10.3}",
            format!("{}x{}", grid.zones_x, grid.zones_y),
            stats[gi].0 as f64 / full_bytes as f64 * 100.0,
            stats[gi].1 as f64 / frames as f64,
            ap50(&stats[gi].2),
        );
    }
    println!(
        "\nFull-frame reference AP: {:.3}. Finer grids save bandwidth but clip more\nobjects at zone boundaries — the paper (and this campus) settles on 4x4.",
        profile.full_frame_ap
    );
}
