//! Rows over the accuracy pipeline: extraction → partitioning →
//! presentation → detection → AP@0.5 (Figs. 2 and 4, Tables III and IV).

use crate::edge::table_grids;
use crate::{heading, paper_cells, per_scene, say, vs_paper, ExpOpts};
use std::io::Write;
use tangram_harness::present::{present_scaled, present_through_regions};
use tangram_harness::presets::{EdgeExtractor, SceneRig};
use tangram_harness::{parallel_map, table};
use tangram_infer::accuracy::{DetectionSimulator, PresentedObject, ResolutionProfile};
use tangram_infer::ap::{ap50, FrameEval};
use tangram_infer::latency::InferenceLatencyModel;
use tangram_partition::algorithm::{partition, PartitionConfig};
use tangram_sim::rng::DetRng;
use tangram_types::geometry::Rect;
use tangram_types::ids::SceneId;
use tangram_types::time::{SimDuration, SimTime};
use tangram_video::codec::CodecModel;
use tangram_video::generator::{FrameTruth, SceneSimulation, VideoConfig};
use tangram_video::scene::SceneProfile;
use tangram_vision::detector::DetectorProxy;
use tangram_vision::extractor::{merge_overlapping, ProxyExtractor, RoiExtractor};

/// The cloud detector under evaluation: the model, the calibrated base
/// difficulty of the scene it is looking at, and the detection stream.
struct Detector {
    simulator: DetectionSimulator,
    base_ap: f64,
    rng: DetRng,
}

impl Detector {
    /// The 4K-trained model looking at `scene`.
    fn yolov8x_4k(scene: SceneId, rng: DetRng) -> Self {
        Self {
            simulator: DetectionSimulator::new(ResolutionProfile::yolov8x_4k()),
            base_ap: SceneProfile::panda(scene).full_frame_ap,
            rng,
        }
    }

    /// Scores the whole frame uniformly rescaled by `scale`.
    fn eval_scaled(&mut self, frame: &FrameTruth, scale: f64) -> FrameEval {
        let mpx = frame.frame_size.megapixels() * scale * scale;
        self.eval(frame, &present_scaled(frame, scale), mpx)
    }

    /// Scores the frame as seen only through `regions` at native scale.
    fn eval_regions(&mut self, frame: &FrameTruth, regions: &[Rect]) -> FrameEval {
        let mpx = regions.iter().map(|r| r.area() as f64).sum::<f64>() / 1.0e6;
        self.eval(frame, &present_through_regions(frame, regions), mpx)
    }

    fn eval(&mut self, frame: &FrameTruth, presented: &[PresentedObject], mpx: f64) -> FrameEval {
        let bounds = Rect::from_size(frame.frame_size);
        let base = self.base_ap;
        let dets = self
            .simulator
            .detect(presented, mpx, base, bounds, &mut self.rng);
        FrameEval::new(frame.object_rects(), dets)
    }
}

/// Fig. 2.
pub(crate) fn fig2_motivation(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(25, 80);
    heading(out, "Fig. 2(a): AP@0.5 of offloading strategies (paper)");
    let aps = per_scene(SceneId::all().take(5), opts, |scene| {
        let rng = DetRng::new(opts.seed).fork_indexed("fig2a", u64::from(scene.index()));
        let mut detector = Detector::yolov8x_4k(scene, rng);
        let mut evals: [Vec<FrameEval>; 3] = Default::default();
        let mut sim = SceneSimulation::new(scene, VideoConfig::default(), opts.seed);
        let edge_rng = detector.rng.fork("content");
        let mut edge = ProxyExtractor::new(DetectorProxy::ssdlite_mobilenet_v2(), edge_rng);
        for frame in sim.frames(frames) {
            // Server-driven: round 1 on a low-quality (quarter-scale)
            // frame finds RoIs in the cloud; round 2 re-fetches only
            // those regions in high quality.
            let bounds = Rect::from_size(frame.frame_size);
            let round1 = detector.eval_scaled(&frame, 0.25).detections;
            let found = round1.iter().map(|d| d.rect.inflated(24, &bounds));
            let regions = merge_overlapping(found.collect(), 8);
            evals[0].push(detector.eval_regions(&frame, &regions));
            // Content-aware: the edge's lightweight model picks the RoIs.
            evals[1].push(detector.eval_regions(&frame, &edge.extract(&frame)));
            // Full frame at native resolution.
            evals[2].push(detector.eval_scaled(&frame, 1.0));
        }
        (scene, evals.map(|e| ap50(&e)))
    });
    let rows = aps.iter().map(|(scene, ap)| {
        let p = SceneProfile::panda(*scene);
        let paper = [
            p.server_driven_ap,
            p.content_aware_ap,
            Some(p.full_frame_ap),
        ];
        let paper = paper.map(|ap| ap.unwrap_or(0.0));
        format!("{scene} | {}", paper_cells(ap, &paper, 2))
    });
    let headers = "scene | server-driven | content-aware | full frame";
    table::write(out, headers, rows);
    let full_frame_wins = aps.iter().all(|(_, ap)| ap[2] > ap[0] && ap[2] > ap[1]);

    say!(out, "");
    heading(out, "Fig. 2(b): mean RoI inference latency vs camera count");
    // One GPU worker serves every camera's per-frame RoI request
    // sequentially (no batching, the status-quo deployment). ~3 fps per
    // camera puts five cameras at ≈ 0.9 utilisation of one GPU — the
    // paper's saturation point.
    let frames = opts.frame_budget(80, 200);
    let fps = 3.0;
    let mean_ms = parallel_map((1..=5).collect(), opts.workers(), |_, cams: usize| {
        let model = InferenceLatencyModel::rtx4090_yolov8x();
        let mut rng = DetRng::new(opts.seed).fork_indexed("fig2b", cams as u64);
        let mut sims: Vec<SceneSimulation> = (0..cams)
            .map(|c| {
                let scene = SceneId::new((c % 5 + 1) as u8);
                SceneSimulation::new(scene, VideoConfig::default(), opts.seed + c as u64)
            })
            .collect();
        let mut gpu_free = SimTime::ZERO;
        let mut total_latency = SimDuration::ZERO;
        let mut requests = 0u64;
        for fi in 0..frames {
            let t_frame = SimTime::from_secs_f64(fi as f64 / fps);
            for sim in &mut sims {
                // The camera's RoIs, inferred as one per-camera request.
                let rois = sim.next_frame().object_rects();
                let roi_mpx = rois.iter().map(|r| r.area() as f64).sum::<f64>() / 1.0e6;
                let exec = model.sample(roi_mpx.max(0.05), &mut rng);
                gpu_free = gpu_free.max(t_frame) + exec;
                total_latency += gpu_free.since(t_frame);
                requests += 1;
            }
        }
        total_latency.as_millis_f64() / requests as f64
    });
    let paper = [59.1, 67.2, 75.0, 121.7, 325.8];
    let rows = mean_ms.iter().zip(paper).enumerate();
    let rows = rows.map(|(i, (ms, paper))| format!("{} | {}", i + 1, vs_paper(*ms, paper, 1)));
    table::write(out, "#cameras | mean latency ms (paper)", rows);
    vec![
        full_frame_wins,
        mean_ms.windows(2).all(|w| w[1] > w[0]),
        mean_ms[4] > 2.0 * mean_ms[3],
    ]
}

/// Fig. 4. (b) runs one independently seeded cell per (profile,
/// resolution), each over the five motivation scenes.
pub(crate) fn fig4_resolution(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(30, 100);

    heading(out, "Fig. 4(a): RoI sizes in scene_01 (2-D histogram)");
    let mut sim = SceneSimulation::new(SceneId::new(1), VideoConfig::default(), opts.seed);
    let mut hist = [[0u32; 5]; 5]; // rows: height bands, cols: width bands
    let bands_w = [50u32, 100, 150, 200, 250];
    let bands_h = [80u32, 160, 240, 320, 400];
    let (mut max_w, mut max_h) = (0u32, 0u32);
    for frame in sim.frames(frames) {
        for o in &frame.objects {
            max_w = max_w.max(o.rect.width);
            max_h = max_h.max(o.rect.height);
            let wi = bands_w.iter().position(|&b| o.rect.width < b).unwrap_or(4);
            let hi = bands_h.iter().position(|&b| o.rect.height < b).unwrap_or(4);
            hist[hi][wi] += 1;
        }
    }
    let labels = ["<80", "<160", "<240", "<320", ">=320"];
    let rows = hist.iter().zip(labels).map(|(row, label)| {
        let counts = row.map(|count| count.to_string());
        format!("{label} | {}", counts.join(" | "))
    });
    let headers = "height \\ width | <50 | <100 | <150 | <200 | >=200";
    table::write(out, headers, rows);
    let paper = "paper scatter reaches ~250x400";
    say!(out, "\nLargest RoI seen: {max_w}x{max_h} px ({paper}).\n");

    heading(out, "Fig. 4(b): AP vs evaluation resolution");
    let names = ["4K", "2K", "1080P", "720P", "480P"];
    let scales = [1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0, 2.0 / 9.0];
    let paper = [
        [0.744, 0.736, 0.691, 0.600, 0.374],
        [0.411, 0.462, 0.528, 0.546, 0.551],
    ];
    let cells = (0..2).flat_map(|pi| (0..5).map(move |ri| (pi, ri)));
    let aps = parallel_map(cells.collect(), opts.workers(), |_, (pi, ri)| {
        let profile = if pi == 0 {
            ResolutionProfile::yolov8x_4k()
        } else {
            ResolutionProfile::yolov8x_480p()
        };
        // One detection stream walks all five scenes.
        let mut detector = Detector {
            simulator: DetectionSimulator::new(profile),
            base_ap: 0.0,
            rng: DetRng::new(opts.seed).fork_indexed("fig4", (pi * 8 + ri) as u64),
        };
        let mut evals: Vec<FrameEval> = Vec::new();
        for scene in SceneId::all().take(5) {
            detector.base_ap = SceneProfile::panda(scene).full_frame_ap;
            let mut sim = SceneSimulation::new(scene, VideoConfig::default(), opts.seed);
            for frame in sim.frames(frames / 2) {
                evals.push(detector.eval_scaled(&frame, scales[ri]));
            }
        }
        ap50(&evals)
    });
    let (ap_4k, ap_480) = aps.split_at(5);
    let rows = (0..5).map(|i| {
        let cells = paper_cells(&[ap_4k[i], ap_480[i]], &[paper[0][i], paper[1][i]], 3);
        format!("{} | {cells}", names[i])
    });
    let headers = "resolution | 4K-trained AP (paper) | 480P-trained AP (paper)";
    table::write(out, headers, rows);
    vec![
        ap_4k.windows(2).all(|w| w[0] > w[1]),
        ap_480.windows(2).all(|w| w[0] < w[1]),
        ap_4k[0] > ap_480[0] && ap_480[4] > ap_4k[4],
    ]
}

/// Paper Table III: (full, 2×2, 4×4, 6×6) per scene.
const TABLE3_PAPER: [[f64; 4]; 10] = [
    [0.572, 0.583, 0.573, 0.565],
    [0.767, 0.756, 0.747, 0.750],
    [0.576, 0.570, 0.549, 0.493],
    [0.964, 0.962, 0.964, 0.927],
    [0.899, 0.893, 0.894, 0.830],
    [0.686, 0.665, 0.647, 0.644],
    [0.698, 0.663, 0.692, 0.672],
    [0.638, 0.626, 0.622, 0.549],
    [0.598, 0.587, 0.598, 0.553],
    [0.634, 0.615, 0.615, 0.586],
];

/// Table III. RoIs are extracted once per frame and partitioned three
/// ways; objects outside every patch cannot be detected, objects clipped
/// by patch boundaries are harder.
pub(crate) fn table3_accuracy(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(20, 60);
    heading(out, "Table III: AP@0.5 vs partition granularity (paper)");
    let aps = per_scene(SceneId::all(), opts, |scene| {
        let rng = DetRng::new(opts.seed).fork_indexed("t3", u64::from(scene.index()));
        let mut detector = Detector::yolov8x_4k(scene, rng);
        let mut rig = SceneRig::new(scene, EdgeExtractor::for_mode(opts.quick), opts.seed, "t3");
        // evals[0] = full frame; 1..=3 the three grids.
        let mut evals: [Vec<FrameEval>; 4] = Default::default();
        for _ in 0..frames {
            let frame = rig.sim.next_frame();
            let rois = rig.extractor.extract(&frame);
            evals[0].push(detector.eval_scaled(&frame, 1.0));
            for (gi, grid) in table_grids().into_iter().enumerate() {
                let patches = partition(frame.frame_size, grid, &rois);
                evals[gi + 1].push(detector.eval_regions(&frame, &patches));
            }
        }
        (scene, evals.map(|e| ap50(&e)))
    });
    let rows = aps.iter().map(|(scene, ap)| {
        let cells = paper_cells(ap, &TABLE3_PAPER[scene.array_index()], 3);
        format!("{scene} | {cells}")
    });
    table::write(out, "scene | full | 2x2 | 4x4 | 6x6", rows);
    vec![
        aps.iter().all(|(_, ap)| ap[2] >= 0.95 * ap[0]),
        aps.iter().all(|(_, ap)| ap[1] >= ap[2] && ap[2] >= ap[3]),
    ]
}

/// Table IV's methods, in the order of its paper values.
const TABLE4_METHODS: [EdgeExtractor; 4] = {
    use EdgeExtractor::{Flow, Gmm, SsdProxy, YoloProxy};
    [Gmm, Flow, SsdProxy, YoloProxy]
};

/// Paper Table IV: (RoI AP, +Partition AP, BW %) per method.
const TABLE4_PAPER: [(&str, [f64; 3]); 4] = [
    ("GMM", [0.515, 0.678, 67.99]),
    ("OpticalFlow", [0.480, 0.669, 77.27]),
    ("SSDLite-MobileNetV2", [0.436, 0.637, 82.26]),
    ("Yolov3-MobileNetV2", [0.397, 0.583, 54.81]),
];

/// Table IV. Methods and the full-frame reference pass are each
/// independently seeded.
pub(crate) fn table4_extractors(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(15, 50);
    let scenes = SceneId::all().take(if opts.quick { 3 } else { 5 });
    let scenes: Vec<SceneId> = scenes.collect();
    heading(out, "Table IV: RoI extraction methods (ours vs paper)");
    let methods = TABLE4_METHODS.into_iter().enumerate().collect();
    let methods = parallel_map(methods, opts.workers(), |_, (mi, method)| {
        let mut roi_evals: Vec<FrameEval> = Vec::new();
        let mut part_evals: Vec<FrameEval> = Vec::new();
        let (mut patch_bytes, mut full_bytes) = (0u64, 0u64);
        for &scene in &scenes {
            let fork = (mi * 100 + scene.index() as usize) as u64;
            let rng = DetRng::new(opts.seed).fork_indexed("t4", fork);
            let mut detector = Detector::yolov8x_4k(scene, rng);
            let mut rig = SceneRig::new(scene, method, opts.seed, "t4");
            for _ in 0..frames {
                let frame = rig.sim.next_frame();
                let rois = rig.extractor.extract(&frame);
                // RoI-only: ship the raw RoI crops.
                roi_evals.push(detector.eval_regions(&frame, &rois));
                // +Partition: align RoIs into patches first.
                let patches = partition(frame.frame_size, PartitionConfig::default(), &rois);
                part_evals.push(detector.eval_regions(&frame, &patches));
                patch_bytes += CodecModel.patches_bytes(patches.iter()).get();
                full_bytes += CodecModel.full_frame_bytes(frame.frame_size).get();
            }
        }
        let bandwidth_pct = patch_bytes as f64 / full_bytes as f64 * 100.0;
        [ap50(&roi_evals), ap50(&part_evals), bandwidth_pct]
    });
    let rows = methods.iter().zip(TABLE4_PAPER);
    let rows = rows.map(|(ours, (name, paper))| {
        let aps = paper_cells(&ours[..2], &paper[..2], 3);
        format!("{name} | {aps} | {}", vs_paper(ours[2], paper[2], 1))
    });
    table::write(out, "method | RoI AP | +Partition AP | BW %", rows);

    // Full-frame reference, its own independently-seeded pass.
    let reference = per_scene(scenes.iter().copied(), opts, |scene| {
        let rng = DetRng::new(opts.seed).fork_indexed("t4-full", u64::from(scene.index()));
        let mut detector = Detector::yolov8x_4k(scene, rng);
        let mut rig = SceneRig::new(scene, EdgeExtractor::SsdProxy, opts.seed, "t4-full");
        let evals = (0..frames).map(|_| detector.eval_scaled(&rig.sim.next_frame(), 1.0));
        evals.collect::<Vec<_>>()
    });
    let reference = ap50(&reference.concat());
    say!(
        out,
        "\nFull-frame reference AP: {reference:.3} (paper: 0.60)."
    );
    vec![
        methods.iter().all(|m| m[1] > m[0]),
        methods.iter().all(|m| m[2] < 100.0),
    ]
}
