//! Rows over the patch-stitching solver: each frame's (or queue's)
//! patches packed onto 1024×1024 canvases — Fig. 8's per-request cost,
//! Fig. 10's canvas efficiency, and the packing and re-stitch ablations.

use crate::{heading, paper_cells, per_scene, say, ExpOpts};
use std::io::Write;
use tangram_core::policy::baselines::ELF_MIN_INPUT_MEGAPIXELS;
use tangram_core::workload::TraceFrame;
use tangram_harness::presets::{build_trace, trace_kind};
use tangram_harness::{table, TraceKind};
use tangram_infer::latency::InferenceLatencyModel;
use tangram_serverless::function::FunctionSpec;
use tangram_serverless::pricing::ResourcePrices;
use tangram_sim::rng::DetRng;
use tangram_sim::stats::EmpiricalCdf;
use tangram_stitch::packer::{GuillotinePacker, Packer, ShelfPacker, SkylinePacker};
use tangram_stitch::solver::{split_to_fit, PatchStitchingSolver, Stitching};
use tangram_types::geometry::Size;
use tangram_types::ids::SceneId;
use tangram_types::patch::PatchInfo;
use tangram_types::units::Dollars;
use tangram_video::scene::SceneProfile;

const CANVAS: Size = Size::CANVAS_1024;

/// The canvas-sized tiles of `frames`' patches, in arrival order — what
/// the solver is handed for one request.
fn tiles(frames: &[TraceFrame]) -> Vec<PatchInfo> {
    let patches = frames.iter().flat_map(|f| &f.patches);
    let tiles = patches.flat_map(|p| {
        split_to_fit(p.info.rect, CANVAS).map(move |rect| PatchInfo { rect, ..p.info })
    });
    tiles.collect()
}

/// Arrival-order first-fit of `tiles` into packers opened on demand:
/// (canvases used, their mean efficiency).
fn pack_all(make: &dyn Fn() -> Box<dyn Packer>, tiles: &[PatchInfo]) -> (usize, f64) {
    let mut packers: Vec<Box<dyn Packer>> = Vec::new();
    'outer: for tile in tiles {
        let size = tile.rect.size();
        for p in &mut packers {
            if p.insert(size).is_some() {
                continue 'outer;
            }
        }
        let mut p = make();
        assert!(p.insert(size).is_some(), "patch fits an empty canvas");
        packers.push(p);
    }
    let canvases = packers.len();
    let eff = packers.iter().map(|p| p.efficiency()).sum::<f64>() / canvases.max(1) as f64;
    (canvases, eff)
}

/// Paper's Fig. 8 values, $/scene: (tangram, masked, full, elf).
const FIG8_PAPER: [[f64; 4]; 10] = [
    [0.069, 0.141, 0.168, 0.179],
    [0.092, 0.146, 0.175, 0.202],
    [0.075, 0.131, 0.150, 0.191],
    [0.056, 0.050, 0.056, 0.153],
    [0.026, 0.031, 0.038, 0.075],
    [0.066, 0.119, 0.132, 0.164],
    [0.044, 0.077, 0.086, 0.123],
    [0.116, 0.141, 0.162, 0.230],
    [0.106, 0.132, 0.152, 0.238],
    [0.080, 0.131, 0.153, 0.220],
];

/// Fig. 8. Every evaluation frame is (at least) one request on the FC
/// GPU-slice latency profile, billed by Eqn. (1): Tangram stitches the
/// frame's patches into one request, Masked and Full Frame send one
/// full-resolution request (Masked skips the background's compute), ELF
/// sends one request per patch.
pub(crate) fn fig8_cost(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    heading(out, "Fig. 8: function cost per scene, $ (ours vs paper)");
    let scenes = per_scene(SceneId::all(), opts, |scene| {
        let model = InferenceLatencyModel::alibaba_gpu_slice();
        let prices = ResourcePrices::alibaba_fc();
        let spec = FunctionSpec::paper_default();
        let solver = PatchStitchingSolver::new(CANVAS);
        let profile = SceneProfile::panda(scene);
        let frames = opts.frame_budget(25, profile.eval_frames as usize);
        let trace = build_trace(scene, frames, opts.seed, trace_kind(opts.quick));
        let full_mpx = profile.frame_size.megapixels();
        let masked_mpx = full_mpx * (1.0 - profile.redundancy);
        let mut rng = DetRng::new(opts.seed).fork_indexed("fig8", u64::from(scene.index()));

        let mut cost = [Dollars::ZERO; 4]; // tangram, masked, full, elf
        let mut bill = |method: usize, mpx: f64| {
            cost[method] += prices.invocation_cost(model.sample(mpx, &mut rng), &spec);
        };
        for f in &trace.frames {
            let infos = tiles(std::slice::from_ref(f));
            if !infos.is_empty() {
                let canvases = solver.stitch(&infos).expect("tiles fit");
                bill(0, canvases.len() as f64 * CANVAS.megapixels());
            }
            bill(1, masked_mpx);
            bill(2, full_mpx);
            for p in &f.patches {
                let area = p.info.rect.area() as f64 / 1.0e6;
                bill(3, area.max(ELF_MIN_INPUT_MEGAPIXELS));
            }
        }
        (scene, frames, cost.map(|c| c.get()))
    });
    let rows = scenes.iter().map(|(scene, frames, cost)| {
        let cells = paper_cells(cost, &FIG8_PAPER[scene.array_index()], 3);
        format!("{scene} | {frames} | {cells}")
    });
    let headers = "scene | #frames | Tangram 4x4 | Masked | Full | ELF";
    table::write(out, headers, rows);

    say!(out, "\nAverage cost reduction of Tangram (ours / paper):");
    let mut totals = [0.0f64; 4];
    for (.., cost) in &scenes {
        (0..4).for_each(|i| totals[i] += cost[i]);
    }
    let reductions = [1, 2, 3].map(|i| (1.0 - totals[0] / totals[i]) * 100.0);
    let paper = [
        ("Masked Frame", 66.42),
        ("Full Frame", 57.39),
        ("ELF", 41.13),
    ];
    let rows = reductions.iter().zip(paper);
    let rows = rows.map(|(ours, (name, paper))| format!("{name} | {ours:.1} | {paper:.1}"));
    table::write(out, "vs | ours % | paper %", rows);
    vec![
        scenes
            .iter()
            .all(|(.., cost)| cost[1..].iter().all(|&other| cost[0] < other)),
        reductions.iter().all(|&r| r > 0.0),
    ]
}

/// Fig. 10. (b) pools the per-frame canvas efficiencies in scene order.
pub(crate) fn fig10_patches(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(30, 120);
    let scenes = per_scene(SceneId::all(), opts, |scene| {
        let solver = PatchStitchingSolver::new(CANVAS);
        let trace = build_trace(scene, frames, opts.seed, TraceKind::Proxy);
        let counts: Vec<usize> = trace.frames.iter().map(|f| f.patches.len()).collect();
        let mut efficiencies = Vec::new();
        for f in &trace.frames {
            let infos = tiles(std::slice::from_ref(f));
            if !infos.is_empty() {
                let canvases = solver.stitch(&infos).expect("tiles fit");
                efficiencies.extend(canvases.iter().map(|c| c.efficiency()));
            }
        }
        (scene, counts, efficiencies)
    });
    let mean = |counts: &[usize]| counts.iter().sum::<usize>() as f64 / counts.len() as f64;

    heading(out, "Fig. 10(a): patches per frame (4x4 partitioning)");
    let rows = scenes.iter().map(|(scene, counts, _)| {
        let min = counts.iter().min().expect("at least one frame");
        let max = counts.iter().max().expect("at least one frame");
        format!("{scene} | {:.1} | {min} | {max}", mean(counts))
    });
    table::write(out, "scene | mean | min | max", rows);

    say!(out, "");
    heading(out, "Fig. 10(b): CDF of canvas efficiency (4x4, 1024)");
    let mut cdf = EmpiricalCdf::new();
    for (.., efficiencies) in &scenes {
        cdf.extend(efficiencies.iter().copied());
    }
    let points = cdf.points(12);
    let rows = points.iter().map(|(v, p)| format!("{v:.3} | {p:.3}"));
    table::write(out, "efficiency | CDF", rows);

    say!(out, "\nMean canvas efficiency per scene:");
    let rows = scenes.iter().map(|(scene, _, eff)| {
        format!(
            "{scene} | {:.3}",
            eff.iter().sum::<f64>() / eff.len() as f64
        )
    });
    table::write(out, "scene | mean efficiency", rows);
    vec![scenes
        .iter()
        .all(|(_, counts, _)| (6.0..=16.0).contains(&mean(counts)))]
}

/// Ablation — why a guillotine packer? The paper's guillotine
/// (best-short-side-fit, shorter-axis split) against a first-fit shelf
/// and a bottom-left skyline; fewer canvases = fewer GPU-seconds.
pub(crate) fn ablation_packing(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(20, 80);
    heading(out, "Ablation: packing strategy (per-frame stitching)");
    let scenes = per_scene(SceneId::all(), opts, |scene| {
        let trace = build_trace(scene, frames, opts.seed, TraceKind::Proxy);
        let strategies: [&dyn Fn() -> Box<dyn Packer>; 3] = [
            &|| Box::new(GuillotinePacker::new(CANVAS)),
            &|| Box::new(ShelfPacker::new(CANVAS)),
            &|| Box::new(SkylinePacker::new(CANVAS)),
        ];
        // Per strategy: (canvases, efficiency sum, frames packed).
        let mut per_packer = [(0usize, 0.0f64, 0usize); 3];
        for f in &trace.frames {
            let infos = tiles(std::slice::from_ref(f));
            if infos.is_empty() {
                continue;
            }
            for (sums, make) in per_packer.iter_mut().zip(strategies) {
                let (canvases, eff) = pack_all(make, &infos);
                *sums = (sums.0 + canvases, sums.1 + eff, sums.2 + 1);
            }
        }
        (scene, per_packer)
    });
    let rows = scenes.iter().map(|(scene, per_packer)| {
        let cells = per_packer
            .map(|(canvases, eff_sum, n)| format!("{canvases} ({:.3})", eff_sum / n as f64));
        format!("{scene} | {}", cells.join(" | "))
    });
    let headers = "scene | guillotine canvases (eff) | shelf canvases (eff) \
                   | skyline canvases (eff)";
    table::write(out, headers, rows);
    let total = |i: usize| scenes.iter().map(|(_, p)| p[i].0).sum::<usize>();
    let (guillotine, shelf, skyline) = (total(0), total(1), total(2));
    say!(
        out,
        "\nTotals: guillotine {guillotine} vs shelf {shelf} vs skyline {skyline} canvases."
    );
    let never_more_than = |other: usize| scenes.iter().all(|(_, p)| p[0].0 <= p[other].0);
    vec![never_more_than(1), never_more_than(2)]
}

/// Ablation — Algorithm 2 re-runs the solver over the entire queue on
/// every arrival; the scheduler keeps one `Stitching` open and places
/// each tile once, as it arrives.
pub(crate) fn ablation_restitch(opts: &ExpOpts, out: &mut dyn Write) -> Vec<bool> {
    let frames = opts.frame_budget(20, 80);
    heading(out, "Ablation: full re-stitch vs incremental insertion");
    say!(out, "Queues of ~3 frames' patches, stitched both ways:\n");
    let scenes = per_scene(SceneId::all(), opts, |scene| {
        let solver = PatchStitchingSolver::new(CANVAS);
        let trace = build_trace(scene, frames, opts.seed, TraceKind::Proxy);
        let (mut queues, mut restitch, mut incremental) = (0usize, 0usize, 0usize);
        let mut same = true;
        let mut open = Stitching::new(CANVAS);
        for window in trace.frames.chunks(3) {
            let infos = tiles(window);
            if infos.is_empty() {
                continue;
            }
            queues += 1;
            // Full re-stitch of the final queue (what Algorithm 2 ends
            // up dispatching).
            let restitched = solver.stitch(&infos).expect("tiles fit");
            // Incremental: the scheduler's path — one tile per arrival
            // onto the open canvases, never repacked.
            for tile in &infos {
                open.push(*tile).expect("tiles fit");
            }
            let placed = open.canvases();
            restitch += restitched.len();
            incremental += placed.len();
            same &= restitched == placed;
            open.close();
        }
        (scene, queues, restitch, incremental, same)
    });
    let extra_pct = |restitch: usize, incremental: usize| {
        (incremental as f64 / restitch.max(1) as f64 - 1.0) * 100.0
    };
    let rows = scenes
        .iter()
        .map(|&(scene, queues, restitch, incremental, _)| {
            let extra = extra_pct(restitch, incremental);
            format!("{scene} | {queues} | {restitch} | {incremental} | {extra:+.1}")
        });
    let headers = "scene | queues | re-stitch canvases | incremental canvases | extra %";
    table::write(out, headers, rows);
    let overall = scenes.iter().fold((0, 0), |(r, i), s| (r + s.2, i + s.3));
    let overall = extra_pct(overall.0, overall.1);
    say!(
        out,
        "\nOverall: incremental packing needs {overall:+.1}% canvases vs full re-stitching."
    );
    vec![scenes.iter().all(|s| s.4)]
}
