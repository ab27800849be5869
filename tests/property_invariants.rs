//! Randomized property tests of the core invariants.
//!
//! Formerly written against `proptest`; now driven by `tangram_sim`'s
//! seeded [`DetRng`] so every case is deterministic and reproducible —
//! each property forks a per-case stream from a fixed root seed, and a
//! failure message names the case index that produced it. Re-running the
//! suite replays the identical inputs on every platform.

use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_harness::{ScenarioFile, TomlDocument};
use tangram_infer::ap::{ap50, Detection, FrameEval};
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_partition::algorithm::{partition_detailed, PartitionConfig};
use tangram_sim::rng::DetRng;
use tangram_stitch::canvas::{Canvas, PlacedPatch};
use tangram_stitch::packer::{GuillotinePacker, Packer};
use tangram_stitch::solver::{split_to_fit, PatchStitchingSolver, Stitching};
use tangram_trace::{TraceEvent, TraceRecord};
use tangram_types::geometry::{Point, Rect, Size};
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::json::Json;
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};

/// Root seed for the whole suite; each property + case forks from it.
const ROOT_SEED: u64 = 0x7a6e_6772_616d_0001;

/// Number of random cases per property (matches the old proptest config).
const CASES: u64 = 64;

/// Returns the deterministic stream for one case of one property.
fn case_rng(property: &str, case: u64) -> DetRng {
    DetRng::new(ROOT_SEED).fork_indexed(property, case)
}

/// Draws a rectangle inside a 4K frame, mirroring the old `arb_rect`
/// strategy: x in [0, 3700), y in [0, 2000), w in [8, 500), h in [8, 600),
/// clamped to stay within 3840×2160.
fn arb_rect(rng: &mut DetRng) -> Rect {
    let x = rng.index(3700) as u32;
    let y = rng.index(2000) as u32;
    let w = (8 + rng.index(492)) as u32;
    let h = (8 + rng.index(592)) as u32;
    let x = x.min(3839);
    let y = y.min(2159);
    Rect::new(x, y, w.min(3840 - x).max(1), h.min(2160 - y).max(1))
}

fn arb_rect_vec(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<Rect> {
    let n = lo + rng.index(hi - lo);
    (0..n).map(|_| arb_rect(rng)).collect()
}

fn patch_info(i: usize, rect: Rect) -> PatchInfo {
    PatchInfo::new(
        PatchId::new(i as u64),
        CameraId::new(0),
        FrameId::new(0),
        rect,
        SimTime::ZERO,
        SimDuration::from_secs(60),
    )
}

#[test]
fn stitch_places_everything_disjointly() {
    for case in 0..CASES {
        let mut rng = case_rng("stitch_places_everything_disjointly", case);
        let rects = arb_rect_vec(&mut rng, 1, 40);
        let solver = PatchStitchingSolver::new(Size::CANVAS_1024);
        let patches: Vec<PatchInfo> = rects
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                split_to_fit(*r, Size::CANVAS_1024)
                    .into_iter()
                    .map(move |tile| patch_info(i, tile))
            })
            .collect();
        let canvases = solver.stitch(&patches).expect("normalised patches fit");
        // Every patch placed exactly once.
        let placed: usize = canvases.iter().map(|c| c.placements.len()).sum();
        assert_eq!(placed, patches.len(), "case {case}");
        // No overlaps, all in bounds, efficiency ≤ 1.
        for canvas in &canvases {
            let bounds = Rect::from_size(canvas.size);
            let rects: Vec<Rect> = canvas
                .placements
                .iter()
                .map(PlacedPatch::canvas_rect)
                .collect();
            for (i, r) in rects.iter().enumerate() {
                assert!(bounds.contains_rect(r), "case {case}: {r:?} out of bounds");
                for o in &rects[..i] {
                    assert!(!r.intersects(o), "case {case}: {r:?} overlaps {o:?}");
                }
            }
            assert!(canvas.efficiency() <= 1.0 + 1e-12, "case {case}");
        }
    }
}

/// One `Stitching` carried through many queues — push, read, close, push
/// again — against a from-scratch `stitch` of each queue: recycling the
/// closed canvases and their packers must not show in canvas ids,
/// placements or efficiencies, whether the next queue needs fewer
/// canvases than are waiting or more. Queues include oversized patches,
/// tiled to fit as the scheduler tiles them.
#[test]
fn recycled_stitching_equals_a_fresh_stitch_of_every_queue() {
    const CANVAS: Size = Size::CANVAS_1024;
    let solver = PatchStitchingSolver::new(CANVAS);
    let mut recycled = Stitching::new(CANVAS);
    let (mut waiting, mut shrank, mut grew, mut tiled) = (0usize, 0usize, 0usize, 0usize);
    for case in 0..4 * CASES {
        let mut rng = case_rng("recycled_stitching", case);
        let mut rects = arb_rect_vec(&mut rng, 1, 60);
        if rng.chance(0.25) {
            let at = rng.index(rects.len());
            let (w, h) = (1025 + rng.index(2000), 8 + rng.index(2000));
            rects[at] = Rect::new(0, 0, w as u32, h as u32);
        }
        let queue: Vec<PatchInfo> = rects
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                split_to_fit(*r, CANVAS)
                    .into_iter()
                    .map(move |tile| patch_info(i, tile))
            })
            .collect();
        tiled += usize::from(queue.len() > rects.len());
        for patch in &queue {
            recycled.push(*patch).expect("tiles fit");
        }
        let fresh = solver.stitch(&queue).expect("tiles fit");
        assert_eq!(recycled.canvases(), fresh, "case {case}");
        let efficiencies =
            |canvases: &[Canvas]| -> Vec<f64> { canvases.iter().map(Canvas::efficiency).collect() };
        assert_eq!(efficiencies(recycled.canvases()), efficiencies(&fresh));
        shrank += usize::from(fresh.len() < waiting);
        grew += usize::from(fresh.len() > waiting);
        waiting = waiting.max(fresh.len());
        recycled.close();
        assert!(recycled.canvases().is_empty(), "case {case}");
    }
    assert!(
        shrank > 100 && grew > 3 && tiled > 30,
        "{shrank} {grew} {tiled}"
    );
}

/// The packer contract the scheduler's one-tile placement leans on: the
/// read-only probe answers what `insert` is about to, and a rejected
/// `insert` leaves the free list and `used_area` as they were — so
/// "ask, decide, then place" sees the packer a from-scratch re-stitch
/// would. Sizes mix zero-sized, canvas-sized, 128-aligned (exact fits of
/// each other's leftovers) and free-form patches.
#[test]
fn packer_probe_agrees_with_insert_and_rejection_is_pure() {
    const CANVAS: Size = Size::CANVAS_1024;
    let (mut rejected, mut exact_fills) = (0usize, 0usize);
    for case in 0..2000 {
        let mut rng = case_rng("packer_probe_agrees_with_insert", case);
        let mut packer = GuillotinePacker::new(CANVAS);
        for step in 0..(4 + rng.index(40)) {
            let size = match rng.index(10) {
                0 => Size::new(0, rng.index(300) as u32),
                1 => CANVAS,
                2..=5 => Size::new(
                    128 * (1 + rng.index(8)) as u32,
                    128 * (1 + rng.index(8)) as u32,
                ),
                _ => Size::new(1 + rng.index(700) as u32, 1 + rng.index(700) as u32),
            };
            let before = packer.clone();
            let placed = packer.insert(size);
            assert_eq!(
                before.fits(size),
                placed.is_some(),
                "case {case} step {step}: probe of {size}"
            );
            if placed.is_none() {
                assert_eq!(packer, before, "case {case} step {step}: rejected {size}");
                rejected += 1;
            }
        }
        exact_fills += usize::from(packer.used_area() == CANVAS.area());
    }
    assert!(
        rejected > 2000 && exact_fills > 100,
        "{rejected} {exact_fills}"
    );
}

/// `GuillotinePacker` before it kept a fit bound: the free list alone,
/// best short side fit, shorter-axis split.
#[derive(Clone)]
struct FreeListPacker {
    free: Vec<Rect>,
}

impl FreeListPacker {
    fn insert(&mut self, size: Size) -> Option<Point> {
        if size.is_empty() {
            return None;
        }
        let (idx, _) = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, c)| c.size().fits(size))
            .min_by_key(|(_, c)| (c.width - size.width).min(c.height - size.height))?;
        let cell = self.free.swap_remove(idx);
        let (rem_w, rem_h) = (cell.width - size.width, cell.height - size.height);
        let (c1, c2) = if rem_w <= rem_h {
            (
                Rect::new(cell.x + size.width, cell.y, rem_w, size.height),
                Rect::new(cell.x, cell.y + size.height, cell.width, rem_h),
            )
        } else {
            (
                Rect::new(cell.x + size.width, cell.y, rem_w, cell.height),
                Rect::new(cell.x, cell.y + size.height, size.width, rem_h),
            )
        };
        self.free
            .extend([c1, c2].into_iter().filter(|c| !c.is_empty()));
        Some(cell.origin())
    }
}

/// The scheduler places each tile where `Stitching::fitting` stopped, so
/// that answer must be the canvas the loop `Stitching::push` used to run
/// picks — `insert` on each open canvas in turn, a new canvas if none
/// accepts — and a packer's fit bound must never refuse a tile its free
/// list holds. Beside the stitching, the test keeps every canvas twice:
/// a shipped packer and a bound-free copy of its free list. Streams mix
/// exact fits, canvas-sized tiles, 1-px slivers and tiled oversized
/// patches, and close the stitching at random to reopen its canvases.
#[test]
fn the_stitching_probe_is_the_first_fit_of_the_free_lists() {
    const CANVAS: Size = Size::CANVAS_1024;
    let mut stitching = Stitching::new(CANVAS);
    let mut open: Vec<(GuillotinePacker, FreeListPacker)> = Vec::new();
    let (mut onto_open, mut opened, mut closes, mut bound_refusals) = (0usize, 0usize, 0, 0usize);
    for case in 0..CASES {
        let mut rng = case_rng("stitching_probe", case);
        for step in 0..(1 + rng.index(150)) {
            let side = |rng: &mut DetRng| 1 + rng.index(1024) as u32;
            let rect = match rng.index(10) {
                0 => Rect::from_size(CANVAS),
                1 => Rect::new(0, 0, 1, side(&mut rng)),
                2 => Rect::new(0, 0, side(&mut rng), 1),
                3 => Rect::new(0, 0, 1025 + rng.index(2000) as u32, side(&mut rng)),
                4..=6 => Rect::new(
                    0,
                    0,
                    128 * (1 + rng.index(8)) as u32,
                    128 * (1 + rng.index(8)) as u32,
                ),
                _ => Rect::new(0, 0, 1 + rng.index(700) as u32, 1 + rng.index(700) as u32),
            };
            for tile in split_to_fit(rect, CANVAS) {
                let size = tile.size();
                for (i, (packer, free_list)) in open.iter().enumerate() {
                    let holds = free_list.free.iter().any(|r| r.size().fits(size));
                    assert_eq!(
                        packer.fits(size),
                        holds,
                        "case {case} step {step} canvas {i}"
                    );
                    let widest = free_list.free.iter().map(|r| r.width).max();
                    let tallest = free_list.free.iter().map(|r| r.height).max();
                    bound_refusals += usize::from(
                        widest.is_none_or(|w| size.width > w)
                            || tallest.is_none_or(|h| size.height > h),
                    );
                }
                let first_fit = open
                    .iter()
                    .position(|(_, free_list)| free_list.clone().insert(size).is_some());
                assert_eq!(
                    stitching.fitting(size),
                    first_fit,
                    "case {case} step {step}"
                );
                let patch = patch_info(step, tile);
                stitching.push(patch).expect("tiles fit");
                let at = first_fit.unwrap_or_else(|| {
                    let free = vec![Rect::from_size(CANVAS)];
                    open.push((GuillotinePacker::new(CANVAS), FreeListPacker { free }));
                    open.len() - 1
                });
                onto_open += usize::from(first_fit.is_some());
                opened += usize::from(first_fit.is_none());
                let (packer, free_list) = &mut open[at];
                let position = packer.insert(size);
                assert_eq!(position, free_list.insert(size), "case {case} step {step}");
                let placed = stitching.canvases()[at].placements.last();
                let placed = placed.map(|p| (p.patch, Some(p.position)));
                assert_eq!(placed, Some((patch, position)), "case {case} step {step}");
            }
            assert_eq!(
                stitching.canvases().len(),
                open.len(),
                "case {case} step {step}"
            );
            if rng.chance(0.05) {
                stitching.close();
                open.clear();
                closes += 1;
            }
        }
    }
    assert!(
        onto_open > 2_000 && opened > 1_000 && closes > 100 && bound_refusals > 20_000,
        "{onto_open} onto open canvases, {opened} opened, {closes} closes, \
         {bound_refusals} refused by the bound"
    );
}

#[test]
fn partition_covers_every_roi() {
    for case in 0..CASES {
        let mut rng = case_rng("partition_covers_every_roi", case);
        let rects = arb_rect_vec(&mut rng, 0, 60);
        let zx = (1 + rng.index(7)) as u32;
        let zy = (1 + rng.index(7)) as u32;
        let config = PartitionConfig::new(zx, zy);
        let detailed = partition_detailed(Size::UHD_4K, config, &rects);
        // Patch count bounded by zones; every RoI fully inside its patch.
        assert!(detailed.len() <= (zx * zy) as usize, "case {case}");
        let mut assigned = 0usize;
        for zp in &detailed {
            for &ri in &zp.roi_indices {
                assert!(
                    zp.rect.contains_rect(&rects[ri]),
                    "case {case}: roi {ri} escapes its patch"
                );
                assigned += 1;
            }
        }
        let nonempty = rects.iter().filter(|r| !r.is_empty()).count();
        assert_eq!(assigned, nonempty, "case {case}");
    }
}

#[test]
fn split_to_fit_partitions_exactly() {
    for case in 0..CASES {
        let mut rng = case_rng("split_to_fit_partitions_exactly", case);
        let rect = arb_rect(&mut rng);
        let tiles = split_to_fit(rect, Size::CANVAS_1024);
        let total: u64 = tiles.iter().map(Rect::area).sum();
        assert_eq!(total, rect.area(), "case {case}");
        for (i, t) in tiles.iter().enumerate() {
            assert!(rect.contains_rect(t), "case {case}");
            assert!(Size::CANVAS_1024.fits(t.size()), "case {case}");
            for o in &tiles[..i] {
                assert!(!t.intersects(o), "case {case}");
            }
        }
    }
}

#[test]
fn scheduler_batches_respect_gpu_bound() {
    let estimator = LatencyEstimator::paper_default(
        &InferenceLatencyModel::rtx4090_yolov8x(),
        Size::CANVAS_1024,
        9,
    );
    for case in 0..CASES {
        let mut rng = case_rng("scheduler_batches_respect_gpu_bound", case);
        let n = 1 + rng.index(59);
        let sizes: Vec<(u32, u32)> = (0..n)
            .map(|_| ((50 + rng.index(974)) as u32, (50 + rng.index(974)) as u32))
            .collect();
        let slo_ms = (200 + rng.index(4800)) as u64;
        let mut scheduler =
            TangramScheduler::new(SchedulerConfig::paper_default(), estimator.clone());
        let mut dispatched = Vec::new();
        for (i, (w, h)) in sizes.iter().enumerate() {
            let info = PatchInfo::new(
                PatchId::new(i as u64),
                CameraId::new(0),
                FrameId::new(i as u64 / 8),
                Rect::new(0, 0, *w, *h),
                SimTime::from_micros(i as u64 * 5_000),
                SimDuration::from_millis(slo_ms),
            );
            let out = scheduler.on_patch(SimTime::from_micros(i as u64 * 5_000), info);
            dispatched.extend(out.dispatches);
        }
        dispatched.extend(scheduler.drain().dispatches);
        // Constraint (5): never more canvases than the GPU holds; every
        // patch appears in exactly one batch.
        let total: usize = dispatched.iter().map(|b| b.patches.len()).sum();
        assert_eq!(total, sizes.len(), "case {case}");
        for b in &dispatched {
            assert!(b.inputs <= 9, "case {case}: batch of {} canvases", b.inputs);
            assert_eq!(b.canvas_efficiencies.len(), b.inputs, "case {case}");
        }
    }
}

#[test]
fn ap_increases_with_true_positives() {
    for case in 0..CASES {
        let mut rng = case_rng("ap_increases_with_true_positives", case);
        let n_truth = 1 + rng.index(19);
        let hits = rng.index(20);
        let truths: Vec<Rect> = (0..n_truth)
            .map(|i| Rect::new(i as u32 * 150, 100, 80, 120))
            .collect();
        let make_eval = |k: usize| {
            let dets: Vec<Detection> = truths
                .iter()
                .take(k)
                .map(|&rect| Detection {
                    rect,
                    confidence: 0.9,
                })
                .collect();
            vec![FrameEval::new(truths.clone(), dets)]
        };
        let fewer = ap50(&make_eval(hits.min(n_truth).saturating_sub(1)));
        let more = ap50(&make_eval(hits.min(n_truth)));
        assert!(more >= fewer, "case {case}: {more} < {fewer}");
    }
}

#[test]
fn event_queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = case_rng("event_queue_pops_sorted", case);
        let n = 1 + rng.index(199);
        let mut q = tangram_sim::event::EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_micros(rng.index(1_000_000) as u64), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "case {case}");
            last = t;
        }
    }
}

#[test]
fn deadlines_never_regress_under_waiting() {
    for case in 0..CASES {
        let mut rng = case_rng("deadlines_never_regress_under_waiting", case);
        let generated = rng.index(1_000_000) as u64;
        let slo = (1 + rng.index(4_999_999)) as u64;
        let info = PatchInfo::new(
            PatchId::new(0),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, 10, 10),
            SimTime::from_micros(generated),
            SimDuration::from_micros(slo),
        );
        let d = info.deadline();
        assert_eq!(
            d.since(SimTime::from_micros(generated)),
            SimDuration::from_micros(slo),
            "case {case}"
        );
        // Budget is monotone non-increasing in time.
        let b1 = info.remaining_budget(SimTime::from_micros(generated + 1));
        let b2 = info.remaining_budget(SimTime::from_micros(generated + 2));
        assert!(b2 <= b1, "case {case}");
    }
}

/// Mutated inputs per codec fuzz property.
const FUZZ_CASES: u64 = 2_000;

/// A committed baseline file, as text.
fn baseline(name: &str) -> String {
    let path = format!("{}/baselines/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// JSON's structural alphabet.
const JSON_GRAMMAR: &[u8] = b"{}[]\",:\\ \n-+.eEu0123456789tfn";

/// The structural alphabet of the workspace's TOML dialect.
const TOML_GRAMMAR: &[u8] = b"[]\"'=#,_\\ \n-+.e0123456789tf";

/// Whole lines of the dialect's wider half — dotted keys, quoted
/// segments, dotted table names, quotes that never close — spliced into
/// a seed document before the byte-level edits, which would almost never
/// assemble one.
const TOML_LINES: &[&str] = &[
    "rand.workspace = true",
    "\"tangram-core\".workspace = true # quoted",
    "'cfg(unix)' . \"a.b\".c = [1, 2]",
    "a.b.c = \"x # y\"",
    "[dependencies.tangram-core]",
    "[target.'cfg(all(unix, feature = \"#\"))'.dev-dependencies]",
    "[[bin . \"two words\"]]",
    "justification = \"\\\" # not a comment\"",
    "open = \"never closed",
    "'open.key = 1",
    "[table.\"open]",
    "x = { inline = true }",
];

/// Applies one to four byte-level edits — overwrite, insert, delete,
/// duplicate a slice, truncate — drawing inserted bytes half from the
/// format's own structural alphabet `grammar` (so edits land on grammar,
/// not only inside strings) and half from the full byte range (so
/// invalid and multi-byte UTF-8 appear). Invalid sequences become
/// U+FFFD: the parsers take `&str`.
fn mutate(text: &str, grammar: &[u8], rng: &mut DetRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.index(4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.index(bytes.len());
        let byte = if rng.chance(0.5) {
            grammar[rng.index(grammar.len())]
        } else {
            rng.index(256) as u8
        };
        match rng.index(5) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 => {
                bytes.remove(at);
            }
            3 => {
                let end = (at + 1 + rng.index(64)).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn json_parse_survives_mutated_bench_documents() {
    let seed_doc = baseline("BENCH_smoke.json");
    let mut accepted = 0u64;
    for case in 0..FUZZ_CASES {
        let mut rng = case_rng("json-fuzz", case);
        let input = mutate(&seed_doc, JSON_GRAMMAR, &mut rng);
        // Must return, never panic; whatever it accepts must render to
        // a fixed point of parse-then-render.
        if let Ok(value) = Json::parse(&input) {
            accepted += 1;
            let text = value.render();
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: rendering does not reparse: {e}"));
            assert_eq!(back.render(), text, "case {case}");
        }
    }
    // Some edits fall inside strings and numbers and leave valid JSON:
    // the fixed-point arm must actually run.
    assert!(accepted > 0 && accepted < FUZZ_CASES, "{accepted} accepted");
}

#[test]
fn trace_from_line_survives_mutated_golden_lines() {
    let golden = baseline("TRACE_smoke.jsonl");
    let lines: Vec<&str> = golden.lines().collect();
    let mut accepted = 0u64;
    for case in 0..FUZZ_CASES {
        let mut rng = case_rng("trace-fuzz", case);
        let input = mutate(lines[rng.index(lines.len())], JSON_GRAMMAR, &mut rng);
        // Must return, never panic; whatever it accepts is the line its
        // record renders to.
        if let Ok(record) = TraceRecord::from_line(&input) {
            accepted += 1;
            assert_eq!(record.to_line(), input, "case {case}");
        }
    }
    assert!(accepted > 0 && accepted < FUZZ_CASES, "{accepted} accepted");
}

/// The reader `TraceRecord::from_line` replaced, kept as its oracle: the
/// whole line through `Json::parse` into a tree, every value checked to
/// be a scalar, fields looked up by key (the first of a duplicated key
/// is the field), a hash only as 16 lowercase hex digits.
fn tree_from_line(line: &str) -> Result<TraceRecord, String> {
    let doc = Json::parse(line)?;
    let Json::Object(pairs) = &doc else {
        return Err("expected a JSON object".into());
    };
    let scalar = |v: &Json| matches!(v, Json::Str(_) | Json::U64(_) | Json::Bool(_));
    if let Some((key, value)) = pairs.iter().find(|(_, v)| !scalar(v)) {
        return Err(format!("field {key:?}: unexpected {value:?}"));
    }
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let int = |key: &str| {
        let value = field(key)?.as_u64();
        value.ok_or_else(|| format!("field {key:?}: expected integer"))
    };
    let string = |key: &str| {
        let value = field(key)?.as_str();
        value.ok_or_else(|| format!("field {key:?}: expected string"))
    };
    let hash = |key: &str| {
        let s = string(key)?;
        let canonical = s.len() == 16
            && s.bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        let value = u64::from_str_radix(s, 16).ok().filter(|_| canonical);
        value.ok_or_else(|| format!("bad hash {s:?}"))
    };
    let kind = string("kind")?;
    let (seq, at_us, prev, hash) = (int("seq")?, int("at_us")?, hash("prev")?, hash("hash")?);
    let event = match kind {
        "session.start" => TraceEvent::SessionStart {
            policy: string("policy")?.to_string(),
            seed: int("seed")?,
            cameras: int("cameras")?,
        },
        "camera.join" => TraceEvent::CameraJoin {
            camera: int("camera")?,
        },
        "camera.leave" => TraceEvent::CameraLeave {
            camera: int("camera")?,
        },
        "admission.verdict" => TraceEvent::AdmissionVerdict {
            patch: int("patch")?,
            slo_us: int("slo_us")?,
            admitted: field("admitted")?
                .as_bool()
                .ok_or("field \"admitted\": expected bool")?,
            queued: int("queued")?,
            in_flight: int("in_flight")?,
            earliest_start_us: int("earliest_start_us")?,
        },
        "drr.round" => TraceEvent::DrrRound {
            released: int("released")?,
            backlog: int("backlog")?,
        },
        "batch.dispatch" => TraceEvent::BatchDispatch {
            batch: int("batch")?,
            patches: int("patches")?,
            inputs: int("inputs")?,
            megapixels_e6: int("megapixels_e6")?,
        },
        "function.complete" => TraceEvent::FunctionComplete {
            invocation: int("invocation")?,
            inputs: int("inputs")?,
            violations: int("violations")?,
        },
        "fault.window" => TraceEvent::FaultWindow {
            kind: string("fault")?.to_string(),
            until_us: int("until_us")?,
        },
        "session.end" => TraceEvent::SessionEnd {
            frames: int("frames")?,
            batches: int("batches")?,
            completions: int("completions")?,
            dropped: int("dropped")?,
            makespan_us: int("makespan_us")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceRecord {
        seq,
        at_us,
        prev,
        hash,
        event,
    })
}

/// One edit of a canonical line that keeps it JSON but not canonical:
/// members reordered, an unknown scalar member, a key given twice with
/// two values, an integer with leading zeros or at / past `u64::MAX`, a
/// `\u` escape in a key or a string value, whitespace around the tokens.
fn respell(line: &str, rng: &mut DetRng) -> String {
    let inner = &line[1..line.len() - 1];
    // No golden string holds a comma, so members split on `,"`.
    let mut members: Vec<String> = inner.split(",\"").map(str::to_string).collect();
    for member in &mut members[1..] {
        member.insert(0, '"');
    }
    let at = rng.index(members.len());
    let (key, value) = members[at].split_once(':').expect("a member");
    let (key, value) = (key.to_string(), value.to_string());
    let escape_first = |quoted: &str| format!("\"\\u{:04x}{}", quoted.as_bytes()[1], &quoted[2..]);
    match rng.index(8) {
        0 => {
            let to = rng.index(members.len());
            members.swap(at, to);
        }
        1 => {
            let extra = [
                "\"extra\":7",
                "\"\":\"\"",
                "\"seq \":true",
                "\"Kind\":\"x\"",
            ];
            members.insert(at, extra[rng.index(extra.len())].to_string());
        }
        2 => {
            // Before the original it is the field; after it, ignored.
            let other = ["0", "\"camera.join\"", "false", "\"0000000000000000\""];
            let to = rng.index(members.len() + 1);
            members.insert(to, format!("{key}:{}", other[rng.index(other.len())]));
        }
        3 if value.as_bytes()[0].is_ascii_digit() => members[at] = format!("{key}:00{value}"),
        4 if value.as_bytes()[0].is_ascii_digit() => {
            let edge = ["18446744073709551615", "18446744073709551616", "1e3", "-0"];
            members[at] = format!("{key}:{}", edge[rng.index(edge.len())]);
        }
        5 => members[at] = format!("{}:{value}", escape_first(&key)),
        6 if value.len() > 2 && value.starts_with('"') => {
            members[at] = format!("{key}:{}", escape_first(&value));
        }
        _ => {
            let space = [" ", "\t", "  ", ""];
            let mut pad = || space[rng.index(space.len())];
            let padded: Vec<String> = members
                .iter()
                .map(|m| {
                    let (k, v) = m.split_once(':').expect("a member");
                    format!("{}{k}{}:{}{v}{}", pad(), pad(), pad(), pad())
                })
                .collect();
            return format!("{}{{{}}}{}", pad(), padded.join(","), pad());
        }
    }
    format!("{{{}}}", members.join(","))
}

#[test]
fn the_flat_reader_and_the_tree_reader_agree_on_every_line() {
    let golden = baseline("TRACE_smoke.jsonl") + &baseline("TRACE_overload.jsonl");
    let lines: Vec<&str> = golden.lines().collect();
    let (mut accepted, mut respelled, mut rejected) = (0u64, 0u64, 0u64);
    for case in 0..4 * FUZZ_CASES {
        let mut rng = case_rng("trace-differential", case);
        let mut input = lines[rng.index(lines.len())].to_string();
        // Half the cases stay JSON (one to three respellings), a quarter
        // are then broken at byte level as well, a quarter only broken.
        let kept = rng.index(4);
        if kept < 3 {
            for _ in 0..=rng.index(3) {
                input = respell(&input, &mut rng);
                if !input.starts_with('{') || !input.ends_with('}') {
                    break;
                }
            }
        }
        if kept >= 2 {
            input = mutate(&input, JSON_GRAMMAR, &mut rng);
        }
        // Accepted exactly when the oracle accepts the line and it is the
        // line the oracle's record renders to, and then as that record.
        let tree = tree_from_line(&input);
        let canonical = tree.as_ref().is_ok_and(|r| r.to_line() == input);
        match TraceRecord::from_line(&input) {
            Ok(record) => {
                assert!(canonical, "case {case}: accepted a respelling: {input}");
                assert_eq!(Ok(record), tree, "case {case}: {input}");
                accepted += 1;
            }
            Err(err) => {
                assert!(!canonical, "case {case}: rejected a canonical line: {err}");
                respelled += u64::from(tree.is_ok());
                rejected += 1;
            }
        }
    }
    // Every arm must run: canonical lines, non-canonical spellings the
    // oracle accepts (all rejected), and lines nobody accepts.
    assert!(
        accepted > 0 && respelled > 500 && rejected > 1_000,
        "{accepted} accepted, {rejected} rejected ({respelled} of them respellings)"
    );
}

#[test]
fn toml_readers_survive_mutated_scenario_files() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/config/scenarios");
    let library = ScenarioFile::load_dir(std::path::Path::new(dir)).expect("library loads");
    for (path, _) in &library {
        let seed_doc = std::fs::read_to_string(path).expect("just loaded");
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8");
        let (mut accepted, mut read, mut wide) = (0u64, 0u64, 0u64);
        for case in 0..FUZZ_CASES {
            let mut rng = case_rng(name, case);
            let mut lines: Vec<&str> = seed_doc.lines().collect();
            for _ in 0..rng.index(3) {
                let line = TOML_LINES[rng.index(TOML_LINES.len())];
                lines.insert(rng.index(lines.len() + 1), line);
            }
            let mut input = lines.join("\n");
            if rng.chance(0.75) {
                input = mutate(&input, TOML_GRAMMAR, &mut rng);
            }
            // Both layers must return, never panic. Whatever the reader
            // accepts points every header and entry at a line that spells
            // its path (a segment holding an escape is spelled otherwise
            // there); whatever validates must survive its own canonical
            // form unchanged.
            if let Ok(doc) = TomlDocument::parse(&input) {
                let source: Vec<&str> = input.lines().collect();
                let headers = doc.tables.iter().map(|t| (&t.path, t.line));
                let entries = doc.tables.iter().flat_map(|t| &t.entries).chain(&doc.root);
                for (path, line) in headers.chain(entries.map(|e| (&e.path, e.line))) {
                    let text = source.get(line.wrapping_sub(1));
                    let text = text.unwrap_or_else(|| panic!("{name} case {case}: line {line}"));
                    for segment in path.iter().filter(|s| !s.contains(['"', '\\', '\t', '\n'])) {
                        assert!(
                            text.contains(segment.as_str()),
                            "{name} case {case}: {text}"
                        );
                    }
                    wide += u64::from(path.len() > 1);
                }
                read += 1;
            }
            if let Ok(parsed) = ScenarioFile::parse_str(&input) {
                accepted += 1;
                let back = ScenarioFile::parse_str(&parsed.to_toml()).unwrap_or_else(|e| {
                    panic!("{name} case {case}: to_toml does not reparse: {e}")
                });
                assert_eq!(back, parsed, "{name} case {case}");
            }
        }
        // Edits inside comments, strings and numbers often stay valid:
        // the round-trip arm must actually run, and so must the reader's
        // on documents with dotted and quoted paths in them.
        assert!(accepted > 0 && accepted < FUZZ_CASES, "{name}: {accepted}");
        assert!(
            accepted < read && read < FUZZ_CASES && wide > 100,
            "{name}: {read} read, {wide} dotted paths"
        );
    }
}

#[test]
fn json_round_trips_a_two_megabyte_document() {
    // BENCH-shaped and large: a parser that re-validates the rest of
    // the input per string character takes over 20 s here, a linear one
    // milliseconds. No timing is asserted — the suite's own time limit
    // is the only clock.
    let mut rng = case_rng("json-large", 0);
    let cells: Vec<Json> = (0..9_000u64)
        .map(|index| {
            Json::object(vec![
                ("index", Json::U64(index)),
                ("seed", Json::U64(rng.derive_seed("cell", index))),
                ("policy", Json::Str("Tangram \"é✓🎥\" \\ \n\t".to_string())),
                ("bandwidth_mbps", Json::F64(rng.uniform_in(1.0, 200.0))),
                ("slo_attainment", Json::F64(rng.uniform())),
                ("cost_usd", Json::F64(rng.lognormal(-4.0, 1.0))),
                ("violations", Json::U64(rng.index(1_000) as u64)),
                (
                    "tenants",
                    Json::Array(vec![Json::Null, Json::Bool(true), Json::object(vec![])]),
                ),
            ])
        })
        .collect();
    let doc = Json::object(vec![
        ("schema_version", Json::U64(4)),
        ("name", Json::Str("large".to_string())),
        ("cells", Json::Array(cells)),
    ]);
    let text = doc.render();
    assert!(text.len() >= 2 << 20, "{} bytes", text.len());
    let back = Json::parse(&text).expect("large document parses");
    assert_eq!(back, doc);
    assert_eq!(back.render(), text);
}
