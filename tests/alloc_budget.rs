//! Allocation budgets for the per-invocation path: what one already-late
//! patch costs from `TangramScheduler::on_patch` through
//! `ServerlessPlatform::submit` to `complete` (and the platform's own
//! share of it at a warm pool), what one `EventQueue`
//! push/pop pair costs at a steady population, what placing a tile onto
//! warm canvases and profiling the latency estimator cost — and the high-water mark
//! of a sweep: `run_grid` holds one cell's records at a time, so its peak
//! is flat in the cell count. And what a trace record costs: nothing per
//! record in `emit`, `verify`, `to_jsonl` and `from_jsonl` beyond the
//! record itself and the strings it owns.
//!
//! A test binary may install its own `#[global_allocator]`; nothing under
//! `crates/` does. Counts are per thread, so the tests do not see each
//! other's allocations when the harness runs them in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tangram_core::engine::PolicyKind;
use tangram_core::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_harness::{run_grid, run_grid_full, SweepGrid, TraceKind, WorkloadSpec};
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_serverless::function::FunctionSpec;
use tangram_serverless::platform::{InvocationRequest, ServerlessPlatform};
use tangram_sim::event::EventQueue;
use tangram_stitch::solver::Stitching;
use tangram_trace::{TraceEvent, TraceLog, TraceSink};
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};

struct Counting;

thread_local! {
    /// Allocator calls (alloc, zeroed alloc, realloc) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated less the bytes it has freed
    /// (signed: a thread may free what another allocated), and the
    /// highest that figure has been since `high_water_in` last reset it.
    static LIVE_AND_PEAK: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn note_alloc() {
    // A thread that is tearing its locals down is past anything counted.
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

fn note_bytes(delta: isize) {
    let _ = LIVE_AND_PEAK.try_with(|bytes| {
        let (live, peak) = bytes.get();
        bytes.set((live + delta, peak.max(live + delta)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it never allocates and never re-enters the allocator (the byte counters
// are the same kind of cell).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_bytes(layout.size() as isize);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_bytes(layout.size() as isize);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as isize));
        // SAFETY: `ptr` was returned by `System` for this `layout` (the
        // caller's obligation, unchanged by the wrapper).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        note_bytes(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while `work` runs.
fn allocations_in(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

/// The most bytes this thread holds at once while `work` runs, above what
/// it held on entry.
fn high_water_in(work: impl FnOnce()) -> isize {
    let (held, _) = LIVE_AND_PEAK.with(Cell::get);
    LIVE_AND_PEAK.with(|bytes| bytes.set((held, held)));
    work();
    LIVE_AND_PEAK.with(Cell::get).1 - held
}

/// A saturated uplink in miniature: every patch reaches the scheduler
/// past its deadline, so each is its own batch, submitted 2 ms after the
/// last onto a pool of a few dozen instances and acknowledged. What is
/// left per patch is the `PolicyOutput`'s dispatch list, the batch's
/// patch list and its efficiencies — the canvas, its packer and the
/// platform's pick allocate nothing once warm.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "counts the release path; the debug oracle re-stitches"
)]
fn a_late_patch_costs_at_most_four_allocations_from_arrival_to_ack() {
    let model = InferenceLatencyModel::rtx4090_yolov8x();
    let estimator = LatencyEstimator::paper_default(&model, Size::CANVAS_1024, 9);
    let mut scheduler = TangramScheduler::new(SchedulerConfig::paper_default(), estimator);
    let mut platform = ServerlessPlatform::new(FunctionSpec::paper_default(), model, 7);
    platform.max_instances = None;
    let mut late_patch = |i: u64| {
        let now = SimTime::from_micros(20_000_000 + i * 2_000);
        let patch = PatchInfo::new(
            PatchId::new(i),
            CameraId::new(0),
            FrameId::new(i),
            Rect::new(0, 0, 300, 200),
            now - SimDuration::from_secs(10),
            SimDuration::from_secs(1),
        );
        let out = scheduler.on_patch(now, patch);
        assert_eq!(out.dispatches.len(), 1, "a late patch ships alone, at once");
        for spec in out.dispatches {
            let request = InvocationRequest {
                canvases: spec.inputs,
                megapixels: spec.megapixels,
                submitted: now,
            };
            let outcome = platform.submit(request).expect("one canvas fits");
            assert!(platform.complete(outcome.id));
        }
    };
    (0..64).for_each(&mut late_patch);
    let allocs = allocations_in(|| (64..1_064).for_each(&mut late_patch));
    assert!(
        platform.stats().peak_instances > 20,
        "the pick must have a pool to walk: {:?}",
        platform.stats()
    );
    assert!(
        allocs <= 4 * 1_000,
        "{allocs} allocator calls for 1,000 late patches"
    );
}

/// The platform alone, at the pool size a saturated uplink keeps warm:
/// placing a batch takes a bit from the idle set and pushes its finish
/// time onto the busy heap, acknowledging it removes one in-flight entry.
/// Once the pool has grown, none of that allocates — nor does the
/// rescan of the table that the first idle instance's keep-alive
/// deadline triggers, 60 s into the run.
#[test]
fn a_warm_pool_submits_and_completes_without_allocating() {
    let model = InferenceLatencyModel::rtx4090_yolov8x();
    let mut platform = ServerlessPlatform::new(FunctionSpec::paper_default(), model, 7);
    platform.max_instances = None;
    let keep_alive = platform.keep_alive();
    let mut submit_and_ack = |i: u64| {
        let request = InvocationRequest {
            canvases: 1,
            megapixels: 1.05,
            submitted: SimTime::from_micros(i * 2_000),
        };
        let outcome = platform.submit(request).expect("one canvas fits");
        assert!(platform.complete(outcome.id));
    };
    (0..2_000).for_each(&mut submit_and_ack);
    let allocs = allocations_in(|| (2_000..42_000).for_each(&mut submit_and_ack));
    assert!(SimDuration::from_micros(40_000 * 2_000) > keep_alive);
    let stats = platform.stats();
    assert!(stats.peak_instances >= 60, "{stats:?}");
    assert_eq!(allocs, 0, "allocator calls in 40,000 submits and acks");
}

/// Algorithm 2's placement of one tile is a probe of the open canvases
/// and one insert where it stopped. Closed canvases keep their placement
/// and free lists, so once a queue's worth of tiles has been placed,
/// placing it again allocates nothing.
#[test]
fn placing_a_tile_onto_warm_canvases_allocates_nothing() {
    let tiles: Vec<PatchInfo> = (0..300u32)
        .map(|i| {
            PatchInfo::new(
                PatchId::new(u64::from(i)),
                CameraId::new(0),
                FrameId::new(0),
                Rect::new(0, 0, 1 + (i * 131) % 700, 1 + (i * 71) % 600),
                SimTime::ZERO,
                SimDuration::from_secs(1),
            )
        })
        .collect();
    let place_all = |stitching: &mut Stitching| {
        for tile in &tiles {
            let at = stitching.fitting(tile.rect.size());
            stitching.push_at(*tile, at).expect("tiles fit the canvas");
        }
    };
    let mut stitching = Stitching::new(Size::CANVAS_1024);
    place_all(&mut stitching);
    let canvases = stitching.canvases().to_vec();
    stitching.close();
    let allocs = allocations_in(|| place_all(&mut stitching));
    assert_eq!(
        stitching.canvases(),
        canvases,
        "the same tiles, the same stitching"
    );
    assert!(canvases.len() > 20, "{} canvases", canvases.len());
    assert_eq!(allocs, 0, "allocator calls placing {} tiles", tiles.len());
}

/// Profiling is `max_batch` rows of `(µ, σ, T_slack)` in one `Vec`.
#[test]
fn profiling_the_estimator_is_one_allocation() {
    let model = InferenceLatencyModel::rtx4090_yolov8x();
    let allocs = allocations_in(|| {
        drop(LatencyEstimator::profile(
            &model,
            Size::CANVAS_1024,
            9,
            200,
            3.0,
            5,
        ));
    });
    assert_eq!(allocs, 1);
}

/// Once the lane, the heap and the arena have grown to a population, a
/// pop followed by a push from the same producer allocates nothing.
#[test]
fn event_queue_churn_at_a_steady_population_allocates_nothing() {
    // `true` events come from a FIFO producer a few milliseconds ahead
    // (the lane); `false` ones are rescheduled just ahead of now, before
    // the lane's back (the heap).
    let mut queue: EventQueue<bool> = EventQueue::new();
    let mut link = 1_000u64;
    for i in 0..1_000u64 {
        if i % 10 == 0 {
            queue.push(SimTime::from_micros(i), false);
        } else {
            link += 3;
            queue.push(SimTime::from_micros(link), true);
        }
    }
    let mut from_link = 0u64;
    let mut churn = |pairs: usize| {
        for _ in 0..pairs {
            let (at, link_event) = queue.pop().expect("population is steady");
            if link_event {
                from_link += 1;
                link += 3;
                queue.push(SimTime::from_micros(link), true);
            } else {
                queue.push(at + SimDuration::from_micros(50), false);
            }
        }
    };
    // The first pop also grows the arena's free list.
    churn(100);
    let allocs = allocations_in(|| churn(10_000));
    assert_eq!(queue.len(), 1_000);
    assert!(
        (1_000..9_000).contains(&from_link),
        "both producers must churn: {from_link} of 10,000 pops from the link"
    );
    assert_eq!(allocs, 0, "allocator calls in 10,000 pop/push pairs");
}

/// `run_grid` summarises each cell on the worker that ran it and drops
/// the cell's records there, so what a sweep holds at its peak is the
/// shared traces, one cell's run and the digests — not one `RunReport`
/// per cell. On one worker everything happens on this thread, so the
/// byte counts repeat exactly.
///
/// The cell count grows along the SLO axis: cells of one seed share one
/// set of traces, held for the whole grid, so more seeds would be more
/// traces — memory a sweep owes at any cell count.
#[test]
fn a_sweep_holds_one_cells_records_at_a_time() {
    let grid_of = |slos: u32| {
        let mut grid = SweepGrid::named("high_water");
        grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
        grid.seeds = vec![7, 8];
        grid.slos_s = (0..slos).map(|k| 0.6 + 0.05 * f64::from(k)).collect();
        grid.bandwidths_mbps = vec![40.0];
        grid.workloads = vec![WorkloadSpec {
            scenes: vec![1, 2],
            frames: 64,
            trace: TraceKind::Proxy,
        }];
        grid
    };
    let (one, four) = (grid_of(3), grid_of(12));
    assert_eq!(four.cell_count(), 4 * one.cell_count());
    let digest_1x = high_water_in(|| drop(run_grid(&one, 1)));
    let digest_4x = high_water_in(|| drop(run_grid(&four, 1)));
    let full_4x = high_water_in(|| drop(run_grid_full(&four, 1)));
    assert!(
        digest_4x * 4 <= digest_1x * 5,
        "4x the cells may hold at most 1.25x the bytes: {digest_1x} B, then {digest_4x} B"
    );
    assert!(
        digest_4x * 2 < full_4x,
        "a digest sweep peaks under half of a full one: {digest_4x} B against {full_4x} B"
    );
}

/// A record renders into buffers that outlive it: the sink's scratch, the
/// one scratch `verify` renders each group of four hashing lanes into, the
/// one output of `to_jsonl` (sized exactly, so its high-water mark is the
/// text), and the one line a printer such as `trace_tool filter` reuses
/// for `write_line`; `from_jsonl` borrows each string from the text until
/// the record that keeps it owns it.
#[test]
fn a_trace_record_allocates_only_what_it_keeps() {
    const RECORDS: u64 = 20_007;
    let event = |i: u64| match i % 9 {
        0 => TraceEvent::SessionStart {
            policy: "Tangram".into(),
            seed: i,
            cameras: 16,
        },
        1 => TraceEvent::CameraJoin { camera: i },
        2 => TraceEvent::CameraLeave { camera: i },
        3 => TraceEvent::AdmissionVerdict {
            patch: i << 32,
            slo_us: 800_000,
            admitted: i.is_multiple_of(2),
            queued: i % 50,
            in_flight: i % 7,
            earliest_start_us: i * 131,
        },
        4 => TraceEvent::DrrRound {
            released: i % 5,
            backlog: i % 77,
        },
        5 => TraceEvent::BatchDispatch {
            batch: i / 9,
            patches: 35,
            inputs: 9,
            megapixels_e6: 9_437_184,
        },
        6 => TraceEvent::FunctionComplete {
            invocation: i / 9,
            inputs: 9,
            violations: i % 3,
        },
        7 => TraceEvent::FaultWindow {
            kind: "cold_start_storm".into(),
            until_us: i * 131 + 5_000_000,
        },
        _ => TraceEvent::SessionEnd {
            frames: i,
            batches: i / 9,
            completions: i / 9,
            dropped: i / 20,
            makespan_us: u64::MAX - i,
        },
    };
    let events: Vec<(SimTime, TraceEvent)> = (0..RECORDS)
        .map(|i| (SimTime::from_micros(i * 131), event(i)))
        .collect();
    let strings = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::SessionStart { .. } | TraceEvent::FaultWindow { .. }
            )
        })
        .count() as u64;
    assert!(strings > RECORDS / 5 && events.len() as u64 == RECORDS);

    let mut log = TraceLog::default();
    let emit = allocations_in(|| {
        let mut sink = TraceSink::new();
        for (at, event) in events {
            sink.emit(at, event);
        }
        log = sink.finish();
    });
    assert!(
        emit * 100 <= RECORDS,
        "{emit} allocator calls to emit {RECORDS} records: only `records` may grow"
    );

    let verify = allocations_in(|| log.verify().expect("chain verifies"));
    assert!(verify <= 2, "{verify} allocator calls in verify");

    let mut text = String::new();
    let mut render = 0;
    let held = high_water_in(|| render = allocations_in(|| text = log.to_jsonl()));
    assert!(render <= 4, "{render} allocator calls in to_jsonl");
    assert!(
        held as usize * 10 <= text.len() * 11,
        "to_jsonl held {held} B for a text of {} B",
        text.len()
    );

    let mut line = String::new();
    let longest = log.records.iter().map(|r| r.to_line().len()).max();
    let print = allocations_in(|| {
        for record in &log.records {
            line.clear();
            record.write_line(&mut line);
        }
    });
    // Growing once to the longest line, doubling from the smallest
    // capacity: nothing per record.
    let doublings = u64::from(usize::BITS - longest.unwrap_or(0).leading_zeros());
    assert!(
        print <= doublings,
        "{print} allocator calls to print {RECORDS} records into one line"
    );

    let mut parsed = TraceLog::default();
    let parse = allocations_in(|| parsed = TraceLog::from_jsonl(&text).expect("parses"));
    assert!(
        (parse - strings) * 100 <= RECORDS,
        "{parse} allocator calls to read {RECORDS} records, {strings} of them owning a string"
    );
    assert_eq!(parsed, log);
}
