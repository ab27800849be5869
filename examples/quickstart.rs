//! Quickstart: the paper's deployment API in five minutes.
//!
//! Builds the offline latency profile, starts the live Tangram runtime
//! (`receive_patch` / `invoke`), streams one synthetic scene's patches
//! into it in real time (compressed to ~2 s), and prints every batch the
//! SLO-aware invoker dispatches. The runtime itself reads an injected
//! clock and owns no thread; this file is the host that gives it real
//! time — a [`WallClock`] and a loop that waits for the next patch no
//! longer than until the instant `poll` asked to be called by — and it
//! exits non-zero unless every streamed patch was dispatched exactly
//! once and the timer (not the final flush) fired at least one batch.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};
use tangram_core::runtime::LiveTangram;
use tangram_core::scheduler::SchedulerConfig;
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_partition::pipeline::{EdgePipeline, EdgePipelineConfig};
use tangram_sim::clock::Clock;
use tangram_sim::rng::DetRng;
use tangram_types::geometry::Size;
use tangram_types::ids::{CameraId, PatchId, SceneId};
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_vision::detector::DetectorProxy;
use tangram_vision::extractor::ProxyExtractor;

/// Real time since the runtime started: the repository's one wall-clock
/// [`Clock`] outside `benchmark/`.
#[derive(Clone, Copy)]
struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.0.elapsed().as_micros() as u64)
    }
}

/// Pixels per patch id, streamed or dispatched: an oversized patch is
/// dispatched as tiles sharing its id, so "exactly once" is "the same
/// area under every id".
type Ledger = BTreeMap<PatchId, u64>;

fn main() {
    println!("1. Offline profiling: 1000 inference iterations per batch size (Eqn. 9)…");
    let model = InferenceLatencyModel::rtx4090_yolov8x();
    let estimator = LatencyEstimator::paper_default(&model, Size::CANVAS_1024, 9);
    for b in [1usize, 4, 9] {
        println!(
            "   batch {b}: T_slack = {} (mean {})",
            estimator.slack_for(b),
            estimator.mean_for(b)
        );
    }

    println!("\n2. Starting the live runtime (SLO = 400 ms wall-clock)…");
    let clock = WallClock(Instant::now());
    let fired = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&fired);
    let mut runtime = LiveTangram::start(
        SchedulerConfig::paper_default(),
        estimator,
        clock,
        Box::new(move |spec| {
            println!(
                "   -> invoke: {} patches on {} canvas(es), efficiencies {:?} (t = {:?})",
                spec.patch_count(),
                spec.inputs,
                spec.canvas_efficiencies
                    .iter()
                    .map(|e| (e * 100.0).round() / 100.0)
                    .collect::<Vec<_>>(),
                clock.0.elapsed()
            );
            sink.borrow_mut().push(spec);
        }),
    );

    println!("\n3. Streaming scene_01 patches through the edge pipeline…");
    let (patches, arrivals) = channel::<PatchInfo>();
    let camera = std::thread::spawn(move || {
        let mut scene = SceneSimulation::new(SceneId::new(1), VideoConfig::default(), 42);
        let mut edge = EdgePipeline::new(
            EdgePipelineConfig::new(CameraId::new(1), SimDuration::from_millis(400)),
            ProxyExtractor::new(
                DetectorProxy::ssdlite_mobilenet_v2(),
                DetRng::new(42).fork("quickstart"),
            ),
        );
        for i in 0..10 {
            let frame = scene.next_frame();
            let out = edge.process(&frame);
            let now = clock.now();
            println!(
                "   frame {i}: {} RoIs -> {} patches ({} on the wire)",
                out.rois.len(),
                out.patches.len(),
                out.uploaded
            );
            for patch in out.patches {
                // Re-stamp generation time onto the runtime's wall clock.
                let info = PatchInfo {
                    generated_at: now,
                    ..patch.info
                };
                patches.send(info).expect("the host outlives the camera");
            }
            std::thread::sleep(Duration::from_millis(120));
        }
        // Hold the stream open until the last frame's batch has come due.
        std::thread::sleep(Duration::from_millis(500));
    });

    // The host loop: wait for the next patch, but never past the instant
    // `poll` asked to be called by.
    let mut streamed = Ledger::new();
    let mut fired_by_poll = 0;
    loop {
        let before = fired.borrow().len();
        let wake = runtime.poll();
        fired_by_poll += fired.borrow().len() - before;
        let wait = wake.map_or(Duration::MAX, |at| {
            Duration::from_micros(at.since(clock.now()).as_micros())
        });
        match arrivals.recv_timeout(wait) {
            Ok(patch) => {
                *streamed.entry(patch.id).or_default() += patch.rect.area();
                runtime.receive_patch(patch);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    camera.join().expect("the camera thread panicked");
    runtime.shutdown();

    let fired = fired.borrow();
    println!(
        "\nDone: {} batches dispatched — each fired at its t_remain = t_DDL − T_slack,\nnever by a tuned timeout.",
        fired.len()
    );
    let mut dispatched = Ledger::new();
    for patch in fired.iter().flat_map(|spec| &spec.patches) {
        *dispatched.entry(patch.id).or_default() += patch.rect.area();
    }
    if dispatched != streamed || fired_by_poll == 0 {
        eprintln!(
            "quickstart: {} patches streamed, {} dispatched (same pixels: {}), {fired_by_poll} batches fired by poll",
            streamed.len(),
            dispatched.len(),
            dispatched == streamed
        );
        std::process::exit(1);
    }
}
