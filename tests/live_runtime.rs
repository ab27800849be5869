//! Integration tests of the live runtime on a `ManualClock`: the host
//! loop below is the one `examples/quickstart.rs` runs on a wall clock,
//! with "wait until" replaced by "advance the clock to".

use std::cell::RefCell;
use std::rc::Rc;
use tangram_core::policy::BatchSpec;
use tangram_core::runtime::LiveTangram;
use tangram_core::scheduler::SchedulerConfig;
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_sim::clock::{Clock, ManualClock};
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};

fn estimator() -> LatencyEstimator {
    LatencyEstimator::paper_default(
        &InferenceLatencyModel::rtx4090_yolov8x(),
        Size::CANVAS_1024,
        9,
    )
}

fn patch(id: u64, generated: SimTime, slo_ms: u64, side: u32) -> PatchInfo {
    PatchInfo::new(
        PatchId::new(id),
        CameraId::new(0),
        FrameId::new(id / 8),
        Rect::new(0, 0, side, side),
        generated,
        SimDuration::from_millis(slo_ms),
    )
}

/// Every batch the runtime fired, with the instant it fired at.
type Fired = Rc<RefCell<Vec<(SimTime, BatchSpec)>>>;

fn runtime(clock: &ManualClock) -> (LiveTangram<ManualClock>, Fired) {
    let fired = Fired::default();
    let (sink, now) = (Rc::clone(&fired), clock.clone());
    let runtime = LiveTangram::start(
        SchedulerConfig::paper_default(),
        estimator(),
        clock.clone(),
        Box::new(move |spec| sink.borrow_mut().push((now.now(), spec))),
    );
    (runtime, fired)
}

#[test]
fn batches_fire_before_their_deadlines() {
    let clock = ManualClock::new();
    let (mut runtime, fired) = runtime(&clock);
    // Indices into `fired` of the batches a `poll` fired.
    let mut by_poll = Vec::new();
    // The host's step: wait until `wake`, poll, learn the next wake-up.
    let mut poll_at = |runtime: &mut LiveTangram<ManualClock>, wake: SimTime| {
        clock.advance_to(wake);
        let before = fired.borrow().len();
        let next = runtime.poll();
        by_poll.extend(before..fired.borrow().len());
        next
    };
    // 12 patches, 15 ms apart, 450 ms SLO; between arrivals the host
    // waits until the earlier of the next arrival and the armed wake-up.
    let mut wake = None;
    for i in 0..12u64 {
        let arrival = SimTime::from_micros(i * 15_000);
        while let Some(due) = wake.filter(|&due| due <= arrival) {
            wake = poll_at(&mut runtime, due);
        }
        clock.advance_to(arrival);
        runtime.receive_patch(patch(i, arrival, 450, 280));
        wake = runtime.poll();
    }
    while let Some(due) = wake {
        wake = poll_at(&mut runtime, due);
    }
    runtime.shutdown();

    let fired = fired.borrow();
    let mut ids: Vec<u64> = fired
        .iter()
        .flat_map(|(_, spec)| spec.patches.iter().map(|p| p.id.raw()))
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..12).collect::<Vec<_>>(),
        "every patch dispatched exactly once"
    );
    for (at, spec) in fired.iter() {
        let deadline = spec.earliest_deadline().expect("non-empty batch");
        assert!(
            *at <= deadline,
            "batch fired at {at}, after its deadline {deadline}"
        );
    }
    // A batch fired by `poll` fired at the scheduler's invoke-by instant
    // t_remain = t_DDL − T_slack, to the microsecond.
    assert!(!by_poll.is_empty(), "the timer must have fired a batch");
    let estimator = estimator();
    for &i in &by_poll {
        let (at, spec) = &fired[i];
        let deadline = spec.earliest_deadline().expect("non-empty batch");
        assert_eq!(*at, deadline - estimator.slack_for(spec.inputs));
    }
}

#[test]
fn gpu_bound_respected_under_burst() {
    let clock = ManualClock::new();
    let (mut runtime, fired) = runtime(&clock);
    // A burst of 15 huge patches (one canvas each): the 9-canvas GPU bound
    // must split them across invocations.
    for i in 0..15u64 {
        runtime.receive_patch(patch(i, SimTime::ZERO, 60_000, 1000));
    }
    runtime.shutdown();
    let inputs: Vec<usize> = fired.borrow().iter().map(|(_, spec)| spec.inputs).collect();
    assert!(
        inputs.iter().all(|&n| n <= 9),
        "batch exceeded GPU bound: {inputs:?}"
    );
    assert_eq!(inputs.iter().sum::<usize>(), 15);
}
