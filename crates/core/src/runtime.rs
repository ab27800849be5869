//! Live runtime exposing the paper's API.
//!
//! §IV of the paper describes the deployment interface:
//!
//! ```text
//! class Tangram(canvas_size)
//! 1. def receive_patch(patch)
//! 2. def invoke(canvases)
//! ```
//!
//! [`LiveTangram`] provides exactly that, and it is the engine's own batch
//! stage (`online::batch`) around a [`TangramScheduler`], read off an
//! injected [`Clock`] instead of an event queue — so the batching
//! behaviour, wake-up bookkeeping included, is the simulation's. It is
//! synchronous and owns neither a thread nor a timer: the host hands it
//! patches as they arrive and calls [`LiveTangram::poll`] by the instant
//! the previous `poll` returned. Real time lives in the host:
//! `examples/quickstart.rs` paces that loop with a wall clock, tests
//! with a `ManualClock`.

use crate::online::batch::Batch;
use crate::policy::{Arrival, BatchSpec, PolicyOutput};
use crate::scheduler::{SchedulerConfig, TangramScheduler};
use tangram_infer::estimator::LatencyEstimator;
use tangram_sim::clock::Clock;
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::SimTime;
use tangram_types::units::Bytes;

/// Callback invoked with each dispatched batch (the paper's
/// `invoke(canvases)`).
pub type InvokeFn = dyn FnMut(BatchSpec);

/// The live Tangram runtime.
pub struct LiveTangram<C: Clock> {
    batch: Batch,
    clock: C,
    invoke: Box<InvokeFn>,
}

impl<C: Clock> LiveTangram<C> {
    /// Starts the runtime with a scheduler configuration, a profiled
    /// latency estimator, the clock every instant is read from, and the
    /// invoke callback.
    #[must_use]
    pub fn start(
        config: SchedulerConfig,
        estimator: LatencyEstimator,
        clock: C,
        invoke: Box<InvokeFn>,
    ) -> Self {
        let scheduler = TangramScheduler::new(config, estimator);
        Self {
            batch: Batch::with_policy(Box::new(scheduler), false),
            clock,
            invoke,
        }
    }

    /// The paper's `receive_patch`: hand one patch to the scheduler, which
    /// may invoke at once (SLO already at risk, or GPU memory full).
    ///
    /// The patch's `generated_at` should be stamped by the caller (the
    /// edge) on the runtime's clock; its SLO countdown is already running.
    pub fn receive_patch(&mut self, patch: PatchInfo) {
        let arrival = Arrival::Patch(Patch::new(patch, Bytes::ZERO));
        self.step(|batch, now| batch.policy.on_arrival(now, arrival));
    }

    /// Invokes the pending batch if the clock has reached its invoke-by
    /// instant, and returns the instant the host must call `poll` by next
    /// (`None`: not before the next patch).
    pub fn poll(&mut self) -> Option<SimTime> {
        self.step(Batch::on_timer);
        self.batch.armed()
    }

    /// Forces everything queued to dispatch now.
    pub fn flush(&mut self) {
        self.step(Batch::flush);
    }

    /// Stops the runtime, flushing pending patches (as dropping it does).
    pub fn shutdown(self) {}

    /// Hands the stage one event at the clock's instant and acts on what
    /// it returns the way the engine does: dispatches first, then the
    /// wake-up.
    fn step(&mut self, event: impl FnOnce(&mut Batch, SimTime) -> PolicyOutput) {
        let now = self.clock.now();
        let output = event(&mut self.batch, now);
        for spec in output.dispatches {
            if !spec.patches.is_empty() {
                (self.invoke)(spec);
            }
        }
        // The armed slot is the only timer a polled host has, so there is
        // nothing to schedule with the instant `arm` returns.
        let _ = self.batch.arm(now, output.next_wake);
    }
}

impl<C: Clock> Drop for LiveTangram<C> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use tangram_infer::latency::InferenceLatencyModel;
    use tangram_sim::clock::ManualClock;
    use tangram_types::geometry::{Rect, Size};
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::time::SimDuration;

    fn estimator() -> LatencyEstimator {
        LatencyEstimator::paper_default(
            &InferenceLatencyModel::rtx4090_yolov8x(),
            Size::CANVAS_1024,
            9,
        )
    }

    fn patch(id: u64, slo_ms: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, 400, 300),
            SimTime::ZERO,
            SimDuration::from_millis(slo_ms),
        )
    }

    /// A runtime on `clock` and the patch count of every batch it fired.
    fn runtime(clock: &ManualClock) -> (LiveTangram<ManualClock>, Rc<RefCell<Vec<usize>>>) {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&fired);
        let runtime = LiveTangram::start(
            SchedulerConfig::paper_default(),
            estimator(),
            clock.clone(),
            Box::new(move |spec| sink.borrow_mut().push(spec.patch_count())),
        );
        (runtime, fired)
    }

    #[test]
    fn live_runtime_dispatches_on_deadline() {
        let clock = ManualClock::new();
        let (mut runtime, fired) = runtime(&clock);
        let mut bare = TangramScheduler::new(SchedulerConfig::paper_default(), estimator());
        // Two patches with a 350 ms budget: `poll` must fire them at the
        // scheduler's invoke-by instant, not a microsecond earlier.
        for id in [1, 2] {
            runtime.receive_patch(patch(id, 350));
            let _ = bare.on_patch(SimTime::ZERO, patch(id, 350));
        }
        let invoke_by = bare.invoke_by().expect("a batch is pending");
        assert!(invoke_by < patch(1, 350).deadline());
        assert_eq!(runtime.poll(), Some(invoke_by));
        clock.advance_to(invoke_by - SimDuration::from_micros(1));
        assert_eq!(runtime.poll(), Some(invoke_by));
        assert!(fired.borrow().is_empty(), "fired before invoke-by");
        clock.advance_to(invoke_by);
        assert_eq!(runtime.poll(), None, "nothing left to wake up for");
        assert_eq!(*fired.borrow(), [2], "one batch, both patches in it");
    }

    #[test]
    fn shutdown_flushes_pending() {
        let (mut runtime, fired) = runtime(&ManualClock::new());
        // Long SLO: would not fire for seconds — shutdown must flush.
        runtime.receive_patch(patch(1, 60_000));
        assert!(fired.borrow().is_empty());
        runtime.shutdown();
        assert_eq!(*fired.borrow(), [1]);
    }

    #[test]
    fn explicit_flush_dispatches() {
        let (mut runtime, fired) = runtime(&ManualClock::new());
        runtime.receive_patch(patch(1, 60_000));
        runtime.flush();
        assert_eq!(*fired.borrow(), [1]);
        assert_eq!(runtime.poll(), None, "a flushed queue owes no wake-up");
        // Nothing is left for a second flush, nor for the drop.
        runtime.flush();
        drop(runtime);
        assert_eq!(*fired.borrow(), [1]);
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let (mut runtime, fired) = runtime(&ManualClock::new());
        runtime.receive_patch(patch(1, 60_000));
        drop(runtime);
        assert_eq!(*fired.borrow(), [1], "dropping flushes, once");
    }
}
