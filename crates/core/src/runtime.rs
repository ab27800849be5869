//! Live (threaded, wall-clock) runtime exposing the paper's API.
//!
//! §IV of the paper describes the deployment interface:
//!
//! ```text
//! class Tangram(canvas_size)
//! 1. def receive_patch(patch)
//! 2. def invoke(canvases)
//! ```
//!
//! [`LiveTangram`] provides exactly that: patches stream in from any
//! thread via [`LiveTangram::receive_patch`]; a background invoker thread
//! watches the scheduler's `t_remain` and calls the user's `invoke`
//! callback with the batch at the right moment. The scheduler state
//! machine is shared with the simulation (`TangramScheduler`), so the
//! batching behaviour is identical in both worlds.

use crate::policy::BatchSpec;
use crate::scheduler::{SchedulerConfig, TangramScheduler};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tangram_infer::estimator::LatencyEstimator;
use tangram_types::patch::PatchInfo;
use tangram_types::time::SimTime;

/// Callback invoked with each dispatched batch (the paper's
/// `invoke(canvases)`).
pub type InvokeFn = dyn FnMut(BatchSpec) + Send;

enum Command {
    Patch(PatchInfo),
    Flush,
    Shutdown,
}

struct Worker {
    scheduler: TangramScheduler,
    receiver: Receiver<Command>,
    invoke: Box<InvokeFn>,
    epoch: Instant,
}

impl Worker {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn fire_all(&mut self, specs: Vec<BatchSpec>) {
        for spec in specs {
            if !spec.patches.is_empty() {
                (self.invoke)(spec);
            }
        }
    }

    fn run(mut self) {
        loop {
            // Wait for a command, but never past the armed invoke-by.
            let received = match self.scheduler.invoke_by() {
                Some(t) => {
                    let wait = Duration::from_micros(t.since(self.now()).as_micros());
                    match self.receiver.recv_timeout(wait) {
                        Ok(cmd) => Some(cmd),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            // Producer gone: honour the pending timer, then
                            // exit.
                            let remaining = t.since(self.now());
                            if !remaining.is_zero() {
                                std::thread::sleep(Duration::from_micros(remaining.as_micros()));
                            }
                            let out = self.scheduler.drain();
                            self.fire_all(out.dispatches);
                            return;
                        }
                    }
                }
                None => match self.receiver.recv() {
                    Ok(cmd) => Some(cmd),
                    Err(_) => {
                        let out = self.scheduler.drain();
                        self.fire_all(out.dispatches);
                        return;
                    }
                },
            };
            let now = self.now();
            match received {
                Some(Command::Patch(p)) => {
                    let out = self.scheduler.on_patch(now, p);
                    self.fire_all(out.dispatches);
                }
                Some(Command::Flush) => {
                    let out = self.scheduler.drain();
                    self.fire_all(out.dispatches);
                }
                Some(Command::Shutdown) => {
                    let out = self.scheduler.drain();
                    self.fire_all(out.dispatches);
                    return;
                }
                None => {
                    // Timer fired.
                    let out = self.scheduler.on_timer(now);
                    self.fire_all(out.dispatches);
                }
            }
        }
    }
}

/// The live Tangram runtime.
pub struct LiveTangram {
    sender: Sender<Command>,
    worker: Option<JoinHandle<()>>,
}

impl LiveTangram {
    /// Starts the runtime with a scheduler configuration, a profiled
    /// latency estimator, and the invoke callback.
    #[must_use]
    pub fn start(
        config: SchedulerConfig,
        estimator: LatencyEstimator,
        invoke: Box<InvokeFn>,
    ) -> Self {
        let (sender, receiver) = unbounded();
        let worker_state = Worker {
            scheduler: TangramScheduler::new(config, estimator),
            receiver,
            invoke,
            epoch: Instant::now(),
        };
        let worker = std::thread::spawn(move || worker_state.run());
        Self {
            sender,
            worker: Some(worker),
        }
    }

    /// The paper's `receive_patch`: hand one patch to the scheduler.
    ///
    /// The patch's `generated_at` should be stamped by the caller (the
    /// edge) on the runtime's clock; its SLO countdown is already running.
    pub fn receive_patch(&self, patch: PatchInfo) {
        let _ = self.sender.send(Command::Patch(patch));
    }

    /// Forces everything queued to dispatch now.
    pub fn flush(&self) {
        let _ = self.sender.send(Command::Flush);
    }

    /// Stops the runtime, flushing pending patches.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(w) = self.worker.take() {
            let _ = self.sender.send(Command::Shutdown);
            let _ = w.join();
        }
    }
}

impl Drop for LiveTangram {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tangram_infer::latency::InferenceLatencyModel;
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

    fn patch(id: u64, generated: SimTime, slo_ms: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, 400, 300),
            generated,
            SimDuration::from_millis(slo_ms),
        )
    }

    #[test]
    fn live_runtime_dispatches_on_deadline() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_clone = Arc::clone(&fired);
        let batches: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let batches_clone = Arc::clone(&batches);
        let runtime = LiveTangram::start(
            SchedulerConfig::paper_default(),
            estimator(),
            Box::new(move |spec| {
                fired_clone.fetch_add(1, Ordering::SeqCst);
                batches_clone.lock().push(spec.patch_count());
            }),
        );
        // Two patches with ~350 ms budget: the invoker must fire on its
        // own before the deadline.
        runtime.receive_patch(patch(1, SimTime::ZERO, 350));
        runtime.receive_patch(patch(2, SimTime::ZERO, 350));
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "one batch, fired by timer");
        assert_eq!(batches.lock()[0], 2, "both patches in the batch");
        runtime.shutdown();
    }

    #[test]
    fn shutdown_flushes_pending() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_clone = Arc::clone(&fired);
        let runtime = LiveTangram::start(
            SchedulerConfig::paper_default(),
            estimator(),
            Box::new(move |_| {
                fired_clone.fetch_add(1, Ordering::SeqCst);
            }),
        );
        // Long SLO: would not fire for seconds — shutdown must flush.
        runtime.receive_patch(patch(1, SimTime::ZERO, 60_000));
        std::thread::sleep(Duration::from_millis(50));
        runtime.shutdown();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn explicit_flush_dispatches() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_clone = Arc::clone(&fired);
        let runtime = LiveTangram::start(
            SchedulerConfig::paper_default(),
            estimator(),
            Box::new(move |_| {
                fired_clone.fetch_add(1, Ordering::SeqCst);
            }),
        );
        runtime.receive_patch(patch(1, SimTime::ZERO, 60_000));
        runtime.flush();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        runtime.shutdown();
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let runtime = LiveTangram::start(
            SchedulerConfig::paper_default(),
            estimator(),
            Box::new(|_| {}),
        );
        runtime.receive_patch(patch(1, SimTime::ZERO, 60_000));
        drop(runtime); // must not hang or panic
    }
}
