//! The batching-policy abstraction shared by Tangram and every baseline.
//!
//! The end-to-end engine is identical for all compared systems — cameras,
//! uplink, serverless platform, cost and SLO accounting. A policy only
//! decides *what to dispatch when*, given patch arrivals and clock
//! ticks. This mirrors the paper's controlled comparison: differences in
//! Fig. 12 come solely from batching decisions.

use tangram_types::geometry::Size;
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};

/// A unit of work arriving at the cloud scheduler.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// One patch.
    Patch(Patch),
}

impl Arrival {
    /// The work item's metadata (identity, capture instant, SLO).
    #[must_use]
    pub fn info(&self) -> &PatchInfo {
        let Arrival::Patch(patch) = self;
        &patch.info
    }
}

/// A batch the policy wants executed.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Patches whose results this invocation produces (SLO accounting).
    pub patches: Vec<PatchInfo>,
    /// Number of model inputs (canvases / padded or letterboxed patches) —
    /// checked against the GPU-memory bound.
    pub inputs: usize,
    /// Total megapixels to execute.
    pub megapixels: f64,
    /// Canvas efficiencies, when the policy stitches (Tangram only).
    pub canvas_efficiencies: Vec<f64>,
}

impl BatchSpec {
    /// Number of patches bundled in the batch.
    #[must_use]
    pub fn patch_count(&self) -> usize {
        self.patches.len()
    }

    /// The earliest deadline across the batch.
    #[must_use]
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        self.patches.iter().map(PatchInfo::deadline).min()
    }
}

/// What a policy returns from an event handler.
#[derive(Debug, Default)]
pub struct PolicyOutput {
    /// Batches to dispatch now, in order.
    pub dispatches: Vec<BatchSpec>,
    /// When the policy wants `on_tick` called next (engine may coalesce).
    pub next_wake: Option<SimTime>,
    /// Work items the policy actually enqueued for this arrival, in the
    /// same unit `BatchSpec::patches` drains in (post-normalize: an
    /// oversized patch tiled 4-ways accepts 4). Only meaningful from
    /// `on_arrival`; the engine's queue-depth signal counts it.
    pub accepted: usize,
}

impl PolicyOutput {
    /// Nothing to do.
    #[must_use]
    pub fn idle() -> Self {
        Self::default()
    }

    /// Dispatch one batch immediately.
    #[must_use]
    pub fn dispatch(batch: BatchSpec) -> Self {
        Self {
            dispatches: vec![batch],
            ..Self::default()
        }
    }

    /// Just a wake-up request.
    #[must_use]
    pub fn wake_at(at: SimTime) -> Self {
        Self {
            next_wake: Some(at),
            ..Self::default()
        }
    }

    /// Stamps how many work items this arrival enqueued (builder style).
    #[must_use]
    pub fn accepted(mut self, items: usize) -> Self {
        self.accepted = items;
        self
    }
}

/// Feedback after a batch finishes (Clipper's AIMD uses it).
#[derive(Debug, Clone, Copy)]
pub struct CompletionFeedback {
    /// When the batch finished executing.
    pub finished: SimTime,
    /// Pure execution time.
    pub execution: SimDuration,
    /// How many of the batch's patches missed their SLO.
    pub violations: usize,
    /// Batch size (inputs).
    pub inputs: usize,
}

/// A batching policy under evaluation.
pub trait BatchingPolicy {
    /// Fresh ingress load signals, observed just before the arrivals they
    /// accompany. The default ignores them; admission-aware policies
    /// (e.g. [`crate::scheduler::TangramScheduler`] with
    /// [`crate::scheduler::SchedulerConfig::admission_aware`] set) fold
    /// the backend's predicted drain into their invoke-now-vs-wait
    /// decision.
    fn on_signals(&mut self, _now: SimTime, _signals: &crate::admission::AdmissionSignals) {}

    /// A work item arrived at the scheduler.
    fn on_arrival(&mut self, now: SimTime, arrival: Arrival) -> PolicyOutput;

    /// A requested wake-up fired (possibly stale — policies must re-check
    /// their own state).
    fn on_tick(&mut self, now: SimTime) -> PolicyOutput;

    /// A previously dispatched batch completed.
    fn on_completion(&mut self, _now: SimTime, _feedback: CompletionFeedback) -> PolicyOutput {
        PolicyOutput::idle()
    }

    /// The run is ending: dispatch whatever is still queued.
    fn flush(&mut self, now: SimTime) -> PolicyOutput;
}

/// Helper: megapixels of `n` model inputs padded to `canvas`.
#[must_use]
pub fn padded_inputs_megapixels(n: usize, canvas: Size) -> f64 {
    n as f64 * canvas.megapixels()
}

pub mod baselines;

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{CameraId, FrameId, PatchId};

    fn patch_info(id: u64, deadline_us: u64) -> PatchInfo {
        PatchInfo::new(
            PatchId::new(id),
            CameraId::new(0),
            FrameId::new(0),
            Rect::new(0, 0, 100, 100),
            SimTime::from_micros(deadline_us.saturating_sub(1_000_000)),
            SimDuration::from_secs(1),
        )
    }

    #[test]
    fn batch_spec_earliest_deadline() {
        let spec = BatchSpec {
            patches: vec![patch_info(1, 5_000_000), patch_info(2, 3_000_000)],
            inputs: 1,
            megapixels: 1.0,
            canvas_efficiencies: vec![],
        };
        assert_eq!(
            spec.earliest_deadline(),
            Some(SimTime::from_micros(3_000_000))
        );
        assert_eq!(spec.patch_count(), 2);
    }

    #[test]
    fn policy_output_constructors() {
        assert!(PolicyOutput::idle().dispatches.is_empty());
        let wake = PolicyOutput::wake_at(SimTime::from_micros(5));
        assert_eq!(wake.next_wake, Some(SimTime::from_micros(5)));
        let spec = BatchSpec {
            patches: vec![],
            inputs: 0,
            megapixels: 0.0,
            canvas_efficiencies: vec![],
        };
        assert_eq!(PolicyOutput::dispatch(spec).dispatches.len(), 1);
        assert_eq!(PolicyOutput::idle().accepted, 0);
        assert_eq!(PolicyOutput::idle().accepted(3).accepted, 3);
        assert_eq!(
            PolicyOutput::wake_at(SimTime::from_micros(5))
                .accepted(1)
                .accepted,
            1
        );
    }

    #[test]
    fn padded_inputs_scale() {
        let mpx = padded_inputs_megapixels(3, Size::CANVAS_1024);
        assert!((mpx - 3.0 * 1.048_576).abs() < 1e-9);
    }
}
