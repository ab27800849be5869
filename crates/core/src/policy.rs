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
#[derive(Debug, Clone, Default)]
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

/// The batches one policy call dispatches, in order. Nearly every call
/// dispatches none or one, so the first sits inline and only a second
/// (Tangram's `C_old` followed by a late patch alone, Clipper's safety
/// valve after a full batch) reaches the heap.
#[derive(Debug, Default)]
pub struct Dispatches {
    first: Option<BatchSpec>,
    rest: Vec<BatchSpec>,
}

impl Dispatches {
    /// Appends `batch` after every batch already pushed.
    pub fn push(&mut self, batch: BatchSpec) {
        if self.first.is_none() {
            self.first = Some(batch);
        } else {
            self.rest.push(batch);
        }
    }

    /// Number of batches.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// Whether no batch is dispatched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The batches in push order.
    pub fn iter(&self) -> impl Iterator<Item = &BatchSpec> {
        self.first.iter().chain(&self.rest)
    }

    /// Removes the last batch pushed.
    pub(crate) fn pop(&mut self) -> Option<BatchSpec> {
        self.rest.pop().or_else(|| self.first.take())
    }
}

/// The batches the engine handed back ([`BatchingPolicy::recycle`]),
/// their lists cleared: the buffers of the next batches a policy builds.
/// A call that dispatches two batches gets both back, so the pool is a
/// stack rather than one slot.
#[derive(Debug, Default)]
pub(crate) struct Spares(Dispatches);

impl Spares {
    /// The last spare, or a fresh spec with room for `patches`.
    pub(crate) fn take(&mut self, patches: usize) -> BatchSpec {
        self.0.pop().unwrap_or_else(|| BatchSpec {
            patches: Vec::with_capacity(patches),
            ..BatchSpec::default()
        })
    }

    /// Clears `spec`'s lists and keeps it for a later [`Spares::take`].
    pub(crate) fn put(&mut self, mut spec: BatchSpec) {
        spec.patches.clear();
        spec.canvas_efficiencies.clear();
        self.0.push(spec);
    }
}

impl std::ops::Index<usize> for Dispatches {
    type Output = BatchSpec;

    fn index(&self, index: usize) -> &BatchSpec {
        match index.checked_sub(1) {
            None => self.first.as_ref().expect("no batch dispatched"),
            Some(i) => &self.rest[i],
        }
    }
}

impl IntoIterator for Dispatches {
    type Item = BatchSpec;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<BatchSpec>, std::vec::IntoIter<BatchSpec>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// What a policy returns from an event handler.
#[derive(Debug, Default)]
pub struct PolicyOutput {
    /// Batches to dispatch now, in order.
    pub dispatches: Dispatches,
    /// When the policy wants `on_tick` called next (engine may coalesce).
    pub next_wake: Option<SimTime>,
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
        let mut out = Self::default();
        out.dispatches.push(batch);
        out
    }

    /// Just a wake-up request.
    #[must_use]
    pub fn wake_at(at: SimTime) -> Self {
        Self {
            next_wake: Some(at),
            ..Self::default()
        }
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

    /// The standing queue: work items held and not yet dispatched, in
    /// the unit [`BatchSpec::patches`] drains in (an oversized patch
    /// tiled 4-ways holds 4). Admission reads it through
    /// [`crate::admission::AdmissionSignals::queued`].
    fn queue_len(&self) -> usize;

    /// A requested wake-up fired (possibly stale — policies must re-check
    /// their own state).
    fn on_tick(&mut self, now: SimTime) -> PolicyOutput;

    /// The engine booked `spec` and hands it back: a policy may keep its
    /// buffers for the next batch it builds. The default drops it.
    fn recycle(&mut self, _spec: BatchSpec) {}

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
    }

    fn spec(inputs: usize) -> BatchSpec {
        BatchSpec {
            patches: vec![patch_info(inputs as u64, 1_000_000)],
            inputs,
            megapixels: 0.0,
            canvas_efficiencies: vec![],
        }
    }

    /// The first batch sits inline and the rest spill over; every view
    /// of the list keeps push order across the seam.
    #[test]
    fn dispatches_keep_push_order_across_the_inline_first() {
        let mut out = PolicyOutput::dispatch(spec(1));
        out.dispatches.push(spec(2));
        out.dispatches.push(spec(3));
        let list = &out.dispatches;
        assert_eq!((list.len(), list.is_empty()), (3, false));
        assert_eq!([list[0].inputs, list[1].inputs, list[2].inputs], [1, 2, 3]);
        let by_ref: Vec<usize> = list.iter().map(|b| b.inputs).collect();
        let owned: Vec<usize> = out.dispatches.into_iter().map(|b| b.inputs).collect();
        assert_eq!((by_ref, owned), (vec![1, 2, 3], vec![1, 2, 3]));

        let mut pushed = Dispatches::default();
        assert!(pushed.is_empty() && pushed.iter().next().is_none());
        for inputs in [4, 5, 6] {
            pushed.push(spec(inputs));
        }
        let ids: Vec<u64> = pushed.iter().map(|b| b.patches[0].id.raw()).collect();
        assert_eq!((pushed.len(), ids), (3, vec![4, 5, 6]));
        // Popping is last in, first out, across the seam too.
        let popped: Vec<usize> = std::iter::from_fn(|| pushed.pop().map(|b| b.inputs)).collect();
        assert_eq!((popped, pushed.is_empty()), (vec![6, 5, 4], true));
    }

    #[test]
    #[should_panic(expected = "no batch dispatched")]
    fn indexing_no_dispatches_panics() {
        let _ = &PolicyOutput::idle().dispatches[0];
    }

    #[test]
    fn padded_inputs_scale() {
        let mpx = padded_inputs_megapixels(3, Size::CANVAS_1024);
        assert!((mpx - 3.0 * 1.048_576).abs() < 1e-9);
    }
}
