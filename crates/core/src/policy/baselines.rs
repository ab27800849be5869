//! The paper's comparison systems that run on the engine (§V-A).
//!
//! * **ELF** — [`ElfPolicy`]: every patch is one immediate request,
//!   letterboxed to a minimum input ([`ELF_MIN_INPUT_MEGAPIXELS`]);
//! * **Clipper** — dynamic batch sizing via additive-increase /
//!   multiplicative-decrease on the SLO feedback, patches padded to
//!   uniform model inputs;
//! * **MArk** — maximum batch size plus a timeout from the first queued
//!   patch, patches padded to uniform inputs.
//!
//! Clipper and MArk batch *requests* (one patch per model input, padded to
//! the canvas resolution); only Tangram stitches multiple patches into one
//! input, which is exactly the wedge the paper's Fig. 12 isolates. Full
//! Frame and Masked Frame upload whole frames and never batch, so the
//! reproduction prices them per frame from the trace (Figs. 8 and 9)
//! rather than through the engine.

use crate::policy::{
    padded_inputs_megapixels, Arrival, BatchSpec, BatchingPolicy, CompletionFeedback, PolicyOutput,
    Spares,
};
use tangram_types::geometry::Size;
use tangram_types::patch::PatchInfo;
use tangram_types::time::{SimDuration, SimTime};

/// The model input Clipper and MArk resize or pad every patch to.
const INPUT_SIZE: Size = Size::CANVAS_1024;

/// Clipper's estimated execution headroom per queued input when checking
/// the safety valve (a coarse, Clipper-style latency budget).
const CLIPPER_PER_INPUT_BUDGET: SimDuration = SimDuration::from_millis(60);

/// ELF's minimum model input: tiny crops are letterboxed to 320×320, so
/// every request pays a realistic minimum resolution.
pub const ELF_MIN_INPUT_MEGAPIXELS: f64 = 0.1024;

/// ELF: one immediate request per patch, no batching, billed at the
/// patch's area raised to [`ELF_MIN_INPUT_MEGAPIXELS`].
#[derive(Debug, Default)]
pub struct ElfPolicy {
    spares: Spares,
}

impl BatchingPolicy for ElfPolicy {
    fn on_arrival(&mut self, _now: SimTime, arrival: Arrival) -> PolicyOutput {
        let Arrival::Patch(p) = arrival;
        let area = p.info.rect.area() as f64 / 1.0e6;
        let mut spec = self.spares.take(1);
        spec.patches.push(p.info);
        spec.inputs = 1;
        spec.megapixels = area.max(ELF_MIN_INPUT_MEGAPIXELS);
        PolicyOutput::dispatch(spec)
    }

    /// Every patch dispatches as it arrives: nothing ever stands.
    fn queue_len(&self) -> usize {
        0
    }

    fn on_tick(&mut self, _now: SimTime) -> PolicyOutput {
        PolicyOutput::idle()
    }

    fn flush(&mut self, _now: SimTime) -> PolicyOutput {
        PolicyOutput::idle()
    }

    fn recycle(&mut self, spec: BatchSpec) {
        self.spares.put(spec);
    }
}

/// Clipper's adaptive batching: AIMD on the batch size, dispatch whenever
/// the queue reaches the current target, with an SLO safety valve on the
/// oldest queued patch.
#[derive(Debug)]
pub struct ClipperPolicy {
    /// Upper bound on the batch size (the platform's GPU limit).
    max_batch: usize,
    batch_size: usize,
    queue: Vec<PatchInfo>,
    spares: Spares,
}

impl ClipperPolicy {
    /// Creates the policy with the paper's serving setup.
    #[must_use]
    pub fn new(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            batch_size: 1,
            queue: Vec::new(),
            spares: Spares::default(),
        }
    }

    /// Current AIMD batch-size target (diagnostics).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    fn take_batch(&mut self, n: usize) -> BatchSpec {
        let n = n.min(self.queue.len());
        let mut spec = self.spares.take(n);
        spec.patches.extend(self.queue.drain(..n));
        spec.inputs = n;
        spec.megapixels = padded_inputs_megapixels(n, INPUT_SIZE);
        spec
    }

    fn safety_deadline(&self, queued: usize) -> SimDuration {
        // Conservative execution estimate for the queue as one batch.
        CLIPPER_PER_INPUT_BUDGET * queued.max(1) as u64
    }
}

impl BatchingPolicy for ClipperPolicy {
    fn on_arrival(&mut self, now: SimTime, arrival: Arrival) -> PolicyOutput {
        let Arrival::Patch(p) = arrival;
        self.queue.push(p.info);
        let mut out = PolicyOutput::idle();
        if self.queue.len() >= self.batch_size {
            let n = self.batch_size;
            out.dispatches.push(self.take_batch(n));
        }
        // Safety valve: if the oldest patch would bust its SLO waiting for
        // a full batch, flush what we have.
        if let Some(oldest) = self.queue.first() {
            let needed = self.safety_deadline(self.queue.len());
            if oldest.remaining_budget(now) <= needed {
                let len = self.queue.len();
                out.dispatches.push(self.take_batch(len));
            } else {
                out.next_wake = Some(oldest.deadline() - needed);
            }
        }
        out
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn on_tick(&mut self, now: SimTime) -> PolicyOutput {
        let Some(oldest) = self.queue.first() else {
            return PolicyOutput::idle();
        };
        let needed = self.safety_deadline(self.queue.len());
        if oldest.remaining_budget(now) <= needed {
            let len = self.queue.len();
            PolicyOutput::dispatch(self.take_batch(len))
        } else {
            PolicyOutput::wake_at(oldest.deadline() - needed)
        }
    }

    fn on_completion(&mut self, _now: SimTime, feedback: CompletionFeedback) -> PolicyOutput {
        if feedback.violations > 0 {
            // Multiplicative decrease.
            self.batch_size = (self.batch_size / 2).max(1);
        } else {
            // Additive increase.
            self.batch_size = (self.batch_size + 1).min(self.max_batch);
        }
        PolicyOutput::idle()
    }

    fn flush(&mut self, _now: SimTime) -> PolicyOutput {
        if self.queue.is_empty() {
            return PolicyOutput::idle();
        }
        let len = self.queue.len();
        PolicyOutput::dispatch(self.take_batch(len))
    }

    fn recycle(&mut self, spec: BatchSpec) {
        self.spares.put(spec);
    }
}

/// MArk's batching: a maximum batch size plus a timeout measured from the
/// first patch in the queue.
#[derive(Debug)]
pub struct MarkPolicy {
    /// Batch size cap.
    max_batch: usize,
    /// Timeout from the first queued patch.
    timeout: SimDuration,
    queue: Vec<PatchInfo>,
    first_arrival: Option<SimTime>,
    spares: Spares,
}

impl MarkPolicy {
    /// Creates the policy; the paper "sets an appropriate timeout for
    /// each bandwidth setting" — callers pick it per experiment.
    #[must_use]
    pub fn new(max_batch: usize, timeout: SimDuration) -> Self {
        Self {
            max_batch: max_batch.max(1),
            timeout,
            queue: Vec::new(),
            first_arrival: None,
            spares: Spares::default(),
        }
    }

    fn take_all(&mut self) -> BatchSpec {
        self.first_arrival = None;
        let n = self.queue.len();
        let mut spec = self.spares.take(0);
        std::mem::swap(&mut spec.patches, &mut self.queue);
        spec.inputs = n;
        spec.megapixels = padded_inputs_megapixels(n, INPUT_SIZE);
        spec
    }
}

impl BatchingPolicy for MarkPolicy {
    fn on_arrival(&mut self, now: SimTime, arrival: Arrival) -> PolicyOutput {
        let Arrival::Patch(p) = arrival;
        if self.queue.is_empty() {
            self.first_arrival = Some(now);
        }
        self.queue.push(p.info);
        if self.queue.len() >= self.max_batch {
            return PolicyOutput::dispatch(self.take_all());
        }
        let deadline = self.first_arrival.expect("queue non-empty") + self.timeout;
        if now >= deadline {
            PolicyOutput::dispatch(self.take_all())
        } else {
            PolicyOutput::wake_at(deadline)
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn on_tick(&mut self, now: SimTime) -> PolicyOutput {
        match self.first_arrival {
            Some(first) if now >= first + self.timeout && !self.queue.is_empty() => {
                PolicyOutput::dispatch(self.take_all())
            }
            Some(first) => PolicyOutput::wake_at(first + self.timeout),
            None => PolicyOutput::idle(),
        }
    }

    fn flush(&mut self, _now: SimTime) -> PolicyOutput {
        if self.queue.is_empty() {
            return PolicyOutput::idle();
        }
        PolicyOutput::dispatch(self.take_all())
    }

    fn recycle(&mut self, spec: BatchSpec) {
        self.spares.put(spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::patch::Patch;
    use tangram_types::units::Bytes;

    fn patch(id: u64, gen_ms: u64, slo_ms: u64) -> Patch {
        Patch::new(
            PatchInfo::new(
                PatchId::new(id),
                CameraId::new(0),
                FrameId::new(0),
                Rect::new(0, 0, 400, 300),
                SimTime::from_micros(gen_ms * 1000),
                SimDuration::from_millis(slo_ms),
            ),
            Bytes::from_kib(40),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    #[test]
    fn elf_one_request_per_patch() {
        let mut p = ElfPolicy::default();
        let a = p.on_arrival(t(0), Arrival::Patch(patch(1, 0, 1000)));
        let b = p.on_arrival(t(1), Arrival::Patch(patch(2, 1, 1000)));
        assert_eq!(a.dispatches.len() + b.dispatches.len(), 2);
        // 400×300 = 0.12 Mpx, above the letterbox minimum.
        assert!((a.dispatches[0].megapixels - 0.12).abs() < 1e-9);
    }

    #[test]
    fn elf_pads_tiny_patches() {
        let mut p = ElfPolicy::default();
        let tiny = Patch::new(
            PatchInfo::new(
                PatchId::new(1),
                CameraId::new(0),
                FrameId::new(0),
                Rect::new(0, 0, 50, 50),
                SimTime::ZERO,
                SimDuration::from_secs(1),
            ),
            Bytes::from_kib(4),
        );
        let out = p.on_arrival(t(0), Arrival::Patch(tiny));
        assert!((out.dispatches[0].megapixels - ELF_MIN_INPUT_MEGAPIXELS).abs() < 1e-9);
    }

    #[test]
    fn clipper_waits_for_batch_then_dispatches() {
        let mut p = ClipperPolicy::new(8);
        // Grow the target first: a completed batch without violations.
        let _ = p.on_completion(
            t(0),
            CompletionFeedback {
                finished: t(0),
                execution: SimDuration::from_millis(50),
                violations: 0,
                inputs: 1,
            },
        );
        assert_eq!(p.batch_size(), 2);
        let out1 = p.on_arrival(t(0), Arrival::Patch(patch(1, 0, 2000)));
        assert!(out1.dispatches.is_empty(), "waiting for a second patch");
        let out2 = p.on_arrival(t(5), Arrival::Patch(patch(2, 5, 2000)));
        assert_eq!(out2.dispatches.len(), 1);
        assert_eq!(out2.dispatches[0].inputs, 2);
    }

    #[test]
    fn clipper_aimd_shrinks_on_violation() {
        let mut p = ClipperPolicy::new(8);
        for _ in 0..5 {
            let _ = p.on_completion(
                t(0),
                CompletionFeedback {
                    finished: t(0),
                    execution: SimDuration::from_millis(50),
                    violations: 0,
                    inputs: 1,
                },
            );
        }
        assert_eq!(p.batch_size(), 6);
        let _ = p.on_completion(
            t(0),
            CompletionFeedback {
                finished: t(0),
                execution: SimDuration::from_millis(500),
                violations: 2,
                inputs: 6,
            },
        );
        assert_eq!(p.batch_size(), 3, "multiplicative decrease");
    }

    #[test]
    fn clipper_safety_valve_fires_near_deadline() {
        let mut p = ClipperPolicy::new(8);
        for _ in 0..5 {
            let _ = p.on_completion(
                t(0),
                CompletionFeedback {
                    finished: t(0),
                    execution: SimDuration::from_millis(50),
                    violations: 0,
                    inputs: 1,
                },
            );
        }
        // One patch with little budget left: ticking near its deadline
        // must flush even though the batch target is 6.
        let _ = p.on_arrival(t(0), Arrival::Patch(patch(1, 0, 300)));
        let out = p.on_tick(t(250));
        assert_eq!(out.dispatches.len(), 1);
        assert_eq!(out.dispatches[0].inputs, 1);
    }

    #[test]
    fn mark_timeout_flushes() {
        let mut p = MarkPolicy::new(8, SimDuration::from_millis(200));
        let out = p.on_arrival(t(0), Arrival::Patch(patch(1, 0, 2000)));
        assert!(out.dispatches.is_empty());
        assert_eq!(out.next_wake, Some(t(200)));
        let fired = p.on_tick(t(200));
        assert_eq!(fired.dispatches.len(), 1);
        assert_eq!(fired.dispatches[0].inputs, 1);
    }

    #[test]
    fn mark_batch_size_flushes_without_timeout() {
        let mut p = MarkPolicy::new(3, SimDuration::from_secs(10));
        let _ = p.on_arrival(t(0), Arrival::Patch(patch(1, 0, 60_000)));
        let _ = p.on_arrival(t(1), Arrival::Patch(patch(2, 1, 60_000)));
        let out = p.on_arrival(t(2), Arrival::Patch(patch(3, 2, 60_000)));
        assert_eq!(out.dispatches.len(), 1);
        assert_eq!(out.dispatches[0].inputs, 3);
    }

    #[test]
    fn flush_empties_queues() {
        let mut clipper = ClipperPolicy::new(8);
        // Raise the AIMD target so an arrival stays queued.
        let _ = clipper.on_completion(
            t(0),
            CompletionFeedback {
                finished: t(0),
                execution: SimDuration::from_millis(50),
                violations: 0,
                inputs: 1,
            },
        );
        let _ = clipper.on_arrival(t(0), Arrival::Patch(patch(1, 0, 60_000)));
        assert_eq!(clipper.flush(t(1)).dispatches.len(), 1);
        assert!(clipper.flush(t(2)).dispatches.is_empty());

        let mut mark = MarkPolicy::new(8, SimDuration::from_secs(1));
        let _ = mark.on_arrival(t(0), Arrival::Patch(patch(1, 0, 60_000)));
        assert_eq!(mark.flush(t(1)).dispatches.len(), 1);
    }

    #[test]
    fn padded_inputs_cost_full_canvases() {
        let mut p = MarkPolicy::new(2, SimDuration::from_secs(1));
        let _ = p.on_arrival(t(0), Arrival::Patch(patch(1, 0, 60_000)));
        let out = p.on_arrival(t(1), Arrival::Patch(patch(2, 1, 60_000)));
        let mpx = out.dispatches[0].megapixels;
        // Two padded 1024² inputs, even though the patches are small: this
        // is the waste Tangram's stitching removes.
        assert!((mpx - 2.0 * 1.048_576).abs() < 1e-9);
    }
}
