//! The execute stage: the serverless platform, and the fault windows
//! actuated at its submit boundary.

use super::Outbox;
use crate::engine::EngineConfig;
use crate::faults::{FaultPlane, FaultSpec};
use crate::policy::{BatchSpec, CompletionFeedback};
use tangram_serverless::platform::{InvocationOutcome, InvocationRequest, ServerlessPlatform};
use tangram_trace::TraceEvent;
use tangram_types::ids::InvocationId;
use tangram_types::time::SimTime;

/// The [`ServerlessPlatform`] under the run's [`FaultPlane`].
pub(crate) struct Execute {
    pub(super) platform: ServerlessPlatform,
    pub(super) faults: FaultPlane,
    pub(super) completions: u64,
}

impl Execute {
    /// The platform `config` describes, under the fault windows `faults`
    /// (randomized ones draw from dedicated forks of the engine seed).
    pub(crate) fn new(config: &EngineConfig, faults: Vec<FaultSpec>) -> Self {
        let mut platform = ServerlessPlatform::new(
            config.function_spec.clone(),
            config.latency_model.clone(),
            config.seed,
        )
        .with_prices(config.prices);
        platform.max_instances = config.max_instances;
        Self {
            platform,
            faults: FaultPlane::install(config.seed, faults),
            completions: 0,
        }
    }

    /// Submits `spec` at `now` as the run's `batch`-th dispatch, recorded
    /// first. Every policy sizes its batches within the function's GPU
    /// bound, so a batch beyond it is a policy bug and panics here rather
    /// than being billed as a smaller one. Faults actuate here: brownouts
    /// inflate the sampled execution (factor 1.0 is the byte-identical
    /// no-op), a cold-start storm keeps the warm pool dead, and latency
    /// tails delay result delivery — folded into `finished` — without
    /// occupying the instance.
    pub(crate) fn on_dispatch(
        &mut self,
        now: SimTime,
        batch: usize,
        spec: &BatchSpec,
        out: &mut Outbox,
    ) -> InvocationOutcome {
        out.emit(
            now,
            TraceEvent::BatchDispatch {
                batch: batch as u64,
                patches: spec.patches.len() as u64,
                inputs: spec.inputs as u64,
                megapixels_e6: (spec.megapixels * 1e6).round() as u64,
            },
        );
        let request = InvocationRequest {
            canvases: spec.inputs,
            megapixels: spec.megapixels,
            submitted: now,
        };
        self.platform
            .set_compute_factor(self.faults.brownout_factor(now));
        if self.faults.cold_storm_active(now) {
            let _ = self.platform.evict_idle(now);
        }
        let mut outcome = self
            .platform
            .submit(request)
            .expect("batch sized within the GPU bound");
        outcome.finished += self.faults.tail_delay(now, outcome.execution);
        outcome
    }

    /// Invocation `id` finished: acknowledged and recorded. Every
    /// completion event answers exactly one submit, so `id` is in flight.
    pub(crate) fn on_complete(
        &mut self,
        now: SimTime,
        id: InvocationId,
        feedback: &CompletionFeedback,
        out: &mut Outbox,
    ) {
        let acknowledged = self.platform.complete(id);
        debug_assert!(
            acknowledged,
            "completion of invocation {} which is not in flight",
            id.raw()
        );
        self.completions += 1;
        out.emit(
            now,
            TraceEvent::FunctionComplete {
                invocation: id.raw(),
                inputs: feedback.inputs as u64,
                violations: feedback.violations as u64,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A doubled `FunctionComplete` is an engine bug, not a second
    /// completion to count and trace.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "which is not in flight")]
    fn acknowledging_an_invocation_twice_is_caught() {
        let mut execute = Execute::new(&EngineConfig::default(), Vec::new());
        let mut out = Outbox::new(false);
        let spec = BatchSpec {
            patches: Vec::new(),
            inputs: 1,
            megapixels: 1.0,
            canvas_efficiencies: Vec::new(),
        };
        let outcome = execute.on_dispatch(SimTime::ZERO, 0, &spec, &mut out);
        let feedback = CompletionFeedback {
            finished: outcome.finished,
            execution: outcome.execution,
            violations: 0,
            inputs: 1,
        };
        execute.on_complete(outcome.finished, outcome.id, &feedback, &mut out);
        assert_eq!(execute.completions, 1);
        execute.on_complete(outcome.finished, outcome.id, &feedback, &mut out);
    }

    /// A batch over the GPU bound reaches the platform as it is and is
    /// refused there, not clamped and billed as a smaller one.
    #[test]
    #[should_panic(expected = "batch sized within the GPU bound")]
    fn a_batch_over_the_gpu_bound_is_refused() {
        let config = EngineConfig::default();
        let mut execute = Execute::new(&config, Vec::new());
        let inputs = config.function_spec.max_canvases() + 1;
        let spec = BatchSpec {
            patches: Vec::new(),
            inputs,
            megapixels: inputs as f64,
            canvas_efficiencies: Vec::new(),
        };
        let _ = execute.on_dispatch(SimTime::ZERO, 0, &spec, &mut Outbox::new(false));
    }
}
