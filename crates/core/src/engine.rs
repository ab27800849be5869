//! The end-to-end engine configuration and batch entry point.
//!
//! Composition: cameras replay their traces (closed-loop paced by the
//! shared uplink, like the paper's "bandwidth simulates the arrival speed
//! of patches"), the edge adds its processing delay, messages serialise
//! over the FIFO link, the policy batches arrivals, the serverless
//! platform executes, and every patch's end-to-end latency is checked
//! against its SLO.
//!
//! The loop itself lives in [`crate::online::OnlineEngine`]:
//! [`EngineConfig::replay`] mounts one
//! [`crate::online::TraceReplaySource`] per trace on it, so batch replay
//! and live streaming share one code path, and [`EngineConfig::run`] is
//! that replay under the default [`Plan`].
//!
//! The engine is identical for every policy — Fig. 12's differences come
//! exclusively from batching decisions.

use crate::online::{OnlineEngine, Plan, TraceReplaySource};
use crate::policy::baselines::{ClipperPolicy, ElfPolicy, MarkPolicy};
use crate::policy::BatchingPolicy;
use crate::report::RunReport;
use crate::scheduler::{SchedulerConfig, TangramScheduler};
use crate::workload::CameraTrace;
use tangram_infer::estimator::LatencyEstimator;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_serverless::function::FunctionSpec;
use tangram_serverless::pricing::ResourcePrices;
use tangram_trace::TraceLog;
use tangram_types::geometry::Size;
use tangram_types::time::{SimDuration, SimTime};

/// Which policy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The paper's scheduler.
    Tangram,
    /// Clipper-style AIMD batching.
    Clipper,
    /// One request per patch.
    Elf,
    /// MArk-style batch + timeout.
    Mark,
}

impl PolicyKind {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Tangram => "Tangram",
            PolicyKind::Clipper => "Clipper",
            PolicyKind::Elf => "ELF",
            PolicyKind::Mark => "MArk",
        }
    }
}

/// Full configuration of one end-to-end run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Policy under test.
    pub policy: PolicyKind,
    /// SLO stamped on every patch.
    pub slo: SimDuration,
    /// Uplink bandwidth in Mbps (the paper sweeps 20/40/80).
    pub bandwidth_mbps: f64,
    /// Upper bound on the camera frame rate; the effective rate is
    /// closed-loop: a camera captures its next frame only once the link
    /// has drained its previous one.
    pub max_fps: f64,
    /// Edge compute (partitioning + encoding) before upload.
    pub edge_delay: SimDuration,
    /// Inference latency profile.
    pub latency_model: InferenceLatencyModel,
    /// Serverless function resources.
    pub function_spec: FunctionSpec,
    /// Billing prices.
    pub prices: ResourcePrices,
    /// Canvas size for stitching/padding policies.
    pub canvas_size: Size,
    /// MArk's timeout (`None` → half the SLO, a sensible per-bandwidth
    /// default in the paper's spirit).
    pub mark_timeout: Option<SimDuration>,
    /// Estimator σ multiplier (the paper's k = 3; the slack ablation
    /// sweeps it).
    pub sigma_multiplier: f64,
    /// Physical instance cap of the backend (the paper's testbed runs two
    /// RTX 4090s; `None` = unlimited scale-out).
    pub max_instances: Option<usize>,
    /// Admission-aware Tangram scheduling: the scheduler reads the
    /// ingress load signals and will not dispatch before the backend's
    /// predicted earliest start (see
    /// [`crate::scheduler::SchedulerConfig::admission_aware`]). Off by
    /// default — legacy runs stay byte-identical.
    pub scheduler_admission_aware: bool,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::Tangram,
            slo: SimDuration::from_secs(1),
            bandwidth_mbps: 40.0,
            max_fps: 10.0,
            edge_delay: SimDuration::from_millis(15),
            latency_model: InferenceLatencyModel::rtx4090_yolov8x(),
            function_spec: FunctionSpec::paper_default(),
            prices: ResourcePrices::alibaba_fc(),
            canvas_size: Size::CANVAS_1024,
            mark_timeout: None,
            sigma_multiplier: 3.0,
            max_instances: Some(4),
            scheduler_admission_aware: false,
            seed: 1,
        }
    }
}

impl EngineConfig {
    /// Profiles the Tangram scheduler's [`LatencyEstimator`] offline
    /// (§III-C: 1,000 iterations per batch size, `µ + k·σ`). A pure
    /// function of the latency model, canvas, batch bound, σ multiplier
    /// and seed, so a sweep may profile it once per key and hand every
    /// cell on that key a copy ([`Plan::estimator`]).
    #[must_use]
    pub fn estimator(&self) -> LatencyEstimator {
        LatencyEstimator::profile(
            &self.latency_model,
            self.canvas_size,
            self.function_spec.max_canvases().max(1),
            1000,
            self.sigma_multiplier,
            self.seed ^ 0x51ac,
        )
    }

    /// Builds the policy instance for this configuration. Tangram takes
    /// `estimator` when given one and profiles [`EngineConfig::estimator`]
    /// otherwise; the other policies ignore it.
    pub(crate) fn build_policy(
        &self,
        estimator: Option<LatencyEstimator>,
    ) -> Box<dyn BatchingPolicy> {
        let max_batch = self.function_spec.max_canvases().max(1);
        match self.policy {
            PolicyKind::Tangram => Box::new(TangramScheduler::new(
                SchedulerConfig {
                    canvas_size: self.canvas_size,
                    max_canvases: max_batch,
                    admission_aware: self.scheduler_admission_aware,
                },
                estimator.unwrap_or_else(|| self.estimator()),
            )),
            PolicyKind::Clipper => Box::new(ClipperPolicy::new(max_batch)),
            PolicyKind::Elf => Box::new(ElfPolicy::default()),
            PolicyKind::Mark => Box::new(MarkPolicy::new(
                max_batch,
                self.mark_timeout.unwrap_or(self.slo / 2),
            )),
        }
    }

    /// Runs the engine over the given camera traces: the plan-less
    /// [`EngineConfig::replay`].
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn run(&self, traces: &[CameraTrace]) -> RunReport {
        self.replay(traces, Plan::default()).0
    }

    /// Replays `traces` under `plan`: one [`TraceReplaySource`] per trace
    /// on an [`OnlineEngine`], each reading its trace in place.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn replay(&self, traces: &[CameraTrace], plan: Plan) -> (RunReport, Option<TraceLog>) {
        assert!(!traces.is_empty(), "need at least one camera trace");
        let mut engine = OnlineEngine::new(self, plan);
        // Stagger camera starts slightly so multi-camera runs do not
        // synchronise artificially.
        for (cam, trace) in traces.iter().enumerate() {
            engine.add_camera_at(
                SimTime::from_micros(cam as u64 * 1_000),
                Box::new(TraceReplaySource::new(trace)),
            );
        }
        engine.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TraceConfig;
    use tangram_types::ids::SceneId;
    use tangram_video::codec::CodecModel;
    use tangram_video::scene::SceneProfile;

    fn trace(frames: usize) -> CameraTrace {
        TraceConfig::proxy_extractor(SceneId::new(1), frames, 7).build()
    }

    fn config(policy: PolicyKind) -> EngineConfig {
        EngineConfig {
            policy,
            slo: SimDuration::from_secs(1),
            bandwidth_mbps: 40.0,
            seed: 7,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn tangram_run_completes_all_patches() {
        let t = trace(15);
        let expected = t.patch_count();
        let report = config(PolicyKind::Tangram).run(&[t]);
        // Oversized patches may split into tiles, so >= expected.
        assert!(report.patches_completed() >= expected);
        assert_eq!(report.frames, 15);
        assert!(report.total_cost().get() > 0.0);
        assert!(!report.batches.is_empty());
    }

    #[test]
    fn tangram_batches_multiple_patches() {
        let report = config(PolicyKind::Tangram).run(&[trace(20)]);
        assert!(
            report.mean_patches_per_batch() > 2.0,
            "stitching should bundle patches: {}",
            report.mean_patches_per_batch()
        );
        assert!(!report.canvas_efficiencies().is_empty());
    }

    #[test]
    fn elf_never_batches() {
        let report = config(PolicyKind::Elf).run(&[trace(10)]);
        assert!(
            report.batches.iter().all(|b| b.patch_count == 1),
            "ELF is one request per patch"
        );
    }

    #[test]
    fn tangram_cheaper_than_elf() {
        let t = trace(25);
        let tangram = config(PolicyKind::Tangram).run(std::slice::from_ref(&t));
        let elf = config(PolicyKind::Elf).run(&[t]);
        assert!(
            tangram.total_cost() < elf.total_cost(),
            "tangram {} vs elf {}",
            tangram.total_cost(),
            elf.total_cost()
        );
    }

    #[test]
    fn tangram_violations_low_at_generous_slo() {
        let mut cfg = config(PolicyKind::Tangram);
        cfg.slo = SimDuration::from_secs_f64(1.5);
        let report = cfg.run(&[trace(25)]);
        assert!(
            report.slo_violation_rate() < 0.05,
            "violations {:.3}",
            report.slo_violation_rate()
        );
    }

    #[test]
    fn full_frame_uses_more_bandwidth_than_tangram() {
        // Full Frame is priced per frame from the scene's frame size
        // (Fig. 9's denominator); Tangram's bytes are what the engine
        // uploaded.
        let t = trace(10);
        let frame_size = SceneProfile::panda(t.scene).frame_size;
        let full = CodecModel.full_frame_bytes(frame_size).get() * t.frames.len() as u64;
        let tangram = config(PolicyKind::Tangram).run(&[t]);
        assert!(tangram.total_bytes().get() < full);
        assert_eq!(tangram.frames, 10);
    }

    #[test]
    fn clipper_and_mark_batch_but_pad() {
        let t = trace(20);
        let clipper = config(PolicyKind::Clipper).run(std::slice::from_ref(&t));
        let mark = config(PolicyKind::Mark).run(&[t]);
        assert!(clipper.mean_patches_per_batch() >= 1.0);
        assert!(mark.mean_patches_per_batch() >= 1.0);
        // Padded inputs: every input is a full canvas, so Mpx per input is
        // the canvas area.
        for b in clipper.batches.iter().chain(&mark.batches) {
            assert_eq!(b.patch_count, b.inputs);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = trace(12);
        let a = config(PolicyKind::Tangram).run(std::slice::from_ref(&t));
        let b = config(PolicyKind::Tangram).run(&[t]);
        assert_eq!(a.total_cost().get(), b.total_cost().get());
        assert_eq!(a.patches_completed(), b.patches_completed());
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn multi_camera_runs() {
        let t1 = TraceConfig::proxy_extractor(SceneId::new(1), 8, 1).build();
        let t2 = TraceConfig::proxy_extractor(SceneId::new(2), 8, 2).build();
        let report = config(PolicyKind::Tangram).run(&[t1, t2]);
        assert_eq!(report.frames, 16);
        let cams: std::collections::HashSet<u32> =
            report.patches.iter().map(|p| p.camera.raw()).collect();
        assert_eq!(cams.len(), 2, "both cameras contribute patches");
    }

    #[test]
    fn lower_bandwidth_increases_makespan() {
        let t = trace(10);
        let mut fast_cfg = config(PolicyKind::Tangram);
        fast_cfg.bandwidth_mbps = 80.0;
        let mut slow_cfg = config(PolicyKind::Tangram);
        slow_cfg.bandwidth_mbps = 20.0;
        let fast = fast_cfg.run(std::slice::from_ref(&t));
        let slow = slow_cfg.run(&[t]);
        assert!(slow.makespan >= fast.makespan);
        assert!(slow.transmission_busy > fast.transmission_busy || slow.makespan > fast.makespan);
    }
}
