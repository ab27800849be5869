//! The streaming refactor's central contract: replaying a recorded trace
//! through the event-driven [`tangram_core::online::OnlineEngine`]
//! produces a `RunSummary` digest identical to the legacy batch entry
//! point (`EngineConfig::run`), for every policy — and streaming runs
//! themselves are bit-for-bit reproducible.

use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::online::{
    ArrivalProcess, GeneratedSource, OnlineEngine, Plan, TraceReplaySource,
};
use tangram_core::workload::{CameraTrace, TraceConfig};
use tangram_sim::rng::DetRng;
use tangram_types::ids::SceneId;
use tangram_types::time::{SimDuration, SimTime};

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Tangram,
    PolicyKind::Clipper,
    PolicyKind::Elf,
    PolicyKind::Mark,
    PolicyKind::FullFrame,
    PolicyKind::MaskedFrame,
];

fn traces() -> Vec<CameraTrace> {
    vec![
        TraceConfig::proxy_extractor(SceneId::new(1), 10, 7).build(),
        TraceConfig::proxy_extractor(SceneId::new(2), 10, 8).build(),
    ]
}

fn config(policy: PolicyKind) -> EngineConfig {
    EngineConfig {
        policy,
        seed: 7,
        ..EngineConfig::default()
    }
}

/// Mounts `traces` on an [`OnlineEngine`] exactly as the batch entry
/// point does: one replay source per trace, staggered 1 ms apart.
fn run_streamed(cfg: &EngineConfig, traces: &[CameraTrace]) -> tangram_core::RunReport {
    let mut engine = OnlineEngine::new(cfg, Plan::default());
    for (cam, trace) in traces.iter().enumerate() {
        engine.add_camera_at(
            SimTime::ZERO + SimDuration::from_millis(cam as u64),
            Box::new(TraceReplaySource::new(trace.clone())),
        );
    }
    engine.run().0
}

#[test]
fn replay_digest_matches_batch_path_for_every_policy() {
    let traces = traces();
    for policy in ALL_POLICIES {
        let cfg = config(policy);
        let batch = cfg.run(&traces).summarize();
        let streamed = run_streamed(&cfg, &traces).summarize();
        assert_eq!(
            batch,
            streamed,
            "{}: event-loop replay must reproduce the batch digest",
            policy.name()
        );
    }
}

#[test]
fn streaming_runs_are_reproducible_per_seed() {
    let trace = TraceConfig::proxy_extractor(SceneId::new(3), 6, 5).build();
    for policy in [PolicyKind::Tangram, PolicyKind::Clipper] {
        let run = |seed: u64| {
            let cfg = EngineConfig {
                policy,
                seed,
                ..EngineConfig::default()
            };
            let mut engine = OnlineEngine::new(&cfg, Plan::default());
            for cam in 0..2u64 {
                engine.add_camera_at(
                    SimTime::ZERO + SimDuration::from_millis(cam),
                    Box::new(GeneratedSource::new(
                        &trace,
                        15,
                        ArrivalProcess::Poisson { fps: 8.0 },
                        DetRng::new(seed).fork_indexed("determinism", cam),
                    )),
                );
            }
            engine.run().0.summarize()
        };
        assert_eq!(run(7), run(7), "{}: same seed, same digest", policy.name());
    }
}
