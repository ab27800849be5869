//! The streaming refactor's central contract: replaying a recorded trace
//! through the event-driven [`tangram_core::online::OnlineEngine`]
//! produces a `RunSummary` digest identical to the legacy batch entry
//! point (`EngineConfig::run`), for every policy — and streaming runs
//! themselves are bit-for-bit reproducible.

use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::online::{
    ArrivalProcess, GeneratedSource, OnlineEngine, Plan, TraceReplaySource,
};
use tangram_core::report::RunSummary;
use tangram_core::workload::{CameraTrace, TraceConfig};
use tangram_sim::rng::DetRng;
use tangram_types::ids::SceneId;
use tangram_types::time::{SimDuration, SimTime};

const ALL_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Tangram,
    PolicyKind::Clipper,
    PolicyKind::Elf,
    PolicyKind::Mark,
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
            Box::new(TraceReplaySource::new(trace)),
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

/// FNV-1a over a summary's `Debug` rendering: every field, floats in
/// their shortest round-trip spelling.
fn digest(summary: &RunSummary) -> u64 {
    format!("{summary:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every policy's summary on the two-trace fixture is held here by
/// value: frames, patches, batches, violations, uplink bytes, cost and
/// p99 latency, then a digest of every field.
#[test]
fn every_policys_summary_is_pinned_by_value() {
    type Pin = (PolicyKind, [u64; 5], f64, f64, u64);
    const PINNED: [Pin; 4] = [
        (
            PolicyKind::Tangram,
            [20, 175, 7, 0, 10_541_499],
            0.001_927_431_200_000_000_4,
            0.932_936,
            0x5fbe_331b_99c4_1260,
        ),
        (
            PolicyKind::Clipper,
            [20, 171, 29, 7, 10_541_499],
            0.006_868_234_000_000_001,
            1.000_113,
            0x24ce_608c_2125_f91b,
        ),
        (
            PolicyKind::Elf,
            [20, 171, 171, 129, 96_883_839],
            0.006_035_986_200_000_002,
            2.327_632,
            0x2da3_f827_372d_b4d7,
        ),
        (
            PolicyKind::Mark,
            [20, 171, 19, 11, 10_541_499],
            0.006_724_435_640_000_001,
            1.004_782,
            0x79e4_46e3_a507_8172,
        ),
    ];
    let traces = traces();
    for (policy, counts, cost_usd, p99_latency_s, pinned) in PINNED {
        let s = config(policy).run(&traces).summarize();
        let name = policy.name();
        assert_eq!(
            [s.frames, s.patches, s.batches, s.violations, s.uplink_bytes],
            counts,
            "{name}"
        );
        assert_eq!(s.cost_usd.to_bits(), cost_usd.to_bits(), "{name}: {s:?}");
        assert_eq!(
            s.p99_latency_s.to_bits(),
            p99_latency_s.to_bits(),
            "{name}: {s:?}"
        );
        assert_eq!(digest(&s), pinned, "{name}: {s:?}");
    }
}
