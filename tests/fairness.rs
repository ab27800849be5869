//! Property tests for the weighted-DRR fair ingress: under a 2× Poisson
//! overload with 3:1 weights, the *admitted* per-class traffic mix must
//! track the configured weights — the whole point of fair shedding — and
//! it must do so for every root seed, not one lucky draw.

use tangram_core::engine::{EngineConfig, PolicyKind};
use tangram_core::fairness::{DrrConfig, DrrIngress};
use tangram_core::online::{ArrivalProcess, GeneratedSource, OnlineEngine, Plan, TenantClass};
use tangram_core::workload::TraceConfig;
use tangram_sim::rng::DetRng;
use tangram_types::ids::SceneId;
use tangram_types::time::{SimDuration, SimTime};

const GOLD_SLO: SimDuration = SimDuration::from_millis(800);
const BE_SLO: SimDuration = SimDuration::from_millis(1500);

/// Runs four cameras (two gold, two best-effort) at roughly twice the
/// DRR ingress service rate and returns the per-class admitted counts.
fn overloaded_run(root_seed: u64) -> (u64, u64) {
    let config = EngineConfig {
        policy: PolicyKind::Tangram,
        // Wide uplink: the fair ingress, not the link, must be the
        // bottleneck for the overload to land on the DRR stage.
        bandwidth_mbps: 400.0,
        seed: root_seed,
        ..EngineConfig::default()
    };
    let root = DetRng::new(root_seed);
    let plan = Plan {
        fair_ingress: Some(DrrIngress::new(&DrrConfig {
            classes: vec![(GOLD_SLO, 3.0), (BE_SLO, 1.0)],
            queue_capacity: 32,
            quantum: 1.0,
            tick: SimDuration::from_millis(20),
        })),
        ..Plan::default()
    };
    let mut engine = OnlineEngine::new(&config, plan);
    for cam in 0..4u8 {
        let tenant = if cam % 2 == 0 {
            TenantClass::new("gold", GOLD_SLO)
        } else {
            TenantClass::new("best-effort", BE_SLO)
        };
        let trace = TraceConfig::proxy_extractor(SceneId::new(1 + cam), 6, 7).build();
        // ~7.8 patches/frame × 4 cameras × 16 fps ≈ 500 patches/s offered
        // against the 200 item/s DRR service rate below — a sustained
        // ≥2× overload on both classes.
        let source = GeneratedSource::new(
            &trace,
            300,
            ArrivalProcess::Poisson { fps: 16.0 },
            root.fork_indexed("fairness-overload", u64::from(cam)),
        )
        .with_tenant(&tenant);
        engine.add_camera_at(SimTime::ZERO, Box::new(source));
    }
    let (report, _) = engine.run();
    let tenants = report.tenant_breakdown();
    assert_eq!(tenants.len(), 2, "gold and best-effort accounted");
    assert_eq!(
        report.dropped_arrivals,
        tenants.iter().map(|t| t.dropped).sum::<u64>(),
        "per-class sheds sum to the total"
    );
    assert!(
        tenants.iter().all(|t| t.dropped > 0),
        "2x overload must overflow both classes"
    );
    (tenants[0].admitted, tenants[1].admitted)
}

/// Work conservation, end to end: a DRR configured with an extra class
/// that never receives traffic must admit the active class's work at the
/// same throughput as the no-idle-class oracle (same total weight), to
/// within ±2% — the idle class's credit is redistributed each round, not
/// wasted on an empty queue.
#[test]
fn idle_class_credit_is_work_conserved_end_to_end() {
    let run = |classes: Vec<(SimDuration, f64)>| -> u64 {
        let config = EngineConfig {
            policy: PolicyKind::Tangram,
            bandwidth_mbps: 400.0,
            seed: 11,
            ..EngineConfig::default()
        };
        let root = DetRng::new(11);
        let plan = Plan {
            fair_ingress: Some(DrrIngress::new(&DrrConfig {
                classes,
                queue_capacity: 32,
                quantum: 1.0,
                tick: SimDuration::from_millis(20),
            })),
            ..Plan::default()
        };
        let mut engine = OnlineEngine::new(&config, plan);
        // Every camera is gold: the best-effort class (when configured)
        // stays idle for the whole run.
        for cam in 0..4u8 {
            let trace = TraceConfig::proxy_extractor(SceneId::new(1 + cam), 6, 7).build();
            let source = GeneratedSource::new(
                &trace,
                300,
                ArrivalProcess::Poisson { fps: 16.0 },
                root.fork_indexed("fairness-overload", u64::from(cam)),
            )
            .with_tenant(&TenantClass::new("gold", GOLD_SLO));
            engine.add_camera_at(SimTime::ZERO, Box::new(source));
        }
        let (report, _) = engine.run();
        let tenants = report.tenant_breakdown();
        tenants
            .iter()
            .find(|t| (t.slo_s - GOLD_SLO.as_secs_f64()).abs() < 1e-9)
            .expect("gold class accounted")
            .admitted
    };
    // 3+1 with the 1-weight class idle vs a single class holding the
    // full weight of 4: same arrivals, same per-round budget.
    let with_idle = run(vec![(GOLD_SLO, 3.0), (BE_SLO, 1.0)]);
    let oracle = run(vec![(GOLD_SLO, 4.0)]);
    assert!(with_idle > 0 && oracle > 0);
    let ratio = with_idle as f64 / oracle as f64;
    assert!(
        (ratio - 1.0).abs() <= 0.02,
        "idle-class credit must be redistributed: admitted {with_idle} vs oracle {oracle} \
         (ratio {ratio:.4})"
    );
}

#[test]
fn admitted_shares_track_drr_weights_across_seeds() {
    for root_seed in [11, 12, 13] {
        let (gold, be) = overloaded_run(root_seed);
        let total = (gold + be) as f64;
        let gold_share = gold as f64 / total;
        let be_share = be as f64 / total;
        // Weights 3:1 → target shares 0.75 / 0.25. The DRR is
        // work-conserving: whenever a class's queue transiently runs dry
        // its credit goes to the backlogged class instead of idling the
        // round, so admitted shares drift a few points off the pure
        // weight ratio — hence the band is wider than the weights alone
        // would suggest.
        assert!(
            (gold_share - 0.75).abs() <= 0.11,
            "seed {root_seed}: gold share {gold_share:.3} off the 3:1 weights"
        );
        assert!(
            (be_share - 0.25).abs() <= 0.11,
            "seed {root_seed}: best-effort share {be_share:.3} off the 3:1 weights"
        );
    }
}
