//! Workspace-level guarantees of the experiment harness: a parallel
//! sweep is bit-for-bit identical to a sequential one, and the
//! `BENCH_*.json` schema round-trips losslessly.

use tangram_core::engine::PolicyKind;
use tangram_harness::{run_grid, BenchReport, SweepGrid, TraceKind, WorkloadSpec};
use tangram_types::ids::SceneId;

/// A two-axis grid (policy × bandwidth) over one small proxy workload —
/// big enough to exercise batching, small enough for a debug-build test.
fn two_axis_grid() -> SweepGrid {
    let mut grid = SweepGrid::named("determinism");
    grid.policies = vec![PolicyKind::Tangram, PolicyKind::Clipper];
    grid.seeds = vec![42];
    grid.slos_s = vec![1.0];
    grid.bandwidths_mbps = vec![20.0, 40.0];
    grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 8, TraceKind::Proxy)];
    grid
}

#[test]
fn one_worker_and_many_workers_agree_exactly() {
    let grid = two_axis_grid();
    let sequential = run_grid(&grid, 1);
    let parallel = run_grid(&grid, 4);
    // Structural equality…
    assert_eq!(sequential, parallel);
    // …and byte equality of the serialized artifact, which is what the
    // CI gate ultimately compares.
    assert_eq!(sequential.to_json(), parallel.to_json());
}

#[test]
fn report_json_round_trips() {
    let grid = two_axis_grid();
    let report = run_grid(&grid, 2);
    assert_eq!(report.cells.len(), grid.cell_count());

    let text = report.to_json();
    let parsed = BenchReport::from_json(&text).expect("valid BENCH json");
    // Lossless: name, grid echo (every axis) and cells, metrics included.
    assert_eq!(parsed, report);
    // Serialisation is a fixed point: render(parse(x)) == x.
    assert_eq!(parsed.to_json(), text);
}

#[test]
fn reruns_are_reproducible() {
    let grid = two_axis_grid();
    let first = run_grid(&grid, 3);
    let second = run_grid(&grid, 2);
    assert_eq!(first.to_json(), second.to_json());
}

#[test]
fn churn_scenario_grid_is_parallel_deterministic() {
    // The streaming path (open-loop arrivals, camera churn, tenant SLO
    // mix) must hold the same guarantee as trace replay: any worker
    // count, byte-identical BENCH json — and it must round-trip,
    // scenario block included.
    let mut grid = tangram_harness::presets::churn_grid(42, 40);
    // Shorten the sessions so churn is guaranteed to bite: ~6 fps for
    // 3 s ≈ 18 frames per camera, well under the 40-frame budget (and
    // cheap enough for a debug-build test).
    grid.scenarios[0].session_s = Some(3.0);
    let sequential = run_grid(&grid, 1);
    let parallel = run_grid(&grid, 4);
    assert_eq!(sequential.to_json(), parallel.to_json());

    let parsed = BenchReport::from_json(&sequential.to_json()).expect("valid BENCH json");
    assert_eq!(parsed, sequential);
    assert_eq!(parsed.to_json(), sequential.to_json());
    // Churn truncates: every camera leaves before reaching its budget,
    // so strictly fewer frames complete than cameras × budget.
    let cameras = grid.workloads[0].scenes.len() as u64;
    for cell in &parsed.cells {
        assert!(cell.metrics.frames > 0);
        assert!(
            cell.metrics.frames < cameras * 40,
            "cell {}: CameraLeave must cut streams short ({} frames)",
            cell.index,
            cell.metrics.frames
        );
    }
}

#[test]
fn overload_grid_is_parallel_deterministic_and_sheds_under_slo_shedder() {
    // The overload sweep (scenario axis × admission axis) must hold the
    // worker-count guarantee like every other grid — and its whole point
    // is that shedding is *visible*: the SLO-shedder cells past the
    // capacity knee record non-zero drops, per tenant class, in the
    // serialized report.
    let grid = tangram_harness::presets::overload_grid(42, 12, true);
    assert_eq!(
        grid.cell_count(),
        grid.scenarios.len() * grid.admission.len()
    );
    let sequential = run_grid(&grid, 1);
    let parallel = run_grid(&grid, 4);
    assert_eq!(sequential.to_json(), parallel.to_json());

    let parsed = BenchReport::from_json(&sequential.to_json()).expect("valid BENCH json");
    assert_eq!(parsed, sequential);
    assert_eq!(parsed.to_json(), sequential.to_json());

    // A cell names its admission policy by index into the grid's axis.
    let admission = |cell: &tangram_harness::CellReport| {
        cell.admission
            .map(|i| grid.admission[i as usize].kind())
            .expect("every overload cell runs an admission policy")
    };
    for cell in &parsed.cells {
        // Both swept axes are stamped on every cell.
        assert!(cell.scenario.is_some(), "cell {}", cell.index);
        assert!(cell.admission.is_some(), "cell {}", cell.index);
        // Gold and best-effort are accounted separately.
        assert_eq!(cell.metrics.tenants.len(), 2, "cell {}", cell.index);
        let drops: u64 = cell.metrics.tenants.iter().map(|t| t.dropped).sum();
        assert_eq!(
            drops, cell.metrics.dropped_arrivals,
            "cell {}: per-class drops must sum to the total",
            cell.index
        );
        if admission(cell) == "always" {
            assert_eq!(cell.metrics.dropped_arrivals, 0, "cell {}", cell.index);
        }
    }
    // The overloaded SLO-shedder cell sheds — and the drops are visible.
    let shed: Vec<_> = parsed
        .cells
        .iter()
        .filter(|c| admission(c) == "slo-shedder")
        .collect();
    assert!(
        shed.iter().any(|c| c.metrics.dropped_arrivals > 0),
        "the overload ramp must push the shedder past its threshold"
    );
}

#[test]
fn fairness_grid_is_parallel_deterministic_and_holds_weighted_shares() {
    // The fairness sweep (scenario axis × fairness axis) is what
    // `repro ext_fairness --quick` runs: `--workers N` output must be
    // byte-identical to `--workers 1`, the fairness block must round-trip,
    // and the 2×-overload cell must show the weighted-DRR property —
    // overflow sheds on both classes while the *admitted* mix tracks the
    // 3:1 weights instead of collapsing to one class.
    let grid = tangram_harness::presets::fairness_grid(42, 48, true);
    assert_eq!(grid.cell_count(), grid.scenarios.len());
    let sequential = run_grid(&grid, 1);
    let parallel = run_grid(&grid, 4);
    assert_eq!(sequential.to_json(), parallel.to_json());

    let parsed = BenchReport::from_json(&sequential.to_json()).expect("valid BENCH json");
    assert_eq!(parsed, sequential);
    assert_eq!(parsed.to_json(), sequential.to_json());

    for cell in &parsed.cells {
        assert_eq!(cell.fairness, Some(0), "cell {}", cell.index);
        assert_eq!(cell.metrics.tenants.len(), 2, "cell {}", cell.index);
        let drops: u64 = cell.metrics.tenants.iter().map(|t| t.dropped).sum();
        assert_eq!(
            drops, cell.metrics.dropped_arrivals,
            "cell {}: per-class sheds must sum to the total",
            cell.index
        );
        // Queue-depth accounting reaches the serialized report.
        assert!(
            cell.metrics.tenants.iter().any(|t| t.peak_queued > 0),
            "cell {}: ingress queue peaks recorded",
            cell.index
        );
        // Past the ingress knee both classes shed, yet the admitted mix
        // stays near the configured 3:1 ratio. The band is wider than the
        // weights alone would suggest because the DRR is work-conserving:
        // a transiently dry class donates its credit to the backlogged
        // one instead of idling the round.
        if cell.metrics.dropped_arrivals > 0 {
            let admitted: u64 = cell.metrics.tenants.iter().map(|t| t.admitted).sum();
            let gold = &cell.metrics.tenants[0];
            let share = gold.admitted as f64 / admitted as f64;
            assert!(
                (share - 0.75).abs() < 0.11,
                "cell {}: gold admitted share {share:.3}",
                cell.index
            );
        }
    }
    assert!(
        parsed.cells.iter().any(|c| c.metrics.dropped_arrivals > 0),
        "the ramp must cross the DRR ingress capacity"
    );
}

#[test]
fn sharded_scenario_grid_matches_the_single_shard_bytes() {
    // The sharded runtime is a pure execution strategy: a scenario grid
    // run at any shard count must serialize to the exact bytes of the
    // single-shard oracle — same digests, same drop accounting, same
    // grid echo. This is the workspace-level form of the guarantee
    // `repro ext_throughput` asserts per run.
    let mut grid = tangram_harness::presets::churn_grid(42, 24);
    grid.scenarios[0].session_s = Some(3.0);
    let oracle = run_grid(&grid, 2).to_json();
    for shards in [2, 8] {
        grid.shards = shards;
        let sharded = run_grid(&grid, 2).to_json();
        assert_eq!(sharded, oracle, "{shards} shards diverged from 1 shard");
    }
    // `shards` is execution-only: it must never leak into the artifact,
    // so baselines stay valid no matter how the producer was sharded.
    assert!(!oracle.contains("\"shards\""));
}

#[test]
fn minimum_credit_window_grid_matches_the_oracle_bytes() {
    // CREDIT_WINDOW = 1 is the most adversarial legal window: every
    // shard capture blocks until the coordinator returns its one
    // credit, so the merge interleaving is maximally serialized — the
    // exact regime the model checker's `credit s* w1` rows explore.
    // The end-to-end guarantee must not depend on the window: a grid
    // run with the window pinned to 1 serializes to the same bytes as
    // the default-window run, at every shard count. `credit_window` is
    // execution-only (like `shards`), so it must never reach the
    // artifact either.
    let mut grid = tangram_harness::presets::churn_grid(42, 24);
    grid.scenarios[0].session_s = Some(3.0);
    let oracle = run_grid(&grid, 2).to_json();
    grid.credit_window = Some(1);
    for shards in [1, 2, 8] {
        grid.shards = shards;
        let starved = run_grid(&grid, 2).to_json();
        assert_eq!(
            starved, oracle,
            "window 1 at {shards} shard(s) diverged from the default window"
        );
    }
    assert!(!oracle.contains("\"credit_window\""));
}

#[test]
fn faulted_scenario_grid_matches_the_single_shard_bytes() {
    // Fault injection must not weaken the sharding guarantee: a scenario
    // carrying declarative fault windows (a brownout across most of the
    // run, a link outage inside it) serializes to the exact bytes of the
    // single-shard oracle at any shard count — the faulted form of
    // `sharded_scenario_grid_matches_the_single_shard_bytes`, and the
    // workspace-level mirror of what `repro ext_scenarios` asserts per run.
    use tangram_core::{FaultKind, FaultSpec};
    let mut grid = tangram_harness::presets::churn_grid(42, 24);
    grid.scenarios[0].session_s = Some(3.0);
    grid.scenarios[0].faults = vec![
        FaultSpec {
            kind: FaultKind::Brownout { factor: 2.0 },
            at_s: 0.5,
            duration_s: 3.0,
        },
        FaultSpec {
            kind: FaultKind::LinkOutage,
            at_s: 1.0,
            duration_s: 0.5,
        },
    ];
    let oracle = run_grid(&grid, 2).to_json();
    for shards in [2, 8] {
        grid.shards = shards;
        let sharded = run_grid(&grid, 2).to_json();
        assert_eq!(sharded, oracle, "{shards} shards diverged under faults");
    }
    // The fault schedule is part of the artifact: it must round-trip with
    // the grid echo.
    let parsed = BenchReport::from_json(&oracle).expect("valid BENCH json");
    assert_eq!(parsed.grid, tangram_harness::report::grid_to_value(&grid));
    assert!(oracle.contains("\"faults\""));
    assert!(oracle.contains("\"brownout\""));
}

#[test]
fn replay_and_single_scenario_grids_write_the_one_shape() {
    // Schema v5 has one shape: every grid echoes all three optional
    // axes as arrays, empty when unswept, and every cell names its
    // coordinate on each — an index, or `null` off the axis. A grid
    // without scenarios is no special case, and neither is a grid with
    // exactly one.
    let plain = run_grid(&two_axis_grid(), 2).to_json();
    for axis in ["\"scenarios\": []", "\"admission\": []", "\"fairness\": []"] {
        assert!(plain.contains(axis), "{axis}");
    }
    let parsed = BenchReport::from_json(&plain).expect("valid BENCH json");
    for cell in &parsed.cells {
        assert_eq!(
            (cell.scenario, cell.admission, cell.fairness),
            (None, None, None)
        );
    }
    assert_eq!(
        plain.matches("\"scenario\": null").count(),
        parsed.cells.len()
    );

    let single = run_grid(&tangram_harness::presets::churn_grid(42, 6), 2).to_json();
    assert!(single.contains("\"scenarios\": [\n"));
    assert!(!single.contains("\"scenario\": {"));
    assert!(single.contains("\"faults\": []"));
    let parsed = BenchReport::from_json(&single).expect("valid BENCH json");
    for cell in &parsed.cells {
        assert_eq!(cell.scenario, Some(0));
        assert_eq!(cell.admission, None);
    }
}
