//! The benchmark's own tests: `BENCHMARK.json` matches the metric tables
//! and stays within the contract's limits, and a down-scaled run of every
//! workload emits every declared metric exactly once, passes its output
//! checks and lands in its declared regime.

use std::collections::BTreeMap;
use tangram_benchmark::metrics::{manifest_json, END_TO_END, PER_LAYER, WORKLOADS};
use tangram_benchmark::workload::{RunResult, Scale};
use tangram_benchmark::{measure, Pass};
use tangram_harness::json::Json;

fn name_ok(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(allowed)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn unit_ok(unit: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(allowed)
}

fn keys(object: &Json) -> Vec<&str> {
    match object {
        Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_tables_and_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        text,
        manifest_json(),
        "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
    );
    assert!(text.len() <= 64 * 1024);

    let doc = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&run_seconds));

    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    let end_to_end = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    let per_layer = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    // The driver makes 4 + 22 x workloads runs inside 3420 s.
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(runs * (run_seconds + 12) < 3420, "{runs} runs do not fit");

    let mut names: BTreeMap<String, u32> = BTreeMap::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        *names
            .entry(w.get("name").and_then(Json::as_str).unwrap().into())
            .or_default() += 1;
    }
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(unit_ok(m.get("unit").and_then(Json::as_str).unwrap()));
        let better = m.get("better").and_then(Json::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
        *names
            .entry(m.get("name").and_then(Json::as_str).unwrap().into())
            .or_default() += 1;
    }
    for (name, uses) in &names {
        assert!(name_ok(name), "bad name {name:?}");
        assert_eq!(*uses, 1, "{name} is used more than once");
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

fn reading(result: &RunResult, metric: &str) -> f64 {
    let mut found = result.metrics.iter().filter(|(name, _, _)| *name == metric);
    let (_, _, q) = found
        .next()
        .unwrap_or_else(|| panic!("{metric} not emitted"));
    assert!(found.next().is_none(), "{metric} emitted twice");
    q.median
}

/// One test, so the workloads run one after another: the allocator
/// counters are process-wide, and timings on a shared core mean little.
#[test]
fn every_workload_emits_every_declared_metric_in_its_regime() {
    let scale = Scale(0.03);
    for (workload, _) in WORKLOADS {
        let quick = Pass::EndToEnd {
            seconds: 0.0,
            min_repetitions: 2,
        };
        let (end_to_end, _) = measure(workload, scale, 7, quick).expect("declared");
        assert!(end_to_end.correct, "{workload}: {:?}", end_to_end.errors);
        assert!(end_to_end.attempted >= 1 && end_to_end.failed == 0);
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let emitted: Vec<&str> = end_to_end.metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(emitted, declared, "{workload}");
        for (name, _, q) in &end_to_end.metrics {
            assert!(
                q.median.is_finite() && q.median > 0.0,
                "{workload}/{name} = {}",
                q.median
            );
        }

        let (per_layer, spans) = measure(workload, scale, 7, Pass::PerLayer).expect("declared");
        assert!(per_layer.correct, "{workload}: {:?}", per_layer.errors);
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        let emitted: Vec<&str> = per_layer.metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(emitted, declared, "{workload}");
        for (name, _, q) in &per_layer.metrics {
            assert!(q.median.is_finite(), "{workload}/{name}");
        }
        let spans = spans.expect("the staged pass returns its spans").to_jsonl();
        assert!(spans.lines().count() > 3, "{workload}: spans recorded");
        assert!(
            spans.lines().all(|l| Json::parse(l).is_ok()),
            "{workload}: span lines parse"
        );

        let layer = |metric: &str| reading(&per_layer, metric);
        let shed_pct = 100.0 - reading(&end_to_end, "sim_completed_pct");
        let ingress = matches!(workload, "overload-fair" | "overload-traced");
        assert_eq!(
            layer("trace.sink.records") > 0.0,
            workload == "overload-traced"
        );
        assert_eq!(layer("core.admission.calls") > 0.0, ingress, "{workload}");
        assert_eq!(layer("core.fairness.enqueues") > 0.0, ingress, "{workload}");
        assert_eq!(layer("core.admission.verdict_mismatches"), 0.0);
        match workload {
            "city-wide" => assert!(layer("core.scheduler.patches_per_batch") >= 20.0),
            "link-saturated" => {
                assert!(layer("core.scheduler.patches_per_batch") <= 1.5);
                assert!(layer("net.link.utilisation") > 0.9);
            }
            "overload-fair" => assert!((30.0..=60.0).contains(&shed_pct), "shed {shed_pct}%"),
            "overload-traced" => assert!(layer("trace.log.bytes") > 0.0),
            "edge-gmm" => {
                let vision = layer("vision.gmm.busy_s")
                    + layer("vision.mask.busy_s")
                    + layer("vision.cc.busy_s")
                    + layer("vision.extractor.busy_s");
                assert!(
                    vision >= 0.8 * layer("core.workload.build_s"),
                    "vision {vision} s"
                );
            }
            "paper-sweep" => {
                assert_eq!(layer("harness.pool.cells"), 600.0);
                assert!(
                    layer("core.policy.elf.cost_usd_per_kpatch") > layer("sim.cost_usd_per_kpatch")
                );
            }
            other => panic!("undeclared workload {other}"),
        }
    }
}
