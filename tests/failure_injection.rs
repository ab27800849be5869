//! Failure injection, declaratively: every fault kind in the
//! [`tangram_core::faults`] axis is exercised through a scenario file —
//! the same TOML grammar `config/scenarios/` uses — instead of
//! hand-wiring links and platforms. Under every fault the system must
//! degrade gracefully: no panics, conserved accounting (every arrival is
//! either admitted and completed or shed, and the two sides sum), and a
//! runtime trace whose hash chain still verifies end to end.

use tangram_core::report::RunReport;
use tangram_harness::ScenarioFile;
use tangram_trace::{TraceEvent, TraceLog};

/// The shared fault-free base: a small two-camera Poisson run with the
/// SLO shedder installed so every arrival receives an admission verdict
/// (the conservation check counts them).
const BASE: &str = r#"
name = "failure-injection"
description = "base scenario the fault axes splice into"

[run]
cameras = 2
pool_frames = 6
bandwidth_mbps = 40.0
slo_s = 1.0
seed = 41

[scenario]
frames_per_camera = 12
join_stagger_s = 0.0

[arrival]
kind = "poisson"
fps = 6.0

[admission]
kind = "slo-shedder"
per_item_s = 0.02
pressure = 0.5
"#;

/// Parses the base scenario with `fault_block` appended.
fn scenario(fault_block: &str) -> ScenarioFile {
    ScenarioFile::parse_str(&format!("{BASE}{fault_block}")).expect("valid scenario")
}

/// The fault-free twin of `file`, for before/after comparisons.
fn fault_free(file: &ScenarioFile) -> ScenarioFile {
    let mut clean = file.clone();
    clean.scenario.faults.clear();
    clean
}

/// Runs `file` with trace capture and asserts the invariants every
/// faulted run must keep: a verifying hash chain, and conservation —
/// arrivals = admitted + dropped, with the admitted side completing and
/// the dropped side matching the report's shed counter.
fn run_checked(file: &ScenarioFile) -> (RunReport, TraceLog) {
    let (report, trace) = file.run(true);
    let trace = trace.expect("capture requested");
    trace.verify().expect("hash chain must verify under faults");
    let (mut arrivals, mut admitted, mut dropped) = (0u64, 0u64, 0u64);
    for record in &trace.records {
        if let TraceEvent::AdmissionVerdict { admitted: ok, .. } = &record.event {
            arrivals += 1;
            if *ok {
                admitted += 1;
            } else {
                dropped += 1;
            }
        }
    }
    assert_eq!(
        arrivals,
        admitted + dropped,
        "every arrival gets one verdict"
    );
    assert_eq!(
        dropped, report.dropped_arrivals,
        "shed accounting conserved"
    );
    // Admitted arrivals may normalize into several patch units before
    // batching — they can split, never vanish.
    assert!(
        admitted <= report.patches.len() as u64,
        "admitted arrivals must all complete ({admitted} > {})",
        report.patches.len()
    );
    // And the trace is a faithful account: patches dispatched equal
    // patches completed, batch for batch.
    let counts = trace.replay_counts();
    assert_eq!(counts.patches, report.patches.len() as u64);
    assert_eq!(counts.batches, report.batches.len() as u64);
    assert_eq!(
        counts.completions, counts.batches,
        "every dispatch completes"
    );
    (report, trace)
}

/// The declarative windows for each fault kind, spliced into `BASE`.
const FAULT_BLOCKS: [(&str, &str); 5] = [
    (
        "link_outage",
        "\n[[fault]]\nkind = \"link_outage\"\nat_s = 0.5\nduration_s = 1.0\n",
    ),
    (
        "latency_tail",
        "\n[[fault]]\nkind = \"latency_tail\"\nfactor = 4.0\nat_s = 0.2\nduration_s = 3.0\n",
    ),
    (
        "cold_start_storm",
        "\n[[fault]]\nkind = \"cold_start_storm\"\nat_s = 0.2\nduration_s = 2.0\n",
    ),
    (
        "camera_flap",
        "\n[[fault]]\nkind = \"camera_flap\"\nmean_up_s = 0.5\nmean_down_s = 0.3\n\
         at_s = 0.2\nduration_s = 3.0\n",
    ),
    (
        "brownout",
        "\n[[fault]]\nkind = \"brownout\"\nfactor = 3.0\nat_s = 0.2\nduration_s = 3.0\n",
    ),
];

/// Every fault kind runs without panicking, conserves accounting, keeps
/// a verifying chain, and announces its window in the trace.
#[test]
fn every_fault_kind_conserves_accounting_and_the_trace_chain() {
    for (kind, block) in FAULT_BLOCKS {
        let file = scenario(block);
        let (report, trace) = run_checked(&file);
        assert!(report.frames > 0, "{kind}: the run must make progress");
        assert!(
            trace.records.iter().any(|r| matches!(
                &r.event,
                TraceEvent::FaultWindow { kind: k, .. } if k == kind
            )),
            "{kind}: the trace must record the fault window opening"
        );
    }
}

/// An uplink outage delays traffic but loses nothing: the same frames
/// are captured, and everything still completes or is shed — never
/// silently vanishes.
#[test]
fn link_outage_delays_but_preserves_accounting() {
    let file = scenario(FAULT_BLOCKS[0].1);
    let (faulted, _) = run_checked(&file);
    let (clean, _) = run_checked(&fault_free(&file));
    assert_eq!(
        faulted.frames, clean.frames,
        "capture is upstream of the link"
    );
    assert_eq!(
        faulted.patches.len() as u64 + faulted.dropped_arrivals,
        clean.patches.len() as u64 + clean.dropped_arrivals,
        "the outage may reshuffle admitted vs shed, not the total"
    );
}

/// Latency-tail inflation raises SLO violations; it must never make the
/// run lose work or panic.
#[test]
fn latency_tail_inflation_raises_violations_not_panics() {
    let file = scenario(FAULT_BLOCKS[1].1);
    let (faulted, _) = run_checked(&file);
    let (clean, _) = run_checked(&fault_free(&file));
    assert!(
        faulted.slo_violation_rate() >= clean.slo_violation_rate(),
        "tail inflation cannot reduce violations ({} < {})",
        faulted.slo_violation_rate(),
        clean.slo_violation_rate()
    );
}

/// A cold-start storm keeps evicting warm instances, so the faulted run
/// pays strictly more cold starts than its fault-free twin.
#[test]
fn cold_start_storm_forces_repeated_cold_starts() {
    let file = scenario(FAULT_BLOCKS[2].1);
    let (faulted, _) = run_checked(&file);
    let (clean, _) = run_checked(&fault_free(&file));
    assert!(
        faulted.platform.cold_starts > clean.platform.cold_starts,
        "the storm must force re-warming ({} <= {})",
        faulted.platform.cold_starts,
        clean.platform.cold_starts
    );
}

/// Camera flapping mutes frames at the edge: the mutes are counted, and
/// the frames that did get through still obey conservation.
#[test]
fn camera_flap_mutes_frames_without_breaking_accounting() {
    let file = scenario(FAULT_BLOCKS[3].1);
    let (faulted, _) = run_checked(&file);
    let (clean, _) = run_checked(&fault_free(&file));
    assert!(faulted.frames_muted > 0, "the flap window must mute frames");
    assert_eq!(clean.frames_muted, 0, "no mutes without the fault");
    assert_eq!(
        faulted.frames, clean.frames,
        "muted frames still count as captured"
    );
}

/// A brownout stretches execution while it is active; the work itself is
/// untouched.
#[test]
fn brownout_stretches_execution_not_correctness() {
    let file = scenario(FAULT_BLOCKS[4].1);
    let (faulted, _) = run_checked(&file);
    let (clean, _) = run_checked(&fault_free(&file));
    let faulted_exec: u64 = faulted
        .batches
        .iter()
        .map(|b| b.execution.as_micros())
        .sum();
    let clean_exec: u64 = clean.batches.iter().map(|b| b.execution.as_micros()).sum();
    assert!(
        faulted_exec > clean_exec,
        "browned-out executions must run longer ({faulted_exec} <= {clean_exec})"
    );
}

/// Starved capacity, declared in the file (`max_instances = 1`): the
/// backend serialises instead of dropping.
#[test]
fn starved_capacity_queues_instead_of_dropping() {
    let mut file = scenario("");
    file.run.max_instances = Some(1);
    file.admission = None; // nothing sheds: every patch must queue
    let (report, trace) = file.run(true);
    trace
        .expect("capture requested")
        .verify()
        .expect("chain verifies");
    assert_eq!(report.dropped_arrivals, 0, "no admission stage, no sheds");
    assert!(!report.patches.is_empty(), "work still completes");
    assert_eq!(
        report.platform.peak_instances, 1,
        "one instance serves it all"
    );
}

/// A crawling 2 Mbps uplink, declared in the file: the closed loop slows
/// capture instead of exploding queues, and the run still terminates.
#[test]
fn tiny_bandwidth_still_completes_the_run() {
    let mut file = scenario("");
    file.run.bandwidth_mbps = 2.0;
    file.admission = None;
    let (report, trace) = file.run(true);
    trace
        .expect("capture requested")
        .verify()
        .expect("chain verifies");
    assert_eq!(report.frames, 24, "both cameras reach their frame budget");
    assert!(!report.patches.is_empty());
}
