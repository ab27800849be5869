//! Contracts of the runtime event trace (`tangram_trace`): capture is
//! deterministic across worker counts, inert with respect to the run
//! itself, faithful to the report's counters, and — through the hash
//! chain — able to name the exact event where two runs diverge.

use tangram_harness::presets::{trace_overload_grid, trace_smoke_grid};
use tangram_harness::{run_grid_full, SweepGrid};
use tangram_trace::{TraceEvent, TraceLog, TraceSink};
use tangram_types::time::SimTime;

/// A golden cell `baselines/TRACE_*.jsonl` pins: its name and grid.
type Golden = (&'static str, fn() -> SweepGrid);

const GOLDEN: [Golden; 2] = [
    ("smoke", trace_smoke_grid),
    ("overload", trace_overload_grid),
];

fn capture(grid: &SweepGrid, workers: usize) -> (tangram_core::RunReport, TraceLog) {
    let mut outcomes = run_grid_full(grid, workers);
    assert_eq!(outcomes.len(), 1, "golden grids are single-cell");
    let outcome = outcomes.pop().expect("one cell");
    let trace = outcome.trace.expect("golden grids opt into capture");
    (outcome.report, trace)
}

/// The chain verifies, sequence numbers are dense from 1, and the
/// stream is bracketed by session start/end events.
#[test]
fn captured_trace_has_a_valid_monotonic_chain() {
    for (which, golden) in GOLDEN {
        let (_, trace) = capture(&golden(), 2);
        trace.verify().expect("chain must verify");
        for (i, record) in trace.records.iter().enumerate() {
            assert_eq!(record.seq, i as u64 + 1, "{which}: dense 1-based seq");
        }
        assert_eq!(
            trace.records.first().map(|r| r.event.kind()),
            Some("session.start")
        );
        assert_eq!(
            trace.records.last().map(|r| r.event.kind()),
            Some("session.end")
        );
    }
}

/// One worker or four: the captured JSONL is byte-identical — the trace
/// inherits the engine's determinism contract.
#[test]
fn capture_is_byte_identical_across_worker_counts() {
    for (which, golden) in GOLDEN {
        let (_, sequential) = capture(&golden(), 1);
        let (_, parallel) = capture(&golden(), 4);
        assert_eq!(
            sequential.to_jsonl(),
            parallel.to_jsonl(),
            "{which}: golden trace must not depend on worker count"
        );
    }
}

/// A faulted run's golden trace holds the same guarantee: with a
/// brownout window injected into the overload cell, the captured JSONL
/// — `fault.window` record and hash chain included — is byte-identical
/// to the sequential capture at any worker count, and the chain still
/// verifies.
#[test]
fn faulted_capture_is_byte_identical_across_shard_counts() {
    use tangram_core::{FaultKind, FaultSpec};
    let mut grid = trace_overload_grid();
    grid.scenarios[0].faults = vec![FaultSpec {
        kind: FaultKind::Brownout { factor: 2.0 },
        at_s: 0.5,
        duration_s: 2.0,
    }];
    let (_, oracle) = capture(&grid, 1);
    oracle.verify().expect("faulted chain must verify");
    assert!(
        oracle.records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::FaultWindow { kind, .. } if kind == "brownout"
        )),
        "the golden trace must record the brownout window"
    );
    for workers in [2, 4] {
        assert_eq!(
            capture(&grid, workers).1.to_jsonl(),
            oracle.to_jsonl(),
            "{workers} workers diverged from the sequential faulted golden trace"
        );
    }
}

/// Recording a trace never perturbs the run: the report digest with the
/// sink installed equals the digest of the same cell without it.
#[test]
fn capture_does_not_perturb_the_run_digest() {
    for (which, golden) in GOLDEN {
        let (traced_report, _) = capture(&golden(), 2);
        let mut grid = golden();
        grid.capture_traces = false;
        let mut outcomes = run_grid_full(&grid, 2);
        let outcome = outcomes.pop().expect("one cell");
        assert!(outcome.trace.is_none(), "capture off ⇒ no trace");
        assert_eq!(
            outcome.report.summarize(),
            traced_report.summarize(),
            "{which}: the trace sink must be observation-only"
        );
    }
}

/// Replaying the event stream reproduces the run's counters — the trace
/// is a faithful account of the run, not a parallel bookkeeping.
#[test]
fn replaying_the_trace_reproduces_the_run_counters() {
    for (which, golden) in GOLDEN {
        let (report, trace) = capture(&golden(), 2);
        let counts = trace.replay_counts();
        assert_eq!(counts.batches, report.batches.len() as u64, "{which}");
        assert_eq!(counts.patches, report.patches.len() as u64, "{which}");
        assert_eq!(counts.completions, report.batches.len() as u64, "{which}");
        assert_eq!(counts.dropped, report.dropped_arrivals, "{which}");
    }
}

/// The JSONL round-trips losslessly: parse(to_jsonl(log)) == log.
#[test]
fn trace_round_trips_through_jsonl() {
    let (_, trace) = capture(&trace_overload_grid(), 2);
    let reparsed = TraceLog::from_jsonl(&trace.to_jsonl()).expect("round-trip parses");
    reparsed.verify().expect("round-trip chain verifies");
    assert_eq!(reparsed, trace);
}

/// A deliberately perturbed copy of a golden trace is pinned to its
/// first divergent event by sequence number and kind — the event-level
/// gate's contract (`baselines check` on a `TRACE_*.jsonl` row).
#[test]
fn divergence_names_the_first_differing_event() {
    let (_, golden) = capture(&trace_overload_grid(), 2);
    // Rebuild the stream through a fresh sink, flipping the verdict of
    // the first admission drop: a valid chain that disagrees with the
    // golden trace at exactly that record.
    let mut sink = TraceSink::new();
    let mut flipped_at = None;
    for record in &golden.records {
        let mut event = record.event.clone();
        if flipped_at.is_none() {
            if let TraceEvent::AdmissionVerdict { admitted, .. } = &mut event {
                if !*admitted {
                    *admitted = true;
                    flipped_at = Some(record.seq);
                }
            }
        }
        sink.emit(SimTime::from_micros(record.at_us), event);
    }
    let candidate = sink.finish();
    candidate.verify().expect("perturbed chain still verifies");
    let flipped_at = flipped_at.expect("the overload golden cell sheds work");

    let divergence = golden
        .first_divergence(&candidate)
        .expect("flipping a verdict must diverge");
    assert_eq!(divergence.seq, flipped_at, "first divergence at the flip");
    let description = divergence.describe();
    assert!(
        description.contains(&format!("seq {flipped_at}")),
        "description names the sequence number: {description}"
    );
    assert!(
        description.contains("admission.verdict"),
        "description names the event kind: {description}"
    );
}
