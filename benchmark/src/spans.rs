//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The staged pass records one span per stage call sequence (or per
//! call, where calls take milliseconds) under a root span for the plain
//! end-to-end call. Spans stay in memory and are written out as JSONL
//! when the pass ends. Stages are *replays*: they re-drive a layer's
//! public functions after the root call returned, so a child span does
//! not lie inside its parent's interval — `parent` records which span
//! the work belongs to, and self time is a span's duration minus the
//! durations of the spans that name it as parent.

use crate::measure::{Calibrator, CALIBRATION_REFERENCE_S};
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`crate.module`, as in the per-layer metric names).
    pub name: &'static str,
    /// The span this one's work belongs to (`None` for a root).
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// One sample of the host-speed probe.
#[derive(Debug, Clone, Copy)]
struct ProbeSample {
    start_ns: u64,
    end_ns: u64,
    seconds: f64,
}

/// A named interval measured inside a workload's own `run` (the engine
/// call, the report digest, the trace codec), before any recorder
/// exists; [`Spans::adopt`] turns it into a span.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Layer name.
    pub name: &'static str,
    /// When the calls into the layer began.
    pub start: Instant,
    /// When they returned.
    pub end: Instant,
}

impl Phase {
    /// Runs `f` as the phase `name`, appending it to `phases`.
    pub fn run<T>(phases: &mut Vec<Phase>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        phases.push(Phase {
            name,
            start,
            end: Instant::now(),
        });
        value
    }
}

/// The span recorder of one staged pass.
pub struct Spans {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    calibrator: Calibrator,
    probes: Vec<ProbeSample>,
}

impl Spans {
    /// An empty recorder for `workload`.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            calibrator: Calibrator::new(),
            probes: Vec::new(),
        }
    }

    /// Samples the host-speed probe now. Call between stages, never
    /// inside a span.
    pub fn probe(&mut self) {
        let start_ns = self.now_ns();
        let seconds = self.calibrator.sample();
        self.probes.push(ProbeSample {
            start_ns,
            end_ns: self.now_ns(),
            seconds,
        });
    }

    /// Mean host speed over the pass's probe samples (1.0 = reference).
    #[must_use]
    pub fn host_speed(&self) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        let sum: f64 = self
            .probes
            .iter()
            .map(|p| CALIBRATION_REFERENCE_S / p.seconds)
            .sum();
        sum / self.probes.len() as f64
    }

    /// The factor that turns span `id`'s raw seconds into reference
    /// seconds: from the nearest probe sample that ended before it began
    /// and the nearest that began after it ended (the nearest sample on
    /// either side when one is missing; 1.0 without samples).
    fn to_reference(&self, span: &Span) -> f64 {
        let before = self.probes.iter().rev().find(|p| p.end_ns <= span.start_ns);
        let after = self.probes.iter().find(|p| p.start_ns >= span.end_ns);
        match (before.or(after), after.or(before)) {
            (Some(b), Some(a)) => Calibrator::to_reference(b.seconds, a.seconds),
            _ => 1.0,
        }
    }

    /// Records `f` as one span bracketed by two probe samples — a stage
    /// of the staged pass — and returns its result with the span.
    pub fn stage<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        self.probe();
        let id = self.open(name, parent);
        let value = f();
        self.close(id);
        self.probe();
        (value, id)
    }

    /// Span `id`'s duration, reference seconds.
    #[must_use]
    pub fn seconds(&self, id: SpanId) -> f64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 * 1e-9 * self.to_reference(span)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a [`Phase`] measured while this recorder was alive.
    pub fn adopt(&mut self, phase: &Phase, parent: Option<SpanId>) -> SpanId {
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: phase.name,
            parent,
            start_ns: ns(phase.start),
            end_ns: ns(phase.end),
        });
        self.spans.len() - 1
    }

    /// Records `f` as one span and returns its result.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let value = f();
        self.close(id);
        value
    }

    /// Total seconds and count of the spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (f64, u64) {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .fold((0.0, 0), |(secs, n), id| (secs + self.seconds(id), n + 1))
    }

    /// Total reference seconds of `parent`'s children named `name`.
    #[must_use]
    pub fn child_total(&self, parent: SpanId, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].parent == Some(parent) && self.spans[id].name == name)
            .map(|id| self.seconds(id))
            .sum()
    }

    /// Self time of span `id`: its duration minus its children's.
    #[must_use]
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        (self.seconds(id) - self.children_seconds(id)).max(0.0)
    }

    /// Summed duration of the spans that name `id` as parent.
    #[must_use]
    pub fn children_seconds(&self, id: SpanId) -> f64 {
        (0..self.spans.len())
            .filter(|&child| self.spans[child].parent == Some(id))
            .map(|child| self.seconds(child))
            .sum()
    }

    /// Renders every span as one JSON object per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"host_speed\":{:.4},\"id\":{id},\"parent\":",
                span.name,
                self.workload,
                span.start_ns,
                span.end_ns,
                self.to_reference(span)
            );
            match span.parent {
                Some(parent) => {
                    let _ = writeln!(out, "{parent}}}");
                }
                None => out.push_str("null}\n"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans {
            spans,
            ..Spans::new("t")
        }
    }

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = fixed(vec![
            span("root", None, 0, 1_000),
            span("a", Some(0), 2_000, 2_600),
            span("a.child", Some(1), 3_000, 3_200),
            span("b", Some(0), 4_000, 4_300),
            span("other-root", None, 5_000, 9_000),
        ]);
        assert!((spans.self_seconds(1) - 400e-9).abs() < 1e-15);
        assert!((spans.self_seconds(0) - 100e-9).abs() < 1e-15);
        assert!((spans.children_seconds(0) - 900e-9).abs() < 1e-15);
        assert_eq!(spans.total("a").1, 1);
        let jsonl = spans.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].ends_with("\"host_speed\":1.0000,\"id\":0,\"parent\":null}"));
        assert!(lines[2].ends_with("\"id\":2,\"parent\":1}"));
    }
}
