//! The repo's benchmark: six declared workloads, their end-to-end
//! metrics and an outside-in per-layer ledger. See `README.md`.

pub mod alloc;
pub mod compare;
pub mod edge;
pub mod measure;
pub mod metrics;
pub mod spans;
pub mod stream;
pub mod sweep;
pub mod workload;

use spans::Spans;
use workload::{end_to_end, per_layer, RunResult, Scale, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Which of the two measurements to make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// Counted pass plus timed repetitions for at least `seconds`.
    EndToEnd {
        /// How long to measure.
        seconds: f64,
        /// Fewest timed repetitions, however short `seconds` is.
        min_repetitions: usize,
    },
    /// The staged pass.
    PerLayer,
}

/// Measures the declared workload `name`; `None` if there is none. The
/// staged pass also returns its spans.
#[must_use]
pub fn measure(
    name: &str,
    scale: Scale,
    seed: u64,
    pass: Pass,
) -> Option<(RunResult, Option<Spans>)> {
    fn go<W: Workload>(workload: &W, seed: u64, pass: Pass) -> (RunResult, Option<Spans>) {
        match pass {
            Pass::EndToEnd {
                seconds,
                min_repetitions,
            } => (end_to_end(workload, seed, seconds, min_repetitions), None),
            Pass::PerLayer => {
                let (result, spans) = per_layer(workload, seed);
                (result, Some(spans))
            }
        }
    }
    if let Some(stream) = stream::Stream::named(name, scale) {
        return Some(go(&stream, seed, pass));
    }
    match name {
        "edge-gmm" => Some(go(&edge::EdgeGmm::new(scale), seed, pass)),
        "paper-sweep" => Some(go(&sweep::PaperSweep::new(scale), seed, pass)),
        _ => None,
    }
}
