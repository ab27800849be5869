//! The reproduction as one table, and the committed baselines as another.
//!
//! Every figure, table and ablation of the paper — and every experiment
//! the streaming runtime added beyond it — is a row of [`repro::ROWS`]:
//! its id, what it reproduces, what it sweeps, the function that prints
//! it and the claims it must show, driven by the one `repro` binary
//! (`repro list`, `repro <id> --quick`, `repro all`). The row bodies live
//! in five modules named after the substrate they exercise: edge/trace
//! statistics (`edge`), the accuracy pipeline (`accuracy`), stitching
//! (`stitching`), the end-to-end grids (`e2e`) and the streaming runtime
//! (`ext`). Every file under `baselines/` is a row of
//! [`baselines::FILES`], held byte-equal to its regeneration by the one
//! `baselines` binary (`baselines check`, `baselines write`). The
//! sweep/parallelism/reporting machinery lives in [`tangram_harness`].
//!
//! # Example
//!
//! ```
//! use tangram_bench::{baselines::FILES, repro::ROWS};
//!
//! assert_eq!(ROWS.len(), 22);
//! assert!(ROWS.iter().any(|row| row.id == "fig12_e2e" && row.paper == "Fig. 12 (§V)"));
//! assert!(FILES.iter().any(|row| row.file == "TRACE_smoke.jsonl"));
//! ```

mod accuracy;
pub mod baselines;
mod e2e;
mod edge;
mod ext;
pub mod repro;
mod stitching;

pub use tangram_harness::ExpOpts;

use std::io::Write;
use std::path::PathBuf;
use tangram_harness::parallel_map;
use tangram_types::ids::SceneId;

/// The workspace root — where `baselines/` and `config/scenarios/` live —
/// fixed at build time so `cargo test` and `cargo run` agree from any
/// working directory.
#[must_use]
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `writeln!` onto a row's output; a closed pipe ends the run the way
/// `println!` would.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("experiment output is writable")
    };
}
pub(crate) use say;

/// A section heading, followed by a blank line.
pub(crate) fn heading(out: &mut dyn Write, title: &str) {
    say!(out, "== {title} ==\n");
}

/// Runs `f` once per scene on the harness pool; results come back in
/// scene order, so output never depends on the worker count.
pub(crate) fn per_scene<T: Send>(
    scenes: impl Iterator<Item = SceneId>,
    opts: &ExpOpts,
    f: impl Fn(SceneId) -> T + Sync,
) -> Vec<T> {
    parallel_map(scenes.collect(), opts.workers(), |_, scene| f(scene))
}

/// The "ours (paper)" cell: a measured value beside the paper's digitised
/// one, which is printed for reference and never asserted.
pub(crate) fn vs_paper(ours: f64, paper: f64, decimals: usize) -> String {
    format!("{ours:.decimals$} ({paper:.decimals$})")
}

/// [`vs_paper`] over a row of values, joined as table cells.
pub(crate) fn paper_cells(ours: &[f64], paper: &[f64], decimals: usize) -> String {
    let cells = ours
        .iter()
        .zip(paper)
        .map(|(o, p)| vs_paper(*o, *p, decimals));
    cells.collect::<Vec<_>>().join(" | ")
}

/// Whether two axis values (SLO, bandwidth, σ multiplier) are the same
/// grid point.
pub(crate) fn same(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}
