//! The patch-stitching solver — Algorithm 2 (lines 24–39) of the paper.
//!
//! Variable-size patches are packed ("stitched") onto fixed-size canvases
//! without resizing, padding, rotation or overlap, so a batch of canvases
//! can be fed to the DNN as uniform inputs with no information loss.
//!
//! * [`packer`] — single-canvas rectangle packers: the paper's
//!   [`packer::GuillotinePacker`] (best-short-side-fit choice, shorter-axis
//!   split) plus [`packer::ShelfPacker`] and [`packer::SkylinePacker`] as
//!   ablation baselines;
//! * [`canvas`] — the canvas data model and efficiency accounting
//!   (Fig. 10b / Fig. 13 plot the efficiency CDFs);
//! * [`solver`] — the multi-canvas first-fit: [`solver::Stitching`] keeps
//!   canvases open and places one patch per arrival (what Algorithm 2's
//!   per-arrival re-stitch amounts to), and
//!   [`solver::PatchStitchingSolver`] stitches a whole queue at once;
//!   [`solver::split_to_fit`] cuts an oversized patch into canvas-sized
//!   [`solver::Tiles`].
//!
//! # Example
//!
//! ```
//! use tangram_stitch::solver::PatchStitchingSolver;
//! use tangram_types::geometry::Size;
//!
//! let solver = PatchStitchingSolver::new(Size::CANVAS_1024);
//! let sizes = [Size::new(400, 700), Size::new(600, 300), Size::new(500, 500)];
//! let canvases = solver.stitch_sizes(&sizes).expect("all fit the canvas");
//! assert_eq!(canvases.len(), 1, "three small patches share one canvas");
//! ```

pub mod canvas;
pub mod packer;
pub mod solver;

pub use canvas::{Canvas, PlacedPatch};
pub use packer::{GuillotinePacker, Packer, ShelfPacker, SkylinePacker};
pub use solver::{Fit, PatchStitchingSolver, StitchError, Stitching};
