//! Core data model shared by every crate in the Tangram reproduction.
//!
//! This crate deliberately contains no behaviour beyond plain data types and
//! their arithmetic: pixel-space [`geometry`], id newtypes ([`ids`]),
//! simulated [`time`], measurement [`units`], the patch/canvas/batch
//! [`patch`] model that flows from edge cameras to the cloud scheduler,
//! and the workspace's two file formats, one implementation each: the [`json`] codec (BENCH
//! reports and TRACE lines share it) and the line-tracking [`toml`]
//! reader (scenario files, lint waivers and crate manifests share it).
//!
//! # Example
//!
//! ```
//! use tangram_types::geometry::Rect;
//! use tangram_types::time::{SimDuration, SimTime};
//!
//! let roi = Rect::new(100, 200, 64, 48);
//! let zone = Rect::new(0, 0, 1920, 1080);
//! assert_eq!(roi.overlap_area(&zone), 64 * 48);
//!
//! let generated = SimTime::ZERO + SimDuration::from_millis(33);
//! let deadline = generated + SimDuration::from_secs_f64(1.0);
//! assert!(deadline > generated);
//! ```

pub mod error;
pub mod geometry;
pub mod ids;
pub mod json;
pub mod patch;
pub mod time;
pub mod toml;
pub mod units;

pub use error::ValidationError;
pub use geometry::{Point, Rect, Size};
pub use ids::{BatchId, CameraId, CanvasId, FrameId, InstanceId, InvocationId, PatchId, SceneId};
pub use patch::{Patch, PatchInfo};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes, Dollars, GigaBytes};
