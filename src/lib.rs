//! Umbrella package for the Tangram reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`). The actual library
//! lives in the `tangram-*` crates under `crates/`; start with
//! [`tangram_core`].

pub use tangram_core as core;
pub use tangram_infer as infer;
pub use tangram_lint as lint;
pub use tangram_net as net;
pub use tangram_partition as partition;
pub use tangram_serverless as serverless;
pub use tangram_sim as sim;
pub use tangram_stitch as stitch;
pub use tangram_types as types;
pub use tangram_video as video;
pub use tangram_vision as vision;
