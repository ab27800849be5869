//! The parallel experiment harness.
//!
//! Every figure, table and ablation of the paper — and every perf
//! experiment CI gates on — is a sweep: a cartesian product of policy ×
//! seed × workload × bandwidth × SLO cells, each cell one deterministic
//! engine run. This crate turns that shape into infrastructure:
//!
//! * [`grid`] — declarative [`grid::SweepGrid`]s; cells carry seeds
//!   forked per cell via `DetRng::derive_seed`, so results never depend
//!   on which thread ran them. A grid may also sweep
//!   [`grid::ScenarioSpec`]s — running its cells on the event-driven
//!   streaming engine (open-loop arrivals, camera churn, tenant SLO
//!   mixes) instead of trace replay, one cell per scenario — an
//!   [`grid::AdmissionSpec`] axis crossing every cell with ingress
//!   admission-control policies (always-admit, queue bounds, the
//!   SLO-aware shedder), and a [`grid::FairnessSpec`] axis of
//!   weighted-DRR ingress stages;
//! * [`pool`] — a scoped-thread worker pool ([`pool::parallel_map`])
//!   that preserves input order;
//! * [`runner`] — [`runner::run_grid`]: traces built once per workload,
//!   cells fanned out, results reassembled; parallel output is
//!   bit-for-bit identical to `--workers 1`;
//! * [`report`] — the versioned [`report::BenchReport`] written as
//!   `BENCH_<name>.json`, one shape for every grid (each optional axis an
//!   array, each cell's coordinate on it an index or `null`), and the one
//!   field list of every declarative spec, which the scenario files'
//!   canonical TOML renders too;
//! * [`presets`] — the shared experiment setup (paper sweep constants,
//!   trace, fleet and engine constructors, warmed extractor rigs) the
//!   bins used to copy-paste;
//! * [`json`] — re-export of [`tangram_types::json`], the workspace's
//!   one deterministic JSON codec (it lives at layer 0 so `tangram-trace`
//!   reads TRACE lines through the same parser);
//! * [`toml`] / [`scenario_file`] — re-export of
//!   [`tangram_types::toml`], the workspace's one line-tracking TOML
//!   reader (layer 0, so `tangram-lint` reads waivers and manifests
//!   through it too), and the declarative scenario library it loads
//!   ([`scenario_file::ScenarioFile`]): `config/scenarios/*.toml` files
//!   describing hard streaming runs — fleet, arrivals, tenants, ingress
//!   stages and first-class fault windows — validated at load time with
//!   errors naming the offending line;
//! * [`present`] — what the cloud model gets to see of a frame
//!   (presented objects through regions or a rescale), the accuracy
//!   experiments' one implementation;
//! * [`cli`] / [`table`] — the experiment binaries' shared flags and
//!   text-table rendering.
//!
//! # Example
//!
//! ```
//! use tangram_core::engine::PolicyKind;
//! use tangram_harness::{run_grid, SweepGrid, TraceKind, WorkloadSpec};
//! use tangram_types::ids::SceneId;
//!
//! let mut grid = SweepGrid::named("doc");
//! grid.policies = vec![PolicyKind::Tangram, PolicyKind::Elf];
//! grid.seeds = vec![7];
//! grid.slos_s = vec![1.0];
//! grid.bandwidths_mbps = vec![40.0];
//! grid.workloads = vec![WorkloadSpec::single(SceneId::new(1), 4, TraceKind::Proxy)];
//! assert_eq!(grid.cell_count(), 2);
//!
//! let report = run_grid(&grid, 2);
//! assert_eq!(report.cells.len(), 2);
//! // Parallel fan-out is byte-identical to a sequential run.
//! assert_eq!(report.to_json(), run_grid(&grid, 1).to_json());
//! ```

pub mod cli;
pub mod grid;
pub mod pool;
pub mod present;
pub mod presets;
pub mod report;
pub mod runner;
pub mod scenario_file;
pub mod table;

pub use cli::ExpOpts;
pub use grid::{
    AdmissionSpec, ArrivalSpec, FairnessSpec, ScenarioSpec, SweepCell, SweepGrid, TraceKind,
    WorkloadSpec,
};
pub use pool::parallel_map;
pub use report::{BenchReport, CellReport, SCHEMA_VERSION};
pub use runner::{bench_report, run_grid, run_grid_full, run_scenario_sharded, CellOutcome};
pub use scenario_file::{RunSpec, ScenarioFile};
pub use tangram_types::json;
pub use tangram_types::toml::{self, TomlDocument, TomlError, TomlValue};
