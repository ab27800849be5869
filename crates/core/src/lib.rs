//! Tangram: SLO-aware batching for serverless video analytics.
//!
//! This crate is the paper's primary contribution plus everything needed
//! to evaluate it end to end:
//!
//! * [`scheduler`] — the **online SLO-aware batching invoker**
//!   (Algorithm 2): every arrival sees the queue's full stitching (one
//!   tile placed onto canvases kept open, which is what re-stitching an
//!   arrival-order first-fit amounts to), a conservative µ+3σ latency
//!   estimate sets the invoke-by time
//!   `t_remain = t_DDL − T_slack`, and batches dispatch exactly when
//!   waiting longer would risk the SLO (or the GPU-memory bound of
//!   constraint (5) is hit);
//! * [`policy`] — the [`policy::BatchingPolicy`] trait plus the paper's
//!   comparison systems that batch on the engine: ELF, Clipper and MArk
//!   (Full Frame and Masked Frame are priced per frame from the trace);
//! * [`workload`] — per-camera traces built from the synthetic scenes and
//!   an RoI extractor, replayed identically across policies;
//! * [`online`] — the engine: an event loop over the paper's cloud
//!   pipeline, ingest → admit → fair-queue → batch → execute → account,
//!   configured once by an [`online::Plan`]. Cameras are generators
//!   ([`online::ArrivalProcess`]: Poisson / bursty / diurnal, or trace
//!   replay), join and leave mid-run, and carry per-tenant SLOs;
//! * [`admission`] — the admit stage: ingress admission control, a closed
//!   [`admission::AdmissionPolicy`] enum (open door or the SLO-aware
//!   [`admission::SloShedder`]), and the per-tenant drop ledger;
//! * [`fairness`] — the fair-queue stage: weighted deficit-round-robin
//!   ([`fairness::DrrIngress`]) between admission and the scheduler, so
//!   the admitted mix under overload tracks the configured weights;
//! * [`faults`] — declarative fault windows ([`faults::FaultSpec`]: link
//!   outages, latency tails, cold-start storms, camera flaps, brownouts)
//!   drawn from dedicated RNG forks, so a faulted run stays bit-for-bit
//!   reproducible at any worker count;
//! * [`report`] — the account stage and its [`report::RunReport`]:
//!   per-patch latencies, per-batch records, cost, bandwidth and
//!   SLO-violation accounting;
//! * [`engine`] — [`engine::EngineConfig`] and the batch entry point
//!   ([`engine::EngineConfig::run`]): trace replay is one event source
//!   of the [`online`] loop;
//! * [`runtime`] — the paper's `receive_patch` / `invoke` API for
//!   real-time (non-simulated) use: the [`online`] engine's batch stage
//!   on a clock the host injects.
//!
//! # Example
//!
//! ```
//! use tangram_core::engine::{EngineConfig, PolicyKind};
//! use tangram_core::workload::TraceConfig;
//! use tangram_types::ids::SceneId;
//! use tangram_types::time::SimDuration;
//!
//! let trace = TraceConfig::proxy_extractor(SceneId::new(1), 20, 7).build();
//! let config = EngineConfig {
//!     policy: PolicyKind::Tangram,
//!     slo: SimDuration::from_secs_f64(1.0),
//!     bandwidth_mbps: 40.0,
//!     seed: 7,
//!     ..EngineConfig::default()
//! };
//! let report = config.run(&[trace]);
//! assert!(report.patches_completed() > 0);
//! assert!(report.slo_violation_rate() <= 0.2);
//! ```

pub mod admission;
pub mod engine;
pub mod fairness;
pub mod faults;
pub mod online;
pub mod policy;
pub mod report;
pub mod runtime;
pub mod scheduler;
pub mod workload;

pub use admission::{Admission, AdmissionPolicy, AdmissionSignals, SloShedder};
pub use engine::{EngineConfig, PolicyKind};
pub use fairness::{DrrConfig, DrrIngress};
pub use faults::{FaultKind, FaultSpec};
pub use online::{
    ArrivalProcess, CameraSource, GeneratedSource, OnlineEngine, Plan, StreamEvent, TenantClass,
    TraceReplaySource,
};
pub use policy::{Arrival, BatchSpec, BatchingPolicy, PolicyOutput};
pub use report::{RunReport, RunSummary, TenantSummary};
pub use scheduler::{SchedulerConfig, TangramScheduler};
pub use workload::{CameraTrace, TraceConfig, TraceFrame};
