//! Tangram: SLO-aware batching for serverless video analytics.
//!
//! This crate is the paper's primary contribution plus everything needed
//! to evaluate it end to end:
//!
//! * [`scheduler`] — the **online SLO-aware batching invoker**
//!   (Algorithm 2): patches are re-stitched on every arrival, a
//!   conservative µ+3σ latency estimate sets the invoke-by time
//!   `t_remain = t_DDL − T_slack`, and batches dispatch exactly when
//!   waiting longer would risk the SLO (or the GPU-memory bound of
//!   constraint (5) is hit);
//! * [`policy`] — the [`policy::BatchingPolicy`] trait plus the paper's
//!   comparison systems: Full Frame, Masked Frame, ELF, Clipper (AIMD
//!   batch sizing) and MArk (batch size + timeout);
//! * [`workload`] — per-camera traces built from the synthetic scenes and
//!   an RoI extractor, replayed identically across policies;
//! * [`online`] — the event-driven streaming runtime: camera sources are
//!   generators ([`online::ArrivalProcess`]: Poisson / bursty / diurnal)
//!   rather than fixed trace slices, cameras join and leave mid-run, and
//!   tenants carry per-class SLOs;
//! * [`admission`] — pluggable ingress admission control
//!   ([`admission::AdmissionPolicy`]): always-admit, queue-depth
//!   thresholds, and the SLO-aware [`admission::SloShedder`] that sheds
//!   doomed work and lower-class tenants first under overload, with
//!   per-tenant drop accounting in the run report;
//! * [`fairness`] — the weighted deficit-round-robin fair ingress
//!   ([`fairness::DrrIngress`]): per-tenant-class bounded queues sitting
//!   between admission and the scheduler, served by dequeue ticks in the
//!   configured weight ratio so the admitted mix under overload tracks
//!   the weights instead of collapsing to the tightest class;
//! * [`faults`] — declarative fault injection ([`faults::FaultSpec`]):
//!   link outage windows, latency-tail inflation, cold-start storms,
//!   camera flap/rejoin storms and backend brownouts, scheduled through
//!   the engine's event loop from dedicated RNG forks so a faulted run
//!   stays bit-for-bit reproducible at any shard count;
//! * [`engine`] — the batch entry point ([`engine::EngineConfig::run`]):
//!   cameras → edge partitioning → uplink → scheduler → serverless
//!   platform, producing a [`report::RunReport`] with per-patch
//!   latencies, per-batch records, cost, bandwidth, and SLO-violation
//!   accounting. Trace replay is just one event source of the [`online`]
//!   loop;
//! * [`runtime`] — a live, threaded runtime exposing the paper's
//!   `receive_patch` / `invoke` API for real-time (non-simulated) use.
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
mod shard;
pub mod workload;

pub use admission::{
    Admission, AdmissionPolicy, AdmissionSignals, AlwaysAdmit, QueueDepthThreshold, SloShedder,
};
pub use engine::{EngineConfig, PolicyKind};
pub use fairness::{DrrConfig, DrrIngress};
pub use faults::{FaultKind, FaultSpec};
pub use online::{
    ArrivalProcess, CameraSource, GeneratedSource, OnlineEngine, StreamEvent, TenantClass,
    TraceReplaySource,
};
pub use policy::{Arrival, BatchSpec, BatchingPolicy, PolicyOutput};
pub use report::{RunReport, RunSummary, TenantSummary};
pub use scheduler::{SchedulerConfig, TangramScheduler};
pub use workload::{CameraTrace, TraceConfig, TraceFrame};
