//! Run reports: everything an experiment needs to print its table/figure.

use crate::policy::{BatchSpec, CompletionFeedback};
use serde::{Deserialize, Serialize};
use tangram_net::LinkStats;
use tangram_serverless::platform::{InvocationOutcome, PlatformStats};
use tangram_sim::stats::EmpiricalCdf;
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::{Bytes, Dollars};

/// Per-patch end-to-end outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PatchRecord {
    /// Patch identity.
    pub patch: PatchId,
    /// Source camera.
    pub camera: CameraId,
    /// Source frame.
    pub frame: FrameId,
    /// Capture instant (SLO clock start).
    pub generated_at: SimTime,
    /// When the scheduler dispatched the batch containing it.
    pub dispatched_at: SimTime,
    /// When its results were ready.
    pub finished_at: SimTime,
    /// The SLO it was stamped with.
    pub slo: SimDuration,
}

impl PatchRecord {
    /// End-to-end latency (capture → result).
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.finished_at.since(self.generated_at)
    }

    /// Whether the SLO was violated.
    #[must_use]
    pub fn violated(&self) -> bool {
        self.latency() > self.slo
    }
}

/// Per-invocation outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchRecord {
    /// When the batch was dispatched.
    pub dispatched_at: SimTime,
    /// Model inputs (canvases / padded patches / frames).
    pub inputs: usize,
    /// Patches bundled.
    pub patch_count: usize,
    /// Pure execution time.
    pub execution: SimDuration,
    /// Whether a cold start preceded it.
    pub cold: bool,
    /// Eqn. (1) cost.
    pub cost: Dollars,
    /// Canvas efficiencies (stitching policies only).
    pub efficiencies: Vec<f64>,
}

/// The engine's account stage: every dispatched batch is booked here —
/// one [`BatchRecord`], one [`PatchRecord`] per patch — and the records
/// become the [`RunReport`] when the run ends.
#[derive(Default)]
pub(crate) struct Account {
    pub(crate) patch_records: Vec<PatchRecord>,
    pub(crate) batch_records: Vec<BatchRecord>,
}

impl Account {
    /// Books `spec`, dispatched at `now` and executed as `outcome`;
    /// returns the feedback its completion event will carry.
    pub(crate) fn on_dispatch(
        &mut self,
        now: SimTime,
        spec: BatchSpec,
        outcome: &InvocationOutcome,
    ) -> CompletionFeedback {
        let mut violations = 0usize;
        for p in &spec.patches {
            let record = PatchRecord {
                patch: p.id,
                camera: p.camera,
                frame: p.frame,
                generated_at: p.generated_at,
                dispatched_at: now,
                finished_at: outcome.finished,
                slo: p.slo,
            };
            violations += usize::from(record.violated());
            self.patch_records.push(record);
        }
        self.batch_records.push(BatchRecord {
            dispatched_at: now,
            inputs: spec.inputs,
            patch_count: spec.patches.len(),
            execution: outcome.execution,
            cold: outcome.cold,
            cost: outcome.cost,
            efficiencies: spec.canvas_efficiencies,
        });
        CompletionFeedback {
            finished: outcome.finished,
            execution: outcome.execution,
            violations,
            inputs: spec.inputs,
        }
    }
}

/// The full outcome of one end-to-end run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy under test.
    pub policy: String,
    /// Per-patch outcomes.
    pub patches: Vec<PatchRecord>,
    /// Per-invocation outcomes.
    pub batches: Vec<BatchRecord>,
    /// Uplink counters.
    pub link: LinkStats,
    /// Platform counters.
    pub platform: PlatformStats,
    /// Frames injected.
    pub frames: u64,
    /// Frames captured inside a camera-flap mute window and lost at the
    /// edge (see [`crate::faults::FaultKind::CameraFlap`]): they count
    /// in `frames` (the camera did capture) but never reached the
    /// uplink. Always zero for fault-free runs; **not** part of
    /// [`RunSummary`], so legacy BENCH baselines are unaffected.
    pub frames_muted: u64,
    /// Work items shed by the streaming engine's admission-control
    /// policy (always zero for trace replay without one).
    pub dropped_arrivals: u64,
    /// Admission drops per tenant class, keyed by the class SLO,
    /// ascending. Sums to `dropped_arrivals` (fair-ingress overflow sheds
    /// included).
    pub dropped_by_slo: Vec<(SimDuration, u64)>,
    /// Peak fair-ingress (DRR) queue depth per tenant class, keyed by the
    /// class SLO, ascending. Empty when no fair ingress is installed.
    pub ingress_peak_depth: Vec<(SimDuration, u64)>,
    /// Arrivals admitted through the fair ingress per tenant class, keyed
    /// by the class SLO, ascending — the admitted traffic mix the DRR
    /// weights shape. Empty when no fair ingress is installed.
    pub ingress_admitted: Vec<(SimDuration, u64)>,
    /// Total wire time spent transmitting (Fig. 14c's breakdown).
    pub transmission_busy: SimDuration,
    /// Simulated makespan of the run.
    pub makespan: SimDuration,
    /// Events popped off the engine's coordinator loop (the benchmark's
    /// per-event denominator). Deterministic — a pure function of the
    /// workload, identical at any shard count — but *not* part of
    /// [`RunSummary`]: it measures the runtime, not the policy.
    pub events_processed: u64,
}

impl RunReport {
    /// Number of patches that completed.
    #[must_use]
    pub fn patches_completed(&self) -> usize {
        self.patches.len()
    }

    /// Fraction of patches that missed their SLO.
    #[must_use]
    pub fn slo_violation_rate(&self) -> f64 {
        if self.patches.is_empty() {
            return 0.0;
        }
        self.patches.iter().filter(|p| p.violated()).count() as f64 / self.patches.len() as f64
    }

    /// Total Eqn. (1) cost.
    #[must_use]
    pub fn total_cost(&self) -> Dollars {
        self.platform.total_cost
    }

    /// Total uplink bytes.
    #[must_use]
    pub fn total_bytes(&self) -> Bytes {
        self.link.bytes
    }

    /// Mean end-to-end patch latency.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        if self.patches.is_empty() {
            return SimDuration::ZERO;
        }
        let total: f64 = self.patches.iter().map(|p| p.latency().as_secs_f64()).sum();
        SimDuration::from_secs_f64(total / self.patches.len() as f64)
    }

    /// Latency quantile (`q` in `[0, 1]`).
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> SimDuration {
        let mut cdf = EmpiricalCdf::new();
        cdf.extend(self.patches.iter().map(|p| p.latency().as_secs_f64()));
        SimDuration::from_secs_f64(cdf.quantile(q).unwrap_or(0.0))
    }

    /// All canvas efficiencies across batches (Fig. 10b / Fig. 13).
    #[must_use]
    pub fn canvas_efficiencies(&self) -> Vec<f64> {
        self.batches
            .iter()
            .flat_map(|b| b.efficiencies.iter().copied())
            .collect()
    }

    /// Mean patches per batch.
    #[must_use]
    pub fn mean_patches_per_batch(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches
            .iter()
            .map(|b| b.patch_count as f64)
            .sum::<f64>()
            / self.batches.len() as f64
    }

    /// Total function execution time (Fig. 14c's second bar).
    #[must_use]
    pub fn total_execution(&self) -> SimDuration {
        self.batches.iter().map(|b| b.execution).sum()
    }

    /// Per-tenant-class accounting: one row per distinct SLO observed in
    /// completed patches or admission drops, ascending by SLO. A run with
    /// one tenant class yields one row; shedding under a mixed-SLO
    /// scenario is where the rows diverge.
    #[must_use]
    pub fn tenant_breakdown(&self) -> Vec<TenantSummary> {
        fn row(rows: &mut Vec<TenantSummary>, slo: SimDuration) -> usize {
            let slo_s = slo.as_secs_f64();
            match rows.binary_search_by(|r| r.slo_s.partial_cmp(&slo_s).expect("finite SLO")) {
                Ok(at) => at,
                Err(at) => {
                    let fresh = TenantSummary {
                        slo_s,
                        ..TenantSummary::default()
                    };
                    rows.insert(at, fresh);
                    at
                }
            }
        }
        let mut rows: Vec<TenantSummary> = Vec::new();
        for p in &self.patches {
            let at = row(&mut rows, p.slo);
            rows[at].patches += 1;
            if p.violated() {
                rows[at].violations += 1;
            }
        }
        for &(slo, dropped) in &self.dropped_by_slo {
            let at = row(&mut rows, slo);
            rows[at].dropped += dropped;
        }
        for &(slo, peak) in &self.ingress_peak_depth {
            let at = row(&mut rows, slo);
            rows[at].peak_queued = peak;
        }
        for &(slo, admitted) in &self.ingress_admitted {
            let at = row(&mut rows, slo);
            rows[at].admitted = admitted;
        }
        rows
    }

    /// Collapses the run into its scalar digest — the per-cell record the
    /// experiment harness serialises into `BENCH_*.json`.
    #[must_use]
    pub fn summarize(&self) -> RunSummary {
        let eff = self.canvas_efficiencies();
        let mean_eff = if eff.is_empty() {
            0.0
        } else {
            eff.iter().sum::<f64>() / eff.len() as f64
        };
        let violations = self.patches.iter().filter(|p| p.violated()).count() as u64;
        let makespan_s = self.makespan.as_secs_f64();
        RunSummary {
            policy: self.policy.clone(),
            frames: self.frames,
            patches: self.patches_completed() as u64,
            batches: self.batches.len() as u64,
            violations,
            dropped_arrivals: self.dropped_arrivals,
            tenants: self.tenant_breakdown(),
            slo_attainment: 1.0 - self.slo_violation_rate(),
            mean_latency_s: self.mean_latency().as_secs_f64(),
            p50_latency_s: self.latency_quantile(0.5).as_secs_f64(),
            p99_latency_s: self.latency_quantile(0.99).as_secs_f64(),
            cost_usd: self.total_cost().get(),
            uplink_bytes: self.total_bytes().get(),
            invocations: self.platform.invocations,
            cold_starts: self.platform.cold_starts,
            mean_canvas_efficiency: mean_eff,
            mean_patches_per_batch: self.mean_patches_per_batch(),
            execution_total_s: self.total_execution().as_secs_f64(),
            transmission_total_s: self.transmission_busy.as_secs_f64(),
            makespan_s,
            throughput_pps: if makespan_s > 0.0 {
                self.patches_completed() as f64 / makespan_s
            } else {
                0.0
            },
        }
    }
}

/// One tenant class's slice of a run: completions, violations and
/// admission drops for every patch stamped with the same SLO.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    /// The class SLO, seconds (tenant identity: every camera of a class
    /// stamps the same SLO).
    pub slo_s: f64,
    /// Patches of this class that completed.
    pub patches: u64,
    /// Completed patches of this class that missed the SLO.
    pub violations: u64,
    /// Arrivals of this class shed at the ingress (admission drops and
    /// fair-ingress overflow sheds combined).
    pub dropped: u64,
    /// Arrivals of this class admitted through the fair ingress — the
    /// weighted mix the DRR shapes (0 when no fair ingress is installed;
    /// counts pre-tiling arrivals, so it can differ from `patches`).
    pub admitted: u64,
    /// Peak fair-ingress (DRR) queue depth of this class (0 when no fair
    /// ingress is installed).
    pub peak_queued: u64,
}

/// The scalar digest of one [`RunReport`] — every metric a sweep cell
/// records, and nothing that scales with the run length.
///
/// Values are plain numbers computed deterministically from the report,
/// so two digests of the same seeded run compare bit-for-bit equal
/// regardless of which thread produced them. `throughput_pps` is patches
/// per *simulated* second (patches / makespan): a scheduling regression
/// shows up as a drop here without any wall-clock noise entering the
/// serialized record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Policy under test.
    pub policy: String,
    /// Frames injected.
    pub frames: u64,
    /// Patches completed.
    pub patches: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Patches that missed their SLO.
    pub violations: u64,
    /// Work items shed at the ingress by admission control. **Not**
    /// counted in `patches` or `throughput_pps`: a policy that sheds 90%
    /// of traffic shows up here as drift, not as a throughput win.
    pub dropped_arrivals: u64,
    /// Per-tenant-class accounting (one row per distinct SLO, ascending).
    pub tenants: Vec<TenantSummary>,
    /// Fraction of patches that met their SLO.
    pub slo_attainment: f64,
    /// Mean end-to-end patch latency, seconds.
    pub mean_latency_s: f64,
    /// Median end-to-end patch latency, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end patch latency, seconds.
    pub p99_latency_s: f64,
    /// Total Eqn. (1) cost, dollars.
    pub cost_usd: f64,
    /// Total uplink bytes.
    pub uplink_bytes: u64,
    /// Function invocations served.
    pub invocations: u64,
    /// Cold starts among them.
    pub cold_starts: u64,
    /// Mean canvas efficiency across batches (stitching policies only).
    pub mean_canvas_efficiency: f64,
    /// Mean patches per batch.
    pub mean_patches_per_batch: f64,
    /// Total function execution time, seconds.
    pub execution_total_s: f64,
    /// Total wire time spent transmitting, seconds.
    pub transmission_total_s: f64,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Patches completed per simulated second.
    pub throughput_pps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(gen_us: u64, fin_us: u64, slo_ms: u64) -> PatchRecord {
        PatchRecord {
            patch: PatchId::new(gen_us),
            camera: CameraId::new(0),
            frame: FrameId::new(0),
            generated_at: SimTime::from_micros(gen_us),
            dispatched_at: SimTime::from_micros(gen_us + 1),
            finished_at: SimTime::from_micros(fin_us),
            slo: SimDuration::from_millis(slo_ms),
        }
    }

    fn report(patches: Vec<PatchRecord>) -> RunReport {
        RunReport {
            policy: "test".into(),
            patches,
            batches: vec![],
            link: LinkStats::default(),
            platform: PlatformStats::default(),
            frames: 1,
            frames_muted: 0,
            dropped_arrivals: 0,
            dropped_by_slo: vec![],
            ingress_peak_depth: vec![],
            ingress_admitted: vec![],
            transmission_busy: SimDuration::ZERO,
            makespan: SimDuration::from_secs(1),
            events_processed: 0,
        }
    }

    #[test]
    fn violation_rate_counts_late_patches() {
        let r = report(vec![
            record(0, 500_000, 1000),   // on time
            record(0, 1_500_000, 1000), // late
        ]);
        assert!((r.slo_violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_statistics() {
        let r = report(vec![record(0, 100_000, 1000), record(0, 300_000, 1000)]);
        assert_eq!(r.mean_latency(), SimDuration::from_millis(200));
        assert_eq!(r.latency_quantile(1.0), SimDuration::from_millis(300));
    }

    #[test]
    fn empty_report_is_sane() {
        let r = report(vec![]);
        assert_eq!(r.slo_violation_rate(), 0.0);
        assert_eq!(r.mean_latency(), SimDuration::ZERO);
    }

    #[test]
    fn summarize_digests_the_run() {
        let mut r = report(vec![
            record(0, 500_000, 1000),   // on time
            record(0, 1_500_000, 1000), // late
        ]);
        r.batches = vec![BatchRecord {
            dispatched_at: SimTime::ZERO,
            inputs: 1,
            patch_count: 2,
            execution: SimDuration::from_millis(100),
            cold: true,
            cost: Dollars::new(0.001),
            efficiencies: vec![0.5, 0.9],
        }];
        let s = r.summarize();
        assert_eq!(s.policy, "test");
        assert_eq!(s.patches, 2);
        assert_eq!(s.batches, 1);
        assert_eq!(s.violations, 1);
        assert!((s.slo_attainment - 0.5).abs() < 1e-12);
        assert!((s.mean_canvas_efficiency - 0.7).abs() < 1e-12);
        assert!((s.mean_patches_per_batch - 2.0).abs() < 1e-12);
        assert!((s.execution_total_s - 0.1).abs() < 1e-12);
        // makespan is 1 s in the fixture, so throughput = patches.
        assert!((s.throughput_pps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_empty_run_is_sane() {
        let s = report(vec![]).summarize();
        assert_eq!(s.patches, 0);
        assert_eq!(s.violations, 0);
        assert_eq!(s.slo_attainment, 1.0);
        assert_eq!(s.mean_canvas_efficiency, 0.0);
    }

    #[test]
    fn batch_aggregates() {
        let mut r = report(vec![]);
        r.batches = vec![
            BatchRecord {
                dispatched_at: SimTime::ZERO,
                inputs: 2,
                patch_count: 10,
                execution: SimDuration::from_millis(100),
                cold: true,
                cost: Dollars::new(0.001),
                efficiencies: vec![0.7, 0.8],
            },
            BatchRecord {
                dispatched_at: SimTime::ZERO,
                inputs: 1,
                patch_count: 5,
                execution: SimDuration::from_millis(50),
                cold: false,
                cost: Dollars::new(0.0005),
                efficiencies: vec![0.6],
            },
        ];
        assert_eq!(r.canvas_efficiencies(), vec![0.7, 0.8, 0.6]);
        assert!((r.mean_patches_per_batch() - 7.5).abs() < 1e-12);
        assert_eq!(r.total_execution(), SimDuration::from_millis(150));
    }
}
