//! Run reports: everything an experiment needs to print its table/figure.

use crate::policy::{BatchSpec, CompletionFeedback};
use tangram_net::LinkStats;
use tangram_serverless::platform::{InvocationOutcome, PlatformStats};
use tangram_sim::stats::nearest_rank_index;
use tangram_types::ids::{CameraId, FrameId, PatchId};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::{Bytes, Dollars};

/// Per-patch end-to-end outcome.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
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
}

/// The engine's account stage: every dispatched batch is booked here —
/// one [`BatchRecord`], one [`PatchRecord`] per patch, its canvas
/// efficiencies onto one list — and the records become the [`RunReport`]
/// when the run ends.
#[derive(Default)]
pub(crate) struct Account {
    pub(crate) patch_records: Vec<PatchRecord>,
    pub(crate) batch_records: Vec<BatchRecord>,
    pub(crate) efficiencies: Vec<f64>,
}

impl Account {
    /// Books `spec`, dispatched at `now` and executed as `outcome`;
    /// returns the feedback its completion event will carry.
    pub(crate) fn on_dispatch(
        &mut self,
        now: SimTime,
        spec: &BatchSpec,
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
        });
        self.efficiencies
            .extend_from_slice(&spec.canvas_efficiencies);
        CompletionFeedback {
            finished: outcome.finished,
            execution: outcome.execution,
            violations,
            inputs: spec.inputs,
        }
    }
}

/// The full outcome of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy under test.
    pub policy: String,
    /// Per-patch outcomes.
    pub patches: Vec<PatchRecord>,
    /// Per-invocation outcomes.
    pub batches: Vec<BatchRecord>,
    /// Every batch's canvas efficiencies (stitching policies only), in
    /// dispatch order.
    pub efficiencies: Vec<f64>,
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
    /// Total wire time spent transmitting (Fig. 14c's breakdown): the
    /// uplink's [`LinkStats::busy`].
    pub transmission_busy: SimDuration,
    /// Simulated makespan of the run.
    pub makespan: SimDuration,
    /// Events popped off the engine's coordinator loop (the benchmark's
    /// per-event denominator). Deterministic — a pure function of the
    /// workload — but *not* part of
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

    /// Latency quantile (`q` in `[0, 1]`, nearest rank; zero for an empty
    /// run). Allocates one `u64` per patch on every call;
    /// [`Self::summarize`] does not go through it.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> SimDuration {
        let mut micros: Vec<u64> = self
            .patches
            .iter()
            .map(|p| p.latency().as_micros())
            .collect();
        select_quantile(&mut micros, q, self.patches.len()).0
    }

    /// All canvas efficiencies across batches (Fig. 10b / Fig. 13), for
    /// the rows that plot their distribution.
    #[must_use]
    pub fn canvas_efficiencies(&self) -> &[f64] {
        &self.efficiencies
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
        let mut rows = Vec::new();
        for p in &self.patches {
            let at = row(&mut rows, p.slo);
            rows[at].patches += 1;
            rows[at].violations += u64::from(p.violated());
        }
        self.ingress_rows(rows)
    }

    /// Adds the ingress's per-class drops, peaks and admissions to the
    /// completions tallied in `rows`.
    fn ingress_rows(&self, mut rows: Vec<TenantSummary>) -> Vec<TenantSummary> {
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
    /// experiment harness serialises into `BENCH_*.json`. One pass over
    /// `patches` and two selections; every value is, bit for bit, what
    /// the per-metric methods above return — so the latency sum runs in
    /// patch order (the order of `f64` additions is part of the bytes).
    #[must_use]
    pub fn summarize(&self) -> RunSummary {
        let n = self.patches.len();
        let mut violations = 0u64;
        let mut latency_sum = 0.0;
        let mut micros = Vec::with_capacity(n);
        // `tenant_breakdown`'s rows, counted here; a run of patches of one
        // class (the common case) reuses its row without a search.
        let (mut tenants, mut last) = (Vec::new(), (None, 0));
        for p in &self.patches {
            let latency = p.latency();
            let violated = u64::from(p.violated());
            if last.0 != Some(p.slo) {
                last = (Some(p.slo), row(&mut tenants, p.slo));
            }
            tenants[last.1].patches += 1;
            tenants[last.1].violations += violated;
            violations += violated;
            latency_sum += latency.as_secs_f64();
            micros.push(latency.as_micros());
        }
        let (p99, at_most_p99) = select_quantile(&mut micros, 0.99, n);
        let (p50, _) = select_quantile(at_most_p99, 0.5, n);
        let eff_sum = self.efficiencies.iter().fold(0.0, |sum, e| sum + e);
        let eff_count = self.efficiencies.len();
        // An empty sum divides by one, not zero: 0 / 1 = 0.
        let per_patch = n.max(1) as f64;
        let makespan_s = self.makespan.as_secs_f64();
        RunSummary {
            policy: self.policy.clone(),
            frames: self.frames,
            patches: n as u64,
            batches: self.batches.len() as u64,
            violations,
            dropped_arrivals: self.dropped_arrivals,
            tenants: self.ingress_rows(tenants),
            slo_attainment: 1.0 - violations as f64 / per_patch,
            mean_latency_s: SimDuration::from_secs_f64(latency_sum / per_patch).as_secs_f64(),
            p50_latency_s: p50.as_secs_f64(),
            p99_latency_s: p99.as_secs_f64(),
            cost_usd: self.total_cost().get(),
            uplink_bytes: self.total_bytes().get(),
            invocations: self.platform.invocations,
            cold_starts: self.platform.cold_starts,
            mean_canvas_efficiency: eff_sum / eff_count.max(1) as f64,
            mean_patches_per_batch: self.mean_patches_per_batch(),
            execution_total_s: self.total_execution().as_secs_f64(),
            transmission_total_s: self.transmission_busy.as_secs_f64(),
            makespan_s,
            throughput_pps: if makespan_s > 0.0 {
                n as f64 / makespan_s
            } else {
                0.0
            },
        }
    }
}

/// The index of `slo`'s row in `rows` (ascending by SLO), inserting an
/// empty row when the class is new.
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

/// The nearest-rank `q`-quantile of a run's `n` latencies by selection
/// (zero for an empty run). `micros` holds the smallest of them — all `n`
/// at first; returned with the value is the prefix ending at it, where a
/// lower quantile selects next. Integer microseconds order as their
/// `as_secs_f64` does: an ordered list of seconds holds the same value.
fn select_quantile(micros: &mut [u64], q: f64, n: usize) -> (SimDuration, &mut [u64]) {
    if micros.is_empty() {
        return (SimDuration::ZERO, micros);
    }
    let at = nearest_rank_index(q, n);
    let value = *micros.select_nth_unstable(at).1;
    (SimDuration::from_micros(value), &mut micros[..=at])
}

/// One tenant class's slice of a run: completions, violations and
/// admission drops for every patch stamped with the same SLO.
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    use tangram_sim::rng::DetRng;
    use tangram_sim::stats::EmpiricalCdf;

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
            efficiencies: vec![],
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
        }];
        r.efficiencies = vec![0.5, 0.9];
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

    /// The digest assembled from the public per-metric methods and a
    /// sorted [`EmpiricalCdf`] of the latencies in seconds — what
    /// `summarize` was before it became one pass and two selections.
    fn digest_by_the_public_methods(r: &RunReport) -> RunSummary {
        let eff = r.canvas_efficiencies();
        let mut cdf = EmpiricalCdf::new();
        cdf.extend(r.patches.iter().map(|p| p.latency().as_secs_f64()));
        let makespan_s = r.makespan.as_secs_f64();
        RunSummary {
            policy: r.policy.clone(),
            frames: r.frames,
            patches: r.patches_completed() as u64,
            batches: r.batches.len() as u64,
            violations: r.patches.iter().filter(|p| p.violated()).count() as u64,
            dropped_arrivals: r.dropped_arrivals,
            tenants: r.tenant_breakdown(),
            slo_attainment: 1.0 - r.slo_violation_rate(),
            mean_latency_s: r.mean_latency().as_secs_f64(),
            p50_latency_s: cdf.quantile(0.5).unwrap_or(0.0),
            p99_latency_s: cdf.quantile(0.99).unwrap_or(0.0),
            cost_usd: r.total_cost().get(),
            uplink_bytes: r.total_bytes().get(),
            invocations: r.platform.invocations,
            cold_starts: r.platform.cold_starts,
            mean_canvas_efficiency: if eff.is_empty() {
                0.0
            } else {
                eff.iter().sum::<f64>() / eff.len() as f64
            },
            mean_patches_per_batch: r.mean_patches_per_batch(),
            execution_total_s: r.total_execution().as_secs_f64(),
            transmission_total_s: r.transmission_busy.as_secs_f64(),
            makespan_s,
            throughput_pps: if makespan_s > 0.0 {
                r.patches_completed() as f64 / makespan_s
            } else {
                0.0
            },
        }
    }

    /// Every `f64` of a digest as its bit pattern: `==` on floats would
    /// let `-0.0` pass for `0.0`.
    fn float_bits(s: &RunSummary) -> Vec<u64> {
        [
            s.slo_attainment,
            s.mean_latency_s,
            s.p50_latency_s,
            s.p99_latency_s,
            s.cost_usd,
            s.mean_canvas_efficiency,
            s.mean_patches_per_batch,
            s.execution_total_s,
            s.transmission_total_s,
            s.makespan_s,
            s.throughput_pps,
        ]
        .iter()
        .chain(s.tenants.iter().map(|t| &t.slo_s))
        .map(|x| x.to_bits())
        .collect()
    }

    /// A seeded report of `n` patches: one to three SLO classes, latencies
    /// either drawn from a handful of values (heavy ties) or spread over
    /// ten seconds, every patch late / none / mixed, and batches that
    /// carry zero to three efficiencies each.
    fn random_report(rng: &mut DetRng, n: usize) -> RunReport {
        let classes = 1 + rng.index(3);
        let tied = rng.chance(0.5);
        // 0: every patch violates; 1: none does; 2: mixed.
        let lateness = rng.index(3);
        let patches = (0..n)
            .map(|_| {
                let gen_us = rng.index(5_000_000) as u64;
                let latency_us = if tied {
                    1 + 250_000 * rng.index(4) as u64
                } else {
                    1 + rng.index(10_000_000) as u64
                };
                let slo_ms = match lateness {
                    0 => 0,
                    1 => 20_000 + rng.index(classes) as u64,
                    _ => 400 * (1 + rng.index(classes) as u64),
                };
                record(gen_us, gen_us + latency_us, slo_ms)
            })
            .collect();
        let mut r = report(patches);
        let mut efficiencies = Vec::new();
        r.batches = (0..rng.index(40))
            .map(|_| {
                let batch = BatchRecord {
                    dispatched_at: SimTime::ZERO,
                    inputs: 1 + rng.index(4),
                    patch_count: rng.index(60),
                    execution: SimDuration::from_micros(rng.index(300_000) as u64),
                    cold: rng.chance(0.1),
                    cost: Dollars::new(rng.uniform() * 1e-3),
                };
                efficiencies.extend((0..rng.index(4)).map(|_| rng.uniform()));
                batch
            })
            .collect();
        r.efficiencies = efficiencies;
        r.makespan = SimDuration::from_micros(rng.index(30_000_000) as u64);
        r.transmission_busy = SimDuration::from_micros(rng.index(9_000_000) as u64);
        if rng.chance(0.5) {
            r.dropped_arrivals = 7;
            r.dropped_by_slo = vec![(SimDuration::from_millis(400), 7)];
            r.ingress_peak_depth = vec![(SimDuration::from_millis(600), 3)];
            r.ingress_admitted = vec![(SimDuration::from_millis(400), 11)];
        }
        r
    }

    #[test]
    fn summarize_equals_the_per_metric_methods_bit_for_bit() {
        let mut rng = DetRng::new(0x5e1ec7);
        for case in 0..240 {
            // The edge sizes in turn (one patch is where the p50 and p99
            // ranks coincide), ~5,000 patches a dozen times, and anything
            // up to 300 for the rest.
            let n = match case % 8 {
                k @ 0..=4 => [0, 1, 2, 3, 100][k],
                5 if case < 96 => 5_000 - rng.index(100),
                _ => 4 + rng.index(297),
            };
            let r = random_report(&mut rng, n);
            let (got, want) = (r.summarize(), digest_by_the_public_methods(&r));
            assert_eq!(got, want, "case {case}, {n} patches");
            assert_eq!(
                float_bits(&got),
                float_bits(&want),
                "case {case}, {n} patches"
            );
            let mut cdf = EmpiricalCdf::new();
            cdf.extend(r.patches.iter().map(|p| p.latency().as_secs_f64()));
            for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
                assert_eq!(
                    r.latency_quantile(q).as_secs_f64().to_bits(),
                    cdf.quantile(q).unwrap_or(0.0).to_bits(),
                    "case {case}, {n} patches, q = {q}"
                );
            }
        }
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
            },
            BatchRecord {
                dispatched_at: SimTime::ZERO,
                inputs: 1,
                patch_count: 5,
                execution: SimDuration::from_millis(50),
                cold: false,
                cost: Dollars::new(0.0005),
            },
        ];
        r.efficiencies = vec![0.7, 0.8, 0.6];
        assert_eq!(r.canvas_efficiencies(), [0.7, 0.8, 0.6]);
        assert!((r.mean_patches_per_batch() - 7.5).abs() < 1e-12);
        assert_eq!(r.total_execution(), SimDuration::from_millis(150));
    }
}
