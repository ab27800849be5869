//! SLO-aware ingress admission control.
//!
//! Under overload, a serverless video pipeline has exactly one cheap
//! place to give ground: the ingress, *before* a patch consumes uplink
//! scheduling state, batching work and GPU time it can no longer convert
//! into an on-time result. The streaming engine consults one
//! [`AdmissionPolicy`] for every work item that reaches the cloud
//! scheduler, fed an [`AdmissionSignals`] snapshot (scheduler queue depth
//! plus the serverless backend's [`BackendSnapshot`]: in-flight
//! invocations, backlog, earliest feasible start). The policies are a
//! closed set, the same two `AdmissionSpec` declares:
//!
//! * [`AdmissionPolicy::Always`] — the open door (behaviourally identical
//!   to running with no policy at all);
//! * [`AdmissionPolicy::SloShedder`] — the SLO-aware [`SloShedder`]:
//!   estimates whether the arriving patch can still meet its tenant
//!   deadline given current queue and in-flight state, sheds *doomed*
//!   work outright, and under sustained pressure sheds lower-class
//!   tenants (laxer SLOs) first so the tightest class keeps its
//!   attainment.
//!
//! Every drop is counted per tenant class in
//! [`crate::report::RunReport::dropped_by_slo`] and surfaces in the
//! [`crate::report::RunSummary`] digest, so shedding is visible to BENCH
//! reports and the CI gate rather than masquerading as throughput.

use crate::online::Outbox;
use crate::policy::Arrival;
use tangram_serverless::platform::BackendSnapshot;
use tangram_trace::TraceEvent;
use tangram_types::time::{SimDuration, SimTime};

/// Verdict of admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Hand the work item to the batching policy.
    Accept,
    /// Shed it at the ingress (counted in
    /// [`crate::report::RunReport::dropped_arrivals`] and per class in
    /// [`crate::report::RunReport::dropped_by_slo`]).
    Drop,
}

/// The load signals an admission policy reads before deciding. A fresh
/// snapshot is taken per arrival; building it never mutates the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSignals {
    /// Admitted work not yet dispatched, summed over two units: the
    /// batching policy's [`queue_len`](crate::policy::BatchingPolicy::queue_len)
    /// in tiles, plus the fair ingress's backlog in untiled arrivals (an
    /// oversized patch waiting there counts 1, not its tiles).
    pub queued: usize,
    /// Backend pressure: in-flight invocations, remaining backlog, and
    /// when a batch submitted now would start executing.
    pub backend: BackendSnapshot,
}

/// An ingress admission policy: decides, per arriving work item, whether
/// the batching policy ever sees it.
#[derive(Debug, Clone)]
pub enum AdmissionPolicy {
    /// Admits everything — the open door. An engine running it behaves
    /// byte-identically to one with no policy, trace records aside.
    Always,
    /// The SLO-aware shedder.
    SloShedder(SloShedder),
}

impl AdmissionPolicy {
    /// Decide the verdict for `arrival` at `now` given `signals`.
    pub fn admit(
        &mut self,
        now: SimTime,
        arrival: &Arrival,
        signals: &AdmissionSignals,
    ) -> Admission {
        match self {
            AdmissionPolicy::Always => Admission::Accept,
            AdmissionPolicy::SloShedder(shedder) => shedder.admit(now, arrival, signals),
        }
    }
}

/// The SLO-aware shedder: predicts the arriving item's completion from
/// queue depth, backend parallelism and the earliest feasible start, and
/// sheds
///
/// 1. **doomed work** — items whose predicted completion already misses
///    their own deadline (serving them burns GPU time for a guaranteed
///    violation), and
/// 2. **lower classes under pressure** — once the predicted ingress
///    delay exceeds `pressure × (tightest SLO)`, items of any laxer
///    class are shed pre-emptively so the tightest ("gold") class keeps
///    its slack.
///
/// Tenant classes are the distinct SLOs observed in traffic; prime them
/// up front with [`SloShedder::with_classes`] when the mix is known (the
/// harness does, from the scenario's tenant axis) so the first arrivals
/// of a lax class are not mistaken for the tightest.
#[derive(Debug, Clone)]
pub struct SloShedder {
    /// Estimated per-item service time on one instance (queue drain is
    /// scaled by backend parallelism).
    per_item: SimDuration,
    /// Fraction of the tightest SLO the predicted ingress delay may reach
    /// before lower classes are shed.
    pressure: f64,
    /// Distinct tenant SLOs seen or primed, tightest first.
    classes: Vec<SimDuration>,
}

impl SloShedder {
    /// A shedder with the given per-item service estimate and the default
    /// pressure threshold (half the tightest SLO).
    #[must_use]
    pub fn new(per_item: SimDuration) -> Self {
        Self {
            per_item,
            pressure: 0.5,
            classes: Vec::new(),
        }
    }

    /// Overrides the pressure threshold (fraction of the tightest SLO).
    #[must_use]
    pub fn with_pressure(mut self, pressure: f64) -> Self {
        self.pressure = pressure.max(0.0);
        self
    }

    /// Primes the tenant-class table (distinct SLOs; order irrelevant).
    #[must_use]
    pub fn with_classes(mut self, slos: &[SimDuration]) -> Self {
        for &slo in slos {
            self.note_class(slo);
        }
        self
    }

    fn note_class(&mut self, slo: SimDuration) {
        if let Err(at) = self.classes.binary_search(&slo) {
            self.classes.insert(at, slo);
        }
    }

    /// Predicted completion of an item admitted at `now`: the backend's
    /// earliest feasible start, plus the standing queue, the item itself
    /// *and* the backend's residual in-flight backlog drained at
    /// `per_item / parallelism`.
    ///
    /// `earliest_start` only says when the *first* slot frees; if the
    /// pool were uniformly busy until then it would absorb
    /// `parallelism × (earliest_start − now)` of work, so any in-flight
    /// backlog beyond that horizon (a staggered or deep backlog — or one
    /// invisible to `earliest_start` entirely because a warm instance
    /// happens to be idle) still stands between the queued items and the
    /// GPU and is folded into the drain estimate.
    #[must_use]
    pub fn predicted_completion(&self, now: SimTime, signals: &AdmissionSignals) -> SimTime {
        let parallelism = signals
            .backend
            .max_instances
            .unwrap_or_else(|| signals.backend.live_instances.max(1))
            .max(1);
        let start = signals.backend.earliest_start.max(now);
        let covered = start.since(now).mul_f64(parallelism as f64);
        let residual_backlog = signals.backend.backlog.saturating_sub(covered);
        let drain = (self.per_item.mul_f64((signals.queued + 1) as f64) + residual_backlog)
            .mul_f64(1.0 / parallelism as f64);
        start + drain
    }

    fn admit(&mut self, now: SimTime, arrival: &Arrival, signals: &AdmissionSignals) -> Admission {
        let info = arrival.info();
        self.note_class(info.slo);
        let predicted = self.predicted_completion(now, signals);
        // Doomed: the item cannot meet its own deadline even if admitted
        // right now — any class.
        if predicted > info.deadline() {
            return Admission::Drop;
        }
        // Pressure shedding: lax classes yield before the tightest class
        // starts feeling the queue.
        let tightest = self.classes[0];
        if info.slo > tightest && predicted.since(now) > tightest.mul_f64(self.pressure) {
            return Admission::Drop;
        }
        Admission::Accept
    }
}

/// The engine's admit stage: the optional [`AdmissionPolicy`] (none
/// admits everything, like [`AdmissionPolicy::Always`] minus the trace
/// records) plus the one ledger of ingress drops — admission verdicts
/// and fair-ingress overflow alike — per tenant class.
#[derive(Default)]
pub(crate) struct Admit {
    pub(crate) policy: Option<AdmissionPolicy>,
    pub(crate) dropped_arrivals: u64,
    /// Drops per tenant class, keyed by SLO, ascending.
    pub(crate) dropped_by_slo: Vec<(SimDuration, u64)>,
}

impl Admit {
    /// Whether `arrival` is admitted at `now`: the verdict is recorded in
    /// the trace before a drop is counted against the arrival's class.
    pub(crate) fn on_arrival(
        &mut self,
        now: SimTime,
        arrival: &Arrival,
        signals: &AdmissionSignals,
        out: &mut Outbox,
    ) -> bool {
        let Some(policy) = self.policy.as_mut() else {
            return true;
        };
        let admitted = policy.admit(now, arrival, signals) != Admission::Drop;
        let info = arrival.info();
        out.emit(
            now,
            TraceEvent::AdmissionVerdict {
                patch: info.id.raw(),
                slo_us: info.slo.as_micros(),
                admitted,
                queued: signals.queued as u64,
                in_flight: signals.backend.in_flight as u64,
                earliest_start_us: signals
                    .backend
                    .earliest_start
                    .since(SimTime::ZERO)
                    .as_micros(),
            },
        );
        if !admitted {
            self.count_drop(info.slo);
        }
        admitted
    }

    /// Counts one ingress drop against the tenant class `slo`.
    pub(crate) fn count_drop(&mut self, slo: SimDuration) {
        self.dropped_arrivals += 1;
        match self.dropped_by_slo.binary_search_by_key(&slo, |&(s, _)| s) {
            Ok(at) => self.dropped_by_slo[at].1 += 1,
            Err(at) => self.dropped_by_slo.insert(at, (slo, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::patch::{Patch, PatchInfo};
    use tangram_types::units::Bytes;

    fn arrival(generated_us: u64, slo_ms: u64) -> Arrival {
        Arrival::Patch(Patch::new(
            PatchInfo {
                id: PatchId::new(1),
                camera: CameraId::new(0),
                frame: FrameId::new(0),
                rect: Rect::new(0, 0, 64, 64),
                generated_at: SimTime::from_micros(generated_us),
                slo: SimDuration::from_millis(slo_ms),
            },
            Bytes::new(1024),
        ))
    }

    fn signals(
        queued: usize,
        earliest_start_us: u64,
        max_instances: Option<usize>,
    ) -> AdmissionSignals {
        AdmissionSignals {
            queued,
            backend: BackendSnapshot {
                in_flight: 0,
                live_instances: max_instances.unwrap_or(1),
                max_instances,
                earliest_start: SimTime::from_micros(earliest_start_us),
                backlog: SimDuration::ZERO,
            },
        }
    }

    #[test]
    fn always_admit_accepts_under_any_pressure() {
        let mut policy = AdmissionPolicy::Always;
        let s = signals(10_000, 9_000_000, Some(1));
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 100), &s),
            Admission::Accept
        );
    }

    #[test]
    fn shedder_drops_doomed_work_of_any_class() {
        let mut policy = SloShedder::new(SimDuration::from_millis(50))
            .with_classes(&[SimDuration::from_millis(800)]);
        // Deadline at 800 ms, but the backend cannot start before 900 ms:
        // even the tightest (only) class is doomed and shed.
        let s = signals(0, 900_000, Some(1));
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 800), &s),
            Admission::Drop
        );
        // Same class with a free backend is admitted.
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 800), &signals(0, 0, Some(1))),
            Admission::Accept
        );
    }

    #[test]
    fn shedder_sheds_lax_class_first_under_pressure() {
        let gold = SimDuration::from_millis(800);
        let lax = SimDuration::from_millis(1500);
        let mut policy = SloShedder::new(SimDuration::from_millis(50))
            .with_pressure(0.5)
            .with_classes(&[gold, lax]);
        // 16 queued items on one instance → 850 ms predicted delay:
        // above the 400 ms pressure bound, below the lax deadline.
        let s = signals(16, 0, Some(1));
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 1500), &s),
            Admission::Drop,
            "lax class yields under pressure"
        );
        // One step shallower (800 ms predicted == gold's deadline) gold
        // still fits while the pressure bound keeps shedding lax.
        let s = signals(15, 0, Some(1));
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 800), &s),
            Admission::Accept,
            "gold is admitted while lax is shed"
        );
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 1500), &s),
            Admission::Drop
        );
    }

    #[test]
    fn shedder_scales_queue_drain_by_backend_parallelism() {
        let policy = SloShedder::new(SimDuration::from_millis(100));
        // 7 queued + the arrival itself = 8 items; 4-way backend → 200 ms.
        let s = signals(7, 0, Some(4));
        assert_eq!(
            policy.predicted_completion(SimTime::ZERO, &s),
            SimTime::from_micros(200_000)
        );
        // Same queue on one instance → 800 ms.
        let s = signals(7, 0, Some(1));
        assert_eq!(
            policy.predicted_completion(SimTime::ZERO, &s),
            SimTime::from_micros(800_000)
        );
    }

    #[test]
    fn shedder_folds_backend_backlog_into_the_drain_estimate() {
        let policy = SloShedder::new(SimDuration::from_millis(50));
        // Empty scheduler queue, an idle warm instance (earliest start =
        // now), but 8 s of in-flight work across the 4-way pool: the
        // backlog — invisible to `earliest_start` — must still appear in
        // the drain. 8 s / 4 instances + 50 ms / 4 = 2.0125 s.
        let mut s = signals(0, 0, Some(4));
        s.backend.backlog = SimDuration::from_secs(8);
        assert_eq!(
            policy.predicted_completion(SimTime::ZERO, &s),
            SimTime::from_micros(2_012_500)
        );
        // The same deep backlog dooms an 800 ms-SLO arrival outright.
        let mut shedder = SloShedder::new(SimDuration::from_millis(50))
            .with_classes(&[SimDuration::from_millis(800)]);
        assert_eq!(
            shedder.admit(SimTime::ZERO, &arrival(0, 800), &s),
            Admission::Drop,
            "a deep backlog with an empty scheduler queue must shed"
        );
        // Backlog already covered by a capped backend's earliest start is
        // not double-counted: 4 instances busy until 1 s carry 4 s of
        // work; prediction stays earliest_start + the item's own drain.
        let mut capped = signals(0, 1_000_000, Some(4));
        capped.backend.backlog = SimDuration::from_secs(4);
        assert_eq!(
            policy.predicted_completion(SimTime::ZERO, &capped),
            SimTime::from_micros(1_012_500)
        );
    }

    #[test]
    fn shedder_learns_classes_from_traffic() {
        let mut policy = SloShedder::new(SimDuration::from_millis(10));
        let relaxed = signals(0, 0, Some(4));
        // Unprimed: the lax class arrives first and is (correctly)
        // admitted while the system is idle.
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 1500), &relaxed),
            Admission::Accept
        );
        // Once gold traffic appears, the lax class yields under pressure.
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 800), &relaxed),
            Admission::Accept
        );
        let pressured = signals(200, 0, Some(1));
        assert_eq!(
            policy.admit(SimTime::ZERO, &arrival(0, 1500), &pressured),
            Admission::Drop
        );
    }

    #[test]
    fn drop_ledger_stays_sorted_and_sums_to_the_total() {
        let mut admit = Admit {
            policy: Some(AdmissionPolicy::SloShedder(SloShedder::new(
                SimDuration::from_millis(50),
            ))),
            ..Admit::default()
        };
        let open = signals(0, 0, Some(1));
        // No start before 9 s: every class below is doomed.
        let doomed = signals(0, 9_000_000, Some(1));
        let mut out = Outbox::new(true);
        // Verdict drops, fed out of SLO order…
        for slo_ms in [1500, 800, 3000, 800] {
            assert!(!admit.on_arrival(SimTime::ZERO, &arrival(0, slo_ms), &doomed, &mut out));
        }
        // …an admitted arrival, which the ledger ignores…
        assert!(admit.on_arrival(SimTime::ZERO, &arrival(0, 800), &open, &mut out));
        // …and a fair-ingress overflow charged to a class of its own.
        admit.count_drop(SimDuration::from_millis(1000));
        assert_eq!(out.trace.map(|sink| sink.len()), Some(5), "one per verdict");
        let ms = SimDuration::from_millis;
        assert_eq!(
            admit.dropped_by_slo,
            vec![(ms(800), 2), (ms(1000), 1), (ms(1500), 1), (ms(3000), 1)]
        );
        assert_eq!(admit.dropped_arrivals, 5);
        assert_eq!(
            admit.dropped_by_slo.iter().map(|&(_, n)| n).sum::<u64>(),
            admit.dropped_arrivals
        );
    }

    #[test]
    fn an_unpoliced_stage_admits_silently() {
        let mut admit = Admit::default();
        let mut out = Outbox::new(true);
        let flooded = signals(9_999, 0, Some(1));
        assert!(admit.on_arrival(SimTime::ZERO, &arrival(0, 800), &flooded, &mut out));
        assert_eq!(out.trace.map(|sink| sink.len()), Some(0));
        assert_eq!(admit.dropped_arrivals, 0);
    }
}
