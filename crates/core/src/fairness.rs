//! Weighted deficit-round-robin (DRR) fair ingress.
//!
//! The [`crate::admission::SloShedder`] protects the tightest tenant
//! class under overload by starving whole lower classes outright: past
//! the pressure threshold, *every* best-effort arrival is shed and the
//! admitted mix collapses to gold-only. Fairness decisions belong at the
//! point where work is enqueued, so this module adds the classic
//! ingress-side answer: a weighted DRR stage that sits *between*
//! admission and the batching policy.
//!
//! * Each tenant class (keyed by its SLO, tightest first) owns a bounded
//!   FIFO queue and a configured weight;
//! * a periodic dequeue tick (a [`crate::online::StreamEvent::DrrTick`]
//!   on the engine's event loop) runs one work-conserving DRR round:
//!   the `Σ weights × quantum` round budget is split across the
//!   *backlogged* classes in weight proportion (idle classes' credit is
//!   redistributed, not forfeited) and each backlogged class releases
//!   one queued item per whole credit to the scheduler, so the
//!   *service* rate splits in the weight ratio whenever more than one
//!   class is backlogged and never drops below the configured rate
//!   while any class holds work;
//! * overflow sheds at the ingress, and each class's overflow is charged
//!   to that class's own accounting (its deficit keeps accruing only for
//!   work it actually holds), so under a 2× overload the admitted
//!   traffic mix tracks the configured weights instead of collapsing to
//!   gold-only.
//!
//! The stage is completely deterministic — no RNG, no wall clock — so
//! engines that mount it keep the workspace's bit-for-bit
//! reproducibility guarantees.

use crate::online::Outbox;
use crate::policy::Arrival;
use std::collections::VecDeque;
use tangram_trace::TraceEvent;
use tangram_types::time::{SimDuration, SimTime};

/// One tenant class's DRR state.
#[derive(Debug)]
struct DrrClass {
    /// Class identity: the SLO its patches carry.
    slo: SimDuration,
    /// Service weight (credits earned per round per unit quantum).
    weight: f64,
    /// Accumulated service credit; one whole credit releases one item.
    deficit: f64,
    /// The class's bounded ingress queue.
    queue: VecDeque<Arrival>,
    /// Deepest the queue has been.
    peak_depth: u64,
    /// Arrivals accepted into the queue (the class's admitted traffic).
    admitted: u64,
}

/// Static configuration of a [`DrrIngress`].
#[derive(Debug, Clone, PartialEq)]
pub struct DrrConfig {
    /// `(class SLO, weight)` pairs; order is irrelevant (classes are kept
    /// ascending by SLO, tightest first). Weights must be positive.
    pub classes: Vec<(SimDuration, f64)>,
    /// Total ingress buffer, split across classes proportionally to their
    /// weights (at least one slot each). Because each class's service
    /// rate is proportional to its weight too, every class gets the same
    /// *time* depth: a full queue of any class clears in
    /// `queue_capacity × tick / (Σ weights × quantum)` seconds, so the
    /// bound doubles as a per-class ingress-delay bound.
    pub queue_capacity: usize,
    /// Credits earned per weight unit per service round. Together with
    /// [`DrrConfig::tick`] this sets the ingress service rate:
    /// `Σ weights × quantum / tick` items per second once every class is
    /// backlogged.
    pub quantum: f64,
    /// Interval between dequeue ticks on the engine's event loop.
    pub tick: SimDuration,
}

/// The weighted-DRR ingress stage: per-class bounded queues, quantum
/// refresh per service round, shed-on-overflow charged per class.
#[derive(Debug)]
pub struct DrrIngress {
    classes: Vec<DrrClass>,
    queue_capacity: usize,
    quantum: f64,
    tick: SimDuration,
    /// Whether a [`crate::online::StreamEvent::DrrTick`] is pending.
    drr_armed: bool,
    /// When the last service round ran — rounds keep the configured
    /// cadence even across idle gaps, so the tick interval is a genuine
    /// service-rate bound rather than a best case.
    drr_last_round: Option<SimTime>,
}

impl DrrIngress {
    /// Builds the stage.
    ///
    /// # Panics
    ///
    /// Panics on a zero queue capacity, a non-positive quantum or a
    /// non-positive weight (a zero-weight class would starve forever and
    /// keep the dequeue tick alive indefinitely).
    #[must_use]
    pub fn new(config: &DrrConfig) -> Self {
        assert!(config.queue_capacity > 0, "DRR needs room to queue");
        assert!(config.quantum > 0.0, "DRR quantum must be positive");
        let mut ingress = Self {
            classes: Vec::new(),
            queue_capacity: config.queue_capacity,
            quantum: config.quantum,
            tick: config.tick,
            drr_armed: false,
            drr_last_round: None,
        };
        for &(slo, weight) in &config.classes {
            assert!(weight > 0.0, "DRR weights must be positive");
            let at = ingress.class_index(slo);
            ingress.classes[at].weight = weight;
        }
        ingress
    }

    /// Items currently queued across all classes.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.classes.iter().map(|c| c.queue.len()).sum()
    }

    /// Peak queue depth per class, keyed by SLO ascending.
    #[must_use]
    pub fn peak_depths(&self) -> Vec<(SimDuration, u64)> {
        self.classes.iter().map(|c| (c.slo, c.peak_depth)).collect()
    }

    /// Admitted arrivals per class, keyed by SLO ascending — the admitted
    /// traffic mix the weights are meant to shape.
    #[must_use]
    pub fn admitted_by_class(&self) -> Vec<(SimDuration, u64)> {
        self.classes.iter().map(|c| (c.slo, c.admitted)).collect()
    }

    /// The slot index for `slo`, created (weight 1) on first sight so
    /// classes absent from the configured table still get fair — if
    /// unweighted — treatment.
    fn class_index(&mut self, slo: SimDuration) -> usize {
        match self.classes.binary_search_by_key(&slo, |c| c.slo) {
            Ok(at) => at,
            Err(at) => {
                self.classes.insert(
                    at,
                    DrrClass {
                        slo,
                        weight: 1.0,
                        deficit: 0.0,
                        queue: VecDeque::new(),
                        peak_depth: 0,
                        admitted: 0,
                    },
                );
                at
            }
        }
    }

    /// This class's slice of the shared buffer: weight-proportional
    /// (floored, at least one slot), so the slices never sum past the
    /// configured total unless the one-slot floor forces it. Classes
    /// learned after construction join the weight sum and shrink the
    /// configured classes' slices accordingly — prime the table up front
    /// when the tenant mix is known (the harness does).
    fn capacity_of(&self, at: usize) -> usize {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let share = self.classes[at].weight / total;
        ((self.queue_capacity as f64 * share).floor() as usize).max(1)
    }

    /// Queues an arrival on its class, or sheds it when the class's slice
    /// of the buffer is full — only the overflowing class is affected
    /// (other classes' queues and deficits are untouched) and the arrival
    /// is handed back for drop accounting.
    ///
    /// # Errors
    ///
    /// Returns the arrival itself when its class queue is at capacity.
    pub fn enqueue(&mut self, arrival: Arrival) -> Result<(), Arrival> {
        let at = self.class_index(arrival.info().slo);
        let capacity = self.capacity_of(at);
        let class = &mut self.classes[at];
        if class.queue.len() >= capacity {
            return Err(arrival);
        }
        class.queue.push_back(arrival);
        class.admitted += 1;
        class.peak_depth = class.peak_depth.max(class.queue.len() as u64);
        Ok(())
    }

    /// Runs one work-conserving DRR service round, returning the
    /// released items (classes ascending by SLO, FIFO within a class).
    ///
    /// Each round distributes the full `Σ weights × quantum` service
    /// budget across the *backlogged* classes in weight proportion: an
    /// idle class's share is not forfeited (as in textbook DRR) but
    /// redistributed, so the configured ingress service rate is
    /// delivered whenever any class holds work — with one class idle in
    /// a 3:1 mix, the active class's throughput matches a run where the
    /// idle class never existed. Idle classes still cannot *bank*
    /// credit: their deficit resets each round, so a returning class
    /// gets its fair share going forward, never a burst from the past.
    pub fn service_round(&mut self) -> Vec<Arrival> {
        let mut released = Vec::new();
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        let backlogged_weight: f64 = self
            .classes
            .iter()
            .filter(|c| !c.queue.is_empty())
            .map(|c| c.weight)
            .sum();
        // Work-conservation boost: backlogged classes split the idle
        // classes' credit in weight proportion (1.0 when every class is
        // backlogged, so fully loaded rounds match textbook DRR).
        let boost = if backlogged_weight > 0.0 {
            total_weight / backlogged_weight
        } else {
            1.0
        };
        for class in &mut self.classes {
            if class.queue.is_empty() {
                class.deficit = 0.0;
                continue;
            }
            class.deficit += class.weight * boost * self.quantum;
            while class.deficit >= 1.0 {
                let Some(arrival) = class.queue.pop_front() else {
                    class.deficit = 0.0;
                    break;
                };
                class.deficit -= 1.0;
                released.push(arrival);
            }
        }
        released
    }

    /// Engine entry point for an admitted arrival at `now`:
    /// [`DrrIngress::enqueue`], plus — when no tick is pending — the
    /// instant the engine must schedule one. The very first round fires
    /// immediately; afterwards rounds hold the tick cadence even across
    /// idle gaps, so the ingress service rate stays bounded. An arrival
    /// whose class queue is full comes back as the error.
    pub(crate) fn on_arrival(
        &mut self,
        now: SimTime,
        arrival: Arrival,
    ) -> Result<Option<SimTime>, Arrival> {
        self.enqueue(arrival)?;
        if self.drr_armed {
            return Ok(None);
        }
        self.drr_armed = true;
        Ok(Some(
            self.drr_last_round
                .map_or(now, |last| (last + self.tick).max(now)),
        ))
    }

    /// Engine entry point for a dequeue tick at `now`: one
    /// [`DrrIngress::service_round`], recorded in the trace, plus the
    /// instant of the next tick — `None` disarms the stage until the
    /// next arrival, once nothing is left queued.
    pub(crate) fn on_tick(
        &mut self,
        now: SimTime,
        out: &mut Outbox,
    ) -> (Vec<Arrival>, Option<SimTime>) {
        self.drr_last_round = Some(now);
        let released = self.service_round();
        let backlog = self.backlog();
        out.emit(
            now,
            TraceEvent::DrrRound {
                released: released.len() as u64,
                backlog: backlog as u64,
            },
        );
        self.drr_armed = backlog > 0;
        (released, self.drr_armed.then(|| now + self.tick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{CameraId, FrameId, PatchId};
    use tangram_types::patch::{Patch, PatchInfo};
    use tangram_types::units::Bytes;

    fn slo(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    fn arrival(id: u64, slo_ms: u64) -> Arrival {
        Arrival::Patch(Patch::new(
            PatchInfo {
                id: PatchId::new(id),
                camera: CameraId::new(0),
                frame: FrameId::new(0),
                rect: Rect::new(0, 0, 64, 64),
                generated_at: SimTime::ZERO,
                slo: slo(slo_ms),
            },
            Bytes::new(1024),
        ))
    }

    fn ingress(weights: &[(u64, f64)], capacity: usize, quantum: f64) -> DrrIngress {
        DrrIngress::new(&DrrConfig {
            classes: weights.iter().map(|&(ms, w)| (slo(ms), w)).collect(),
            queue_capacity: capacity,
            quantum,
            tick: SimDuration::from_millis(20),
        })
    }

    #[test]
    fn backlogged_classes_are_served_in_the_weight_ratio() {
        let mut drr = ingress(&[(800, 3.0), (1500, 1.0)], 2000, 1.0);
        for i in 0..400 {
            drr.enqueue(arrival(i, 800)).unwrap();
            drr.enqueue(arrival(400 + i, 1500)).unwrap();
        }
        let mut gold = 0usize;
        let mut lax = 0usize;
        for _ in 0..100 {
            for a in drr.service_round() {
                if a.info().slo == slo(800) {
                    gold += 1;
                } else {
                    lax += 1;
                }
            }
        }
        // 100 rounds × (3 + 1) credits: exactly 300 gold, 100 lax while
        // both queues stay backlogged.
        assert_eq!(gold, 300);
        assert_eq!(lax, 100);
        assert_eq!(drr.backlog(), 800 - 400);
    }

    #[test]
    fn overflow_sheds_only_the_full_class() {
        // Total buffer 8 splits 6:2 across the 3:1 weights.
        let mut drr = ingress(&[(800, 3.0), (1500, 1.0)], 8, 1.0);
        let shed = (0..5)
            .filter(|&i| drr.enqueue(arrival(i, 1500)).is_err())
            .count();
        // Best-effort overflowed; gold is untouched and still admits.
        assert_eq!(shed, 3);
        drr.enqueue(arrival(10, 800)).unwrap();
        assert_eq!(drr.backlog(), 3);
        assert_eq!(drr.peak_depths(), vec![(slo(800), 1), (slo(1500), 2)]);
    }

    #[test]
    fn buffer_splits_weight_proportionally() {
        let mut drr = ingress(&[(800, 3.0), (1500, 1.0)], 32, 1.0);
        for i in 0..100 {
            let _ = drr.enqueue(arrival(i, 800));
        }
        for i in 0..100 {
            let _ = drr.enqueue(arrival(200 + i, 1500));
        }
        // 32 total slots → 24 gold, 8 best-effort: every class's full
        // queue clears in the same time (cap_i / rate_i is constant).
        assert_eq!(drr.peak_depths(), vec![(slo(800), 24), (slo(1500), 8)]);
    }

    #[test]
    fn idle_credit_is_redistributed_not_banked() {
        let mut drr = ingress(&[(800, 3.0), (1500, 1.0)], 100, 1.0);
        // Both classes idle for many rounds; no credit may accumulate.
        for _ in 0..50 {
            assert!(drr.service_round().is_empty());
        }
        for i in 0..10 {
            drr.enqueue(arrival(i, 800)).unwrap();
        }
        // Work conservation: the sole backlogged class earns the full
        // 4-credit round budget (its own 3 plus the idle class's 1) —
        // but never a burst built from the 50 idle rounds.
        assert_eq!(drr.service_round().len(), 4);
    }

    #[test]
    fn work_conservation_matches_the_no_idle_class_oracle() {
        // One active class alongside an idle one must drain exactly as
        // fast as the same class configured alone.
        let mut with_idle = ingress(&[(800, 3.0), (1500, 1.0)], 2000, 0.7);
        let mut alone = ingress(&[(800, 4.0)], 2000, 0.7);
        for i in 0..200 {
            with_idle.enqueue(arrival(i, 800)).unwrap();
            alone.enqueue(arrival(i, 800)).unwrap();
        }
        for round in 0..40 {
            assert_eq!(
                with_idle.service_round().len(),
                alone.service_round().len(),
                "round {round}: idle-class credit must be redistributed"
            );
        }
    }

    #[test]
    fn fractional_quantum_accumulates_deficit_across_rounds() {
        let mut drr = ingress(&[(800, 1.0)], 100, 0.4);
        for i in 0..4 {
            drr.enqueue(arrival(i, 800)).unwrap();
        }
        // 0.4 credit per round: releases on rounds 3, 5, 8, 10.
        let released: Vec<usize> = (0..10).map(|_| drr.service_round().len()).collect();
        assert_eq!(released.iter().sum::<usize>(), 4);
        assert_eq!(released, vec![0, 0, 1, 0, 1, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn unknown_classes_are_learned_with_unit_weight() {
        let mut drr = ingress(&[(800, 3.0)], 10, 1.0);
        drr.enqueue(arrival(0, 2500)).unwrap();
        drr.enqueue(arrival(1, 800)).unwrap();
        let round = drr.service_round();
        assert_eq!(round.len(), 2);
        // Classes serve tightest-first.
        assert_eq!(round[0].info().slo, slo(800));
        assert_eq!(round[1].info().slo, slo(2500));
    }

    #[test]
    fn tick_arming_needs_no_engine() {
        let at = |ms: u64| SimTime::from_micros(ms * 1_000);
        // One item per round: quantum 1 on a single unit-weight class.
        let mut drr = ingress(&[(800, 1.0)], 100, 1.0);
        let arrive = |drr: &mut DrrIngress, ms: u64| {
            drr.on_arrival(at(ms), arrival(ms, 800))
                .expect("room to queue")
        };
        let mut out = Outbox::new(true);
        // The first round fires at `now`; while that tick is pending,
        // further arrivals arm nothing.
        assert_eq!(arrive(&mut drr, 5), Some(at(5)));
        assert_eq!(arrive(&mut drr, 6), None);
        // Backlogged rounds re-arm one tick (20 ms) ahead…
        let (released, next) = drr.on_tick(at(5), &mut out);
        assert_eq!((released.len(), next), (1, Some(at(25))));
        // …and the round that empties the queues disarms the stage.
        let (released, next) = drr.on_tick(at(25), &mut out);
        assert_eq!((released.len(), next), (1, None));
        // After an idle gap shorter than a tick the next round still
        // holds `last + tick`; after a longer one it fires at once.
        assert_eq!(arrive(&mut drr, 30), Some(at(45)));
        assert_eq!(drr.on_tick(at(45), &mut out).1, None);
        assert_eq!(arrive(&mut drr, 500), Some(at(500)));
        // Every round was recorded, in order, with what it left behind.
        let log = out.trace.expect("capturing").finish();
        let rounds: Vec<TraceEvent> = log.records.into_iter().map(|r| r.event).collect();
        let round = |released, backlog| TraceEvent::DrrRound { released, backlog };
        assert_eq!(rounds, [round(1, 1), round(1, 0), round(1, 0)]);
    }

    #[test]
    fn an_overflowing_arrival_arms_nothing() {
        // Capacity 1: the second arrival sheds without claiming a tick;
        // the one the first armed stays the only one pending.
        let mut drr = ingress(&[(800, 1.0)], 1, 1.0);
        let armed = drr.on_arrival(SimTime::ZERO, arrival(0, 800));
        assert_eq!(armed.ok(), Some(Some(SimTime::ZERO)));
        let shed = drr
            .on_arrival(SimTime::ZERO, arrival(1, 800))
            .expect_err("queue full");
        assert_eq!(shed.info().id, PatchId::new(1));
        let (released, next) = drr.on_tick(SimTime::ZERO, &mut Outbox::new(false));
        assert_eq!((released.len(), next), (1, None));
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weights_are_rejected() {
        let _ = ingress(&[(800, 0.0)], 10, 1.0);
    }
}
