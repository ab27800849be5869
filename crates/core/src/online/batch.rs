//! The batch stage: the policy under test and the one live wake-up timer.

use crate::engine::EngineConfig;
use crate::policy::{BatchingPolicy, PolicyOutput};
use tangram_infer::estimator::LatencyEstimator;
use tangram_types::time::SimTime;

/// The boxed [`BatchingPolicy`] plus what the engine tracks on its
/// behalf.
pub(crate) struct Batch {
    pub(crate) policy: Box<dyn BatchingPolicy>,
    /// Whether the policy reads ingress load signals (admission-aware
    /// scheduling): a fresh snapshot then precedes its arrivals even if
    /// no admission policy is installed.
    pub(super) reads_signals: bool,
    /// Earliest outstanding wake-up instant, if one is scheduled.
    timer_armed: Option<SimTime>,
}

impl Batch {
    /// The stage around `config`'s policy; a Tangram scheduler takes
    /// `estimator` (a [`Plan::estimator`](super::Plan::estimator)) or
    /// profiles its own.
    pub(crate) fn new(config: &EngineConfig, estimator: Option<LatencyEstimator>) -> Self {
        Self::with_policy(
            config.build_policy(estimator),
            config.scheduler_admission_aware,
        )
    }

    /// The stage around an already-built policy: the engine's by way of
    /// [`Batch::new`], the live runtime's directly.
    pub(crate) fn with_policy(policy: Box<dyn BatchingPolicy>, reads_signals: bool) -> Self {
        Self {
            policy,
            reads_signals,
            timer_armed: None,
        }
    }

    /// A wake-up fired: the armed one's slot is free again once `now`
    /// has reached it, and the policy re-arms via `next_wake` if it still
    /// wants one (possibly at this same instant). The engine's timers
    /// fire at exactly their instants, the armed one first; a polling
    /// host may deliver it late, and a tick that comes early is one more
    /// stale tick to the policy.
    pub(crate) fn on_timer(&mut self, now: SimTime) -> PolicyOutput {
        if self.timer_armed.is_some_and(|armed| armed <= now) {
            self.timer_armed = None;
        }
        self.policy.on_tick(now)
    }

    /// End of stream: the policy gives up whatever it still holds, so no
    /// wake-up is owed any more.
    pub(crate) fn flush(&mut self, now: SimTime) -> PolicyOutput {
        self.timer_armed = None;
        self.policy.flush(now)
    }

    /// The instant the engine must schedule a timer for, or `None` when
    /// one at or before the requested wake-up is already outstanding: it
    /// fires first and the policy re-arms, so a duplicate would only
    /// flood the queue with O(arrivals) dead timers.
    pub(crate) fn arm(&mut self, now: SimTime, next_wake: Option<SimTime>) -> Option<SimTime> {
        let wake = next_wake?.max(now);
        if self.timer_armed.is_some_and(|armed| wake >= armed) {
            return None;
        }
        self.timer_armed = Some(wake);
        Some(wake)
    }

    /// The armed wake-up: the instant a host without an event queue must
    /// deliver its next [`Batch::on_timer`] by.
    pub(crate) fn armed(&self) -> Option<SimTime> {
        self.timer_armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1_000)
    }

    #[test]
    fn same_or_later_wakes_share_one_timer_and_an_earlier_one_re_arms() {
        let mut batch = Batch::new(&EngineConfig::default(), None);
        assert_eq!(batch.arm(at(0), None), None, "no request, no timer");
        assert_eq!(batch.arm(at(0), Some(at(50))), Some(at(50)));
        // N arrivals asking for the same or a later wake-up arm nothing.
        for later in [50, 50, 60, 75, 900] {
            assert_eq!(batch.arm(at(1), Some(at(later))), None);
        }
        // An earlier request takes the slot over.
        assert_eq!(batch.arm(at(2), Some(at(20))), Some(at(20)));
        assert_eq!(batch.arm(at(2), Some(at(20))), None);
        // A wake-up in the past fires now, never before.
        assert_eq!(batch.arm(at(10), Some(at(5))), Some(at(10)));
    }

    #[test]
    fn a_fired_timer_frees_its_slot_only_at_its_own_instant() {
        let mut batch = Batch::new(&EngineConfig::default(), None);
        assert_eq!(batch.arm(at(0), Some(at(30))), Some(at(30)));
        let _ = batch.on_timer(at(30));
        assert_eq!(batch.arm(at(30), Some(at(50))), Some(at(50)));
        // A superseded timer firing at another instant leaves the slot
        // taken.
        let _ = batch.on_timer(at(40));
        assert_eq!(batch.arm(at(40), Some(at(50))), None, "50 ms still armed");
        // A polling host may deliver the wake-up late; the slot is freed
        // all the same, and a flush leaves none armed.
        let _ = batch.on_timer(at(60));
        assert_eq!(batch.armed(), None);
        assert_eq!(batch.arm(at(60), Some(at(90))), Some(at(90)));
        let _ = batch.flush(at(70));
        assert_eq!(batch.armed(), None);
    }
}
