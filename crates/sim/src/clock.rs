//! Clock abstraction of the live runtime.
//!
//! The discrete-event engine needs no clock object: "now" is the instant
//! of the event it last popped. The live runtime in `tangram-core`
//! (`LiveTangram`) reads whichever [`Clock`] its host injects — a
//! [`ManualClock`] under test, a wall-clock implementation in
//! `examples/quickstart.rs` — so the scheduler code is identical in both
//! worlds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tangram_types::time::SimTime;

/// Source of "now" for schedulers and platforms.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> SimTime;
}

/// A clock advanced explicitly by the simulation driver.
///
/// Cloning shares the underlying instant, so a scheduler holding a clone
/// observes every [`ManualClock::advance_to`] performed by the driver.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// Creates a clock at the simulation epoch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock to `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant — simulated time
    /// never flows backwards.
    pub fn advance_to(&self, at: SimTime) {
        // `fetch_max`: a rejected move leaves every clone of the clock
        // reading the later instant.
        let prev = self.micros.fetch_max(at.as_micros(), Ordering::SeqCst);
        assert!(
            prev <= at.as_micros(),
            "clock moved backwards: {prev} -> {}",
            at.as_micros()
        );
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_micros(500));
        assert_eq!(c.now(), SimTime::from_micros(500));
    }

    #[test]
    fn clones_share_the_instant() {
        let c = ManualClock::new();
        let view = c.clone();
        c.advance_to(SimTime::from_micros(123));
        assert_eq!(view.now(), SimTime::from_micros(123));
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn rejects_backwards_motion() {
        let c = ManualClock::new();
        c.advance_to(SimTime::from_micros(100));
        c.advance_to(SimTime::from_micros(99));
    }

    #[test]
    fn a_rejected_backwards_move_leaves_the_clock_where_it_was() {
        let c = ManualClock::new();
        c.advance_to(SimTime::from_micros(100));
        let view = c.clone();
        let moved_back =
            std::panic::catch_unwind(move || view.advance_to(SimTime::from_micros(99)));
        assert!(moved_back.is_err(), "a backwards move must panic");
        assert_eq!(c.now(), SimTime::from_micros(100));
    }

    #[test]
    fn trait_object_usable() {
        let c = ManualClock::new();
        c.advance_to(SimTime::from_micros(9));
        let dyn_clock: &dyn Clock = &c;
        assert_eq!(dyn_clock.now(), SimTime::from_micros(9));
    }
}
