//! First-class fault injection for the streaming engine.
//!
//! Failure modes are a declarative axis: a [`FaultSpec`] names a fault
//! kind and a time window, the engine schedules the window's start edge
//! through its event loop like any other
//! [`crate::online::StreamEvent`], and the actuation happens at the
//! choke points of the run — the shared uplink, the execute stage's
//! submit boundary, and the ingest stage's capture → deliver boundary.
//!
//! Determinism is preserved by construction:
//!
//! * faults that need randomness (latency tails, camera-flap storms)
//!   draw from dedicated [`DetRng`] forks derived via
//!   [`DetRng::derive_seed`] from the engine seed — never from a stream
//!   another subsystem consumes — so injecting a fault leaves every other
//!   draw sequence untouched;
//! * all actuation happens at four points of the one event loop (link,
//!   platform, submit, deliver), so a faulted run is byte-identical at
//!   any worker count — CI asserts this for a brownout + outage scenario
//!   in `tests/harness_determinism.rs`;
//! * camera flap is modelled as *mute windows*: the camera keeps
//!   capturing (its generator state and RNG advance identically), but
//!   frames captured inside a mute window are lost at the edge instead
//!   of entering the uplink, so a flap moves no other camera's draws.
//!
//! A run with an empty fault list is bit-for-bit identical to one that
//! never saw this module.

use tangram_sim::rng::DetRng;
use tangram_types::time::{SimDuration, SimTime};

/// What a fault does while its window is active.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The shared uplink carries nothing until the window ends: every
    /// in-flight and newly enqueued transfer is pushed past the window
    /// (store-and-forward behind [`tangram_net::Link::outage_until`]).
    LinkOutage,
    /// Result delivery grows a heavy tail: each batch dispatched inside
    /// the window has its completion delayed by
    /// `execution × (factor − 1) × L` where `L` is a mean-1 lognormal
    /// draw from the fault's own RNG fork. Instance occupancy is
    /// untouched — the backend is fine, the results are slow.
    LatencyTail {
        /// Mean completion-time inflation (must exceed 1).
        factor: f64,
    },
    /// Warm capacity evaporates: idle instances are evicted at the
    /// window's start edge and again before every submit inside the
    /// window, so each batch pays a fresh cold start.
    ColdStartStorm,
    /// Cameras flap on and off: every camera alternates up/down dwell
    /// times (exponential, mean `mean_up_s` / `mean_down_s`, drawn from
    /// a per-camera RNG fork) for the duration of the window; frames
    /// captured while down are lost at the edge and counted in
    /// [`crate::report::RunReport::frames_muted`].
    CameraFlap {
        /// Mean seconds a camera stays up between drops.
        mean_up_s: f64,
        /// Mean seconds a camera stays dark per drop.
        mean_down_s: f64,
    },
    /// The backend browns out: every execution sampled inside the window
    /// is multiplied by `factor` (the latency model's draw sequence is
    /// unchanged, so ending the window restores the exact no-fault
    /// timing).
    Brownout {
        /// Execution-time multiplier (must exceed 1).
        factor: f64,
    },
}

impl FaultKind {
    /// The kind's stable name — the tag scenario files and trace events
    /// use.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkOutage => "link_outage",
            FaultKind::LatencyTail { .. } => "latency_tail",
            FaultKind::ColdStartStorm => "cold_start_storm",
            FaultKind::CameraFlap { .. } => "camera_flap",
            FaultKind::Brownout { .. } => "brownout",
        }
    }
}

/// One fault window: a [`FaultKind`] active over
/// `[at_s, at_s + duration_s)` of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What happens.
    pub kind: FaultKind,
    /// Window start, seconds of simulated time.
    pub at_s: f64,
    /// Window length, seconds.
    pub duration_s: f64,
}

impl FaultSpec {
    /// The window's start instant.
    #[must_use]
    pub fn start(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.at_s)
    }

    /// The window's (exclusive) end instant.
    #[must_use]
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.at_s + self.duration_s)
    }

    /// Whether `now` falls inside the window.
    #[must_use]
    pub fn active_at(&self, now: SimTime) -> bool {
        self.start() <= now && now < self.end()
    }
}

/// Camera `cam`'s sorted `[start, end)` mute windows under every
/// camera-flap window of `faults`. A pure function of the engine seed,
/// the fault's position in the list and the camera index — each camera
/// flaps on its own RNG fork — so the ingest stage derives a camera's
/// windows when it is mounted, whatever the final fleet size.
pub(crate) fn mute_windows(seed: u64, faults: &[FaultSpec], cam: usize) -> Vec<(SimTime, SimTime)> {
    let root = DetRng::new(seed);
    let mut windows = Vec::new();
    for (index, fault) in faults.iter().enumerate() {
        let FaultKind::CameraFlap {
            mean_up_s,
            mean_down_s,
        } = fault.kind
        else {
            continue;
        };
        let fault_seed = root.derive_seed("fault", index as u64);
        let mut rng = DetRng::new(fault_seed).fork_indexed("camera", cam as u64);
        let mut t = fault.start();
        let end = fault.end();
        loop {
            t += SimDuration::from_secs_f64(rng.exponential(1.0 / mean_up_s.max(1e-9)));
            if t >= end {
                break;
            }
            let dark = SimDuration::from_secs_f64(rng.exponential(1.0 / mean_down_s.max(1e-9)));
            let dark_end = (t + dark).min(end);
            windows.push((t, dark_end));
            t = dark_end;
        }
    }
    windows.sort_unstable();
    windows
}

/// The execute stage's half of a fault list: the specs plus the
/// pre-derived per-fault RNG state of the latency tails. The same
/// `(seed, faults)` pair always yields the same plane; an empty list is
/// byte-invisible.
#[derive(Debug)]
pub(crate) struct FaultPlane {
    pub(crate) faults: Vec<FaultSpec>,
    /// Per-fault RNG for latency-tail draws (`None` for kinds that do
    /// not sample).
    tail_rngs: Vec<Option<DetRng>>,
}

impl FaultPlane {
    /// Derives the plane for `faults` under `seed`.
    pub(crate) fn install(seed: u64, faults: Vec<FaultSpec>) -> Self {
        let root = DetRng::new(seed);
        let tail_rngs = faults
            .iter()
            .enumerate()
            .map(|(index, fault)| {
                matches!(fault.kind, FaultKind::LatencyTail { .. }).then(|| {
                    DetRng::new(root.derive_seed("fault", index as u64)).fork("latency-tail")
                })
            })
            .collect();
        Self { faults, tail_rngs }
    }

    /// The combined brownout execution multiplier at `now` (1.0 when no
    /// brownout window is active).
    pub(crate) fn brownout_factor(&self, now: SimTime) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(now))
            .filter_map(|f| match f.kind {
                FaultKind::Brownout { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Whether a cold-start storm is active at `now`.
    pub(crate) fn cold_storm_active(&self, now: SimTime) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::ColdStartStorm) && f.active_at(now))
    }

    /// The extra result-delivery delay for a batch of execution time
    /// `execution` dispatched at `now`: one mean-1 lognormal draw per
    /// active latency-tail window. Draw count is a pure function of the
    /// dispatch sequence.
    pub(crate) fn tail_delay(&mut self, now: SimTime, execution: SimDuration) -> SimDuration {
        let mut extra = 0.0f64;
        for (fault, rng) in self.faults.iter().zip(self.tail_rngs.iter_mut()) {
            if let (FaultKind::LatencyTail { factor }, Some(rng)) = (&fault.kind, rng) {
                if fault.active_at(now) {
                    // lognormal(−σ²/2, σ) has mean 1: the *mean* delay is
                    // execution × (factor − 1), with a fat upper tail.
                    let sigma = 1.0f64;
                    let draw = rng.lognormal(-sigma * sigma / 2.0, sigma);
                    extra += execution.as_secs_f64() * (factor - 1.0).max(0.0) * draw;
                }
            }
        }
        SimDuration::from_secs_f64(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flap(at_s: f64, duration_s: f64) -> FaultSpec {
        FaultSpec {
            kind: FaultKind::CameraFlap {
                mean_up_s: 1.0,
                mean_down_s: 0.5,
            },
            at_s,
            duration_s,
        }
    }

    #[test]
    fn windows_are_half_open() {
        let f = FaultSpec {
            kind: FaultKind::LinkOutage,
            at_s: 2.0,
            duration_s: 3.0,
        };
        assert!(!f.active_at(SimTime::from_secs_f64(1.999)));
        assert!(f.active_at(SimTime::from_secs_f64(2.0)));
        assert!(f.active_at(SimTime::from_secs_f64(4.999)));
        assert!(!f.active_at(SimTime::from_secs_f64(5.0)));
    }

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            FaultKind::LinkOutage,
            FaultKind::LatencyTail { factor: 3.0 },
            FaultKind::ColdStartStorm,
            FaultKind::CameraFlap {
                mean_up_s: 1.0,
                mean_down_s: 1.0,
            },
            FaultKind::Brownout { factor: 2.0 },
        ];
        let names: Vec<&str> = kinds.iter().map(FaultKind::name).collect();
        assert_eq!(
            names,
            [
                "link_outage",
                "latency_tail",
                "cold_start_storm",
                "camera_flap",
                "brownout"
            ]
        );
    }

    #[test]
    fn flap_windows_stay_inside_the_fault_window() {
        let mut saw_any = false;
        for cam in 0..3 {
            for (s, e) in mute_windows(7, &[flap(1.0, 4.0)], cam) {
                saw_any = true;
                assert!(s >= SimTime::from_secs_f64(1.0));
                assert!(e <= SimTime::from_secs_f64(5.0));
                assert!(s < e);
            }
        }
        assert!(saw_any, "a 4 s window at mean_up 1 s should flap");
    }

    #[test]
    fn flap_windows_are_deterministic_and_per_camera() {
        let plan = |cam| mute_windows(7, &[flap(0.0, 10.0)], cam);
        assert_eq!(plan(0), plan(0), "same seed, same mute plan");
        assert_ne!(plan(0), plan(1), "cameras flap on independent forks");
    }

    #[test]
    fn brownout_factor_composes_and_defaults_to_one() {
        let plane = FaultPlane::install(
            1,
            vec![
                FaultSpec {
                    kind: FaultKind::Brownout { factor: 2.0 },
                    at_s: 1.0,
                    duration_s: 2.0,
                },
                FaultSpec {
                    kind: FaultKind::Brownout { factor: 3.0 },
                    at_s: 2.0,
                    duration_s: 2.0,
                },
            ],
        );
        assert_eq!(plane.brownout_factor(SimTime::from_secs_f64(0.5)), 1.0);
        assert_eq!(plane.brownout_factor(SimTime::from_secs_f64(1.5)), 2.0);
        assert_eq!(plane.brownout_factor(SimTime::from_secs_f64(2.5)), 6.0);
        assert_eq!(plane.brownout_factor(SimTime::from_secs_f64(4.5)), 1.0);
    }

    #[test]
    fn tail_delay_draws_only_inside_the_window() {
        let spec = FaultSpec {
            kind: FaultKind::LatencyTail { factor: 4.0 },
            at_s: 1.0,
            duration_s: 1.0,
        };
        let mut plane = FaultPlane::install(9, vec![spec]);
        let exec = SimDuration::from_millis(100);
        assert_eq!(
            plane.tail_delay(SimTime::ZERO, exec),
            SimDuration::ZERO,
            "outside the window no draw happens"
        );
        let inside = plane.tail_delay(SimTime::from_secs_f64(1.5), exec);
        assert!(inside > SimDuration::ZERO);
    }
}
