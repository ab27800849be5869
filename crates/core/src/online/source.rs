//! The event alphabet of the engine's loop ([`StreamEvent`]) and the
//! camera generators that feed it ([`CameraSource`]).

use crate::policy::{Arrival, CompletionFeedback};
use crate::workload::{CameraTrace, TraceFrame};
use tangram_sim::rng::DetRng;
use tangram_types::ids::{CameraId, InvocationId, PatchId};
use tangram_types::time::{SimDuration, SimTime};

/// The event alphabet of the streaming runtime.
#[derive(Debug)]
pub enum StreamEvent {
    /// Camera `cam` comes online and captures its first frame.
    CameraJoin {
        /// Index into the engine's camera table.
        cam: usize,
    },
    /// Camera `cam` goes offline; pending captures are cancelled.
    CameraLeave {
        /// Index into the engine's camera table.
        cam: usize,
    },
    /// Camera `cam` captures its next frame.
    Capture {
        /// Index into the engine's camera table.
        cam: usize,
    },
    /// A work item reached the cloud scheduler.
    PatchArrival {
        /// The delivered patch or frame.
        arrival: Arrival,
    },
    /// A policy wake-up (the scheduler's armed `t_remain`).
    InvokeTimer,
    /// A fair-ingress dequeue tick: the engine's
    /// [`crate::fairness::DrrIngress`] runs one weighted service round
    /// and releases the earned items to the batching policy. Re-armed
    /// every [`crate::fairness::DrrConfig::tick`] while the ingress holds
    /// work.
    DrrTick,
    /// A previously submitted serverless invocation finished.
    FunctionComplete {
        /// The platform's invocation id, acknowledged on delivery.
        id: InvocationId,
        /// Feedback handed to the policy.
        feedback: CompletionFeedback,
    },
    /// A [`crate::faults::FaultSpec`] window opened: the engine applies
    /// the fault's start-edge actuation (link outage, warm-instance
    /// eviction) and records the window in the trace. Window-duration
    /// behaviour (brownout multipliers, latency tails, mute windows) is
    /// evaluated statically at the actuation points, so no end event —
    /// which could stretch the makespan past the last real work — is
    /// needed.
    FaultStart {
        /// Index into the engine's installed fault table.
        fault: usize,
    },
}

/// A per-tenant service class: the SLO stamped on every patch the
/// tenant's cameras produce.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Display name ("gold", "best-effort", …).
    pub name: String,
    /// The tenant's end-to-end deadline.
    pub slo: SimDuration,
}

impl TenantClass {
    /// A tenant class with the given name and SLO.
    #[must_use]
    pub fn new(name: &str, slo: SimDuration) -> Self {
        Self {
            name: name.to_string(),
            slo,
        }
    }
}

/// A camera as the engine sees it: a generator of edge output.
pub trait CameraSource {
    /// The camera's identity (stamped on its patches).
    fn camera(&self) -> CameraId;

    /// The next frame of edge output, lent until the next call, or
    /// `None` when the stream ends.
    fn capture(&mut self) -> Option<&TraceFrame>;

    /// The next frame as an owned copy, for a caller that keeps frames.
    fn next_frame(&mut self) -> Option<TraceFrame> {
        self.capture().cloned()
    }

    /// Whether the stream has no further frames (consulted after
    /// [`CameraSource::capture`] to decide if another capture is
    /// scheduled).
    fn is_exhausted(&self) -> bool;

    /// When the camera captures again after a frame taken at `now`.
    ///
    /// `frame_interval` is the engine-configured capture period and
    /// `uplink_free` the instant the shared uplink drains this frame's
    /// upload — closed-loop sources wait for both, open-loop sources
    /// ignore the link.
    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime;

    /// Per-tenant SLO override (`None` → the engine default).
    fn slo(&self) -> Option<SimDuration> {
        None
    }
}

/// Replays a pre-built [`CameraTrace`] in place with the legacy
/// closed-loop pacing: the next capture waits for both the frame interval
/// and the shared uplink ("bandwidth simulates the arrival speed of
/// patches").
#[derive(Debug, Clone)]
pub struct TraceReplaySource<'a> {
    camera: CameraId,
    frames: &'a [TraceFrame],
    cursor: usize,
}

impl<'a> TraceReplaySource<'a> {
    /// Replays `trace`, borrowed for the run.
    #[must_use]
    pub fn new(trace: &'a CameraTrace) -> Self {
        Self {
            camera: trace.camera,
            frames: &trace.frames,
            cursor: 0,
        }
    }
}

impl CameraSource for TraceReplaySource<'_> {
    fn camera(&self) -> CameraId {
        self.camera
    }

    fn capture(&mut self) -> Option<&TraceFrame> {
        let frame = self.frames.get(self.cursor)?;
        self.cursor += 1;
        Some(frame)
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.frames.len()
    }

    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime {
        (now + frame_interval).max(uplink_free)
    }
}

/// How a generated camera paces its captures: open-loop, whatever the
/// uplink does (the closed-loop pacing is [`TraceReplaySource`]'s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at mean `fps` frames per second.
    Poisson {
        /// Mean frame rate.
        fps: f64,
    },
    /// Markov-modulated on/off process: exponential dwell times in a calm
    /// and a burst state, each with its own Poisson rate.
    Bursty {
        /// Frame rate in the calm state.
        calm_fps: f64,
        /// Frame rate in the burst state.
        burst_fps: f64,
        /// Mean dwell time in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell time in the burst state, seconds.
        mean_burst_s: f64,
    },
    /// Sinusoidal day/night rate curve: the instantaneous Poisson rate
    /// swings between `min_fps` and `max_fps` over `period_s`.
    Diurnal {
        /// Trough frame rate.
        min_fps: f64,
        /// Peak frame rate.
        max_fps: f64,
        /// Full day length, seconds.
        period_s: f64,
    },
}

/// Floor applied to sampled rates so the exponential draw stays defined.
const MIN_RATE: f64 = 1e-6;

/// A generated camera: cycles the frames of a pre-built content pool
/// under a seeded [`ArrivalProcess`], re-stamping frame and patch ids so
/// cycled content stays unique. The generator is exhausted after
/// `budget` frames (churny runs usually cut it short with a
/// [`StreamEvent::CameraLeave`] instead).
#[derive(Debug, Clone)]
pub struct GeneratedSource {
    camera: CameraId,
    pool: Vec<TraceFrame>,
    /// The frame it lends: refilled from the pool on every capture, so
    /// once it has held the pool's largest frame it never grows again.
    current: TraceFrame,
    emitted: usize,
    budget: usize,
    process: ArrivalProcess,
    rng: DetRng,
    slo: Option<SimDuration>,
    in_burst: bool,
    state_until: SimTime,
    next_patch: u64,
}

impl GeneratedSource {
    /// Builds a generator over `trace`'s frames.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no frames.
    #[must_use]
    pub fn new(trace: &CameraTrace, budget: usize, process: ArrivalProcess, rng: DetRng) -> Self {
        assert!(
            !trace.frames.is_empty(),
            "generated source needs a non-empty content pool"
        );
        Self {
            camera: trace.camera,
            pool: trace.frames.clone(),
            current: trace.frames[0].clone(),
            emitted: 0,
            budget,
            process,
            rng,
            slo: None,
            // Start in the "burst" state with an expired dwell so the
            // first capture flips to calm and samples a fresh dwell time.
            in_burst: true,
            state_until: SimTime::ZERO,
            next_patch: 0,
        }
    }

    /// Stamps this camera's patches with a tenant SLO class.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &TenantClass) -> Self {
        self.slo = Some(tenant.slo);
        self
    }

    fn gap(&mut self, rate: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(rate.max(MIN_RATE)))
    }
}

impl CameraSource for GeneratedSource {
    fn camera(&self) -> CameraId {
        self.camera
    }

    fn capture(&mut self) -> Option<&TraceFrame> {
        if self.emitted >= self.budget {
            return None;
        }
        let frame = &mut self.current;
        frame.clone_from(&self.pool[self.emitted % self.pool.len()]);
        frame.frame = tangram_types::ids::FrameId::new(self.emitted as u64);
        for patch in &mut frame.patches {
            // Bit 38 marks generated ids, keeping them disjoint from the
            // partition pipeline's (camera << 40 | counter) scheme.
            patch.info.id =
                PatchId::new((u64::from(self.camera.raw()) << 40) | (1 << 38) | self.next_patch);
            patch.info.camera = self.camera;
            patch.info.frame = frame.frame;
            self.next_patch += 1;
        }
        self.emitted += 1;
        Some(&self.current)
    }

    fn is_exhausted(&self) -> bool {
        self.emitted >= self.budget
    }

    fn next_capture(&mut self, now: SimTime, _: SimDuration, _: SimTime) -> SimTime {
        match self.process {
            ArrivalProcess::Poisson { fps } => now + self.gap(fps),
            ArrivalProcess::Bursty {
                calm_fps,
                burst_fps,
                mean_calm_s,
                mean_burst_s,
            } => {
                // Advance the modulating chain through *every* dwell that
                // elapsed since the last capture — a long capture gap can
                // span several on/off flips, and flipping only once would
                // let the chain fall behind `now` for good. The dwell gap
                // is floored at 1 µs because `from_secs_f64` rounds tiny
                // exponential draws down to zero, which would stall the
                // loop.
                while now >= self.state_until {
                    self.in_burst = !self.in_burst;
                    let dwell = if self.in_burst {
                        mean_burst_s
                    } else {
                        mean_calm_s
                    };
                    let dwell_gap = self
                        .gap(1.0 / dwell.max(MIN_RATE))
                        .max(SimDuration::from_micros(1));
                    self.state_until += dwell_gap;
                }
                let fps = if self.in_burst { burst_fps } else { calm_fps };
                now + self.gap(fps)
            }
            ArrivalProcess::Diurnal {
                min_fps,
                max_fps,
                period_s,
            } => {
                let phase = now.since(SimTime::ZERO).as_secs_f64() / period_s.max(MIN_RATE);
                let swing = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                let rate = min_fps + (max_fps - min_fps) * swing;
                now + self.gap(rate)
            }
        }
    }

    fn slo(&self) -> Option<SimDuration> {
        self.slo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangram_types::geometry::Rect;
    use tangram_types::ids::{FrameId, SceneId};
    use tangram_types::patch::{Patch, PatchInfo};
    use tangram_types::units::Bytes;

    /// A frame of `patches` patches stamped with a camera the sources do
    /// not own, so a missed re-stamp shows.
    fn frame(index: u64, patches: u64) -> TraceFrame {
        let patch = |k: u64| {
            let info = PatchInfo::new(
                PatchId::new(100 * index + k),
                CameraId::new(9),
                FrameId::new(index),
                Rect::new(0, 0, 10 + k as u32, 20),
                SimTime::ZERO,
                SimDuration::from_secs(1),
            );
            Patch::new(info, Bytes::new(1_000 * index + k))
        };
        TraceFrame {
            frame: FrameId::new(index),
            patches: (0..patches).map(patch).collect(),
            roi_count: index as usize,
        }
    }

    /// Every frame a source yields, as owned copies.
    fn drain(source: &mut dyn CameraSource) -> Vec<String> {
        std::iter::from_fn(|| source.next_frame())
            .map(|f| format!("{f:?}"))
            .collect()
    }

    /// Both sources over a pool of uneven frames (three patches, then
    /// one, none and two) cycled twice: what each lends equals an
    /// independent copy, so a lent frame never keeps patches or bytes of
    /// the frame it held before.
    #[test]
    fn lent_frames_equal_independent_copies_of_the_pool() {
        let trace = CameraTrace {
            camera: CameraId::new(3),
            scene: SceneId::new(1),
            frames: vec![frame(0, 3), frame(1, 1), frame(2, 0), frame(3, 2)],
        };
        let replayed: Vec<String> = trace.frames.iter().map(|f| format!("{f:?}")).collect();
        assert_eq!(drain(&mut TraceReplaySource::new(&trace)), replayed);

        let budget = 2 * trace.frames.len();
        let mut next_patch = 0;
        let generated: Vec<String> = (0..budget)
            .map(|k| {
                let mut f = trace.frames[k % trace.frames.len()].clone();
                f.frame = FrameId::new(k as u64);
                for p in &mut f.patches {
                    p.info.id = PatchId::new((3 << 40) | (1 << 38) | next_patch);
                    p.info.camera = CameraId::new(3);
                    p.info.frame = f.frame;
                    next_patch += 1;
                }
                format!("{f:?}")
            })
            .collect();
        let process = ArrivalProcess::Poisson { fps: 5.0 };
        let mut source = GeneratedSource::new(&trace, budget, process, DetRng::new(1));
        assert_eq!(drain(&mut source), generated);
        assert!(source.is_exhausted());
    }
}
