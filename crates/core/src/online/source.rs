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

    /// The next frame of edge output, or `None` when the stream ends.
    fn next_frame(&mut self) -> Option<TraceFrame>;

    /// Whether the stream has no further frames (consulted after
    /// [`CameraSource::next_frame`] to decide if another capture is
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

/// Replays a pre-built [`CameraTrace`] with the legacy closed-loop
/// pacing: the next capture waits for both the frame interval and the
/// shared uplink ("bandwidth simulates the arrival speed of patches").
#[derive(Debug, Clone)]
pub struct TraceReplaySource {
    trace: CameraTrace,
    cursor: usize,
}

impl TraceReplaySource {
    /// Wraps a trace for replay.
    #[must_use]
    pub fn new(trace: CameraTrace) -> Self {
        Self { trace, cursor: 0 }
    }
}

impl CameraSource for TraceReplaySource {
    fn camera(&self) -> CameraId {
        self.trace.camera
    }

    fn next_frame(&mut self) -> Option<TraceFrame> {
        let frame = self.trace.frames.get(self.cursor).cloned()?;
        self.cursor += 1;
        Some(frame)
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.trace.frames.len()
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

/// How a generated camera paces its captures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed-rate capture gated on the uplink — the trace-replay pacing.
    ClosedLoop,
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

    fn next_frame(&mut self) -> Option<TraceFrame> {
        if self.emitted >= self.budget {
            return None;
        }
        let mut frame = self.pool[self.emitted % self.pool.len()].clone();
        frame.frame = tangram_types::ids::FrameId::new(self.emitted as u64);
        for patch in &mut frame.patches {
            // Bit 38 marks generated ids, keeping them disjoint from the
            // partition pipeline's (camera << 40 | counter) scheme and
            // the engine's full-frame (1 << 39) scheme.
            patch.info.id =
                PatchId::new((u64::from(self.camera.raw()) << 40) | (1 << 38) | self.next_patch);
            patch.info.camera = self.camera;
            patch.info.frame = frame.frame;
            self.next_patch += 1;
        }
        self.emitted += 1;
        Some(frame)
    }

    fn is_exhausted(&self) -> bool {
        self.emitted >= self.budget
    }

    fn next_capture(
        &mut self,
        now: SimTime,
        frame_interval: SimDuration,
        uplink_free: SimTime,
    ) -> SimTime {
        match self.process {
            ArrivalProcess::ClosedLoop => (now + frame_interval).max(uplink_free),
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
