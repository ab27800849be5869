//! The ingest stage: the camera table, the optional shard plane that
//! generates for it, and the shared uplink every capture drains into.

use super::{CameraSource, Outbox, StreamEvent};
use crate::engine::EngineConfig;
use crate::policy::Arrival;
use crate::shard::{
    materialize_frame, MaterializeKind, MaterializeSpec, ShardCamera, ShardCapture, ShardSet,
};
use tangram_net::{Link, LinkConfig};
use tangram_trace::TraceEvent;
use tangram_types::credit::CREDIT_WINDOW;
use tangram_types::ids::CameraId;
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Bytes;

struct CameraSlot {
    /// `None` while the source lives on a shard thread.
    source: Option<Box<dyn CameraSource>>,
    /// The source's identity, cached so trace events survive the move.
    camera: CameraId,
    /// When the camera was scheduled to join the stream.
    join_at: SimTime,
    active: bool,
    /// Sorted `[start, end)` windows in which a camera-flap fault keeps
    /// the camera dark (see [`crate::faults::mute_windows`]).
    muted: Vec<(SimTime, SimTime)>,
}

/// Cameras in, patch arrivals out: every capture — generated inline or
/// pre-computed by a shard — is materialised into wire items, serialised
/// over the shared [`Link`] and scheduled as
/// [`StreamEvent::PatchArrival`]s.
pub(crate) struct Ingest {
    cameras: Vec<CameraSlot>,
    pub(super) link: Link,
    /// How frames become wire items — shared verbatim with the shards.
    spec: MaterializeSpec,
    edge_delay: SimDuration,
    /// Requested shard count (1 = fully inline, the byte-compare oracle).
    shards: usize,
    /// How far a shard may run ahead of the coordinator.
    credit_window: usize,
    /// The live shard plane of a sharded run.
    shard_set: Option<ShardSet>,
    pub(super) frames_injected: u64,
    /// Frames captured inside a camera-flap mute window and lost at the
    /// edge (never materialised onto the uplink).
    pub(super) frames_muted: u64,
    pub(super) transmission_busy: SimDuration,
}

impl Ingest {
    /// An empty camera table on `config`'s uplink.
    pub(crate) fn new(config: &EngineConfig, shards: usize, credit_window: Option<usize>) -> Self {
        Self {
            cameras: Vec::new(),
            link: Link::new(LinkConfig::mbps(config.bandwidth_mbps)),
            spec: MaterializeSpec {
                kind: MaterializeKind::of(config.policy),
                default_slo: config.slo,
                frame_interval: SimDuration::from_secs_f64(1.0 / config.max_fps),
            },
            edge_delay: config.edge_delay,
            shards: shards.max(1),
            credit_window: credit_window.unwrap_or(CREDIT_WINDOW).max(1),
            shard_set: None,
            frames_injected: 0,
            frames_muted: 0,
            transmission_busy: SimDuration::ZERO,
        }
    }

    /// Cameras registered so far (the next camera's index).
    pub(crate) fn cameras(&self) -> usize {
        self.cameras.len()
    }

    /// Registers a camera joining at `at`, dark during `muted`.
    pub(crate) fn add_camera(
        &mut self,
        at: SimTime,
        source: Box<dyn CameraSource>,
        muted: Vec<(SimTime, SimTime)>,
    ) {
        self.cameras.push(CameraSlot {
            camera: source.camera(),
            source: Some(source),
            join_at: at,
            active: false,
            muted,
        });
    }

    /// Moves eligible camera sources onto shard threads, now that the
    /// table is final. A no-op for one-shard runs, runs with fewer than
    /// two eligible cameras, and closed-loop sources. Only camera-local
    /// generation work (frame cloning, RNG draws, id stamping) leaves the
    /// coordinator — see the `crate::shard` module for the model.
    pub(crate) fn mount_shards(&mut self) {
        if self.shards <= 1 {
            return;
        }
        let eligible: Vec<usize> = (0..self.cameras.len())
            .filter(|&cam| {
                self.cameras[cam]
                    .source
                    .as_ref()
                    .is_some_and(|s| s.link_independent())
            })
            .collect();
        if eligible.len() < 2 {
            return;
        }
        let shards = self.shards.min(eligible.len());
        let mut partitions: Vec<Vec<ShardCamera>> = (0..shards).map(|_| Vec::new()).collect();
        for (k, &cam) in eligible.iter().enumerate() {
            let slot = &mut self.cameras[cam];
            let source = slot.source.take().expect("eligible camera has a source");
            partitions[k % shards].push((cam, slot.join_at, source));
        }
        self.shard_set = Some(ShardSet::spawn(
            partitions,
            self.spec,
            self.cameras.len(),
            self.credit_window,
        ));
    }

    /// Stops the shard threads: any speculative captures beyond what the
    /// coordinator consumed are discarded.
    pub(crate) fn shutdown(&mut self) {
        if let Some(set) = self.shard_set.take() {
            set.shutdown();
        }
    }

    /// Camera `cam` comes online and captures its first frame.
    pub(crate) fn on_join(&mut self, now: SimTime, cam: usize, out: &mut Outbox) {
        let camera = u64::from(self.cameras[cam].camera.raw());
        out.emit(now, TraceEvent::CameraJoin { camera });
        self.cameras[cam].active = true;
        self.on_capture(now, cam, out);
    }

    /// Camera `cam` goes offline; its pending captures become no-ops.
    pub(crate) fn on_leave(&mut self, now: SimTime, cam: usize, out: &mut Outbox) {
        let camera = u64::from(self.cameras[cam].camera.raw());
        out.emit(now, TraceEvent::CameraLeave { camera });
        self.cameras[cam].active = false;
    }

    /// Camera `cam` captures its next frame, if it is still online.
    pub(crate) fn on_capture(&mut self, now: SimTime, cam: usize, out: &mut Outbox) {
        if !self.cameras[cam].active {
            return;
        }
        let Some(source) = self.cameras[cam].source.as_mut() else {
            self.capture_sharded(now, cam, out);
            return;
        };
        // The inline path: the source lives on the coordinator and is
        // driven synchronously (the 1-shard oracle, and every closed-loop
        // source in any run).
        let Some(frame) = source.next_frame() else {
            self.cameras[cam].active = false;
            return;
        };
        let slo = source.slo().unwrap_or(self.spec.default_slo);
        let camera = self.cameras[cam].camera;
        let arrivals = materialize_frame(&frame, camera, slo, now, self.spec.kind);
        self.deliver(now, cam, arrivals, out);

        let uplink_free = self.link.busy_until();
        let slot = &mut self.cameras[cam];
        let source = slot
            .source
            .as_mut()
            .expect("inline camera keeps its source");
        let next = source.next_capture(now, self.spec.frame_interval, uplink_free);
        if !source.is_exhausted() && slot.active {
            out.schedule(next, StreamEvent::Capture { cam });
        }
    }

    /// The sharded capture path: the owning shard already ran the exact
    /// same `next_frame` → materialize → `next_capture` sequence; the
    /// coordinator consumes the pre-computed result and applies it to
    /// the shared state in merge order.
    fn capture_sharded(&mut self, now: SimTime, cam: usize, out: &mut Outbox) {
        let capture = self
            .shard_set
            .as_mut()
            .expect("sharded camera has a shard set")
            .next_for(cam);
        match capture {
            ShardCapture::End => self.cameras[cam].active = false,
            ShardCapture::Frame { arrivals, next } => {
                self.deliver(now, cam, arrivals, out);
                if let Some(next) = next.filter(|_| self.cameras[cam].active) {
                    out.schedule(next, StreamEvent::Capture { cam });
                }
            }
        }
    }

    /// Feeds one captured frame's wire items to the shared uplink,
    /// scheduling their cloud arrivals — the shared-state tail of a
    /// capture, common to the inline and sharded paths. Mute windows
    /// apply here, on the coordinator only: a shard replays the exact
    /// same generation sequence, so dropping the materialised arrivals
    /// keeps faulted runs byte-identical at any shard count.
    fn deliver(
        &mut self,
        now: SimTime,
        cam: usize,
        arrivals: Vec<(Arrival, Bytes)>,
        out: &mut Outbox,
    ) {
        self.frames_injected += 1;
        let muted = &self.cameras[cam].muted;
        if muted.iter().any(|&(s, e)| s <= now && now < e) {
            self.frames_muted += 1;
            return;
        }
        let ready = now + self.edge_delay;
        for (arrival, bytes) in arrivals {
            let delivered = self.link.enqueue(ready, bytes);
            self.transmission_busy += self.link.config().bandwidth.transmission_time(bytes);
            out.schedule(delivered, StreamEvent::PatchArrival { arrival });
        }
    }
}
