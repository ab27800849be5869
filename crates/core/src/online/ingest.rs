//! The ingest stage: the camera table and the shared uplink every
//! capture drains into.

use super::{CameraSource, Outbox, StreamEvent};
use crate::engine::{EngineConfig, PolicyKind};
use crate::policy::Arrival;
use crate::workload::TraceFrame;
use tangram_net::{Link, LinkConfig};
use tangram_trace::TraceEvent;
use tangram_types::ids::CameraId;
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};
use tangram_video::codec::CodecModel;

struct CameraSlot<'a> {
    source: Box<dyn CameraSource + 'a>,
    /// The source's identity, read once at registration.
    camera: CameraId,
    active: bool,
    /// Sorted `[start, end)` windows in which a camera-flap fault keeps
    /// the camera dark (see [`crate::faults::mute_windows`]).
    muted: Vec<(SimTime, SimTime)>,
}

/// Cameras in, patch arrivals out: every captured patch is serialised
/// over the shared [`Link`] and scheduled as a
/// [`StreamEvent::PatchArrival`].
pub(crate) struct Ingest<'a> {
    cameras: Vec<CameraSlot<'a>>,
    pub(super) uplink: Uplink,
    /// Engine default SLO for sources without a tenant override.
    default_slo: SimDuration,
    /// Engine capture period, handed to closed-loop sources.
    frame_interval: SimDuration,
}

/// The shared uplink and the frame counters of everything fed to it —
/// apart from the camera table, so a frame a camera lends can be
/// delivered while the camera is borrowed.
pub(crate) struct Uplink {
    pub(super) link: Link,
    /// ELF ships every patch as a raw crop
    /// ([`CodecModel::elf_patch_bytes`]); every other policy ships
    /// `encoded_size`.
    elf: bool,
    edge_delay: SimDuration,
    pub(super) frames_injected: u64,
    /// Frames captured inside a camera-flap mute window and lost at the
    /// edge (never materialised onto the uplink).
    pub(super) frames_muted: u64,
}

impl<'a> Ingest<'a> {
    /// An empty camera table on `config`'s uplink.
    pub(crate) fn new(config: &EngineConfig) -> Self {
        Self {
            cameras: Vec::new(),
            uplink: Uplink {
                link: Link::new(LinkConfig::mbps(config.bandwidth_mbps)),
                elf: config.policy == PolicyKind::Elf,
                edge_delay: config.edge_delay,
                frames_injected: 0,
                frames_muted: 0,
            },
            default_slo: config.slo,
            frame_interval: SimDuration::from_secs_f64(1.0 / config.max_fps),
        }
    }

    /// Cameras registered so far (the next camera's index).
    pub(crate) fn cameras(&self) -> usize {
        self.cameras.len()
    }

    /// Registers a camera, dark during `muted`.
    pub(crate) fn add_camera(
        &mut self,
        source: Box<dyn CameraSource + 'a>,
        muted: Vec<(SimTime, SimTime)>,
    ) {
        self.cameras.push(CameraSlot {
            camera: source.camera(),
            source,
            active: false,
            muted,
        });
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

    /// Camera `cam` captures its next frame, if it is still online:
    /// `capture` → delivery onto the uplink → `next_capture`. The frame
    /// is the source's, borrowed until it has been delivered.
    pub(crate) fn on_capture(&mut self, now: SimTime, cam: usize, out: &mut Outbox) {
        let slot = &mut self.cameras[cam];
        if !slot.active {
            return;
        }
        let slo = slot.source.slo().unwrap_or(self.default_slo);
        let Some(frame) = slot.source.capture() else {
            slot.active = false;
            return;
        };
        self.uplink.deliver(now, frame, &slot.muted, slo, out);

        let uplink_free = self.uplink.link.busy_until();
        let next = slot
            .source
            .next_capture(now, self.frame_interval, uplink_free);
        if !slot.source.is_exhausted() && slot.active {
            out.schedule(next, StreamEvent::Capture { cam });
        }
    }
}

impl Uplink {
    /// Feeds one captured frame to the link in wire order, one patch at a
    /// time: re-stamped with the capture instant and `slo`, carrying
    /// ELF's or the shared encoder's bytes, and scheduled to arrive once
    /// the link has carried it. The link is FIFO, so each delivery is no
    /// earlier than the last one and rides the event queue's lane
    /// ([`Outbox::schedule_delivery`]). A frame captured inside one of
    /// the camera's `muted` windows is counted and lost at the edge.
    fn deliver(
        &mut self,
        now: SimTime,
        frame: &TraceFrame,
        muted: &[(SimTime, SimTime)],
        slo: SimDuration,
        out: &mut Outbox,
    ) {
        self.frames_injected += 1;
        if muted.iter().any(|&(s, e)| s <= now && now < e) {
            self.frames_muted += 1;
            return;
        }
        let ready = now + self.edge_delay;
        for patch in &frame.patches {
            let bytes = if self.elf {
                CodecModel.elf_patch_bytes(patch.info.rect)
            } else {
                patch.encoded_size
            };
            let info = PatchInfo {
                generated_at: now,
                slo,
                ..patch.info
            };
            let delivered = self.link.enqueue(ready, bytes);
            out.schedule_delivery(delivered, Arrival::Patch(Patch::new(info, bytes)));
        }
    }
}
