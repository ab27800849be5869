//! The ingest stage: the camera table and the shared uplink every
//! capture drains into.

use super::{CameraSource, Outbox, StreamEvent};
use crate::engine::{EngineConfig, PolicyKind};
use crate::policy::{Arrival, FrameArrival};
use crate::workload::TraceFrame;
use tangram_net::{Link, LinkConfig};
use tangram_trace::TraceEvent;
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{CameraId, PatchId};
use tangram_types::patch::{Patch, PatchInfo};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Bytes;

struct CameraSlot {
    source: Box<dyn CameraSource>,
    /// The source's identity, read once at registration.
    camera: CameraId,
    active: bool,
    /// Sorted `[start, end)` windows in which a camera-flap fault keeps
    /// the camera dark (see [`crate::faults::mute_windows`]).
    muted: Vec<(SimTime, SimTime)>,
}

/// Cameras in, patch arrivals out: every capture is materialised into
/// wire items, serialised over the shared [`Link`] and scheduled as
/// [`StreamEvent::PatchArrival`]s.
pub(crate) struct Ingest {
    cameras: Vec<CameraSlot>,
    pub(super) link: Link,
    /// The wire representation of the engine's policy.
    kind: MaterializeKind,
    /// Engine default SLO for sources without a tenant override.
    default_slo: SimDuration,
    /// Engine capture period, handed to closed-loop sources.
    frame_interval: SimDuration,
    edge_delay: SimDuration,
    pub(super) frames_injected: u64,
    /// Frames captured inside a camera-flap mute window and lost at the
    /// edge (never materialised onto the uplink).
    pub(super) frames_muted: u64,
    pub(super) transmission_busy: SimDuration,
}

impl Ingest {
    /// An empty camera table on `config`'s uplink.
    pub(crate) fn new(config: &EngineConfig) -> Self {
        Self {
            cameras: Vec::new(),
            link: Link::new(LinkConfig::mbps(config.bandwidth_mbps)),
            kind: MaterializeKind::of(config.policy),
            default_slo: config.slo,
            frame_interval: SimDuration::from_secs_f64(1.0 / config.max_fps),
            edge_delay: config.edge_delay,
            frames_injected: 0,
            frames_muted: 0,
            transmission_busy: SimDuration::ZERO,
        }
    }

    /// Cameras registered so far (the next camera's index).
    pub(crate) fn cameras(&self) -> usize {
        self.cameras.len()
    }

    /// Registers a camera, dark during `muted`.
    pub(crate) fn add_camera(
        &mut self,
        source: Box<dyn CameraSource>,
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
    /// `next_frame` → [`materialize_frame`] → delivery onto the uplink →
    /// `next_capture`.
    pub(crate) fn on_capture(&mut self, now: SimTime, cam: usize, out: &mut Outbox) {
        let slot = &mut self.cameras[cam];
        if !slot.active {
            return;
        }
        let Some(frame) = slot.source.next_frame() else {
            slot.active = false;
            return;
        };
        let slo = slot.source.slo().unwrap_or(self.default_slo);
        let arrivals = materialize_frame(&frame, slot.camera, slo, now, self.kind);
        self.deliver(now, cam, arrivals, out);

        let uplink_free = self.link.busy_until();
        let slot = &mut self.cameras[cam];
        let next = slot
            .source
            .next_capture(now, self.frame_interval, uplink_free);
        if !slot.source.is_exhausted() && slot.active {
            out.schedule(next, StreamEvent::Capture { cam });
        }
    }

    /// Feeds one captured frame's wire items to the shared uplink,
    /// scheduling their cloud arrivals. A frame captured inside one of the
    /// camera's mute windows is counted and lost at the edge.
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

/// Which wire representation [`materialize_frame`] builds — derived
/// once from the engine's [`PolicyKind`].
#[derive(Debug, Clone, Copy)]
enum MaterializeKind {
    /// Patch-based policies ship every RoI patch separately.
    Patch {
        /// ELF re-encodes patches (different byte sizes per patch).
        elf: bool,
    },
    /// Frame-based baselines ship one oversized "patch" per frame.
    Frame {
        /// Masked-frame transfers background-suppressed bytes.
        masked: bool,
    },
}

impl MaterializeKind {
    /// The wire representation for `policy`.
    fn of(policy: PolicyKind) -> Self {
        if policy.patch_based() {
            Self::Patch {
                elf: policy == PolicyKind::Elf,
            }
        } else {
            Self::Frame {
                masked: policy == PolicyKind::MaskedFrame,
            }
        }
    }
}

/// Turns one captured frame into the `(Arrival, Bytes)` work items the
/// engine feeds to the uplink, in wire order: id stamping, byte
/// selection and SLO stamping.
fn materialize_frame(
    frame: &TraceFrame,
    camera_id: CameraId,
    slo: SimDuration,
    generated_at: SimTime,
    kind: MaterializeKind,
) -> Vec<(Arrival, Bytes)> {
    match kind {
        MaterializeKind::Patch { elf } => frame
            .patches
            .iter()
            .enumerate()
            .map(|(i, patch)| {
                let bytes = if elf {
                    frame.elf_patch_bytes[i]
                } else {
                    patch.encoded_size
                };
                let info = PatchInfo {
                    generated_at,
                    slo,
                    ..patch.info
                };
                (Arrival::Patch(Patch::new(info, bytes)), bytes)
            })
            .collect(),
        MaterializeKind::Frame { masked } => {
            let bytes = if masked {
                frame.masked_frame_bytes
            } else {
                frame.full_frame_bytes
            };
            let mpx = if masked {
                frame.masked_megapixels
            } else {
                frame.full_megapixels
            };
            // The frame travels as one oversized "patch".
            let base = frame.patches.first().map_or_else(
                || PatchInfo {
                    id: PatchId::new(
                        (u64::from(camera_id.raw()) << 40) | (1 << 39) | frame.frame.raw(),
                    ),
                    camera: camera_id,
                    frame: frame.frame,
                    rect: Rect::from_size(Size::UHD_4K),
                    generated_at,
                    slo,
                },
                |p| PatchInfo {
                    id: PatchId::new(p.info.id.raw() | (1 << 39)),
                    rect: Rect::from_size(Size::UHD_4K),
                    generated_at,
                    slo,
                    ..p.info
                },
            );
            vec![(
                Arrival::Frame(FrameArrival {
                    info: base,
                    effective_megapixels: mpx,
                }),
                bytes,
            )]
        }
    }
}
