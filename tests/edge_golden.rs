//! Byte-pin of the raster pipeline: render → GMM / block-matching flow →
//! morphology → connected components → Algorithm 1 → codec.
//!
//! None of the `baselines/` files renders a raster (their traces come from
//! the proxy extractor), so these digests are what tier-1 compares a
//! GMM or flow trace against. They were captured at commit d19f561
//! (PR 18), before `BitMask` was packed into words and before the
//! renderer built its background from row/column tables; an optimisation
//! of the vision or video crates must leave them unchanged.
//! The steady-state digest (past the GMM's learning-rate switch) was
//! captured at commit 0e58d60, before any rework of the mixture kernel.

use tangram_core::workload::{ExtractorKind, TraceConfig};
use tangram_types::geometry::Rect;
use tangram_types::ids::SceneId;
use tangram_video::generator::{SceneSimulation, VideoConfig};
use tangram_vision::extractor::{FlowExtractor, RoiExtractor};

const SEED: u64 = 42;
const WARMUP: usize = 4;
const FRAMES: usize = 3;

/// FNV-1a (64-bit) over the little-endian bytes of each value.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_rect(&mut self, r: Rect) {
        for v in [r.x, r.y, r.width, r.height] {
            self.push(u64::from(v));
        }
    }
}

/// Digest and patch count of the GMM trace of `scene`.
fn gmm_trace(scene: u8) -> (u64, usize) {
    gmm_digest(&TraceConfig {
        warmup_frames: WARMUP,
        ..TraceConfig::gmm_extractor(SceneId::new(scene), FRAMES, SEED)
    })
}

/// Digest and patch count of the trace `config` builds.
fn gmm_digest(config: &TraceConfig) -> (u64, usize) {
    let trace = config.build();
    let mut d = Digest::new();
    for f in &trace.frames {
        d.push(f.roi_count as u64);
        d.push(f.patches.len() as u64);
        for p in &f.patches {
            d.push_rect(p.info.rect);
            d.push(p.encoded_size.get());
        }
    }
    (d.0, trace.patch_count())
}

/// Digest and RoI count of the optical-flow extractor over the frames the
/// GMM trace of `scene` records. Block matching costs a second per frame
/// in a debug build, so the warm-up frames are skipped, not matched: the
/// first recorded frame has no predecessor and yields no RoI, which leaves
/// 2 matched frames a scene. The GMM digest is the pin of the mask kernel;
/// this one notices a `dilated()` change only if it moves a bounding box.
fn flow_rois(scene: u8) -> (u64, usize) {
    let video = VideoConfig {
        render: true,
        ..VideoConfig::default()
    };
    let mut sim = SceneSimulation::new(SceneId::new(scene), video, SEED);
    let mut flow = FlowExtractor::default();
    let mut d = Digest::new();
    let mut total = 0;
    let _ = sim.frames(WARMUP);
    for frame in sim.frames(FRAMES) {
        let rois = flow.extract(&frame);
        d.push(rois.len() as u64);
        for r in &rois {
            d.push_rect(*r);
        }
        total += rois.len();
    }
    (d.0, total)
}

// One test per scene, so the two run side by side: each is about 3.5 s
// in a debug build, two thirds of it block matching.

#[test]
fn scene_1_is_the_pinned_bytes() {
    assert_eq!(gmm_trace(1), (0x18cd_b0ad_3265_a715, 23), "GMM trace");
    assert_eq!(flow_rois(1), (0xc9a5_41e4_ec5e_dd34, 7), "flow RoIs");
}

#[test]
fn scene_2_is_the_pinned_bytes() {
    assert_eq!(gmm_trace(2), (0xbf47_eb36_9580_6160, 27), "GMM trace");
    assert_eq!(flow_rois(2), (0x02e3_0aa5_e66a_e013, 10), "flow RoIs");
}

/// The two tests above stop at frame 7, inside the boosted learning rate
/// of a cold model's first 50 frames. This one records frames 56–59, past
/// the switch to the steady rate, on a 1/10-scale raster so that 60 frames
/// stay quick in a debug build.
#[test]
fn scene_1_past_the_learning_rate_switch_is_the_pinned_bytes() {
    let config = TraceConfig {
        warmup_frames: 56,
        extractor: ExtractorKind::Gmm {
            raster_scale_milli: 100,
        },
        ..TraceConfig::gmm_extractor(SceneId::new(1), 4, SEED)
    };
    assert_eq!(
        gmm_digest(&config),
        (0x00d1_9e9b_60f1_41ba, 25),
        "GMM trace"
    );
}
