//! The ten PANDA4K-calibrated scene profiles.
//!
//! Each profile pins the synthetic workload to the statistics the paper
//! reports for the corresponding real scene:
//!
//! * Table I — scene name, frame count, number of distinct persons, mean
//!   RoI area proportion, non-RoI inference-time share ("redundancy");
//! * Table III — full-frame AP@0.5 of the 4K-trained Yolov8x, which we use
//!   as the scene's base detection difficulty;
//! * Fig. 2a — server-driven / content-aware APs for the five motivation
//!   scenes;
//! * Fig. 8 — the number of evaluation frames per scene.
//!
//! Parameters that the paper does not report directly (cluster counts,
//! spatial spread, walking speed) are chosen so that the derived
//! statistics — patches per frame (Fig. 10a), canvas coverage (Table II),
//! RoI-size scatter (Fig. 4a) — land in the paper's ranges.

use tangram_types::geometry::Size;
use tangram_types::ids::SceneId;

/// Static description of one synthetic scene.
#[derive(Debug, Clone)]
pub struct SceneProfile {
    /// Which of the ten scenes this is.
    pub id: u8,
    /// Human-readable scene name from Table I.
    pub name: &'static str,
    /// Logical frame resolution (PANDA4K: 3840×2160).
    pub frame_size: Size,
    /// Total frames in the scene's clip (Table I).
    pub total_frames: u32,
    /// Frames used by the paper's cost/bandwidth evaluation (Fig. 8).
    pub eval_frames: u32,
    /// Number of distinct person tracks over the whole clip (Table I).
    pub person_tracks: u32,
    /// Mean fraction of the frame area covered by RoIs (Table I, "Prop△").
    pub roi_proportion: f64,
    /// Non-RoI share of full-frame inference time (Table I, "Redundancy♢").
    pub redundancy: f64,
    /// Full-frame AP@0.5 of the 4K-trained detector (Table III, "Full").
    pub full_frame_ap: f64,
    /// Server-driven baseline AP (Fig. 2a; motivation scenes 1–5 only).
    pub server_driven_ap: Option<f64>,
    /// Content-aware baseline AP (Fig. 2a; motivation scenes 1–5 only).
    pub content_aware_ap: Option<f64>,

    // ---- dynamics parameters (chosen, see module docs) ----
    /// Mean number of simultaneously visible objects.
    pub concurrent_objects: u32,
    /// Number of spatial clusters objects congregate around.
    pub cluster_count: u32,
    /// Std-dev of object positions around their cluster centre (px at 4K).
    pub cluster_spread: f64,
    /// Mean pedestrian speed in px/frame at 4K.
    pub walk_speed: f64,
    /// Expected spawns (and despawns) per frame, producing track churn.
    pub churn_per_frame: f64,
    /// Relative amplitude of slow workload oscillation (Fig. 3a).
    pub fluctuation_amplitude: f64,
    /// Probability per frame of a burst of extra arrivals (Fig. 3a peaks).
    pub burst_probability: f64,
}

impl SceneProfile {
    /// The profile for `scene_01` … `scene_10`.
    #[must_use]
    pub fn panda(id: SceneId) -> &'static SceneProfile {
        &PANDA_SCENES[id.array_index()]
    }

    /// All ten profiles in scene order.
    #[must_use]
    pub fn all() -> &'static [SceneProfile; 10] {
        &PANDA_SCENES
    }

    /// Mean pixel area of a single object implied by the calibration
    /// (`roi_proportion × frame_area / concurrent_objects`).
    #[must_use]
    pub fn mean_object_area(&self) -> f64 {
        self.roi_proportion * self.frame_size.area() as f64 / f64::from(self.concurrent_objects)
    }

    /// Mean object width implied by [`Self::mean_object_area`] and the
    /// pedestrian aspect ratio (height ≈ 2 × width).
    ///
    /// The 0.8 factor compensates for the second moments of the size model
    /// (lognormal width², perspective², aspect) so that the *realised*
    /// mean RoI proportion matches [`Self::roi_proportion`]; it was fitted
    /// empirically against the generator.
    #[must_use]
    pub fn mean_object_width(&self) -> f64 {
        (self.mean_object_area() / 2.0).sqrt() * 0.8
    }

    /// Expected object lifetime in frames (`concurrent / churn`).
    #[must_use]
    pub fn mean_lifetime_frames(&self) -> f64 {
        if self.churn_per_frame <= 0.0 {
            f64::INFINITY
        } else {
            f64::from(self.concurrent_objects) / self.churn_per_frame
        }
    }

    /// The scene id as a [`SceneId`].
    #[must_use]
    pub fn scene_id(&self) -> SceneId {
        SceneId::new(self.id)
    }
}

/// 4K frame size shared by all profiles.
const FRAME_4K: Size = Size::UHD_4K;

/// Calibration table. Columns 2–7 are copied from the paper (Tables I,
/// III; Figs. 2a, 8); the dynamics columns are fitted as described in the
/// module docs.
// Some fitted churn rates happen to land near π/τ; they are workload
// calibration data, not trigonometry.
#[allow(clippy::approx_constant)]
static PANDA_SCENES: [SceneProfile; 10] = [
    SceneProfile {
        id: 1,
        name: "University Canteen",
        frame_size: FRAME_4K,
        total_frames: 234,
        eval_frames: 134,
        person_tracks: 123,
        roi_proportion: 0.054_510,
        redundancy: 0.123_9,
        full_frame_ap: 0.572,
        server_driven_ap: Some(0.50),
        content_aware_ap: Some(0.54),
        concurrent_objects: 40,
        cluster_count: 4,
        cluster_spread: 420.0,
        walk_speed: 9.0,
        churn_per_frame: 0.35,
        fluctuation_amplitude: 0.18,
        burst_probability: 0.015,
    },
    SceneProfile {
        id: 2,
        name: "OCT Habour",
        frame_size: FRAME_4K,
        total_frames: 234,
        eval_frames: 134,
        person_tracks: 191,
        roi_proportion: 0.083_141,
        redundancy: 0.112_8,
        full_frame_ap: 0.767,
        server_driven_ap: Some(0.61),
        content_aware_ap: Some(0.63),
        concurrent_objects: 60,
        cluster_count: 5,
        cluster_spread: 520.0,
        walk_speed: 10.0,
        churn_per_frame: 0.56,
        fluctuation_amplitude: 0.15,
        burst_probability: 0.012,
    },
    SceneProfile {
        id: 3,
        name: "Xili Crossroad",
        frame_size: FRAME_4K,
        total_frames: 234,
        eval_frames: 134,
        person_tracks: 393,
        roi_proportion: 0.059_132,
        redundancy: 0.092_4,
        full_frame_ap: 0.576,
        server_driven_ap: Some(0.39),
        content_aware_ap: Some(0.43),
        concurrent_objects: 90,
        cluster_count: 6,
        cluster_spread: 600.0,
        walk_speed: 12.0,
        churn_per_frame: 1.29,
        fluctuation_amplitude: 0.22,
        burst_probability: 0.02,
    },
    SceneProfile {
        id: 4,
        name: "Primary School",
        frame_size: FRAME_4K,
        total_frames: 148,
        eval_frames: 48,
        person_tracks: 119,
        roi_proportion: 0.141_561,
        redundancy: 0.154_3,
        full_frame_ap: 0.964,
        server_driven_ap: Some(0.53),
        content_aware_ap: Some(0.67),
        concurrent_objects: 35,
        cluster_count: 5,
        cluster_spread: 780.0,
        walk_speed: 8.0,
        churn_per_frame: 0.57,
        fluctuation_amplitude: 0.12,
        burst_probability: 0.01,
    },
    SceneProfile {
        id: 5,
        name: "Basketball Court",
        frame_size: FRAME_4K,
        total_frames: 133,
        eval_frames: 33,
        person_tracks: 54,
        roi_proportion: 0.050_354,
        redundancy: 0.154_3,
        full_frame_ap: 0.899,
        server_driven_ap: Some(0.53),
        content_aware_ap: Some(0.72),
        concurrent_objects: 18,
        cluster_count: 3,
        cluster_spread: 500.0,
        walk_speed: 14.0,
        churn_per_frame: 0.27,
        fluctuation_amplitude: 0.20,
        burst_probability: 0.015,
    },
    SceneProfile {
        id: 6,
        name: "Xinzhongguan",
        frame_size: FRAME_4K,
        total_frames: 222,
        eval_frames: 122,
        person_tracks: 857,
        roi_proportion: 0.052_316,
        redundancy: 0.109_3,
        full_frame_ap: 0.686,
        server_driven_ap: None,
        content_aware_ap: None,
        concurrent_objects: 160,
        cluster_count: 7,
        cluster_spread: 680.0,
        walk_speed: 10.0,
        churn_per_frame: 3.14,
        fluctuation_amplitude: 0.14,
        burst_probability: 0.02,
    },
    SceneProfile {
        id: 7,
        name: "University Campus",
        frame_size: FRAME_4K,
        total_frames: 180,
        eval_frames: 80,
        person_tracks: 123,
        roi_proportion: 0.025_860,
        redundancy: 0.103_1,
        full_frame_ap: 0.698,
        server_driven_ap: None,
        content_aware_ap: None,
        concurrent_objects: 30,
        cluster_count: 4,
        cluster_spread: 540.0,
        walk_speed: 9.0,
        churn_per_frame: 0.52,
        fluctuation_amplitude: 0.25,
        burst_probability: 0.02,
    },
    SceneProfile {
        id: 8,
        name: "Xili Street 1",
        frame_size: FRAME_4K,
        total_frames: 234,
        eval_frames: 134,
        person_tracks: 325,
        roi_proportion: 0.096_297,
        redundancy: 0.106_5,
        full_frame_ap: 0.638,
        server_driven_ap: None,
        content_aware_ap: None,
        concurrent_objects: 80,
        cluster_count: 6,
        cluster_spread: 640.0,
        walk_speed: 11.0,
        churn_per_frame: 1.05,
        fluctuation_amplitude: 0.16,
        burst_probability: 0.015,
    },
    SceneProfile {
        id: 9,
        name: "Xili Street 2",
        frame_size: FRAME_4K,
        total_frames: 234,
        eval_frames: 134,
        person_tracks: 152,
        roi_proportion: 0.087_498,
        redundancy: 0.092_5,
        full_frame_ap: 0.598,
        server_driven_ap: None,
        content_aware_ap: None,
        concurrent_objects: 50,
        cluster_count: 5,
        cluster_spread: 560.0,
        walk_speed: 10.0,
        churn_per_frame: 0.44,
        fluctuation_amplitude: 0.17,
        burst_probability: 0.015,
    },
    SceneProfile {
        id: 10,
        name: "Huaqiangbei",
        frame_size: FRAME_4K,
        total_frames: 234,
        eval_frames: 134,
        person_tracks: 1730,
        roi_proportion: 0.096_732,
        redundancy: 0.091_6,
        full_frame_ap: 0.634,
        server_driven_ap: None,
        content_aware_ap: None,
        concurrent_objects: 260,
        cluster_count: 8,
        cluster_spread: 720.0,
        walk_speed: 9.0,
        churn_per_frame: 6.28,
        fluctuation_amplitude: 0.13,
        burst_probability: 0.02,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_profiles_in_order() {
        let all = SceneProfile::all();
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.id as usize, i + 1);
            assert_eq!(p.frame_size, Size::UHD_4K);
        }
    }

    #[test]
    fn lookup_by_scene_id() {
        let p = SceneProfile::panda(SceneId::new(4));
        assert_eq!(p.name, "Primary School");
        assert_eq!(p.total_frames, 148);
        assert_eq!(p.scene_id(), SceneId::new(4));
    }

    #[test]
    fn table1_proportions_in_paper_range() {
        for p in SceneProfile::all() {
            assert!(
                (0.02..0.15).contains(&p.roi_proportion),
                "{}: proportion {}",
                p.name,
                p.roi_proportion
            );
            assert!((0.08..0.16).contains(&p.redundancy));
        }
    }

    #[test]
    fn motivation_scenes_have_baseline_aps() {
        for p in &SceneProfile::all()[..5] {
            assert!(p.server_driven_ap.is_some());
            assert!(p.content_aware_ap.is_some());
            // Fig. 2a: both baselines lose accuracy vs full frame.
            assert!(p.server_driven_ap.unwrap() < p.full_frame_ap + 1e-9);
        }
        for p in &SceneProfile::all()[5..] {
            assert!(p.server_driven_ap.is_none());
        }
    }

    #[test]
    fn derived_object_sizes_match_fig4a_scale() {
        // Fig. 4a: RoI widths up to ~250 px, heights up to ~400 px at 4K.
        for p in SceneProfile::all() {
            let w = p.mean_object_width();
            assert!((20.0..200.0).contains(&w), "{}: mean width {w}", p.name);
        }
    }

    #[test]
    fn churn_reproduces_track_counts() {
        // Spawns over the clip + initial population ≈ person_tracks.
        for p in SceneProfile::all() {
            let expected =
                f64::from(p.concurrent_objects) + p.churn_per_frame * f64::from(p.total_frames);
            let ratio = expected / f64::from(p.person_tracks);
            assert!(
                (0.7..1.4).contains(&ratio),
                "{}: expected {expected:.0} tracks vs paper {}",
                p.name,
                p.person_tracks
            );
        }
    }

    #[test]
    fn lifetime_is_finite_and_positive() {
        for p in SceneProfile::all() {
            let l = p.mean_lifetime_frames();
            assert!(l > 10.0 && l < 1000.0, "{}: lifetime {l}", p.name);
        }
    }
}
