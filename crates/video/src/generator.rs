//! The per-scene frame generator.
//!
//! [`SceneSimulation`] advances the walker population one frame at a time,
//! producing [`FrameTruth`] records: ground-truth boxes plus (optionally) a
//! rendered raster. The population size is modulated by a slow oscillation,
//! an AR(1) drift, and occasional bursts, reproducing the irregular
//! workload fluctuation of Fig. 3a; sizes and clustering reproduce the RoI
//! statistics of Table I and Fig. 4a.

use tangram_sim::rng::DetRng;
use tangram_types::geometry::{Rect, Size};
use tangram_types::ids::{FrameId, SceneId};
use tangram_types::time::{SimDuration, SimTime};

use crate::object::{ClusterCenter, GtObject, Walker};
use crate::raster::{FrameRenderer, Raster};
use crate::scene::SceneProfile;

/// Configuration of the synthetic video stream.
#[derive(Debug, Clone)]
pub struct VideoConfig {
    /// Frames per second of the capture (PANDA clips are sampled sparsely;
    /// the paper's end-to-end runs pace arrivals by bandwidth, so a low
    /// rate keeps queues comparable).
    pub fps: f64,
    /// Raster resolution relative to the logical 4K frame.
    pub raster_scale: f64,
    /// Whether to render rasters (geometry-only runs are much faster).
    pub render: bool,
}

impl Default for VideoConfig {
    fn default() -> Self {
        Self {
            fps: 2.0,
            raster_scale: 0.25,
            render: false,
        }
    }
}

impl VideoConfig {
    /// Time between consecutive frames.
    #[must_use]
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps)
    }
}

/// Ground truth for one captured frame.
#[derive(Debug, Clone)]
pub struct FrameTruth {
    /// Scene this frame belongs to.
    pub scene: SceneId,
    /// Frame index within the stream.
    pub frame: FrameId,
    /// Capture timestamp.
    pub timestamp: SimTime,
    /// Logical frame resolution.
    pub frame_size: Size,
    /// Every visible object with its 4K-coordinate box.
    pub objects: Vec<GtObject>,
    /// Rendered raster, when the generator is configured to render.
    pub raster: Option<Raster>,
}

impl FrameTruth {
    /// Fraction of the frame area covered by object boxes (ignoring the
    /// rare overlaps) — the quantity plotted in Fig. 3.
    #[must_use]
    pub fn roi_proportion(&self) -> f64 {
        let total: u64 = self.objects.iter().map(|o| o.rect.area()).sum();
        (total as f64 / self.frame_size.area() as f64).min(1.0)
    }

    /// Just the bounding boxes.
    #[must_use]
    pub fn object_rects(&self) -> Vec<Rect> {
        self.objects.iter().map(|o| o.rect).collect()
    }
}

/// Generates the frames of one scene deterministically from a seed.
pub struct SceneSimulation {
    profile: &'static SceneProfile,
    config: VideoConfig,
    rng: DetRng,
    centers: Vec<ClusterCenter>,
    walkers: Vec<Walker>,
    renderer: Option<FrameRenderer>,
    next_track: u64,
    frame_index: u64,
    /// AR(1) component of the workload modulation.
    drift: f64,
    /// Extra modulation that decays after a burst event.
    burst: f64,
    spawned_tracks: u64,
    /// Multiplicative width correction: seeded by a one-shot fit after
    /// burn-in and then trimmed by a slow feedback controller so the
    /// *long-run* mean RoI proportion matches the Table I calibration.
    /// The controller's time constant is much longer than the workload
    /// oscillation, so the Fig. 3a fluctuations survive.
    size_correction: f64,
    /// Exponential moving average of the realised RoI proportion that the
    /// controller steers towards the profile target.
    proportion_ema: f64,
}

impl SceneSimulation {
    /// Creates a simulation of `scene` with the given config and seed.
    #[must_use]
    pub fn new(scene: SceneId, config: VideoConfig, seed: u64) -> Self {
        let profile = SceneProfile::panda(scene);
        let root = DetRng::new(seed).fork_indexed("scene", u64::from(scene.index()));
        let mut rng = root.fork("dynamics");
        let centers: Vec<ClusterCenter> = (0..profile.cluster_count)
            .map(|_| ClusterCenter::spawn(profile.frame_size, &mut rng))
            .collect();
        let renderer = config.render.then(|| {
            FrameRenderer::new(
                root.fork("render").seed(),
                profile.frame_size,
                config.raster_scale,
            )
        });
        let mut sim = Self {
            profile,
            config,
            rng,
            centers,
            walkers: Vec::new(),
            renderer,
            next_track: 0,
            frame_index: 0,
            drift: 0.0,
            burst: 0.0,
            spawned_tracks: 0,
            size_correction: 1.0,
            proportion_ema: profile.roi_proportion,
        };
        // Initial population at the profile's mean concurrency.
        let initial = sim.profile.concurrent_objects;
        for _ in 0..initial {
            sim.spawn_walker();
        }
        // Burn in until the spatial distribution reaches steady state (the
        // cluster attraction slowly pulls border-clipped spawns inwards),
        // then calibrate sizes against the realised RoI proportion of the
        // settled population.
        let burn_in = 100u32;
        let calibration_window = 30u32;
        let mut measured = 0.0;
        for step in 0..burn_in {
            sim.step_dynamics();
            if step >= burn_in - calibration_window {
                let covered: u64 = sim
                    .walkers
                    .iter()
                    .map(|w| w.bounding_box(sim.profile.frame_size).area())
                    .sum();
                measured += covered as f64 / sim.profile.frame_size.area() as f64;
            }
        }
        measured /= f64::from(calibration_window);
        if measured > 0.0 {
            let correction = (sim.profile.roi_proportion / measured)
                .sqrt()
                .clamp(0.5, 2.0);
            sim.size_correction = correction;
            for w in &mut sim.walkers {
                w.scale_width(correction);
            }
        }
        sim.proportion_ema = sim.profile.roi_proportion;
        // Table I counts tracks over the evaluation clip: start counting
        // from the post-burn-in population.
        sim.spawned_tracks = u64::from(sim.profile.concurrent_objects);
        sim
    }

    /// The profile driving this simulation.
    #[must_use]
    pub fn profile(&self) -> &'static SceneProfile {
        self.profile
    }

    /// The stream configuration.
    #[must_use]
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// Number of distinct tracks spawned so far (compare Table I).
    #[must_use]
    pub fn tracks_spawned(&self) -> u64 {
        self.spawned_tracks
    }

    fn spawn_walker(&mut self) {
        let cluster = self.rng.index(self.centers.len());
        let track = self.next_track;
        self.next_track += 1;
        self.spawned_tracks += 1;
        self.walkers.push(Walker::spawn(
            track,
            cluster,
            &self.centers,
            self.profile.frame_size,
            self.profile.mean_object_width() * self.size_correction,
            self.profile.cluster_spread,
            self.profile.mean_lifetime_frames(),
            &mut self.rng,
        ));
    }

    /// Target population for the current frame, following the fluctuation
    /// model (slow oscillation + AR(1) drift + decaying bursts).
    fn target_population(&mut self) -> usize {
        let p = self.profile;
        let t = self.frame_index as f64;
        let slow = p.fluctuation_amplitude * (t * 0.035 + f64::from(p.id) * 1.7).sin();
        self.drift = 0.95 * self.drift + self.rng.normal(0.0, 0.018);
        if self.rng.chance(p.burst_probability) {
            self.burst += p.fluctuation_amplitude * self.rng.uniform_in(0.6, 1.4);
        }
        self.burst *= 0.93;
        let m = (1.0 + slow + self.drift + self.burst).clamp(0.45, 1.9);
        (f64::from(p.concurrent_objects) * m).round().max(1.0) as usize
    }

    /// Current RoI coverage of the walker population.
    fn realized_proportion(&self) -> f64 {
        let covered: u64 = self
            .walkers
            .iter()
            .map(|w| w.bounding_box(self.profile.frame_size).area())
            .sum();
        covered as f64 / self.profile.frame_size.area() as f64
    }

    /// Slow feedback trimming of the spawn-size correction (gain 1% per
    /// frame on the EMA error; see `size_correction` docs).
    fn trim_size_correction(&mut self) {
        let realized = self.realized_proportion();
        self.proportion_ema = 0.97 * self.proportion_ema + 0.03 * realized;
        if self.proportion_ema > 0.0 {
            let error = self.profile.roi_proportion / self.proportion_ema;
            self.size_correction = (self.size_correction * error.powf(0.01)).clamp(0.3, 3.0);
        }
    }

    fn step_dynamics(&mut self) {
        let frame = self.profile.frame_size;
        for c in &mut self.centers {
            c.step(frame, &mut self.rng);
        }
        let speed = self.profile.walk_speed;
        for w in &mut self.walkers {
            w.step(&self.centers, frame, speed, &mut self.rng);
        }
        self.walkers.retain(|w| w.ttl > 0);
        self.trim_size_correction();
        let target = self.target_population();
        while self.walkers.len() < target {
            self.spawn_walker();
        }
        while self.walkers.len() > target {
            // Overcrowded: the oldest walkers leave first.
            self.walkers.remove(0);
        }
    }

    /// Produces the next frame of the stream.
    pub fn next_frame(&mut self) -> FrameTruth {
        self.step_dynamics();
        let frame_size = self.profile.frame_size;
        let objects: Vec<GtObject> = self
            .walkers
            .iter()
            .map(|w| GtObject::new(w.track, w.bounding_box(frame_size)))
            .collect();
        let raster = self
            .renderer
            .as_ref()
            .map(|r| r.render(self.frame_index, &objects));
        let truth = FrameTruth {
            scene: self.profile.scene_id(),
            frame: FrameId::new(self.frame_index),
            timestamp: SimTime::from_secs_f64(self.frame_index as f64 / self.config.fps),
            frame_size,
            objects,
            raster,
        };
        self.frame_index += 1;
        truth
    }

    /// Convenience: the next `n` frames.
    pub fn frames(&mut self, n: usize) -> Vec<FrameTruth> {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

impl std::fmt::Debug for SceneSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SceneSimulation")
            .field("scene", &self.profile.name)
            .field("frame_index", &self.frame_index)
            .field("population", &self.walkers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(scene: u8) -> SceneSimulation {
        SceneSimulation::new(SceneId::new(scene), VideoConfig::default(), 4242)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = sim(1);
        let mut b = sim(1);
        for _ in 0..10 {
            let fa = a.next_frame();
            let fb = b.next_frame();
            assert_eq!(fa.objects, fb.objects);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SceneSimulation::new(SceneId::new(1), VideoConfig::default(), 1);
        let mut b = SceneSimulation::new(SceneId::new(1), VideoConfig::default(), 2);
        assert_ne!(a.next_frame().objects, b.next_frame().objects);
    }

    #[test]
    fn population_tracks_profile() {
        for scene in [1u8, 4, 10] {
            let mut s = sim(scene);
            let frames = s.frames(60);
            let mean_pop = frames.iter().map(|f| f.objects.len() as f64).sum::<f64>() / 60.0;
            let expected = f64::from(s.profile().concurrent_objects);
            assert!(
                (mean_pop / expected - 1.0).abs() < 0.35,
                "scene {scene}: mean population {mean_pop:.1} vs expected {expected}"
            );
        }
    }

    #[test]
    fn roi_proportion_matches_table1() {
        // The calibration target: per-scene mean RoI proportion within
        // ±40% of the Table I value (Fig. 3 shows wide natural variation).
        for scene in 1u8..=10 {
            let mut s = sim(scene);
            let frames = s.frames(150);
            let mean_prop =
                frames.iter().map(FrameTruth::roi_proportion).sum::<f64>() / frames.len() as f64;
            let target = s.profile().roi_proportion;
            assert!(
                (mean_prop / target - 1.0).abs() < 0.3,
                "scene {scene}: proportion {mean_prop:.4} vs target {target:.4}"
            );
        }
    }

    #[test]
    fn proportion_fluctuates_over_time() {
        let mut s = sim(3);
        let props: Vec<f64> = s
            .frames(150)
            .iter()
            .map(FrameTruth::roi_proportion)
            .collect();
        let mean = props.iter().sum::<f64>() / props.len() as f64;
        let max = props.iter().cloned().fold(0.0f64, f64::max);
        let min = props.iter().cloned().fold(1.0f64, f64::min);
        assert!(max > mean * 1.1, "no peaks: max {max} mean {mean}");
        assert!(min < mean * 0.9, "no troughs: min {min} mean {mean}");
    }

    #[test]
    fn boxes_stay_inside_frame() {
        let mut s = sim(6);
        for f in s.frames(30) {
            let bounds = Rect::from_size(f.frame_size);
            for o in &f.objects {
                assert!(bounds.contains_rect(&o.rect), "object {o:?} escapes frame");
            }
        }
    }

    #[test]
    fn timestamps_follow_fps() {
        let mut s = sim(1);
        let f0 = s.next_frame();
        let f1 = s.next_frame();
        assert_eq!(f0.timestamp, SimTime::ZERO);
        assert_eq!(
            f1.timestamp.since(f0.timestamp),
            VideoConfig::default().frame_interval()
        );
    }

    #[test]
    fn render_flag_produces_rasters() {
        let config = VideoConfig {
            render: true,
            raster_scale: 0.1,
            ..VideoConfig::default()
        };
        let mut s = SceneSimulation::new(SceneId::new(1), config, 7);
        let f = s.next_frame();
        let raster = f.raster.expect("raster requested");
        assert_eq!(raster.size(), Size::new(384, 216));
    }

    #[test]
    fn track_churn_accumulates() {
        let mut s = sim(3);
        let _ = s.frames(100);
        // Initial 90 + ~1.29/frame churn ⇒ well above the initial count.
        assert!(
            s.tracks_spawned() > 120,
            "only {} tracks spawned",
            s.tracks_spawned()
        );
    }
}
