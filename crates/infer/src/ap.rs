//! Average-precision evaluation (AP@0.5).
//!
//! The standard single-class protocol used by the paper's Tables III/IV
//! and Figs. 2a/4b: detections across all frames are sorted by confidence,
//! greedily matched to unmatched ground truth within their frame at
//! IoU ≥ threshold, and AP is the area under the interpolated
//! precision–recall curve (precision envelope).

use tangram_types::geometry::Rect;

/// One detection: a box and its confidence score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Detected box (frame coordinates).
    pub rect: Rect,
    /// Confidence in `(0, 1)`.
    pub confidence: f64,
}

/// Ground truth and detections for one frame.
#[derive(Debug, Clone, Default)]
pub struct FrameEval {
    /// Ground-truth boxes.
    pub truths: Vec<Rect>,
    /// Model detections.
    pub detections: Vec<Detection>,
}

impl FrameEval {
    /// Bundles one frame's ground truth and detections.
    #[must_use]
    pub fn new(truths: Vec<Rect>, detections: Vec<Detection>) -> Self {
        Self { truths, detections }
    }
}

/// Computes AP at the given IoU threshold over a set of frames.
///
/// Returns 0 when there is ground truth but no detections, and 0 when
/// there is no ground truth at all (nothing to recall).
#[must_use]
pub fn average_precision(frames: &[FrameEval], iou_threshold: f64) -> f64 {
    let total_truth: usize = frames.iter().map(|f| f.truths.len()).sum();
    if total_truth == 0 {
        return 0.0;
    }
    // Flatten detections with their frame index, sort by confidence desc.
    let mut dets: Vec<(usize, Detection)> = frames
        .iter()
        .enumerate()
        .flat_map(|(i, f)| f.detections.iter().map(move |&d| (i, d)))
        .collect();
    dets.sort_by(|a, b| {
        b.1.confidence
            .partial_cmp(&a.1.confidence)
            .expect("confidence is finite")
    });

    let mut matched: Vec<Vec<bool>> = frames.iter().map(|f| vec![false; f.truths.len()]).collect();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut curve: Vec<(f64, f64)> = Vec::with_capacity(dets.len()); // (recall, precision)
    for (frame_idx, det) in dets {
        let truths = &frames[frame_idx].truths;
        // Best unmatched ground-truth box by IoU.
        let mut best: Option<(usize, f64)> = None;
        for (t, truth) in truths.iter().enumerate() {
            if matched[frame_idx][t] {
                continue;
            }
            let iou = det.rect.iou(truth);
            if iou >= iou_threshold && best.is_none_or(|(_, b)| iou > b) {
                best = Some((t, iou));
            }
        }
        match best {
            Some((t, _)) => {
                matched[frame_idx][t] = true;
                tp += 1;
            }
            None => fp += 1,
        }
        curve.push((tp as f64 / total_truth as f64, tp as f64 / (tp + fp) as f64));
    }
    if curve.is_empty() {
        return 0.0;
    }
    // Precision envelope (make precision non-increasing in recall), then
    // integrate over recall.
    for i in (0..curve.len() - 1).rev() {
        curve[i].1 = curve[i].1.max(curve[i + 1].1);
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for &(recall, precision) in &curve {
        ap += (recall - prev_recall) * precision;
        prev_recall = recall;
    }
    ap
}

/// AP@0.5 — the paper's metric.
#[must_use]
pub fn ap50(frames: &[FrameEval]) -> f64 {
    average_precision(frames, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(rect: Rect, confidence: f64) -> Detection {
        Detection { rect, confidence }
    }

    #[test]
    fn perfect_detection_is_ap_one() {
        let truths = vec![Rect::new(0, 0, 50, 100), Rect::new(200, 200, 60, 120)];
        let detections = truths.iter().map(|&r| det(r, 0.9)).collect();
        let frames = [FrameEval::new(truths, detections)];
        assert!((ap50(&frames) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_detections_is_zero() {
        let frames = [FrameEval::new(vec![Rect::new(0, 0, 10, 10)], vec![])];
        assert_eq!(ap50(&frames), 0.0);
    }

    #[test]
    fn no_ground_truth_is_zero() {
        let frames = [FrameEval::new(
            vec![],
            vec![det(Rect::new(0, 0, 10, 10), 0.9)],
        )];
        assert_eq!(ap50(&frames), 0.0);
    }

    #[test]
    fn half_recall_no_fp() {
        let truths = vec![Rect::new(0, 0, 50, 100), Rect::new(500, 500, 50, 100)];
        let detections = vec![det(Rect::new(0, 0, 50, 100), 0.9)];
        let frames = [FrameEval::new(truths, detections)];
        assert!((ap50(&frames) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn low_confidence_fp_does_not_hurt_earlier_precision() {
        // TP at conf 0.9, FP at conf 0.1: the envelope keeps AP at recall
        // achieved before the FP.
        let truths = vec![Rect::new(0, 0, 50, 100)];
        let detections = vec![
            det(Rect::new(0, 0, 50, 100), 0.9),
            det(Rect::new(800, 800, 50, 100), 0.1),
        ];
        let frames = [FrameEval::new(truths, detections)];
        assert!((ap50(&frames) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_confidence_fp_hurts() {
        let truths = vec![Rect::new(0, 0, 50, 100)];
        let detections = vec![
            det(Rect::new(800, 800, 50, 100), 0.95), // FP ranked first
            det(Rect::new(0, 0, 50, 100), 0.5),
        ];
        let frames = [FrameEval::new(truths, detections)];
        let ap = ap50(&frames);
        assert!((ap - 0.5).abs() < 1e-12, "ap {ap}");
    }

    #[test]
    fn duplicate_detections_count_once() {
        let truths = vec![Rect::new(0, 0, 50, 100)];
        let detections = vec![
            det(Rect::new(0, 0, 50, 100), 0.9),
            det(Rect::new(1, 0, 50, 100), 0.8), // duplicate → FP
        ];
        let frames = [FrameEval::new(truths, detections)];
        let ap = ap50(&frames);
        assert!((ap - 1.0).abs() < 1e-12, "envelope keeps ap 1.0, got {ap}");
    }

    #[test]
    fn matching_respects_iou_threshold() {
        let truths = vec![Rect::new(0, 0, 100, 100)];
        // Offset box with IoU just below 0.5.
        let detections = vec![det(Rect::new(60, 0, 100, 100), 0.9)];
        let frames = [FrameEval::new(truths, detections)];
        assert_eq!(ap50(&frames), 0.0);
        // But it passes a looser threshold.
        assert!(average_precision(&frames, 0.2) > 0.9);
    }

    #[test]
    fn matches_within_frame_only() {
        // Detection in frame 0 cannot match truth in frame 1.
        let frames = [
            FrameEval::new(vec![], vec![det(Rect::new(0, 0, 50, 100), 0.9)]),
            FrameEval::new(vec![Rect::new(0, 0, 50, 100)], vec![]),
        ];
        assert_eq!(ap50(&frames), 0.0);
    }

    #[test]
    fn detection_prefers_best_iou_truth() {
        // Two truths; the detection overlaps both but one much better.
        let truths = vec![Rect::new(0, 0, 100, 100), Rect::new(40, 0, 100, 100)];
        let detections = vec![
            det(Rect::new(42, 0, 100, 100), 0.9), // near-perfect on truth 1
            det(Rect::new(0, 0, 100, 100), 0.8),  // perfect on truth 0
        ];
        let frames = [FrameEval::new(truths, detections)];
        assert!((ap50(&frames) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recall_accumulates_across_frames() {
        let make_frame = |hit: bool| {
            let truth = Rect::new(0, 0, 50, 100);
            let dets = if hit { vec![det(truth, 0.9)] } else { vec![] };
            FrameEval::new(vec![truth], dets)
        };
        let frames: Vec<FrameEval> = (0..10).map(|i| make_frame(i % 2 == 0)).collect();
        let ap = ap50(&frames);
        assert!(
            (ap - 0.5).abs() < 1e-12,
            "5/10 recalled at precision 1: {ap}"
        );
    }
}
