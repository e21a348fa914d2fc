//! Simulated object detectors.
//!
//! A [`SimDetector`] samples detections from the frame's ground truth with a
//! configurable recall, bounding-box jitter, and false-positive rate, and
//! charges its declared cost to the clock. A detector with an
//! `attribute filter` models the paper's *specialized NNs* (§4.4): cheaper
//! than a general detector but only firing on entities with a specific
//! attribute (e.g. red cars), with some leakage.

use crate::clock::Clock;
use crate::detection::{det_rng, Detection};
use crate::traits::{Detector, ModelProfile, TaskKind};
use rand::Rng;
use std::sync::Arc;
use vqpy_video::frame::Frame;
use vqpy_video::geometry::BBox;
use vqpy_video::scene::VisibleEntity;

/// Predicate selecting which ground-truth entities a specialized detector
/// responds to.
pub type EntityPredicate = Arc<dyn Fn(&VisibleEntity) -> bool + Send + Sync>;

/// A ground-truth-sampling detector.
pub struct SimDetector {
    profile: ModelProfile,
    classes: Vec<String>,
    recall: f32,
    fp_rate: f32,
    bbox_jitter: f32,
    salt: u64,
    attr_filter: Option<EntityPredicate>,
    /// For specialized detectors: probability of (incorrectly) firing on an
    /// entity of the right class that fails the attribute filter.
    leak_rate: f32,
}

impl std::fmt::Debug for SimDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDetector")
            .field("profile", &self.profile)
            .field("classes", &self.classes)
            .field("recall", &self.recall)
            .field("specialized", &self.attr_filter.is_some())
            .finish()
    }
}

impl SimDetector {
    /// A general detector for the given class labels.
    pub fn general(
        name: impl Into<String>,
        classes: &[&str],
        cost: f64,
        recall: f32,
        salt: u64,
    ) -> Self {
        let name = name.into();
        Self {
            profile: ModelProfile::new(name, TaskKind::Detection, cost, recall),
            classes: classes.iter().map(|s| s.to_string()).collect(),
            recall,
            fp_rate: 0.01,
            bbox_jitter: 0.03,
            salt,
            attr_filter: None,
            leak_rate: 0.0,
        }
    }

    /// A specialized detector that only fires on entities of `classes`
    /// satisfying `filter` (plus a small leak rate on the rest).
    pub fn specialized(
        name: impl Into<String>,
        classes: &[&str],
        cost: f64,
        recall: f32,
        salt: u64,
        filter: EntityPredicate,
    ) -> Self {
        let mut d = Self::general(name, classes, cost, recall, salt);
        d.attr_filter = Some(filter);
        d.leak_rate = 0.02;
        d
    }

    /// Overrides the per-frame false-positive rate.
    pub fn with_fp_rate(mut self, fp_rate: f32) -> Self {
        self.fp_rate = fp_rate;
        self
    }

    /// Overrides the bounding-box jitter (fraction of box size).
    pub fn with_jitter(mut self, jitter: f32) -> Self {
        self.bbox_jitter = jitter;
        self
    }

    fn effective_recall(&self, bbox: &BBox) -> f32 {
        // Small objects are harder: taper recall below ~20x20 px.
        let area = bbox.area();
        if area < 400.0 {
            self.recall * 0.85
        } else {
            self.recall
        }
    }
}

impl Detector for SimDetector {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection> {
        clock.charge_model(&self.profile.name, self.profile.cost);
        // Room for every visible entity and one false positive.
        let mut out = Vec::with_capacity(frame.truth.visible.len() + 1);
        for v in &frame.truth.visible {
            if !self.classes.iter().any(|c| c == v.class_label) {
                continue;
            }
            let mut rng = det_rng(self.salt, frame.index, v.entity);
            let p_detect = match &self.attr_filter {
                Some(f) if !f(v) => self.leak_rate,
                _ => self.effective_recall(&v.bbox),
            };
            if rng.gen::<f32>() >= p_detect {
                continue;
            }
            let jw = self.bbox_jitter * v.bbox.width();
            let jh = self.bbox_jitter * v.bbox.height();
            let bbox = BBox::new(
                v.bbox.x1 + rng.gen_range(-jw..=jw),
                v.bbox.y1 + rng.gen_range(-jh..=jh),
                v.bbox.x2 + rng.gen_range(-jw..=jw),
                v.bbox.y2 + rng.gen_range(-jh..=jh),
            );
            out.push(Detection {
                class_label: v.class_label.to_owned(),
                bbox,
                score: 0.65 + 0.34 * rng.gen::<f32>(),
                sim_entity: Some(v.entity),
            });
        }
        // Occasional false positive somewhere on the frame.
        let mut fp_rng = det_rng(self.salt ^ 0xF9F9, frame.index, u64::MAX);
        if fp_rng.gen::<f32>() < self.fp_rate && !self.classes.is_empty() {
            let (w, h) = (
                frame.pixels.width() * frame.pixels.scale(),
                frame.pixels.height() * frame.pixels.scale(),
            );
            let cx = fp_rng.gen_range(0.0..w as f32);
            let cy = fp_rng.gen_range(0.0..h as f32);
            let bw = fp_rng.gen_range(30.0..120.0);
            let bh = fp_rng.gen_range(30.0..90.0);
            let class = self.classes[fp_rng.gen_range(0..self.classes.len())].clone();
            out.push(Detection {
                class_label: class,
                bbox: BBox::from_center(vqpy_video::geometry::Point::new(cx, cy), bw, bh),
                score: 0.5 + 0.2 * fp_rng.gen::<f32>(),
                sim_entity: None,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_video::color::NamedColor;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    fn video() -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::jackson(), 21, 30.0))
    }

    #[test]
    fn detections_match_truth_classes() {
        let v = video();
        let det = SimDetector::general("yolox", &["car", "bus", "truck", "person"], 30.0, 0.97, 1);
        let clock = Clock::new();
        let frame = v.frame(60);
        let dets = det.detect(&frame, &clock);
        for d in &dets {
            if let Some(id) = d.sim_entity {
                let t = frame.truth.entity(id).unwrap();
                assert_eq!(d.class_label, t.class_label);
                assert!(d.bbox.iou(&t.bbox) > 0.5, "jitter should be mild");
            }
        }
        assert!(clock.virtual_ms() >= 30.0);
    }

    #[test]
    fn detection_is_deterministic() {
        let v = video();
        let det = SimDetector::general("yolox", &["car"], 30.0, 0.95, 1);
        let f = v.frame(30);
        let a = det.detect(&f, &Clock::new());
        let b = det.detect(&f, &Clock::new());
        assert_eq!(a, b);
    }

    #[test]
    fn recall_is_roughly_honored() {
        let v = video();
        let det =
            SimDetector::general("d", &["car", "bus", "truck"], 1.0, 0.9, 5).with_fp_rate(0.0);
        let clock = Clock::new();
        let mut truth_count = 0usize;
        let mut detected = 0usize;
        for i in (0..v.frame_count()).step_by(5) {
            let f = v.frame(i);
            truth_count += f
                .truth
                .visible
                .iter()
                .filter(|e| matches!(e.class_label, "car" | "bus" | "truck"))
                .count();
            detected += det.detect(&f, &clock).len();
        }
        assert!(truth_count > 20, "need enough traffic to measure");
        let measured = detected as f32 / truth_count as f32;
        assert!(
            (0.75..=1.0).contains(&measured),
            "recall ~0.9 expected, measured {measured}"
        );
    }

    #[test]
    fn specialized_detector_prefers_matching_entities() {
        let v = video();
        let filter: EntityPredicate = Arc::new(|e: &VisibleEntity| {
            e.attrs
                .as_vehicle()
                .map(|a| a.color == NamedColor::Red)
                .unwrap_or(false)
        });
        let det =
            SimDetector::specialized("red_car", &["car"], 8.0, 0.93, 9, filter).with_fp_rate(0.0);
        let clock = Clock::new();
        let mut red = 0usize;
        let mut nonred = 0usize;
        let mut red_truth = 0usize;
        let mut nonred_truth = 0usize;
        for i in 0..v.frame_count() {
            let f = v.frame(i);
            for e in f.truth.of_class("car") {
                if e.attrs.as_vehicle().unwrap().color == NamedColor::Red {
                    red_truth += 1;
                } else {
                    nonred_truth += 1;
                }
            }
            for d in det.detect(&f, &clock) {
                let id = d.sim_entity.unwrap();
                let e = f.truth.entity(id).unwrap();
                if e.attrs.as_vehicle().map(|a| a.color) == Some(NamedColor::Red) {
                    red += 1;
                } else {
                    nonred += 1;
                }
            }
        }
        if red_truth > 0 {
            assert!(red > 0, "should detect red cars");
        }
        if nonred_truth > 50 {
            let leak = nonred as f32 / nonred_truth as f32;
            assert!(leak < 0.1, "leak rate should be small, got {leak}");
        }
    }
}
