//! Simulated per-object attribute models.
//!
//! The color classifier genuinely reads rendered pixels (then injects a
//! small confusion rate); all other attribute models sample the ground truth
//! through deterministic noise. False-positive detections (no linked
//! entity) get arbitrary-but-deterministic answers, as a real model would
//! confidently hallucinate on a bogus crop.

use crate::clock::Clock;
use crate::detection::{det_rng, Detection};
use crate::traits::{Classifier, ModelProfile, TaskKind};
use crate::value::Value;
use rand::Rng;
use vqpy_video::color::NamedColor;
use vqpy_video::entity::{PersonAction, VehicleType};
use vqpy_video::frame::Frame;

fn entity_key(det: &Detection) -> u64 {
    det.sim_entity.unwrap_or(u64::MAX)
}

/// Pixel-reading color model (the paper's `color_detect`).
#[derive(Debug)]
pub struct ColorClassifier {
    profile: ModelProfile,
    confusion: f32,
    salt: u64,
    /// One shared value per [`NamedColor::ALL`] entry: an answer is a
    /// reference-count bump.
    answers: Vec<Value>,
}

impl ColorClassifier {
    /// Creates the classifier with the given cost and confusion rate.
    pub fn new(name: impl Into<String>, cost: f64, confusion: f32, salt: u64) -> Self {
        Self {
            profile: ModelProfile::new(name, TaskKind::Classification, cost, 1.0 - confusion),
            confusion,
            salt,
            answers: NamedColor::ALL
                .iter()
                .map(|c| Value::from(c.as_str()))
                .collect(),
        }
    }

    fn answer(&self, color: NamedColor) -> Value {
        let i = NamedColor::ALL.iter().position(|&c| c == color);
        self.answers[i.expect("every color is in the palette")].clone()
    }
}

impl Classifier for ColorClassifier {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        clock.charge_model(&self.profile.name, self.profile.cost);
        let mut rng = det_rng(self.salt, frame.index, entity_key(det));
        if rng.gen::<f32>() < self.confusion {
            return self.answers[rng.gen_range(0..NamedColor::ALL.len())].clone();
        }
        match frame.pixels.dominant_rgb_in(&det.bbox) {
            Some(rgb) => self.answer(NamedColor::nearest(rgb)),
            None => self.answers[rng.gen_range(0..NamedColor::ALL.len())].clone(),
        }
    }
}

/// Truth-sampling classifier over a closed label set, with confusion noise.
/// Used for vehicle type, direction, and person action models.
pub struct LabelClassifier {
    profile: ModelProfile,
    confusion: f32,
    salt: u64,
    labels: Vec<&'static str>,
    /// `labels` as shared values, index for index.
    answers: Vec<Value>,
    truth_label: fn(&vqpy_video::scene::VisibleEntity) -> Option<&'static str>,
}

impl std::fmt::Debug for LabelClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelClassifier")
            .field("profile", &self.profile)
            .field("labels", &self.labels)
            .finish()
    }
}

impl LabelClassifier {
    fn new(
        profile: ModelProfile,
        confusion: f32,
        salt: u64,
        labels: Vec<&'static str>,
        truth_label: fn(&vqpy_video::scene::VisibleEntity) -> Option<&'static str>,
    ) -> Self {
        Self {
            answers: labels.iter().map(|&l| Value::from(l)).collect(),
            profile,
            confusion,
            salt,
            labels,
            truth_label,
        }
    }

    /// Vehicle body-style model ("sedan", "suv", ...).
    pub fn vehicle_type(name: impl Into<String>, cost: f64, confusion: f32, salt: u64) -> Self {
        Self::new(
            ModelProfile::new(name, TaskKind::Classification, cost, 1.0 - confusion),
            confusion,
            salt,
            VehicleType::ALL.iter().map(|t| t.as_str()).collect(),
            |v| v.attrs.as_vehicle().map(|a| a.vtype.as_str()),
        )
    }

    /// Motion-direction model ("straight", "left", "right"); CVIP runs this
    /// as a model while VQPy computes direction natively from track history.
    pub fn direction(name: impl Into<String>, cost: f64, confusion: f32, salt: u64) -> Self {
        Self::new(
            ModelProfile::new(name, TaskKind::Classification, cost, 1.0 - confusion),
            confusion,
            salt,
            vec!["straight", "left", "right"],
            |v| Some(v.direction.as_str()),
        )
    }

    /// Person action model ("walking", "standing", ...).
    pub fn person_action(name: impl Into<String>, cost: f64, confusion: f32, salt: u64) -> Self {
        Self::new(
            ModelProfile::new(name, TaskKind::Classification, cost, 1.0 - confusion),
            confusion,
            salt,
            vec!["walking", "standing", "running", "hitting_ball"],
            |v| {
                v.attrs.as_person().map(|p| match p.action {
                    PersonAction::Walking => "walking",
                    PersonAction::Standing => "standing",
                    PersonAction::Running => "running",
                    PersonAction::HittingBall => "hitting_ball",
                })
            },
        )
    }
}

impl Classifier for LabelClassifier {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        clock.charge_model(&self.profile.name, self.profile.cost);
        let mut rng = det_rng(self.salt, frame.index, entity_key(det));
        let truth = det
            .sim_entity
            .and_then(|id| frame.truth.entity(id))
            .and_then(|v| (self.truth_label)(v));
        let known = |label| self.labels.iter().position(|l| *l == label);
        match truth {
            Some(label) if rng.gen::<f32>() >= self.confusion => match known(label) {
                Some(i) => self.answers[i].clone(),
                None => Value::from(label),
            },
            _ => self.answers[rng.gen_range(0..self.labels.len())].clone(),
        }
    }
}

/// License-plate OCR with per-character error.
#[derive(Debug)]
pub struct PlateRecognizer {
    profile: ModelProfile,
    char_error: f32,
    salt: u64,
}

impl PlateRecognizer {
    /// Creates the recognizer; `char_error` is the per-character flip rate.
    pub fn new(name: impl Into<String>, cost: f64, char_error: f32, salt: u64) -> Self {
        Self {
            profile: ModelProfile::new(name, TaskKind::Classification, cost, 1.0 - char_error),
            char_error,
            salt,
        }
    }
}

impl Classifier for PlateRecognizer {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        clock.charge_model(&self.profile.name, self.profile.cost);
        let mut rng = det_rng(self.salt, frame.index, entity_key(det));
        let truth = det
            .sim_entity
            .and_then(|id| frame.truth.entity(id))
            .and_then(|v| v.attrs.as_vehicle().map(|a| a.plate.clone()));
        match truth {
            Some(plate) => {
                let noisy: String = plate
                    .chars()
                    .map(|c| {
                        if rng.gen::<f32>() < self.char_error {
                            char::from(b'0' + rng.gen_range(0..10u8))
                        } else {
                            c
                        }
                    })
                    .collect();
                Value::from(noisy)
            }
            None => Value::from(vqpy_video::entity::plate_from_seed(rng.gen())),
        }
    }
}

/// Re-identification feature embedder: same entity yields nearby vectors
/// across frames; different entities yield near-orthogonal vectors.
#[derive(Debug)]
pub struct FeatureEmbedder {
    profile: ModelProfile,
    dim: usize,
    noise: f32,
    salt: u64,
}

impl FeatureEmbedder {
    /// Creates an embedder with `dim`-dimensional outputs.
    pub fn new(name: impl Into<String>, cost: f64, dim: usize, salt: u64) -> Self {
        Self {
            profile: ModelProfile::new(name, TaskKind::Embedding, cost, 0.95),
            dim,
            noise: 0.12,
            salt,
        }
    }

    fn base_vector(&self, entity: u64) -> Vec<f32> {
        let mut rng = det_rng(self.salt ^ 0xE1BED, 0, entity);
        let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut v);
        v
    }
}

fn normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

impl Classifier for FeatureEmbedder {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        clock.charge_model(&self.profile.name, self.profile.cost);
        let mut rng = det_rng(self.salt, frame.index, entity_key(det));
        let mut v = match det.sim_entity {
            Some(id) => self.base_vector(id),
            None => {
                let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                normalize(&mut v);
                v
            }
        };
        for x in v.iter_mut() {
            *x += rng.gen_range(-self.noise..self.noise);
        }
        normalize(&mut v);
        Value::FloatVec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::SimDetector;
    use crate::traits::Detector;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    fn setup() -> (SyntheticVideo, SimDetector) {
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 33, 40.0));
        let d = SimDetector::general("yolox", &["car", "bus", "truck", "person"], 30.0, 0.97, 1)
            .with_fp_rate(0.0);
        (v, d)
    }

    #[test]
    fn color_classifier_mostly_correct() {
        let (v, d) = setup();
        let model = ColorClassifier::new("color_detect", 5.0, 0.04, 7);
        let clock = Clock::new();
        let mut total = 0;
        let mut correct = 0;
        for i in (0..v.frame_count()).step_by(10) {
            let f = v.frame(i);
            for det in d.detect(&f, &clock) {
                if det.class_label == "person" {
                    continue;
                }
                let truth = f
                    .truth
                    .entity(det.sim_entity.unwrap())
                    .unwrap()
                    .attrs
                    .as_vehicle()
                    .unwrap()
                    .color;
                let predicted = model.classify(&f, &det, &clock);
                total += 1;
                if predicted.as_str() == Some(truth.as_str()) {
                    correct += 1;
                }
            }
        }
        assert!(total > 30, "need cars to classify, got {total}");
        let acc = correct as f32 / total as f32;
        assert!(acc > 0.75, "pixel color accuracy too low: {acc}");
    }

    #[test]
    fn type_classifier_samples_truth() {
        let (v, d) = setup();
        let model = LabelClassifier::vehicle_type("vtype", 5.0, 0.0, 3);
        let clock = Clock::new();
        let f = v.frame(120);
        for det in d.detect(&f, &clock) {
            if det.class_label == "person" {
                continue;
            }
            let truth = f
                .truth
                .entity(det.sim_entity.unwrap())
                .unwrap()
                .attrs
                .as_vehicle()
                .unwrap()
                .vtype;
            assert_eq!(
                model.classify(&f, &det, &clock).as_str(),
                Some(truth.as_str())
            );
        }
    }

    #[test]
    fn plate_recognizer_without_errors_is_exact() {
        let (v, d) = setup();
        let model = PlateRecognizer::new("plate", 7.0, 0.0, 3);
        let clock = Clock::new();
        let f = v.frame(150);
        for det in d.detect(&f, &clock) {
            if det.class_label == "person" {
                continue;
            }
            let truth = f
                .truth
                .entity(det.sim_entity.unwrap())
                .unwrap()
                .attrs
                .as_vehicle()
                .unwrap()
                .plate
                .clone();
            assert_eq!(
                model.classify(&f, &det, &clock).as_str(),
                Some(truth.as_str())
            );
        }
    }

    #[test]
    fn embedder_separates_identities() {
        let (v, d) = setup();
        let model = FeatureEmbedder::new("reid", 9.0, 16, 11);
        let clock = Clock::new();
        // Find an entity visible on two separated frames.
        let f1 = v.frame(100);
        let dets1 = d.detect(&f1, &clock);
        let Some(target) = dets1.iter().find(|x| x.class_label != "person") else {
            return;
        };
        let id = target.sim_entity.unwrap();
        let mut same_sim = None;
        for i in 101..v.frame_count() {
            let f2 = v.frame(i);
            let dets2 = d.detect(&f2, &clock);
            if let Some(later) = dets2.iter().find(|x| x.sim_entity == Some(id)) {
                let e1 = model.classify(&f1, target, &clock);
                let e2 = model.classify(&f2, later, &clock);
                same_sim = e1.cosine_similarity(&e2);
                // And a different entity should be far.
                if let Some(other) = dets2.iter().find(|x| x.sim_entity != Some(id)) {
                    let e3 = model.classify(&f2, other, &clock);
                    let cross = e1.cosine_similarity(&e3).unwrap();
                    assert!(cross < 0.8, "distinct entities too similar: {cross}");
                }
                break;
            }
        }
        if let Some(s) = same_sim {
            assert!(s > 0.8, "same entity similarity too low: {s}");
        }
    }
}
