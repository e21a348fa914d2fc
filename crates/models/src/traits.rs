//! Model traits and profiles.
//!
//! Four model shapes cover everything the paper's pipelines use:
//! object detectors, per-object classifiers (attribute/property models),
//! frame-level binary classifiers (the cheap filters of §4.4), and
//! human-object-interaction models.

use crate::clock::{Clock, CostUnits};
use crate::detection::Detection;
use crate::fault::ModelFault;
use crate::value::Value;
use vqpy_video::frame::Frame;

/// What a model does; drives planner operator selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    Detection,
    Classification,
    FrameClassification,
    Interaction,
    Embedding,
}

/// Static metadata the planner uses to cost and compare models.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Registry name, e.g. `"yolox"`.
    pub name: String,
    pub task: TaskKind,
    /// Virtual milliseconds charged per invocation (per frame for
    /// detectors/frame classifiers, per object for classifiers).
    pub cost: CostUnits,
    /// Approximate recall on its task, in `[0, 1]`; used by the planner's
    /// accuracy estimation before canary profiling refines it.
    pub approx_recall: f32,
}

impl ModelProfile {
    /// Creates a profile.
    pub fn new(
        name: impl Into<String>,
        task: TaskKind,
        cost: CostUnits,
        approx_recall: f32,
    ) -> Self {
        Self {
            name: name.into(),
            task,
            cost,
            approx_recall,
        }
    }
}

/// Fraction of a model's per-invocation cost that is fixed dispatch
/// overhead (kernel launch, host-device transfer, framework entry). Batched
/// invocations amortize it: every item after the first in one physical
/// batch gets this fraction of its charge credited back (§4.1).
pub const BATCH_OVERHEAD_FRACTION: f64 = 0.15;

/// Fixed, *model-independent* virtual cost of issuing one physical
/// accelerator invocation (kernel launch, host-device transfer setup,
/// framework entry), charged once per physical `*_batch` call under the
/// [`DISPATCH_LABEL`] label. Unlike [`BATCH_OVERHEAD_FRACTION`], this
/// component does not scale with the model's per-item cost or the batch
/// size — the only way to pay it less often is to issue fewer, larger
/// physical batches, which is exactly what cross-stream batching buys.
/// Zero-cost pseudo-models (dataset-track sources) skip it: they model a
/// lookup, not a device dispatch.
pub const DISPATCH_LAUNCH_COST: f64 = 2.0;

/// Charge label of the fixed per-invocation launch cost, so per-model
/// invocation counts in [`Clock::stat`] stay unpolluted.
pub const DISPATCH_LABEL: &str = "dispatch";

/// One physical invocation of a model costing `cost` per item over
/// `items` items: the launch charge, `run` (which charges each item), then
/// the overhead credit, all in one [`Clock::batch_section`] — so in Latency
/// mode the amortized net is realized as a single device sleep.
fn physical_batch<T>(clock: &Clock, cost: CostUnits, items: usize, run: impl FnOnce() -> T) -> T {
    clock.batch_section(|| {
        if cost > 0.0 {
            clock.charge_model(DISPATCH_LABEL, DISPATCH_LAUNCH_COST);
        }
        let out = run();
        if items > 1 {
            clock.credit(cost * BATCH_OVERHEAD_FRACTION * (items - 1) as f64);
        }
        out
    })
}

/// An object detector: frame in, labeled boxes out.
pub trait Detector: Send + Sync {
    /// Static metadata.
    fn profile(&self) -> &ModelProfile;
    /// Runs detection on `frame`, charging the clock.
    fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection>;

    /// Runs detection over a batch of frames as one physical invocation,
    /// amortizing the fixed dispatch overhead across the batch. Results are
    /// identical to frame-at-a-time `detect`; only the charged cost differs.
    /// The whole call is one [`Clock::batch_section`], so in Latency mode
    /// the amortized net is realized as a single device sleep.
    fn detect_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<Vec<Detection>> {
        if frames.is_empty() {
            return Vec::new();
        }
        physical_batch(clock, self.profile().cost, frames.len(), || {
            frames.iter().map(|f| self.detect(f, clock)).collect()
        })
    }

    /// Fallible twin of [`Detector::detect_batch`]: the entry point the
    /// dispatch boundary calls. Simulated models never fail, so the
    /// default is `Ok(detect_batch(...))`; fault-injection wrappers (and
    /// real network-backed models) override it to surface transient
    /// failures as [`ModelFault`]s instead of panics.
    ///
    /// # Errors
    ///
    /// A [`ModelFault`] when the invocation fails transiently; retrying
    /// may succeed.
    fn try_detect_batch(
        &self,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        Ok(self.detect_batch(frames, clock))
    }
}

/// A per-object attribute model (color, type, plate, embedding, ...).
pub trait Classifier: Send + Sync {
    /// Static metadata.
    fn profile(&self) -> &ModelProfile;
    /// Computes the attribute for one detection, charging the clock.
    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value;

    /// Classifies several crops of one frame as one physical invocation,
    /// amortizing the fixed dispatch overhead across the crops. Results are
    /// identical to crop-at-a-time `classify`; only the charged cost
    /// differs.
    fn classify_batch(&self, frame: &Frame, dets: &[Detection], clock: &Clock) -> Vec<Value> {
        if dets.is_empty() {
            return Vec::new();
        }
        physical_batch(clock, self.profile().cost, dets.len(), || {
            dets.iter()
                .map(|d| self.classify(frame, d, clock))
                .collect()
        })
    }

    /// Classifies crops drawn from *several* frames — possibly several
    /// streams' frames — as **one** physical invocation: one `(frame,
    /// crops)` job per source, one `Vec<Value>` per job back, in order.
    /// This is the physical entry point of the projection stage (one call
    /// per model per batch, a job per frame) and of a cross-stream batcher
    /// folding many streams' batches into a single device dispatch.
    /// Results are identical to running each job alone; only the charged
    /// cost differs (one launch cost, one overhead amortization across
    /// every crop).
    fn classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Vec<Vec<Value>> {
        let items: usize = jobs.iter().map(|(_, dets)| dets.len()).sum();
        if items == 0 {
            return jobs.iter().map(|_| Vec::new()).collect();
        }
        physical_batch(clock, self.profile().cost, items, || {
            jobs.iter()
                .map(|(frame, dets)| {
                    dets.iter()
                        .map(|d| self.classify(frame, d, clock))
                        .collect()
                })
                .collect()
        })
    }

    /// Fallible twin of [`Classifier::classify_batch`]. See
    /// [`Detector::try_detect_batch`] for the contract.
    ///
    /// # Errors
    ///
    /// A [`ModelFault`] when the invocation fails transiently.
    fn try_classify_batch(
        &self,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        Ok(self.classify_batch(frame, dets, clock))
    }

    /// Fallible twin of [`Classifier::classify_batch_jobs`]. See
    /// [`Detector::try_detect_batch`] for the contract.
    ///
    /// # Errors
    ///
    /// A [`ModelFault`] when the invocation fails transiently.
    fn try_classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        Ok(self.classify_batch_jobs(jobs, clock))
    }
}

/// A frame-level yes/no model ("does this frame plausibly contain a red
/// car?"); the binary classifiers of §4.4.
pub trait FrameClassifier: Send + Sync {
    /// Static metadata.
    fn profile(&self) -> &ModelProfile;
    /// Predicts whether the frame is relevant, charging the clock.
    fn predict(&self, frame: &Frame, clock: &Clock) -> bool;

    /// Predicts a batch of frames as one physical invocation, amortizing
    /// the fixed dispatch overhead across the batch.
    fn predict_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<bool> {
        if frames.is_empty() {
            return Vec::new();
        }
        physical_batch(clock, self.profile().cost, frames.len(), || {
            frames.iter().map(|f| self.predict(f, clock)).collect()
        })
    }

    /// Fallible twin of [`FrameClassifier::predict_batch`]. See
    /// [`Detector::try_detect_batch`] for the contract.
    ///
    /// # Errors
    ///
    /// A [`ModelFault`] when the invocation fails transiently.
    fn try_predict_batch(&self, frames: &[&Frame], clock: &Clock) -> Result<Vec<bool>, ModelFault> {
        Ok(self.predict_batch(frames, clock))
    }
}

/// A detected subject-object interaction (e.g. person hits ball).
#[derive(Debug, Clone, PartialEq)]
pub struct HoiTriple {
    /// Index into the detections slice passed to the model.
    pub subject_idx: usize,
    /// Index into the detections slice passed to the model.
    pub object_idx: usize,
    /// Interaction label, e.g. `"hit"`.
    pub kind: String,
    pub score: f32,
}

/// A human-object-interaction model (the paper's UPT).
pub trait HoiModel: Send + Sync {
    /// Static metadata.
    fn profile(&self) -> &ModelProfile;
    /// Predicts interactions among `detections`, charging the clock.
    fn interactions(
        &self,
        frame: &Frame,
        detections: &[Detection],
        clock: &Clock,
    ) -> Vec<HoiTriple>;
}
