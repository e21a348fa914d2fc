//! The injectable model-dispatch boundary.
//!
//! Every model-stage invocation the executors issue goes through a
//! [`ModelDispatch`]: the executor hands the dispatcher a model handle and
//! the stage's typed submission — live frames for detect and binary-filter
//! stages, one `(frame, crops)` job per frame of the batch for
//! classify/projection stages — and gets the stage's results back. The
//! default ([`DirectDispatch`]) calls the model's own batched entry point:
//! one physical invocation per (stream, batch) for every stage.
//!
//! A dispatch layer implements one method, [`DispatchLayer::call`], over a
//! borrowed, stage-tagged [`ModelCall`], and answers with the stage's own
//! [`ModelReply`] variant; a blanket impl gives every layer the typed
//! [`ModelDispatch`] methods the engine's operators call.
//!
//! The indirection exists for the serving layer: a multi-stream supervisor
//! installs a *shared* dispatcher (`vqpy-serve`'s `ModelBatcher`) that
//! coalesces submissions from many concurrent streams **per (stage,
//! model)** into one physical `detect_batch` / `predict_batch` /
//! `classify_batch_jobs` call and demultiplexes the results back,
//! amortizing the fixed per-invocation dispatch overhead across streams.
//! Because every simulated model answers deterministically per (frame,
//! entity), routing a submission through a larger cross-stream batch never
//! changes its results — only the charged (and, on an exclusive device,
//! wall-realized) cost.
//!
//! The boundary is **fallible**: every entry point returns a
//! `Result<_, ModelFault>` so a transient model failure (an injected
//! fault, a panicking coalesced batch, a real backend hiccup) surfaces as
//! a typed error instead of a panic. [`RetryDispatch`] layers a
//! [`RetryPolicy`] — bounded retries with exponential backoff charged
//! honestly through the [`Clock`] — over any inner dispatcher; because
//! models answer deterministically, a successful retry returns exactly
//! what the failed attempt would have.
//!
//! Dispatchers must be [`Send`] + [`Sync`]: the pipelined executor's detect
//! workers share one dispatcher across threads, and the sequential tail
//! submits classify traffic through the same handle.

use std::sync::Arc;
use vqpy_models::{
    Classifier, Clock, Detection, Detector, FrameClassifier, ModelFault, ModelProfile, Value,
};
use vqpy_video::frame::Frame;

/// The model stages whose invocations cross the dispatch boundary. Indexes
/// per-stage accounting (e.g. the serving batcher's coalesce counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelStage {
    /// Object detection over live frames (`detect_batch`).
    Detect,
    /// Frame-level binary filters over live frames (`predict_batch`).
    Predict,
    /// Per-object property models over a batch's crops
    /// (`classify_batch_jobs`).
    Classify,
}

impl ModelStage {
    /// All stages, in a stable order usable for indexed storage.
    pub const ALL: [ModelStage; 3] = [
        ModelStage::Detect,
        ModelStage::Predict,
        ModelStage::Classify,
    ];

    /// Stable lowercase name for reports and metrics keys.
    pub fn name(&self) -> &'static str {
        match self {
            ModelStage::Detect => "detect",
            ModelStage::Predict => "predict",
            ModelStage::Classify => "classify",
        }
    }

    /// The stage's position in [`ModelStage::ALL`].
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// One model-stage invocation, tagged by stage. It borrows the model and
/// the submission the engine already holds, so building one allocates
/// nothing.
#[derive(Clone, Copy)]
pub enum ModelCall<'a> {
    /// Detect over live frames: one detection list per frame back.
    Detect {
        model: &'a Arc<dyn Detector>,
        frames: &'a [&'a Frame],
    },
    /// A binary frame filter over live frames: one verdict per frame back.
    Predict {
        model: &'a Arc<dyn FrameClassifier>,
        frames: &'a [&'a Frame],
    },
    /// A property model over one `(frame, crops)` job per frame: one value
    /// list per job back.
    Classify {
        model: &'a Arc<dyn Classifier>,
        jobs: &'a [(&'a Frame, &'a [Detection])],
    },
}

impl ModelCall<'_> {
    /// The call's stage.
    pub fn stage(&self) -> ModelStage {
        match self {
            ModelCall::Detect { .. } => ModelStage::Detect,
            ModelCall::Predict { .. } => ModelStage::Predict,
            ModelCall::Classify { .. } => ModelStage::Classify,
        }
    }

    /// The model's registry name.
    pub fn model_name(&self) -> &str {
        match self {
            ModelCall::Detect { model, .. } => &model.profile().name,
            ModelCall::Predict { model, .. } => &model.profile().name,
            ModelCall::Classify { model, .. } => &model.profile().name,
        }
    }

    /// The model's `Arc` identity: a model *instance*, not a registry
    /// name. Two same-named models may be configured differently.
    pub fn model_key(&self) -> usize {
        match self {
            ModelCall::Detect { model, .. } => Arc::as_ptr(model) as *const () as usize,
            ModelCall::Predict { model, .. } => Arc::as_ptr(model) as *const () as usize,
            ModelCall::Classify { model, .. } => Arc::as_ptr(model) as *const () as usize,
        }
    }

    /// Items the call puts through the model: frames for detect and
    /// predict, crops for classify.
    pub fn items(&self) -> usize {
        match self {
            ModelCall::Detect { frames, .. } | ModelCall::Predict { frames, .. } => frames.len(),
            ModelCall::Classify { jobs, .. } => jobs.iter().map(|(_, dets)| dets.len()).sum(),
        }
    }

    /// Issues the call through a typed dispatcher: how a layer reaches the
    /// dispatcher it wraps.
    ///
    /// # Errors
    ///
    /// The dispatcher's [`ModelFault`].
    pub fn send(self, to: &dyn ModelDispatch, clock: &Clock) -> Result<ModelReply, ModelFault> {
        match self {
            ModelCall::Detect { model, frames } => {
                to.detect(model, frames, clock).map(ModelReply::Detect)
            }
            ModelCall::Predict { model, frames } => {
                to.predict(model, frames, clock).map(ModelReply::Predict)
            }
            ModelCall::Classify { model, jobs } => to
                .classify_jobs(model, jobs, clock)
                .map(ModelReply::Classify),
        }
    }
}

/// The answer to a [`ModelCall`], in the call's stage and order.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelReply {
    /// One detection list per frame.
    Detect(Vec<Vec<Detection>>),
    /// One verdict per frame.
    Predict(Vec<bool>),
    /// One value list per job.
    Classify(Vec<Vec<Value>>),
}

impl ModelReply {
    /// The stage the reply answers.
    pub fn stage(&self) -> ModelStage {
        match self {
            ModelReply::Detect(_) => ModelStage::Detect,
            ModelReply::Predict(_) => ModelStage::Predict,
            ModelReply::Classify(_) => ModelStage::Classify,
        }
    }

    /// The fault a layer's reply of the wrong stage becomes.
    fn mismatch(&self, model: &ModelProfile, want: ModelStage) -> ModelFault {
        let (want, got) = (want.name(), self.stage().name());
        ModelFault::new(&model.name, format!("a {want} call got a {got} reply"))
    }

    /// Splits off the answers to the first `n` frames (or jobs), leaving
    /// the rest: how a coalesced reply is handed back to each submitter in
    /// order.
    pub fn split_front(&mut self, n: usize) -> ModelReply {
        fn front<T>(v: &mut Vec<T>, n: usize) -> Vec<T> {
            let rest = v.split_off(n.min(v.len()));
            std::mem::replace(v, rest)
        }
        match self {
            ModelReply::Detect(v) => ModelReply::Detect(front(v, n)),
            ModelReply::Predict(v) => ModelReply::Predict(front(v, n)),
            ModelReply::Classify(v) => ModelReply::Classify(front(v, n)),
        }
    }
}

/// A dispatch layer: one entry point for every model stage. Its reply
/// must be the call's own [`ModelReply`] variant, and its values must
/// equal the model's own batched entry point on the same submission,
/// however the physical invocation is organized. Every layer is a
/// [`ModelDispatch`] through the blanket impl.
pub trait DispatchLayer: Send + Sync {
    /// Issues `call`.
    ///
    /// # Errors
    ///
    /// A [`ModelFault`] when the invocation failed and the layer did not
    /// (or could not) recover it.
    fn call(&self, call: ModelCall<'_>, clock: &Clock) -> Result<ModelReply, ModelFault>;
}

/// The typed face of the dispatch boundary: one method per stage, the
/// calls the engine's operators make. Each method's `Ok` value must equal
/// the model's own batched entry point on the same submission. Every
/// [`DispatchLayer`] implements it.
///
/// Each method errors with a [`ModelFault`] when the invocation failed and
/// the dispatcher did not (or could not) recover it.
pub trait ModelDispatch: Send + Sync {
    /// [`ModelCall::Detect`]: one detection list per frame, in order.
    fn detect(
        &self,
        model: &Arc<dyn Detector>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault>;

    /// [`ModelCall::Predict`]: one verdict per frame, in order.
    fn predict(
        &self,
        model: &Arc<dyn FrameClassifier>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<bool>, ModelFault>;

    /// One `(frame, crops)` job: one value per crop, in order. The engine
    /// does not call this; it is the one required classify method, so a
    /// dispatcher written against it alone works through `classify_jobs`.
    fn classify(
        &self,
        model: &Arc<dyn Classifier>,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault>;

    /// [`ModelCall::Classify`]: one value list per job, in order. The
    /// projection operator issues one such call per model per batch. The
    /// default runs [`ModelDispatch::classify`] per job, one physical
    /// invocation each; every [`DispatchLayer`] issues one for the call.
    fn classify_jobs(
        &self,
        model: &Arc<dyn Classifier>,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        jobs.iter()
            .map(|(frame, dets)| self.classify(model, frame, dets, clock))
            .collect()
    }
}

impl<T: DispatchLayer> ModelDispatch for T {
    fn detect(
        &self,
        model: &Arc<dyn Detector>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        match self.call(ModelCall::Detect { model, frames }, clock)? {
            ModelReply::Detect(out) => Ok(out),
            other => Err(other.mismatch(model.profile(), ModelStage::Detect)),
        }
    }

    fn predict(
        &self,
        model: &Arc<dyn FrameClassifier>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<bool>, ModelFault> {
        match self.call(ModelCall::Predict { model, frames }, clock)? {
            ModelReply::Predict(out) => Ok(out),
            other => Err(other.mismatch(model.profile(), ModelStage::Predict)),
        }
    }

    fn classify(
        &self,
        model: &Arc<dyn Classifier>,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        let mut values = self.classify_jobs(model, &[(frame, dets)], clock)?;
        Ok(values.pop().unwrap_or_default())
    }

    fn classify_jobs(
        &self,
        model: &Arc<dyn Classifier>,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        match self.call(ModelCall::Classify { model, jobs }, clock)? {
            ModelReply::Classify(out) => Ok(out),
            other => Err(other.mismatch(model.profile(), ModelStage::Classify)),
        }
    }
}

/// The default boundary: one physical batched invocation per call, issued
/// directly on the calling thread through the models' fallible entry
/// points.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectDispatch;

impl DispatchLayer for DirectDispatch {
    fn call(&self, call: ModelCall<'_>, clock: &Clock) -> Result<ModelReply, ModelFault> {
        match call {
            ModelCall::Detect { model, frames } => model
                .try_detect_batch(frames, clock)
                .map(ModelReply::Detect),
            ModelCall::Predict { model, frames } => model
                .try_predict_batch(frames, clock)
                .map(ModelReply::Predict),
            ModelCall::Classify { model, jobs } => model
                .try_classify_batch_jobs(jobs, clock)
                .map(ModelReply::Classify),
        }
    }
}

/// A process-wide [`DirectDispatch`] for contexts built without a custom
/// boundary (offline execution, tests).
pub fn direct() -> &'static DirectDispatch {
    static DIRECT: DirectDispatch = DirectDispatch;
    &DIRECT
}

/// Charge label under which retry backoff is recorded, so experiments can
/// see exactly how much virtual time fault recovery cost.
pub const RETRY_BACKOFF_LABEL: &str = "retry_backoff";

/// Bounded-retry policy for the dispatch boundary.
///
/// On a [`ModelFault`], the dispatcher waits `backoff_base_ms * 2^attempt`
/// (charged to the [`Clock`] under [`RETRY_BACKOFF_LABEL`], so backoff is
/// real virtual time, not free) and re-issues the invocation, up to
/// `max_retries` times. A `stage_timeout_ms` bounds the *total* backoff a
/// single stage invocation may accumulate: once the budget would be
/// exceeded, the fault is returned even if retries remain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-issues after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `k` (0-based) is `backoff_base_ms * 2^k`.
    pub backoff_base_ms: f64,
    /// Cap on total backoff per stage invocation, when set.
    pub stage_timeout_ms: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_ms: 4.0,
            stage_timeout_ms: Some(250.0),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: faults surface immediately.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            backoff_base_ms: 0.0,
            stage_timeout_ms: None,
        }
    }

    fn run<T>(
        &self,
        clock: &Clock,
        stage: ModelStage,
        tracer: &vqpy_obs::Tracer,
        mut attempt: impl FnMut() -> Result<T, ModelFault>,
    ) -> Result<T, ModelFault> {
        let mut backoff_spent = 0.0f64;
        let mut last = match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        for k in 0..self.max_retries {
            let wait = self.backoff_base_ms * (1u64 << k.min(62)) as f64;
            if let Some(budget) = self.stage_timeout_ms {
                if backoff_spent + wait > budget {
                    break;
                }
            }
            if wait > 0.0 {
                let _span = tracer
                    .span("dispatch", RETRY_BACKOFF_LABEL)
                    .arg("stage", stage.name())
                    .arg("attempt", k + 1)
                    .arg("wait_ms", wait);
                clock.wait_labeled(RETRY_BACKOFF_LABEL, wait);
                backoff_spent += wait;
            }
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

/// Wraps any [`ModelDispatch`] with a [`RetryPolicy`]. The serving
/// supervisor installs this over its shared batcher handle so every
/// stream's stage invocations get bounded, honestly-charged retries.
pub struct RetryDispatch {
    inner: Arc<dyn ModelDispatch>,
    policy: RetryPolicy,
    tracer: vqpy_obs::Tracer,
}

impl RetryDispatch {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: Arc<dyn ModelDispatch>, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            tracer: vqpy_obs::Tracer::disabled(),
        }
    }

    /// Installs a span tracer: every backoff wait is recorded as a
    /// `retry_backoff` span carrying stage, attempt, and wait attributes.
    pub fn with_tracer(mut self, tracer: vqpy_obs::Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

impl DispatchLayer for RetryDispatch {
    fn call(&self, call: ModelCall<'_>, clock: &Clock) -> Result<ModelReply, ModelFault> {
        self.policy.run(clock, call.stage(), &self.tracer, || {
            call.send(&*self.inner, clock)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_models::detectors::SimDetector;
    use vqpy_models::{FaultInjector, FaultPlan, ModelZoo};
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    #[test]
    fn direct_dispatch_equals_detect_batch() {
        let det: Arc<dyn Detector> =
            Arc::new(SimDetector::general("yolox", &["car"], 30.0, 0.95, 1));
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 3, 5.0));
        let frames: Vec<Frame> = (0..4).map(|i| v.frame(i)).collect();
        let refs: Vec<&Frame> = frames.iter().collect();
        let a = DirectDispatch.detect(&det, &refs, &Clock::new()).unwrap();
        let b = det.detect_batch(&refs, &Clock::new());
        assert_eq!(a, b);
    }

    #[test]
    fn direct_dispatch_equals_model_entry_points_on_every_stage() {
        let zoo = ModelZoo::standard();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 11, 5.0));
        let frames: Vec<Frame> = (0..3).map(|i| v.frame(i)).collect();
        let refs: Vec<&Frame> = frames.iter().collect();

        let filter = zoo.frame_classifier("no_red_on_road").unwrap();
        assert_eq!(
            DirectDispatch
                .predict(&filter, &refs, &Clock::new())
                .unwrap(),
            filter.predict_batch(&refs, &Clock::new()),
        );

        let det = zoo.detector("yolox").unwrap();
        let dets = det.detect(&frames[0], &Clock::new());
        let clf = zoo.classifier("direction_model").unwrap();
        assert_eq!(
            DirectDispatch
                .classify(&clf, &frames[0], &dets, &Clock::new())
                .unwrap(),
            clf.classify_batch(&frames[0], &dets, &Clock::new()),
        );
        let later = det.detect(&frames[2], &Clock::new());
        let jobs = [(&frames[0], &dets[..]), (&frames[2], &later[..])];
        assert_eq!(
            DirectDispatch
                .classify_jobs(&clf, &jobs, &Clock::new())
                .unwrap(),
            clf.classify_batch_jobs(&jobs, &Clock::new()),
        );
    }

    /// A failed multi-job classify call is retried whole: one physical
    /// call fails, one succeeds with every job's values.
    #[test]
    fn retry_reissues_a_whole_multi_job_classify_call() {
        let zoo = ModelZoo::standard();
        let clean = zoo.classifier("color_detect").unwrap();
        let inj = FaultInjector::new(FaultPlan::every_nth(5, 1).heal_after(1));
        let clf = inj.wrap_classifier(Arc::clone(&clean));
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 11, 5.0));
        let frames: Vec<Frame> = (0..3).map(|i| v.frame(i)).collect();
        let det = zoo.detector("yolox").unwrap();
        let dets: Vec<Vec<Detection>> = frames
            .iter()
            .map(|f| det.detect(f, &Clock::new()))
            .collect();
        let jobs: Vec<(&Frame, &[Detection])> =
            frames.iter().zip(&dets).map(|(f, d)| (f, &d[..])).collect();
        assert!(jobs.iter().any(|(_, d)| !d.is_empty()));
        let retry = RetryDispatch::new(Arc::new(DirectDispatch), RetryPolicy::default());
        let clock = Clock::new();
        let got = retry.classify_jobs(&clf, &jobs, &clock).unwrap();
        assert_eq!(got, clean.classify_batch_jobs(&jobs, &Clock::new()));
        assert_eq!(inj.injected_faults(), 1);
        let launches = clock.stat(vqpy_models::DISPATCH_LABEL).unwrap();
        assert_eq!(launches.invocations, 1, "the retry is one physical call");
    }

    #[test]
    fn stage_taxonomy_is_stable() {
        for (i, s) in ModelStage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(
            ModelStage::ALL.map(|s| s.name()),
            ["detect", "predict", "classify"]
        );
    }

    fn faulty_detector(n: u64) -> (FaultInjector, Arc<dyn Detector>) {
        let inj = FaultInjector::new(FaultPlan::every_nth(3, n));
        let det = inj.wrap_detector(Arc::new(SimDetector::general(
            "yolox",
            &["car"],
            30.0,
            0.95,
            1,
        )));
        (inj, det)
    }

    #[test]
    fn retry_recovers_transient_faults_with_identical_results() {
        // Every 1st invocation of each pair fails; the retry succeeds and
        // must return exactly what a clean call returns.
        let (inj, det) = faulty_detector(2);
        let clean: Arc<dyn Detector> =
            Arc::new(SimDetector::general("yolox", &["car"], 30.0, 0.95, 1));
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 3, 5.0));
        let frames: Vec<Frame> = (0..4).map(|i| v.frame(i)).collect();
        let refs: Vec<&Frame> = frames.iter().collect();

        let retry = RetryDispatch::new(Arc::new(DirectDispatch), RetryPolicy::default());
        let clock = Clock::new();
        // Invocation #1 succeeds, #2 fails and is retried as #3.
        let first = retry.detect(&det, &refs, &clock).unwrap();
        let second = retry.detect(&det, &refs, &clock).unwrap();
        let want = clean.detect_batch(&refs, &Clock::new());
        assert_eq!(first, want);
        assert_eq!(second, want);
        assert_eq!(inj.injected_faults(), 1);
        // Backoff was charged honestly: one retry at base backoff.
        let stat = clock.stat(RETRY_BACKOFF_LABEL).expect("backoff charged");
        assert_eq!(stat.invocations, 1);
        assert_eq!(stat.units, RetryPolicy::default().backoff_base_ms);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        // Every invocation fails; the fault must surface after exactly
        // max_retries + 1 attempts.
        let inj = FaultInjector::new(FaultPlan::every_nth(3, 1));
        let det = inj.wrap_detector(Arc::new(SimDetector::general(
            "yolox",
            &["car"],
            30.0,
            0.95,
            1,
        )));
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 3, 2.0));
        let frame = v.frame(0);
        let retry = RetryDispatch::new(
            Arc::new(DirectDispatch),
            RetryPolicy {
                max_retries: 3,
                backoff_base_ms: 1.0,
                stage_timeout_ms: None,
            },
        );
        let err = retry.detect(&det, &[&frame], &Clock::new()).unwrap_err();
        assert!(err.message.contains("injected"));
        assert_eq!(inj.injected_faults(), 4); // initial + 3 retries
    }

    #[test]
    fn stage_timeout_bounds_total_backoff() {
        let inj = FaultInjector::new(FaultPlan::every_nth(3, 1));
        let det = inj.wrap_detector(Arc::new(SimDetector::general(
            "yolox",
            &["car"],
            30.0,
            0.95,
            1,
        )));
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 3, 2.0));
        let frame = v.frame(0);
        let clock = Clock::new();
        let retry = RetryDispatch::new(
            Arc::new(DirectDispatch),
            RetryPolicy {
                max_retries: 10,
                backoff_base_ms: 4.0,
                // Budget admits 4 + 8 = 12ms of backoff; the third retry
                // (16ms) would exceed it.
                stage_timeout_ms: Some(15.0),
            },
        );
        assert!(retry.detect(&det, &[&frame], &clock).is_err());
        assert_eq!(inj.injected_faults(), 3); // initial + 2 affordable retries
        let stat = clock.stat(RETRY_BACKOFF_LABEL).unwrap();
        assert_eq!(stat.units, 12.0);
    }
}
