//! Interposers the harness owns: a video source, the three model
//! shapes, and the dispatch boundary, each forwarding to the real thing
//! inside a [`Trace`] span. Installed in traced runs only, through the
//! program's public registration points (`ModelZoo::register_*`,
//! `StreamOptions::dispatch`, the `Arc<dyn VideoSource>` a stream is
//! opened over), so nothing inside the program changes.
//!
//! A span's request identifier is `(video id, frame index)`: the frame
//! carries both, so every layer a frame passes through agrees on it.

use crate::trace::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vqpy_core::{DirectDispatch, ModelDispatch};
use vqpy_models::{
    Classifier, Clock, Detection, Detector, FrameClassifier, ModelFault, ModelProfile, ModelZoo,
    Value,
};
use vqpy_video::frame::Frame;
use vqpy_video::geometry::BBox;
use vqpy_video::source::{DecodeFault, VideoSource};
use vqpy_video::Scene;

fn first(frames: &[&Frame]) -> (u32, u64) {
    frames
        .first()
        .map_or((0, 0), |f| (f.video_id as u32, f.index))
}

/// A video source that times every decode and remembers when each frame
/// was first asked for (the first `try_frame` of a step is when the
/// scheduler actually got to it).
pub struct TimedSource {
    inner: Arc<dyn VideoSource>,
    trace: Arc<Trace>,
    /// Trace-epoch nanoseconds of each frame's first decode; 0 = never.
    first_decode_ns: Vec<AtomicU64>,
}

impl TimedSource {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn VideoSource>, trace: Arc<Trace>) -> Self {
        let first_decode_ns = (0..inner.frame_count())
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            inner,
            trace,
            first_decode_ns,
        }
    }

    /// When `frame` was first decoded, in trace-epoch nanoseconds.
    pub fn first_decode_ns(&self, frame: u64) -> Option<u64> {
        self.first_decode_ns
            .get(frame as usize)
            .map(|t| t.load(Ordering::Relaxed))
            .filter(|&t| t > 0)
    }

    fn stamp(&self, index: u64) {
        if let Some(slot) = self.first_decode_ns.get(index as usize) {
            let _ = slot.compare_exchange(
                0,
                self.trace.now_ns().max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

impl VideoSource for TimedSource {
    fn video_id(&self) -> u64 {
        self.inner.video_id()
    }

    fn fps(&self) -> u32 {
        self.inner.fps()
    }

    fn resolution(&self) -> (u32, u32) {
        self.inner.resolution()
    }

    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }

    fn frame(&self, index: u64) -> Frame {
        self.stamp(index);
        let id = self.inner.video_id() as u32;
        self.trace
            .in_span("video.decode", id, index, 1, || self.inner.frame(index))
    }

    fn try_frame(&self, index: u64) -> Result<Frame, DecodeFault> {
        self.stamp(index);
        let id = self.inner.video_id() as u32;
        self.trace
            .in_span("video.decode", id, index, 1, || self.inner.try_frame(index))
    }

    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

/// One frame's detections as the tracker sees them: the frame index and
/// each detection's box and class label.
pub type LoggedFrame = (u64, Vec<(BBox, String)>);

/// Detections of one video, kept for the tracker replay.
#[derive(Default)]
pub struct DetectionLog {
    /// The video whose detections are kept; 0 keeps nothing.
    video: AtomicU64,
    frames: Mutex<Vec<LoggedFrame>>,
}

/// Most frames the log keeps (the replay needs a sample, not the run).
const DETECTION_LOG_FRAMES: usize = 4096;

impl DetectionLog {
    /// Starts keeping the detections of `video_id` (and drops what was
    /// kept before).
    pub fn watch(&self, video_id: u64) {
        self.video.store(video_id, Ordering::Relaxed);
        self.frames.lock().expect("log lock").clear();
    }

    /// Stops keeping detections.
    pub fn stop(&self) {
        self.video.store(0, Ordering::Relaxed);
    }

    fn record(&self, frames: &[&Frame], out: &[Vec<Detection>]) {
        let video = self.video.load(Ordering::Relaxed);
        if video == 0 {
            return;
        }
        let mut log = self.frames.lock().expect("log lock");
        for (f, dets) in frames.iter().zip(out) {
            if f.video_id == video && log.len() < DETECTION_LOG_FRAMES {
                log.push((
                    f.index,
                    dets.iter()
                        .map(|d| (d.bbox, d.class_label.clone()))
                        .collect(),
                ));
            }
        }
    }

    /// The kept detections in frame order.
    pub fn take(&self) -> Vec<LoggedFrame> {
        let mut frames = std::mem::take(&mut *self.frames.lock().expect("log lock"));
        frames.sort_by_key(|(i, _)| *i);
        frames
    }
}

/// A detector that times every call and logs one video's detections.
pub struct TimedDetector {
    inner: Arc<dyn Detector>,
    trace: Arc<Trace>,
    log: Arc<DetectionLog>,
}

impl Detector for TimedDetector {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection> {
        let out = self.trace.in_span(
            "models.detect",
            frame.video_id as u32,
            frame.index,
            1,
            || self.inner.detect(frame, clock),
        );
        self.log.record(&[frame], std::slice::from_ref(&out));
        out
    }

    fn detect_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<Vec<Detection>> {
        let (stream, frame) = first(frames);
        let out = self
            .trace
            .in_span("models.detect", stream, frame, frames.len() as u32, || {
                self.inner.detect_batch(frames, clock)
            });
        self.log.record(frames, &out);
        out
    }

    fn try_detect_batch(
        &self,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        let (stream, frame) = first(frames);
        let out =
            self.trace
                .in_span("models.detect", stream, frame, frames.len() as u32, || {
                    self.inner.try_detect_batch(frames, clock)
                })?;
        self.log.record(frames, &out);
        Ok(out)
    }
}

/// A per-object classifier that times every call.
pub struct TimedClassifier {
    inner: Arc<dyn Classifier>,
    trace: Arc<Trace>,
}

/// The request identifier and crop count of a cross-frame classify call.
fn of_jobs(jobs: &[(&Frame, &[Detection])]) -> (u32, u64, u32) {
    let (stream, frame) = jobs
        .first()
        .map_or((0, 0), |(f, _)| (f.video_id as u32, f.index));
    (
        stream,
        frame,
        jobs.iter().map(|(_, d)| d.len() as u32).sum(),
    )
}

impl Classifier for TimedClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        self.trace.in_span(
            "models.classify",
            frame.video_id as u32,
            frame.index,
            1,
            || self.inner.classify(frame, det, clock),
        )
    }

    fn classify_batch(&self, frame: &Frame, dets: &[Detection], clock: &Clock) -> Vec<Value> {
        self.trace.in_span(
            "models.classify",
            frame.video_id as u32,
            frame.index,
            dets.len() as u32,
            || self.inner.classify_batch(frame, dets, clock),
        )
    }

    fn classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Vec<Vec<Value>> {
        let (stream, frame, crops) = of_jobs(jobs);
        self.trace
            .in_span("models.classify", stream, frame, crops, || {
                self.inner.classify_batch_jobs(jobs, clock)
            })
    }

    fn try_classify_batch(
        &self,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        self.trace.in_span(
            "models.classify",
            frame.video_id as u32,
            frame.index,
            dets.len() as u32,
            || self.inner.try_classify_batch(frame, dets, clock),
        )
    }

    fn try_classify_batch_jobs(
        &self,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        let (stream, frame, crops) = of_jobs(jobs);
        self.trace
            .in_span("models.classify", stream, frame, crops, || {
                self.inner.try_classify_batch_jobs(jobs, clock)
            })
    }
}

/// A frame-level binary classifier that times every call.
pub struct TimedFrameClassifier {
    inner: Arc<dyn FrameClassifier>,
    trace: Arc<Trace>,
}

impl FrameClassifier for TimedFrameClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn predict(&self, frame: &Frame, clock: &Clock) -> bool {
        self.trace.in_span(
            "models.predict",
            frame.video_id as u32,
            frame.index,
            1,
            || self.inner.predict(frame, clock),
        )
    }

    fn predict_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<bool> {
        let (stream, frame) = first(frames);
        self.trace
            .in_span("models.predict", stream, frame, frames.len() as u32, || {
                self.inner.predict_batch(frames, clock)
            })
    }

    fn try_predict_batch(&self, frames: &[&Frame], clock: &Clock) -> Result<Vec<bool>, ModelFault> {
        let (stream, frame) = first(frames);
        self.trace
            .in_span("models.predict", stream, frame, frames.len() as u32, || {
                self.inner.try_predict_batch(frames, clock)
            })
    }
}

/// Re-registers every model the benchmark's queries can reach over its
/// own name, wrapped in its timing interposer. Returns the detection log
/// the detectors feed.
pub fn instrument_zoo(zoo: &ModelZoo, trace: &Arc<Trace>) -> Arc<DetectionLog> {
    let log = Arc::new(DetectionLog::default());
    for name in zoo.names() {
        if let Ok(inner) = zoo.detector(&name) {
            zoo.register_detector(Arc::new(TimedDetector {
                inner,
                trace: Arc::clone(trace),
                log: Arc::clone(&log),
            }));
        } else if let Ok(inner) = zoo.classifier(&name) {
            zoo.register_classifier(Arc::new(TimedClassifier {
                inner,
                trace: Arc::clone(trace),
            }));
        } else if let Ok(inner) = zoo.frame_classifier(&name) {
            zoo.register_frame_classifier(Arc::new(TimedFrameClassifier {
                inner,
                trace: Arc::clone(trace),
            }));
        }
    }
    log
}

/// The dispatch boundary, timed: direct dispatch inside a span per call.
pub struct TimedDispatch {
    trace: Arc<Trace>,
}

impl TimedDispatch {
    /// A timed direct dispatcher.
    pub fn new(trace: Arc<Trace>) -> Self {
        Self { trace }
    }
}

impl ModelDispatch for TimedDispatch {
    fn detect(
        &self,
        detector: &Arc<dyn Detector>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        let (stream, frame) = first(frames);
        self.trace
            .in_span("core.dispatch", stream, frame, frames.len() as u32, || {
                DirectDispatch.detect(detector, frames, clock)
            })
    }

    fn predict(
        &self,
        model: &Arc<dyn FrameClassifier>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<bool>, ModelFault> {
        let (stream, frame) = first(frames);
        self.trace
            .in_span("core.dispatch", stream, frame, frames.len() as u32, || {
                DirectDispatch.predict(model, frames, clock)
            })
    }

    fn classify(
        &self,
        model: &Arc<dyn Classifier>,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        self.trace.in_span(
            "core.dispatch",
            frame.video_id as u32,
            frame.index,
            dets.len() as u32,
            || DirectDispatch.classify(model, frame, dets, clock),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_models::ClockMode;
    use vqpy_video::{presets, SyntheticVideo};

    fn video() -> Arc<dyn VideoSource> {
        Arc::new(SyntheticVideo::new(Scene::generate(
            presets::jackson(),
            5,
            2.0,
        )))
    }

    #[test]
    fn timed_source_returns_the_inner_frames_and_stamps_first_decodes() {
        let trace = Arc::new(Trace::new());
        let inner = video();
        let timed = TimedSource::new(Arc::clone(&inner), Arc::clone(&trace));
        assert_eq!(timed.video_id(), inner.video_id());
        assert_eq!(timed.frame_count(), inner.frame_count());
        assert_eq!(timed.fps(), inner.fps());
        assert_eq!(timed.resolution(), inner.resolution());
        assert!(timed.scene().is_some());
        assert!(timed.first_decode_ns(3).is_none());
        let a = timed.try_frame(3).unwrap();
        let b = inner.frame(3);
        assert_eq!(
            (a.video_id, a.index, a.time_s),
            (b.video_id, b.index, b.time_s)
        );
        assert_eq!(a.pixels, b.pixels);
        assert_eq!(a.truth.visible, b.truth.visible);
        let stamp = timed.first_decode_ns(3).expect("stamped");
        let _ = timed.frame(3);
        assert_eq!(
            timed.first_decode_ns(3),
            Some(stamp),
            "only the first decode stamps"
        );
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .all(|s| s.name == "video.decode" && s.frame == 3));
    }

    #[test]
    fn timed_models_return_their_inner_models_outputs_unchanged() {
        let trace = Arc::new(Trace::new());
        let plain = ModelZoo::standard();
        let timed = ModelZoo::standard();
        let log = instrument_zoo(&timed, &trace);
        let v = video();
        log.watch(v.video_id());
        let frames: Vec<Frame> = (0..4).map(|i| v.frame(i)).collect();
        let refs: Vec<&Frame> = frames.iter().collect();
        let clock = Clock::with_mode(ClockMode::Virtual);

        let dets = plain.detector("yolox").unwrap().detect_batch(&refs, &clock);
        let wrapped = timed.detector("yolox").unwrap();
        assert_eq!(
            wrapped.profile(),
            plain.detector("yolox").unwrap().profile()
        );
        assert_eq!(wrapped.detect_batch(&refs, &clock), dets);
        assert_eq!(wrapped.try_detect_batch(&refs, &clock).unwrap(), dets);
        assert_eq!(wrapped.detect(&frames[0], &clock), dets[0]);

        // `color_detect` is left out: its mode ties break by `HashMap`
        // iteration order, so even the unwrapped model disagrees with
        // itself from call to call (README.md, "The colour tie bug").
        for name in ["vtype_detect", "direction_model", "action_classify"] {
            let (p, t) = (
                plain.classifier(name).unwrap(),
                timed.classifier(name).unwrap(),
            );
            let want = p.classify_batch(&frames[1], &dets[1], &clock);
            assert_eq!(
                t.classify_batch(&frames[1], &dets[1], &clock),
                want,
                "{name}"
            );
            assert_eq!(
                t.try_classify_batch(&frames[1], &dets[1], &clock).unwrap(),
                want
            );
            let jobs = [
                (&frames[1], dets[1].as_slice()),
                (&frames[2], dets[2].as_slice()),
            ];
            assert_eq!(
                t.try_classify_batch_jobs(&jobs, &clock).unwrap(),
                p.classify_batch_jobs(&jobs, &clock)
            );
            if let Some(d) = dets[1].first() {
                assert_eq!(
                    t.classify(&frames[1], d, &clock),
                    p.classify(&frames[1], d, &clock)
                );
            }
        }

        let (p, t) = (
            plain.frame_classifier("no_red_on_road").unwrap(),
            timed.frame_classifier("no_red_on_road").unwrap(),
        );
        assert_eq!(
            t.predict_batch(&refs, &clock),
            p.predict_batch(&refs, &clock)
        );
        assert_eq!(
            t.try_predict_batch(&refs, &clock).unwrap(),
            p.predict_batch(&refs, &clock)
        );
        assert_eq!(t.predict(&frames[0], &clock), p.predict(&frames[0], &clock));

        // The log kept the watched video's detections once per call, in
        // frame order after `take`.
        let kept = log.take();
        assert_eq!(kept.len(), 4 + 4 + 1);
        assert!(kept.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(kept[0].1.len(), dets[0].len());
    }

    #[test]
    fn timed_dispatch_matches_direct_dispatch_and_nests_the_model_span() {
        let trace = Arc::new(Trace::new());
        let zoo = ModelZoo::standard();
        instrument_zoo(&zoo, &trace);
        let v = video();
        let frame = v.frame(5);
        let clock = Clock::with_mode(ClockMode::Virtual);
        let detector = zoo.detector("yolox").unwrap();
        let dispatch = TimedDispatch::new(Arc::clone(&trace));
        let got = dispatch.detect(&detector, &[&frame], &clock).unwrap();
        let want = DirectDispatch
            .detect(
                &ModelZoo::standard().detector("yolox").unwrap(),
                &[&frame],
                &clock,
            )
            .unwrap();
        assert_eq!(got, want);
        let vtype = zoo.classifier("vtype_detect").unwrap();
        assert_eq!(
            dispatch.classify(&vtype, &frame, &got[0], &clock).unwrap(),
            DirectDispatch
                .classify(
                    &ModelZoo::standard().classifier("vtype_detect").unwrap(),
                    &frame,
                    &got[0],
                    &clock
                )
                .unwrap()
        );
        let spans = trace.spans();
        let outer = spans.iter().find(|s| s.name == "core.dispatch").unwrap();
        let inner = spans.iter().find(|s| s.name == "models.detect").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.stream, inner.frame), (frame.video_id as u32, 5));
    }
}
