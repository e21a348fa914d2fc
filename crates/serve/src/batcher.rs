//! The cross-stream [`ModelBatcher`]: one physical model invocation per
//! (stage, model) feeding many streams' pipelines.
//!
//! Per-stream engines batch within their own frame window, so N concurrent
//! streams still pay N fixed model-dispatch overheads per round — once per
//! stream and batch for every model stage. The batcher closes that gap:
//! each stream's operators submit their typed requests (frames for
//! detect/predict, one `(frame, crops)` job per frame of the batch for
//! classify) to one shared queue; a coalescing thread gathers requests
//! inside a time/size-bounded window, groups them by **(stage, model
//! instance)**, and issues **one** physical `detect_batch` /
//! `predict_batch` / `classify_batch_jobs` per group — then demultiplexes
//! the per-frame (or per-job) results back to each waiting stream in
//! submission order.
//! Simulated models answer deterministically per (frame, entity), so
//! routing a submission through a larger cross-stream batch never changes
//! its results (the serve equivalence suite proves byte-identity against
//! solo execution); only the amortized dispatch overhead changes.
//!
//! The batcher degrades gracefully along a ladder: once
//! [`ModelBatcher::shutdown`] runs (or the batcher is dropped), engines
//! still holding its dispatch handle fall back to direct per-stream
//! invocation instead of failing. A model call that fails (or panics)
//! inside a coalesced round is converted to a typed
//! [`ModelFault`] reply for every participating stream — one bad model
//! never kills the coalescing thread. And a **per-model-instance circuit
//! breaker** trips after three consecutive batched failures
//! (`BREAKER_TRIP_AFTER`), routing that model's submissions to direct
//! dispatch (degraded but live, and isolated from other streams' shared
//! rounds) until a probe through the batcher, every fourth submission
//! (`BREAKER_PROBE_EVERY`), succeeds.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vqpy_core::{panic_message, DirectDispatch, DispatchLayer, ModelCall, ModelReply, ModelStage};
use vqpy_models::{Classifier, Clock, Detection, Detector, FrameClassifier, ModelFault};
use vqpy_obs::{Counter, Histogram, Telemetry, Tracer};
use vqpy_video::frame::Frame;

/// Coalescing bounds for the cross-stream batcher.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Upper bound on items (frames for detect/predict requests, crops for
    /// classify requests) in one coalescing round. The window closes early
    /// once this many items are waiting.
    pub max_batch_frames: usize,
    /// How long the batcher holds an open window for more streams'
    /// requests after the first request arrives. Longer windows coalesce
    /// more but add up to this much latency when only one stream is
    /// active.
    pub window: Duration,
}

/// Consecutive batched failures of one model instance before its circuit
/// breaker opens and submissions route to direct dispatch.
const BREAKER_TRIP_AFTER: u32 = 3;
/// While a breaker is open, every `BREAKER_PROBE_EVERY`-th submission is
/// sent through the batcher as a probe; a successful probe closes the
/// breaker.
const BREAKER_PROBE_EVERY: u64 = 4;

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch_frames: 64,
            window: Duration::from_millis(3),
        }
    }
}

/// Fault-handling counters of one dispatch handle: typed model faults
/// surfaced to streams, circuit-breaker transitions, and coalescing-thread
/// panics converted to faults. Exposed in [`BatcherStats`] and the
/// supervisor's `LoadSnapshot` so trip/recover transitions are observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `Err` results returned to calling streams through this handle
    /// (after breaker routing, before any caller-side retry).
    pub model_faults: u64,
    /// Breaker open transitions (consecutive-failure threshold reached).
    pub breaker_trips: u64,
    /// Breaker close transitions (a probe through the batcher succeeded).
    pub breaker_recoveries: u64,
    /// Submissions routed to direct dispatch because a breaker was open.
    pub broken_dispatches: u64,
    /// Submissions sent through the batcher as probes while open.
    pub probes: u64,
    /// Coalesced rounds whose model call panicked; each became a typed
    /// fault reply for every participating stream.
    pub coalesce_panics: u64,
}

/// Per-stage coalescing counters: how many stream requests were folded
/// into how many physical invocations of one model stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageCoalesce {
    /// Physical model invocations issued for this stage.
    pub physical_batches: u64,
    /// Stream requests served (each would have been its own physical
    /// invocation without the batcher).
    pub requests: u64,
    /// Items pushed through: frames for detect/predict, crops for
    /// classify.
    pub items: u64,
    /// Largest physical batch observed, in items.
    pub max_batch_items: u64,
}

impl StageCoalesce {
    /// Mean requests folded into one physical invocation (1.0 = no
    /// cross-stream sharing happened; 0.0 = no traffic).
    pub fn mean_coalesced(&self) -> f64 {
        if self.physical_batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.physical_batches as f64
        }
    }
}

/// Counters describing how well cross-stream coalescing is working, in
/// aggregate and per model stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatcherStats {
    /// Physical model invocations issued, all stages.
    pub physical_batches: u64,
    /// Stream requests served, all stages.
    pub requests: u64,
    /// Total items pushed through the batcher (frames for frame stages,
    /// crops for the classify stage).
    pub frames: u64,
    /// Largest physical batch observed, in items, across stages.
    pub max_batch_frames: u64,
    /// Detect-stage coalescing counters.
    pub detect: StageCoalesce,
    /// Binary-filter-stage (`predict_batch`) coalescing counters.
    pub predict: StageCoalesce,
    /// Classify/projection-stage coalescing counters.
    pub classify: StageCoalesce,
    /// Fault-handling counters (typed faults, breaker transitions,
    /// coalescing-thread panics).
    pub faults: FaultStats,
}

impl BatcherStats {
    /// Mean requests folded into one physical invocation (1.0 = no
    /// cross-stream sharing happened).
    pub fn mean_coalesced(&self) -> f64 {
        if self.physical_batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.physical_batches as f64
        }
    }

    /// The coalescing counters of one stage.
    pub fn stage(&self, stage: ModelStage) -> &StageCoalesce {
        match stage {
            ModelStage::Detect => &self.detect,
            ModelStage::Predict => &self.predict,
            ModelStage::Classify => &self.classify,
        }
    }
}

/// The batcher's only counter holder: the shared-lane tracer (pid 0 in
/// the exported timeline) plus registry handles, all registered in the
/// [`Telemetry`] the batcher is built over. Per stage, the
/// `vqpy_batch_items{stage}` summary takes one sample per physical batch,
/// its item count (frames or crops, not a duration, despite the
/// histogram's millisecond-named accessors): its count, sum and max are
/// the stage's physical batches, items and largest batch.
/// `vqpy_batcher_requests_total{stage}` counts stream requests, and one
/// counter per [`FaultStats`] field counts faults. [`BatcherStats`] is a
/// view over these handles.
struct BatcherObs {
    tracer: Tracer,
    batch_items: [Histogram; 3],
    requests: [Counter; 3],
    model_faults: Counter,
    breaker_trips: Counter,
    breaker_recoveries: Counter,
    broken_dispatches: Counter,
    probes: Counter,
    coalesce_panics: Counter,
}

impl BatcherObs {
    fn new(telemetry: &Telemetry) -> Self {
        let reg = telemetry.registry();
        let stage_name =
            |metric: &str, stage: ModelStage| format!("{metric}{{stage=\"{}\"}}", stage.name());
        Self {
            tracer: telemetry.tracer().for_stream(0),
            batch_items: ModelStage::ALL.map(|s| reg.histogram(&stage_name("vqpy_batch_items", s))),
            requests: ModelStage::ALL
                .map(|s| reg.counter(&stage_name("vqpy_batcher_requests_total", s))),
            model_faults: reg.counter("vqpy_model_faults_total"),
            breaker_trips: reg.counter("vqpy_breaker_trips_total"),
            breaker_recoveries: reg.counter("vqpy_breaker_recoveries_total"),
            broken_dispatches: reg.counter("vqpy_broken_dispatches_total"),
            probes: reg.counter("vqpy_breaker_probes_total"),
            coalesce_panics: reg.counter("vqpy_coalesce_panics_total"),
        }
    }

    fn stage(&self, stage: ModelStage) -> StageCoalesce {
        let items = &self.batch_items[stage.index()];
        StageCoalesce {
            physical_batches: items.count(),
            requests: self.requests[stage.index()].get(),
            items: items.sum_ms().round() as u64,
            max_batch_items: items.max_ms().round() as u64,
        }
    }

    fn faults(&self) -> FaultStats {
        FaultStats {
            model_faults: self.model_faults.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_recoveries: self.breaker_recoveries.get(),
            broken_dispatches: self.broken_dispatches.get(),
            probes: self.probes.get(),
            coalesce_panics: self.coalesce_panics.get(),
        }
    }
}

/// Breaker bookkeeping for one model instance (keyed by `Arc` identity).
#[derive(Default)]
struct BreakerState {
    consecutive_failures: u32,
    open: bool,
    calls_since_trip: u64,
}

/// Where one submission goes after consulting the model's breaker.
enum Route {
    /// Through the coalescing thread (normally, or as a probe while open).
    Batched { probe: bool },
    /// Direct per-stream invocation because the breaker is open.
    Direct,
}

/// A model instance, owned so a request can cross to the coalescing
/// thread.
enum Model {
    Detect(Arc<dyn Detector>),
    Predict(Arc<dyn FrameClassifier>),
    Classify(Arc<dyn Classifier>),
}

/// One stream's model-stage submission: an owned copy of its
/// [`ModelCall`], and where the answer goes.
struct Request {
    model: Model,
    /// One `(frame, crops)` job per frame; detect and predict jobs carry
    /// no crops.
    jobs: Vec<(Frame, Vec<Detection>)>,
    /// Items this request contributes to a physical batch (frames for
    /// frame stages, crops for the classify stage).
    items: usize,
    /// Requests coalesce only within one model *instance* (not registry
    /// name): two streams may hold same-named but differently-configured
    /// models, and those must never share a physical batch.
    key: (ModelStage, usize),
    reply: SyncSender<Result<ModelReply, ModelFault>>,
}

impl Request {
    fn new(call: ModelCall<'_>, reply: SyncSender<Result<ModelReply, ModelFault>>) -> Self {
        // Shipping frames to the coalescing thread clones them. A clone
        // copies no pixels: it shares the truth, the background and the
        // paints behind `Arc`s. The `Vec` of clones is off the per-stream
        // allocation-free fast path by design: it buys one physical model
        // invocation across streams.
        let frame_jobs =
            |frames: &[&Frame]| frames.iter().map(|&f| (f.clone(), Vec::new())).collect();
        let (model, jobs) = match call {
            ModelCall::Detect { model, frames } => {
                (Model::Detect(Arc::clone(model)), frame_jobs(frames))
            }
            ModelCall::Predict { model, frames } => {
                (Model::Predict(Arc::clone(model)), frame_jobs(frames))
            }
            ModelCall::Classify { model, jobs } => (
                Model::Classify(Arc::clone(model)),
                jobs.iter()
                    .map(|&(f, dets)| (f.clone(), dets.to_vec()))
                    .collect(),
            ),
        };
        Self {
            model,
            jobs,
            items: call.items(),
            key: (call.stage(), call.model_key()),
            reply,
        }
    }
}

/// The dispatch layer streams install into their engines.
///
/// Every call blocks the calling stream (its operators cannot proceed
/// without results) while the coalescing thread folds the request into a
/// physical batch. If the batcher has shut down, the call transparently
/// falls back to a direct per-stream invocation. A model whose circuit
/// breaker is open also dispatches direct (except for periodic probes)
/// until a probe through the batcher succeeds.
pub struct BatchedDispatch {
    /// `None` after shutdown; dispatch then falls back to direct calls.
    tx: Mutex<Option<SyncSender<Request>>>,
    obs: Arc<BatcherObs>,
    /// Breaker state per model instance, keyed by `Arc` pointer identity —
    /// the same identity requests coalesce under. (A key can in principle
    /// be reused after a model is dropped and a new allocation lands at
    /// the same address; the breaker then merely starts from that model's
    /// prior state and self-corrects on its first outcomes.)
    breakers: Mutex<HashMap<usize, BreakerState>>,
}

impl std::fmt::Debug for BatchedDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedDispatch")
            .field("open", &self.tx.lock().is_some())
            .field("faults", &self.obs.faults())
            .finish()
    }
}

impl BatchedDispatch {
    /// Submits a call and waits for the coalescing thread's reply.
    /// Returns `None` when the batcher is gone (shutdown or panicked), in
    /// which case the caller issues the direct per-stream invocation.
    fn roundtrip(&self, call: ModelCall<'_>) -> Option<Result<ModelReply, ModelFault>> {
        let sender = self.tx.lock().clone();
        let tx = sender?;
        let (reply_tx, reply_rx) = sync_channel(1);
        if tx.send(Request::new(call, reply_tx)).is_ok() {
            if let Ok(results) = reply_rx.recv() {
                return Some(results);
            }
        }
        None
    }

    /// Consults (and advances) the model's breaker to route one
    /// submission.
    fn route(&self, key: usize) -> Route {
        let mut map = self.breakers.lock();
        let st = map.entry(key).or_default();
        if !st.open {
            return Route::Batched { probe: false };
        }
        st.calls_since_trip += 1;
        if st.calls_since_trip.is_multiple_of(BREAKER_PROBE_EVERY) {
            Route::Batched { probe: true }
        } else {
            Route::Direct
        }
    }

    /// Records the outcome of a batched (or probe) call against the
    /// model's breaker. Direct calls while open never update the breaker —
    /// only a probe through the batcher can close it.
    fn record_outcome(&self, key: usize, ok: bool) {
        let mut map = self.breakers.lock();
        let st = map.entry(key).or_default();
        if ok {
            st.consecutive_failures = 0;
            if st.open {
                st.open = false;
                st.calls_since_trip = 0;
                self.obs.breaker_recoveries.inc();
            }
        } else {
            st.consecutive_failures = st.consecutive_failures.saturating_add(1);
            if !st.open && st.consecutive_failures >= BREAKER_TRIP_AFTER {
                st.open = true;
                st.calls_since_trip = 0;
                self.obs.breaker_trips.inc();
            }
        }
    }
}

/// The breaker-aware submission path: route, dispatch (batched, probe, or
/// direct), record the outcome, and count faults surfaced to the caller.
impl DispatchLayer for BatchedDispatch {
    fn call(&self, call: ModelCall<'_>, clock: &Clock) -> Result<ModelReply, ModelFault> {
        if let ModelCall::Classify { jobs, .. } = call {
            if call.items() == 0 {
                return Ok(ModelReply::Classify(
                    jobs.iter().map(|_| Vec::new()).collect(),
                ));
            }
        }
        let obs = &self.obs;
        let key = call.model_key();
        match self.route(key) {
            Route::Direct => {
                obs.broken_dispatches.inc();
                let r = DirectDispatch.call(call, clock);
                if r.is_err() {
                    obs.model_faults.inc();
                }
                r
            }
            Route::Batched { probe } => {
                if probe {
                    obs.probes.inc();
                }
                match self.roundtrip(call) {
                    Some(result) => {
                        self.record_outcome(key, result.is_ok());
                        if result.is_err() {
                            obs.model_faults.inc();
                        }
                        result
                    }
                    // Batcher gone (shutdown): plain direct fallback with
                    // no breaker bookkeeping — there is no coalescing
                    // path left to protect or probe.
                    None => DirectDispatch.call(call, clock),
                }
            }
        }
    }
}

/// A shared coalescing thread turning many streams' model-stage batches
/// into few physical model invocations. See the module docs.
///
/// Create one per [`StreamSupervisor`](crate::StreamSupervisor) (the
/// supervisor does this itself when its config enables batching); all
/// streams sharing a batcher must share the batcher's [`Clock`] — true by
/// construction for streams of one session.
pub struct ModelBatcher {
    dispatch: Arc<BatchedDispatch>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ModelBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBatcher")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ModelBatcher {
    /// Spawns the coalescing thread. `clock` is the session clock every
    /// participating stream charges to. Its counters live in a private
    /// registry ([`Telemetry::disabled`]).
    ///
    /// If the OS refuses the thread, the batcher degrades instead of
    /// panicking: handles dispatch direct per-stream from the start,
    /// exactly as after [`ModelBatcher::shutdown`].
    pub fn new(config: BatcherConfig, clock: Arc<Clock>) -> Self {
        Self::with_telemetry(config, clock, &Telemetry::disabled())
    }

    /// Like [`ModelBatcher::new`], with telemetry: each coalescing round
    /// becomes a `coalesce` span in the shared process lane (pid 0), and
    /// the batcher writes its counters straight into the registry as it
    /// runs: `vqpy_batch_items{stage}` (one sample per physical batch,
    /// its item count), `vqpy_batcher_requests_total{stage}`, and one
    /// `vqpy_*_total` counter per [`FaultStats`] field. The supervisor
    /// passes its serve config's [`Telemetry`] here.
    ///
    /// The counts belong to `telemetry`, not to the batcher: batchers
    /// built over one `Telemetry` (e.g. two supervisors given one serve
    /// config's handle) share them, and each one's
    /// [`ModelBatcher::stats`] reports their sum.
    pub fn with_telemetry(config: BatcherConfig, clock: Arc<Clock>, telemetry: &Telemetry) -> Self {
        // The queue bound only limits burst submissions; each stream has
        // at most a handful of in-flight requests (its detect workers plus
        // the tail's classify traffic).
        let (tx, rx) = sync_channel::<Request>(1024);
        let obs = Arc::new(BatcherObs::new(telemetry));
        let worker_obs = Arc::clone(&obs);
        let worker_config = config.clone();
        let spawned = std::thread::Builder::new()
            .name("vqpy-model-batcher".into())
            .spawn(move || run_batcher(rx, worker_config, clock, worker_obs));
        let (worker, tx) = match spawned {
            Ok(w) => (Some(w), Some(tx)),
            Err(_) => (None, None),
        };
        Self {
            dispatch: Arc::new(BatchedDispatch {
                tx: Mutex::new(tx),
                obs,
                breakers: Mutex::new(HashMap::new()),
            }),
            worker,
        }
    }

    /// The dispatch handle to install into stream engines (e.g. via
    /// [`StreamOptions::dispatch`](crate::StreamOptions)).
    pub fn dispatch(&self) -> Arc<BatchedDispatch> {
        Arc::clone(&self.dispatch)
    }

    /// Coalescing counters so far, in aggregate and per stage: a view over
    /// the registry handles this batcher writes (shared with every other
    /// batcher built over the same [`Telemetry`]).
    pub fn stats(&self) -> BatcherStats {
        let obs = &self.dispatch.obs;
        let per = ModelStage::ALL.map(|s| obs.stage(s));
        BatcherStats {
            physical_batches: per.iter().map(|s| s.physical_batches).sum(),
            requests: per.iter().map(|s| s.requests).sum(),
            frames: per.iter().map(|s| s.items).sum(),
            max_batch_frames: per.iter().map(|s| s.max_batch_items).max().unwrap_or(0),
            detect: per[ModelStage::Detect.index()],
            predict: per[ModelStage::Predict.index()],
            classify: per[ModelStage::Classify.index()],
            faults: obs.faults(),
        }
    }

    /// Stops the coalescing thread. In-flight requests are still answered;
    /// later dispatches through surviving handles fall back to direct
    /// per-stream invocation. Called automatically on drop.
    pub fn shutdown(&mut self) {
        drop(self.dispatch.tx.lock().take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for ModelBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_batcher(
    rx: Receiver<Request>,
    config: BatcherConfig,
    clock: Arc<Clock>,
    obs: Arc<BatcherObs>,
) {
    let max_items = config.max_batch_frames.max(1);
    while let Ok(first) = rx.recv() {
        // Coalescing window: gather whatever other streams submit before
        // the deadline, closing early at the item bound. The span opens
        // with the window (so its duration covers gathering plus the
        // physical model calls) and lands in the shared lane, pid 0.
        let mut span = obs.tracer.span("serve", "coalesce");
        let deadline = Instant::now() + config.window;
        let mut total_items = first.items;
        let mut requests = vec![first];
        while total_items < max_items {
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            match rx.recv_timeout(left) {
                Ok(r) => {
                    total_items += r.items;
                    requests.push(r);
                }
                Err(_) => break, // window elapsed or channel closed
            }
        }
        span.add_arg("requests", requests.len());
        span.add_arg("items", total_items);
        execute_round(&requests, &clock, &obs);
    }
}

/// Executes one coalescing round: requests grouped by (stage, model
/// instance), one physical invocation per group, results demultiplexed
/// back in request order.
fn execute_round(requests: &[Request], clock: &Clock, obs: &BatcherObs) {
    let mut groups: Vec<Vec<&Request>> = Vec::new();
    for r in requests {
        match groups.iter_mut().find(|g| g[0].key == r.key) {
            Some(group) => group.push(r),
            None => groups.push(vec![r]),
        }
    }
    for group in &groups {
        let stage = group[0].key.0;
        let items: usize = group.iter().map(|r| r.items).sum();
        obs.requests[stage.index()].add(group.len() as u64);
        obs.batch_items[stage.index()].observe(items as f64);
        run_group(group, clock, obs);
    }
}

/// Runs one physical model call, converting a panic into a typed fault so
/// the coalescing thread survives — every participating stream still gets
/// an answer, and one poisoned model cannot take the shared batcher down.
fn guard<T>(
    obs: &BatcherObs,
    model: &str,
    call: impl FnOnce() -> Result<T, ModelFault>,
) -> Result<T, ModelFault> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(r) => r,
        Err(payload) => {
            obs.coalesce_panics.inc();
            Err(ModelFault::new(
                model,
                format!(
                    "panic in coalesced batch: {}",
                    panic_message(payload.as_ref())
                ),
            ))
        }
    }
}

/// Runs one physical model call over every participating request's jobs
/// (frames for the frame stages) and splits the reply back per request in
/// submission order. A failed invocation replies a cloned fault to
/// every participant instead. Receivers may have given up (stream torn
/// down); those sends are ignored.
fn run_group(group: &[&Request], clock: &Clock, obs: &BatcherObs) {
    let jobs: Vec<(&Frame, &[Detection])> = group
        .iter()
        .flat_map(|r| r.jobs.iter().map(|(f, dets)| (f, dets.as_slice())))
        .collect();
    let frames: Vec<&Frame> = jobs.iter().map(|&(f, _)| f).collect();
    let frames = &frames[..];
    let call = match &group[0].model {
        Model::Detect(model) => ModelCall::Detect { model, frames },
        Model::Predict(model) => ModelCall::Predict { model, frames },
        Model::Classify(model) => ModelCall::Classify { model, jobs: &jobs },
    };
    match guard(obs, call.model_name(), || DirectDispatch.call(call, clock)) {
        Ok(mut reply) => {
            for r in group {
                let _ = r.reply.send(Ok(reply.split_front(r.jobs.len())));
            }
        }
        Err(fault) => {
            for r in group {
                let _ = r.reply.send(Err(fault.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_core::ModelDispatch;
    use vqpy_models::detectors::SimDetector;
    use vqpy_models::{ModelZoo, Value};
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    fn detector() -> Arc<dyn Detector> {
        Arc::new(SimDetector::general("yolox", &["car"], 30.0, 0.95, 1))
    }

    fn frames(seed: u64, n: u64) -> Vec<Frame> {
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), seed, 10.0));
        (0..n).map(|i| v.frame(i)).collect()
    }

    #[test]
    fn batched_results_equal_direct() {
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(BatcherConfig::default(), Arc::clone(&clock));
        let det = detector();
        let fs = frames(5, 6);
        let refs: Vec<&Frame> = fs.iter().collect();
        let via_batcher = batcher.dispatch().detect(&det, &refs, &clock).unwrap();
        let direct = DirectDispatch.detect(&det, &refs, &Clock::new()).unwrap();
        assert_eq!(via_batcher, direct);
    }

    #[test]
    fn batched_results_equal_direct_on_every_stage() {
        let zoo = ModelZoo::standard();
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(BatcherConfig::default(), Arc::clone(&clock));
        let dispatch = batcher.dispatch();
        let fs = frames(6, 4);
        let refs: Vec<&Frame> = fs.iter().collect();

        let filter = zoo.frame_classifier("no_red_on_road").unwrap();
        assert_eq!(
            dispatch.predict(&filter, &refs, &clock).unwrap(),
            filter.predict_batch(&refs, &Clock::new()),
        );

        let det = zoo.detector("yolox").unwrap();
        let dets = det.detect(&fs[0], &Clock::new());
        let clf = zoo.classifier("direction_model").unwrap();
        assert_eq!(
            dispatch.classify(&clf, &fs[0], &dets, &clock).unwrap(),
            clf.classify_batch(&fs[0], &dets, &Clock::new()),
        );

        let stats = batcher.stats();
        assert_eq!(stats.predict.requests, 1);
        assert_eq!(stats.predict.items, 4);
        if dets.is_empty() {
            assert_eq!(
                stats.classify.requests, 0,
                "empty crop lists skip the queue"
            );
        } else {
            assert_eq!(stats.classify.requests, 1);
            assert_eq!(stats.classify.items, dets.len() as u64);
        }
        assert_eq!(
            stats.requests,
            stats.predict.requests + stats.classify.requests
        );
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_physical_batch() {
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(
            BatcherConfig {
                max_batch_frames: 64,
                window: Duration::from_millis(50),
            },
            Arc::clone(&clock),
        );
        let det = detector();
        std::thread::scope(|s| {
            for seed in [11u64, 12, 13, 14] {
                let dispatch = batcher.dispatch();
                let det = Arc::clone(&det);
                let clock = Arc::clone(&clock);
                s.spawn(move || {
                    let fs = frames(seed, 4);
                    let refs: Vec<&Frame> = fs.iter().collect();
                    let got = dispatch.detect(&det, &refs, &clock).unwrap();
                    let want = det.detect_batch(&refs, &Clock::new());
                    assert_eq!(got, want, "stream {seed} results perturbed");
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.frames, 16);
        assert_eq!(stats.detect.requests, 4, "all traffic is detect-stage");
        assert!(
            stats.physical_batches < 4,
            "4 concurrent requests should share physical batches: {stats:?}"
        );
        assert!(stats.mean_coalesced() > 1.0);
        assert!(stats.detect.mean_coalesced() > 1.0);
        // Fewer physical batches pay the fixed launch cost and overhead
        // fewer times: the same requests sent direct charge more.
        let direct = Clock::new();
        for seed in [11u64, 12, 13, 14] {
            let fs = frames(seed, 4);
            let refs: Vec<&Frame> = fs.iter().collect();
            DirectDispatch.detect(&det, &refs, &direct).unwrap();
        }
        assert!(
            clock.virtual_ms() < direct.virtual_ms(),
            "coalesced {} ms vs direct {} ms",
            clock.virtual_ms(),
            direct.virtual_ms()
        );
    }

    #[test]
    fn concurrent_classify_requests_coalesce_and_demux_exactly() {
        let zoo = ModelZoo::standard();
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(
            BatcherConfig {
                max_batch_frames: 256,
                window: Duration::from_millis(50),
            },
            Arc::clone(&clock),
        );
        let det = zoo.detector("yolox").unwrap();
        let clf = zoo.classifier("direction_model").unwrap();
        std::thread::scope(|s| {
            for seed in [21u64, 22, 23, 24] {
                let dispatch = batcher.dispatch();
                let (det, clf, clock) = (Arc::clone(&det), Arc::clone(&clf), Arc::clone(&clock));
                s.spawn(move || {
                    // Several frames per stream: per-(stream, frame)
                    // requests, exactly like the projection operator's.
                    for f in frames(seed, 3) {
                        let dets = det.detect(&f, &Clock::new());
                        let got = dispatch.classify(&clf, &f, &dets, &clock).unwrap();
                        let want = clf.classify_batch(&f, &dets, &Clock::new());
                        assert_eq!(got, want, "stream {seed} crop values perturbed");
                    }
                });
            }
        });
        let stats = batcher.stats();
        assert!(stats.classify.requests > 0);
        assert!(
            stats.classify.physical_batches < stats.classify.requests,
            "concurrent classify requests should share physical batches: {stats:?}"
        );
        assert_eq!(stats.detect.requests, 0, "detect ran direct in this test");
    }

    /// A coalescing batcher over `clock` that holds its window open long
    /// enough for concurrent callers to share rounds.
    fn wide_window(clock: &Arc<Clock>) -> ModelBatcher {
        let config = BatcherConfig {
            max_batch_frames: 256,
            window: Duration::from_millis(50),
        };
        ModelBatcher::new(config, Arc::clone(clock))
    }

    /// Several streams each submit one multi-job request — a batch's
    /// frames, as the projection operator issues them — and each job gets
    /// exactly its own crops' values back, however the rounds fold them.
    #[test]
    fn concurrent_multi_job_classify_requests_demux_per_job() {
        let zoo = ModelZoo::standard();
        let clock = Arc::new(Clock::new());
        let batcher = wide_window(&clock);
        let det = zoo.detector("yolox").unwrap();
        let clf = zoo.classifier("color_detect").unwrap();
        let callers = [51u64, 52, 53, 54];
        std::thread::scope(|s| {
            for seed in callers {
                let dispatch = batcher.dispatch();
                let (det, clf, clock) = (Arc::clone(&det), Arc::clone(&clf), Arc::clone(&clock));
                s.spawn(move || {
                    let fs = frames(seed, 4);
                    let dets: Vec<Vec<Detection>> =
                        fs.iter().map(|f| det.detect(f, &Clock::new())).collect();
                    let jobs: Vec<(&Frame, &[Detection])> = fs
                        .iter()
                        .zip(&dets)
                        .map(|(f, d)| (f, d.as_slice()))
                        .collect();
                    let got = dispatch.classify_jobs(&clf, &jobs, &clock).unwrap();
                    let want: Vec<Vec<Value>> = jobs
                        .iter()
                        .map(|(f, d)| clf.classify_batch(f, d, &Clock::new()))
                        .collect();
                    assert_eq!(got, want, "stream {seed} crop values perturbed");
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.classify.requests, callers.len() as u64);
        assert!(
            stats.classify.physical_batches < stats.classify.requests,
            "concurrent multi-job requests should share rounds: {stats:?}"
        );
    }

    /// A panic inside a coalesced multi-job classify round reaches every
    /// stream in it as a typed fault, and the batcher keeps serving.
    #[test]
    fn a_panicking_multi_job_round_faults_every_participant() {
        struct PanicClassifier(vqpy_models::ModelProfile);
        impl Classifier for PanicClassifier {
            fn profile(&self) -> &vqpy_models::ModelProfile {
                &self.0
            }
            fn classify(&self, _frame: &Frame, _det: &Detection, _clock: &Clock) -> Value {
                panic!("poisoned weights")
            }
        }
        let profile = vqpy_models::ModelProfile::new(
            "bad_clf",
            vqpy_models::TaskKind::Classification,
            1.0,
            0.5,
        );
        let bad: Arc<dyn Classifier> = Arc::new(PanicClassifier(profile));
        let det = detector();
        let clock = Arc::new(Clock::new());
        let batcher = wide_window(&clock);
        let callers = [61u64, 62, 63];
        std::thread::scope(|s| {
            for seed in callers {
                let dispatch = batcher.dispatch();
                let (det, bad, clock) = (Arc::clone(&det), Arc::clone(&bad), Arc::clone(&clock));
                s.spawn(move || {
                    let fs = frames(seed, 3);
                    let dets: Vec<Vec<Detection>> =
                        fs.iter().map(|f| det.detect(f, &Clock::new())).collect();
                    assert!(
                        dets.iter().any(|d| !d.is_empty()),
                        "stream {seed} has crops"
                    );
                    let jobs: Vec<(&Frame, &[Detection])> = fs
                        .iter()
                        .zip(&dets)
                        .map(|(f, d)| (f, d.as_slice()))
                        .collect();
                    let err = dispatch.classify_jobs(&bad, &jobs, &clock).unwrap_err();
                    assert!(err.to_string().contains("poisoned weights"), "{err}");
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.classify.requests, callers.len() as u64);
        assert!(stats.classify.physical_batches < stats.classify.requests);
        assert_eq!(
            stats.faults.coalesce_panics,
            stats.classify.physical_batches
        );
        assert_eq!(stats.faults.model_faults, callers.len() as u64);

        // The coalescing thread survived: a healthy model still batches.
        let clf = ModelZoo::standard().classifier("color_detect").unwrap();
        let fs = frames(64, 2);
        let dets = det.detect(&fs[1], &Clock::new());
        let jobs = [(&fs[0], &dets[..0]), (&fs[1], &dets[..])];
        let got = batcher
            .dispatch()
            .classify_jobs(&clf, &jobs, &clock)
            .unwrap();
        assert_eq!(got[0], Vec::<Value>::new());
        assert_eq!(got[1], clf.classify_batch(&fs[1], &dets, &Clock::new()));
    }

    #[test]
    fn mixed_stage_round_demuxes_by_stage_and_model() {
        let zoo = ModelZoo::standard();
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(
            BatcherConfig {
                max_batch_frames: 256,
                window: Duration::from_millis(50),
            },
            Arc::clone(&clock),
        );
        let det = zoo.detector("yolox").unwrap();
        let clf = zoo.classifier("color_detect").unwrap();
        let filter = zoo.frame_classifier("no_red_on_road").unwrap();
        std::thread::scope(|s| {
            for seed in [31u64, 32] {
                let dispatch = batcher.dispatch();
                let (det, clf, filter, clock) = (
                    Arc::clone(&det),
                    Arc::clone(&clf),
                    Arc::clone(&filter),
                    Arc::clone(&clock),
                );
                s.spawn(move || {
                    let fs = frames(seed, 2);
                    let refs: Vec<&Frame> = fs.iter().collect();
                    assert_eq!(
                        dispatch.predict(&filter, &refs, &clock).unwrap(),
                        filter.predict_batch(&refs, &Clock::new()),
                    );
                    let boxes = dispatch.detect(&det, &refs, &clock).unwrap();
                    assert_eq!(boxes, det.detect_batch(&refs, &Clock::new()));
                    assert_eq!(
                        dispatch.classify(&clf, &fs[0], &boxes[0], &clock).unwrap(),
                        clf.classify_batch(&fs[0], &boxes[0], &Clock::new()),
                    );
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.predict.requests, 2);
        assert_eq!(stats.detect.requests, 2);
        assert_eq!(
            stats.requests,
            stats.detect.requests + stats.predict.requests + stats.classify.requests
        );
    }

    #[test]
    fn shutdown_falls_back_to_direct() {
        let clock = Arc::new(Clock::new());
        let mut batcher = ModelBatcher::new(BatcherConfig::default(), Arc::clone(&clock));
        let handle = batcher.dispatch();
        batcher.shutdown();
        let det = detector();
        let fs = frames(9, 3);
        let refs: Vec<&Frame> = fs.iter().collect();
        let got = handle.detect(&det, &refs, &clock).unwrap();
        assert_eq!(got, det.detect_batch(&refs, &Clock::new()));
        let clf = ModelZoo::standard().classifier("color_detect").unwrap();
        let dets = det.detect(&fs[0], &Clock::new());
        assert_eq!(
            handle.classify(&clf, &fs[0], &dets, &clock).unwrap(),
            clf.classify_batch(&fs[0], &dets, &Clock::new()),
        );
        assert_eq!(
            batcher.stats().requests,
            0,
            "post-shutdown calls are direct"
        );
    }

    #[test]
    fn breaker_trips_on_consecutive_faults_and_recovers_on_probe() {
        use vqpy_models::{FaultInjector, FaultPlan};
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(BatcherConfig::default(), Arc::clone(&clock));
        let dispatch = batcher.dispatch();
        // Fails every invocation until 6 faults are injected, then heals.
        let injector = FaultInjector::new(FaultPlan::every_nth(7, 1).heal_after(6));
        let det = injector.wrap_detector(detector());
        let fs = frames(41, 2);
        let refs: Vec<&Frame> = fs.iter().collect();

        // Calls 1-3: batched, all fail -> breaker trips at 3 consecutive.
        for _ in 0..BREAKER_TRIP_AFTER {
            assert!(dispatch.detect(&det, &refs, &clock).is_err());
        }
        // Calls 4-6: breaker open, routed direct (still failing: faults
        // 4 to 6).
        for _ in 1..BREAKER_PROBE_EVERY {
            assert!(dispatch.detect(&det, &refs, &clock).is_err());
        }
        // Call 7: every 4th open call is a probe; the model has healed, so
        // the probe succeeds and closes the breaker.
        let recovered = dispatch.detect(&det, &refs, &clock).unwrap();
        assert_eq!(recovered, detector().detect_batch(&refs, &Clock::new()));
        // Call 8: breaker closed again, normal batched path.
        let after = dispatch.detect(&det, &refs, &clock).unwrap();
        assert_eq!(after, recovered);

        assert_eq!(injector.injected_faults(), 6);
        let faults = batcher.stats().faults;
        assert_eq!(
            faults,
            FaultStats {
                model_faults: 6,
                breaker_trips: 1,
                breaker_recoveries: 1,
                broken_dispatches: 3,
                probes: 1,
                coalesce_panics: 0,
            }
        );
    }

    #[test]
    fn coalesced_panic_becomes_a_typed_fault_and_batcher_survives() {
        struct PanicDetector {
            profile: vqpy_models::ModelProfile,
        }
        impl Detector for PanicDetector {
            fn profile(&self) -> &vqpy_models::ModelProfile {
                &self.profile
            }
            fn detect(&self, _frame: &Frame, _clock: &Clock) -> Vec<Detection> {
                panic!("poisoned weights")
            }
        }
        let clock = Arc::new(Clock::new());
        let batcher = ModelBatcher::new(BatcherConfig::default(), Arc::clone(&clock));
        let dispatch = batcher.dispatch();
        let bad: Arc<dyn Detector> = Arc::new(PanicDetector {
            profile: vqpy_models::ModelProfile::new(
                "bad_det",
                vqpy_models::TaskKind::Detection,
                1.0,
                0.5,
            ),
        });
        let fs = frames(43, 2);
        let refs: Vec<&Frame> = fs.iter().collect();

        let err = dispatch.detect(&bad, &refs, &clock).unwrap_err();
        assert!(err.to_string().contains("poisoned weights"), "{err}");

        // The coalescing thread survived the panic: a healthy model still
        // goes through the batcher and coalescing stats keep advancing.
        let det = detector();
        let ok = dispatch.detect(&det, &refs, &clock).unwrap();
        assert_eq!(ok, det.detect_batch(&refs, &Clock::new()));
        let stats = batcher.stats();
        assert_eq!(stats.faults.coalesce_panics, 1);
        assert_eq!(stats.faults.model_faults, 1);
        assert_eq!(stats.detect.requests, 2, "both calls used the batcher");
    }
}
