//! Deterministic chaos suite: every fault in the serving degradation
//! ladder — injected model failures, circuit-breaker trips, coalesced-batch
//! panics, worker panics, and decode faults — is driven on a seeded
//! schedule, and the surviving frames' results are asserted byte-identical
//! to a fault-free run.
//!
//! The schedule seed comes from `VQPY_CHAOS_SEED` (default 1), so CI can
//! replay the suite under several fixed seeds. Identity assertions hold for
//! *any* seed; exact-count assertions use seed-independent schedules
//! (`every_nth` / panic-once), so the whole suite is deterministic per
//! seed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_core::backend::exec::run_segment;
use vqpy_core::backend::ops::FrameSlot;
use vqpy_core::backend::stage::{instantiate_stage_ops, ExecEnv};
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{
    Aggregate, ExecMetrics, ExecMode, PlanDag, Query, ResultSink, RetryPolicy, SessionConfig,
    VqpySession,
};
use vqpy_models::{
    Classifier, Clock, Detection, Detector, FaultInjector, FaultPlan, ModelProfile, ModelZoo,
    TaskKind, Value,
};
use vqpy_serve::{
    AttachSpec, BatcherConfig, FaultStats, PaceMode, ServeConfig, ServeError, ServeEvent,
    ServeMetrics, ServeSession, StreamFault, StreamSupervisor, Subscription, SupervisorConfig,
};
use vqpy_store::{FrameStore, StoreConfig};
use vqpy_video::{presets, FaultyVideo, Frame, Scene, SyntheticVideo, VideoSource};

/// Seed for the fault schedules; CI replays the suite under several values.
fn chaos_seed() -> u64 {
    std::env::var("VQPY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn video(seed: u64, seconds: f64) -> SyntheticVideo {
    SyntheticVideo::new(Scene::generate(presets::jackson(), seed, seconds))
}

fn color_query(name: &str, color: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

fn count_query() -> Arc<Query> {
    Query::builder("CountCars")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5))
        .video_output(Aggregate::CountDistinctTracks {
            alias: "car".into(),
        })
        .build()
        .unwrap()
}

/// Rebuilds the standard zoo, routing the models selected by `wrap`
/// through the injector. Registry names are preserved, so plans are
/// identical to the clean zoo's — only the fallible batch entry points
/// change behavior.
fn wrapped_zoo(inj: &FaultInjector, wrap: impl Fn(&str) -> bool) -> Arc<ModelZoo> {
    let std_zoo = ModelZoo::standard();
    let zoo = ModelZoo::new();
    for name in std_zoo.names() {
        let task = std_zoo.profile(&name).unwrap().task;
        match task {
            TaskKind::Detection => {
                let m = std_zoo.detector(&name).unwrap();
                zoo.register_detector(if wrap(&name) { inj.wrap_detector(m) } else { m });
            }
            TaskKind::Classification | TaskKind::Embedding => {
                let m = std_zoo.classifier(&name).unwrap();
                zoo.register_classifier(if wrap(&name) {
                    inj.wrap_classifier(m)
                } else {
                    m
                });
            }
            TaskKind::FrameClassification => {
                let m = std_zoo.frame_classifier(&name).unwrap();
                zoo.register_frame_classifier(if wrap(&name) {
                    inj.wrap_frame_classifier(m)
                } else {
                    m
                });
            }
            TaskKind::Interaction => zoo.register_hoi(std_zoo.hoi(&name).unwrap()),
        }
    }
    Arc::new(zoo)
}

/// Every model in the pipeline fails probabilistically; the supervisor's
/// retry layer re-issues each failed stage invocation, and the served
/// results — hits and video aggregates — are byte-identical to a fault-free
/// run. Holds for any `VQPY_CHAOS_SEED`.
#[test]
fn injected_model_faults_retry_to_fault_free_results() {
    let seed = chaos_seed();
    let v = video(81, 8.0);
    let queries = [color_query("RedCar", "red"), count_query()];

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute_shared(&queries, &v).unwrap();

    let inj = FaultInjector::new(FaultPlan::with_failure_prob(seed, 0.3));
    let session = Arc::new(VqpySession::new(wrapped_zoo(&inj, |_| true)));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            // Generous budget: 0.3^9 per invocation makes exhausting it a
            // once-per-tens-of-thousands-of-runs event for any seed.
            retry: Some(RetryPolicy {
                max_retries: 8,
                backoff_base_ms: 0.5,
                stage_timeout_ms: None,
            }),
            ..SupervisorConfig::default()
        },
    );
    let (stream, subs) = supervisor
        .add_stream(Arc::new(v), PaceMode::Unpaced, &queries)
        .unwrap();
    supervisor.join_stream(stream).unwrap();
    for (sub, exp) in subs.into_iter().zip(&expected) {
        let (hits, video_value) = sub.collect();
        assert_eq!(
            hits, exp.frame_hits,
            "hits diverged under injected faults for {} (seed {seed})",
            exp.query_name
        );
        assert_eq!(
            video_value, exp.video_value,
            "aggregate diverged for {} (seed {seed})",
            exp.query_name
        );
    }
    assert!(
        inj.injected_faults() > 0,
        "chaos run must actually inject faults (seed {seed})"
    );
}

/// A transient detector outage (first three invocations fail, then the
/// model heals) trips the per-model circuit breaker, routes traffic to
/// direct dispatch while open, recovers on the first successful probe —
/// with exact `FaultStats` accounting — and the results still match the
/// fault-free run.
#[test]
fn breaker_trips_and_recovers_with_exact_accounting() {
    let seed = chaos_seed();
    let v = video(82, 8.0);
    let queries = [count_query()];

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute_shared(&queries, &v).unwrap();

    let inj = FaultInjector::new(FaultPlan::every_nth(seed, 1).heal_after(3));
    let session = Arc::new(VqpySession::new(wrapped_zoo(&inj, |n| n == "yolox")));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            batcher: Some(BatcherConfig::default()),
            retry: Some(RetryPolicy {
                max_retries: 5,
                backoff_base_ms: 0.25,
                stage_timeout_ms: None,
            }),
            ..SupervisorConfig::default()
        },
    );
    let (stream, subs) = supervisor
        .add_stream(Arc::new(v), PaceMode::Unpaced, &queries)
        .unwrap();
    supervisor.join_stream(stream).unwrap();
    for (sub, exp) in subs.into_iter().zip(&expected) {
        let (hits, video_value) = sub.collect();
        assert_eq!(hits, exp.frame_hits, "hits diverged through the breaker");
        assert_eq!(video_value, exp.video_value, "aggregate diverged");
    }

    // The schedule is exact: 3 failures trip the breaker (consecutive
    // retries of the first detect dispatch), the next 3 detect calls route
    // direct while open, the 4th is a probe that succeeds and closes it.
    assert_eq!(inj.injected_faults(), 3, "heal_after must cap the outage");
    let faults = supervisor.load().faults;
    assert_eq!(
        faults,
        FaultStats {
            model_faults: 3,
            breaker_trips: 1,
            breaker_recoveries: 1,
            broken_dispatches: 3,
            probes: 1,
            coalesce_panics: 0,
        },
        "breaker lifecycle accounting must be exact"
    );
}

/// A "camera" whose decode panics exactly once at frame `at` — the shape of
/// a transient driver crash the worker must contain and retry through.
struct PanicOnceVideo {
    inner: SyntheticVideo,
    at: u64,
    fired: AtomicBool,
}

impl VideoSource for PanicOnceVideo {
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
        if index == self.at && !self.fired.swap(true, Ordering::Relaxed) {
            panic!("chaos camera died at frame {index}");
        }
        self.inner.frame(index)
    }
    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

/// Same camera, but the panic is permanent: every decode of frame `at`
/// dies, so the restart budget must run out.
struct AlwaysPanicVideo {
    inner: SyntheticVideo,
    at: u64,
}

impl VideoSource for AlwaysPanicVideo {
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
        if index == self.at {
            panic!("chaos camera wedged at frame {index}");
        }
        self.inner.frame(index)
    }
    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

/// Drains a subscription fully, separating result hits from fault notices.
fn drain(sub: vqpy_serve::Subscription) -> (Vec<vqpy_core::FrameHit>, Vec<StreamFault>, bool) {
    let mut hits = Vec::new();
    let mut faults = Vec::new();
    let mut terminal = false;
    while let Some(event) = sub.recv() {
        match event {
            ServeEvent::Hit(h) => hits.push(h),
            ServeEvent::StreamFault(f) => faults.push(f),
            ServeEvent::StoreFault(_) => {}
            ServeEvent::End { .. } | ServeEvent::Detached { .. } => {
                terminal = true;
                break;
            }
        }
    }
    (hits, faults, terminal)
}

/// Every `(frame, track)` whose track aged out of `query`'s tracker on
/// `video`, as the tracker itself reports it on the finished frames.
fn expiries(session: &VqpySession, query: &Arc<Query>, video: &SyntheticVideo) -> Vec<(u64, u64)> {
    struct Report(Vec<(u64, u64)>);
    impl ResultSink for Report {
        fn on_frame(&mut self, _: &PlanDag, slot: &FrameSlot) -> vqpy_core::error::Result<()> {
            let frame = slot.frame.index;
            self.0
                .extend(slot.expired.iter().map(|&(_, track)| (frame, track)));
            Ok(())
        }
    }
    let plan = session.plan_for(&[Arc::clone(query)], video).unwrap();
    let (zoo, config) = (session.zoo(), &session.config().exec);
    let mut ops = instantiate_stage_ops(&plan, zoo, config.exec_mode.workers()).unwrap();
    let clock = Clock::new();
    let env = ExecEnv {
        plan: &plan,
        source: video,
        zoo,
        clock: &clock,
        config,
    };
    let mut report = Report(Vec::new());
    let (frames, mut metrics) = (0..video.frame_count(), ExecMetrics::default());
    run_segment(env, frames, &mut ops, &mut metrics, &mut report).unwrap();
    report.0
}

/// A classifier that panics once, on its first crop of a frame at or
/// after `from`, and otherwise defers to `inner`.
struct PanicOnceClassifier {
    inner: Arc<dyn Classifier>,
    from: u64,
    fired: AtomicBool,
}

impl Classifier for PanicOnceClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }
    fn classify(&self, frame: &Frame, det: &Detection, clock: &Clock) -> Value {
        if frame.index >= self.from && !self.fired.swap(true, Ordering::Relaxed) {
            panic!("chaos classifier died at frame {}", frame.index);
        }
        self.inner.classify(frame, det, clock)
    }
}

/// Serves `query` on `source` to the end and drains its subscription.
fn serve_to_end(
    session: VqpySession,
    source: Arc<dyn VideoSource>,
    query: &Arc<Query>,
) -> (
    Vec<vqpy_core::FrameHit>,
    Vec<StreamFault>,
    bool,
    ServeMetrics,
) {
    let server = Arc::new(Arc::new(session).serve(ServeConfig::default()));
    let stream = server.open_stream(source);
    let sub = server
        .attach(stream, Arc::clone(query))
        .unwrap()
        .into_inner();
    let consumer = std::thread::spawn(move || drain(sub));
    let metrics = server.run_to_end(stream).unwrap();
    let (hits, faults, terminal) = consumer.join().unwrap();
    (hits, faults, terminal, metrics)
}

/// A worker panic mid-stream is contained: the engine rolls back to its
/// checkpoint, subscribers get a typed resumed `StreamFault`, the segment
/// is replayed, and the full result set — and the reuse hit rate — equals
/// a clean run, in both sequential and pipelined execution.
///
/// The second cell makes the checkpoint cover the reuse cache. A track
/// expires 16 frames (the tracker's `max_age + 1`) after its last
/// sighting, so with 24-frame batches a
/// red car's expiry and last sighting can share one batch: prep forgets
/// the car's colour, then the post-prep `direction` projection panics
/// before the batch is delivered. The re-run's restored tracker probes the
/// car again at its last sighting, which must hit as in the clean run. The
/// batch comes from the tracker's own expiry report on the clean video.
#[test]
fn worker_panic_restart_is_byte_identical() {
    for config in [SessionConfig::default(), SessionConfig::pipelined(2)] {
        let clean = video(83, 4.0);
        let query = color_query("RedCar", "red");
        let expected = VqpySession::with_config(ModelZoo::standard(), config.clone())
            .execute(&query, &clean)
            .unwrap();
        let source = Arc::new(PanicOnceVideo {
            inner: clean.clone(),
            at: 12,
            fired: AtomicBool::new(false),
        });
        let session = VqpySession::with_config(ModelZoo::standard(), config.clone());
        let (hits, faults, terminal, metrics) = serve_to_end(session, source, &query);

        assert!(terminal, "stream must still end cleanly");
        assert_eq!(hits, expected.frame_hits, "replayed results diverged");
        assert_eq!(metrics.reuse_hit_rate, expected.metrics.reuse.hit_rate());
        assert_eq!(metrics.restarts, 1, "exactly one restart");
        assert_eq!(metrics.frames_lost, 0, "retry-resume loses nothing");
        assert_eq!(faults.len(), 1, "one fault notice: {faults:?}");
        let f = &faults[0];
        assert!(f.resumed, "fault must be resumed: {f:?}");
        assert_eq!(f.restarts, 1);
        assert_eq!(f.frames_lost, 0);
        assert_eq!(f.frame, 8, "fault segment starts at the batch boundary");
        assert!(
            f.message.contains("chaos camera"),
            "panic payload must surface: {}",
            f.message
        );

        const BATCH: u64 = 24;
        let mut config = config;
        config.exec.batch_size = BATCH as usize;
        let query = Query::builder("RedCarHeading")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id"), ("car", "direction")])
            .build()
            .unwrap();
        let offline = VqpySession::with_config(ModelZoo::standard(), config.clone());
        let expected = offline.execute(&query, &clean).unwrap();
        let red: Vec<&Value> = expected
            .frame_hits
            .iter()
            .flat_map(|h| h.outputs.iter().flatten())
            .filter_map(|(column, value)| (column == "car.track_id").then_some(value))
            .collect();
        let strike = expiries(&offline, &query, &clean)
            .into_iter()
            .filter(|&(_, track)| red.contains(&&Value::Int(track as i64)))
            .map(|(frame, _)| frame)
            .find(|frame| frame % BATCH >= 16)
            .map(|frame| frame - frame % BATCH)
            .expect("a red car's last sighting and expiry share a batch");
        let zoo = ModelZoo::standard();
        zoo.register_classifier(Arc::new(PanicOnceClassifier {
            inner: zoo.classifier("direction_model").unwrap(),
            from: strike,
            fired: AtomicBool::new(false),
        }));
        let (hits, faults, terminal, metrics) = serve_to_end(
            VqpySession::with_config(zoo, config),
            Arc::new(clean),
            &query,
        );

        let cell = format!("direction panic in the batch at {strike}");
        assert!(terminal, "{cell}: stream must still end cleanly");
        assert_eq!(
            hits, expected.frame_hits,
            "{cell}: replayed results diverged"
        );
        assert_eq!(
            metrics.reuse_hit_rate,
            expected.metrics.reuse.hit_rate(),
            "{cell}: the re-run must hit the cache as the clean run did"
        );
        assert_eq!(metrics.restarts, 1, "{cell}: exactly one restart");
        assert_eq!(faults.len(), 1, "{cell}: one fault notice: {faults:?}");
        assert!(faults[0].resumed, "{cell}: {:?}", faults[0]);
        assert_eq!(faults[0].frame, strike, "{cell}: {:?}", faults[0]);
        assert!(
            faults[0].message.contains("chaos classifier"),
            "{cell}: panic payload must surface: {}",
            faults[0].message
        );
    }
}

/// The diff filter's reference frame is stream state like the object
/// tables. On this video, at this threshold, the filter drops a sixth of
/// the frames, among them the first of several batches (from frame 136
/// on). Across the attach/detach recompiles of a query set that churns at
/// every step it moves with the stream, so a surviving query's hits equal
/// an always-attached run. A colour-model panic in prep comes after the
/// frame filters have run the batch (pipelined, maybe several), so the
/// restart's checkpoint must roll the reference back for the re-run to be
/// byte-identical. Both execution modes.
#[test]
fn diff_filter_reference_survives_recompile_and_restart() {
    for config in [SessionConfig::default(), SessionConfig::pipelined(2)] {
        let mut config = config;
        config.plan.diff_filter = Some(1.0);
        let v = video(9, 12.0);
        let red = color_query("RedCar", "red");
        let (black, green) = (
            color_query("BlackCar", "black"),
            color_query("GreenCar", "green"),
        );
        let all = [Arc::clone(&red), Arc::clone(&black), Arc::clone(&green)];
        let offline = VqpySession::with_config(ModelZoo::standard(), config.clone());
        let always = offline.execute_shared(&all, &v).unwrap();
        let filtered = &always[0].metrics;
        assert!(filtered.frames_processed * 8 < filtered.frames_total * 7);

        let session = Arc::new(VqpySession::with_config(
            ModelZoo::standard(),
            config.clone(),
        ));
        let server = session.serve(ServeConfig::default());
        let stream = server.open_stream(Arc::new(v.clone()));
        let sub_red = server.attach(stream, Arc::clone(&red)).unwrap();
        let mut subs = vec![server.attach(stream, black).unwrap()];
        assert!(!server.step(stream).unwrap().finished);
        // Green joins and Black leaves, then each leaves and rejoins in
        // turn: a recompile at every step boundary.
        let mut recompiles = 0;
        for query in [&green, &all[1]].into_iter().cycle() {
            let leaving = subs.remove(0);
            subs.push(server.attach(stream, Arc::clone(query)).unwrap());
            server.detach(stream, leaving.id()).unwrap();
            let out = server.step(stream).unwrap();
            recompiles += u64::from(out.recompiled);
            if out.finished {
                break;
            }
        }
        assert_eq!(server.metrics(stream).unwrap().recompiles, recompiles);
        assert!(recompiles > 20, "{recompiles} recompiles");
        let (hits, _) = sub_red.collect();
        assert!(!hits.is_empty());
        assert_eq!(hits, always[0].frame_hits, "the survivor diverged");

        let expected = offline.execute(&red, &v).unwrap();
        let zoo = ModelZoo::standard();
        zoo.register_classifier(Arc::new(PanicOnceClassifier {
            inner: zoo.classifier("color_detect").unwrap(),
            from: 136,
            fired: AtomicBool::new(false),
        }));
        let session = VqpySession::with_config(zoo, config);
        let (hits, faults, terminal, metrics) = serve_to_end(session, Arc::new(v), &red);
        assert!(terminal);
        assert_eq!(hits, expected.frame_hits, "the re-run diverged");
        assert_eq!(metrics.reuse_hit_rate, expected.metrics.reuse.hit_rate());
        assert_eq!((metrics.restarts, faults.len()), (1, 1), "{faults:?}");
        assert!(faults[0].resumed, "{faults:?}");
    }
}

/// A permanent panic exhausts the restart budget: subscribers get resumed
/// notices for each restart, then a final non-resumed notice with exact
/// lost-frame accounting, the channel closes, and the driver receives a
/// typed `WorkerPanic` error.
#[test]
fn restart_budget_exhaustion_is_typed_and_counted() {
    let clean = video(84, 2.0); // 30 frames at 15fps; the wedge sits in [8, 16)
    let query = color_query("RedCar", "red");

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = Arc::new(session.serve(ServeConfig::default()));
    let stream = server.open_stream(Arc::new(AlwaysPanicVideo {
        inner: clean,
        at: 12,
    }));
    let sub = server
        .attach(stream, Arc::clone(&query))
        .unwrap()
        .into_inner();
    let consumer = std::thread::spawn(move || drain(sub));

    let err = server.run_to_end(stream).expect_err("budget must exhaust");
    match &err {
        ServeError::WorkerPanic { message, restarts } => {
            assert_eq!(*restarts, 2, "default budget is 2 restarts");
            assert!(message.contains("chaos camera"), "got: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    let (hits, faults, terminal) = consumer.join().unwrap();
    assert!(!terminal, "no End after an abandoned stream");
    assert!(
        hits.iter().all(|h| h.frame < 8),
        "no hits from the wedged segment: {hits:?}"
    );
    // Two resumed restarts, then the giving-up notice. The whole segment
    // [8, 16) is lost: its batch never demuxed (decode precedes delivery).
    assert_eq!(faults.len(), 3, "{faults:?}");
    assert_eq!((faults[0].restarts, faults[0].resumed), (1, true));
    assert_eq!((faults[1].restarts, faults[1].resumed), (2, true));
    let last = &faults[2];
    assert!(!last.resumed);
    assert_eq!(last.restarts, 2);
    assert_eq!(last.frames_lost, 8, "exact lost-segment accounting");

    let metrics = server.metrics(stream).unwrap();
    assert_eq!(metrics.restarts, 2);
    assert_eq!(metrics.frames_lost, 8);
}

/// A stream abandoned when its restart budget runs out keeps its queries'
/// metrics: each subscription leaves through the same exit as at the end
/// of the video, so `per_query` still holds it, its `delivered` count is
/// the hits the subscriber received (fault notices are not results), and
/// the server-wide aggregate agrees with the per-query sum.
#[test]
fn an_abandoned_stream_keeps_its_per_query_metrics() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = Arc::new(session.serve(ServeConfig::default()));
    let stream = server.open_stream(Arc::new(AlwaysPanicVideo {
        inner: video(84, 4.0),
        at: 40,
    }));
    let sub = server.attach(stream, count_query()).unwrap().into_inner();
    let consumer = std::thread::spawn(move || drain(sub));
    let err = server.run_to_end(stream).expect_err("budget must exhaust");
    assert!(matches!(err, ServeError::WorkerPanic { .. }), "{err:?}");
    let (hits, faults, _) = consumer.join().unwrap();
    assert!(!hits.is_empty(), "the frames before the wedge hold hits");
    assert_eq!(faults.len(), 3, "{faults:?}");

    let metrics = server.metrics(stream).unwrap();
    let queries: Vec<&str> = metrics.per_query.iter().map(|q| q.query.as_str()).collect();
    assert_eq!(
        queries,
        ["CountCars"],
        "the abandoned query lost its metrics"
    );
    assert_eq!(
        metrics.per_query[0].delivered,
        hits.len() as u64,
        "delivered counts the hits, not the fault notices"
    );
    let delivered: u64 = metrics.per_query.iter().map(|q| q.delivered).sum();
    assert_eq!(server.aggregate().delivered, delivered);
}

/// A camera that wedges at frame `at`: the first decode of that frame
/// announces itself on `reached` and waits at a gate until the test opens
/// it; every decode of it panics, so the restart budget runs out.
struct GatedWedgeVideo {
    inner: SyntheticVideo,
    at: u64,
    reached: std::sync::Mutex<Option<SyncSender<()>>>,
    gate: std::sync::Mutex<Receiver<()>>,
}

impl VideoSource for GatedWedgeVideo {
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
        if index == self.at {
            let first = self.reached.lock().unwrap().take();
            if let Some(reached) = first {
                reached.send(()).unwrap();
                let _ = self
                    .gate
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30));
            }
            panic!("chaos camera wedged at frame {index}");
        }
        self.inner.frame(index)
    }
    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

/// An attach queued during the step that runs the restart budget out
/// never runs, and is answered the way the end of the video answers one:
/// `Detached` with no aggregate, then its channel closes. Without that the
/// subscriber would wait forever on a finished stream.
#[test]
fn an_attach_queued_while_the_budget_runs_out_is_answered() {
    let (reached_tx, reached) = sync_channel(1);
    let (open_gate, gate) = sync_channel(1);
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(GatedWedgeVideo {
        inner: video(84, 4.0),
        at: 40,
        reached: std::sync::Mutex::new(Some(reached_tx)),
        gate: std::sync::Mutex::new(gate),
    }));
    let _first = server.attach(stream, count_query()).unwrap();
    std::thread::scope(|scope| {
        let driver = scope.spawn(|| server.run_to_end(stream));
        reached
            .recv_timeout(Duration::from_secs(30))
            .expect("the stream never reached the wedge");
        let late = server
            .attach(stream, color_query("RedCar", "red"))
            .unwrap()
            .into_inner();
        open_gate.send(()).unwrap();
        let err = driver.join().unwrap().expect_err("budget must exhaust");
        assert!(matches!(err, ServeError::WorkerPanic { .. }), "{err:?}");
        match late.recv_timeout(Duration::from_secs(2)) {
            Ok(Some(ServeEvent::Detached { video_value: None })) => {}
            other => panic!("the late attach must be answered Detached: {other:?}"),
        }
        assert!(
            late.recv_timeout(Duration::from_secs(2)).is_err(),
            "the late subscription's channel must close"
        );
    });
}

/// A fresh store in its own directory, for the replay cases below.
fn fresh_store(tag: &str) -> (Arc<FrameStore>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("vqpy_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FrameStore::open(StoreConfig {
        background_eviction: false,
        ..StoreConfig::new(dir.clone())
    })
    .unwrap();
    (store, dir)
}

/// Collects a subscription's fault notices until its channel closes.
/// Panics when the channel is still open after `deadline`, so a replay
/// that is never retired fails the test instead of hanging it.
fn faults_until_closed(sub: &Subscription, deadline: Duration) -> Vec<StreamFault> {
    let until = Instant::now() + deadline;
    let mut faults = Vec::new();
    loop {
        match sub.recv_timeout(until.saturating_duration_since(Instant::now())) {
            Err(_closed) => return faults,
            Ok(None) => panic!("subscription still open after {deadline:?}: {faults:?}"),
            Ok(Some(ServeEvent::StreamFault(f))) => faults.push(f),
            Ok(Some(ServeEvent::End { .. } | ServeEvent::Detached { .. })) => {
                panic!("an abandoned replay has no terminal event")
            }
            Ok(Some(_)) => {}
        }
    }
}

/// Two resumed restarts, then the giving-up notice for the wedged
/// segment [8, 16): the same ladder a live stream climbs.
fn assert_exhausted_ladder(faults: &[StreamFault]) {
    let ladder: Vec<_> = faults
        .iter()
        .map(|f| (f.frame, f.restarts, f.resumed, f.frames_lost))
        .collect();
    assert_eq!(
        ladder,
        [(8, 1, true, 0), (8, 2, true, 0), (8, 2, false, 8)],
        "{faults:?}"
    );
}

/// A from-past replay of a wedged camera gets the live path's panic
/// isolation on a bare server: the subscriber sees the restart notices,
/// its channel closes, and `run_replay` returns a typed `WorkerPanic`
/// instead of unwinding.
#[test]
fn replay_panic_is_a_typed_error_on_a_bare_server() {
    let query = color_query("RedCar", "red");
    let (store, dir) = fresh_store("replay_bare");
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig {
        store: Some(Arc::clone(&store)),
        ..ServeConfig::default()
    });
    let stream = server.open_stream(Arc::new(AlwaysPanicVideo {
        inner: video(84, 2.0),
        at: 12,
    }));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server
        .run_to_end(stream)
        .expect_err("the live budget exhausts");
    drop(live);

    let attached = server
        .attach(stream, AttachSpec::new(query).from(store.epoch()))
        .unwrap();
    let replay = attached
        .replay()
        .expect("a from-past attach yields a replay");
    let sub = attached.into_inner();
    match server.run_replay(replay) {
        Err(ServeError::WorkerPanic { message, restarts }) => {
            assert_eq!(restarts, 2, "a replay has the default budget too");
            assert!(message.contains("chaos camera"), "got: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_exhausted_ladder(&faults_until_closed(&sub, Duration::from_secs(30)));
    assert!(
        matches!(server.step(replay), Err(ServeError::UnknownStream(_))),
        "a faulted replay's id is retired"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same replay on a supervisor shard: the shard steps it like any
/// stream, the restart ladder reaches the subscriber, and its channel
/// closes while the supervisor is still running.
#[test]
fn replay_panic_closes_the_subscription_on_a_shard() {
    let query = color_query("RedCar", "red");
    let (store, dir) = fresh_store("replay_shard");
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                store: Some(Arc::clone(&store)),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let wedged = Arc::new(AlwaysPanicVideo {
        inner: video(84, 2.0),
        at: 12,
    });
    let (stream, _live) = supervisor
        .add_stream(wedged, PaceMode::Unpaced, &[Arc::clone(&query)])
        .unwrap();
    assert!(matches!(
        supervisor.join_stream(stream),
        Err(ServeError::WorkerPanic { .. })
    ));

    let sub = supervisor
        .attach(stream, AttachSpec::new(query).from(store.epoch()))
        .unwrap();
    assert_exhausted_ladder(&faults_until_closed(&sub, Duration::from_secs(30)));
    supervisor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment that fails mid-way delivers the same prefix under either
/// scheduler. Batches of 2, four per step: the wedge at frame 13 sits in
/// batch [12, 14) of segment [8, 16), so frames 8–11 are delivered and the
/// final notice counts 12–15 as lost. The pipelined scheduler drains the
/// batches ahead of the failure instead of cancelling them, so its prefix
/// does not depend on thread timing — hence the repetitions.
#[test]
fn failed_segment_delivers_the_sequential_prefix() {
    let query = count_query();
    let run = |exec_mode| {
        let mut config = SessionConfig::default();
        config.exec.batch_size = 2;
        config.exec.exec_mode = exec_mode;
        let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
        let server = Arc::new(session.serve(ServeConfig {
            batches_per_step: 4,
            ..ServeConfig::default()
        }));
        let stream = server.open_stream(Arc::new(AlwaysPanicVideo {
            inner: video(84, 2.0),
            at: 13,
        }));
        let sub = server
            .attach(stream, Arc::clone(&query))
            .unwrap()
            .into_inner();
        let consumer = std::thread::spawn(move || drain(sub));
        server.run_to_end(stream).expect_err("budget must exhaust");
        let (hits, faults, _) = consumer.join().unwrap();
        for f in &faults {
            assert!(f.message.contains("chaos camera"), "{f:?}");
        }
        // The pipelined message names the stage ("decode stage: …"); the
        // rest of the notice must match field for field.
        let faults: Vec<_> = faults
            .iter()
            .map(|f| (f.frame, f.restarts, f.resumed, f.frames_lost))
            .collect();
        (hits, faults, server.metrics(stream).unwrap().frames_lost)
    };

    let (hits, faults, frames_lost) = run(ExecMode::Sequential);
    assert!(
        hits.iter().any(|h| (8..12).contains(&h.frame)),
        "the failing segment's prefix must hold hits: {hits:?}"
    );
    assert!(hits.iter().all(|h| h.frame < 12), "{hits:?}");
    assert_eq!(faults.last().map(|f| f.3), Some(4), "{faults:?}");
    assert_eq!(frames_lost, 4);
    for rep in 0..10 {
        let pipelined = run(ExecMode::Pipelined { workers: 2 });
        assert_eq!(pipelined.0, hits, "hits diverged (rep {rep})");
        assert_eq!(pipelined.1, faults, "faults diverged (rep {rep})");
        assert_eq!(pipelined.2, 4, "frames lost (rep {rep})");
    }
}

/// Corrupt frames at the decoder become per-frame skips with exact
/// counters, not stream aborts: the run completes, `decode_failures` is
/// exact, and results on surviving frames are byte-identical to the clean
/// run's (corruption at the stream tail, so stateful operators see an
/// identical prefix).
#[test]
fn decode_faults_skip_frames_with_exact_accounting() {
    let clean = video(85, 6.0);
    let n = clean.frame_count();
    let query = color_query("RedCar", "red");

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute(&query, &clean).unwrap();
    let expected_prefix: Vec<_> = expected
        .frame_hits
        .iter()
        .filter(|h| h.frame < n - 2)
        .cloned()
        .collect();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = Arc::new(session.serve(ServeConfig::default()));
    let faulty = FaultyVideo::new(Arc::new(clean), [n - 2, n - 1]);
    let stream = server.open_stream(Arc::new(faulty));
    let sub = server.attach(stream, query).unwrap();
    let metrics = server.run_to_end(stream).unwrap();
    let (hits, _) = sub.collect();

    assert_eq!(metrics.decode_failures, 2, "both corrupt frames counted");
    assert_eq!(metrics.frames_total, n - 2, "skips never count as frames");
    assert_eq!(metrics.restarts, 0, "decode faults are not panics");
    assert_eq!(hits, expected_prefix, "surviving frames must be identical");
}

/// A detector that panics on exactly one `detect_batch` invocation —
/// landing inside a coalesced cross-stream round — then behaves normally.
struct PanicNthDetector {
    inner: Arc<dyn Detector>,
    nth: u64,
    calls: AtomicU64,
}

impl Detector for PanicNthDetector {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }
    fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection> {
        self.inner.detect(frame, clock)
    }
    fn detect_batch(&self, frames: &[&Frame], clock: &Clock) -> Vec<Vec<Detection>> {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.nth {
            panic!("transient coalescer crash");
        }
        self.inner.detect_batch(frames, clock)
    }
}

/// Satellite guarantee for the degraded batcher path: a physical-model
/// panic mid-coalesce-window becomes a typed fault, every participant
/// retries through direct/batched dispatch, and no (stream, frame, object)
/// result is lost or duplicated — both streams' full result sets are
/// byte-identical to clean runs.
#[test]
fn coalesced_panic_mid_window_loses_no_results() {
    let queries = [color_query("RedCar", "red")];
    let videos = [video(91, 6.0), video(92, 6.0)];

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected: Vec<_> = videos
        .iter()
        .map(|v| offline.execute_shared(&queries, v).unwrap())
        .collect();

    let inj = FaultInjector::new(FaultPlan::default()); // passthrough for non-target models
    let zoo = {
        let std_zoo = ModelZoo::standard();
        let zoo = wrapped_zoo(&inj, |_| false);
        // Shadow the shared detector with the panic-once wrapper.
        zoo.register_detector(Arc::new(PanicNthDetector {
            inner: std_zoo.detector("yolox").unwrap(),
            nth: 5,
            calls: AtomicU64::new(0),
        }));
        zoo
    };
    let session = Arc::new(VqpySession::new(zoo));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            batcher: Some(BatcherConfig::default()),
            retry: Some(RetryPolicy {
                max_retries: 3,
                backoff_base_ms: 0.25,
                stage_timeout_ms: None,
            }),
            ..SupervisorConfig::default()
        },
    );
    let mut streams = Vec::new();
    for v in videos {
        streams.push(
            supervisor
                .add_stream(Arc::new(v), PaceMode::Unpaced, &queries)
                .unwrap(),
        );
    }
    for (si, (stream, subs)) in streams.into_iter().enumerate() {
        supervisor.join_stream(stream).unwrap();
        for (sub, exp) in subs.into_iter().zip(&expected[si]) {
            let (hits, video_value) = sub.collect();
            assert_eq!(
                hits, exp.frame_hits,
                "stream {si} lost or duplicated results across the panic"
            );
            assert_eq!(video_value, exp.video_value, "stream {si} aggregate");
        }
    }
    let faults = supervisor.load().faults;
    assert_eq!(faults.coalesce_panics, 1, "exactly one round panicked");
    assert!(
        faults.model_faults >= 1,
        "the panic must surface as a typed fault: {faults:?}"
    );
    assert_eq!(faults.breaker_trips, 0, "one failure must not trip");
}

/// A from-past replay runs on its live stream's dispatch stack: with a
/// flaky colour classifier, the supervisor's retry covers the replay's
/// classify calls (and any frame it recomputes) exactly as it covers the
/// live stream's, so the replayed hits and `End` aggregate equal an
/// always-attached subscription's. Holds for any `VQPY_CHAOS_SEED`.
#[test]
fn from_past_replay_retries_on_its_stream_stack() {
    let seed = chaos_seed();
    let query = Query::builder("RedCarCount")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
        .video_output(Aggregate::CountDistinctTracks {
            alias: "car".into(),
        })
        .build()
        .unwrap();
    let (store, dir) = fresh_store("replay_retry");
    let inj = FaultInjector::new(FaultPlan::with_failure_prob(seed, 0.3));
    let session = Arc::new(VqpySession::new(wrapped_zoo(&inj, |n| n == "color_detect")));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                store: Some(Arc::clone(&store)),
                ..ServeConfig::default()
            },
            // 0.3^9 per invocation: exhausting the budget is a
            // once-per-tens-of-thousands-of-runs event for any seed.
            retry: Some(RetryPolicy {
                max_retries: 8,
                backoff_base_ms: 0.25,
                stage_timeout_ms: None,
            }),
            ..SupervisorConfig::default()
        },
    );
    let (stream, always) = supervisor
        .add_stream(
            Arc::new(video(81, 8.0)),
            PaceMode::Unpaced,
            &[Arc::clone(&query)],
        )
        .unwrap();
    // Attach once the live stream has run a few steps.
    let deadline = Instant::now() + Duration::from_secs(60);
    while supervisor.stream_snapshot(stream).unwrap().frames_total < 16 {
        assert!(Instant::now() < deadline, "the live stream never stepped");
        std::thread::sleep(Duration::from_millis(1));
    }
    let replayed = supervisor
        .attach(stream, AttachSpec::new(query).from(store.epoch()))
        .unwrap();
    supervisor.join_stream(stream).unwrap();
    let (want_hits, want_value) = always.into_iter().next().unwrap().collect();
    let mut hits = Vec::new();
    let mut value = None;
    loop {
        match replayed.recv() {
            Some(ServeEvent::Hit(h)) => hits.push(h),
            Some(ServeEvent::End { video_value }) => {
                value = Some(video_value);
                break;
            }
            Some(ServeEvent::StoreFault(_)) => {}
            Some(other) => panic!("the replay faulted (seed {seed}): {other:?}"),
            None => break,
        }
    }
    assert!(!want_hits.is_empty(), "the scenario needs red cars");
    assert_eq!(hits, want_hits, "replayed hits diverged (seed {seed})");
    assert_eq!(
        value,
        Some(want_value),
        "the replay must end with the always-attached aggregate (seed {seed})"
    );
    assert!(
        inj.injected_faults() > 0,
        "the classifier must fail (seed {seed})"
    );
    supervisor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
