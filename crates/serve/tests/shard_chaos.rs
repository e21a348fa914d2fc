//! Chaos scenarios on the **sharded** supervisor: the degradation ladder
//! from `tests/chaos.rs` (worker panic → restart, breaker trip → probe →
//! recover, decode corruption → per-frame skip) replayed through the
//! event-driven shard scheduler, plus the isolation guarantee the sharded
//! design must add: a stream that panics — even one that exhausts its
//! restart budget — never stalls the *other* streams multiplexed on its
//! shard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{Aggregate, Query, RetryPolicy, VqpySession};
use vqpy_models::{FaultInjector, FaultPlan, ModelZoo, TaskKind};
use vqpy_serve::{
    BatcherConfig, FaultStats, PaceMode, ServeConfig, ServeError, ServeEvent, StreamFault,
    StreamSupervisor, SupervisorConfig,
};
use vqpy_video::{presets, FaultyVideo, Frame, Scene, SyntheticVideo, VideoSource};

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

/// A supervisor config with an explicit shard budget (the knob under
/// test) and otherwise default serving behavior.
fn sharded_config(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        serve: ServeConfig {
            shards,
            ..ServeConfig::default()
        },
        ..SupervisorConfig::default()
    }
}

/// A "camera" whose decode panics exactly once at frame `at`.
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

/// Same camera, but every decode of frame `at` dies, so the restart
/// budget must run out.
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

/// Splits a drained subscription into hits, fault notices, and whether a
/// terminal event arrived.
fn split(events: Vec<ServeEvent>) -> (Vec<vqpy_core::FrameHit>, Vec<StreamFault>, bool) {
    let mut hits = Vec::new();
    let mut faults = Vec::new();
    let mut terminal = false;
    for event in events {
        match event {
            ServeEvent::Hit(h) => hits.push(h),
            ServeEvent::StreamFault(f) => faults.push(f),
            ServeEvent::StoreFault(_) => {}
            ServeEvent::End { .. } | ServeEvent::Detached { .. } => terminal = true,
        }
    }
    (hits, faults, terminal)
}

fn collect_events(sub: vqpy_serve::Subscription) -> Vec<ServeEvent> {
    let mut events = Vec::new();
    while let Some(e) = sub.recv() {
        events.push(e);
    }
    events
}

/// A worker panic mid-stream is contained by the shard worker exactly as
/// the per-stream thread contained it: checkpoint rollback, a typed
/// resumed `StreamFault`, replayed segment, byte-identical results.
#[test]
fn worker_panic_restart_is_byte_identical_on_a_shard() {
    let clean = video(83, 4.0);
    let query = color_query("RedCar", "red");

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute(&query, &clean).unwrap();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, sharded_config(2));
    let (stream, subs) = supervisor
        .add_stream(
            Arc::new(PanicOnceVideo {
                inner: clean,
                at: 12,
                fired: AtomicBool::new(false),
            }),
            PaceMode::Unpaced,
            &[Arc::clone(&query)],
        )
        .unwrap();
    let metrics = supervisor.join_stream(stream).unwrap();
    let (hits, faults, terminal) = split(collect_events(subs.into_iter().next().unwrap()));

    assert!(terminal, "stream must still end cleanly");
    assert_eq!(hits, expected.frame_hits, "replayed results diverged");
    assert_eq!(metrics.restarts, 1, "exactly one restart");
    assert_eq!(metrics.frames_lost, 0, "retry-resume loses nothing");
    assert_eq!(faults.len(), 1, "one fault notice: {faults:?}");
    assert!(faults[0].resumed, "fault must be resumed: {:?}", faults[0]);
    assert!(faults[0].message.contains("chaos camera"));
}

/// The isolation guarantee: four streams multiplexed on **one** shard,
/// one of them wedged on a permanent panic that exhausts its restart
/// budget. The wedged stream surfaces a typed `WorkerPanic` through
/// `join_stream`; its three shard siblings run to completion with event
/// sequences byte-identical to clean solo runs — the panicking stream
/// never stalls its shard.
#[test]
fn exhausted_restart_budget_never_stalls_shard_siblings() {
    let query = color_query("RedCar", "red");

    // Clean oracle runs for the three surviving streams.
    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected: Vec<_> = (1..4u64)
        .map(|i| offline.execute(&query, &video(90 + i, 3.0)).unwrap())
        .collect();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, sharded_config(1));
    let (wedged, wedged_subs) = supervisor
        .add_stream(
            Arc::new(AlwaysPanicVideo {
                inner: video(90, 2.0),
                at: 12,
            }),
            PaceMode::Unpaced,
            &[Arc::clone(&query)],
        )
        .unwrap();
    let mut siblings = Vec::new();
    for i in 1..4u64 {
        siblings.push(
            supervisor
                .add_stream(
                    Arc::new(video(90 + i, 3.0)),
                    PaceMode::Unpaced,
                    &[Arc::clone(&query)],
                )
                .unwrap(),
        );
    }

    // The wedged stream dies typed, with the default budget of 2 restarts.
    match supervisor.join_stream(wedged) {
        Err(ServeError::WorkerPanic { message, restarts }) => {
            assert_eq!(restarts, 2, "default budget is 2 restarts");
            assert!(message.contains("chaos camera"), "got: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // The abandoned stream is finished in a faulted state, and no longer
    // scheduled.
    assert!(supervisor.stream_snapshot(wedged).unwrap().finished);
    let (_, wedged_faults, wedged_terminal) =
        split(collect_events(wedged_subs.into_iter().next().unwrap()));
    assert!(!wedged_terminal, "no End after an abandoned stream");
    assert_eq!(wedged_faults.len(), 3, "{wedged_faults:?}");
    assert!(!wedged_faults[2].resumed, "final notice gives up");

    // Every sibling on the same shard still finishes, byte-identical.
    for (i, (stream, subs)) in siblings.into_iter().enumerate() {
        let metrics = supervisor.join_stream(stream).unwrap();
        let (hits, faults, terminal) = split(collect_events(subs.into_iter().next().unwrap()));
        assert!(terminal, "sibling {i} must end cleanly");
        assert!(faults.is_empty(), "sibling {i} saw faults: {faults:?}");
        assert_eq!(
            hits, expected[i].frame_hits,
            "sibling {i} diverged while sharing a shard with the wedged stream"
        );
        assert_eq!(metrics.restarts, 0, "sibling {i} never restarted");
    }

    // One shard carried all four streams.
    let loads = supervisor.shard_loads();
    assert_eq!(loads.len(), 1);
    assert!(loads[0].steps > 0);

    // Every reading of the streams' lifecycle agrees: four finished, none
    // active.
    let aggregate = supervisor.server().aggregate();
    let load = supervisor.load();
    assert_eq!(
        (aggregate.streams, aggregate.finished_streams),
        (4, 4),
        "{aggregate:?}"
    );
    assert_eq!((load.streams, load.active_streams), (4, 0), "{load:?}");
    assert_eq!(loads[0].streams, 0, "{loads:?}");
}

/// Decode corruption on the sharded supervisor: corrupt frames become
/// per-frame skips with exact counters, and surviving frames match the
/// clean run (corruption at the tail, so stateful prefixes agree).
#[test]
fn decode_faults_skip_frames_with_exact_accounting_on_a_shard() {
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
    let supervisor = StreamSupervisor::new(session, sharded_config(2));
    let faulty = FaultyVideo::new(Arc::new(clean), [n - 2, n - 1]);
    let (stream, subs) = supervisor
        .add_stream(Arc::new(faulty), PaceMode::Unpaced, &[query])
        .unwrap();
    let metrics = supervisor.join_stream(stream).unwrap();
    let (hits, _) = subs.into_iter().next().unwrap().collect();

    assert_eq!(metrics.decode_failures, 2, "both corrupt frames counted");
    assert_eq!(metrics.frames_total, n - 2, "skips never count as frames");
    assert_eq!(metrics.restarts, 0, "decode faults are not panics");
    assert_eq!(hits, expected_prefix, "surviving frames must be identical");
}

/// The breaker lifecycle — trip after consecutive failures, route direct
/// while open, recover on the first successful probe — holds with exact
/// accounting when the stream rides a shard worker instead of its own
/// thread.
#[test]
fn breaker_trips_and_recovers_with_exact_accounting_on_a_shard() {
    let v = video(82, 8.0);
    let queries = [count_query()];

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute_shared(&queries, &v).unwrap();

    let inj = FaultInjector::new(FaultPlan::every_nth(1, 1).heal_after(3));
    // Wrap only the shared detector, preserving registry names.
    let std_zoo = ModelZoo::standard();
    let zoo = ModelZoo::new();
    for name in std_zoo.names() {
        match std_zoo.profile(&name).unwrap().task {
            TaskKind::Detection => {
                let m = std_zoo.detector(&name).unwrap();
                zoo.register_detector(if name == "yolox" {
                    inj.wrap_detector(m)
                } else {
                    m
                });
            }
            TaskKind::Classification | TaskKind::Embedding => {
                zoo.register_classifier(std_zoo.classifier(&name).unwrap());
            }
            TaskKind::FrameClassification => {
                zoo.register_frame_classifier(std_zoo.frame_classifier(&name).unwrap());
            }
            TaskKind::Interaction => zoo.register_hoi(std_zoo.hoi(&name).unwrap()),
        }
    }
    let session = Arc::new(VqpySession::new(Arc::new(zoo)));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
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
    assert_eq!(inj.injected_faults(), 3, "heal_after must cap the outage");
    assert_eq!(
        supervisor.load().faults,
        FaultStats {
            model_faults: 3,
            breaker_trips: 1,
            breaker_recoveries: 1,
            broken_dispatches: 3,
            probes: 1,
            coalesce_panics: 0,
        },
        "breaker lifecycle accounting must be exact on a shard"
    );
}
