//! Supervisor behavior: paced ingestion, backpressure edge cases, and
//! admission control's typed rejections.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{Query, VqpySession};
use vqpy_models::ModelZoo;
use vqpy_serve::{
    AttachError, Backpressure, PaceMode, ServeConfig, ServeError, ServePolicy, StreamSupervisor,
    SupervisorConfig,
};
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{presets, Scene};

fn video(seed: u64, seconds: f64) -> SyntheticVideo {
    SyntheticVideo::new(Scene::generate(presets::jackson(), seed, seconds))
}

fn color_query(name: &str, color: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
        .frame_output(&[("car", "track_id")])
        .build()
        .unwrap()
}

/// A query matching (nearly) every frame: guaranteed channel pressure.
fn busy_query() -> Arc<Query> {
    Query::builder("AnyCar")
        .vobj("car", library::vehicle_schema())
        .frame_constraint(Pred::gt("car", "score", 0.0))
        .build()
        .unwrap()
}

/// `Backpressure::Drop` counter accuracy under a subscriber that consumes
/// nothing until the stream ends: exactly `channel_capacity` events are
/// buffered (delivered), every later event is dropped and counted, and
/// `collect` still terminates because the channel closes at finish.
#[test]
fn drop_counter_is_exact_under_slow_subscriber() {
    let capacity = 8usize;
    let v = video(41, 8.0);

    // Ground truth: how many events the query would produce.
    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected_hits = offline.execute(&busy_query(), &v).unwrap().frame_hits.len() as u64;
    assert!(
        expected_hits > capacity as u64 + 4,
        "scenario needs pressure: {expected_hits} hits vs capacity {capacity}"
    );

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                channel_capacity: capacity,
                backpressure: Backpressure::Drop,
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let (stream, subs) = supervisor
        .add_stream(Arc::new(v), PaceMode::Unpaced, &[busy_query()])
        .unwrap();
    let metrics = supervisor.join_stream(stream).unwrap();

    // Total attempts = every hit + the terminal End event. The first
    // `capacity` fills the channel; with no consumer, the rest drop.
    let attempts = expected_hits + 1;
    assert_eq!(metrics.per_query[0].delivered, capacity as u64);
    assert_eq!(metrics.per_query[0].dropped, attempts - capacity as u64);
    assert_eq!(metrics.dropped_events, metrics.per_query[0].dropped);

    // The slow subscriber still terminates: channel closed at finish.
    let (hits, _) = subs.into_iter().next().unwrap().collect();
    assert_eq!(hits.len(), capacity, "exactly the buffered events remain");
}

/// Detaching while the stream's worker is paced (likely asleep between
/// ticks) is non-blocking, terminates the detached subscription, and does
/// not perturb the surviving query.
#[test]
fn detach_while_paced_is_clean() {
    let v = video(42, 6.0);
    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute(&color_query("RedCar", "red"), &v).unwrap();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, SupervisorConfig::default());
    // ~3x real-time pace: slow enough that the worker sleeps between
    // ticks, fast enough for a quick test.
    let (stream, subs) = supervisor
        .add_stream(
            Arc::new(v),
            PaceMode::Fps(90.0),
            &[
                color_query("RedCar", "red"),
                color_query("BlackCar", "black"),
            ],
        )
        .unwrap();
    let mut subs = subs.into_iter();
    let red = subs.next().unwrap();
    let black = subs.next().unwrap();

    std::thread::sleep(Duration::from_millis(150));
    let t = Instant::now();
    supervisor.detach(stream, black.id()).unwrap();
    assert!(
        t.elapsed() < Duration::from_millis(100),
        "detach must not wait for the paced worker"
    );
    // The detached subscription terminates with its prefix.
    let (black_hits, _) = black.collect();
    let full_black = offline
        .execute(&color_query("BlackCar", "black"), &video(42, 6.0))
        .unwrap();
    assert!(black_hits.len() <= full_black.frame_hits.len());

    supervisor.join_stream(stream).unwrap();
    let (red_hits, _) = red.collect();
    assert_eq!(
        red_hits, expected.frame_hits,
        "survivor perturbed by detach"
    );
}

/// Paced ingestion actually paces: the same stream takes longer at a
/// bounded fps than unpaced, and at least as long as the source schedule
/// implies (with slack for the coarse step granularity).
#[test]
fn paced_ingestion_holds_the_schedule() {
    let seconds = 2.0;
    let fps = 120.0; // 4x real time for a 30fps source

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, SupervisorConfig::default());

    let t = Instant::now();
    let (unpaced, _subs) = supervisor
        .add_stream(
            Arc::new(video(43, seconds)),
            PaceMode::Unpaced,
            &[color_query("RedCar", "red")],
        )
        .unwrap();
    supervisor.join_stream(unpaced).unwrap();
    let unpaced_wall = t.elapsed();

    let t = Instant::now();
    let (paced, _subs2) = supervisor
        .add_stream(
            Arc::new(video(43, seconds)),
            PaceMode::Fps(fps),
            &[color_query("RedCar", "red")],
        )
        .unwrap();
    supervisor.join_stream(paced).unwrap();
    let paced_wall = t.elapsed();

    let frames = video(43, seconds).frame_count() as f64;
    let schedule = Duration::from_secs_f64(frames / f64::from(fps) * 0.6);
    assert!(
        paced_wall >= schedule,
        "paced run beat its schedule: {paced_wall:?} < {schedule:?}"
    );
    assert!(
        paced_wall > unpaced_wall,
        "pacing had no effect: {paced_wall:?} vs {unpaced_wall:?}"
    );
    let pace = supervisor.stream_snapshot(paced).unwrap();
    assert!(pace.finished);
    assert_eq!(
        pace.ticks_shed, 0,
        "an engine this fast should never fall behind"
    );
}

/// The active-stream limit rejects with the typed error, and frees up once
/// a stream is removed.
#[test]
fn stream_limit_rejects_with_typed_error() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            policy: ServePolicy {
                max_streams: Some(1),
                ..ServePolicy::default()
            },
            ..SupervisorConfig::default()
        },
    );
    // A slow-paced stream stays active for the whole test.
    let (first, _subs) = supervisor
        .add_stream(
            Arc::new(video(44, 10.0)),
            PaceMode::Fps(10.0),
            &[color_query("RedCar", "red")],
        )
        .unwrap();
    let err = supervisor
        .add_stream(Arc::new(video(45, 2.0)), PaceMode::Unpaced, &[])
        .unwrap_err();
    match err {
        AttachError::StreamLimit { streams, limit } => {
            assert_eq!((streams, limit), (1, 1));
        }
        other => panic!("expected StreamLimit, got {other}"),
    }
    // Removing the active stream frees the slot (worker stop is honored
    // mid-pace).
    supervisor.remove_stream(first).unwrap();
    let (second, _subs) = supervisor
        .add_stream(Arc::new(video(45, 2.0)), PaceMode::Unpaced, &[])
        .unwrap();
    supervisor.join_stream(second).unwrap();
}

/// Sustained drop-rate overload rejects both new streams and new attaches
/// with the typed error (not a panic), while permissive thresholds admit.
#[test]
fn drop_overload_rejects_attach() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                channel_capacity: 1,
                backpressure: Backpressure::Drop,
                ..ServeConfig::default()
            },
            policy: ServePolicy {
                max_drop_rate: Some(0.5),
                min_delivery_attempts: 10,
                ..ServePolicy::default()
            },
            ..SupervisorConfig::default()
        },
    );
    // Overload on purpose: capacity-1 channel, nobody draining.
    let (first, _subs) = supervisor
        .add_stream(Arc::new(video(46, 8.0)), PaceMode::Unpaced, &[busy_query()])
        .unwrap();
    supervisor.join_stream(first).unwrap();
    let load = supervisor.load();
    assert!(
        load.drop_rate() > 0.5 && load.delivery_attempts() >= 10,
        "scenario should be overloaded: {load:?}"
    );

    // A second stream (and an attach) must be refused, typed.
    match supervisor
        .add_stream(Arc::new(video(47, 2.0)), PaceMode::Unpaced, &[])
        .unwrap_err()
    {
        AttachError::DropOverload { rate, limit } => {
            assert!(rate > limit);
        }
        other => panic!("expected DropOverload, got {other}"),
    }
    match supervisor.attach(first, busy_query()).unwrap_err() {
        AttachError::DropOverload { .. } => {}
        other => panic!("expected DropOverload on attach, got {other}"),
    }
}

/// A query referencing a model the zoo lacks: attaching it makes the
/// stream's next recompile fail.
fn broken_query() -> Arc<Query> {
    let broken_schema = vqpy_core::VObjSchema::builder("Ghost")
        .class_labels(&["car"])
        .detector("no_such_detector")
        .build();
    Query::builder("Broken")
        .vobj("ghost", broken_schema)
        .frame_constraint(Pred::gt("ghost", "score", 0.5))
        .build()
        .unwrap()
}

/// A bad attach (query referencing a model the zoo lacks) stops the worker
/// with a typed serving error surfaced by `join_stream` — not a panic.
#[test]
fn worker_error_surfaces_through_join() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, SupervisorConfig::default());
    let (stream, _subs) = supervisor
        .add_stream(
            Arc::new(video(48, 10.0)),
            PaceMode::Fps(30.0),
            &[color_query("RedCar", "red")],
        )
        .unwrap();
    supervisor.attach(stream, broken_query()).unwrap();
    match supervisor.join_stream(stream) {
        Err(ServeError::Core(_)) => {}
        other => panic!("expected a core planning error, got {other:?}"),
    }
}

/// A stream its shard dropped after a failed attach is no longer active:
/// it leaves the active count and its shard's row, and its slot under
/// `max_streams` goes to the next stream.
#[test]
fn a_dropped_stream_is_not_active() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            policy: ServePolicy {
                max_streams: Some(1),
                ..ServePolicy::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let (stream, _subs) = supervisor
        .add_stream(
            Arc::new(video(48, 10.0)),
            PaceMode::Fps(30.0),
            &[color_query("RedCar", "red")],
        )
        .unwrap();
    supervisor.attach(stream, broken_query()).unwrap();
    match supervisor.join_stream(stream) {
        Err(ServeError::Core(_)) => {}
        other => panic!("expected a core planning error, got {other:?}"),
    }
    let load = supervisor.load();
    assert_eq!((load.streams, load.active_streams), (1, 0), "{load:?}");
    let loads = supervisor.shard_loads();
    assert!(loads.iter().all(|s| s.streams == 0), "{loads:?}");
    let (next, _subs) = supervisor
        .add_stream(Arc::new(video(49, 1.0)), PaceMode::Unpaced, &[])
        .expect("the dropped stream's slot is free");
    supervisor.join_stream(next).unwrap();
}

/// Admission is atomic: of eight threads racing `add_stream` under
/// `max_streams: Some(3)`, exactly three are admitted and the rest see the
/// limit reached with three active streams.
#[test]
fn racing_add_streams_admit_exactly_the_limit() {
    const LIMIT: usize = 3;
    for round in 0..20u64 {
        let session = Arc::new(VqpySession::new(ModelZoo::standard()));
        let supervisor = Arc::new(StreamSupervisor::new(
            session,
            SupervisorConfig {
                policy: ServePolicy {
                    max_streams: Some(LIMIT),
                    ..ServePolicy::default()
                },
                ..SupervisorConfig::default()
            },
        ));
        let start = Arc::new(std::sync::Barrier::new(8));
        let racers: Vec<_> = (0..8)
            .map(|i| {
                let supervisor = Arc::clone(&supervisor);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    // At 1 fps a 10 s clip stays active far past the race.
                    let source = Arc::new(video(200 + i, 10.0));
                    start.wait();
                    supervisor
                        .add_stream(source, PaceMode::Fps(1.0), &[])
                        .map(|(stream, _)| stream)
                })
            })
            .collect();
        let mut admitted = 0;
        for racer in racers {
            match racer.join().unwrap() {
                Ok(_) => admitted += 1,
                Err(AttachError::StreamLimit { streams, limit }) => {
                    assert_eq!((streams, limit), (LIMIT, LIMIT), "round {round}");
                }
                Err(other) => panic!("round {round}: expected StreamLimit, got {other}"),
            }
        }
        assert_eq!(admitted, LIMIT, "round {round}");
        assert_eq!(supervisor.load().active_streams, LIMIT, "round {round}");
    }
}

/// Attaching to a finished supervised stream is the typed `Serve` error.
#[test]
fn attach_after_finish_is_typed() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, SupervisorConfig::default());
    let (stream, _subs) = supervisor
        .add_stream(Arc::new(video(49, 1.0)), PaceMode::Unpaced, &[])
        .unwrap();
    supervisor.join_stream(stream).unwrap();
    match supervisor.attach(stream, color_query("RedCar", "red")) {
        Err(AttachError::Serve(ServeError::StreamFinished)) => {}
        other => panic!("expected StreamFinished, got {other:?}"),
    }
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within 30 s: a regression here is a hang, which must fail the suite
/// rather than stall it. A panic in `f` fails the test as itself.
fn within_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let _done = done; // dropped on return or unwind
        f();
    });
    let waited = finished.recv_timeout(Duration::from_secs(30));
    assert!(
        waited != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "{what}: still blocked after 30 s"
    );
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

/// After `shutdown` no shard worker is left, so neither a new stream nor a
/// from-past replay would ever be driven: both are refused with the typed
/// `Shutdown` error instead of handing out a stream whose `join_stream`
/// (or a subscription whose `recv`) blocks forever.
#[test]
fn add_stream_and_replay_attach_after_shutdown_are_refused() {
    let dir = std::env::temp_dir().join(format!("vqpy_supervisor_shutdown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = vqpy_store::FrameStore::open(vqpy_store::StoreConfig {
        background_eviction: false,
        ..vqpy_store::StoreConfig::new(dir.clone())
    })
    .unwrap();
    within_deadline("add_stream / attach after shutdown", move || {
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
        let query = color_query("RedCar", "red");
        let (stream, _subs) = supervisor
            .add_stream(
                Arc::new(video(50, 1.0)),
                PaceMode::Unpaced,
                &[Arc::clone(&query)],
            )
            .unwrap();
        supervisor.join_stream(stream).unwrap();
        supervisor.shutdown();

        match supervisor.add_stream(Arc::new(video(51, 1.0)), PaceMode::Unpaced, &[]) {
            Err(AttachError::Serve(ServeError::Shutdown)) => {}
            Ok((late, _)) => panic!(
                "add_stream after shutdown was admitted; join: {:?}",
                supervisor.join_stream(late)
            ),
            Err(other) => panic!("expected Shutdown, got {other}"),
        }
        let spec = vqpy_serve::AttachSpec::new(query).from(store.epoch());
        match supervisor.attach(stream, spec) {
            Err(AttachError::Serve(ServeError::Shutdown)) => {}
            Ok(sub) => panic!(
                "from-past attach after shutdown was admitted: {:?}",
                sub.recv()
            ),
            Err(other) => panic!("expected Shutdown, got {other}"),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pure admission predicate, exercised over every threshold.
#[test]
fn policy_admit_is_a_pure_threshold_check() {
    use vqpy_serve::LoadSnapshot;
    let policy = ServePolicy {
        max_streams: Some(4),
        max_queue_depth: Some(8),
        max_drop_rate: Some(0.25),
        min_delivery_attempts: 100,
    };
    let calm = LoadSnapshot {
        streams: 2,
        active_streams: 2,
        queue_depth: 1,
        delivered: 1000,
        dropped: 10,
        ..LoadSnapshot::default()
    };
    assert!(policy.admit(&calm).is_ok());
    assert!(policy.admit_stream(&calm).is_ok());

    let deep_queue = LoadSnapshot {
        queue_depth: 9,
        ..calm
    };
    assert!(matches!(
        policy.admit(&deep_queue),
        Err(AttachError::QueueOverload { depth: 9, limit: 8 })
    ));

    let dropping = LoadSnapshot {
        delivered: 100,
        dropped: 100,
        ..calm
    };
    assert!(matches!(
        policy.admit(&dropping),
        Err(AttachError::DropOverload { .. })
    ));

    // Not sustained yet: below the attempt floor the drop rate is ignored.
    let early_drops = LoadSnapshot {
        delivered: 10,
        dropped: 10,
        ..calm
    };
    assert!(policy.admit(&early_drops).is_ok());

    let full = LoadSnapshot {
        active_streams: 4,
        ..calm
    };
    assert!(matches!(
        policy.admit_stream(&full),
        Err(AttachError::StreamLimit { .. })
    ));
    // ...but attach-level admission does not count streams.
    assert!(policy.admit(&full).is_ok());
}
