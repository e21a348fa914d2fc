//! Serving equivalence: subscription results must be byte-identical to the
//! offline `execute_shared` path, and runtime attach/detach must not
//! perturb surviving queries' results (the operator-state carry-over
//! contract of the incremental recompile).

use std::sync::Arc;
use vqpy_core::backend::exec::run_segment;
use vqpy_core::backend::stage::{instantiate_stage_ops, ExecEnv};
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{Aggregate, Collector, ExecMetrics, Query, SessionConfig, VqpySession};
use vqpy_models::ModelZoo;
use vqpy_serve::{Backpressure, ServeConfig, ServeEvent, ServeSession};
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{presets, Scene};

fn color_query(name: &str, color: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

/// A query over the *non-memoizable* `direction` model property: every
/// detected vehicle costs one classify-stage crop per frame, so serving it
/// through a shared batcher exercises the property-stage (classify)
/// dispatch boundary, not just detect.
fn direction_query(name: &str, dir: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "direction", dir))
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

fn video(seed: u64, seconds: f64) -> SyntheticVideo {
    SyntheticVideo::new(Scene::generate(presets::jackson(), seed, seconds))
}

/// Fixed query set attached before the stream starts: subscription results
/// must be byte-identical to offline `execute_shared` on the same video.
#[test]
fn static_query_set_matches_execute_shared() {
    for config in [SessionConfig::default(), SessionConfig::pipelined(3)] {
        let v = video(71, 10.0);
        let queries = [color_query("RedCar", "red"), count_query()];

        let offline = Arc::new(VqpySession::with_config(
            ModelZoo::standard(),
            config.clone(),
        ));
        let expected = offline.execute_shared(&queries, &v).unwrap();

        let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
        let server = session.serve(ServeConfig::default());
        let stream = server.open_stream(Arc::new(v.clone()));
        let subs: Vec<_> = queries
            .iter()
            .map(|q| server.attach(stream, Arc::clone(q)).unwrap())
            .collect();
        let metrics = server.run_to_end(stream).unwrap();
        assert_eq!(metrics.frames_total, v.frame_count(), "no frames dropped");

        for (sub, exp) in subs.into_iter().zip(&expected) {
            let (hits, video_value) = sub.collect();
            assert_eq!(hits, exp.frame_hits, "hits diverged for {}", exp.query_name);
            assert_eq!(
                video_value, exp.video_value,
                "aggregate diverged for {}",
                exp.query_name
            );
        }
    }
}

/// A query attaches mid-stream and another detaches at the same boundary:
/// the surviving query's full-stream results are unchanged vs. the static
/// run, the detached query's results are the exact prefix, and the late
/// query's results are the exact suffix (shared tracker/projection state
/// carried through the recompile).
#[test]
fn attach_detach_mid_stream_preserves_surviving_queries() {
    let v = video(72, 12.0);
    let q_red = color_query("RedCar", "red");
    let q_black = color_query("BlackCar", "black");
    let q_green = color_query("GreenCar", "green");

    // Static references, one uninterrupted run per query set member.
    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let static_all = offline
        .execute_shared(
            &[
                Arc::clone(&q_red),
                Arc::clone(&q_black),
                Arc::clone(&q_green),
            ],
            &v,
        )
        .unwrap();
    let (static_red, static_black, static_green) = (&static_all[0], &static_all[1], &static_all[2]);

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(v.clone()));
    let sub_red = server.attach(stream, Arc::clone(&q_red)).unwrap();
    let sub_black = server.attach(stream, Arc::clone(&q_black)).unwrap();

    // Run part of the stream, then swap the query set at a batch boundary.
    for _ in 0..6 {
        let out = server.step(stream).unwrap();
        assert!(!out.finished, "video too short for the scenario");
    }
    let boundary = server.position(stream).unwrap();
    assert!(boundary > 0 && boundary < v.frame_count());
    let sub_green = server.attach(stream, Arc::clone(&q_green)).unwrap();
    server.detach(stream, sub_black.id()).unwrap();
    let out = server.step(stream).unwrap();
    assert!(
        out.recompiled,
        "attach+detach must recompile the super-plan"
    );
    let metrics = server.run_to_end(stream).unwrap();
    assert_eq!(metrics.recompiles, 1);
    assert_eq!(
        metrics.frames_total,
        v.frame_count(),
        "recompile must not drop frames"
    );

    // Survivor: byte-identical to the uninterrupted run.
    let (red_hits, red_agg) = sub_red.collect();
    assert_eq!(red_hits, static_red.frame_hits, "surviving query perturbed");
    assert_eq!(red_agg, static_red.video_value);

    // Detached at the boundary: the exact prefix.
    let (black_hits, _) = sub_black.collect();
    let expected_prefix: Vec<_> = static_black
        .frame_hits
        .iter()
        .filter(|h| h.frame < boundary)
        .cloned()
        .collect();
    assert_eq!(
        black_hits, expected_prefix,
        "detached query not a clean prefix"
    );

    // Attached at the boundary: the exact suffix — possible only because
    // the shared tracker and reuse cache carried over the recompile.
    let (green_hits, _) = sub_green.collect();
    let expected_suffix: Vec<_> = static_green
        .frame_hits
        .iter()
        .filter(|h| h.frame >= boundary)
        .cloned()
        .collect();
    assert_eq!(green_hits, expected_suffix, "late query not a clean suffix");
}

/// Cross-stream model batching must be invisible in results: streams
/// served through a supervisor whose detect stages share one
/// [`ModelBatcher`] physical batch are byte-identical to each stream
/// executed alone offline — under both executors.
#[test]
fn cross_stream_batching_is_byte_identical_to_solo() {
    use vqpy_serve::{BatcherConfig, PaceMode, StreamSupervisor, SupervisorConfig};

    for config in [SessionConfig::default(), SessionConfig::pipelined(2)] {
        let seeds = [91u64, 92, 93];
        // The direction query keeps per-(stream, frame) classify traffic
        // flowing, so the batcher folds crops as well as frames.
        let queries = [
            color_query("RedCar", "red"),
            direction_query("StraightCar", "straight"),
            count_query(),
        ];

        // Solo references: each stream alone, no supervisor, no batcher.
        let offline = Arc::new(VqpySession::with_config(
            ModelZoo::standard(),
            config.clone(),
        ));
        let expected: Vec<_> = seeds
            .iter()
            .map(|&s| offline.execute_shared(&queries, &video(s, 8.0)).unwrap())
            .collect();

        // All streams through one supervisor with aggressive coalescing.
        let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
        let supervisor = StreamSupervisor::new(
            session,
            SupervisorConfig {
                batcher: Some(BatcherConfig {
                    max_batch_frames: 256,
                    window: std::time::Duration::from_millis(5),
                }),
                ..SupervisorConfig::default()
            },
        );
        let mut streams = Vec::new();
        for &s in &seeds {
            streams.push(
                supervisor
                    .add_stream(Arc::new(video(s, 8.0)), PaceMode::Unpaced, &queries)
                    .unwrap(),
            );
        }
        for (si, (stream, subs)) in streams.into_iter().enumerate() {
            supervisor.join_stream(stream).unwrap();
            for (sub, exp) in subs.into_iter().zip(&expected[si]) {
                let (hits, video_value) = sub.collect();
                assert_eq!(
                    hits, exp.frame_hits,
                    "stream {si} hits diverged for {} under cross-stream batching",
                    exp.query_name
                );
                assert_eq!(
                    video_value, exp.video_value,
                    "stream {si} aggregate diverged for {}",
                    exp.query_name
                );
            }
        }
        let stats = supervisor.batcher_stats().unwrap();
        assert!(stats.requests > 0, "model work must route via the batcher");
        assert!(
            stats.physical_batches > 0,
            "batcher must have executed: {stats:?}"
        );
        assert!(
            stats.detect.requests > 0,
            "detect stage must route via the batcher: {stats:?}"
        );
        assert!(
            stats.classify.requests > 0,
            "property (classify) stage must route via the batcher: {stats:?}"
        );
    }
}

/// Property-stage batching must stay invisible across a mid-stream
/// attach/detach recompile: with the batcher's dispatch installed into the
/// stream's engine, the surviving direction query's full-stream results
/// are byte-identical to the uninterrupted static run, the detached query
/// gets the exact prefix, and the late query the exact suffix — in both
/// exec modes. This is the recompile-preservation contract of
/// `StreamServer::install`, which builds every plan's operators over the
/// stream's dispatch: the shared boundary survives every plan swap.
#[test]
fn property_stage_batching_survives_attach_detach_recompile() {
    use vqpy_serve::{BatcherConfig, ModelBatcher, StreamOptions};

    for config in [SessionConfig::default(), SessionConfig::pipelined(2)] {
        let v = video(95, 12.0);
        let q_straight = direction_query("StraightCar", "straight");
        let q_red = color_query("RedCar", "red");
        let q_left = direction_query("LeftCar", "left");

        // Static references, one uninterrupted run with all three queries.
        let offline = Arc::new(VqpySession::with_config(
            ModelZoo::standard(),
            config.clone(),
        ));
        let static_all = offline
            .execute_shared(
                &[
                    Arc::clone(&q_straight),
                    Arc::clone(&q_red),
                    Arc::clone(&q_left),
                ],
                &v,
            )
            .unwrap();

        let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
        let batcher = ModelBatcher::new(
            BatcherConfig {
                max_batch_frames: 256,
                window: std::time::Duration::from_millis(2),
            },
            session.clock_handle(),
        );
        let server = session.serve(ServeConfig::default());
        let stream = server.open_stream_with(
            Arc::new(v.clone()),
            StreamOptions {
                dispatch: Some(batcher.dispatch()),
            },
        );
        let sub_straight = server.attach(stream, Arc::clone(&q_straight)).unwrap();
        let sub_red = server.attach(stream, Arc::clone(&q_red)).unwrap();
        for _ in 0..4 {
            let out = server.step(stream).unwrap();
            assert!(!out.finished, "video too short for the scenario");
        }
        let boundary = server.position(stream).unwrap();
        let sub_left = server.attach(stream, Arc::clone(&q_left)).unwrap();
        server.detach(stream, sub_red.id()).unwrap();
        server.run_to_end(stream).unwrap();

        let (straight_hits, straight_agg) = sub_straight.collect();
        assert_eq!(
            straight_hits, static_all[0].frame_hits,
            "surviving property query perturbed by recompile under batching"
        );
        assert_eq!(straight_agg, static_all[0].video_value);

        let (red_hits, _) = sub_red.collect();
        let expected_prefix: Vec<_> = static_all[1]
            .frame_hits
            .iter()
            .filter(|h| h.frame < boundary)
            .cloned()
            .collect();
        assert_eq!(
            red_hits, expected_prefix,
            "detached query not a clean prefix"
        );

        let (left_hits, _) = sub_left.collect();
        let expected_suffix: Vec<_> = static_all[2]
            .frame_hits
            .iter()
            .filter(|h| h.frame >= boundary)
            .cloned()
            .collect();
        assert_eq!(left_hits, expected_suffix, "late query not a clean suffix");

        let stats = batcher.stats();
        assert!(
            stats.classify.requests > 0,
            "classify traffic must have routed via the batcher both before \
             and after the recompile: {stats:?}"
        );
        assert!(stats.detect.requests > 0, "{stats:?}");
    }
}

/// The parallel enrich stage must carry its state cleanly across a
/// mid-stream attach/detach recompile: under the pipelined executor the
/// hoistable `direction` projections run on enrich workers that still
/// hold in-flight jobs from the previous batch when the recompile lands
/// at the boundary. The surviving direction query must stay
/// byte-identical to the uninterrupted static run (no lost or duplicated
/// property values), the detached query gets the exact prefix, the late
/// query the exact suffix — and the trace must show enrich spans on both
/// sides of the recompile, proving the stage was actually live, not
/// drained and bypassed.
#[test]
fn enrich_stage_survives_recompile_with_jobs_in_flight() {
    use vqpy_serve::Telemetry;

    for workers in [2usize, 3] {
        let config = SessionConfig::pipelined(workers);
        let v = video(96, 12.0);
        let q_straight = direction_query("StraightCar", "straight");
        let q_left = direction_query("LeftCar", "left");
        let q_right = direction_query("RightCar", "right");

        let offline = Arc::new(VqpySession::with_config(
            ModelZoo::standard(),
            config.clone(),
        ));
        let static_all = offline
            .execute_shared(
                &[
                    Arc::clone(&q_straight),
                    Arc::clone(&q_left),
                    Arc::clone(&q_right),
                ],
                &v,
            )
            .unwrap();

        let telemetry = Telemetry::with_tracing();
        let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
        let server = session.serve(ServeConfig {
            telemetry: telemetry.clone(),
            ..ServeConfig::default()
        });
        let stream = server.open_stream(Arc::new(v.clone()));
        let sub_straight = server.attach(stream, Arc::clone(&q_straight)).unwrap();
        let sub_left = server.attach(stream, Arc::clone(&q_left)).unwrap();
        for _ in 0..4 {
            let out = server.step(stream).unwrap();
            assert!(!out.finished, "video too short for the scenario");
        }
        let boundary = server.position(stream).unwrap();
        let spans_before = telemetry
            .tracer()
            .spans()
            .iter()
            .filter(|s| s.name == "enrich")
            .count();
        assert!(
            spans_before > 0,
            "direction projections must run on the enrich stage before the \
             recompile ({workers} workers)"
        );
        let sub_right = server.attach(stream, Arc::clone(&q_right)).unwrap();
        server.detach(stream, sub_left.id()).unwrap();
        let metrics = server.run_to_end(stream).unwrap();
        assert_eq!(metrics.recompiles, 1);
        assert_eq!(metrics.frames_total, v.frame_count(), "no frames dropped");

        let (straight_hits, straight_agg) = sub_straight.collect();
        assert_eq!(
            straight_hits, static_all[0].frame_hits,
            "surviving enrich-stage query perturbed by recompile ({workers} workers)"
        );
        assert_eq!(straight_agg, static_all[0].video_value);

        let (left_hits, _) = sub_left.collect();
        let expected_prefix: Vec<_> = static_all[1]
            .frame_hits
            .iter()
            .filter(|h| h.frame < boundary)
            .cloned()
            .collect();
        assert_eq!(
            left_hits, expected_prefix,
            "detached enrich-stage query not a clean prefix"
        );

        let (right_hits, _) = sub_right.collect();
        let expected_suffix: Vec<_> = static_all[2]
            .frame_hits
            .iter()
            .filter(|h| h.frame >= boundary)
            .cloned()
            .collect();
        assert_eq!(
            right_hits, expected_suffix,
            "late enrich-stage query not a clean suffix"
        );

        // The recompiled plan kept the stage live: new enrich spans were
        // recorded after the boundary.
        let spans_after = telemetry
            .tracer()
            .spans()
            .iter()
            .filter(|s| s.name == "enrich")
            .count();
        assert!(
            spans_after > spans_before,
            "enrich stage must keep running after the recompile \
             ({spans_before} -> {spans_after} spans, {workers} workers)"
        );
    }
}

/// Two streams on one server serve independently and match per-video
/// offline execution.
#[test]
fn multiple_streams_serve_independently() {
    let v1 = video(81, 6.0);
    let v2 = video(82, 6.0);
    let q = color_query("RedCar", "red");

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let e1 = offline.execute(&q, &v1).unwrap();
    let e2 = offline.execute(&q, &v2).unwrap();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let s1 = server.open_stream(Arc::new(v1));
    let s2 = server.open_stream(Arc::new(v2));
    let sub1 = server.attach(s1, Arc::clone(&q)).unwrap();
    let sub2 = server.attach(s2, Arc::clone(&q)).unwrap();
    server.run_to_end(s1).unwrap();
    server.run_to_end(s2).unwrap();
    assert_eq!(sub1.collect().0, e1.frame_hits);
    assert_eq!(sub2.collect().0, e2.frame_hits);
}

/// Drop backpressure: a tiny full channel drops events with a counter
/// instead of stalling the stream, and the subscription still terminates.
#[test]
fn drop_backpressure_counts_dropped_events() {
    let v = video(83, 8.0);
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig {
        channel_capacity: 1,
        backpressure: Backpressure::Drop,
        ..ServeConfig::default()
    });
    let stream = server.open_stream(Arc::new(v));
    // score > 0.0 matches nearly every frame: guaranteed overload.
    let busy = Query::builder("AnyCar")
        .vobj("car", library::vehicle_schema())
        .frame_constraint(Pred::gt("car", "score", 0.0))
        .build()
        .unwrap();
    let sub = server.attach(stream, busy).unwrap();
    let metrics = server.run_to_end(stream).unwrap();
    assert!(
        metrics.dropped_events > 0,
        "expected drops: {}",
        metrics.summary()
    );
    assert_eq!(metrics.dropped_events, metrics.per_query[0].dropped);
    // The channel closed at finish, so collect terminates with <= capacity
    // undrained events.
    let (hits, _) = sub.collect();
    assert!(
        hits.len() <= 1,
        "capacity-1 channel held {} hits",
        hits.len()
    );
}

/// Block backpressure with a draining consumer loses nothing.
#[test]
fn block_backpressure_delivers_everything() {
    let v = video(84, 6.0);
    let frames = v.frame_count();
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = Arc::new(session.serve(ServeConfig {
        channel_capacity: 2,
        backpressure: Backpressure::Block,
        ..ServeConfig::default()
    }));
    let stream = server.open_stream(Arc::new(v.clone()));
    let busy = Query::builder("AnyCar")
        .vobj("car", library::vehicle_schema())
        .frame_constraint(Pred::gt("car", "score", 0.0))
        .build()
        .unwrap();
    let sub = server.attach(stream, busy).unwrap();
    let driver = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run_to_end(stream).unwrap())
    };
    let mut hits = 0u64;
    while let Some(event) = sub.recv() {
        if matches!(event, ServeEvent::Hit(_)) {
            hits += 1;
        }
    }
    let metrics = driver.join().unwrap();
    assert_eq!(metrics.dropped_events, 0);
    assert_eq!(metrics.per_query[0].delivered, hits + 1, "hits + End event");
    assert!(hits > 0 && hits <= frames);
}

/// A failed attach (query referencing a model the zoo lacks) must not
/// perturb the running stream: the old plan and subscribers stay aligned,
/// the error clears once the offending attach is detached, and the
/// surviving query's results are still byte-identical to the static run.
#[test]
fn failed_recompile_leaves_stream_consistent() {
    let v = video(86, 8.0);
    let q_red = color_query("RedCar", "red");

    let offline = Arc::new(VqpySession::new(ModelZoo::standard()));
    let expected = offline.execute(&q_red, &v).unwrap();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(v));
    let sub_red = server.attach(stream, Arc::clone(&q_red)).unwrap();
    for _ in 0..3 {
        server.step(stream).unwrap();
    }

    // A schema bound to a detector the zoo does not have.
    let broken_schema = vqpy_core::VObjSchema::builder("Ghost")
        .class_labels(&["car"])
        .detector("no_such_detector")
        .build();
    let broken = Query::builder("Broken")
        .vobj("ghost", broken_schema)
        .frame_constraint(Pred::gt("ghost", "score", 0.5))
        .build()
        .unwrap();
    let bad_sub = server.attach(stream, broken).unwrap();
    assert!(server.step(stream).is_err(), "recompile must fail");
    // The command stays queued; detaching the bad attach clears it.
    server.detach(stream, bad_sub.id()).unwrap();
    server.run_to_end(stream).unwrap();

    let (hits, _) = sub_red.collect();
    assert_eq!(
        hits, expected.frame_hits,
        "survivor perturbed by failed recompile"
    );
}

/// detach() must never block behind a running step: a subscriber that is
/// the reason the stream is stalled (full Block-policy channel) can still
/// remove itself.
#[test]
fn detach_is_nonblocking_while_stream_is_stalled() {
    let v = video(87, 8.0);
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = Arc::new(session.serve(ServeConfig {
        channel_capacity: 1,
        backpressure: Backpressure::Block,
        ..ServeConfig::default()
    }));
    let stream = server.open_stream(Arc::new(v));
    let busy = Query::builder("AnyCar")
        .vobj("car", library::vehicle_schema())
        .frame_constraint(Pred::gt("car", "score", 0.0))
        .build()
        .unwrap();
    let sub = server.attach(stream, busy).unwrap();
    let driver = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run_to_end(stream).unwrap())
    };
    // Wait until the driver is almost certainly parked on the full
    // channel (capacity 1, nobody draining).
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Must return promptly instead of deadlocking on the stream lock.
    server.detach(stream, sub.id()).unwrap();
    // Drain so the in-flight send completes; the detach then applies at
    // the next boundary and the driver finishes the (now idle) stream.
    let (_hits, _) = sub.collect();
    driver.join().unwrap();
}

/// Engine turnover (last query detaches, a new one attaches later) must
/// not lose cumulative execution metrics: frames, and reuse counts equal
/// to two fresh runs of the query over the frames each engine executed.
#[test]
fn metrics_survive_engine_turnover() {
    let v = video(88, 6.0);
    let frames = v.frame_count();
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(v.clone()));
    let q = color_query("RedCar", "red");
    // The reuse counts of `q` run alone, from an empty state, over `range`.
    let fresh_reuse = |range: std::ops::Range<u64>| {
        let plan = session.plan_for(&[Arc::clone(&q)], &v).unwrap();
        let (zoo, config) = (session.zoo(), &session.config().exec);
        let mut ops = instantiate_stage_ops(&plan, zoo, 1).unwrap();
        let mut metrics = ExecMetrics::default();
        let clock = vqpy_models::Clock::new();
        let env = ExecEnv {
            plan: &plan,
            source: &v,
            zoo,
            clock: &clock,
            config,
        };
        let mut sink = Collector::new(&plan);
        run_segment(env, range, &mut ops, &mut metrics, &mut sink).unwrap();
        metrics.reuse
    };

    let first = server.attach(stream, Arc::clone(&q)).unwrap();
    let mut engine_frames = 0;
    for _ in 0..3 {
        engine_frames += server.step(stream).unwrap().frames;
    }
    server.detach(stream, first.id()).unwrap();
    // Engine retires here (no queries); this step's frames are idle and
    // must not appear in exec metrics.
    server.step(stream).unwrap();
    let retired = server.exec_metrics(stream).unwrap();
    let after_retire = retired.frames_total;
    assert_eq!(
        after_retire, engine_frames,
        "retired engine's frames must survive"
    );
    let first_reuse = fresh_reuse(0..engine_frames);
    assert!(first_reuse.hits > 0, "{first_reuse:?}");
    assert_eq!(retired.reuse, first_reuse, "retired engine's reuse counts");
    // ...and a fresh engine picks up the rest.
    let resumed_at = server.position(stream).unwrap();
    let second = server.attach(stream, Arc::clone(&q)).unwrap();
    let metrics = server.run_to_end(stream).unwrap();
    drop((first, second));
    assert!(metrics.recompiles >= 1);
    let exec = server.exec_metrics(stream).unwrap();
    assert!(
        exec.frames_total >= after_retire && exec.frames_total < frames,
        "cumulative frames {} should include pre-turnover work and exclude idle frames ({} total)",
        exec.frames_total,
        frames
    );
    let mut both = first_reuse;
    both.add(fresh_reuse(resumed_at..frames));
    assert_eq!(exec.reuse, both, "reuse counts across the turnover");
}

/// Lifecycle edge cases: idle streams advance, detach-before-start works,
/// attach after end-of-video fails.
#[test]
fn lifecycle_edges() {
    let v = video(85, 3.0);
    let frames = v.frame_count();
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(v));

    // Attach then immediately detach, before any step: clean Detached.
    let q = color_query("RedCar", "red");
    let sub = server.attach(stream, Arc::clone(&q)).unwrap();
    server.detach(stream, sub.id()).unwrap();
    assert_eq!(sub.collect().0, Vec::new());

    // No queries: the stream advances without executing.
    let before = session.clock().virtual_ms();
    let metrics = server.run_to_end(stream).unwrap();
    assert_eq!(server.position(stream).unwrap(), frames);
    assert_eq!(metrics.frames_total, 0, "idle stream must not decode");
    assert_eq!(session.clock().virtual_ms(), before);

    // Attach after end-of-video is rejected.
    assert!(server.attach(stream, q).is_err());

    // Unknown ids are rejected.
    assert!(server.step(9999).is_err());
    assert!(server.detach(stream, 12345).is_err());
    server.close_stream(stream).unwrap();
    assert!(server.close_stream(stream).is_err());
}
