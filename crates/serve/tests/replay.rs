//! Hybrid replay equivalence: a `from: Instant` attach must deliver
//! byte-identical results to an always-attached subscription over the same
//! frame range — through store hits, store misses (eviction, corruption,
//! retention = 0), a mid-replay attach/detach recompile on the live
//! stream, and in both execution modes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{Aggregate, FrameHit, Query, SessionConfig, VqpySession};
use vqpy_models::{ModelZoo, Value};
use vqpy_serve::{
    AttachSpec, ServeConfig, ServeError, ServeEvent, ServeResult, ServeSession, StreamId,
    StreamServer, Subscription,
};
use vqpy_store::{corrupt_segment, FrameStore, RetentionPolicy, SegmentCorruption, StoreConfig};
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{presets, Frame, Scene};

fn color_query(name: &str, color: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

fn count_query(name: &str) -> Arc<Query> {
    Query::builder(name)
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

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vqpy_replay_{tag}_{}_{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_at(dir: &Path) -> Arc<FrameStore> {
    FrameStore::open(StoreConfig {
        background_eviction: false,
        ..StoreConfig::new(dir.to_path_buf())
    })
    .unwrap()
}

/// Runs `query` always-attached over `v` on a store-less server and
/// returns its full event stream (hits + aggregate): the oracle every
/// replay path is compared against.
fn baseline(
    config: &SessionConfig,
    v: &SyntheticVideo,
    query: &Arc<Query>,
) -> (Vec<FrameHit>, Option<Value>) {
    let session = Arc::new(VqpySession::with_config(
        ModelZoo::standard(),
        config.clone(),
    ));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(v.clone()));
    let sub = server.attach(stream, Arc::clone(query)).unwrap();
    server.run_to_end(stream).unwrap();
    sub.collect()
}

fn serve_with_store(config: &SessionConfig, fs: &Arc<FrameStore>) -> StreamServer {
    let session = Arc::new(VqpySession::with_config(
        ModelZoo::standard(),
        config.clone(),
    ));
    session.serve(ServeConfig {
        store: Some(Arc::clone(fs)),
        ..ServeConfig::default()
    })
}

/// From-past attach through the unified spec API, unpacked to the
/// (subscription, replay pseudo-stream id) pair the assertions drive.
fn attach_from(
    server: &StreamServer,
    stream: StreamId,
    query: Arc<Query>,
    from: Instant,
) -> ServeResult<(Subscription, StreamId)> {
    let attached = server.attach(stream, AttachSpec::new(query).from(from))?;
    let replay = attached
        .replay()
        .expect("from-past attach yields a replay id");
    Ok((attached.into_inner(), replay))
}

/// Drains a subscription, splitting hits, store-fault notices, and the
/// terminal aggregate.
fn drain(sub: Subscription) -> (Vec<FrameHit>, usize, Option<Value>) {
    let mut hits = Vec::new();
    let mut store_faults = 0;
    let mut video_value = None;
    while let Some(event) = sub.recv() {
        match event {
            ServeEvent::Hit(h) => hits.push(h),
            ServeEvent::StoreFault(_) => store_faults += 1,
            ServeEvent::StreamFault(_) => {}
            ServeEvent::End { video_value: v } | ServeEvent::Detached { video_value: v } => {
                video_value = v;
                break;
            }
        }
    }
    (hits, store_faults, video_value)
}

fn exec_modes() -> [SessionConfig; 2] {
    [SessionConfig::default(), SessionConfig::pipelined(3)]
}

/// Pure replay of a finished stream from its origin: byte-identical to an
/// always-attached subscription, with the model stages answered from the
/// store (replay hits counted, model stages skipped).
#[test]
fn pure_replay_matches_always_attached() {
    for (i, config) in exec_modes().iter().enumerate() {
        let v = video(57, 10.0);
        let query = color_query("RedCar", "red");
        let (exp_hits, exp_agg) = baseline(config, &v, &query);
        assert!(!exp_hits.is_empty(), "test video must produce hits");

        let dir = tempdir(&format!("pure{i}"));
        let fs = store_at(&dir);
        let server = serve_with_store(config, &fs);
        let stream = server.open_stream(Arc::new(v.clone()));
        // Live pass: persists every frame's model outputs.
        let live = server.attach(stream, Arc::clone(&query)).unwrap();
        server.run_to_end(stream).unwrap();
        drain(live.into_inner());

        let epoch = fs.epoch();
        let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), epoch).unwrap();
        server.run_replay(replay).unwrap();
        let (hits, faults, agg) = drain(sub);
        assert_eq!(hits, exp_hits, "replayed hits diverged (mode {i})");
        assert_eq!(agg, exp_agg, "replayed aggregate diverged (mode {i})");
        assert_eq!(faults, 0);
        assert!(
            fs.metrics()
                .replay_hits
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0,
            "replay should answer model stages from the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The hybrid path: `attach_from` lands mid-stream, replays the stored
/// prefix while the live stream keeps executing, and splices — through a
/// mid-replay attach + detach recompile on the live engine. Both the
/// replayed query and the always-attached control must stay byte-identical
/// to their baselines.
#[test]
fn hybrid_attach_from_splices_into_live() {
    for (i, config) in exec_modes().iter().enumerate() {
        let v = video(29, 12.0);
        let replay_query = count_query("CountCars");
        let control_query = color_query("RedCar", "red");
        let extra_query = color_query("BlackCar", "black");
        let (exp_replay_hits, exp_replay_agg) = baseline(config, &v, &replay_query);
        let (exp_control_hits, exp_control_agg) = baseline(config, &v, &control_query);

        let dir = tempdir(&format!("hybrid{i}"));
        let fs = store_at(&dir);
        let server = serve_with_store(config, &fs);
        let stream = server.open_stream(Arc::new(v.clone()));
        let control = server.attach(stream, Arc::clone(&control_query)).unwrap();

        // Run the live stream about a third of the way in.
        let total = v.frame_count();
        while server.position(stream).unwrap() < total / 3 {
            server.step(stream).unwrap();
        }

        // Attach from the origin: the stored prefix replays while the
        // live stream keeps going.
        let epoch = fs.epoch();
        let (sub, replay) = attach_from(&server, stream, Arc::clone(&replay_query), epoch).unwrap();

        // Mid-replay, churn the live plan: attach + detach another query,
        // forcing recompiles while the replay is in flight.
        let extra = server.attach(stream, Arc::clone(&extra_query)).unwrap();
        server.step(stream).unwrap();
        server.detach(stream, extra.id()).unwrap();
        server.step(stream).unwrap();
        drop(extra);

        // Interleave live steps and replay turns until the splice.
        let mut spliced = false;
        for _ in 0..10_000 {
            if server.step(replay).unwrap().finished {
                spliced = true;
                break;
            }
            if !server.is_finished(stream).unwrap() {
                server.step(stream).unwrap();
            }
        }
        assert!(spliced, "replay never caught up (mode {i})");
        // The extra attach, its detach and the splice each swap the live
        // plan.
        assert_eq!(
            server.run_to_end(stream).unwrap().recompiles,
            3,
            "live recompiles (mode {i})"
        );

        let (hits, _faults, agg) = drain(sub);
        assert_eq!(hits, exp_replay_hits, "replayed query diverged (mode {i})");
        assert_eq!(
            agg, exp_replay_agg,
            "replayed aggregate diverged (mode {i})"
        );
        let (c_hits, _, c_agg) = drain(control.into_inner());
        assert_eq!(
            c_hits, exp_control_hits,
            "control query perturbed (mode {i})"
        );
        assert_eq!(c_agg, exp_control_agg);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A replay that splices into a live stream with no query attached: its
/// engine was never built, or retired with its last query. The splice then
/// builds the live engine afresh, seeded with the replay engine's operator
/// states, so the replayed query's tracker keeps its history and its hits
/// and aggregate equal the always-attached baseline.
#[test]
fn splice_into_a_live_stream_without_queries() {
    for (i, config) in exec_modes().iter().enumerate() {
        let v = video(29, 12.0);
        let query = count_query("CountCars");
        let (exp_hits, exp_agg) = baseline(config, &v, &query);
        for retired in [false, true] {
            let dir = tempdir(&format!("idle{i}_{retired}"));
            let fs = store_at(&dir);
            let server = serve_with_store(config, &fs);
            let stream = server.open_stream(Arc::new(v.clone()));
            if retired {
                // The live engine runs one step, then retires with its
                // only query at the next boundary.
                let early = server.attach(stream, color_query("RedCar", "red")).unwrap();
                server.step(stream).unwrap();
                server.detach(stream, early.id()).unwrap();
            }
            while server.position(stream).unwrap() < v.frame_count() / 3 {
                server.step(stream).unwrap();
            }
            let (sub, replay) =
                attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
            let mut spliced = false;
            for _ in 0..10_000 {
                if server.step(replay).unwrap().finished {
                    spliced = !server.is_finished(stream).unwrap();
                    break;
                }
                server.step(stream).unwrap();
            }
            assert!(
                spliced,
                "replay never spliced (mode {i}, retired {retired})"
            );
            // The splice builds the engine: only a retirement recompiles.
            assert_eq!(
                server.run_to_end(stream).unwrap().recompiles,
                u64::from(retired),
                "live recompiles (mode {i}, retired {retired})"
            );
            let (hits, _faults, agg) = drain(sub);
            assert_eq!(
                hits, exp_hits,
                "hits diverged (mode {i}, retired {retired})"
            );
            assert_eq!(
                agg, exp_agg,
                "aggregate diverged (mode {i}, retired {retired})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `from: Instant::now()` mid-stream delivers exactly the suffix whose
/// ingest time is at or after the instant — while the aggregate still
/// covers the whole stream, as if attached at the origin.
#[test]
fn attach_from_mid_instant_delivers_suffix() {
    let config = SessionConfig::default();
    let v = video(57, 10.0);
    let query = color_query("RedCar", "red");
    let (exp_hits, exp_agg) = baseline(&config, &v, &query);

    let dir = tempdir("suffix");
    let fs = store_at(&dir);
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let warm = server.attach(stream, Arc::clone(&query)).unwrap();

    let total = v.frame_count();
    while server.position(stream).unwrap() < total / 2 {
        server.step(stream).unwrap();
    }
    let from = Instant::now();
    server.run_to_end(stream).unwrap();
    drain(warm.into_inner());

    let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), from).unwrap();
    server.run_replay(replay).unwrap();
    let (hits, _faults, agg) = drain(sub);

    // The contract boundary: first stored frame ingested at or after
    // `from` (the same lookup attach_from performs).
    let ss = fs.stream(&format!("stream-{stream}")).unwrap();
    let deliver_from = ss.frame_at_or_after(fs.instant_us(from)).unwrap();
    assert!(deliver_from > 0 && deliver_from < total, "{deliver_from}");
    let expected: Vec<FrameHit> = exp_hits
        .iter()
        .filter(|h| h.frame >= deliver_from)
        .cloned()
        .collect();
    assert!(expected.len() < exp_hits.len(), "suffix must be proper");
    assert_eq!(hits, expected, "suffix delivery diverged");
    assert_eq!(agg, exp_agg, "aggregate must cover the full stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged segment (truncated tail) is skipped with a typed notice and
/// its frames recomputed from the decoded video: results stay identical,
/// the fault is counted in `ServeMetrics::store_corruptions`.
#[test]
fn corrupted_segment_recomputes_with_notice() {
    let config = SessionConfig::default();
    let v = video(57, 10.0);
    let query = color_query("RedCar", "red");
    let (exp_hits, exp_agg) = baseline(&config, &v, &query);

    let dir = tempdir("corrupt");
    let fs = store_at(&dir);
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(live.into_inner());

    // Damage the first sealed segment on disk.
    let ss = fs.stream(&format!("stream-{stream}")).unwrap();
    let segments = ss.segments();
    assert!(
        segments.len() > 1,
        "need sealed segments: {}",
        segments.len()
    );
    corrupt_segment(&segments[0].path, SegmentCorruption::TruncateTail(37)).unwrap();

    let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
    server.run_replay(replay).unwrap();
    let (hits, faults, agg) = drain(sub);
    assert_eq!(hits, exp_hits, "corruption must not change results");
    assert_eq!(agg, exp_agg);
    // The damaged segment spans two chunks: one notice, counted once.
    assert_eq!(faults, 1, "subscriber should see one StoreFault notice");
    let metrics = server.metrics(stream).unwrap();
    assert_eq!(
        metrics.store_corruptions, 1,
        "corruption must be counted once"
    );
    assert_eq!(fs.metrics().corrupt_segments.load(Ordering::Relaxed), 1);
    assert!(metrics.summary().contains("corrupt store segments"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay racing eviction: retention evicts sealed segments while the
/// replay is mid-flight; evicted chunks fall back to recomputation and
/// results stay identical.
#[test]
fn replay_racing_eviction_stays_correct() {
    let config = SessionConfig::default();
    let v = video(33, 8.0);
    let query = color_query("RedCar", "red");
    let (exp_hits, exp_agg) = baseline(&config, &v, &query);

    let dir = tempdir("evict");
    let fs = FrameStore::open(StoreConfig {
        background_eviction: false,
        segment_frames: 16,
        retention: RetentionPolicy {
            max_bytes: Some(4096),
            max_age: None,
        },
        ..StoreConfig::new(dir.clone())
    })
    .unwrap();
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(live.into_inner());

    let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
    // Interleave eviction with replay turns so segments disappear while
    // the replay is using the store.
    loop {
        let out = server.step(replay).unwrap();
        fs.enforce_retention();
        if out.finished {
            break;
        }
    }
    let (hits, _faults, agg) = drain(sub);
    assert_eq!(hits, exp_hits, "eviction must not change results");
    assert_eq!(agg, exp_agg);
    assert!(
        fs.metrics()
            .evictions
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "retention should have evicted segments"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention = 0 bytes: everything sealed is evicted immediately, so the
/// replay is pure recomputation — still byte-identical.
#[test]
fn retention_zero_replays_by_recompute() {
    let config = SessionConfig::default();
    let v = video(44, 6.0);
    let query = color_query("RedCar", "red");
    let (exp_hits, exp_agg) = baseline(&config, &v, &query);

    let dir = tempdir("zero");
    let fs = FrameStore::open(StoreConfig {
        background_eviction: false,
        retention: RetentionPolicy {
            max_bytes: Some(0),
            max_age: None,
        },
        ..StoreConfig::new(dir.clone())
    })
    .unwrap();
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(live.into_inner());
    fs.enforce_retention();

    let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
    server.run_replay(replay).unwrap();
    let (hits, _faults, agg) = drain(sub);
    assert_eq!(hits, exp_hits);
    assert_eq!(agg, exp_agg);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a configured store, `attach_from` fails with the typed
/// `StoreDisabled` error.
#[test]
fn attach_from_without_store_is_typed_error() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let server = session.serve(ServeConfig::default());
    let stream = server.open_stream(Arc::new(video(1, 2.0)));
    let err = attach_from(
        &server,
        stream,
        color_query("RedCar", "red"),
        Instant::now(),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::StoreDisabled), "{err}");
}

/// Detaching mid-replay cancels the replay: the subscriber gets a terminal
/// `Detached` event and the pseudo-stream retires.
#[test]
fn detach_mid_replay_delivers_detached() {
    let config = SessionConfig::default();
    let v = video(18, 8.0);
    let query = color_query("RedCar", "red");

    let dir = tempdir("cancel");
    let fs = store_at(&dir);
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(live.into_inner());

    let idle = server.aggregate();
    let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
    server.step(replay).unwrap();
    // A replay in flight is not a stream to the load counters, nor an
    // attach target.
    let busy = server.aggregate();
    assert_eq!(
        (busy.streams, busy.frames_total, busy.delivered),
        (idle.streams, idle.frames_total, idle.delivered)
    );
    assert!(matches!(
        server.attach(replay, Arc::clone(&query)),
        Err(ServeError::UnknownStream(_))
    ));
    // Detach via the replay pseudo-id; the live-stream id works too.
    server.detach(replay, sub.id()).unwrap();
    let out = server.step(replay).unwrap();
    assert!(out.finished, "cancelled replay must retire");
    let mut saw_detached = false;
    while let Some(event) = sub.recv() {
        if matches!(event, ServeEvent::Detached { .. }) {
            saw_detached = true;
        }
    }
    assert!(saw_detached);
    // The pseudo-id is gone.
    assert!(matches!(
        server.step(replay),
        Err(ServeError::UnknownStream(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Detaching mid-replay through the live stream's id reaches the
/// replaying subscription before its splice, as the replay's id does.
#[test]
fn detach_mid_replay_through_the_live_id() {
    let config = SessionConfig::default();
    let v = video(18, 8.0);
    let query = color_query("RedCar", "red");

    let dir = tempdir("cancel_live");
    let fs = store_at(&dir);
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(live.into_inner());

    let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
    server.step(replay).unwrap();
    server.detach(stream, sub.id()).unwrap();
    assert!(
        server.step(replay).unwrap().finished,
        "cancelled replay must retire"
    );
    assert!(matches!(
        last_event(&sub),
        Some(ServeEvent::Detached { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervisor hides the replay's id: `StreamSupervisor::detach`
/// through the live stream's id still detaches a backfilling
/// subscription, and its channel closes.
///
/// The detach must land before the replay's first turn. One shard, and a
/// blocker stream ahead of the replay whose one-slot channel nobody drains
/// yet, hold that: the shard is parked in the blocker's second send (or
/// has yet to step it) while the replay is attached and detached.
#[test]
fn supervisor_detach_mid_replay_through_the_live_id() {
    use vqpy_serve::{Backpressure, PaceMode, StreamSupervisor, SupervisorConfig};

    let query = color_query("RedCar", "red");
    let dir = tempdir("super_detach");
    let fs = store_at(&dir);
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                store: Some(Arc::clone(&fs)),
                shards: 1,
                channel_capacity: 1,
                backpressure: Backpressure::Block,
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let (stream, mut subs) = supervisor
        .add_stream(
            Arc::new(video(92, 12.0)),
            PaceMode::Unpaced,
            &[Arc::clone(&query)],
        )
        .unwrap();
    drain(subs.remove(0));
    supervisor.join_stream(stream).unwrap();

    let (_blocker, mut blocked) = supervisor
        .add_stream(
            Arc::new(video(18, 2.0)),
            PaceMode::Unpaced,
            &[count_query("Blocker")],
        )
        .unwrap();
    let blocked = blocked.remove(0);
    // The whole stored history is still ahead of the replay when the
    // detach lands.
    let sub = supervisor
        .attach(stream, AttachSpec::new(Arc::clone(&query)).from(fs.epoch()))
        .unwrap();
    supervisor.detach(stream, sub.id()).unwrap();
    // The blocker's first step sends at least two events, so the shard
    // could not finish that step, and reach the replay, before this drain.
    let first_step = supervisor.server().frames_per_step();
    let (hits, _, _) = drain(blocked);
    assert!(
        hits.len() >= 2 && hits[1].frame < first_step,
        "the blocker must fill its channel in its first step: {:?}",
        hits.iter().map(|h| h.frame).take(4).collect::<Vec<_>>()
    );
    assert!(matches!(
        last_event(&sub),
        Some(ServeEvent::Detached { .. })
    ));
    supervisor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Receives until the channel closes and returns the last event, failing
/// if the channel is still open after 30 s.
fn last_event(sub: &Subscription) -> Option<ServeEvent> {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    let mut last = None;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match sub.recv_timeout(left) {
            Ok(Some(event)) => last = Some(event),
            Ok(None) => panic!("subscription still open after 30 s: {last:?}"),
            Err(_) => return last,
        }
    }
}

/// The typed wrapper delivers the same decoded rows through `attach_from`
/// as the untyped path delivers raw.
#[test]
fn typed_attach_from_decodes_rows() {
    use vqpy_core::TypedQuery;
    use vqpy_serve::TypedServeEvent;
    use vqpy_video::BBox;

    let config = SessionConfig::default();
    let v = video(57, 10.0);
    let query = color_query("RedCar", "red");
    let (exp_hits, _) = baseline(&config, &v, &query);

    let dir = tempdir("typed");
    let fs = store_at(&dir);
    let server = serve_with_store(&config, &fs);
    let stream = server.open_stream(Arc::new(v.clone()));
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(live.into_inner());

    let car = library::vehicle().alias("car");
    let typed = TypedQuery::builder("RedCar")
        .object(&car)
        .filter(car.score().gt(0.5) & car.color().eq("red"))
        .select((car.track_id().optional(), car.bbox()))
        .build()
        .unwrap();
    let spec = AttachSpec::new(Arc::clone(typed.query()))
        .typed::<(Option<i64>, BBox)>()
        .from(fs.epoch());
    let attached = server.attach(stream, spec).unwrap();
    let replay = attached.replay().expect("replay id");
    let sub = attached.into_inner();
    server.run_replay(replay).unwrap();

    let mut frames = Vec::new();
    while let Some(event) = sub.recv() {
        match event.unwrap() {
            TypedServeEvent::Hit(hit) => frames.push(hit.frame),
            TypedServeEvent::End { .. } | TypedServeEvent::Detached { .. } => break,
            _ => {}
        }
    }
    let exp_frames: Vec<u64> = exp_hits.iter().map(|h| h.frame).collect();
    assert_eq!(frames, exp_frames, "typed replay frames diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end through the supervisor: a shard drives both the live stream
/// and the replay; the `attach_from` subscription converges to the
/// always-attached baseline.
#[test]
fn supervisor_attach_from_end_to_end() {
    use vqpy_serve::{PaceMode, StreamSupervisor, SupervisorConfig};

    let config = SessionConfig::default();
    let v = video(92, 10.0);
    let query = color_query("RedCar", "red");
    let (exp_hits, exp_agg) = baseline(&config, &v, &query);

    let dir = tempdir("super");
    let fs = store_at(&dir);
    let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                store: Some(Arc::clone(&fs)),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let (stream, mut subs) = supervisor
        .add_stream(
            Arc::new(v.clone()),
            PaceMode::Unpaced,
            &[Arc::clone(&query)],
        )
        .unwrap();
    // Attach-from while the stream is (probably) still live; the replay
    // chases it on a shard and splices — or, if the stream already
    // finished, replays the full history to `End`. Both converge to the
    // baseline.
    let sub = supervisor
        .attach(stream, AttachSpec::new(Arc::clone(&query)).from(fs.epoch()))
        .unwrap();
    supervisor.join_stream(stream).unwrap();
    drain(subs.remove(0));
    let (hits, _faults, agg) = drain(sub);
    assert_eq!(hits, exp_hits, "supervised replay diverged");
    assert_eq!(agg, exp_agg);
    supervisor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream's load counters live on its handle, and a splice moves the
/// replayed subscription's onto the live stream: afterwards the server's
/// aggregate counts the events the replay delivered before it spliced, so
/// it equals the sum over the live stream's `per_query`, and the stream's
/// snapshot counts the frames its engines executed.
#[test]
fn a_splice_moves_the_replayed_counts_to_the_live_stream() {
    use vqpy_serve::{PaceMode, StreamSupervisor, SupervisorConfig};

    let v = video(93, 4.0);
    let query = count_query("CountCars");
    let dir = tempdir("splice_counts");
    let fs = store_at(&dir);
    let supervisor = StreamSupervisor::new(
        Arc::new(VqpySession::new(ModelZoo::standard())),
        SupervisorConfig {
            serve: ServeConfig {
                store: Some(Arc::clone(&fs)),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    // Paced at twice its capture rate, the live stream runs for about two
    // seconds; the replay, reading stored answers, catches up long before.
    let pace = PaceMode::Fps(2.0 * v.fps() as f32);
    let (stream, mut subs) = supervisor
        .add_stream(Arc::new(v.clone()), pace, &[Arc::clone(&query)])
        .unwrap();
    // Some history is stored first, so the replay delivers before it
    // splices.
    let deadline = Instant::now() + Duration::from_secs(30);
    while supervisor.stream_snapshot(stream).unwrap().frames_total < v.frame_count() / 4 {
        assert!(Instant::now() < deadline, "the live stream stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let sub = supervisor
        .attach(stream, AttachSpec::new(Arc::clone(&query)).from(fs.epoch()))
        .unwrap();
    let metrics = supervisor.join_stream(stream).unwrap();
    drain(subs.remove(0));
    let (replayed, _, _) = drain(sub);

    assert_eq!(
        metrics.per_query.len(),
        2,
        "the replay spliced: {metrics:?}"
    );
    assert_eq!(metrics.per_query[1].delivered, replayed.len() as u64 + 1);
    let delivered: u64 = metrics.per_query.iter().map(|q| q.delivered).sum();
    assert_eq!(supervisor.server().aggregate().delivered, delivered);
    assert_eq!(
        supervisor.stream_snapshot(stream).unwrap().frames_total,
        supervisor
            .server()
            .exec_metrics(stream)
            .unwrap()
            .frames_total
    );
    supervisor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A camera shared by a live stream and its replay. The first decode of
/// frame `at` after `armed` is set asks another thread to step the live
/// stream once, and waits until that step is done.
struct GapVideo {
    inner: SyntheticVideo,
    at: u64,
    armed: AtomicBool,
    step_live: SyncSender<()>,
    stepped: Mutex<Receiver<()>>,
}

impl VideoSource for GapVideo {
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
        if index == self.at && self.armed.swap(false, Ordering::SeqCst) {
            self.step_live.send(()).unwrap();
            let stepped = self.stepped.lock().unwrap();
            stepped
                .recv_timeout(Duration::from_secs(30))
                .expect("the live step finished");
        }
        self.inner.frame(index)
    }
    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

/// The live stream advances one step while the replay runs its last chase
/// chunk, so at the splice the replay is a step behind and must replay that
/// gap before it joins the live plan. The gap holds hits; a splice that
/// skipped it would lose them.
#[test]
fn splice_replays_the_gap_the_live_stream_opened() {
    // Three live steps: the replay's first turn reaches them within its
    // budget (four steps' worth), so that turn ends in the splice.
    const LIVE_STEPS: u64 = 3;
    for (i, config) in exec_modes().iter().enumerate() {
        let v = video(29, 12.0);
        let query = count_query("CountCars");
        let (exp_hits, exp_agg) = baseline(config, &v, &query);

        let dir = tempdir(&format!("gap{i}"));
        let fs = store_at(&dir);
        let server = serve_with_store(config, &fs);
        let step_frames = server.frames_per_step();
        let target = LIVE_STEPS * step_frames;
        let gap = target..target + step_frames;
        assert!(
            exp_hits.iter().any(|h| gap.contains(&h.frame)),
            "the gap {gap:?} must hold hits"
        );
        let (step_live, step_requests) = sync_channel(1);
        let (stepped_tx, stepped) = sync_channel(1);
        let camera = Arc::new(GapVideo {
            inner: v.clone(),
            at: target - 1,
            armed: AtomicBool::new(false),
            step_live,
            stepped: Mutex::new(stepped),
        });
        let stream = server.open_stream(Arc::clone(&camera) as Arc<dyn VideoSource>);
        let control = server.attach(stream, color_query("RedCar", "red")).unwrap();
        for _ in 0..LIVE_STEPS {
            server.step(stream).unwrap();
        }
        assert_eq!(server.position(stream).unwrap(), target);
        let (sub, replay) = attach_from(&server, stream, Arc::clone(&query), fs.epoch()).unwrap();
        camera.armed.store(true, Ordering::SeqCst);
        let live = &server;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                if step_requests.recv_timeout(Duration::from_secs(30)).is_ok() {
                    live.step(stream).unwrap();
                    stepped_tx.send(()).unwrap();
                }
            });
            let out = server.step(replay).unwrap();
            assert!(
                !camera.armed.load(Ordering::SeqCst),
                "the replay never decoded frame {} (mode {i})",
                target - 1
            );
            assert!(
                out.finished,
                "the turn that met the gap must splice (mode {i})"
            );
        });
        assert_eq!(server.position(stream).unwrap(), gap.end);
        server.run_to_end(stream).unwrap();
        drain(control.into_inner());
        let (hits, _faults, agg) = drain(sub);
        assert_eq!(hits, exp_hits, "replayed hits diverged (mode {i})");
        assert_eq!(agg, exp_agg, "replayed aggregate diverged (mode {i})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cars scoring above `score`, counted by track.
fn tracks_over(name: &str, score: f64) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", score))
        .video_output(Aggregate::CountDistinctTracks {
            alias: "car".into(),
        })
        .build()
        .unwrap()
}

/// Cars scoring above `score` of colour `color`, frame by frame.
fn color_over(name: &str, score: f64, color: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", score) & Pred::eq("car", "color", color))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

/// The cells where a value memoised for one engine's track could be served
/// for another engine's: jackson clips of 12 s, by seed, and a colour per
/// query. A live stream counts the cars above 0.9 (`L`). A third of the way
/// in, a from-past attach adds `R` (cars above 0.3 of the colour), whose
/// tracker sees more cars than `L`'s and numbers them differently; then a
/// live attach adds `C` (cars above 0.9 of the colour), whose colour cells
/// the live engine has never filled.
const CROSS_SEEDS: [u64; 3] = [29, 57, 9];
const CROSS_COLORS: [&str; 3] = ["red", "white", "black"];

fn serve_without_store(config: &SessionConfig) -> StreamServer {
    let session = VqpySession::with_config(ModelZoo::standard(), config.clone());
    Arc::new(session).serve(ServeConfig::default())
}

/// Opens `v` on `server` with `L` attached and steps it to a third of the
/// clip.
fn live_to_a_third(server: &StreamServer, v: &SyntheticVideo) -> StreamId {
    let stream = server.open_stream(Arc::new(v.clone()));
    drop(server.attach(stream, tracks_over("L", 0.9)).unwrap());
    while server.position(stream).unwrap() < v.frame_count() / 3 {
        server.step(stream).unwrap();
    }
    stream
}

/// `C`'s hits on `server` after `stream` was stepped to a third: `C`
/// attaches live and the stream runs to its end.
fn c_hits(server: &StreamServer, stream: StreamId, color: &str) -> Vec<FrameHit> {
    let c = server.attach(stream, color_over("C", 0.9, color)).unwrap();
    server.run_to_end(stream).unwrap();
    drain(c.into_inner()).0
}

/// A replay that has not spliced yet serves the live stream nothing: `C`'s
/// colours are computed for the live engine's own tracks, so its hits equal
/// a store-less server's, where `R` never ran.
#[test]
fn an_unspliced_replay_serves_no_value_to_the_live_stream() {
    for (i, config) in exec_modes().iter().enumerate() {
        for seed in CROSS_SEEDS {
            let v = video(seed, 12.0);
            let mut any_hits = false;
            for color in CROSS_COLORS {
                let server = serve_without_store(config);
                let stream = live_to_a_third(&server, &v);
                let expected = c_hits(&server, stream, color);
                any_hits |= !expected.is_empty();
                for turns in 1..=2 {
                    let cell = format!("mode {i}, seed {seed}, {color}, {turns} turns");
                    let dir = tempdir(&format!("unspliced{i}_{seed}_{color}_{turns}"));
                    let fs = store_at(&dir);
                    let server = serve_with_store(config, &fs);
                    let stream = live_to_a_third(&server, &v);
                    let r = color_over("R", 0.3, color);
                    let (_r, replay) = attach_from(&server, stream, r, fs.epoch()).unwrap();
                    for _ in 0..turns {
                        assert!(!server.step(replay).unwrap().finished, "spliced ({cell})");
                    }
                    assert_eq!(c_hits(&server, stream, color), expected, "{cell}");
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            assert!(any_hits, "seed {seed} must produce hits");
        }
    }
}

/// A splice seeds the live engine with none of the replay's values when
/// the two trackers are in different states: `C`'s colours are computed
/// for the live engine's own tracks, so its hits equal a server's where
/// `R` was attached live at the splice.
#[test]
fn a_splice_seeds_no_value_from_a_tracker_in_another_state() {
    for (i, config) in exec_modes().iter().enumerate() {
        for seed in CROSS_SEEDS {
            let v = video(seed, 12.0);
            let mut any_hits = false;
            for color in CROSS_COLORS {
                let cell = format!("mode {i}, seed {seed}, {color}");
                let r = color_over("R", 0.3, color);
                let server = serve_without_store(config);
                let stream = live_to_a_third(&server, &v);
                drop(server.attach(stream, Arc::clone(&r)).unwrap());
                let expected = c_hits(&server, stream, color);
                any_hits |= !expected.is_empty();

                let dir = tempdir(&format!("seeded{i}_{seed}_{color}"));
                let fs = store_at(&dir);
                let server = serve_with_store(config, &fs);
                let stream = live_to_a_third(&server, &v);
                let (_r, replay) = attach_from(&server, stream, r, fs.epoch()).unwrap();
                let spliced = (0..3).map(|_| server.step(replay).unwrap().finished);
                assert_eq!(spliced.collect::<Vec<_>>(), [false, false, true], "{cell}");
                assert_eq!(c_hits(&server, stream, color), expected, "{cell}");
                let _ = std::fs::remove_dir_all(&dir);
            }
            assert!(any_hits, "seed {seed} must produce hits");
        }
    }
}
