//! Sharded-scheduler equivalence suite: the event-driven sharded
//! [`StreamSupervisor`] must serve event sequences **byte-identical** to
//! one oracle — each stream served alone on a bare [`StreamServer`] (no
//! batcher, no pacing, no threads) and driven by `run_to_end` — across a
//! streams × shards grid that includes the degenerate corners (one shard
//! for everything; one shard per stream; more shards than streams), with
//! and without the shared cross-stream batcher, paced and unpaced.
//!
//! The seeded [`DeterministicScheduler`] harness, interleaving several
//! streams on one bare server in virtual time, is held to the same
//! oracle; a from-past replay is one more id it steps. Its seed comes
//! from `VQPY_SHARD_SEED` (default 1), so CI replays the suite under
//! several fixed seeds — identity must hold for
//! *any* seed, which is the point: scheduling order is free, served
//! results are not.
//!
//! [`StreamServer`]: vqpy_serve::StreamServer

use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{Query, VqpySession};
use vqpy_models::ModelZoo;
use vqpy_serve::{
    AttachSpec, BatcherConfig, BatcherStats, DeterministicScheduler, PaceMode, ServeConfig,
    ServeEvent, ServeSession, ShardConfig, ShardLoad, StreamLoad, StreamSupervisor,
    SupervisorConfig, INGEST_BOUND,
};
use vqpy_store::{FrameStore, StoreConfig};
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{presets, Scene};

/// Interleaving seed; CI replays the suite under several values.
fn shard_seed() -> u64 {
    std::env::var("VQPY_SHARD_SEED")
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

fn red_cars() -> Arc<Query> {
    color_query("RedCar", "red")
}

/// Every frame with a confident car, with each car's track and box: most
/// frames of the test videos hit, so events carry the detector's output.
fn any_car() -> Arc<Query> {
    Query::builder("AnyCar")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

fn collect_events(sub: vqpy_serve::Subscription) -> Vec<ServeEvent> {
    let mut events = Vec::new();
    while let Some(e) = sub.recv() {
        events.push(e);
    }
    events
}

/// The oracle: each video seed's stream served alone on a bare server —
/// no batcher, no pacing, no threads — and driven by `run_to_end`. Served
/// events carry no wall-clock field, so they are a function of the stream.
fn bare_server_events(
    query: fn() -> Arc<Query>,
    seeds: std::ops::Range<u64>,
    seconds: f64,
) -> Vec<Vec<ServeEvent>> {
    seeds
        .map(|seed| {
            let session = Arc::new(VqpySession::new(ModelZoo::standard()));
            let server = session.serve(ServeConfig::default());
            let stream = server.open_stream(Arc::new(video(seed, seconds)));
            let sub = server.attach(stream, query()).unwrap();
            server.run_to_end(stream).unwrap();
            collect_events(sub.into_inner())
        })
        .collect()
}

/// Serves `n` streams (video seeds `100..100+n`), each under `query`, on
/// the sharded supervisor with an explicit shard budget; returns each stream's full event
/// sequence, the shard loads and the shared batcher's counters.
fn sharded_events(
    query: fn() -> Arc<Query>,
    n: usize,
    shards: usize,
    mut config: SupervisorConfig,
) -> (Vec<Vec<ServeEvent>>, Vec<ShardLoad>, Option<BatcherStats>) {
    config.serve.shards = shards;
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let supervisor = StreamSupervisor::new(session, config);
    let mut streams = Vec::new();
    for i in 0..n {
        let (stream, subs) = supervisor
            .add_stream(
                Arc::new(video(100 + i as u64, 3.0)),
                PaceMode::Unpaced,
                &[query()],
            )
            .unwrap();
        streams.push((stream, subs));
    }
    let events = streams
        .into_iter()
        .map(|(stream, subs)| {
            supervisor.join_stream(stream).unwrap();
            subs.into_iter().flat_map(collect_events).collect()
        })
        .collect();
    let loads = supervisor.shard_loads();
    assert_eq!(loads.len(), shards, "one load row per shard");
    (events, loads, supervisor.batcher_stats())
}

/// The core grid: every (streams, shards) cell — shards=1 (everything
/// multiplexed onto one worker), shards = streams (one thread per stream,
/// the small-scale deployment shape), and shards > streams (idle shards)
/// — serves event sequences byte-identical to the bare-server oracle. A
/// shard that was handed a stream (round-robin, so the first
/// `min(streams, shards)`) executed steps. The query hits on most frames,
/// so a stream served another stream's frames cannot pass.
#[test]
fn sharded_matches_bare_server_across_streams_by_shards_grid() {
    let seed = shard_seed();
    let expected = bare_server_events(any_car, 100..104, 3.0);
    for &(n, shards) in &[(1usize, 1usize), (3, 1), (4, 2), (2, 8), (3, 3)] {
        let (got, loads, _) = sharded_events(any_car, n, shards, SupervisorConfig::default());
        assert_eq!(got.len(), n);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "stream {i} diverged at grid cell streams={n} shards={shards} \
                 (VQPY_SHARD_SEED={seed})"
            );
        }
        for load in &loads[..n.min(shards)] {
            assert!(
                load.steps > 0,
                "shard {} executed no steps at streams={n} shards={shards}: {loads:?}",
                load.shard
            );
        }
    }
}

/// The shared cross-stream batcher preserves the equivalence: coalesced
/// physical batches fill from whichever streams are runnable across
/// shards, but per-stream event sequences stay byte-identical to each
/// stream served alone without a batcher.
#[test]
fn shared_batcher_preserves_equivalence_under_sharding() {
    let config = SupervisorConfig {
        batcher: Some(BatcherConfig::default()),
        ..SupervisorConfig::default()
    };
    let (got, _, _) = sharded_events(any_car, 3, 2, config);
    assert_eq!(
        got,
        bare_server_events(any_car, 100..103, 3.0),
        "batched sharded run diverged from the bare-server oracle"
    );
}

/// The batcher cell where coalescing is the common case: one stream per
/// shard and a window long enough that most detect rounds fill from
/// several shards. A batcher that hands coalesced results to the wrong
/// stream cannot pass it; the cell above coalesces too rarely to rule
/// that out.
#[test]
fn coalesced_detect_rounds_preserve_equivalence() {
    let config = SupervisorConfig {
        batcher: Some(BatcherConfig {
            window: Duration::from_millis(20),
            ..BatcherConfig::default()
        }),
        ..SupervisorConfig::default()
    };
    let (got, _, stats) = sharded_events(any_car, 4, 4, config);
    let detect = stats.unwrap().detect;
    assert!(
        detect.mean_coalesced() > 1.0,
        "detect rounds did not coalesce: {detect:?}"
    );
    assert_eq!(
        got,
        bare_server_events(any_car, 100..104, 3.0),
        "coalesced sharded run diverged from the bare-server oracle"
    );
}

/// Paced streams on one shard serve what the unpaced bare server serves:
/// pacing only delays steps, and shedding loses no frames (the stream
/// simply lags). How many ticks a run sheds depends on how busy the box
/// is, so the count itself is not asserted; what must hold on any machine
/// is the identity `tests/pacing.rs` checks in virtual time, `steps +
/// shed = due - backlog`: a tick is only ever shed once the schedule
/// released it.
#[test]
fn paced_streams_match_bare_server_on_one_shard() {
    const FPS: f32 = 150.0;
    /// Checks one finished stream against the pace schedule as of now —
    /// an upper bound on what was due when its last step ran.
    fn assert_shed_accounted(load: StreamLoad, frames_per_step: u64, started: Instant) {
        let due = ((started.elapsed().as_secs_f64() * f64::from(FPS) + 1.0)
            / frames_per_step as f64) as u64;
        let steps = load.frames_total.div_ceil(frames_per_step);
        assert!(load.finished && load.frames_total > 0, "{load:?}");
        assert!(
            steps + load.ticks_shed <= due,
            "consumed more of the schedule than was due ({due}): {load:?}"
        );
        assert!(
            load.queue_depth <= INGEST_BOUND,
            "backlog over the ingest bound: {load:?}"
        );
    }
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let config = SupervisorConfig {
        serve: ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        ..SupervisorConfig::default()
    };
    let started = Instant::now();
    let sup = StreamSupervisor::new(session, config);
    let streams: Vec<_> = (0..2)
        .map(|i| {
            sup.add_stream(
                Arc::new(video(120 + i, 2.0)),
                PaceMode::Fps(FPS),
                &[color_query("RedCar", "red")],
            )
            .unwrap()
        })
        .collect();
    let mut events = Vec::new();
    for (stream, subs) in streams {
        sup.join_stream(stream).unwrap();
        assert_shed_accounted(
            sup.stream_snapshot(stream).unwrap(),
            sup.server().frames_per_step(),
            started,
        );
        events.push(
            subs.into_iter()
                .flat_map(collect_events)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        events,
        bare_server_events(red_cars, 120..122, 2.0),
        "paced event sequences diverged from the bare-server oracle"
    );
}

/// The deterministic harness drives a bare server on a virtual clock:
/// the same `VQPY_SHARD_SEED` replays the exact step interleaving, and
/// every seed serves event sequences byte-identical to each stream
/// served alone.
#[test]
fn seeded_harness_replays_and_matches_the_oracle() {
    let n = 4u64;
    let shards = 2usize;
    let expected = bare_server_events(red_cars, 100..100 + n, 3.0);

    let run = |seed: u64| -> (Vec<u64>, Vec<Vec<ServeEvent>>) {
        let session = Arc::new(VqpySession::new(ModelZoo::standard()));
        let server = session.serve(ServeConfig::default());
        let mut sched = DeterministicScheduler::new(
            shards,
            ShardConfig {
                frames_per_step: server.frames_per_step().max(1),
            },
            seed,
        );
        let mut streams = Vec::new();
        for i in 0..n {
            let stream = server.open_stream(Arc::new(video(100 + i, 3.0)));
            let sub = server.attach(stream, color_query("RedCar", "red")).unwrap();
            sched.add_stream(stream, PaceMode::Unpaced);
            streams.push((stream, sub));
        }
        let mut order = Vec::new();
        sched.run(|stream, _fire_us| {
            order.push(stream);
            server.step(stream).unwrap().finished
        });
        // Finishing a stream closes its channels; no explicit close, so
        // the sequences stay comparable with the oracle's.
        let events = streams
            .into_iter()
            .map(|(_, sub)| collect_events(sub.into_inner()))
            .collect();
        (order, events)
    };

    let base = shard_seed();
    let (order_a, events_a) = run(base);
    let (order_b, events_b) = run(base);
    assert_eq!(order_a, order_b, "same seed must replay the interleaving");
    assert_eq!(events_a, events_b);
    for seed in [base, base + 1, base + 2] {
        let (_, events) = run(seed);
        assert_eq!(
            events, expected,
            "harness-served events diverged from the bare-server oracle at seed {seed}"
        );
    }
}

/// A from-past replay is one more id for the harness: attached from the
/// store's epoch a third of the way into a live stream, it is scheduled
/// with the same `server.step` closure as the live id. At every seed the
/// replayed subscription serves what an always-attached one does, and the
/// live subscription is untouched by the splice.
#[test]
fn seeded_harness_steps_a_replay_like_a_stream() {
    let seconds = 6.0;
    let v = video(130, seconds);
    let black = || color_query("BlackCar", "black");
    let expected_black = {
        let session = Arc::new(VqpySession::new(ModelZoo::standard()));
        let server = session.serve(ServeConfig::default());
        let stream = server.open_stream(Arc::new(v.clone()));
        let sub = server.attach(stream, black()).unwrap();
        server.run_to_end(stream).unwrap();
        collect_events(sub.into_inner())
    };
    let expected_red = bare_server_events(red_cars, 130..131, seconds).remove(0);

    let base = shard_seed();
    for seed in [base, base + 1, base + 2] {
        let dir =
            std::env::temp_dir().join(format!("vqpy_sharded_replay_{}_{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FrameStore::open(StoreConfig {
            background_eviction: false,
            ..StoreConfig::new(dir.clone())
        })
        .unwrap();
        let session = Arc::new(VqpySession::new(ModelZoo::standard()));
        let server = session.serve(ServeConfig {
            store: Some(Arc::clone(&store)),
            ..ServeConfig::default()
        });
        let stream = server.open_stream(Arc::new(v.clone()));
        let red = server.attach(stream, color_query("RedCar", "red")).unwrap();
        while server.position(stream).unwrap() < v.frame_count() / 3 {
            server.step(stream).unwrap();
        }
        let replayed = server
            .attach(stream, AttachSpec::new(black()).from(store.epoch()))
            .unwrap();
        let mut sched = DeterministicScheduler::new(
            2,
            ShardConfig {
                frames_per_step: server.frames_per_step(),
            },
            seed,
        );
        sched.add_stream(stream, PaceMode::Unpaced);
        sched.add_stream(replayed.replay().unwrap(), PaceMode::Unpaced);
        sched.run(|id, _fire_us| server.step(id).unwrap().finished);
        assert_eq!(
            collect_events(replayed.into_inner()),
            expected_black,
            "replayed events diverged from the always-attached oracle at seed {seed}"
        );
        assert_eq!(
            collect_events(red.into_inner()),
            expected_red,
            "live events diverged at seed {seed}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
