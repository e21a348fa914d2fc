//! End-to-end telemetry: one supervised multi-stream run must produce a
//! valid Perfetto timeline covering every span kind across per-stream
//! process lanes, a Prometheus snapshot with counters, gauges, and
//! histogram quantiles — and tracing must never perturb results.

use std::collections::BTreeSet;
use std::sync::Arc;
use vqpy_core::frontend::{library, predicate::Pred};
use vqpy_core::{ModelStage, Query, RetryPolicy, SessionConfig, VqpySession};
use vqpy_models::{FaultInjector, FaultPlan, ModelZoo};
use vqpy_serve::{
    AttachSpec, BatcherConfig, PaceMode, ServeConfig, ServeSession, StreamSupervisor,
    SupervisorConfig, Telemetry,
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

/// The acceptance scenario: two streams under one supervisor with the
/// cross-stream batcher and span tracing enabled. The exported timeline
/// must show decode → dispatch → coalesce → tail → demux spans across at
/// least two stream lanes, and the Prometheus snapshot must expose
/// counters, gauges, and per-query latency quantiles.
#[test]
fn two_stream_run_exports_full_timeline_and_metrics() {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let telemetry = Telemetry::with_tracing();
    let supervisor = StreamSupervisor::new(
        Arc::clone(&session),
        SupervisorConfig {
            serve: ServeConfig {
                telemetry: telemetry.clone(),
                ..ServeConfig::default()
            },
            batcher: Some(BatcherConfig::default()),
            ..SupervisorConfig::default()
        },
    );

    let mut streams = Vec::new();
    for seed in [81u64, 82] {
        let (stream, subs) = supervisor
            .add_stream(
                Arc::new(video(seed, 6.0)),
                PaceMode::Unpaced,
                &[color_query("RedCar", "red")],
            )
            .unwrap();
        streams.push((stream, subs));
    }
    for (stream, subs) in streams {
        let metrics = supervisor.join_stream(stream).unwrap();
        for sub in subs {
            let _ = sub.collect();
        }

        // Satellite: per-query percentile readout from the histograms.
        let q = &metrics.per_query[0];
        assert!(q.delivered > 0, "scenario needs traffic");
        assert!(q.max_latency_ms > 0.0, "{q:?}");
        assert!(q.p50_latency_ms <= q.p95_latency_ms, "{q:?}");
        assert!(q.p95_latency_ms <= q.p99_latency_ms, "{q:?}");
        assert!(q.p99_latency_ms <= q.max_latency_ms, "{q:?}");

        // Satellite: the per-stream load breakdown composes worker and
        // published counters.
        let load = supervisor.stream_snapshot(stream).unwrap();
        assert!(load.finished);
        assert!(load.frames_total > 0);
        assert_eq!(load.delivered, q.delivered);
    }

    // Every layer's span kind is present, attributed to the right lane.
    let spans = telemetry.tracer().spans();
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "decode",
        "detect",
        "tail",
        "demux",
        "coalesce",
        "dispatch:detect",
    ] {
        assert!(
            names.contains(expected),
            "missing {expected:?} in {names:?}"
        );
    }
    let stream_pids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "decode")
        .map(|s| s.pid)
        .collect();
    assert!(
        stream_pids.len() >= 2,
        "decode spans should span two stream lanes: {stream_pids:?}"
    );
    assert!(
        spans
            .iter()
            .filter(|s| s.name == "coalesce")
            .all(|s| s.pid == 0),
        "coalesce spans belong to the shared lane"
    );
    let dispatch = spans.iter().find(|s| s.name == "dispatch:detect").unwrap();
    assert!(
        dispatch.args.iter().any(|(k, _)| *k == "model"),
        "dispatch spans carry the model attribute: {dispatch:?}"
    );

    // The shard workers trace their steps into dedicated per-shard lanes
    // above the stream-id range, with stream and occupancy attributes.
    let shard_spans: Vec<_> = spans.iter().filter(|s| s.cat == "shard").collect();
    assert!(!shard_spans.is_empty(), "shard workers must trace steps");
    assert!(
        shard_spans
            .iter()
            .all(|s| s.pid >= vqpy_serve::SHARD_LANE_BASE && s.name == "step"),
        "shard spans live in shard lanes: {:?}",
        shard_spans[0]
    );
    assert!(
        shard_spans
            .iter()
            .all(|s| s.args.iter().any(|(k, _)| *k == "stream")),
        "shard step spans carry the stream attribute"
    );

    // The Perfetto export is non-empty and structurally sound.
    let trace = supervisor.trace_json();
    assert!(trace.starts_with("{\"traceEvents\":["), "{}", &trace[..64]);
    assert!(trace.contains("\"process_name\""), "named lanes expected");
    assert!(trace.contains("\"name\":\"stream 1\""), "stream lane names");
    assert!(
        trace.contains("\"name\":\"shard 0\""),
        "per-shard lanes must be named in the export"
    );

    // The Prometheus snapshot has counters, gauges, and quantiles.
    let prom = supervisor.prometheus_snapshot();
    assert!(
        prom.contains("# TYPE vqpy_delivered_total counter"),
        "{prom}"
    );
    assert!(prom.contains("# TYPE vqpy_streams gauge"), "{prom}");
    assert!(
        prom.contains("vqpy_delivery_latency_ms{query=\"RedCar\",quantile=\"0.95\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("vqpy_delivery_latency_ms_count{query=\"RedCar\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("vqpy_batch_items{stage=\"detect\",quantile=\"0.5\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("vqpy_batcher_requests_total{stage=\"detect\"}"),
        "{prom}"
    );
}

/// A replay turn reads its stored range once: a from-past replay of a
/// finished stream opens one `load_chunk` span per turn of
/// `4 × frames_per_step` frames, not one per step.
#[test]
fn a_replay_turn_loads_its_stored_range_once() {
    let dir = std::env::temp_dir().join(format!("vqpy_replay_chunks_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = vqpy_store::FrameStore::open(vqpy_store::StoreConfig {
        background_eviction: false,
        ..vqpy_store::StoreConfig::new(dir.clone())
    })
    .unwrap();
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let telemetry = Telemetry::with_tracing();
    let server = session.serve(ServeConfig {
        telemetry: telemetry.clone(),
        store: Some(Arc::clone(&fs)),
        ..ServeConfig::default()
    });
    let v = video(57, 12.0);
    let frames = v.frame_count();
    let stream = server.open_stream(Arc::new(v));
    let query = color_query("RedCar", "red");
    let live = server.attach(stream, Arc::clone(&query)).unwrap();
    server.run_to_end(stream).unwrap();
    let _ = live.into_inner().collect();

    let attached = server
        .attach(stream, AttachSpec::new(Arc::clone(&query)).from(fs.epoch()))
        .unwrap();
    let replay = attached.replay().expect("a from-past attach replays");
    server.run_replay(replay).unwrap();
    let _ = attached.into_inner().collect();

    let loads = telemetry
        .tracer()
        .spans()
        .iter()
        .filter(|s| s.cat == "store" && s.name == "load_chunk")
        .count() as u64;
    let step = server.frames_per_step();
    assert_eq!(
        loads,
        frames.div_ceil(4 * step),
        "{frames} frames, {step} a step"
    );
    assert!(loads < frames.div_ceil(step));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store satellite: with a frame store configured, a run plus an
/// `attach_from` replay must surface `vqpy_store_*` gauges and counters in
/// the Prometheus snapshot and a dedicated "store" span lane (append,
/// load_chunk, replay spans) in the Perfetto export.
#[test]
fn store_lane_and_metrics_are_exported() {
    let dir = std::env::temp_dir().join(format!("vqpy_store_telemetry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = vqpy_store::FrameStore::open(vqpy_store::StoreConfig {
        background_eviction: false,
        ..vqpy_store::StoreConfig::new(dir.clone())
    })
    .unwrap();

    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    let telemetry = Telemetry::with_tracing();
    let supervisor = StreamSupervisor::new(
        session,
        SupervisorConfig {
            serve: ServeConfig {
                telemetry: telemetry.clone(),
                store: Some(Arc::clone(&fs)),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let query = color_query("RedCar", "red");
    let (stream, subs) = supervisor
        .add_stream(
            Arc::new(video(57, 6.0)),
            PaceMode::Unpaced,
            &[Arc::clone(&query)],
        )
        .unwrap();
    // Attach after the run: a replay attached before the first append
    // finds nothing stored and splices at once, loading no chunk.
    supervisor.join_stream(stream).unwrap();
    for s in subs {
        let _ = s.collect();
    }
    let sub = supervisor
        .attach(stream, AttachSpec::new(Arc::clone(&query)).from(fs.epoch()))
        .unwrap();
    let _ = sub.collect();

    // The store's spans live in their own lane.
    let spans = telemetry.tracer().spans();
    let store_spans: Vec<_> = spans.iter().filter(|s| s.cat == "store").collect();
    assert!(!store_spans.is_empty(), "store work must trace");
    assert!(
        store_spans.iter().all(|s| s.pid == vqpy_serve::STORE_LANE),
        "store spans live in the store lane: {:?}",
        store_spans[0]
    );
    let names: BTreeSet<&str> = store_spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["append", "load_chunk", "replay"] {
        assert!(
            names.contains(expected),
            "missing {expected:?} in {names:?}"
        );
    }
    let trace = supervisor.trace_json();
    assert!(
        trace.contains("\"name\":\"store\""),
        "store lane must be named in the export"
    );

    // The snapshot carries the store gauges and counters.
    let prom = supervisor.prometheus_snapshot();
    assert!(prom.contains("# TYPE vqpy_store_bytes gauge"), "{prom}");
    assert!(prom.contains("# TYPE vqpy_store_segments gauge"), "{prom}");
    assert!(
        prom.contains("# TYPE vqpy_store_evictions_total counter"),
        "{prom}"
    );
    assert!(
        prom.contains("# TYPE vqpy_store_replay_hits_total counter"),
        "{prom}"
    );
    assert!(
        prom.contains("# TYPE vqpy_store_corrupt_segments_total counter"),
        "{prom}"
    );
    let bytes_line = prom
        .lines()
        .find(|l| l.starts_with("vqpy_store_bytes "))
        .unwrap();
    let bytes: f64 = bytes_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(bytes > 0.0, "persisted frames must show up: {bytes_line}");
    let hits_line = prom
        .lines()
        .find(|l| l.starts_with("vqpy_store_replay_hits_total "))
        .unwrap();
    let hits: f64 = hits_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(hits > 0.0, "replay must read from the store: {hits_line}");

    supervisor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tracing must be observation only: a served run with the span ring
/// enabled produces byte-identical hits and aggregates to the offline
/// executor, under both the sequential and pipelined engines.
#[test]
fn tracing_never_perturbs_results() {
    for config in [SessionConfig::default(), SessionConfig::pipelined(2)] {
        let v = video(83, 8.0);
        let query = color_query("RedCar", "red");

        let offline = Arc::new(VqpySession::with_config(
            ModelZoo::standard(),
            config.clone(),
        ));
        let expected = offline.execute(&query, &v).unwrap();

        let session = Arc::new(VqpySession::with_config(ModelZoo::standard(), config));
        let telemetry = Telemetry::with_tracing();
        let supervisor = StreamSupervisor::new(
            session,
            SupervisorConfig {
                serve: ServeConfig {
                    telemetry: telemetry.clone(),
                    ..ServeConfig::default()
                },
                batcher: Some(BatcherConfig::default()),
                ..SupervisorConfig::default()
            },
        );
        let (stream, subs) = supervisor
            .add_stream(Arc::new(v), PaceMode::Unpaced, &[Arc::clone(&query)])
            .unwrap();
        supervisor.join_stream(stream).unwrap();
        let (hits, video_value) = subs.into_iter().next().unwrap().collect();
        assert_eq!(hits, expected.frame_hits, "hits diverged under tracing");
        assert_eq!(video_value, expected.video_value, "aggregate diverged");
        assert!(telemetry.tracer().span_count() > 0, "spans were recorded");
    }
}

/// The batcher and the shards write their counters into the registry as
/// they run: before any `prometheus_snapshot()`, the registry already
/// reads what the typed accessors report. A detector outage (three
/// failures, then healed) makes the fault counters non-zero.
#[test]
fn registry_counters_are_live_without_a_snapshot() {
    let zoo = ModelZoo::standard();
    let inj = FaultInjector::new(FaultPlan::every_nth(1, 1).heal_after(3));
    zoo.register_detector(inj.wrap_detector(zoo.detector("yolox").unwrap()));
    let telemetry = Telemetry::disabled();
    let supervisor = StreamSupervisor::new(
        Arc::new(VqpySession::new(zoo)),
        SupervisorConfig {
            serve: ServeConfig {
                telemetry: telemetry.clone(),
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
    let mut streams = Vec::new();
    for seed in [84u64, 85] {
        streams.push(
            supervisor
                .add_stream(
                    Arc::new(video(seed, 4.0)),
                    PaceMode::Unpaced,
                    &[color_query("RedCar", "red")],
                )
                .unwrap(),
        );
    }
    for (stream, subs) in streams {
        supervisor.join_stream(stream).unwrap();
        for sub in subs {
            let _ = sub.collect();
        }
    }

    let reg = telemetry.registry();
    let stats = supervisor.batcher_stats().unwrap();
    for stage in ModelStage::ALL {
        let label = format!("{{stage=\"{}\"}}", stage.name());
        let s = stats.stage(stage);
        assert_eq!(
            reg.counter(&format!("vqpy_batcher_requests_total{label}"))
                .get(),
            s.requests,
            "{stage:?}"
        );
        let items = reg.histogram(&format!("vqpy_batch_items{label}"));
        assert_eq!(items.count(), s.physical_batches, "{stage:?}");
        assert_eq!(items.sum_ms(), s.items as f64, "{stage:?}");
        assert_eq!(items.max_ms(), s.max_batch_items as f64, "{stage:?}");
    }
    assert!(stats.detect.requests > 0, "detect went through the batcher");

    let faults = supervisor.load().faults;
    assert_eq!(faults, stats.faults);
    assert!(faults.model_faults > 0, "{faults:?}");
    for (name, want) in [
        ("vqpy_model_faults_total", faults.model_faults),
        ("vqpy_breaker_trips_total", faults.breaker_trips),
        ("vqpy_breaker_recoveries_total", faults.breaker_recoveries),
        ("vqpy_broken_dispatches_total", faults.broken_dispatches),
        ("vqpy_breaker_probes_total", faults.probes),
        ("vqpy_coalesce_panics_total", faults.coalesce_panics),
    ] {
        assert_eq!(reg.counter(name).get(), want, "{name}");
    }

    let loads = supervisor.shard_loads();
    assert_eq!(loads.len(), 2);
    for load in &loads {
        assert!(load.steps > 0, "{load:?}");
        let name = format!("vqpy_shard_steps_total{{shard=\"{}\"}}", load.shard);
        assert_eq!(reg.counter(&name).get(), load.steps, "{name}");
    }
    supervisor.shutdown();
}

/// The delivery totals are counters, written as events are delivered: a
/// scrape after `remove_stream` reads no less than one before it, and
/// every scrape equals the sum of `delivered` over every subscription the
/// supervisor served, removed streams' included.
#[test]
fn delivery_totals_never_run_backwards() {
    let telemetry = Telemetry::disabled();
    let supervisor = StreamSupervisor::new(
        Arc::new(VqpySession::new(ModelZoo::standard())),
        SupervisorConfig {
            serve: ServeConfig {
                telemetry: telemetry.clone(),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let scrape = |name: &str| -> u64 {
        let prom = supervisor.prometheus_snapshot();
        let line = prom
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no {name} in {prom}"));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    assert_eq!(
        scrape("vqpy_delivered_total"),
        0,
        "registered before any event"
    );
    let mut delivered = 0;
    let mut streams = Vec::new();
    for seed in [86u64, 87] {
        let (stream, subs) = supervisor
            .add_stream(
                Arc::new(video(seed, 3.0)),
                PaceMode::Unpaced,
                &[color_query("RedCar", "red")],
            )
            .unwrap();
        let metrics = supervisor.join_stream(stream).unwrap();
        for sub in subs {
            let _ = sub.collect();
        }
        delivered += metrics.per_query.iter().map(|q| q.delivered).sum::<u64>();
        streams.push(stream);
    }
    assert!(delivered > 0, "scenario needs traffic");
    let before = scrape("vqpy_delivered_total");
    assert_eq!(before, delivered);
    supervisor.remove_stream(streams[0]).unwrap();
    let after = scrape("vqpy_delivered_total");
    assert!(after >= before, "{after} < {before}");
    assert_eq!(after, delivered);
    assert_eq!(scrape("vqpy_dropped_total"), 0);
    assert_eq!(scrape("vqpy_ticks_shed_total"), 0);
    supervisor.shutdown();
}
