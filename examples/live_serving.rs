//! Live serving demo: a `StreamSupervisor` drives two paced camera streams
//! on its own worker threads — with cross-stream model batching — while
//! *typed* queries attach and detach at runtime: consumers receive decoded
//! rows through `TypedSubscription`s, never `(String, Value)` pairs.
//!
//! The demo also injects one mid-stream fault: the banff "camera" panics
//! once while decoding, the worker's `RestartPolicy` restores the last
//! checkpoint and resumes, and the subscriber observes the typed
//! `StreamFault` notice and keeps consuming — no frames lost, no process
//! crash.
//!
//! Run with `cargo run --example live_serving`. The program exits cleanly
//! when both streams end: every subscription is drained on its own thread,
//! so no channel ever blocks the shutdown.
//!
//! The run is fully instrumented: span tracing is on, and setting
//! `VQPY_TRACE_OUT=trace.json` / `VQPY_METRICS_OUT=metrics.prom` writes the
//! Perfetto timeline (open it at <https://ui.perfetto.dev>) and the
//! Prometheus metrics snapshot on exit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vqpy::api::*;
use vqpy::serve::{BatcherConfig, ServePolicy, Telemetry};
use vqpy::video::Frame;

/// A flaky "camera": panics exactly once when asked for frame `at`, then
/// behaves normally — the shape of a transient driver/decoder crash. The
/// stream worker catches the panic, notifies subscribers with a
/// `StreamFault`, restores its checkpoint, and replays the segment.
struct PanicOnce<V> {
    inner: V,
    at: u64,
    fired: AtomicBool,
}

impl<V: VideoSource> VideoSource for PanicOnce<V> {
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
            panic!("demo camera driver crashed at frame {index}");
        }
        self.inner.frame(index)
    }
    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

/// The typed row every car query projects: (track id once tracked, plate).
type CarRow = (Option<i64>, String);

fn car_query(name: &str, color: &str) -> TypedQuery<CarRow> {
    let car = library::vehicle_intrinsic().alias("car");
    TypedQuery::builder(name)
        .object(&car)
        .filter(car.score().gt(0.5) & car.color().eq(color))
        .select((car.track_id().optional(), car.plate()))
        .build()
        .expect("query builds")
}

/// Drains a typed subscription on its own thread until its terminal event,
/// so a slow main thread can never stall the stream (and the stream's end
/// can never strand a consumer: the channel closes, the thread exits).
fn consume(label: &'static str, sub: TypedSubscription<CarRow>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut hits = 0u64;
        let mut plates = std::collections::BTreeSet::new();
        loop {
            match sub.recv() {
                Some(Ok(TypedServeEvent::Hit(hit))) => {
                    hits += 1;
                    for (_track, plate) in hit.rows {
                        plates.insert(plate);
                    }
                }
                Some(Ok(TypedServeEvent::End { video_value })) => {
                    println!(
                        "{label}: {hits} hit frames, {} distinct plates, final aggregate {video_value:?}",
                        plates.len()
                    );
                    break;
                }
                Some(Ok(TypedServeEvent::Detached { video_value })) => {
                    println!("{label}: detached after {hits} hit frames ({video_value:?})");
                    break;
                }
                // Store faults only occur on replayed streams (none here);
                // the affected frames recompute, so they are never terminal.
                Some(Ok(TypedServeEvent::StoreFault(_))) => {}
                Some(Ok(TypedServeEvent::StreamFault(fault))) => {
                    // Informational: when `resumed` is true the worker
                    // already restarted and more events follow on this same
                    // channel, so keep looping.
                    println!(
                        "{label}: worker fault at frame {} ({}); resumed={} after {} restart(s), {} frame(s) lost",
                        fault.frame, fault.message, fault.resumed, fault.restarts, fault.frames_lost
                    );
                    if !fault.resumed {
                        break;
                    }
                }
                Some(Err(e)) => {
                    println!("{label}: decode error: {e}");
                    break;
                }
                None => break, // channel closed without a terminal event
            }
        }
    })
}

fn main() {
    // One session (shared zoo, plan cache, clock); each stream runs the
    // pipelined engine, and all streams' detect stages share one physical
    // batch through the supervisor's ModelBatcher.
    let session = Arc::new(VqpySession::with_config(
        ModelZoo::standard(),
        SessionConfig::pipelined(2),
    ));
    // Span tracing is cheap enough to leave on for the whole demo; the
    // exports at the bottom turn it into files on request.
    let telemetry = Telemetry::with_tracing();
    let supervisor = StreamSupervisor::new(
        Arc::clone(&session),
        SupervisorConfig {
            serve: ServeConfig {
                batches_per_step: 4,
                telemetry: telemetry.clone(),
                ..ServeConfig::default()
            },
            batcher: Some(BatcherConfig::default()),
            policy: ServePolicy {
                max_streams: Some(8),
                ..ServePolicy::default()
            },
            ..SupervisorConfig::default()
        },
    );

    // Two live "cameras", paced at their capture rate (2x real time here
    // so the demo stays quick) and driven by the supervisor's workers.
    // Initial queries attach before the first frame executes; typed
    // queries hand their lowered Arc<Query> to add_stream and the
    // subscriptions wrap back into typed ones.
    let jackson_video = SyntheticVideo::new(Scene::generate(presets::jackson(), 11, 30.0));
    // The banff camera "crashes" once mid-stream: the worker catches the
    // panic, emits a StreamFault to subscribers, and restarts from its
    // checkpoint (RestartPolicy::default(): up to 2 restarts — the re-run
    // makes the surviving results identical to a clean run).
    let banff_video = PanicOnce {
        inner: SyntheticVideo::new(Scene::generate(presets::banff(), 22, 30.0)),
        at: 40,
        fired: AtomicBool::new(false),
    };
    let pace = PaceMode::Fps(60.0);

    let car = library::vehicle_intrinsic().alias("car");
    let count_cars = TypedQuery::builder("CountCars")
        .object(&car)
        .filter(car.score().gt(0.5))
        .count_distinct_tracks(&car)
        .build()
        .unwrap();
    let red = car_query("RedCar", "red");
    let (jackson, jackson_subs) = supervisor
        .add_stream(
            Arc::new(jackson_video),
            pace,
            &[red.query().clone(), count_cars.query().clone()],
        )
        .expect("admit jackson stream");
    let (banff, banff_subs) = supervisor
        .add_stream(
            Arc::new(banff_video),
            pace,
            &[car_query("RedCar", "red").query().clone()],
        )
        .expect("admit banff stream");

    let mut consumers = Vec::new();
    let mut jackson_subs = jackson_subs.into_iter();
    let red_j: TypedSubscription<CarRow> = TypedSubscription::wrap(jackson_subs.next().unwrap());
    // The counter query projects no rows; drain it untyped.
    let count_sub = jackson_subs.next().unwrap();
    consumers.push(std::thread::spawn(move || {
        let (hits, aggregate) = count_sub.collect();
        println!(
            "jackson/CountCars: {} hit frames, final aggregate {aggregate:?}",
            hits.len()
        );
    }));
    let red_b = TypedSubscription::wrap(banff_subs.into_iter().next().unwrap());
    consumers.push(consume("banff/RedCar", red_b));

    // Change the query set live: a black-car query joins (typed attach →
    // typed subscription), the red-car query leaves. The recompile happens
    // at a step boundary; no frames are dropped and the counter query's
    // results are unaffected. (At 60fps pace a 32-frame step lands roughly
    // every 0.53s, so by now a few steps have run and RedCar has results
    // to carry out.)
    std::thread::sleep(std::time::Duration::from_millis(1500));
    println!(
        "jackson load {:?}: attaching BlackCar, detaching RedCar",
        supervisor.load()
    );
    let black_j = supervisor
        .attach(jackson, &car_query("BlackCar", "black"))
        .expect("admitted under calm load");
    supervisor.detach(jackson, red_j.id()).expect("detach");
    consumers.push(consume("jackson/RedCar", red_j));
    consumers.push(consume("jackson/BlackCar", black_j));

    // Wait for both streams to finish; consumers drain concurrently, so
    // nothing can block stream completion — then the consumers' channels
    // close and every thread exits.
    for (name, stream) in [("jackson", jackson), ("banff", banff)] {
        let metrics = supervisor.join_stream(stream).expect("stream completes");
        println!("{name}: {}", metrics.summary());
        let pace = supervisor.stream_snapshot(stream).expect("stream snapshot");
        println!(
            "{name}: paced @{:?}, backlog {} steps, {} ticks shed",
            pace.pace, pace.queue_depth, pace.ticks_shed
        );
    }
    for c in consumers {
        c.join().expect("consumer exits");
    }
    if let Some(stats) = supervisor.batcher_stats() {
        println!(
            "batcher: {} requests -> {} physical batches (mean {:.2} coalesced, max {} frames)",
            stats.requests,
            stats.physical_batches,
            stats.mean_coalesced(),
            stats.max_batch_frames
        );
    }

    // Telemetry exports: the whole run — decode, dispatch, coalesce
    // windows, demux, the injected fault's restart backoff — is one span
    // timeline plus a metrics registry; dump them when asked.
    println!(
        "telemetry: {} spans recorded across both streams",
        telemetry.tracer().span_count()
    );
    if let Ok(path) = std::env::var("VQPY_TRACE_OUT") {
        std::fs::write(&path, supervisor.trace_json()).expect("write trace");
        println!("telemetry: wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    if let Ok(path) = std::env::var("VQPY_METRICS_OUT") {
        std::fs::write(&path, supervisor.prometheus_snapshot()).expect("write metrics");
        println!("telemetry: wrote Prometheus snapshot to {path}");
    }
}
