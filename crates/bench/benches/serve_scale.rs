//! Multi-stream scaling: N concurrent streams served by a
//! `StreamSupervisor`, per-stream model batching (baseline) vs. the
//! shared cross-stream `ModelBatcher`, on one *exclusive* simulated
//! accelerator.
//!
//! The resource model is the honest one for scale-out: the Latency clock
//! serializes model charges on a single device
//! (`DeviceModel::Devices(1)`), so N per-stream engines do not enjoy N
//! phantom GPUs, and a physical batch realizes its amortized net cost
//! (`BATCH_OVERHEAD_FRACTION` credited for items after the first, plus the
//! fixed `DISPATCH_LAUNCH_COST` paid once per physical invocation) as one
//! device sleep. Under that model every stream pays the fixed dispatch
//! overhead per *its own* small batch in the baseline — and per (stream,
//! frame) for the non-memoizable `direction` projection, whose crop
//! batches cannot outgrow a single frame inside one stream — while the
//! shared batcher pays it once per coalesced cross-stream batch per
//! (stage, model). That is exactly where the scaling gap comes from.
//! Decode and tracker work stay host-side and overlap the device.
//!
//! A second table stresses the *sharded* supervisor itself: 64 / 256 /
//! 1024 fps-paced streams multiplexed onto a fixed budget of
//! [`SHARD_BUDGET`] shard workers on the virtual clock (wall time here
//! measures the event loop, not simulated device sleeps). Rows report
//! delivered fps, exact shed counts, and per-shard occupancy — and
//! deliberately carry no `speedup` field, so the regression gate's
//! ratio checks skip them.
//!
//! Results land in the `"scaling"` section of `BENCH_serve.json`
//! (co-owned with the `device_scale` bench via `report::merge_section`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_bench::bench_scale;
use vqpy_bench::report::{merge_section, percentiles_json, section, table};
use vqpy_bench::workloads::straight_car_query;
use vqpy_core::{ExecConfig, ExecMode, SessionConfig, VqpySession};
use vqpy_models::{Clock, ClockMode, DeviceModel, ModelZoo};
use vqpy_serve::{
    Backpressure, BatcherConfig, BatcherStats, PaceMode, ServeConfig, StreamSupervisor,
    Subscription, SupervisorConfig, Telemetry,
};
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{presets, Scene};

const STREAM_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Stream counts for the sharded-supervisor occupancy table.
const SHARDED_STREAM_COUNTS: [usize; 3] = [64, 256, 1024];
/// Fixed shard budget the sharded table multiplexes onto.
const SHARD_BUDGET: usize = 4;
/// Pace of every stream in the sharded table.
const SHARDED_FPS: f32 = 30.0;
/// Small per-stream batches model low-latency serving: the baseline can
/// only amortize dispatch overhead across this window, the shared batcher
/// across every concurrent stream's window.
const BATCH_SIZE: usize = 2;
const WORKERS: usize = 2;

struct RunResult {
    fps: f64,
    wall_s: f64,
    stats: Option<BatcherStats>,
    /// Cross-stream delivery latency `(p50, p95, p99, max)` in ms, read
    /// from the telemetry registry's per-query histogram (spans every
    /// stream's subscription to the shared query name).
    latency_ms: (f64, f64, f64, f64),
    /// Streams resident on each shard worker, sampled while all streams
    /// were attached.
    shard_occupancy: Vec<usize>,
}

/// Subscriptions keyed by stream id. Stream ids are handed out
/// sequentially per server starting at 1, so a `Vec` indexed by the id
/// itself (slot 0 unused) is the natural dense map — no parallel-array
/// bookkeeping between the id list and the subscription list.
#[derive(Default)]
struct SubsByStream(Vec<Vec<Subscription>>);

impl SubsByStream {
    fn insert(&mut self, id: vqpy_serve::StreamId, subs: Vec<Subscription>) {
        let slot = id as usize;
        if self.0.len() <= slot {
            self.0.resize_with(slot + 1, Vec::new);
        }
        self.0[slot] = subs;
    }

    /// Ids of every stream holding at least one subscription, in order.
    fn ids(&self) -> impl Iterator<Item = vqpy_serve::StreamId> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, _)| i as vqpy_serve::StreamId)
    }
}

fn run(streams: usize, shared_batcher: bool, seconds: f64) -> RunResult {
    let clock = Arc::new(Clock::with_mode(ClockMode::Latency).with_device(DeviceModel::Devices(1)));
    let config = SessionConfig {
        exec: ExecConfig {
            batch_size: BATCH_SIZE,
            exec_mode: ExecMode::Pipelined { workers: WORKERS },
            ..ExecConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = Arc::new(VqpySession::with_clock(ModelZoo::standard(), config, clock));
    // Metrics only (no span ring): the registry's delivery-latency
    // histogram is fed regardless of whether tracing is on.
    let telemetry = Telemetry::disabled();
    let supervisor = StreamSupervisor::new(
        Arc::clone(&session),
        SupervisorConfig {
            serve: ServeConfig {
                // One shard per stream: this table measures cross-stream
                // *batching* under genuinely concurrent streams, so every
                // stream gets its own worker regardless of host cores
                // (the auto budget would serialize steps on small
                // machines and deflate the coalescing windows). The
                // sharded table below is the one that fixes the budget.
                shards: streams,
                channel_capacity: 64,
                backpressure: Backpressure::Drop, // nobody drains during the timed run
                batches_per_step: 4,
                telemetry: telemetry.clone(),
                ..ServeConfig::default()
            },
            batcher: shared_batcher.then(|| BatcherConfig {
                max_batch_frames: 64,
                window: Duration::from_millis(1),
                ..BatcherConfig::default()
            }),
            ..SupervisorConfig::default()
        },
    );

    let videos: Vec<Arc<dyn VideoSource>> = (0..streams)
        .map(|i| {
            Arc::new(SyntheticVideo::new(Scene::generate(
                presets::jackson(),
                1000 + i as u64,
                seconds,
            ))) as Arc<dyn VideoSource>
        })
        .collect();
    let total_frames: u64 = videos.iter().map(|v| v.frame_count()).sum();
    let query = straight_car_query();

    let start = Instant::now();
    // Hold the subscriptions (undrained — the Drop policy sheds whatever
    // overflows the channel) so deliveries actually happen and feed the
    // delivery-latency histogram; dropping them would disconnect every
    // channel before the first event.
    let mut subs = SubsByStream::default();
    for v in videos {
        let (id, s) = supervisor
            .add_stream(v, PaceMode::Unpaced, &[Arc::clone(&query)])
            .expect("add stream");
        subs.insert(id, s);
    }
    let shard_occupancy: Vec<usize> = supervisor.shard_loads().iter().map(|l| l.streams).collect();
    for id in subs.ids() {
        supervisor.join_stream(id).expect("stream run");
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(subs);
    let latency_ms = telemetry
        .registry()
        .histogram(&format!(
            "vqpy_delivery_latency_ms{{query=\"{}\"}}",
            query.name()
        ))
        .percentiles();
    RunResult {
        fps: total_frames as f64 / wall_s,
        wall_s,
        stats: supervisor.batcher_stats(),
        latency_ms,
        shard_occupancy,
    }
}

struct ShardedRunResult {
    delivered_fps: f64,
    wall_s: f64,
    frames_total: u64,
    ticks_shed: u64,
    shard_occupancy: Vec<usize>,
}

/// One row of the sharded-occupancy table: `streams` fps-paced streams
/// multiplexed onto `shards` shard workers, sequential engines on the
/// virtual clock (so wall time measures the scheduler's event loop, not
/// simulated device sleeps), no shared batcher — the supervisor itself is
/// the system under test. Pipelined engines are deliberately off: at 1024
/// streams they would spawn thousands of stage threads and measure the OS
/// scheduler instead of ours.
fn run_sharded(streams: usize, shards: usize, seconds: f64) -> ShardedRunResult {
    let clock = Arc::new(Clock::with_mode(ClockMode::Virtual));
    let config = SessionConfig {
        exec: ExecConfig {
            batch_size: BATCH_SIZE,
            ..ExecConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = Arc::new(VqpySession::with_clock(ModelZoo::standard(), config, clock));
    let supervisor = StreamSupervisor::new(
        Arc::clone(&session),
        SupervisorConfig {
            serve: ServeConfig {
                shards,
                channel_capacity: 16,
                backpressure: Backpressure::Drop, // nobody drains during the timed run
                telemetry: Telemetry::disabled(),
                ..ServeConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );

    let videos: Vec<Arc<dyn VideoSource>> = (0..streams)
        .map(|i| {
            Arc::new(SyntheticVideo::new(Scene::generate(
                presets::jackson(),
                2000 + i as u64,
                seconds,
            ))) as Arc<dyn VideoSource>
        })
        .collect();
    let query = straight_car_query();

    let start = Instant::now();
    let mut subs = SubsByStream::default();
    for v in videos {
        let (id, s) = supervisor
            .add_stream(v, PaceMode::Fps(SHARDED_FPS), &[Arc::clone(&query)])
            .expect("add stream");
        subs.insert(id, s);
    }
    let shard_occupancy: Vec<usize> = supervisor.shard_loads().iter().map(|l| l.streams).collect();
    for id in subs.ids() {
        supervisor.join_stream(id).expect("stream run");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let load = supervisor.load();
    let frames_total = supervisor.server().aggregate().frames_total;
    drop(subs);
    ShardedRunResult {
        delivered_fps: frames_total as f64 / wall_s,
        wall_s,
        frames_total,
        ticks_shed: load.ticks_shed,
        shard_occupancy,
    }
}

/// Serializes a shard-occupancy vector as a JSON array.
fn occupancy_json(occupancy: &[usize]) -> String {
    let cells: Vec<String> = occupancy.iter().map(|n| n.to_string()).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    let seconds = 30.0 * bench_scale();
    section("Multi-stream scaling (shared cross-stream batcher vs per-stream)");
    println!(
        "{seconds:.0}s @30fps per stream, StraightCar query (non-memoizable \
         direction over every vehicle), pipelined({WORKERS}) engines, \
         batch {BATCH_SIZE}, latency clock on one exclusive device"
    );

    let frames_per_stream =
        SyntheticVideo::new(Scene::generate(presets::jackson(), 1000, seconds)).frame_count();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for &n in &STREAM_COUNTS {
        let baseline = run(n, false, seconds);
        let shared = run(n, true, seconds);
        let speedup = shared.fps / baseline.fps;
        let stats = shared.stats.unwrap_or_default();
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", baseline.fps),
            format!("{:.1}", shared.fps),
            format!("{speedup:.3}x"),
            format!("{:.2}", stats.detect.mean_coalesced()),
            format!("{:.2}", stats.classify.mean_coalesced()),
            stats.max_batch_frames.to_string(),
            format!("{:.1}", shared.latency_ms.1),
        ]);
        json_rows.push(format!(
            "      {{\"streams\": {n}, \"baseline_fps\": {:.2}, \"shared_fps\": {:.2}, \
             \"speedup\": {speedup:.4}, \"baseline_wall_s\": {:.2}, \"shared_wall_s\": {:.2}, \
             \"mean_coalesced\": {:.2}, \"max_physical_batch_frames\": {}, \
             \"coalesced_per_stage\": {{\"detect\": {:.2}, \"predict\": {:.2}, \
             \"classify\": {:.2}}}, \"shard_occupancy\": {}, \"classify_requests\": {}, \
             \"classify_physical_batches\": {}, \"latency_ms\": {}}}",
            baseline.fps,
            shared.fps,
            baseline.wall_s,
            shared.wall_s,
            stats.mean_coalesced(),
            stats.max_batch_frames,
            stats.detect.mean_coalesced(),
            stats.predict.mean_coalesced(),
            stats.classify.mean_coalesced(),
            occupancy_json(&shared.shard_occupancy),
            stats.classify.requests,
            stats.classify.physical_batches,
            percentiles_json(shared.latency_ms),
        ));
        // The headline property: once several streams contend for the one
        // device, cross-stream coalescing must at least match per-stream
        // batching (it saves (requests - physical_batches) fixed dispatch
        // overheads per round). Tiny smoke runs are too noisy to gate.
        if n >= 4 && frames_per_stream >= 100 {
            assert!(
                speedup >= 1.0,
                "shared batcher fell below per-stream baseline at {n} streams: {speedup:.3}x"
            );
            assert!(
                stats.classify.requests > 0,
                "property-stage traffic must route through the batcher"
            );
        }
    }
    table(
        &[
            "streams",
            "per-stream fps",
            "shared-batcher fps",
            "speedup",
            "detect coalesced",
            "classify coalesced",
            "max batch",
            "shared p95 ms",
        ],
        &rows,
    );

    section("Sharded supervisor occupancy (fixed shard budget, fps-paced streams)");
    println!(
        "{seconds:.0}s @{SHARDED_FPS:.0}fps per stream, {SHARD_BUDGET} shard workers, \
         sequential engines, virtual clock — the event loop is the system under test"
    );
    let mut sharded_rows = Vec::new();
    for &n in &SHARDED_STREAM_COUNTS {
        let r = run_sharded(n, SHARD_BUDGET, seconds);
        // Sanity: every shard carries streams, and together they carry all
        // of them — admission round-robins across the whole budget.
        assert_eq!(r.shard_occupancy.len(), SHARD_BUDGET);
        assert_eq!(r.shard_occupancy.iter().sum::<usize>(), n);
        assert!(
            r.shard_occupancy.iter().all(|&o| o > 0),
            "idle shard at {n} streams: {:?}",
            r.shard_occupancy
        );
        sharded_rows.push(vec![
            n.to_string(),
            SHARD_BUDGET.to_string(),
            format!("{:.1}", r.delivered_fps),
            r.ticks_shed.to_string(),
            format!("{:.2}", r.wall_s),
            occupancy_json(&r.shard_occupancy),
        ]);
        // No "speedup" key: the regression gate ratio-checks only rows
        // that carry one, so these occupancy rows are reported, and the
        // delivered-fps floor is gated separately (see bench_gate).
        json_rows.push(format!(
            "      {{\"streams\": {n}, \"shards\": {SHARD_BUDGET}, \
             \"pace_fps\": {SHARDED_FPS:.1}, \"delivered_fps\": {:.2}, \
             \"ticks_shed\": {}, \"frames_total\": {}, \"wall_s\": {:.2}, \
             \"shard_occupancy\": {}}}",
            r.delivered_fps,
            r.ticks_shed,
            r.frames_total,
            r.wall_s,
            occupancy_json(&r.shard_occupancy),
        ));
    }
    table(
        &[
            "streams",
            "shards",
            "delivered fps",
            "ticks shed",
            "wall s",
            "occupancy",
        ],
        &sharded_rows,
    );

    let value = format!(
        "{{\n    \"bench\": \"serve_multistream_scaling\",\n    \
         \"video_seconds\": {seconds:.1},\n    \"frames_per_stream\": {frames_per_stream},\n    \
         \"query\": \"StraightCar (non-memoizable direction)\",\n    \
         \"exec\": \"pipelined({WORKERS}), batch {BATCH_SIZE}, 4 batches/step\",\n    \
         \"clock\": \"latency, exclusive device\",\n    \
         \"batcher\": {{\"max_batch_frames\": 64, \"window_ms\": 1, \
         \"stages\": [\"detect\", \"predict\", \"classify\"]}},\n    \
         \"sharded\": {{\"shard_budget\": {SHARD_BUDGET}, \
         \"pace_fps\": {SHARDED_FPS:.1}, \"clock\": \"virtual\", \
         \"exec\": \"sequential, batch {BATCH_SIZE}\"}},\n    \
         \"table\": [\n{}\n    ]\n  }}",
        json_rows.join(",\n"),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    merge_section(&path, "scaling", &value);
    println!();
    println!("merged \"scaling\" into {}", path.display());
}
