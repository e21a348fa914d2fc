//! Device scaling: the same multi-stream serving workload on a simulated
//! accelerator pool of 1, 2, and 4 devices (`DeviceModel::Devices(n)`,
//! least-loaded placement).
//!
//! Four concurrent streams (one shard worker each, pipelined engines)
//! issue detect and classify charges against the pool; under the Latency
//! clock every charge holds one device slot for its simulated duration,
//! so the single-device row serializes every model call while the
//! 4-device row lets every stream's in-flight model call sleep on its own
//! slot. The speedup column is
//! therefore a direct read of how much device parallelism the placement
//! layer actually extracts from the serving stack — decode and tracker
//! work stay host-side and are the non-scaling remainder.
//!
//! Results land in the `"device_scale"` section of `BENCH_serve.json`
//! (`table` rows carry `devices` + `speedup`, which the regression gate
//! ratio-checks; per-device busy/queued splits ride along as evidence
//! that placement spread the load rather than pinning one slot).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vqpy_bench::bench_scale;
use vqpy_bench::report::{merge_section, section, table};
use vqpy_bench::workloads::straight_car_query;
use vqpy_core::{ExecConfig, ExecMode, SessionConfig, VqpySession};
use vqpy_models::{Clock, ClockMode, DeviceModel, ModelZoo};
use vqpy_serve::{
    Backpressure, PaceMode, ServeConfig, StreamSupervisor, Subscription, SupervisorConfig,
    Telemetry,
};
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{presets, Scene};

/// Device-pool sizes under test; the first is the speedup denominator.
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];
/// Concurrent streams contending for the pool — one shard worker each.
const STREAMS: usize = 4;
const BATCH_SIZE: usize = 2;
const WORKERS: usize = 2;

struct RunResult {
    fps: f64,
    wall_s: f64,
    /// Per-device busy milliseconds at the end of the run.
    busy_ms: Vec<f64>,
}

fn run(devices: usize, seconds: f64) -> RunResult {
    let clock =
        Arc::new(Clock::with_mode(ClockMode::Latency).with_device(DeviceModel::Devices(devices)));
    let config = SessionConfig {
        exec: ExecConfig {
            batch_size: BATCH_SIZE,
            exec_mode: ExecMode::Pipelined { workers: WORKERS },
            ..ExecConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = Arc::new(VqpySession::with_clock(ModelZoo::standard(), config, clock));
    let supervisor = StreamSupervisor::new(
        Arc::clone(&session),
        SupervisorConfig {
            serve: ServeConfig {
                // One shard per stream: the pool, not the scheduler, must
                // be the bottleneck under test.
                shards: STREAMS,
                channel_capacity: 64,
                backpressure: Backpressure::Drop, // nobody drains during the timed run
                batches_per_step: 4,
                telemetry: Telemetry::disabled(),
                ..ServeConfig::default()
            },
            // No shared batcher: per-stream dispatch keeps one in-flight
            // physical call per stream, which is exactly the concurrency
            // the device pool should absorb.
            ..SupervisorConfig::default()
        },
    );

    let videos: Vec<Arc<dyn VideoSource>> = (0..STREAMS)
        .map(|i| {
            Arc::new(SyntheticVideo::new(Scene::generate(
                presets::jackson(),
                3000 + i as u64,
                seconds,
            ))) as Arc<dyn VideoSource>
        })
        .collect();
    let total_frames: u64 = videos.iter().map(|v| v.frame_count()).sum();
    let query = straight_car_query();

    let start = Instant::now();
    // Hold the subscriptions (undrained — the Drop policy sheds whatever
    // overflows) so deliveries actually happen.
    let mut subs: Vec<(vqpy_serve::StreamId, Vec<Subscription>)> = Vec::new();
    for v in videos {
        let pair = supervisor
            .add_stream(v, PaceMode::Unpaced, &[Arc::clone(&query)])
            .expect("add stream");
        subs.push(pair);
    }
    for (id, _) in &subs {
        supervisor.join_stream(*id).expect("stream run");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let busy_ms = session
        .clock()
        .device_stats()
        .iter()
        .map(|d| d.busy_ms)
        .collect();
    drop(subs);
    RunResult {
        fps: total_frames as f64 / wall_s,
        wall_s,
        busy_ms,
    }
}

fn busy_json(busy_ms: &[f64]) -> String {
    let cells: Vec<String> = busy_ms.iter().map(|b| format!("{b:.1}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    let seconds = 30.0 * bench_scale();
    section("Device scaling (DeviceModel::Devices(n), least-loaded placement)");
    println!(
        "{seconds:.0}s @30fps x {STREAMS} streams, StraightCar query, \
         pipelined({WORKERS}) engines, batch {BATCH_SIZE}, latency clock"
    );

    let frames_per_stream =
        SyntheticVideo::new(Scene::generate(presets::jackson(), 3000, seconds)).frame_count();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut base_fps = None;
    for &n in &DEVICE_COUNTS {
        let r = run(n, seconds);
        let base = *base_fps.get_or_insert(r.fps);
        let speedup = r.fps / base;
        // Placement sanity: every device in the pool did real work — a
        // pinned pool would show one busy slot and n-1 idle ones.
        assert_eq!(r.busy_ms.len(), n, "pool size must match the model");
        assert!(
            r.busy_ms.iter().all(|&b| b > 0.0),
            "idle device in a {n}-device pool: {:?}",
            r.busy_ms
        );
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", r.fps),
            format!("{speedup:.3}x"),
            format!("{:.2}", r.wall_s),
            busy_json(&r.busy_ms),
        ]);
        json_rows.push(format!(
            "      {{\"devices\": {n}, \"fps\": {:.2}, \"speedup\": {speedup:.4}, \
             \"wall_s\": {:.2}, \"busy_ms\": {}}}",
            r.fps,
            r.wall_s,
            busy_json(&r.busy_ms),
        ));
        // The headline property: four streams' worth of device sleeps must
        // overlap on a 4-slot pool. Tiny smoke runs are too noisy to gate.
        if n == 4 && frames_per_stream >= 100 {
            assert!(
                speedup >= 1.6,
                "4-device pool under 1.6x over one device: {speedup:.3}x"
            );
        }
    }
    table(&["devices", "fps", "speedup", "wall s", "busy ms"], &rows);

    let value = format!(
        "{{\n    \"bench\": \"serve_device_scaling\",\n    \
         \"video_seconds\": {seconds:.1},\n    \"frames_per_stream\": {frames_per_stream},\n    \
         \"streams\": {STREAMS},\n    \
         \"query\": \"StraightCar (non-memoizable direction)\",\n    \
         \"exec\": \"pipelined({WORKERS}), batch {BATCH_SIZE}, 4 batches/step\",\n    \
         \"clock\": \"latency, Devices(n), least-loaded placement\",\n    \
         \"table\": [\n{}\n    ]\n  }}",
        json_rows.join(",\n"),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    merge_section(&path, "device_scale", &value);
    println!();
    println!("merged \"device_scale\" into {}", path.display());
}
