//! `serve_device` — the device-bound workload: four streams with
//! pipelined engines on four shards, one shared cross-stream
//! `ModelBatcher`, and a latency clock over a single simulated
//! accelerator, so model time is real sleeping on one device.
//!
//! The bypass workload for every host-path optimisation (prediction: no
//! change in `frames_per_s`, which the device sets) and the only guard
//! on pipelined overlap and cross-stream coalescing. CPU per frame is
//! several times the virtual-clock cost: threads are spawned per step.

use super::layers::{clock_delta, Layers};
use super::serving::{expected_per_stream, supervise, Supervised, Supervision};
use super::{Ctx, Parts};
use crate::inputs::{q6, scenes};
use crate::oracle::Expected;
use crate::run::{Rep, Report, Stopwatch};
use crate::stats::ratio;
use std::sync::Arc;
use std::time::Duration;
use vqpy_core::{ExecConfig, ExecMetrics, ExecMode, Query};
use vqpy_models::{Clock, ClockMode, DeviceModel, ModelZoo};
use vqpy_serve::{Backpressure, BatcherConfig, PaceMode, ServeConfig, SupervisorConfig};
use vqpy_video::{presets, Scene};

const STREAMS: usize = 4;
const FRAMES_PER_STEP: u64 = 8;
/// Frames the device gets through per second, all streams together
/// (sizes the run so that it lasts about `--seconds`).
const DEVICE_FRAMES_PER_S: f64 = 10.5;
/// Cold set-ups timed before the measured run.
const SETUPS: usize = 40;
/// How far a stream's load may sit from the preset's nominal load.
const LOAD_TOLERANCE: f64 = 0.04;

fn exec_config() -> ExecConfig {
    ExecConfig {
        batch_size: 2,
        exec_mode: ExecMode::Pipelined { workers: 2 },
        ..ExecConfig::default()
    }
}

fn start(parts: Parts<'_>, scenes: &[Scene], queries: &[Arc<Query>]) -> Supervised {
    supervise(
        parts,
        scenes,
        queries,
        Supervision {
            exec: exec_config(),
            clock: Clock::with_mode(ClockMode::Latency).with_device(DeviceModel::Devices(1)),
            config: SupervisorConfig {
                serve: ServeConfig {
                    shards: STREAMS,
                    batches_per_step: FRAMES_PER_STEP / 2,
                    backpressure: Backpressure::Block,
                    ..ServeConfig::default()
                },
                batcher: Some(BatcherConfig {
                    max_batch_frames: 64,
                    window: Duration::from_millis(1),
                    ..BatcherConfig::default()
                }),
                ..SupervisorConfig::default()
            },
            pace: PaceMode::Unpaced,
            stagger: Duration::ZERO,
        },
    )
}

/// What one run measured.
struct Run {
    rep: Rep,
    supervised: Supervised,
    colour_mismatches: u64,
    exec: ExecMetrics,
    charges: std::collections::HashMap<String, vqpy_models::clock::ChargeStat>,
    wall_s: f64,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let run_s = if ctx.trace.is_some() {
        ctx.scale.seconds / 2.0
    } else {
        ctx.scale.seconds
    };
    let per_stream = (run_s * DEVICE_FRAMES_PER_S / STREAMS as f64) as u64;
    let full = (per_stream / FRAMES_PER_STEP).max(1) * FRAMES_PER_STEP;
    let frames = ctx.scale.frames(full, FRAMES_PER_STEP);
    let streams = if ctx.scale.smoke { 2 } else { STREAMS };
    let preset = presets::jackson();
    let scenes = scenes(
        &preset,
        ctx.seed,
        streams,
        frames,
        ctx.scale.load_tolerance(LOAD_TOLERANCE),
    );
    let queries = q6(&preset);
    let expected = expected_per_stream(&exec_config(), &queries, &scenes);
    let mut report = Report::default();

    // Cold set-ups over empty videos: tearing a supervisor down waits
    // for the steps in flight, and a step here sleeps for most of a
    // second. What `add_stream` costs does not depend on the video.
    let stubs = crate::inputs::scenes(&preset, ctx.seed, streams, 0, f64::INFINITY);
    let setups = if ctx.scale.smoke { 2 } else { SETUPS };
    for _ in 0..setups {
        let s = start(Parts::plain(), &stubs, &queries);
        report.setups.push(s.setup_s);
    }

    let plain = device_run(Parts::plain(), &scenes, &queries, &expected, &mut report);
    report.reps = vec![plain.rep];
    report.info.push(format!(
        "{streams} jackson streams x {frames} frames x {} queries, pipelined(2), batch 2 x 4, \
         {streams} shards, shared batcher (64 frames, 1 ms), latency clock on 1 device, unpaced",
        queries.len()
    ));

    if let Some(trace) = &ctx.trace {
        let traced = device_run(
            Parts::traced(trace),
            &scenes,
            &queries,
            &expected,
            &mut report,
        );
        let mut layers = Layers::default();
        let n = traced.rep.frames;
        layers.from_spans(trace, n);
        layers.from_clock(&ModelZoo::standard(), &traced.charges, n);
        layers.from_exec(&traced.exec);
        layers.from_devices(traced.supervised.session.clock(), traced.wall_s);
        layers.from_first_frame(&scenes[0]);
        layers.from_add_stream(trace);
        layers.set(
            "models.color_oracle_mismatch_subs",
            traced.colour_mismatches as f64,
        );
        if let Some(log) = &traced.supervised.log {
            layers.from_tracker_replay(log);
        }
        if let Some(stats) = traced.supervised.supervisor.batcher_stats() {
            layers.set(
                "serve.batcher_coalesced_detect",
                stats.detect.mean_coalesced(),
            );
            layers.set(
                "serve.batcher_coalesced_classify",
                stats.classify.mean_coalesced(),
            );
            layers.set(
                "serve.batcher_max_batch_frames",
                stats.max_batch_frames as f64,
            );
            layers.set("serve.breaker_trips", stats.faults.breaker_trips as f64);
            layers.set("serve.model_faults", stats.faults.model_faults as f64);
        }
        layers.set(
            "serve.events_per_frame",
            ratio(traced.supervised.inbox.events() as f64, n as f64),
        );
        // Four shard threads (and the workers they spawn) over the run.
        layers.set(
            "serve.shard_cpu_share",
            ratio(traced.rep.cpu_s, traced.wall_s * STREAMS as f64),
        );
        let host = |r: &Rep| ratio(r.cpu_s * 1e6, r.frames as f64);
        layers.set(
            "obs.trace_overhead_pct",
            ratio(host(&traced.rep) - host(&plain.rep), host(&plain.rep)) * 100.0,
        );
        layers.set(
            "bench.wall_over_cpu",
            ratio(plain.rep.wall_s, plain.rep.cpu_s),
        );
        report.layers = layers.0;
    }
    report
}

fn device_run(
    parts: Parts<'_>,
    scenes: &[Scene],
    queries: &[Arc<Query>],
    expected: &[Vec<Expected>],
    report: &mut Report,
) -> Run {
    // Everything here sleeps on the device most of the time; spinners
    // keep the cores from halting in between (see `IdleBurners`).
    let burners = crate::sys::IdleBurners::start();
    let sw = Stopwatch::start();
    let mut s = start(parts, scenes, queries);
    let clock = s.session.clock_handle();
    let charges_before = clock.labeled_stats();
    // The shards drive the streams; this thread only waits for them (a
    // channel holds a stream's whole output, so nothing blocks on it).
    let (metrics, _) = parts.timed_phase(|| {
        s.ids
            .iter()
            .map(|&id| {
                s.supervisor
                    .join_stream(id)
                    .expect("the stream ran to its end")
            })
            .collect::<Vec<_>>()
    });
    let wall_s = sw.wall_s();
    let rep = Rep {
        wall_s,
        cpu_s: sw.cpu_s_of_the_system(&burners, 0),
        frames: s.offered,
        device_ms: clock.virtual_ms(),
    };
    s.inbox.sweep(|_, _| {});

    let checks = &mut report.checks;
    checks.attempt(s.offered);
    let executed: u64 = metrics.iter().map(|m| m.frames_total).sum();
    checks.fail(s.offered.abs_diff(executed), || {
        format!("{executed} of {} frames executed", s.offered)
    });
    checks.fail(u64::from(!s.inbox.all_done()), || {
        "subscriptions without a terminal event".into()
    });
    if let Some(stats) = s.supervisor.batcher_stats() {
        checks.fail(
            stats.faults.model_faults + stats.faults.breaker_trips,
            || "model faults or breaker trips".into(),
        );
    }
    let colour_mismatches = s.inbox.check_oracle(checks, expected);
    s.inbox.check_delivery(checks, &metrics);
    let mut exec = ExecMetrics::default();
    for &id in &s.ids {
        exec.absorb(
            &s.supervisor
                .server()
                .exec_metrics(id)
                .expect("exec metrics"),
        );
    }
    Run {
        rep,
        colour_mismatches,
        exec,
        charges: clock_delta(&charges_before, &clock.labeled_stats()),
        wall_s,
        supervised: s,
    }
}
