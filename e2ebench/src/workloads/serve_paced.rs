//! `serve_paced` — sixty-four live cameras at 15 fps on a one-shard
//! `StreamSupervisor` (open loop, 960 frames/s, about a tenth of the
//! shard's saturated capacity), every subscription busy-polled by the
//! bench thread.
//!
//! The only workload where timer wheel, shard wake-up and channel
//! hand-off decide the result. Its frame rate is set by the pace, so
//! `frames_per_s` is a sustained-rate check that cannot improve; what
//! can move is CPU per frame at live rates, and delivery latency (a
//! per-layer ledger: late deliveries and shed ticks are timing, not
//! wrong output, so they are reported, never counted as failed).
//!
//! 256 streams (55 % of capacity) was tried and rejected: two of four
//! runs tipped into overload.

use super::layers::{clock_delta, Layers};
use super::serving::{due_offset_us, expected_per_stream, supervise, Supervised, Supervision};
use super::{Ctx, Parts};
use crate::inputs::{q6, scenes, FPS};
use crate::oracle::Expected;
use crate::run::{Rep, Report, Stopwatch};
use crate::stats::{best, median, quantile, ratio, Better};
use crate::sys::IdleBurners;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqpy_core::{ExecConfig, ExecMetrics, Query};
use vqpy_models::{Clock, ClockMode, ModelZoo};
use vqpy_serve::{Backpressure, PaceMode, ServeConfig, SupervisorConfig};
use vqpy_video::{presets, Scene};

const STREAMS: usize = 64;
const FRAMES_PER_STEP: u64 = 2;
/// Cold set-ups timed before the measured run.
const SETUPS: usize = 20;
/// Start-up seconds left out of the latency percentiles and the CPU
/// windows: sixty-four streams compile their plans in the first ticks.
const WARMUP_S: f64 = 3.0;
/// Length of one CPU-accounting window.
const WINDOW_S: f64 = 0.5;
/// How far a stream's load may sit from the preset's nominal load.
const LOAD_TOLERANCE: f64 = 0.08;

fn exec_config() -> ExecConfig {
    ExecConfig {
        batch_size: FRAMES_PER_STEP as usize,
        ..ExecConfig::default()
    }
}

/// Starts the supervisor and adds every stream. The measured run spreads
/// the streams' starts evenly over one step period — sixty-four cameras
/// are not in phase; added all at once they would fall due together
/// every 133 ms and mostly measure queueing behind each other.
fn start(parts: Parts<'_>, scenes: &[Scene], queries: &[Arc<Query>], stagger: bool) -> Supervised {
    let period = Duration::from_secs_f64(limit_ms() / 1e3);
    supervise(
        parts,
        scenes,
        queries,
        Supervision {
            exec: exec_config(),
            clock: Clock::with_mode(ClockMode::Virtual),
            config: SupervisorConfig {
                serve: ServeConfig {
                    shards: 1,
                    batches_per_step: 1,
                    backpressure: Backpressure::Block,
                    ..ServeConfig::default()
                },
                ..SupervisorConfig::default()
            },
            pace: PaceMode::Fps(FPS as f32),
            stagger: if stagger {
                period / scenes.len() as u32
            } else {
                Duration::ZERO
            },
        },
    )
}

/// What one paced run measured.
struct Run {
    rep: Rep,
    host_us_windows: Vec<f64>,
    /// Receive time minus due time of every hit after the warm-up, ms.
    delivery_ms: Vec<f64>,
    /// Traced: due → first decode of the step, and first decode →
    /// receive, µs.
    sched_late_us: Vec<f64>,
    exec_to_recv_us: Vec<f64>,
    /// Traced: gaps between consecutive sweeps of the consumer, µs.
    consumer_gap_us: Vec<f64>,
    backlog_max: u64,
    ticks_shed: u64,
    spinner_ran: bool,
    /// Deliveries later than the limit, and deliveries in all.
    late: u64,
    deliveries: u64,
    shard_cpu_share: f64,
    events: u64,
    colour_mismatches: u64,
    exec: ExecMetrics,
    charges: std::collections::HashMap<String, vqpy_models::clock::ChargeStat>,
    log: Option<Arc<crate::timed::DetectionLog>>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    // A traced run is two paced runs, plain then traced, of half the
    // seconds each.
    let run_s = if ctx.trace.is_some() {
        ctx.scale.seconds / 2.0
    } else {
        ctx.scale.seconds
    };
    let full = (run_s * FPS as f64) as u64 / FRAMES_PER_STEP * FRAMES_PER_STEP;
    let frames = ctx.scale.frames(full.max(FRAMES_PER_STEP), 30);
    let streams = if ctx.scale.smoke { 4 } else { STREAMS };
    let preset = presets::banff();
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

    // Cold set-ups: everything up to the last `add_stream`, then torn
    // down again.
    let setups = if ctx.scale.smoke { 2 } else { SETUPS };
    for _ in 0..setups {
        let s = start(Parts::plain(), &scenes, &queries, false);
        report.setups.push(s.setup_s);
    }
    let plain = paced_run(Parts::plain(), &scenes, &queries, &expected, &mut report);
    report.reps = vec![plain.rep];
    report.host_us_windows = plain.host_us_windows.clone();
    report.info.push(format!(
        "{streams} banff streams x {frames} frames x {} queries at {FPS} fps, batch 2 x 1, 1 shard, \
         open loop; {} latency samples after {WARMUP_S} s, {} CPU windows of {WINDOW_S} s",
        queries.len(),
        plain.delivery_ms.len(),
        plain.host_us_windows.len()
    ));
    report.info.push(format!(
        "delivery latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms; {} of {} \
         deliveries later than one step period ({:.1} ms), {} ticks shed, idle spinner {}",
        median(&plain.delivery_ms),
        quantile(&plain.delivery_ms, 0.95),
        quantile(&plain.delivery_ms, 0.99),
        quantile(&plain.delivery_ms, 1.0),
        plain.late,
        plain.deliveries,
        limit_ms(),
        plain.ticks_shed,
        if plain.spinner_ran {
            "on"
        } else {
            "off (SCHED_IDLE refused)"
        }
    ));

    if let Some(trace) = &ctx.trace {
        let traced = paced_run(
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
        layers.set(
            "models.color_oracle_mismatch_subs",
            traced.colour_mismatches as f64,
        );
        if let Some(log) = &traced.log {
            layers.from_tracker_replay(log);
        }
        layers.set("serve.delivery_p50_ms", median(&traced.delivery_ms));
        layers.set("serve.delivery_p95_ms", quantile(&traced.delivery_ms, 0.95));
        layers.set("serve.delivery_p99_ms", quantile(&traced.delivery_ms, 0.99));
        layers.set("serve.delivery_max_ms", quantile(&traced.delivery_ms, 1.0));
        layers.set("serve.delivery_samples", traced.delivery_ms.len() as f64);
        layers.set(
            "serve.delivery_late_share",
            ratio(traced.late as f64, traced.deliveries as f64),
        );
        layers.set("serve.sched_late_us_p50", median(&traced.sched_late_us));
        layers.set(
            "serve.sched_late_us_p99",
            quantile(&traced.sched_late_us, 0.99),
        );
        layers.set("serve.exec_to_recv_us_p50", median(&traced.exec_to_recv_us));
        layers.set(
            "bench.consumer_gap_us_p99",
            quantile(&traced.consumer_gap_us, 0.99),
        );
        layers.set("serve.ticks_shed", traced.ticks_shed as f64);
        layers.set("serve.backlog_max", traced.backlog_max as f64);
        layers.set("serve.shard_cpu_share", traced.shard_cpu_share);
        layers.set(
            "serve.events_per_frame",
            ratio(traced.events as f64, n as f64),
        );
        layers.from_add_stream(trace);
        layers.from_first_frame(&scenes[0]);
        let host = |r: &Run| best(&r.host_us_windows, Better::Lower);
        layers.set(
            "obs.trace_overhead_pct",
            ratio(host(&traced) - host(&plain), host(&plain)) * 100.0,
        );
        layers.set(
            "bench.rep_spread_pct",
            crate::stats::spread_pct(&plain.host_us_windows),
        );
        layers.set(
            "bench.wall_over_cpu",
            ratio(plain.rep.wall_s, plain.rep.cpu_s),
        );
        report.layers = layers.0;
    }
    report
}

/// The latency limit: one step period.
fn limit_ms() -> f64 {
    FRAMES_PER_STEP as f64 / FPS as f64 * 1e3
}

fn paced_run(
    parts: Parts<'_>,
    scenes: &[Scene],
    queries: &[Arc<Query>],
    expected: &[Vec<Expected>],
    report: &mut Report,
) -> Run {
    // The consumer keeps one core busy; spinners keep the shard's from
    // halting between steps (see `IdleBurners`).
    let burners = IdleBurners::start();
    let sw = Stopwatch::start();
    let mut s = start(parts, scenes, queries, true);
    let started = s.added[0];
    let clock = s.session.clock_handle();
    let charges_before = clock.labeled_stats();
    let trace = parts.trace();
    let added_ns: Vec<u64> =
        trace.map_or_else(Vec::new, |t| s.added.iter().map(|&a| t.ns_of(a)).collect());
    let (mut delivery_ms, mut sched_late_us, mut exec_to_recv_us, mut consumer_gap_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut late, mut deliveries, mut backlog_max) = (0u64, 0u64, 0u64);
    let mut last_delivery = started;
    let mut host_us_windows = Vec::new();
    let mut window = (Instant::now(), Stopwatch::start(), 0u64, burners.cpu_ns());
    let mut previous_sweep = Instant::now();
    parts.timed_phase(|| {
        while !s.inbox.all_done() {
            let sweep_at = Instant::now();
            if trace.is_some() {
                consumer_gap_us.push((sweep_at - previous_sweep).as_secs_f64() * 1e6);
            }
            previous_sweep = sweep_at;
            let (added, sources) = (&s.added, &s.sources);
            s.inbox.sweep(|stream, frame| {
                let received = Instant::now();
                let due = added[stream]
                    + Duration::from_micros(due_offset_us(frame, FRAMES_PER_STEP, FPS as f64));
                let ms = received.saturating_duration_since(due).as_secs_f64() * 1e3;
                late += u64::from(ms > limit_ms());
                deliveries += 1;
                last_delivery = received;
                if (received - started).as_secs_f64() < WARMUP_S {
                    return;
                }
                delivery_ms.push(ms);
                if let (Some(t), Some(source)) = (trace, &sources[stream]) {
                    let first = frame / FRAMES_PER_STEP * FRAMES_PER_STEP;
                    if let Some(decoded) = source.first_decode_ns(first) {
                        let due_ns = added_ns[stream]
                            + due_offset_us(frame, FRAMES_PER_STEP, FPS as f64) * 1_000;
                        sched_late_us.push(decoded.saturating_sub(due_ns) as f64 / 1e3);
                        exec_to_recv_us
                            .push(t.ns_of(received).saturating_sub(decoded) as f64 / 1e3);
                    }
                }
            });
            // Once a window: CPU the system burned per frame it executed.
            if sweep_at.duration_since(window.0).as_secs_f64() >= WINDOW_S {
                let frames = s.supervisor.server().aggregate().frames_total;
                let executed = frames - window.2;
                if (sweep_at - started).as_secs_f64() >= WARMUP_S + WINDOW_S && executed > 0 {
                    host_us_windows.push(
                        window.1.cpu_s_of_the_system(&burners, window.3) * 1e6 / executed as f64,
                    );
                }
                backlog_max = backlog_max.max(s.supervisor.load().queue_depth);
                window = (sweep_at, Stopwatch::start(), frames, burners.cpu_ns());
            }
        }
    });
    let first_due = started + Duration::from_micros(due_offset_us(0, FRAMES_PER_STEP, FPS as f64));
    let cpu_s = sw.cpu_s_of_the_system(&burners, 0);
    let wall_s = last_delivery
        .saturating_duration_since(first_due)
        .as_secs_f64();
    let rep = Rep {
        wall_s,
        cpu_s,
        frames: s.offered,
        device_ms: clock.virtual_ms(),
    };
    if host_us_windows.is_empty() {
        // A run too short for a window (smoke): the whole run is one.
        host_us_windows.push(ratio(cpu_s * 1e6, s.offered as f64));
    }

    let metrics: Vec<_> = s
        .ids
        .iter()
        .map(|&id| s.supervisor.metrics(id).expect("metrics"))
        .collect();
    let load = s.supervisor.load();
    let checks = &mut report.checks;
    checks.attempt(s.offered);
    let executed: u64 = metrics.iter().map(|m| m.frames_total).sum();
    checks.fail(s.offered.abs_diff(executed), || {
        format!("{executed} of {} frames executed", s.offered)
    });
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
        host_us_windows,
        delivery_ms,
        sched_late_us,
        exec_to_recv_us,
        consumer_gap_us,
        backlog_max,
        ticks_shed: load.ticks_shed,
        late,
        deliveries,
        spinner_ran: burners.cpu_ns() > 0,
        // One shard thread: the share of the run it was on a CPU.
        shard_cpu_share: ratio(cpu_s, sw.wall_s()),
        events: s.inbox.events(),
        colour_mismatches,
        exec,
        charges: clock_delta(&charges_before, &clock.labeled_stats()),
        log: s.log.take(),
    }
}
