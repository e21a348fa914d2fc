//! `serve_saturated` — single-core serving capacity: sixteen streams on
//! one `StreamServer`, stepped round-robin by the one bench thread, which
//! also drains every subscription after each round (closed loop, one
//! client).
//!
//! Banff decodes in about half the time of the other presets, so step,
//! demux, channel and operator work are the largest share of a frame
//! here and the smallest in `offline_shared`.

use super::layers::{clock_delta, Counters, Layers};
use super::serving::{expected_per_stream, session, Inbox};
use super::{repeat, Ctx, Parts, Sample};
use crate::inputs::{q6, scenes};
use crate::oracle::Expected;
use crate::run::{Checks, Rep, Report, Stopwatch};
use crate::stats::{median, quantile, ratio};
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::{ExecConfig, ExecMetrics, Query};
use vqpy_models::{Clock, ClockMode};
use vqpy_serve::{Backpressure, ServeConfig, StreamOptions, StreamServer};
use vqpy_video::{presets, Scene};

const STREAMS: usize = 16;
const FRAMES_PER_STREAM: u64 = 304;
const BATCHES_PER_STEP: u64 = 4;
/// How far a stream's load may sit from the preset's nominal load.
const LOAD_TOLERANCE: f64 = 0.04;

fn exec_config() -> ExecConfig {
    ExecConfig {
        batch_size: 2,
        ..ExecConfig::default()
    }
}

#[derive(Default)]
struct Extra {
    serve_setup_ms: f64,
    counters: Counters,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let frames = ctx.scale.frames(FRAMES_PER_STREAM, 32);
    let streams = if ctx.scale.smoke { 3 } else { STREAMS };
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
    let checks = &mut report.checks;
    let passes = repeat(ctx, |parts| {
        one(parts, &scenes, &queries, &expected, checks)
    });
    passes.fill_report(&mut report);
    report.info.push(format!(
        "{streams} banff streams x {frames} frames x {} queries, batch 2 x {BATCHES_PER_STEP}, \
         Block, closed loop, {} repetitions",
        queries.len(),
        passes.plain.len()
    ));

    if let Some(trace) = &ctx.trace {
        let mut layers = Layers::default();
        let folded = layers.from_repetitions(trace, &passes, |e| &e.counters, &scenes[0]);
        let n = folded.frames as f64;
        let step_us: Vec<f64> = trace.read(|spans| {
            spans
                .iter()
                .filter(|s| s.timed && s.name == "serve.step")
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        });
        layers.set("serve.step_us_p50", median(&step_us));
        layers.set("serve.step_us_p99", quantile(&step_us, 0.99));
        let step = folded.timed.get("serve.step").copied().unwrap_or_default();
        layers.set(
            "serve.step_self_us_per_frame",
            (ratio(step.self_ns as f64 / 1e3, n) - folded.tracker_us).max(0.0),
        );
        let drain = folded.timed.get("serve.drain").copied().unwrap_or_default();
        layers.set(
            "serve.drain_us_per_event",
            ratio(drain.total_ns as f64 / 1e3, drain.items as f64),
        );
        layers.set(
            "serve.attach_ms",
            median(
                &passes
                    .traced
                    .iter()
                    .map(|s| s.extra.serve_setup_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        report.info.push(folded.self_time_check);
        report.layers = layers.0;
    }
    report
}

fn one(
    parts: Parts<'_>,
    scenes: &[Scene],
    queries: &[Arc<Query>],
    expected: &[Vec<Expected>],
    checks: &mut Checks,
) -> Sample<Extra> {
    // Set-up: zoo, session, server, and for every stream open + attach +
    // the first step (which compiles the stream's super-plan).
    let setup = Stopwatch::start();
    let (zoo, log) = parts.zoo();
    let session = session(zoo, exec_config(), Clock::with_mode(ClockMode::Virtual));
    let server = StreamServer::new(
        Arc::clone(&session),
        ServeConfig {
            batches_per_step: BATCHES_PER_STEP,
            backpressure: Backpressure::Block,
            ..ServeConfig::default()
        },
    );
    let serve_setup = Instant::now();
    let mut ids = Vec::with_capacity(scenes.len());
    let mut subs = Vec::with_capacity(scenes.len());
    let mut offered = 0;
    for (i, scene) in scenes.iter().enumerate() {
        let (video, _) = parts.source(scene);
        if i == 0 {
            if let Some(log) = &log {
                log.watch(video.video_id());
            }
        }
        offered += video.frame_count();
        let id = server.open_stream_with(
            video,
            StreamOptions {
                dispatch: parts.dispatch(),
            },
        );
        let stream_subs: Vec<_> = queries
            .iter()
            .map(|q| server.attach(id, q).expect("attach").into_inner())
            .collect();
        let _span = parts.span("serve.step", id as u32, 0, 0);
        server.step(id).expect("first step");
        ids.push(id);
        subs.push(stream_subs);
    }
    let serve_setup_ms = serve_setup.elapsed().as_secs_f64() * 1e3;
    let setup_s = setup.cpu_s();

    let mut inbox = Inbox::new(subs);
    let frames_before: u64 = ids
        .iter()
        .map(|&id| server.position(id).expect("position"))
        .sum();
    let clock = session.clock();
    let (charges_before, ms_before) = (clock.labeled_stats(), clock.virtual_ms());
    let sw = Stopwatch::start();
    let ((), allocs) = parts.timed_phase(|| {
        let mut live = ids.clone();
        while !live.is_empty() {
            live.retain(|&id| {
                let _span = parts.span("serve.step", id as u32, 0, 0);
                !server.step(id).expect("step").finished
            });
            let mut span = parts.span("serve.drain", 0, 0, 0);
            let events = inbox.sweep(|_, _| {});
            if let Some(span) = &mut span {
                span.set_items(events as u32);
            }
        }
    });
    let rep = Rep {
        wall_s: sw.wall_s(),
        cpu_s: sw.cpu_s(),
        frames: offered - frames_before,
        device_ms: clock.virtual_ms() - ms_before,
    };
    if let Some(log) = &log {
        log.stop();
    }

    inbox.sweep(|_, _| {});
    let metrics: Vec<_> = ids
        .iter()
        .map(|&id| server.metrics(id).expect("metrics"))
        .collect();
    checks.attempt(offered);
    let executed: u64 = metrics.iter().map(|m| m.frames_total).sum();
    checks.fail(offered.abs_diff(executed), || {
        format!("{executed} of {offered} frames executed")
    });
    checks.fail(u64::from(!inbox.all_done()), || {
        "subscriptions without a terminal event".into()
    });
    let colour_mismatches = inbox.check_oracle(checks, expected);
    inbox.check_delivery(checks, &metrics);
    let mut exec = ExecMetrics::default();
    for &id in &ids {
        exec.absorb(&server.exec_metrics(id).expect("exec metrics"));
    }
    Sample {
        setup_s,
        rep,
        extra: Extra {
            serve_setup_ms,
            counters: Counters {
                charges: clock_delta(&charges_before, &clock.labeled_stats()),
                exec,
                allocs,
                colour_mismatches,
                events: inbox.events(),
                log,
            },
        },
    }
}
