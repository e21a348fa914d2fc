//! `offline_shared` — the paper's primary mode: nine queries planned and
//! executed as one shared offline pipeline over five minutes of one busy
//! intersection.
//!
//! Decode is the largest single cost here and there is no serving layer
//! at all; `setup_s` is the planner: three extensions are registered, so
//! `plan_for` enumerates and canary-profiles sixteen candidate plans.
//! The canary's accuracy target is 1.0, so the plan that ships is the one
//! whose results equal the reference on the canary — the chosen plan then
//! does not flip from seed to seed and the oracle can stay strict.

use super::layers::{clock_delta, Counters, Layers};
use super::{repeat, Ctx, Parts, Sample};
use crate::inputs::{offline_queries, scenes};
use crate::oracle::{self, colour_mismatch, Expected, Received};
use crate::run::{Checks, Rep, Report, Stopwatch};
use crate::stats::{median, ratio};
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::{
    BinaryFilterReg, ExecConfig, FrameFilterReg, Query, SessionConfig, SpecializedNnReg,
    VqpySession,
};
use vqpy_models::{Clock, ClockMode, Value};
use vqpy_video::{presets, Scene, SyntheticVideo};

/// Frames of the one video (300 s at 15 fps).
const FRAMES: u64 = 4_500;
/// How far the scene's load may sit from the preset's nominal load.
const LOAD_TOLERANCE: f64 = 0.01;

fn exec_config() -> ExecConfig {
    ExecConfig {
        batch_size: 8,
        ..ExecConfig::default()
    }
}

/// A fresh session with the three optimisation extensions registered.
fn session(zoo: Arc<vqpy_models::ModelZoo>) -> VqpySession {
    let session = VqpySession::with_clock(
        zoo,
        SessionConfig {
            exec: exec_config(),
            accuracy_target: 1.0,
            enable_result_cache: false,
            ..SessionConfig::default()
        },
        Arc::new(Clock::with_mode(ClockMode::Virtual)),
    );
    let ext = session.extensions();
    ext.register_specialized_nn(SpecializedNnReg {
        schema: "Vehicle".into(),
        detector: "red_car_detector".into(),
        prop: "color".into(),
        value: Value::from("red"),
    });
    ext.register_binary_filter(BinaryFilterReg {
        schema: "Vehicle".into(),
        model: "no_red_on_road".into(),
    });
    ext.register_frame_filter(FrameFilterReg { threshold: 0.4 });
    session
}

/// What a repetition keeps beyond its timings.
#[derive(Default)]
struct Extra {
    plan_for_ms: f64,
    candidates: usize,
    plan_ops: usize,
    counters: Counters,
}

fn received(r: &vqpy_core::QueryResult) -> Received {
    Received {
        hits: r.frame_hits.clone(),
        terminals: 1,
        video_value: r.video_value.clone(),
        ..Received::default()
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let frames = ctx.scale.frames(FRAMES, 60);
    let scene = scenes(
        &presets::auburn(),
        ctx.seed,
        1,
        frames,
        ctx.scale.load_tolerance(LOAD_TOLERANCE),
    )
    .remove(0);
    let queries = offline_queries(&scene);
    let mut report = Report::default();

    // The oracle: the whole video through a plain session — no
    // extensions, so the reference plan. (Each query run *alone* is not
    // an oracle for this system: a shared plan feeds the tracker every
    // `car` query's detections, a single-query plan only its own, so
    // track ids — and everything keyed by them — differ. README.md,
    // "Correctness".)
    let reference_video = SyntheticVideo::new(scene.clone());
    let expected = oracle::expected_shared(&exec_config(), &queries, &reference_video);

    let checks = &mut report.checks;
    let passes = repeat(ctx, |parts| one(parts, &scene, &queries, &expected, checks));
    passes.fill_report(&mut report);
    report.info.push(format!(
        "{} queries, one plan, {frames} frames of auburn, batch 8, {} repetitions",
        queries.len(),
        passes.plain.len()
    ));

    if let Some(trace) = &ctx.trace {
        let mut layers = Layers::default();
        let folded = layers.from_repetitions(trace, &passes, |e| &e.counters, &scene);
        // Plan construction alone, on a session without extensions: what
        // is left of `plan_for` is enumeration plus canary profiling.
        let t = Instant::now();
        let plain_plan = oracle::reference_session(&exec_config())
            .plan_for(&queries, &reference_video)
            .expect("the reference plan builds");
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        let plan_for_ms = median(
            &passes
                .traced
                .iter()
                .map(|s| s.extra.plan_for_ms)
                .collect::<Vec<_>>(),
        );
        layers.set("core.plan_build_ms", build_ms);
        layers.set("core.canary_ms", (plan_for_ms - build_ms).max(0.0));
        let last = passes.traced.last().expect("a traced run has repetitions");
        layers.set("core.plan_candidates", last.extra.candidates as f64);
        layers.set(
            "core.plan_ops",
            last.extra.plan_ops.max(plain_plan.ops.len()) as f64,
        );
        let root = folded
            .timed
            .get("core.execute_shared")
            .copied()
            .unwrap_or_default();
        layers.set(
            "core.exec_self_us_per_frame",
            (ratio(root.self_ns as f64 / 1e3, folded.frames as f64) - folded.tracker_us).max(0.0),
        );
        report.info.push(folded.self_time_check);
        report.layers = layers.0;
    }
    report
}

fn one(
    parts: Parts<'_>,
    scene: &Scene,
    queries: &[Arc<Query>],
    expected: &[Expected],
    checks: &mut Checks,
) -> Sample<Extra> {
    // Set-up: zoo, session, extensions, source, and the plan (enumerate
    // the candidates, profile each on the canary, pick one).
    let setup = Stopwatch::start();
    let (zoo, log) = parts.zoo();
    let session = session(zoo);
    let (video, _) = parts.source(scene);
    let planning = Instant::now();
    let plan = {
        let _span = parts.span(
            "core.plan_for",
            video.video_id() as u32,
            0,
            queries.len() as u32,
        );
        session
            .plan_for(queries, video.as_ref())
            .expect("the shared plan builds")
    };
    let plan_for_ms = planning.elapsed().as_secs_f64() * 1e3;
    let setup_s = setup.cpu_s();

    if let Some(log) = &log {
        log.watch(video.video_id());
    }
    let frames = video.frame_count();
    let clock = session.clock();
    let (charges_before, ms_before) = (clock.labeled_stats(), clock.virtual_ms());
    let sw = Stopwatch::start();
    let (results, allocs) = parts.timed_phase(|| {
        let _span = parts.span(
            "core.execute_shared",
            video.video_id() as u32,
            0,
            frames as u32,
        );
        session
            .execute_shared(queries, video.as_ref())
            .expect("the shared plan executes")
    });
    let rep = Rep {
        wall_s: sw.wall_s(),
        cpu_s: sw.cpu_s(),
        frames,
        device_ms: clock.virtual_ms() - ms_before,
    };
    if let Some(log) = &log {
        log.stop();
    }

    checks.attempt(frames);
    let mut colour_mismatches = 0;
    for (e, r) in expected.iter().zip(&results) {
        let got = received(r);
        oracle::check_subscription(checks, &e.query, e, &got);
        colour_mismatches += colour_mismatch(e, &got);
    }
    let exec = results
        .first()
        .map(|r| r.metrics.clone())
        .unwrap_or_default();
    checks.fail(frames.abs_diff(exec.frames_total), || {
        format!("{} of {frames} frames executed", exec.frames_total)
    });
    Sample {
        setup_s,
        rep,
        extra: Extra {
            plan_for_ms,
            candidates: session.last_profiles().len(),
            plan_ops: plan.ops.len(),
            counters: Counters {
                charges: clock_delta(&charges_before, &clock.labeled_stats()),
                exec,
                allocs,
                colour_mismatches,
                events: 0,
                log,
            },
        },
    }
}
