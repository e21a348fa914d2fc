//! `store_ingest` and `store_replay` — the frame store's write path and,
//! beside it, its read path, over the same stream and queries.
//!
//! A record-format change that speeds reads and slows appends shows as
//! opposite moves on the two workloads. On replay the model stages are
//! answered from disk, so `device_ms_per_frame` falls to decode plus the
//! flat store-read charge plus whatever the store cannot answer (the
//! non-memoizable `direction` crops).

use super::layers::{clock_delta, Counters, Layers};
use super::serving::{expected_per_stream, session, Inbox};
use super::{Ctx, Parts, Passes, Sample};
use crate::inputs::{scenes, store_queries};
use crate::oracle::Expected;
use crate::run::{scratch_dir, Budget, Checks, Rep, Report, Stopwatch};
use crate::stats::{median, ratio};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::{ExecConfig, Query, VqpySession};
use vqpy_models::{Clock, ClockMode};
use vqpy_serve::{
    AttachSpec, Backpressure, ServeConfig, StreamId, StreamOptions, StreamServer, Subscription,
};
use vqpy_store::{FrameStore, StoreConfig};
use vqpy_video::{presets, Scene};

/// Frames of the one jackson stream (200 s at 15 fps; whole steps of 32).
const FRAMES: u64 = 3_008;
const BATCHES_PER_STEP: u64 = 4;
/// How far the scene's load may sit from the preset's nominal load.
const LOAD_TOLERANCE: f64 = 0.01;
/// Replay repetitions per ingest pass: the ingest pass is the replay
/// workload's set-up, so it is repeated too, but less often.
const REPLAYS_PER_INGEST: usize = 3;

fn exec_config() -> ExecConfig {
    ExecConfig::default()
}

/// A unique, empty directory for one ingest pass.
fn fresh_dir(n: &mut usize) -> PathBuf {
    *n += 1;
    let dir = scratch_dir().join(format!("store-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A served stream with a store under it, ready to run.
struct Live {
    session: Arc<VqpySession>,
    server: StreamServer,
    store: Arc<FrameStore>,
    stream: StreamId,
    inbox: Inbox,
    frames: u64,
    setup_s: f64,
    /// Running since set-up began (the replay workload's set-up goes on
    /// through the ingest pass).
    setup: Stopwatch,
    /// Milliseconds in `open_stream` + `attach` + the first step.
    serve_setup_ms: f64,
}

/// Set-up of both workloads: zoo, session, a fresh store, a server over
/// it, the stream with its three queries, and the first step.
fn open_live(parts: Parts<'_>, scene: &Scene, queries: &[Arc<Query>], dir: &Path) -> Live {
    let setup = Stopwatch::start();
    let (zoo, _) = parts.zoo();
    let session = session(zoo, exec_config(), Clock::with_mode(ClockMode::Virtual));
    let store = {
        let _span = parts.span("store.open", 0, 0, 0);
        FrameStore::open(StoreConfig {
            background_eviction: false,
            ..StoreConfig::new(dir)
        })
        .expect("the store opens")
    };
    let (video, _) = parts.source(scene);
    let frames = video.frame_count();
    let server = StreamServer::new(
        Arc::clone(&session),
        ServeConfig {
            store: Some(Arc::clone(&store)),
            batches_per_step: BATCHES_PER_STEP,
            backpressure: Backpressure::Block,
            // Nobody drains while `run_to_end` / `run_replay` runs, so a
            // channel must hold a whole run's events.
            channel_capacity: frames as usize + 8,
            ..ServeConfig::default()
        },
    );
    let serving = Instant::now();
    let stream = server.open_stream_with(
        video,
        StreamOptions {
            dispatch: parts.dispatch(),
        },
    );
    let subs: Vec<Subscription> = queries
        .iter()
        .map(|q| server.attach(stream, q).expect("attach").into_inner())
        .collect();
    {
        let _span = parts.span("serve.step", stream as u32, 0, 0);
        server.step(stream).expect("first step");
    }
    let serve_setup_ms = serving.elapsed().as_secs_f64() * 1e3;
    Live {
        session,
        server,
        store,
        stream,
        inbox: Inbox::new(vec![subs]),
        frames,
        setup_s: setup.cpu_s(),
        setup,
        serve_setup_ms,
    }
}

impl Live {
    /// Runs the live stream to its end and checks what it delivered.
    fn ingest(&mut self, parts: Parts<'_>, expected: &[Vec<Expected>], checks: &mut Checks) -> u64 {
        {
            let _span = parts.span(
                "serve.run_to_end",
                self.stream as u32,
                0,
                self.frames as u32,
            );
            self.server.run_to_end(self.stream).expect("live run");
        }
        self.inbox.sweep(|_, _| {});
        let metrics = self.server.metrics(self.stream).expect("metrics");
        checks.attempt(self.frames);
        checks.fail(self.frames.abs_diff(metrics.frames_total), || {
            format!(
                "{} of {} frames ingested",
                metrics.frames_total, self.frames
            )
        });
        let appended = self.store.metrics().appended_frames.load(Ordering::Relaxed);
        checks.fail(self.frames.abs_diff(appended), || {
            format!("{appended} of {} frames appended to the store", self.frames)
        });
        checks.fail(u64::from(!self.inbox.all_done()), || {
            "live subscriptions without a terminal event".into()
        });
        self.inbox.check_delivery(checks, &[metrics]);
        self.inbox.check_oracle(checks, expected)
    }
}

#[derive(Default)]
struct Extra {
    counters: Counters,
    serve_setup_ms: f64,
    bytes: u64,
    segments: u64,
    corrupt: u64,
    replay_hits: u64,
}

struct Inputs {
    scene: Scene,
    queries: Vec<Arc<Query>>,
    /// What the live pass must deliver: the three queries as one plan.
    expected: Vec<Vec<Expected>>,
    /// What a replay must deliver: each query planned alone, as a
    /// from-past attach plans it. (Not the same rows: alone, a query's
    /// score filter sits above the tracker, so track ids differ.)
    expected_alone: Vec<Vec<Expected>>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let frames = ctx.scale.frames(FRAMES, 64);
    let scene = scenes(
        &presets::jackson(),
        ctx.seed,
        1,
        frames,
        ctx.scale.load_tolerance(LOAD_TOLERANCE),
    )
    .remove(0);
    let queries = store_queries();
    let expected = expected_per_stream(&exec_config(), &queries, std::slice::from_ref(&scene));
    let video = vqpy_video::SyntheticVideo::new(scene.clone());
    let alone = crate::oracle::reference_session(&exec_config());
    let expected_alone = vec![queries
        .iter()
        .map(|q| {
            Expected::from(
                alone
                    .execute(q, &video)
                    .expect("the oracle executes")
                    .as_ref(),
            )
        })
        .collect()];
    Inputs {
        scene,
        queries,
        expected,
        expected_alone,
    }
}

/// Runs `store_ingest`: every repetition ingests the stream into a fresh
/// directory.
pub fn run_ingest(ctx: &Ctx) -> Report {
    let inp = inputs(ctx);
    let mut report = Report::default();
    let mut dirs = 0;
    let mut driven = Layers::default();
    let checks = &mut report.checks;
    let passes = super::repeat(ctx, |parts| {
        let dir = fresh_dir(&mut dirs);
        let mut live = open_live(parts, &inp.scene, &inp.queries, &dir);
        let clock = live.session.clock_handle();
        let (charges_before, ms_before) = (clock.labeled_stats(), clock.virtual_ms());
        let position = live.server.position(live.stream).expect("position");
        let sw = Stopwatch::start();
        let (colour_mismatches, allocs) =
            parts.timed_phase(|| live.ingest(parts, &inp.expected, checks));
        let rep = Rep {
            wall_s: sw.wall_s(),
            cpu_s: sw.cpu_s(),
            frames: live.frames - position,
            device_ms: clock.virtual_ms() - ms_before,
        };
        let m = live.store.metrics();
        let extra = Extra {
            counters: Counters {
                charges: clock_delta(&charges_before, &clock.labeled_stats()),
                exec: live.server.exec_metrics(live.stream).expect("exec metrics"),
                allocs,
                colour_mismatches,
                events: live.inbox.events(),
                log: None,
            },
            serve_setup_ms: live.serve_setup_ms,
            bytes: m.bytes.load(Ordering::Relaxed),
            segments: m.segments.load(Ordering::Relaxed),
            corrupt: m.corrupt_segments.load(Ordering::Relaxed),
            replay_hits: 0,
        };
        let setup_s = live.setup_s;
        let frames = live.frames;
        drop(live);
        if parts.trace().is_some() && driven.0.is_empty() {
            store_drivers(&mut driven, &dir, frames);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Sample {
            setup_s,
            rep,
            extra,
        }
    });
    passes.fill_report(&mut report);
    report.info.push(format!(
        "1 jackson stream x {} frames x {} queries, batch 8 x {BATCHES_PER_STEP}, store on, \
         {} repetitions",
        inp.scene.frame_count(),
        inp.queries.len(),
        passes.plain.len()
    ));
    if let Some(trace) = &ctx.trace {
        report.layers = layers(trace, &passes, &inp.scene, driven);
    }
    report
}

/// Runs `store_replay`: the ingest pass is set-up; every repetition
/// attaches each query from the store's epoch and replays the stored
/// stream to its end.
pub fn run_replay(ctx: &Ctx) -> Report {
    let inp = inputs(ctx);
    let mut report = Report::default();
    let mut dirs = 0;
    let mut driven = Layers::default();
    let replays = if ctx.scale.smoke {
        1
    } else {
        REPLAYS_PER_INGEST
    };
    // One ingest pass (the set-up), then its replays.
    let mut ingest_then_replay = |parts: Parts<'_>, replays: usize, report: &mut Report| {
        let dir = fresh_dir(&mut dirs);
        let mut live = open_live(parts, &inp.scene, &inp.queries, &dir);
        live.ingest(parts, &inp.expected, &mut report.checks);
        let setup_s = live.setup_s_with_ingest();
        let samples: Vec<_> = (0..replays)
            .map(|_| replay_once(parts, &live, &inp, setup_s, &mut report.checks))
            .collect();
        let frames = live.frames;
        drop(live);
        if parts.trace().is_some() && driven.0.is_empty() {
            store_drivers(&mut driven, &dir, frames);
        }
        let _ = std::fs::remove_dir_all(&dir);
        samples
    };
    ingest_then_replay(Parts::plain(), 1, &mut report); // warm-up
    let budget = Budget::start(&ctx.scale, 1.0);
    let mut passes = Passes {
        plain: Vec::new(),
        traced: Vec::new(),
    };
    // A traced run alternates plain and traced ingest passes.
    loop {
        passes
            .plain
            .extend(ingest_then_replay(Parts::plain(), replays, &mut report));
        if let Some(trace) = &ctx.trace {
            passes.traced.extend(ingest_then_replay(
                Parts::traced(trace),
                replays,
                &mut report,
            ));
        }
        if !budget.more(passes.plain.len() + passes.traced.len()) {
            break;
        }
    }
    // One set-up sample per ingest pass, not per replay.
    passes.fill_report(&mut report);
    report.setups.dedup();
    report.info.push(format!(
        "1 jackson stream x {} frames ingested, then {} queries replayed from the store's epoch, \
         {} repetitions over {} ingest passes",
        inp.scene.frame_count(),
        inp.queries.len(),
        passes.plain.len(),
        report.setups.len()
    ));
    if let Some(trace) = &ctx.trace {
        report.layers = layers(trace, &passes, &inp.scene, driven);
    }
    report
}

impl Live {
    /// CPU seconds from nothing to a fully ingested store: the replay
    /// workload's set-up.
    fn setup_s_with_ingest(&self) -> f64 {
        self.setup.cpu_s()
    }
}

/// One replay repetition: each query attached from the epoch and driven
/// to its end, one after another.
fn replay_once(
    parts: Parts<'_>,
    live: &Live,
    inp: &Inputs,
    setup_s: f64,
    checks: &mut Checks,
) -> Sample<Extra> {
    let clock = live.session.clock();
    let (charges_before, ms_before) = (clock.labeled_stats(), clock.virtual_ms());
    let hits_before = live.store.metrics().replay_hits.load(Ordering::Relaxed);
    let sw = Stopwatch::start();
    let (subs, allocs) = parts.timed_phase(|| {
        inp.queries
            .iter()
            .map(|q| {
                let attached = live
                    .server
                    .attach(
                        live.stream,
                        AttachSpec::new(Arc::clone(q)).from(live.store.epoch()),
                    )
                    .expect("attach from the epoch");
                let replay = attached
                    .replay()
                    .expect("a from-past attach yields a replay");
                let _span = parts.span("serve.run_replay", replay as u32, 0, live.frames as u32);
                live.server.run_replay(replay).expect("replay run");
                attached.into_inner()
            })
            .collect::<Vec<Subscription>>()
    });
    let rep = Rep {
        wall_s: sw.wall_s(),
        cpu_s: sw.cpu_s(),
        frames: live.frames * inp.queries.len() as u64,
        device_ms: clock.virtual_ms() - ms_before,
    };
    // The server keeps no per-replay delivery counters, so only the
    // oracle applies.
    let mut inbox = Inbox::new(vec![subs]);
    inbox.sweep(|_, _| {});
    checks.attempt(rep.frames);
    checks.fail(u64::from(!inbox.all_done()), || {
        "replay subscriptions without a terminal event".into()
    });
    let colour_mismatches = inbox.check_oracle(checks, &inp.expected_alone);
    let m = live.store.metrics();
    Sample {
        setup_s,
        rep,
        extra: Extra {
            counters: Counters {
                charges: clock_delta(&charges_before, &clock.labeled_stats()),
                allocs,
                colour_mismatches,
                events: inbox.events(),
                ..Counters::default()
            },
            serve_setup_ms: live.serve_setup_ms,
            bytes: m.bytes.load(Ordering::Relaxed),
            segments: m.segments.load(Ordering::Relaxed),
            corrupt: m.corrupt_segments.load(Ordering::Relaxed),
            replay_hits: m.replay_hits.load(Ordering::Relaxed) - hits_before,
        },
    }
}

/// The per-layer metrics of either store workload.
fn layers(
    trace: &Arc<crate::trace::Trace>,
    passes: &Passes<Extra>,
    scene: &Scene,
    driven: Layers,
) -> std::collections::BTreeMap<&'static str, f64> {
    // Start from what the store drivers measured on a populated store.
    let mut layers = driven;
    let folded = layers.from_repetitions(trace, passes, |e| &e.counters, scene);
    let (n, timed) = (folded.frames as f64, &folded.timed);
    let replay_hits: u64 = passes.traced.iter().map(|s| s.extra.replay_hits).sum();
    // Frames a replay did not have to run its frame-level model stages
    // for, as a share of the frames it was offered.
    layers.set("store.replay_hit_share", ratio(replay_hits as f64, n));
    let step = timed
        .get("serve.run_to_end")
        .or_else(|| timed.get("serve.run_replay"))
        .copied()
        .unwrap_or_default();
    layers.set(
        "serve.step_self_us_per_frame",
        ratio(step.self_ns as f64 / 1e3, n),
    );
    let last = passes.traced.last().expect("a traced run has repetitions");
    layers.set(
        "store.bytes_per_frame",
        ratio(last.extra.bytes as f64, scene.frame_count() as f64),
    );
    layers.set("store.segments", last.extra.segments as f64);
    layers.set("store.corrupt_segments", last.extra.corrupt as f64);
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
    layers.0
}

/// The store's own calls, driven directly on a populated directory:
/// reopen it, read every record back in step-sized ranges, and append
/// the records just read to a second, empty store.
fn store_drivers(layers: &mut Layers, dir: &Path, frames: u64) {
    let config = |root: &Path| StoreConfig {
        background_eviction: false,
        ..StoreConfig::new(root)
    };
    let t = Instant::now();
    let Ok(store) = FrameStore::open(config(dir)) else {
        return;
    };
    layers.set("store.reopen_ms", t.elapsed().as_secs_f64() * 1e3);
    let Some(stream) = store
        .stream_keys()
        .first()
        .and_then(|key| store.stream(key).ok())
    else {
        return;
    };
    let step = ExecConfig::default().batch_size as u64 * BATCHES_PER_STEP;
    let mut records = Vec::with_capacity(frames as usize);
    let t = Instant::now();
    for start in (0..frames).step_by(step as usize) {
        records.extend(stream.load_range(start, (start + step).min(frames)).records);
    }
    layers.set(
        "store.load_range_us_per_frame",
        ratio(t.elapsed().as_secs_f64() * 1e6, records.len() as f64),
    );
    let copy_dir = dir.with_extension("copy");
    let _ = std::fs::remove_dir_all(&copy_dir);
    if let Ok(copy) = FrameStore::open(config(&copy_dir)).and_then(|s| s.stream("copy")) {
        let n = records.len();
        let t = Instant::now();
        let appended = records
            .into_iter()
            .filter(|r| copy.append(r.clone()).is_ok())
            .count();
        layers.set(
            "store.append_us_per_frame",
            ratio(t.elapsed().as_secs_f64() * 1e6, appended.min(n) as f64),
        );
    }
    let _ = std::fs::remove_dir_all(&copy_dir);
}
