//! The paper's evaluation as one exact, asserted table.
//!
//! `experiments` lists every figure, table and ablation of §5 — and the
//! two device-work claims of the serving layer — as data: a video, the
//! systems to run on it, and the paper's claims about them. `measure` is
//! the only runner: each system charges a fresh virtual clock
//! ([`vqpy_models::ClockMode::Virtual`]), so every number is a function of
//! the source alone — identical across runs, build profiles and machines —
//! and `REPRODUCTION.json` at the repo root pins all of them ([`render`],
//! [`diff`]).
//!
//! Rules of the table: the paper's number or band is copied from the
//! paper (a single number `p` stands for `p ± 10 %`, see `around`); a
//! band we miss is recorded as missed (`in_band: false`, with a `note`) —
//! scenes, seeds and model costs are never tuned to hit one. Seeds are the
//! retired benches', except where a clip at [`SCALE`] had an empty truth
//! set: there the first later seed with a non-empty one is used.

use crate::json::Json;
use crate::report::{json_escape, mean};
use crate::workloads::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vqpy_baselines::{run_cvip_with, CvipQuery, MllmQuestion, MllmVariant, VideoChatSim};
use vqpy_core::backend::plan::{PlanOptions, SpecializedChoice};
use vqpy_core::scoring::{f1_frames, truth_frames};
use vqpy_core::{BinaryFilterReg, Query, SessionConfig, VqpySession};
use vqpy_models::{ChargeStat, Clock, Value};
use vqpy_serve::{AttachSpec, ServeConfig, ServeSession};
use vqpy_sql::{queries, Database, SqlError, Table};
use vqpy_store::{FrameStore, StoreConfig};
use vqpy_video::source::{Clip, SyntheticVideo, VideoSource};
use vqpy_video::{presets, Frame, NamedColor, Scene};

/// The scale of the committed table: clip lengths are the paper's times
/// this, so the 10-minute clips of Fig 14–16 and Tab 5–7 run 30 s.
pub const SCALE: f64 = 0.05;

type EvaProgram = fn(&mut Database, &str, f64, &Clock) -> Result<Table, SqlError>;

/// A system under test, as data; [`measure`] runs it.
enum Sys {
    /// The handcrafted CVIP pipeline on the dataset tracks.
    Cvip(CvipQuery),
    /// VQPy sessions under a config (planner, canary and all).
    Vqpy(Vec<Arc<Query>>, SessionConfig, How),
    /// One statement program of the EVA-like SQL engine and its speed
    /// threshold.
    Eva(EvaProgram, f64),
    /// VideoChat asked a question per one-second clip, or (no question)
    /// its per-frame embedding pass over the first ten seconds.
    VideoChat(MllmVariant, Option<MllmQuestion>),
    /// The queries served as one shared super-plan on a live stream; with
    /// `Some(replay)` into a frame store in a temp dir, and if `replay`
    /// the clock is then reset and the query answered from the store.
    Served(Vec<Arc<Query>>, Option<bool>),
    /// Ground truth: frames with a vehicle that is red (if asked) and
    /// faster than the given px/frame.
    Vehicles(bool, f64),
    /// Ground truth of a question: positive clips, true per-clip counts.
    Answer(MllmQuestion),
}

/// How a [`Sys::Vqpy`] runs its queries.
#[derive(Clone, Copy, PartialEq)]
enum How {
    /// One session each on one clock: the sum of running each alone.
    Each,
    /// All of them as one shared plan.
    Shared,
    /// As `Each`, with Tab 5's cheap ball filter and specialised action
    /// filter registered for the planner's canary to choose from.
    Filtered,
}

/// How a row's `ours` follows from the measured systems (by index: `a` is
/// the system the paper says wins, `b` the one it beats).
enum Metric {
    /// `b.ms / a.ms`; `a` must not be slower.
    Faster(usize, usize),
    /// `a`'s ms per frame; must be below `b`'s.
    MsPerFrame(usize, usize),
    /// `a`'s F1 against the truth system; must exceed `b`'s.
    F1(usize, usize),
    /// Mean of `a`'s series; must be nearer the truth system's than `b`'s.
    Mean(usize, usize),
    /// `b / a` in calls (`false`) or cost (`true`) of one model; above 1.
    Model(&'static str, bool, usize, usize),
    /// Mean over the series' four quarters of `b / a`; each must exceed 1.
    Quarters(usize, usize),
    /// Mean of `ours` over the rows whose id starts with this; all hold.
    Average(&'static str),
}

struct Experiment {
    video: Arc<SyntheticVideo>,
    /// One-second clips scored (Tab 5–7), or 0 for frame-level scoring.
    clips: u64,
    /// Index of the system F1 is scored against.
    truth: usize,
    systems: Vec<(&'static str, Sys)>,
    rows: Vec<Row>,
}

/// One system's measurements on one experiment.
#[derive(Clone, Default)]
pub struct Measure {
    pub system: &'static str,
    pub virtual_ms: f64,
    pub f1: Option<f64>,
    /// Hit frames, or hit clips in a clip-level experiment.
    hits: BTreeSet<u64>,
    /// Frames the system read.
    frames: u64,
    /// Per-frame ms (Fig 13(b)), else matches per frame / count per clip.
    series: Vec<f64>,
    counters: Vec<(&'static str, f64)>,
    stats: HashMap<String, ChargeStat>,
}

type Band = (f64, f64);

/// One claim of the paper next to what this repository measures.
pub struct Row {
    pub id: String,
    pub paper: &'static str,
    pub band: Band,
    metric: Metric,
    pub note: String,
    pub ours: f64,
    /// The paper's direction (who wins) holds.
    pub holds: bool,
    pub truth_frames: usize,
    /// Every system of the row's experiment (shared by its rows).
    pub systems: Arc<Vec<Measure>>,
}

impl Row {
    pub fn in_band(&self) -> bool {
        self.band.0 <= self.ours && self.ours <= self.band.1
    }

    /// Nothing to score against: no F1 was computed.
    pub fn degenerate(&self) -> bool {
        self.truth_frames == 0
    }

    /// The claim is an F1, which only a non-empty truth set gives meaning.
    pub fn asserts_f1(&self) -> bool {
        matches!(self.metric, Metric::F1(..))
    }
}

/// No upper end: the paper (or a retired gate) gives a floor only.
const FLOOR: Band = (1.0, f64::INFINITY);

/// The band a single paper number stands for.
fn around(p: f64) -> Band {
    (round3(0.9 * p), round3(1.1 * p))
}

fn quarters(xs: &[f64]) -> Vec<f64> {
    xs.chunks(xs.len().div_ceil(4).max(1)).map(mean).collect()
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

impl Measure {
    fn ms_per_frame(&self) -> f64 {
        self.virtual_ms / self.frames.max(1) as f64
    }
}

impl Metric {
    fn eval(&self, m: &[Measure], truth: usize) -> (f64, bool) {
        let ratio = |b: f64, a: f64| b / a.max(1e-9);
        match *self {
            Metric::Faster(a, b) => {
                let r = ratio(m[b].virtual_ms, m[a].virtual_ms);
                (r, r >= 1.0)
            }
            Metric::MsPerFrame(a, b) => {
                let (ours, theirs) = (m[a].ms_per_frame(), m[b].ms_per_frame());
                (ours, ours < theirs)
            }
            Metric::F1(a, b) => (m[a].f1.unwrap_or(0.0), m[a].f1 > m[b].f1),
            Metric::Mean(a, b) => {
                let of = |i: usize| mean(&m[i].series);
                let off = |i: usize| (of(i) - of(truth)).abs();
                (of(a), off(a) < off(b))
            }
            Metric::Model(label, cost, a, b) => {
                let of = |i: usize| {
                    let s = m[i].stats.get(label).copied().unwrap_or_default();
                    if cost {
                        s.units
                    } else {
                        s.invocations as f64
                    }
                };
                (ratio(of(b), of(a)), of(b) > of(a))
            }
            Metric::Quarters(a, b) => {
                let (qa, qb) = (quarters(&m[a].series), quarters(&m[b].series));
                let r: Vec<f64> = qb.iter().zip(qa).map(|(b, a)| ratio(*b, a)).collect();
                (mean(&r), r.iter().all(|r| *r > 1.0))
            }
            Metric::Average(_) => (0.0, false), // filled in by `run`
        }
    }
}

/// A clip under a fixed id. VideoChat keys its noise on `video_id`, which
/// for a plain clip comes from a process-wide counter: one video more or
/// less created anywhere before it would reshuffle every answer.
struct Numbered(Clip, u64);

impl VideoSource for Numbered {
    fn video_id(&self) -> u64 {
        self.1
    }
    fn fps(&self) -> u32 {
        self.0.fps()
    }
    fn resolution(&self) -> (u32, u32) {
        self.0.resolution()
    }
    fn frame_count(&self) -> u64 {
        self.0.frame_count()
    }
    fn frame(&self, index: u64) -> Frame {
        self.0.frame(index)
    }
}

/// Runs one system of one experiment on `clock`.
fn measure(sys: &Sys, e: &Experiment, clock: &Arc<Clock>) -> Measure {
    let (video, fps) = (&e.video, e.video.fps() as u64);
    let source = || Arc::clone(video) as Arc<dyn VideoSource>;
    let clip = |c: u64| video.clip(c as f64, (c + 1) as f64);
    let session = |config: &SessionConfig| {
        let s = VqpySession::with_clock(bench_zoo(), config.clone(), Arc::clone(clock));
        if matches!(sys, Sys::Vqpy(_, _, How::Filtered)) {
            for model in ["ball_presence_filter", "hit_action_filter"] {
                let (schema, model) = ("Person".into(), model.into());
                let filter = BinaryFilterReg { schema, model };
                s.extensions().register_binary_filter(filter);
            }
        }
        Arc::new(s)
    };
    let frames = video.frame_count();
    let mut m = Measure {
        frames,
        ..Measure::default()
    };
    match sys {
        Sys::Cvip(query) => {
            let zoo = bench_zoo();
            let r = run_cvip_with(video.as_ref(), &zoo, clock, query, CITYFLOW_TRACKS);
            let r = r.expect("cvip runs");
            (m.hits, m.series) = (r.hit_frames, r.per_frame_ms);
        }
        Sys::Vqpy(queries, config, how) => {
            let results = if *how == How::Shared {
                let shared = session(config).execute_shared(queries, video.as_ref());
                shared.expect("shared plan runs")
            } else {
                let alone = |q| {
                    session(config)
                        .execute(q, video.as_ref())
                        .expect("vqpy runs")
                };
                queries.iter().map(alone).collect()
            };
            let per_frame_ms = config.exec.record_per_frame_ms;
            if !per_frame_ms {
                m.series = vec![0.0; frames as usize]; // matches per frame
            }
            for r in &results {
                m.series.extend(&r.metrics.per_frame_ms);
            }
            let reuse = results[0].metrics.reuse;
            m.counters.push(("reuse_hits", reuse.hits as f64));
            m.counters.push(("reuse_hit_rate", reuse.hit_rate()));
            for h in results.iter().flat_map(|r| &r.frame_hits) {
                m.hits.insert(h.frame);
                if !per_frame_ms {
                    m.series[h.frame as usize] += h.outputs.len() as f64;
                }
            }
            if e.clips > 0 {
                // A clip hits when any of its frames does; per-clip means.
                let of = |c: u64| c * fps..(c + 1) * fps;
                let frames = std::mem::take(&mut m.hits);
                let hit = |c: &u64| frames.range(of(*c)).next().is_some();
                m.hits = (0..e.clips).filter(hit).collect();
                let of = |c: u64| (c * fps) as usize..((c + 1) * fps) as usize;
                m.series = (0..e.clips).map(|c| mean(&m.series[of(c)])).collect();
            }
        }
        Sys::Eva(program, speed) => {
            let mut db = Database::new(bench_zoo());
            db.load_video("V", source());
            let table = program(&mut db, "V", *speed, clock).expect("eva runs");
            m.hits = queries::hit_frames(&table);
        }
        Sys::VideoChat(variant, None) => {
            let ten = video.clip(0.0, 10.0);
            VideoChatSim::new(*variant, 5).precompute(&ten, clock);
            m.frames = ten.frame_count();
        }
        Sys::VideoChat(variant, Some(q)) => {
            use MllmQuestion::{AvgCarsOnCrossing, AvgWalkingPeople};
            m.frames = e.clips * fps;
            let counts = VideoChatSim::new(*variant, 23);
            let bools = VideoChatSim::new(*variant, 17);
            for c in 0..e.clips {
                let clip = Numbered(clip(c), (*variant as u64) << 32 | c);
                if matches!(q, AvgCarsOnCrossing { .. } | AvgWalkingPeople) {
                    m.series.extend(counts.ask_count(&clip, q, clock));
                } else if bools.ask_bool(&clip, q, clock) == Some(true) {
                    m.hits.insert(c);
                }
            }
        }
        Sys::Served(queries, store) => {
            static DIRS: AtomicU64 = AtomicU64::new(0);
            let n = DIRS.fetch_add(1, Ordering::Relaxed);
            let name = format!("vqpy_reproduce_{}_{n}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let fs = store.map(|_| {
                let mut config = StoreConfig::new(dir.clone());
                config.background_eviction = false;
                FrameStore::open(config).expect("open store")
            });
            let config = ServeConfig {
                store: fs.clone(),
                batches_per_step: 4,
                ..ServeConfig::default()
            };
            let server = session(&SessionConfig::default()).serve(config);
            let stream = server.open_stream(source());
            let attach = |q| server.attach(stream, Arc::clone(q)).expect("attach");
            let mut subs: Vec<_> = queries.iter().map(attach).collect();
            server.run_to_end(stream).expect("live run");
            if let (Some(true), Some(fs)) = (store, &fs) {
                clock.reset();
                let from = AttachSpec::new(Arc::clone(&queries[0])).from(fs.epoch());
                subs = vec![server.attach(stream, from).expect("attach from epoch")];
                let replay = subs[0].replay().expect("a replay");
                server.run_replay(replay).expect("replay run");
                let hits = fs.metrics().replay_hits.load(Ordering::Relaxed);
                m.counters.push(("replay_hits", hits as f64));
            }
            let hits = subs.into_iter().flat_map(|s| s.collect().0);
            m.hits = hits.map(|h| h.frame).collect();
            let _ = std::fs::remove_dir_all(&dir);
        }
        Sys::Vehicles(red, speed) => {
            let red = |c| !red || c == NamedColor::Red;
            m.hits = truth_frames(video.scene().expect("synthetic"), |t| {
                let fast = t.visible.iter().filter(|v| v.speed() as f64 > *speed);
                let mut fast = fast.filter_map(|v| v.attrs.as_vehicle());
                fast.any(|a| red(a.color))
            });
        }
        Sys::Answer(q) => {
            for c in 0..e.clips {
                let truths: Vec<_> = (0..fps).map(|f| clip(c).frame(f).truth).collect();
                if truths.iter().any(|t| q.truth_on(t)) {
                    m.hits.insert(c);
                }
                let counts: Vec<f64> = truths.iter().map(|t| q.count_on(t) as f64).collect();
                m.series.push(mean(&counts));
            }
        }
    }
    m.virtual_ms = clock.virtual_ms();
    m.stats = clock.labeled_stats();
    m
}

/// Runs one experiment: every system once, on its own virtual clock, then
/// every row over the measures.
fn run_one(mut e: Experiment) -> Vec<Row> {
    let run = |(name, sys): &(&'static str, Sys)| {
        let system = *name;
        Measure {
            system,
            ..measure(sys, &e, &Arc::new(Clock::new()))
        }
    };
    let mut systems: Vec<Measure> = e.systems.iter().map(run).collect();
    let truth = systems[e.truth].hits.clone();
    for m in systems.iter_mut().filter(|_| !truth.is_empty()) {
        m.f1 = Some(f1_frames(&m.hits, &truth).f1);
    }
    let systems = Arc::new(systems);
    for row in &mut e.rows {
        let (ours, holds) = row.metric.eval(&systems, e.truth);
        (row.ours, row.holds, row.truth_frames) = (round3(ours), holds, truth.len());
        if let Metric::Model(label, _, a, b) = row.metric {
            row.note = nreuse(label, &systems[a], &systems[b], &e.video);
        } else if row.id.starts_with("fig14.") {
            row.note = n14(truth.len(), &e.video);
        }
        row.systems = Arc::clone(&systems);
    }
    e.rows
}

/// Runs the whole table at `scale`; rows come back sorted by id.
pub fn run(scale: f64) -> Vec<Row> {
    let mut rows: Vec<Row> = experiments(scale).into_iter().flat_map(run_one).collect();
    let n13 = n13(&city_video(scale));
    rows.push(claim("fig13a.vanilla_avg", P13V, around(3.1), AVG13, &n13));
    rows.push(claim("tab6.avg", PT6A, around(0.82), AVG6, NT6));
    for i in 0..rows.len() {
        if let Metric::Average(prefix) = rows[i].metric {
            let of: Vec<&Row> = rows.iter().filter(|r| r.id.starts_with(prefix)).collect();
            let ours: Vec<f64> = of.iter().map(|r| r.ours).collect();
            let holds = of.iter().all(|r| r.holds);
            let truth_frames = of.iter().map(|r| r.truth_frames).sum();
            let row = &mut rows[i];
            (row.ours, row.holds, row.truth_frames) = (round3(mean(&ours)), holds, truth_frames);
        }
    }
    rows.sort_by(|a, b| a.id.cmp(&b.id));
    rows
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

// What the paper says (from the retired benches' header comments).
const P13V: &str = "VQPy avg 3.1x faster than CVIP (more for rare colours)";
const P13A: &str = "VQPy+annotation 11-14x faster than CVIP";
const P13B: &str = "per-frame cost: CVIP high and flat, VQPy lower, annotations flatten it";
const P14: &str = "red car: VQPy 4.2-5.5x faster than EVA (avg 4.9x)";
const P15: &str = "speeding car: VQPy 1.5-1.6x faster than EVA";
const P16N: &str = "red speeding car: naive EVA 7.5-15.2x slower than VQPy";
const P16R: &str = "red speeding car: hand-refined EVA still 3.3-5.7x slower";
const PT5: &str = "VQPy 32-48 ms/frame on Q1-Q5 (VideoChat-7B 72-137)";
const PT5P: &str = "VideoChat-7B embeds at 38.4 ms/frame (13B low-res 1071)";
const PT5S: &str = "Q1-Q5 in one shared execution: 3.4x over running each alone";
const PT5Q6: &str = "VQPy 112.4 ms/frame (VideoChat-7B 3503.8)";
const PT5O: &str = "VQPy-Opt 30.0 ms/frame at -0.08 F1";
const PT6: [&str; 3] = ["VQPy F1 0.902", "VQPy F1 0.591", "VQPy F1 0.915"];
const PT6Q6: &str = "VQPy F1 0.867";
const PT6A: &str = "VQPy avg F1 0.82 (VideoChat 0.40 / 0.43)";
const PT7: [&str; 2] = ["VQPy mean count 0.89 (truth <= 4)", "VQPy mean count 0.66"];
const LOSSLESS: &str = "lossless optimisation: never dearer than eager, same answers";
const LOSSY: &str = "frame filter / specialised model: cheaper at some accuracy cost";
const TENFOLD: &str = "memoising an intrinsic property: ~10x on its computation";
const NO_LOSS: &str = "reuse never costs time";
const PMULTI: &str = "8 queries on one shared super-plan vs 8 sessions (retired gate: >= 2x)";
const PBACK: &str = "answering from the frame store beats paying the models again";
const AVG13: Metric = Metric::Average("fig13a.vanilla.");
const AVG6: Metric = Metric::Average("tab6.q");

// Why we miss a band, where we know; what we see, where we do not.
fn n13(video: &SyntheticVideo) -> String {
    format!(
        "a {} s clip ({} frames): per-query gaps scatter around the paper's whole-video ones",
        video.duration_s(),
        video.frame_count()
    )
}
/// A `fig14` row's note: its clip and how many of its frames show a red
/// car (`truth`).
fn n14(truth: usize, video: &SyntheticVideo) -> String {
    format!(
        "seed 78's {} s clip shows a red car in {truth} of its {} frames; the retired bench's \
        seed 77 gave 4.1-4.9x on 30 s clips, against an empty truth set on two cameras",
        video.duration_s(),
        video.frame_count()
    )
}
const N15: &str = "within 1 % of the band's upper end";
const N16: &str = "same winner, smaller gap than the paper measured on real EVA";
const NT5: &str = "simulated model costs, not the paper's T4 timings";
const NT5S: &str =
    "Q2 and Q5 each rest on a model no other query uses, which caps what sharing saves";
const NT6: &str = "the simulated detectors are cleaner than real ones: F1 above the paper's";
const NT7: &str = "the synthetic Auburn scene is not the paper's clip: counts differ; judge by \
    distance from the truth system";
/// A `Model` row's note (only `ablation_reuse`'s rows have one): the
/// `label` calls `with` and `without` the cache made on `video`.
fn nreuse(label: &str, with: &Measure, without: &Measure, video: &SyntheticVideo) -> String {
    let calls = |m: &Measure| m.stats.get(label).map_or(0, |s| s.invocations);
    format!(
        "{} colour calls instead of {} on this {} s clip: the gain grows with time in view",
        calls(with),
        calls(without),
        video.duration_s()
    )
}

/// A row yet to be measured.
fn claim(id: &str, paper: &'static str, band: Band, metric: Metric, note: &str) -> Row {
    Row {
        id: id.to_owned(),
        paper,
        band,
        metric,
        note: note.to_owned(),
        ours: 0.0,
        holds: false,
        truth_frames: 0,
        systems: Arc::default(),
    }
}

/// Fig 13's CityFlow video at `scale`.
fn city_video(scale: f64) -> SyntheticVideo {
    cityflow_video(120.0 * scale, 2023)
}

/// Every experiment of the table, at `scale` times the paper's lengths.
fn experiments(scale: f64) -> Vec<Experiment> {
    use Metric::*;
    use MllmVariant::{VideoChat13BLowRes as Chat13B, VideoChat7B as Chat7B};
    let mut all = Vec::new();
    let mut add = |video: &Arc<SyntheticVideo>, clips, truth, systems, rows| {
        let video = Arc::clone(video);
        all.push(Experiment {
            video,
            clips,
            truth,
            systems,
            rows,
        });
    };
    let default = SessionConfig::default;
    let vqpy = |q: Arc<Query>| Sys::Vqpy(vec![q], default(), How::Each);

    // Fig 13 + Tab 1: CVIP vs VQPy vs VQPy with intrinsic annotations.
    let city = Arc::new(city_video(scale));
    let n13 = n13(&city);
    let mut series = default();
    series.exec.record_per_frame_ms = true;
    for (q, triple) in table1_queries() {
        let row = |fig: &str, paper, band, metric| {
            claim(
                &format!("{fig}.{}", q.to_lowercase()),
                paper,
                band,
                metric,
                &n13,
            )
        };
        let mut rows = vec![
            row("fig13a.vanilla", P13V, around(3.1), Faster(1, 0)),
            row("fig13a.annotated", P13A, (11.0, 14.0), Faster(2, 0)),
        ];
        if q == "Q3" {
            rows.push(claim("fig13b.vanilla", P13B, FLOOR, Quarters(1, 0), ""));
            rows.push(claim("fig13b.annotated", P13B, FLOOR, Quarters(2, 1), ""));
        }
        let session = |intrinsic| {
            let query = vec![triple_query(q, &triple, intrinsic)];
            Sys::Vqpy(query, series.clone(), How::Each)
        };
        let (plain, annotated) = (session(false), session(true));
        let cvip = Sys::Cvip(triple.clone());
        let systems = vec![
            ("cvip", cvip),
            ("vqpy", plain),
            ("vqpy+annotation", annotated),
        ];
        add(&city, 0, 0, systems, rows);
    }

    // Fig 14-16: VQPy vs the EVA-like engine on the three Table 3 cameras.
    // Seeds: the first at or after the retired benches' 77 / 78 / 79 where
    // all three cameras have a non-empty truth set at 30 s.
    let red_car: EvaProgram = |db, v, _, c| queries::red_car_query(db, v, c);
    for cam in ["banff", "jackson", "southampton"] {
        let video = |seed| Arc::new(camera_video(cam, 600.0 * scale, seed));
        let row = |fig: &str, paper, band, metric, note| {
            claim(&format!("{fig}.{cam}"), paper, band, metric, note)
        };
        let preset = presets::by_name(cam).expect("preset");
        let speed = preset.speeding_threshold_px_per_frame() as f64;

        let (eva, truth) = (Sys::Eva(red_car, 0.0), Sys::Vehicles(true, -1.0));
        let systems = vec![
            ("vqpy", vqpy(red_car_query())),
            ("eva", eva),
            ("truth", truth),
        ];
        let rows = vec![row("fig14", P14, (4.2, 5.5), Faster(0, 1), "")];
        let video78 = video(78);
        add(&video78, 0, 2, systems, rows);

        let query = vqpy(speeding_car_query(speed));
        let eva = Sys::Eva(queries::speeding_car_query, speed);
        let truth = Sys::Vehicles(false, speed);
        let systems = vec![("vqpy", query), ("eva", eva), ("truth", truth)];
        let rows = vec![row("fig15", P15, (1.5, 1.6), Faster(0, 1), N15)];
        add(&video78, 0, 2, systems, rows);

        let naive = Sys::Eva(queries::red_speeding_query_naive, speed);
        let refined = Sys::Eva(queries::red_speeding_query_refined, speed);
        let systems = vec![
            ("vqpy", vqpy(red_speeding_query(speed))),
            ("eva", naive),
            ("eva refined", refined),
            ("truth", Sys::Vehicles(true, speed)),
        ];
        let rows = vec![
            row("fig16.naive", P16N, (7.5, 15.2), Faster(0, 1), N16),
            row("fig16.refined", P16R, (3.3, 5.7), Faster(0, 2), N16),
        ];
        add(&video(82), 0, 3, systems, rows);
    }

    // Tab 5-7: VideoChat vs VQPy on the Auburn scene, one-second clips.
    let auburn = Arc::new(camera_video("auburn", 600.0 * scale, 2024));
    let scene = auburn.scene().expect("synthetic").clone();
    let clips = (600.0 * scale) as u64 - 1;
    let (region, crossing) = (scene.crosswalk_region(), scene.intersection_region());
    let questions = [
        MllmQuestion::PeopleOnCrosswalk { region },
        MllmQuestion::CarsTurningLeft,
        MllmQuestion::RedCarPresent,
        MllmQuestion::AvgCarsOnCrossing { region: crossing },
        MllmQuestion::AvgWalkingPeople,
    ];
    let qs: Vec<Arc<Query>> = auburn_queries(&scene).into_iter().map(|q| q.1).collect();
    // VQPy systems first, then both VideoChats and the truth, per question.
    let versus = |mut systems: Vec<(&'static str, Sys)>, q: &MllmQuestion| {
        for variant in [Chat7B, Chat13B] {
            systems.push((variant.name(), Sys::VideoChat(variant, Some(q.clone()))));
        }
        systems.push(("truth", Sys::Answer(q.clone())));
        systems
    };
    for (i, q) in questions.iter().enumerate() {
        let id = |table: &str| format!("{table}.q{}", i + 1);
        let p = [0.902, 0.591, 0.915, 0.89, 0.66][i];
        let second = match i {
            0..=2 => claim(&id("tab6"), PT6[i], around(p), F1(0, 1), NT6),
            _ => claim(&id("tab7"), PT7[i - 3], around(p), Mean(0, 1), NT7),
        };
        let first = claim(&id("tab5"), PT5, (32.0, 48.0), MsPerFrame(0, 1), NT5);
        let systems = versus(vec![("vqpy", vqpy(Arc::clone(&qs[i])))], q);
        add(&auburn, clips, 3, systems, vec![first, second]);
    }
    let pre = |v: MllmVariant| (v.name(), Sys::VideoChat(v, None));
    let rows = vec![claim("tab5.pre", PT5P, around(38.4), MsPerFrame(0, 1), "")];
    add(&auburn, 0, 0, vec![pre(Chat7B), pre(Chat13B)], rows);
    let shared = ("vqpy shared", Sys::Vqpy(qs.clone(), default(), How::Shared));
    let alone = ("vqpy one by one", Sys::Vqpy(qs, default(), How::Each));
    let rows = vec![claim("tab5.shared", PT5S, around(3.4), Faster(0, 1), NT5S)];
    add(&auburn, 0, 1, vec![shared, alone], rows);

    // Tab 5/6 Q6: person hits ball, base plan vs the two registered filters.
    let ball = Scene::generate(presets::interaction_clips(), 606, 240.0 * scale);
    let ball = Arc::new(SyntheticVideo::new(ball));
    // Hit events are rare: a longer canary steadies the filtered plans' F1.
    let mut relaxed = default();
    (relaxed.accuracy_target, relaxed.canary_seconds) = (0.75, 40.0);
    let opt = Sys::Vqpy(vec![hit_ball_query()], relaxed, How::Filtered);
    let systems = vec![("vqpy", vqpy(hit_ball_query())), ("vqpy-opt", opt)];
    let rows = vec![
        claim("tab5.q6", PT5Q6, around(112.4), MsPerFrame(0, 2), ""),
        claim("tab5.q6_opt", PT5O, around(30.0), MsPerFrame(1, 0), NT5),
        claim("tab6.q6", PT6Q6, around(0.867), F1(0, 2), ""),
    ];
    let systems = versus(systems, &MllmQuestion::PersonHitsBall);
    add(&ball, (240.0 * scale) as u64 - 1, 4, systems, rows);

    // §4.3 ablation: one optimisation at a time on the plain (non-intrinsic)
    // red-speeding query, so plan shape is isolated from memoisation.
    // Seed: the first at or after the retired bench's 909 with red speeders.
    let jackson = Arc::new(camera_video("jackson", 600.0 * scale, 915));
    let speed = presets::jackson().speeding_threshold_px_per_frame() as f64;
    let base = PlanOptions::vqpy_default;
    let (mut eager, mut pullup, mut lazy) = (base(), base(), base());
    (eager.eager_filters, eager.fuse, eager.pullup) = (true, false, false);
    (pullup.eager_filters, pullup.fuse) = (true, false);
    lazy.fuse = false;
    let (mut filtered, mut special) = (base(), base());
    filtered.binary_filters = vec!["no_red_on_road".into()];
    let (detector, prop, value) = (
        "red_car_detector".into(),
        "color".into(),
        Value::from("red"),
    );
    let choice = SpecializedChoice {
        detector,
        prop,
        value,
    };
    special.specialized.insert("car".into(), choice);
    let configs = [
        ("0_eager", eager, LOSSLESS),
        ("1_eager_pullup", pullup, LOSSLESS),
        ("2_lazy", lazy, LOSSLESS),
        ("3_lazy_fusion", base(), LOSSLESS),
        ("4_binary_filter", filtered, LOSSY),
        ("5_specialised_detector", special, LOSSY),
    ];
    // A session with nothing registered runs exactly the plan it is given.
    let planned = |query: Arc<Query>, plan: PlanOptions, reuse: bool| {
        let mut config = SessionConfig { plan, ..default() };
        config.exec.enable_intrinsic_reuse = reuse;
        Sys::Vqpy(vec![query], config, How::Each)
    };
    let (mut systems, mut rows) = (Vec::new(), Vec::new());
    for (k, (name, plan, paper)) in configs.into_iter().enumerate() {
        let id = format!("ablation_opt.{name}");
        rows.push(claim(&id, paper, FLOOR, Faster(k, 0), ""));
        systems.push((name, planned(red_speeding_query_plain(speed), plan, true)));
    }
    add(&jackson, 0, 0, systems, rows);

    // §5.2 ablation: the intrinsic-property cache off and on.
    let short = Arc::new(camera_video("jackson", 180.0 * scale, 808));
    let reuse = |on| planned(red_car_query(), base(), on);
    let color = |cost| Model("color_detect", cost, 1, 0);
    let rows = vec![
        claim(
            "ablation_reuse.calls",
            TENFOLD,
            around(10.0),
            color(false),
            "",
        ),
        claim(
            "ablation_reuse.cost",
            TENFOLD,
            around(10.0),
            color(true),
            "",
        ),
        claim(
            "ablation_reuse.end_to_end",
            NO_LOSS,
            FLOOR,
            Faster(1, 0),
            "",
        ),
    ];
    let systems = vec![("reuse off", reuse(false)), ("reuse on", reuse(true))];
    add(&short, 0, 0, systems, rows);

    // The serving layer's two device-work claims (the retired `serve` and
    // `backfill` benches measured them as wall time under a sleeping clock).
    // Table 1's five triples plus three more over the same attributes.
    let more = [
        ("white", "sedan", "left"),
        ("blue", "suv", "straight"),
        ("red", "bus", "right"),
    ];
    let more = more.map(|(c, t, d)| ("", CvipQuery::new(c, t, d)));
    let eight = table1_queries().into_iter().chain(more);
    let name = |q: &CvipQuery| format!("{}_{}_{}", q.color, q.vtype, q.direction);
    let eight = eight.map(|(_, q)| triple_query(&name(&q), &q, true));
    let eight: Vec<Arc<Query>> = eight.collect();
    let shared = ("shared super-plan", Sys::Served(eight.clone(), None));
    let alone = ("8 sessions", Sys::Vqpy(eight, default(), How::Each));
    let rows = vec![claim(
        "multiquery",
        PMULTI,
        (2.0, FLOOR.1),
        Faster(0, 1),
        "",
    )];
    add(&city, 0, 1, vec![shared, alone], rows);
    let stored = |replay| Sys::Served(vec![red_car_query()], Some(replay));
    let systems = vec![
        ("live pass", stored(false)),
        ("stored replay", stored(true)),
    ];
    add(
        &short,
        0,
        0,
        systems,
        vec![claim("backfill", PBACK, FLOOR, Faster(1, 0), "")],
    );
    all
}

// ---------------------------------------------------------------------------
// REPRODUCTION.json
// ---------------------------------------------------------------------------

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_owned()
    }
}

fn object(cells: &[(&str, String)], sep: &str) -> String {
    let cells: Vec<String> = cells.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    cells.join(sep)
}

/// Renders the table as the committed document: rows in id order, one cell
/// a line, three decimals — so equal tables are equal bytes.
pub fn render(scale: f64, rows: &[Row]) -> String {
    let text = |s: &str| format!("\"{}\"", json_escape(s));
    let list = |xs: &[f64]| {
        let xs: Vec<String> = xs.iter().map(|x| num(*x)).collect();
        format!("[{}]", xs.join(", "))
    };
    let system = |m: &Measure| {
        let calls: u64 = m.stats.values().map(|s| s.invocations).sum();
        let mut cells = vec![
            ("system", text(m.system)),
            ("virtual_ms", num(m.virtual_ms)),
            ("ms_per_frame", num(m.ms_per_frame())),
            ("calls", calls.to_string()),
            ("hits", m.hits.len().to_string()),
            ("f1", m.f1.map_or("null".to_owned(), num)),
        ];
        if !m.series.is_empty() {
            let max = m.series.iter().cloned().fold(0.0, f64::max);
            cells.push(("series_mean", num(mean(&m.series))));
            cells.push(("series_max", num(max)));
            cells.push(("series_quarters", list(&quarters(&m.series))));
        }
        cells.extend(m.counters.iter().map(|(k, v)| (*k, num(*v))));
        format!("        {{{}}}", object(&cells, ", "))
    };
    let row = |r: &Row| {
        let systems: Vec<String> = r.systems.iter().map(system).collect();
        let cells = [
            ("id", text(&r.id)),
            ("paper", text(r.paper)),
            ("band", list(&[r.band.0, r.band.1])),
            ("ours", num(r.ours)),
            ("in_band", r.in_band().to_string()),
            ("direction_holds", r.holds.to_string()),
            ("truth_frames", r.truth_frames.to_string()),
            ("degenerate", r.degenerate().to_string()),
            ("note", text(&r.note)),
            ("systems", format!("[\n{}\n      ]", systems.join(",\n"))),
        ];
        format!("    {{\n      {}\n    }}", object(&cells, ",\n      "))
    };
    let rows: Vec<String> = rows.iter().map(row).collect();
    let rows = rows.join(",\n");
    format!("{{\n  \"scale\": {scale},\n  \"rows\": [\n{rows}\n  ]\n}}\n")
}

/// Every cell of a document as `row.column → printed value`; array items
/// are keyed by their `id` / `system` member where they have one.
fn cells(at: &str, v: &Json, out: &mut BTreeMap<String, String>) {
    let sub = |k: &str| format!("{at}.{k}").trim_start_matches('.').to_owned();
    let key = |i: usize, v: &Json| {
        let name = v.get("id").or(v.get("system")).and_then(Json::as_str);
        name.map_or(i.to_string(), str::to_owned)
    };
    let leaf = match v {
        Json::Obj(members) => return members.iter().for_each(|(k, v)| cells(&sub(k), v, out)),
        Json::Arr(items) => {
            let items = items.iter().enumerate();
            return items.for_each(|(i, v)| cells(&sub(&key(i, v)), v, out));
        }
        Json::Num(n) => n.to_string(),
        Json::Str(s) => s.clone(),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".to_owned(),
    };
    out.insert(at.to_owned(), leaf);
}

/// Compares a committed document with a fresh one: one line per differing
/// cell, `row.column: committed → fresh`. Empty means byte-identical.
pub fn diff(committed: &str, fresh: &str) -> Vec<String> {
    if committed == fresh {
        return Vec::new();
    }
    let parse = |doc: &str| {
        let (doc, mut out) = (Json::parse(doc)?, BTreeMap::new());
        cells("scale", doc.get("scale")?, &mut out);
        cells("", doc.get("rows")?, &mut out);
        Some(out)
    };
    let (Some(old), Some(new)) = (parse(committed), parse(fresh)) else {
        return vec!["REPRODUCTION.json: not a reproduction document".to_owned()];
    };
    let show = |doc: &BTreeMap<String, String>, k: &String| {
        doc.get(k).map_or("(absent)", String::as_str).to_owned()
    };
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let differing = keys.into_iter().filter(|k| old.get(*k) != new.get(*k));
    let line = |k: &String| format!("{k}: {} → {}", show(&old, k), show(&new, k));
    let lines: Vec<String> = differing.map(line).collect();
    if lines.is_empty() {
        return vec!["same cells, other bytes: run `reproduce -- --write`".to_owned()];
    }
    lines
}
