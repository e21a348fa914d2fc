//! The execution engine: streams frames through a plan's live operators
//! ([`StageOps`]) in batches, collecting per-query frame hits and video
//! aggregates.
//!
//! There is one stage body (`run_stage` in [`crate::backend::stage`]) and
//! two schedulers over it:
//!
//! - **Sequential** ([`ExecMode::Sequential`]): the calling thread decodes
//!   a batch of [`ExecConfig::batch_size`] frames, runs every stage of
//!   [`StageKind::ALL`] over it in turn, and feeds the sink. Stages are
//!   *op-major* — each operator's `process_batch` covers the whole batch
//!   before the next starts — so every model-backed operator issues one
//!   physical batched invocation per batch (§4.1): detectors and binary
//!   filters over the batch's frames, a projection over the crops of all
//!   of them.
//! - **Pipelined** ([`ExecMode::Pipelined`]): [`crate::backend::pipeline`]
//!   cuts the stages into lanes — runs of adjacent stages of one kind, with
//!   empty stages riding along — and gives each lane its own thread(s), so
//!   lanes overlap.
//!
//! Both produce byte-identical query results: they run the same body over
//! the same chains, every simulated model answers deterministically per
//! `(frame, entity)`, ordered stages see frames in order under both, and
//! batching only changes *charged cost* (amortized dispatch overhead),
//! never values.
//!
//! Frame slots are workspaces ([`FrameSlot::reset`]) whose graphs keep
//! property values in plan-resolved slots ([`SlotLayout`]), every operator
//! resolved the names it reads and writes when it was instantiated, a
//! track's windows and memoised values are cells of its object table's row
//! (rows are reused once their tracks expire), strings are shared, and the
//! trackers and operators keep their scratch across frames. So in the
//! steady state projection, history windows, caching, candidate
//! enumeration, predicate evaluation and match recording allocate nothing.
//! What still allocates per frame is what crosses a model or a result
//! boundary: the detectors' and classifiers' output vectors (a `String`
//! class label per detection), and a hit's output rows (an owned column
//! name and a value per cell). `tests/alloc_budget.rs` holds the total to a
//! budget.

use crate::backend::graph::{NodeId, PropAccess, SlotLayout};
use crate::backend::ops::{FrameSlot, Matches};
use crate::backend::pipeline::run_pipelined;
use crate::backend::plan::{JoinSpec, PlanDag};
use crate::backend::reuse::ReuseStats;
use crate::backend::stage::{
    decode_batch, deliver, instantiate_stage_ops, run_stage, ExecEnv, StageCtx, StageKind, StageOps,
};
use crate::error::Result;
use crate::frontend::property::BuiltinProp;
use crate::frontend::query::Aggregate;
use std::collections::BTreeSet;
use std::ops::Range;
use vqpy_models::{Clock, ModelZoo, Value};
use vqpy_video::source::VideoSource;

/// How the operator chain is driven over the video.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, batch-at-a-time (the default).
    #[default]
    Sequential,
    /// Stages in lanes on their own threads, connected by bounded channels:
    /// `workers` threads (at least 1) per fan-out lane, decode's included,
    /// and one per ordered lane (see [`crate::backend::pipeline`]).
    Pipelined {
        /// Worker threads per parallel stage.
        workers: usize,
    },
}

impl ExecMode {
    /// Worker threads per parallel stage this mode asks for (1 for
    /// sequential driving).
    pub fn workers(&self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Pipelined { workers } => (*workers).max(1),
        }
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Frames per execution batch (the user-defined batch size of §4.1).
    /// Model-backed operators amortize per-invocation overhead across the
    /// batch; results are identical for every batch size.
    pub batch_size: usize,
    /// Sequential or pipelined driving (see [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Object-level computation reuse (§4.2) toggle.
    pub enable_intrinsic_reuse: bool,
    /// Record per-frame virtual cost (Figure 13(b) series). Cost is
    /// attributed evenly within each batch (execution itself is unchanged);
    /// ignored (left empty) in pipelined mode.
    pub record_per_frame_ms: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            batch_size: 8,
            exec_mode: ExecMode::Sequential,
            enable_intrinsic_reuse: true,
            record_per_frame_ms: false,
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    pub frames_total: u64,
    /// Frames surviving the frame filters (i.e. reaching detectors).
    pub frames_processed: u64,
    /// Frames whose decode failed ([`vqpy_video::DecodeFault`]) and were
    /// skipped instead of aborting the segment. Not counted in
    /// `frames_total`: a skipped frame never enters the super-plan.
    pub decode_failures: u64,
    pub reuse: ReuseStats,
    /// Virtual ms spent on each frame (only when
    /// [`ExecConfig::record_per_frame_ms`] is set; sequential mode only).
    pub per_frame_ms: Vec<f64>,
}

impl ExecMetrics {
    /// Accumulates another run's counters into this one (a report sums
    /// the metrics of several streams).
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.frames_total += other.frames_total;
        self.frames_processed += other.frames_processed;
        self.decode_failures += other.decode_failures;
        self.reuse.add(other.reuse);
        self.per_frame_ms.extend_from_slice(&other.per_frame_ms);
    }
}

/// A frame satisfying a query, with its projected outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameHit {
    pub frame: u64,
    pub time_s: f64,
    /// One output row per matching combo: `(alias.prop, value)` pairs.
    pub outputs: Vec<Vec<(String, Value)>>,
}

/// The result of one query's execution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub query_name: String,
    pub frame_hits: Vec<FrameHit>,
    /// Video-level aggregate (Figure 7), if the query declared one.
    pub video_value: Option<Value>,
    pub metrics: ExecMetrics,
    /// Virtual milliseconds charged during execution.
    pub virtual_ms: f64,
}

impl QueryResult {
    /// Sorted hit frame indices.
    pub fn hit_frames(&self) -> Vec<u64> {
        self.frame_hits.iter().map(|h| h.frame).collect()
    }

    /// Hit frames as a set, for scoring.
    pub fn hit_frame_set(&self) -> BTreeSet<u64> {
        self.frame_hits.iter().map(|h| h.frame).collect()
    }
}

/// Consumes finished frame slots in frame order: where both schedulers
/// end. The offline path accumulates a [`QueryResult`] per
/// query ([`Collector`]); the serving layer demultiplexes matches to
/// per-query subscribers incrementally.
pub trait ResultSink {
    /// Observes one finished slot. Called in frame order.
    fn on_frame(&mut self, plan: &PlanDag, slot: &FrameSlot) -> Result<()>;
}

/// Per-query streaming accumulator: video-aggregate bookkeeping plus
/// extraction of a frame's hit row. Uses O(1) state per query (no
/// per-frame history), so it can run over unbounded live streams.
///
/// Aliases are resolved to join positions (the query's `vobjs()` order,
/// which [`Matches`] follows) and output columns are named once,
/// at construction; the properties they read are resolved against a slot
/// layout the first time a frame laid out by it is observed.
#[derive(Debug, Default)]
pub struct QueryAccum {
    /// Join position of the alias whose nodes feed the video aggregate.
    agg_pos: Option<usize>,
    /// The frame output: `(join position, "alias.prop" column, prop)`.
    columns: Vec<(usize, String, String)>,
    /// [`SlotLayout::id`] of the layout `reads` and `track_read` follow.
    layout: Option<u64>,
    /// How each of `columns` reads its property.
    reads: Vec<PropAccess>,
    /// How the aggregate reads `track_id`.
    track_read: PropAccess,
    /// Scratch: the aggregate alias's matched nodes on the current frame.
    frame_nodes: Vec<NodeId>,
    distinct_tracks: BTreeSet<i64>,
    frames_seen: u64,
    frames_hit: u64,
    count_sum: u64,
    count_max: u64,
}

impl QueryAccum {
    /// An accumulator for one join of a plan.
    pub fn new(join: &JoinSpec) -> Self {
        Self::for_query(&join.query)
    }

    /// An accumulator for a query (the serving layer builds accumulators
    /// before the super-plan containing the query exists).
    pub fn for_query(query: &crate::frontend::query::Query) -> Self {
        let position = |alias: &String| query.vobjs().iter().position(|v| v.alias == *alias);
        let agg_pos = match query.video_output() {
            Some(Aggregate::CountDistinctTracks { alias })
            | Some(Aggregate::AvgPerFrame { alias })
            | Some(Aggregate::MaxPerFrame { alias }) => position(alias),
            _ => None,
        };
        let columns = query
            .frame_output()
            .iter()
            .filter_map(|p| Some((position(&p.alias)?, p.to_string(), p.prop.clone())))
            .collect();
        Self {
            agg_pos,
            columns,
            ..Self::default()
        }
    }

    /// Resolves the accumulator's reads against `layout`, unless they
    /// already follow it.
    fn resolve(&mut self, layout: &SlotLayout) {
        if self.layout == Some(layout.id()) {
            return;
        }
        self.reads = self.columns.iter().map(|c| layout.access(&c.2)).collect();
        self.track_read = layout.access(BuiltinProp::TrackId.name());
        self.layout = Some(layout.id());
    }

    /// Observes join `ji`'s matches on a finished slot (must be called in
    /// frame order), returning the frame's hit row when any combo matched.
    pub fn observe(&mut self, slot: &FrameSlot, ji: usize) -> Option<FrameHit> {
        self.resolve(slot.graph.layout());
        let graph = &slot.graph;
        let none = Matches::default();
        let combos = slot.matches.get(ji).unwrap_or(&none);
        self.frames_seen += 1;
        // Aggregation bookkeeping (count per frame even when zero).
        let frame_count = if let Some(pos) = self.agg_pos {
            self.frame_nodes.clear();
            for c in combos.iter() {
                let node = c[pos];
                self.frame_nodes.push(node);
                if let Value::Int(t) = *graph.value(node, self.track_read) {
                    self.distinct_tracks.insert(t);
                }
            }
            self.frame_nodes.sort_unstable();
            self.frame_nodes.dedup();
            self.frame_nodes.len() as u64
        } else {
            u64::from(!combos.is_empty())
        };
        self.count_sum += frame_count;
        self.count_max = self.count_max.max(frame_count);
        if combos.is_empty() {
            return None;
        }
        self.frames_hit += 1;
        let outputs: Vec<Vec<(String, Value)>> = combos
            .iter()
            .map(|c| {
                self.columns
                    .iter()
                    .zip(&self.reads)
                    .map(|((pos, column, _), &read)| {
                        (column.clone(), graph.value(c[*pos], read).into_owned())
                    })
                    .collect()
            })
            .collect();
        Some(FrameHit {
            frame: slot.frame.index,
            time_s: slot.frame.time_s,
            outputs,
        })
    }

    /// The query's video-level aggregate over the frames observed so far.
    pub fn video_value(&self, join: &JoinSpec) -> Option<Value> {
        self.video_value_for(&join.query)
    }

    /// Same as [`QueryAccum::video_value`], from the query alone (the
    /// accumulator is per-query state; the join spec adds nothing).
    pub fn video_value_for(&self, query: &crate::frontend::query::Query) -> Option<Value> {
        query.video_output().map(|a| match a {
            Aggregate::CountDistinctTracks { .. } => Value::Int(self.distinct_tracks.len() as i64),
            Aggregate::AvgPerFrame { .. } => {
                Value::Float(self.count_sum as f64 / self.frames_seen.max(1) as f64)
            }
            Aggregate::MaxPerFrame { .. } => Value::Int(self.count_max as i64),
            Aggregate::CountFrames => Value::Int(self.frames_hit as i64),
        })
    }
}

/// Accumulates per-join hits and aggregates as finished slots stream out of
/// a scheduler (always in frame order): the batch/offline [`ResultSink`].
pub struct Collector {
    hits: Vec<Vec<FrameHit>>,
    accums: Vec<QueryAccum>,
}

impl Collector {
    /// An empty collector for a plan's query set.
    pub fn new(plan: &PlanDag) -> Self {
        Self {
            hits: plan.joins.iter().map(|_| Vec::new()).collect(),
            accums: plan.joins.iter().map(QueryAccum::new).collect(),
        }
    }

    /// Builds the per-query results.
    pub fn finalize(self, plan: &PlanDag, metrics: ExecMetrics, total_ms: f64) -> Vec<QueryResult> {
        let mut results = Vec::with_capacity(plan.joins.len());
        for ((j, accum), hits) in plan.joins.iter().zip(&self.accums).zip(self.hits) {
            results.push(QueryResult {
                query_name: j.query.name().to_owned(),
                frame_hits: hits,
                video_value: accum.video_value(j),
                metrics: metrics.clone(),
                virtual_ms: total_ms,
            });
        }
        results
    }
}

impl ResultSink for Collector {
    fn on_frame(&mut self, _plan: &PlanDag, slot: &FrameSlot) -> Result<()> {
        for (ji, (accum, hits)) in self.accums.iter_mut().zip(&mut self.hits).enumerate() {
            hits.extend(accum.observe(slot, ji));
        }
        Ok(())
    }
}

/// Executes a plan over a video, producing one result per query in the
/// plan, in plan order. Dispatches on [`ExecConfig::exec_mode`]; both modes
/// produce identical results.
///
/// # Errors
///
/// Fails when plan operators reference unknown models or properties.
pub fn execute_plan(
    plan: &PlanDag,
    source: &dyn VideoSource,
    zoo: &ModelZoo,
    clock: &Clock,
    config: &ExecConfig,
) -> Result<Vec<QueryResult>> {
    let workers = config.exec_mode.workers();
    let mut ops = instantiate_stage_ops(plan, zoo, workers)?;
    let mut metrics = ExecMetrics::default();
    let mut collector = Collector::new(plan);
    let start_ms = clock.virtual_ms();
    let env = ExecEnv {
        plan,
        source,
        zoo,
        clock,
        config,
    };
    let frames = 0..source.frame_count();
    run_segment(env, frames, &mut ops, &mut metrics, &mut collector)?;
    let total_ms = clock.virtual_ms() - start_ms;
    Ok(collector.finalize(plan, metrics, total_ms))
}

/// Streams the contiguous frame `range` of `env.source` through `ops`,
/// delivering every finished slot to `sink` in frame order, under the
/// scheduler [`ExecConfig::exec_mode`] names. All cross-call state lives in
/// `ops` and `metrics`, so callers may interleave segments with plan
/// recompiles (the serving layer's attach/detach) or run one whole-video
/// segment (the offline path). Every counter of the segment, the reuse
/// counts included, is added to `metrics`, so one `metrics` outlives any
/// number of plans.
pub fn run_segment(
    env: ExecEnv<'_>,
    range: Range<u64>,
    ops: &mut StageOps,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    if range.is_empty() {
        return Ok(());
    }
    let cx = StageCtx::new(env, ops);
    let result = match env.config.exec_mode {
        ExecMode::Sequential => run_sequential(&cx, range, ops, metrics, sink),
        ExecMode::Pipelined { .. } => run_pipelined(&cx, range, ops, metrics, sink),
    };
    cx.flush(metrics);
    metrics
        .reuse
        .add(std::mem::take(&mut ops.state.objects.stats));
    result
}

/// The sequential scheduler: decode a batch, run every stage over it on
/// this thread (chain 0 of each), deliver, repeat.
fn run_sequential(
    cx: &StageCtx<'_>,
    range: Range<u64>,
    ops: &mut StageOps,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    let (clock, config) = (cx.env.clock, cx.env.config);
    let batch = config.batch_size.max(1);
    let slots = &mut ops.slots;
    for (seq, lo) in range.clone().step_by(batch).enumerate() {
        let batch_start_ms = clock.virtual_ms();
        decode_batch(cx, lo..(lo + batch as u64).min(range.end), slots);
        if slots.is_empty() {
            continue;
        }
        for (kind, mut held) in StageKind::ALL.into_iter().zip(ops.state.split()) {
            let chain = &mut ops.chains[kind.index()][0];
            run_stage(kind, chain, &mut held, seq as u64, slots, cx)?;
        }
        deliver(cx.env.plan, slots, metrics, sink)?;
        if config.record_per_frame_ms {
            // Op-major batching interleaves charges across the batch's
            // frames, so attribute the batch's cost evenly: instrumentation
            // must not change what is being measured (batch amortization
            // stays on), and quarter-averaged series (Figure 13(b)) are
            // unaffected by the within-batch smoothing.
            let per_frame = (clock.virtual_ms() - batch_start_ms) / slots.len() as f64;
            metrics
                .per_frame_ms
                .extend(std::iter::repeat_n(per_frame, slots.len()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::plan::{build_plan, PlanOptions};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_video::color::NamedColor;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn video(seconds: f64) -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::jackson(), 5150, seconds))
    }

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id"), ("car", "bbox")])
            .build()
            .unwrap()
    }

    #[test]
    fn red_car_query_finds_red_cars() {
        let zoo = ModelZoo::standard();
        let v = video(30.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock = Clock::new();
        let results = execute_plan(&plan, &v, &zoo, &clock, &ExecConfig::default()).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];

        // Compare against ground truth: frames with a visible red vehicle.
        let scene = v.scene().unwrap();
        let truth: BTreeSet<u64> = (0..scene.frame_count())
            .filter(|&f| {
                scene.truth_at(f).visible.iter().any(|e| {
                    e.attrs
                        .as_vehicle()
                        .map(|a| a.color == NamedColor::Red)
                        .unwrap_or(false)
                })
            })
            .collect();
        let predicted = r.hit_frame_set();
        if truth.is_empty() {
            assert!(predicted.len() < 10, "no red cars but many hits?");
            return;
        }
        let tp = predicted.intersection(&truth).count() as f64;
        let precision = tp / predicted.len().max(1) as f64;
        let recall = tp / truth.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
        assert!(recall > 0.6, "recall {recall}");
        assert!(r.virtual_ms > 0.0);
    }

    #[test]
    fn results_are_invariant_to_batch_size() {
        let zoo = ModelZoo::standard();
        let v = video(12.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let mut reference = None;
        for batch_size in [1usize, 3, 8, 64] {
            let clock = Clock::new();
            let results = execute_plan(
                &plan,
                &v,
                &zoo,
                &clock,
                &ExecConfig {
                    batch_size,
                    ..ExecConfig::default()
                },
            )
            .unwrap();
            let run = (results[0].hit_frames(), results[0].metrics.reuse);
            match &reference {
                None => reference = Some(run),
                Some(r) => assert_eq!(r, &run, "batch size {batch_size} changed results"),
            }
        }
    }

    #[test]
    fn batching_amortizes_model_overhead() {
        let zoo = ModelZoo::standard();
        let v = video(10.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock_b1 = Clock::new();
        execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_b1,
            &ExecConfig {
                batch_size: 1,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let clock_b16 = Clock::new();
        execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_b16,
            &ExecConfig {
                batch_size: 16,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert!(
            clock_b16.virtual_ms() < clock_b1.virtual_ms(),
            "batched execution must be cheaper: {} vs {}",
            clock_b16.virtual_ms(),
            clock_b1.virtual_ms()
        );
    }

    #[test]
    fn reuse_reduces_model_invocations() {
        let zoo = ModelZoo::standard();
        let v = video(30.0);
        // Intrinsic annotations (the §4.2 user opt-in) enable memoization.
        let q = Query::builder("RedCarIntrinsic")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo, &PlanOptions::vqpy_default()).unwrap();

        let clock_on = Clock::new();
        let on = execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_on,
            &ExecConfig {
                enable_intrinsic_reuse: true,
                ..ExecConfig::default()
            },
        )
        .unwrap();

        let clock_off = Clock::new();
        let off = execute_plan(
            &plan,
            &v,
            &zoo,
            &clock_off,
            &ExecConfig {
                enable_intrinsic_reuse: false,
                ..ExecConfig::default()
            },
        )
        .unwrap();

        let calls_on = clock_on
            .stat("color_detect")
            .map(|s| s.invocations)
            .unwrap_or(0);
        let calls_off = clock_off
            .stat("color_detect")
            .map(|s| s.invocations)
            .unwrap_or(0);
        assert!(
            calls_on * 3 < calls_off,
            "reuse should slash color model calls: {calls_on} vs {calls_off}"
        );
        // Nearly identical frames either way: memoization pins one sample
        // of the per-frame classifier noise, so a handful of borderline
        // frames may flip, but accuracy must not degrade materially.
        let f1 = crate::scoring::f1_frames(&on[0].hit_frame_set(), &off[0].hit_frame_set()).f1;
        assert!(f1 > 0.9, "reuse changed results too much: F1 {f1}");
    }

    #[test]
    fn aggregate_count_distinct_tracks() {
        let zoo = ModelZoo::standard();
        let v = video(20.0);
        let q = Query::builder("CountCars")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .video_output(Aggregate::CountDistinctTracks {
                alias: "car".into(),
            })
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock = Clock::new();
        let results = execute_plan(&plan, &v, &zoo, &clock, &ExecConfig::default()).unwrap();
        let count = results[0].video_value.clone().unwrap().as_i64().unwrap();
        // Roughly the number of distinct vehicles in the scene (tracker
        // fragmentation can inflate slightly; detection misses deflate).
        let scene_vehicles = v
            .scene()
            .unwrap()
            .entities()
            .iter()
            .filter(|e| matches!(e.attrs, vqpy_video::EntityAttrs::Vehicle(_)))
            .count() as i64;
        assert!(count > 0);
        assert!(
            (count as f64) < (scene_vehicles as f64) * 2.5 + 5.0,
            "count {count} vs scene {scene_vehicles}"
        );
    }

    #[test]
    fn per_frame_series_is_recorded_on_request() {
        let zoo = ModelZoo::standard();
        let v = video(5.0);
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let clock = Clock::new();
        let results = execute_plan(
            &plan,
            &v,
            &zoo,
            &clock,
            &ExecConfig {
                record_per_frame_ms: true,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            results[0].metrics.per_frame_ms.len() as u64,
            results[0].metrics.frames_total
        );
        assert!(results[0].metrics.per_frame_ms.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn shared_execution_matches_individual_results() {
        let zoo = ModelZoo::standard();
        let v = video(20.0);
        let q_red = red_car_query();
        let q_black = Query::builder("BlackCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "black"))
            .build()
            .unwrap();

        // Individually.
        let c1 = Clock::new();
        let plan_red =
            build_plan(&[Arc::clone(&q_red)], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let red_alone = execute_plan(&plan_red, &v, &zoo, &c1, &ExecConfig::default()).unwrap();
        let plan_black =
            build_plan(&[Arc::clone(&q_black)], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let black_alone = execute_plan(&plan_black, &v, &zoo, &c1, &ExecConfig::default()).unwrap();

        // Shared.
        let c2 = Clock::new();
        let plan_shared = build_plan(
            &[Arc::clone(&q_red), Arc::clone(&q_black)],
            &zoo,
            &PlanOptions::vqpy_default(),
        )
        .unwrap();
        let shared = execute_plan(&plan_shared, &v, &zoo, &c2, &ExecConfig::default()).unwrap();

        assert_eq!(shared[0].hit_frame_set(), red_alone[0].hit_frame_set());
        assert_eq!(shared[1].hit_frame_set(), black_alone[0].hit_frame_set());
        // Sharing the detector must be cheaper than running twice.
        assert!(
            c2.virtual_ms() < c1.virtual_ms() * 0.75,
            "shared {} vs individual {}",
            c2.virtual_ms(),
            c1.virtual_ms()
        );
    }
}
