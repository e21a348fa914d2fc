//! The per-stream execution engine: a persistent wrapper around the core
//! segment runner that survives super-plan recompiles.
//!
//! A [`StreamEngine`] owns everything that must outlive any single plan:
//!
//! - the **stream state** ([`StreamState`], in its [`StageOps`]): per
//!   tracked alias its tracker and one row per live track (stateful
//!   property windows, §4.2's memoised intrinsics), the reuse
//!   counters of those cells, and the diff filter's reference frame. No
//!   operator holds cross-frame state;
//! - cumulative [`ExecMetrics`].
//!
//! On [`StreamEngine::recompile_with_seed`] the state moves into the new
//! plan's: each alias's table while the plan still tracks the alias, the
//! reference frame while the plan's diff filter keeps its threshold.
//! Everything else starts fresh, and a table whose alias left the plan is
//! dropped with its values. This is what makes attach/detach invisible to
//! surviving queries: their objects are bit-for-bit the ones that were
//! already running.

use vqpy_core::backend::exec::{run_segment, ResultSink};
use vqpy_core::backend::objects::StreamState;
use vqpy_core::backend::plan::PlanDag;
use vqpy_core::backend::stage::{instantiate_stage_ops, ExecEnv};
use vqpy_core::error::Result;
use vqpy_core::{ExecConfig, ExecMetrics, StageOps};
use vqpy_models::{Clock, ModelZoo};
use vqpy_video::source::VideoSource;

/// A restorable checkpoint of one stream engine: a copy of its stream
/// state (object tables with their trackers, windows and memoised
/// intrinsics; the reuse statistics; the diff filter's reference
/// frame) and the cumulative metrics at capture time.
///
/// Taken by the serving layer before each segment;
/// [`StreamEngine::restore`] rolls the engine back so a panicked segment
/// can be re-run from a consistent boundary. The tables belong in it
/// because prep frees a track's row when it expires, 16 frames after its
/// last sighting: a failed attempt may free a row whose last sighting the
/// re-run, from the restored tracker, probes again. The reference frame
/// does because the frame filters may have run ahead of the stage that
/// failed.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    state: StreamState,
    metrics: ExecMetrics,
}

/// Live execution state for one stream, persistent across plan recompiles.
pub struct StreamEngine {
    plan: PlanDag,
    ops: StageOps,
    metrics: ExecMetrics,
    workers: usize,
}

impl StreamEngine {
    /// Instantiates the engine for an initial super-plan.
    pub fn new(plan: PlanDag, zoo: &ModelZoo, config: &ExecConfig) -> Result<Self> {
        Self::seeded(plan, zoo, config, StreamState::default())
    }

    /// Instantiates the engine for an initial super-plan over `seed`,
    /// another engine's state (see [`StreamEngine::into_state`]): each
    /// table of an alias both track, and the reference frame if the plans'
    /// diff filters share a threshold. The reuse counters start at zero.
    pub fn seeded(
        plan: PlanDag,
        zoo: &ModelZoo,
        config: &ExecConfig,
        seed: StreamState,
    ) -> Result<Self> {
        let workers = config.exec_mode.workers();
        let mut ops = instantiate_stage_ops(&plan, zoo, workers)?;
        ops.state.adopt(StreamState::default(), seed);
        Ok(Self {
            plan,
            ops,
            metrics: ExecMetrics::default(),
            workers,
        })
    }

    /// The currently executing super-plan.
    pub fn plan(&self) -> &PlanDag {
        &self.plan
    }

    /// Cumulative execution metrics, with fresh reuse statistics.
    pub fn metrics(&self) -> ExecMetrics {
        let mut m = self.metrics.clone();
        m.reuse = self.ops.state.objects.stats;
        m
    }

    /// Replaces the engine's model-dispatch boundary (see
    /// [`vqpy_core::ModelDispatch`]) for every model stage — detect,
    /// binary filter, and classify/projection. Installed once by the
    /// supervisor when the stream joins a shared
    /// [`ModelBatcher`](crate::ModelBatcher) and preserved across every
    /// later [`StreamEngine::recompile_with_seed`].
    pub fn set_dispatch(&mut self, dispatch: std::sync::Arc<dyn vqpy_core::ModelDispatch>) {
        self.ops.dispatch = dispatch;
    }

    /// Replaces the engine's span tracer (see [`vqpy_core::Tracer`]).
    /// Installed once by the serving layer with the stream's process-lane
    /// handle and preserved across every later [`StreamEngine::recompile_with_seed`],
    /// exactly like the dispatch boundary.
    pub fn set_tracer(&mut self, tracer: vqpy_core::Tracer) {
        self.ops.tracer = tracer;
    }

    /// Retires the engine, handing over its stream state. Used when a
    /// replay engine retires at the splice boundary: its state seeds the
    /// live engine via [`StreamEngine::recompile_with_seed`] or
    /// [`StreamEngine::seeded`], so replayed tracks arrive with their
    /// windows and values.
    pub fn into_state(self) -> StreamState {
        self.ops.state
    }

    /// Captures a restorable checkpoint: a copy of the stream state and
    /// the cumulative metrics.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            state: self.ops.state.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Rolls the engine back to a checkpoint taken by
    /// [`StreamEngine::snapshot`] under the same plan: the stream state and
    /// the cumulative metrics are overwritten. Used by the serving layer's
    /// restart policy after a worker panic, so a re-run starts from the
    /// same consistent boundary the failed segment did.
    pub fn restore(&mut self, snapshot: EngineSnapshot) {
        self.ops.state = snapshot.state;
        self.metrics = snapshot.metrics;
    }

    /// Swaps in a recompiled super-plan at a batch boundary. The stream
    /// state moves into the new plan's ([`StreamState::adopt`]): an object
    /// table wherever the old and new plans track the alias, with every
    /// column the new plan keeps; the reference frame wherever their diff
    /// filters share a threshold; the reuse statistics always.
    /// The model-dispatch boundary (direct or cross-stream batcher) and
    /// the tracer carry over too. On error (unknown model in the new plan)
    /// the old plan keeps running unchanged.
    ///
    /// `seed` is another engine's state, from [`StreamEngine::into_state`]
    /// (empty for a plain recompile). This engine's own state always wins:
    /// the seed fills only tables, table columns and a reference frame the
    /// old plan did not have, and a table's columns only from a tracker in
    /// the same state as this engine's. The replay→live splice uses this
    /// so a replayed query's tracker, windows and values arrive with full
    /// history, while state the live engine was already running stays
    /// live.
    pub fn recompile_with_seed(
        &mut self,
        plan: PlanDag,
        zoo: &ModelZoo,
        seed: StreamState,
    ) -> Result<()> {
        let mut ops = instantiate_stage_ops(&plan, zoo, self.workers)?;
        ops.dispatch = std::sync::Arc::clone(&self.ops.dispatch);
        ops.tracer = self.ops.tracer.clone();
        ops.state.adopt(std::mem::take(&mut self.ops.state), seed);
        self.ops = ops;
        self.plan = plan;
        Ok(())
    }

    /// Runs a contiguous frame segment through the current plan, feeding
    /// finished frames to `sink` in frame order.
    pub fn run_segment(
        &mut self,
        source: &dyn VideoSource,
        zoo: &ModelZoo,
        clock: &Clock,
        config: &ExecConfig,
        range: std::ops::Range<u64>,
        sink: &mut dyn ResultSink,
    ) -> Result<()> {
        let env = ExecEnv {
            plan: &self.plan,
            source,
            zoo,
            clock,
            config,
        };
        run_segment(env, range, &mut self.ops, &mut self.metrics, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::sync::Arc;
    use vqpy_core::backend::plan::{build_plan, PlanOptions};
    use vqpy_core::frontend::{library, predicate::Pred};
    use vqpy_core::{Collector, FrameHit, Query};
    use vqpy_models::ModelZoo;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn query(name: &str, color: &str) -> Arc<Query> {
        Query::builder(name)
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap()
    }

    fn run_red(engine: &mut StreamEngine, v: &SyntheticVideo, frames: Range<u64>) -> Vec<FrameHit> {
        let (zoo, cfg) = (ModelZoo::standard(), ExecConfig::default());
        let mut sink = Collector::new(engine.plan());
        let clock = vqpy_models::Clock::new();
        engine
            .run_segment(v, &zoo, &clock, &cfg, frames, &mut sink)
            .unwrap();
        let results = sink.finalize(engine.plan(), ExecMetrics::default(), 0.0);
        let red = results.into_iter().find(|r| r.query_name == "Red");
        red.map(|r| r.frame_hits).unwrap_or_default()
    }

    /// A detach that drops every query on an alias drops the alias's
    /// object table, values and all. A query re-attached later starts a
    /// fresh tracker, whose ids restart at 1: its first sightings miss, as
    /// they would on a fresh engine, rather than hitting the colours the
    /// detached tracker's objects left under the same ids.
    #[test]
    fn detach_drops_the_alias_table() {
        let zoo = ModelZoo::standard();
        let opts = PlanOptions::vqpy_default();
        let plan = |queries: &[Arc<Query>]| build_plan(queries, &zoo, &opts).unwrap();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 9, 20.0));
        let cfg = ExecConfig::default();
        let red = query("Red", "red");
        let walking = Query::builder("Moving")
            .vobj("person", library::person_schema())
            .frame_constraint(Pred::gt("person", "score", 0.5) & Pred::gt("person", "speed", 1.0))
            .frame_output(&[("person", "track_id")])
            .build()
            .unwrap();
        let run = |engine: &mut StreamEngine, frames| run_red(engine, &v, frames);
        let aliases = |engine: &StreamEngine| -> Vec<(String, usize)> {
            let tables = engine.ops.state.objects.tables().iter();
            tables.map(|t| (t.alias().to_owned(), t.values())).collect()
        };

        let both = [Arc::clone(&red), Arc::clone(&walking)];
        let mut engine = StreamEngine::new(plan(&both), &zoo, &cfg).unwrap();
        run(&mut engine, 0..60);
        let tables = aliases(&engine);
        assert!(
            tables.iter().any(|(a, n)| a == "car" && *n > 0),
            "{tables:?}"
        );

        let people = [Arc::clone(&walking)];
        engine
            .recompile_with_seed(plan(&people), &zoo, StreamState::default())
            .unwrap();
        assert_eq!(aliases(&engine), [("person".to_owned(), 0)]);
        run(&mut engine, 60..90);

        let before = engine.metrics().reuse;
        engine
            .recompile_with_seed(
                plan(&[walking, Arc::clone(&red)]),
                &zoo,
                StreamState::default(),
            )
            .unwrap();
        let hits = run(&mut engine, 90..180);
        let after = engine.metrics().reuse;
        let mut fresh = StreamEngine::new(plan(&[red]), &zoo, &cfg).unwrap();
        let fresh_hits = run(&mut fresh, 90..180);
        let fresh_stats = fresh.metrics().reuse;
        assert!(!fresh_hits.is_empty());
        assert_eq!(hits, fresh_hits, "the re-attached query answers as fresh");
        let delta = (after.hits - before.hits, after.misses - before.misses);
        assert_eq!(delta, (fresh_stats.hits, fresh_stats.misses));
    }

    /// A restore puts the object tables back: the tracker, the rows a
    /// failed attempt freed and their colours, so a re-run answers and
    /// hits as the first run did.
    #[test]
    fn restore_rolls_back_the_tables() {
        let (zoo, cfg) = (ModelZoo::standard(), ExecConfig::default());
        let plan = build_plan(&[query("Red", "red")], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 9, 20.0));
        let mut engine = StreamEngine::new(plan, &zoo, &cfg).unwrap();
        run_red(&mut engine, &v, 0..60);
        let checkpoint = engine.snapshot();
        let first = (run_red(&mut engine, &v, 60..180), engine.metrics().reuse);
        engine.restore(checkpoint);
        let again = (run_red(&mut engine, &v, 60..180), engine.metrics().reuse);
        assert!(!first.0.is_empty());
        assert_eq!(first, again);
    }

    /// At a splice the seed fills the columns the live table lacks, row by
    /// track: a live engine tracking cars without their colour takes the
    /// replayed colours, so it hits as an engine that ran both queries all
    /// along. Both plans filter `score > 0.5` before tracking, so the two
    /// trackers are in the same state and their track ids agree.
    #[test]
    fn a_seed_fills_the_columns_the_live_table_lacks() {
        let (zoo, cfg, opts) = (
            ModelZoo::standard(),
            ExecConfig::default(),
            PlanOptions::vqpy_default(),
        );
        let count = Query::builder("Count")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .video_output(vqpy_core::Aggregate::CountDistinctTracks {
                alias: "car".into(),
            })
            .build()
            .unwrap();
        let red = query("Red", "red");
        let plan = |queries: &[Arc<Query>]| build_plan(queries, &zoo, &opts).unwrap();
        let both = [Arc::clone(&count), Arc::clone(&red)];
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 9, 20.0));
        let mut live = StreamEngine::new(plan(&[count]), &zoo, &cfg).unwrap();
        let mut replay = StreamEngine::new(plan(&[red]), &zoo, &cfg).unwrap();
        let mut always = StreamEngine::new(plan(&both), &zoo, &cfg).unwrap();
        for engine in [&mut live, &mut replay, &mut always] {
            run_red(engine, &v, 0..60);
        }
        live.recompile_with_seed(plan(&both), &zoo, replay.into_state())
            .unwrap();
        let reuse = |e: &StreamEngine| e.metrics().reuse;
        let (live_before, always_before) = (reuse(&live), reuse(&always));
        assert_eq!(
            run_red(&mut live, &v, 60..180),
            run_red(&mut always, &v, 60..180)
        );
        let (live_after, always_after) = (reuse(&live), reuse(&always));
        assert!(always_after.hits > always_before.hits);
        assert_eq!(
            (
                live_after.hits - live_before.hits,
                live_after.misses - live_before.misses
            ),
            (
                always_after.hits - always_before.hits,
                always_after.misses - always_before.misses
            ),
        );
    }

    #[test]
    fn recompile_preserves_shared_fingerprints() {
        let zoo = ModelZoo::standard();
        let opts = PlanOptions::vqpy_default();
        let p1 = build_plan(&[query("Red", "red"), query("Black", "black")], &zoo, &opts).unwrap();
        let p2 = build_plan(&[query("Red", "red"), query("Green", "green")], &zoo, &opts).unwrap();
        let labels = |p: &PlanDag| -> Vec<String> { p.ops.iter().map(|op| op.label()).collect() };
        let (l1, l2) = (labels(&p1), labels(&p2));
        let shared: Vec<&String> = l1.iter().filter(|l| l2.contains(l)).collect();
        // Detector, tracker, and the color projection are shared subgraphs.
        assert!(
            shared.iter().any(|f| f.starts_with("detect(")),
            "{shared:?}"
        );
        assert!(shared.iter().any(|f| f.starts_with("track(")), "{shared:?}");
        assert!(shared.iter().any(|f| f.contains("car.color")), "{shared:?}");

        let cfg = ExecConfig::default();
        let mut engine = StreamEngine::new(p1, &zoo, &cfg).unwrap();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 9, 6.0));
        let clock = vqpy_models::Clock::new();
        let mut sink = Collector::new(engine.plan());
        engine
            .run_segment(&v, &zoo, &clock, &cfg, 0..30, &mut sink)
            .unwrap();
        let reuse_before = engine.metrics().reuse;
        engine
            .recompile_with_seed(p2, &zoo, StreamState::default())
            .unwrap();
        // The reuse cache survived the recompile.
        let mut sink2 = Collector::new(engine.plan());
        engine
            .run_segment(&v, &zoo, &clock, &cfg, 30..60, &mut sink2)
            .unwrap();
        let reuse_after = engine.metrics().reuse;
        assert!(
            reuse_after.hits > reuse_before.hits,
            "carried tracks should keep hitting the reuse cache: {reuse_before:?} -> {reuse_after:?}"
        );
    }
}
