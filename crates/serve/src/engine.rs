//! The per-stream execution engine: a persistent wrapper around the core
//! segment runner that survives super-plan recompiles.
//!
//! A [`StreamEngine`] owns everything that must outlive any single plan:
//!
//! - the **operator chains** ([`StageOps`]) holding cross-frame state
//!   (trackers, frame-difference filters, stateful property windows);
//! - the **reuse cache** of §4.2, whose keys are interned symbols;
//! - an **append-only symbol table**: recompiled plans intern into the
//!   same table, so a symbol means the same `(alias, property)` for the
//!   stream's whole lifetime and cached values are never read back under a
//!   different identity;
//! - cumulative [`ExecMetrics`].
//!
//! On [`StreamEngine::recompile_with_seed`], operators of the new plan
//! inherit the old plan's state wherever the structural fingerprint matches (see
//! [`PlanDag::op_fingerprints`] and `Operator::state_key`); everything else
//! starts fresh. This is what makes attach/detach invisible to surviving
//! queries: their subgraph's operators are bit-for-bit the ones that were
//! already running.

use vqpy_core::backend::exec::{run_segment, ResultSink};
use vqpy_core::backend::plan::PlanDag;
use vqpy_core::backend::reuse::{ReuseCache, ReuseTier};
use vqpy_core::backend::stage::{instantiate_stage_ops, ExecEnv, OpStates};
use vqpy_core::backend::symbols::SymbolTable;
use vqpy_core::error::Result;
use vqpy_core::{ExecConfig, ExecMetrics, StageOps};
use vqpy_models::{Clock, ModelZoo};
use vqpy_video::source::VideoSource;

/// A restorable checkpoint of one stream engine: every stateful operator's
/// cross-frame state (tracker tracks, frame-difference reference frames,
/// stateful property windows), the reuse cache's values and statistics,
/// and the cumulative metrics at capture time.
///
/// Taken by the serving layer before each segment;
/// [`StreamEngine::restore`] rolls the engine back so a panicked segment
/// can be re-run from a consistent boundary. The cache belongs in it
/// because prep forgets a track's values when it expires, 16 frames after
/// its last sighting: a failed attempt may forget a track whose last
/// sighting the re-run, from the restored tracker, probes again.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    states: OpStates,
    reuse: ReuseCache,
    metrics: ExecMetrics,
}

/// Live execution state for one stream, persistent across plan recompiles.
pub struct StreamEngine {
    plan: PlanDag,
    symbols: SymbolTable,
    ops: StageOps,
    reuse: ReuseCache,
    metrics: ExecMetrics,
    workers: usize,
}

impl StreamEngine {
    /// Instantiates the engine for an initial super-plan.
    pub fn new(plan: PlanDag, zoo: &ModelZoo, config: &ExecConfig) -> Result<Self> {
        let workers = config.exec_mode.workers();
        let mut symbols = plan.symbols.clone();
        let ops = instantiate_stage_ops(&plan, zoo, workers, &mut symbols)?;
        Ok(Self {
            plan,
            symbols,
            ops,
            reuse: ReuseCache::new(),
            metrics: ExecMetrics::default(),
            workers,
        })
    }

    /// The currently executing super-plan.
    pub fn plan(&self) -> &PlanDag {
        &self.plan
    }

    /// Cumulative execution metrics, with a fresh reuse-cache snapshot.
    pub fn metrics(&self) -> ExecMetrics {
        let mut m = self.metrics.clone();
        m.reuse = self.reuse.stats();
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

    /// Installs a durable tier behind the engine's in-memory reuse cache
    /// (see [`vqpy_core::backend::reuse::ReuseTier`]): cache misses fall
    /// through to the tier, and stored values are written through to it.
    /// The serving layer points this at the stream's
    /// [`vqpy_store::StreamStore`] so intrinsic property values survive
    /// engine retirement — and whole processes.
    pub fn set_reuse_tier(&mut self, tier: std::sync::Arc<dyn ReuseTier>) {
        self.reuse.set_tier(tier);
    }

    /// Drains every stateful operator's cross-frame state out of the
    /// engine, keyed by structural fingerprint. Used when a replay engine
    /// retires at the splice boundary: its states seed the live engine via
    /// [`StreamEngine::recompile_with_seed`] or [`StreamEngine::seed_states`].
    /// The engine is left with empty operator state and should be dropped.
    pub fn take_states(&mut self) -> OpStates {
        self.ops.export_states()
    }

    /// Imports operator states into a freshly built engine (states whose
    /// fingerprint has no matching operator are ignored). Only meaningful
    /// before the engine has run anything; later recompiles carry the
    /// seeded state forward like any other operator state.
    pub fn seed_states(&mut self, mut seed: OpStates) {
        self.ops.import_states(&mut seed);
    }

    /// Captures a restorable checkpoint of every stateful operator, the
    /// reuse cache and the cumulative metrics. Export drains the
    /// operators, so the state is cloned and immediately re-imported — the
    /// engine keeps running exactly as before the call.
    pub fn snapshot(&mut self) -> EngineSnapshot {
        let mut states = self.ops.export_states();
        let cloned = states.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        self.ops.import_states(&mut states);
        EngineSnapshot {
            states: cloned,
            reuse: self.reuse.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Rolls the engine back to a checkpoint taken by
    /// [`StreamEngine::snapshot`]: every stateful operator's cross-frame
    /// state, the reuse cache's values and statistics, and the cumulative
    /// metrics are overwritten. Used by the serving layer's restart policy
    /// after a worker panic, so a re-run starts from the same consistent
    /// boundary the failed segment did.
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        let mut states = snapshot.states.clone();
        self.ops.import_states(&mut states);
        self.reuse.restore(&snapshot.reuse);
        self.metrics = snapshot.metrics.clone();
    }

    /// Swaps in a recompiled super-plan at a batch boundary. Cross-frame
    /// operator state carries over wherever the old and new plans share an
    /// operator fingerprint; the reuse cache survives untouched because
    /// symbols are interned into the engine's append-only table. The
    /// model-dispatch boundary (direct or cross-stream batcher) carries
    /// over too. On error (unknown model in the new plan) the old plan
    /// keeps running unchanged.
    ///
    /// `seed` holds operator states exported from another engine via
    /// [`StreamEngine::take_states`] (empty for a plain recompile). This
    /// engine's own states always win: a seed entry is used only for
    /// operators the old plan did not have. The replay→live splice uses
    /// this so a replayed query's operators (its tracker, windows, …)
    /// arrive with full history, while operators the live engine was
    /// already running keep their live state — which, for shared
    /// fingerprints, the replay recomputed identically anyway.
    pub fn recompile_with_seed(
        &mut self,
        plan: PlanDag,
        zoo: &ModelZoo,
        mut seed: OpStates,
    ) -> Result<()> {
        let mut ops = instantiate_stage_ops(&plan, zoo, self.workers, &mut self.symbols)?;
        ops.dispatch = std::sync::Arc::clone(&self.ops.dispatch);
        ops.tracer = self.ops.tracer.clone();
        let mut states = self.ops.export_states();
        seed.retain(|k, _| !states.contains_key(k));
        states.extend(seed);
        ops.import_states(&mut states);
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
        run_segment(
            env,
            range,
            &mut self.ops,
            &mut self.reuse,
            &mut self.metrics,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vqpy_core::backend::plan::{build_plan, PlanOptions};
    use vqpy_core::frontend::{library, predicate::Pred};
    use vqpy_core::{Collector, Query};
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

    #[test]
    fn recompile_preserves_shared_fingerprints() {
        let zoo = ModelZoo::standard();
        let opts = PlanOptions::vqpy_default();
        let p1 = build_plan(&[query("Red", "red"), query("Black", "black")], &zoo, &opts).unwrap();
        let p2 = build_plan(&[query("Red", "red"), query("Green", "green")], &zoo, &opts).unwrap();
        let shared: Vec<String> = p1
            .op_fingerprints()
            .into_iter()
            .filter(|f| p2.op_fingerprints().contains(f))
            .collect();
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
            .recompile_with_seed(p2, &zoo, OpStates::new())
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
