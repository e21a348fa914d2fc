//! The top-level session: plan, optimize, execute, cache.
//!
//! A [`VqpySession`] owns the model zoo, the extension registry, a plan
//! cache ("this plan can be saved for future queries on similar datasets",
//! §4.3), and a materialized result cache (query-level computation reuse,
//! §4.2). It executes basic queries, shared multi-query pipelines
//! (the VQPy-Opt configuration of §5.3), and composed query expressions.

use crate::backend::exec::{execute_plan, ExecConfig, QueryResult};
use crate::backend::optimize::enumerate_plans;
use crate::backend::plan::{build_plan, PlanDag, PlanOptions};
use crate::backend::profile::{profile_and_choose, PlanProfile};
use crate::error::Result;
use crate::extend::ExtensionRegistry;
use crate::frontend::compose::{duration_filter, temporal_join, QueryExpr};
use crate::frontend::query::{CacheKey, Query};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vqpy_models::{Clock, ModelZoo};
use vqpy_video::source::VideoSource;

/// Session-level configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub exec: ExecConfig,
    /// F1 target (vs. the reference plan) for canary plan selection.
    pub accuracy_target: f32,
    /// Canary length in seconds for plan profiling.
    pub canary_seconds: f64,
    /// Serve repeated queries on the same video from the materialized
    /// result cache (query-level computation reuse, §4.2).
    pub enable_result_cache: bool,
    /// Plan construction knobs (ablation benches override these).
    pub plan: PlanOptions,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            exec: ExecConfig::default(),
            accuracy_target: 0.9,
            canary_seconds: 12.0,
            enable_result_cache: true,
            plan: PlanOptions::vqpy_default(),
        }
    }
}

impl SessionConfig {
    /// Default configuration with pipelined execution: decode, detection,
    /// and the relational tail overlap on dedicated threads, with `workers`
    /// threads fanning out the decode and detect stages. Query results are
    /// identical to the sequential default.
    pub fn pipelined(workers: usize) -> Self {
        Self {
            exec: ExecConfig {
                exec_mode: crate::backend::exec::ExecMode::Pipelined { workers },
                ..ExecConfig::default()
            },
            ..Self::default()
        }
    }
}

/// The result of executing a composed [`QueryExpr`].
#[derive(Debug, Clone)]
pub struct ComposedResult {
    /// Frames on which the composed event holds. For temporal compositions
    /// these are the completion frames of the second event.
    pub frames: Vec<u64>,
    /// For temporal compositions, the matched `(first, second)` frame pairs.
    pub pairs: Vec<(u64, u64)>,
    /// Whether the composed event occurred at all (the video constraint).
    pub satisfied: bool,
}

/// An executing VQPy instance.
pub struct VqpySession {
    zoo: Arc<ModelZoo>,
    extensions: ExtensionRegistry,
    config: SessionConfig,
    clock: Arc<Clock>,
    plan_cache: Mutex<HashMap<Vec<CacheKey>, PlanDag>>,
    result_cache: Mutex<HashMap<(u64, CacheKey), Arc<QueryResult>>>,
    last_profiles: Mutex<Vec<PlanProfile>>,
}

impl VqpySession {
    /// Creates a session over a model zoo with default configuration.
    pub fn new(zoo: Arc<ModelZoo>) -> Self {
        Self::with_config(zoo, SessionConfig::default())
    }

    /// Creates a session with explicit configuration.
    pub fn with_config(zoo: Arc<ModelZoo>, config: SessionConfig) -> Self {
        Self::with_clock(zoo, config, Arc::new(Clock::new()))
    }

    /// Creates a session charging execution cost to an explicit clock.
    /// Serving deployments pass a [`vqpy_models::ClockMode::Latency`] clock
    /// so model cost is realized as wall latency on the stream threads.
    pub fn with_clock(zoo: Arc<ModelZoo>, config: SessionConfig, clock: Arc<Clock>) -> Self {
        Self {
            zoo,
            extensions: ExtensionRegistry::new(),
            config,
            clock,
            plan_cache: Mutex::new(HashMap::new()),
            result_cache: Mutex::new(HashMap::new()),
            last_profiles: Mutex::new(Vec::new()),
        }
    }

    /// The session's virtual clock (execution cost accumulates here).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Shared handle to the session clock, for long-lived serving threads
    /// (the `vqpy-serve` `StreamServer` charges stream execution here).
    pub fn clock_handle(&self) -> Arc<Clock> {
        Arc::clone(&self.clock)
    }

    /// The model zoo.
    pub fn zoo(&self) -> &Arc<ModelZoo> {
        &self.zoo
    }

    /// The extension registry (Figure 11/12 registration surface).
    pub fn extensions(&self) -> &ExtensionRegistry {
        &self.extensions
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Plan profiles from the most recent canary selection.
    pub fn last_profiles(&self) -> Vec<PlanProfile> {
        self.last_profiles.lock().clone()
    }

    /// Clears materialized results and cached plans.
    pub fn clear_caches(&self) {
        self.plan_cache.lock().clear();
        self.result_cache.lock().clear();
    }

    /// Plans `queries` as one shared pipeline, consulting the plan cache
    /// and (when extensions are registered) canary profiling.
    pub fn plan_for(&self, queries: &[Arc<Query>], video: &dyn VideoSource) -> Result<PlanDag> {
        let key: Vec<CacheKey> = queries.iter().map(|q| q.cache_key().clone()).collect();
        if let Some(plan) = self.plan_cache.lock().get(&key) {
            return Ok(plan.clone());
        }
        let plan = if !self.extensions.is_empty() {
            let candidates =
                enumerate_plans(queries, &self.zoo, &self.extensions, &self.config.plan)?;
            if candidates.len() == 1 {
                candidates.into_iter().next().expect("len checked")
            } else {
                let canary_end = self
                    .config
                    .canary_seconds
                    .min(video.duration_s())
                    .max(1.0 / video.fps() as f64);
                // Canary = a prefix clip of the target video (the paper's
                // "short canary input video provided by the user").
                let target = queries
                    .iter()
                    .filter_map(|q| q.accuracy_target())
                    .fold(self.config.accuracy_target, f32::max);
                let (idx, profiles) = match video.scene() {
                    Some(scene) => {
                        let canary = vqpy_video::source::SyntheticVideo::new(scene.clone());
                        let canary = canary.clip(0.0, canary_end);
                        profile_and_choose(
                            &candidates,
                            &canary,
                            &self.zoo,
                            &self.config.exec,
                            target,
                        )?
                    }
                    None => (0, Vec::new()),
                };
                *self.last_profiles.lock() = profiles;
                candidates
                    .into_iter()
                    .nth(idx)
                    .expect("index from enumerate")
            }
        } else {
            let mut plan = build_plan(queries, &self.zoo, &self.config.plan)?;
            crate::backend::optimize::apply_passes(&mut plan, &self.config.plan);
            plan
        };
        self.plan_cache.lock().insert(key, plan.clone());
        Ok(plan)
    }

    /// Executes one basic query, using the materialized-result cache when
    /// the same query was already answered on this video.
    pub fn execute(&self, query: &Arc<Query>, video: &dyn VideoSource) -> Result<Arc<QueryResult>> {
        let cache_key = (video.video_id(), query.cache_key().clone());
        if self.config.enable_result_cache {
            if let Some(hit) = self.result_cache.lock().get(&cache_key) {
                return Ok(Arc::clone(hit));
            }
        }
        let plan = self.plan_for(std::slice::from_ref(query), video)?;
        let results = execute_plan(&plan, video, &self.zoo, &self.clock, &self.config.exec)?;
        let result = Arc::new(results.into_iter().next().expect("one query planned"));
        if self.config.enable_result_cache {
            self.result_cache
                .lock()
                .insert(cache_key, Arc::clone(&result));
        }
        Ok(result)
    }

    /// Executes several queries as one shared pipeline (detector, tracker,
    /// and property computations are shared; §5.3's VQPy-Opt).
    pub fn execute_shared(
        &self,
        queries: &[Arc<Query>],
        video: &dyn VideoSource,
    ) -> Result<Vec<Arc<QueryResult>>> {
        let plan = self.plan_for(queries, video)?;
        let results = execute_plan(&plan, video, &self.zoo, &self.clock, &self.config.exec)?;
        let shared: Vec<Arc<QueryResult>> = results.into_iter().map(Arc::new).collect();
        if self.config.enable_result_cache {
            let mut cache = self.result_cache.lock();
            for (q, r) in queries.iter().zip(&shared) {
                cache.insert((video.video_id(), q.cache_key().clone()), Arc::clone(r));
            }
        }
        Ok(shared)
    }

    /// Executes a composed query expression, applying the duration /
    /// temporal combinators on top of basic query results.
    pub fn execute_expr(
        &self,
        expr: &QueryExpr,
        video: &dyn VideoSource,
    ) -> Result<ComposedResult> {
        match expr {
            QueryExpr::Basic(q) | QueryExpr::Spatial(q) => {
                let r = self.execute(q, video)?;
                let frames = r.hit_frames();
                Ok(ComposedResult {
                    satisfied: !frames.is_empty(),
                    frames,
                    pairs: Vec::new(),
                })
            }
            QueryExpr::Duration {
                base,
                min_frames,
                max_gap,
            } => {
                let inner = self.execute_expr(base, video)?;
                let frames = duration_filter(&inner.frames, *min_frames, *max_gap);
                Ok(ComposedResult {
                    satisfied: !frames.is_empty(),
                    frames,
                    pairs: Vec::new(),
                })
            }
            QueryExpr::Temporal {
                first,
                second,
                window_frames,
            } => {
                let a = self.execute_expr(first, video)?;
                let b = self.execute_expr(second, video)?;
                let pairs = temporal_join(&a.frames, &b.frames, *window_frames);
                let frames = pairs.iter().map(|&(_, f2)| f2).collect::<Vec<_>>();
                Ok(ComposedResult {
                    satisfied: !pairs.is_empty(),
                    frames,
                    pairs,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use std::collections::BTreeSet;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn session() -> VqpySession {
        VqpySession::new(ModelZoo::standard())
    }

    fn red_car() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .build()
            .unwrap()
    }

    #[test]
    fn result_cache_avoids_recomputation() {
        let s = session();
        let v = SyntheticVideo::new(Scene::generate(presets::banff(), 31, 10.0));
        let q = red_car();
        let r1 = s.execute(&q, &v).unwrap();
        let ms_after_first = s.clock().virtual_ms();
        assert!(ms_after_first > 0.0);
        let r2 = s.execute(&q, &v).unwrap();
        let ms_after_second = s.clock().virtual_ms();
        assert_eq!(r1.hit_frame_set(), r2.hit_frame_set());
        assert_eq!(
            ms_after_first, ms_after_second,
            "second execution must be served from the cache"
        );
    }

    /// Two queries that share a name and a constraint but project different
    /// columns are two queries: neither cache serves one's plan or rows
    /// for the other, with the result cache on or off.
    #[test]
    fn same_named_queries_with_other_outputs_do_not_share_caches() {
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 9, 10.0));
        let q = |column: &str| {
            Query::builder("Q")
                .vobj("car", library::vehicle_schema_intrinsic())
                .frame_constraint(Pred::gt("car", "score", 0.5))
                .frame_output(&[("car", column)])
                .build()
                .unwrap()
        };
        let columns = |r: &QueryResult| -> BTreeSet<String> {
            let rows = r.frame_hits.iter().flat_map(|h| &h.outputs);
            rows.flatten().map(|(c, _)| c.clone()).collect()
        };
        for enable_result_cache in [true, false] {
            let config = SessionConfig {
                enable_result_cache,
                ..SessionConfig::default()
            };
            let s = VqpySession::with_config(ModelZoo::standard(), config);
            let ids = s.execute(&q("track_id"), &v).unwrap();
            assert_eq!(columns(&ids), BTreeSet::from(["car.track_id".to_owned()]));
            let colors = s.execute(&q("color"), &v).unwrap();
            assert_eq!(
                columns(&colors),
                BTreeSet::from(["car.color".to_owned()]),
                "result cache {enable_result_cache}"
            );
        }
    }

    #[test]
    fn different_videos_do_not_share_results() {
        let s = session();
        let v1 = SyntheticVideo::new(Scene::generate(presets::banff(), 1, 5.0));
        let v2 = SyntheticVideo::new(Scene::generate(presets::banff(), 2, 5.0));
        let q = red_car();
        let _ = s.execute(&q, &v1).unwrap();
        let before = s.clock().virtual_ms();
        let _ = s.execute(&q, &v2).unwrap();
        assert!(s.clock().virtual_ms() > before, "v2 must actually execute");
    }

    #[test]
    fn pipelined_session_matches_sequential_session() {
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 55, 10.0));
        let q = red_car();
        let seq = VqpySession::new(ModelZoo::standard());
        let seq_result = seq.execute(&q, &v).unwrap();
        let pipe = VqpySession::with_config(ModelZoo::standard(), SessionConfig::pipelined(3));
        let pipe_result = pipe.execute(&q, &v).unwrap();
        assert_eq!(seq_result.hit_frame_set(), pipe_result.hit_frame_set());
    }

    #[test]
    fn composed_duration_runs() {
        let s = session();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 77, 15.0));
        let base = Query::builder("AnyCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .build()
            .unwrap();
        let expr = crate::frontend::compose::duration_query(QueryExpr::basic(base), 10, 2).unwrap();
        let r = s.execute_expr(&expr, &v).unwrap();
        // Traffic at Jackson rates should produce sustained car presence.
        assert!(r.satisfied);
        assert!(r.frames.len() >= 10);
    }
}
