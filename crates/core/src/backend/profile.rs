//! Canary profiling (§4.3): run every candidate plan on a short canary
//! clip, score each against the most-general plan's labels, and pick the
//! cheapest plan meeting the accuracy target. Each worker runs its
//! candidates in lockstep over one decode of the canary (see
//! [`profile_and_choose`]).

use crate::backend::exec::{run_segment, Collector, ExecConfig, ExecMetrics, ExecMode};
use crate::backend::plan::PlanDag;
use crate::backend::stage::{instantiate_stage_ops, ExecEnv, StageOps};
use crate::error::{Result, VqpyError};
use crate::scoring::f1_frames;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vqpy_models::{Clock, ModelZoo};
use vqpy_video::frame::Frame;
use vqpy_video::source::{DecodeFault, VideoSource};

/// Profiling outcome for one candidate plan.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    pub label: String,
    /// Mean F1 across the plan's queries, against the reference plan.
    pub f1: f32,
    /// Virtual cost of the canary run in milliseconds.
    pub cost_ms: f64,
}

/// What a finished canary run leaves: hit frames per query, and the
/// candidate's virtual cost.
type Run = (Vec<BTreeSet<u64>>, f64);

/// Profiles `candidates` on `canary` and returns the index of the cheapest
/// plan whose F1 (vs. `candidates[0]`, the most-general reference) meets
/// `accuracy_target`, together with all profiles.
///
/// Candidate `i` runs on worker `i % W`, one thread per core: not one per
/// candidate, since every decoding thread keeps an allocator arena at its
/// high-water mark. A worker decodes each canary batch once and runs it
/// through each of its candidates' own operators and object tables,
/// collector and clock with [`run_segment`] under [`ExecMode::Sequential`], so a
/// profile equals the candidate's solo `execute_plan` in any mode, virtual
/// cost included. A candidate that fails or panics profiles as F1 0 at
/// infinite cost and leaves the others untouched.
///
/// # Errors
///
/// Fails when the reference plan fails; returns
/// [`VqpyError::NoFeasiblePlan`] when no candidate reaches the target (the
/// reference itself always scores 1.0, so this only happens with a target
/// above 1.0).
pub fn profile_and_choose(
    candidates: &[PlanDag],
    canary: &dyn VideoSource,
    zoo: &ModelZoo,
    config: &ExecConfig,
    accuracy_target: f32,
) -> Result<(usize, Vec<PlanProfile>)> {
    assert!(!candidates.is_empty(), "need at least the reference plan");

    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(candidates.len());
    let mut runs: Vec<Option<Run>> = candidates.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mine: Vec<&PlanDag> = candidates.iter().skip(w).step_by(workers).collect();
                scope.spawn(move || run_lockstep(&mine, canary, zoo, config))
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            // A worker that panicked outside a candidate leaves its runs empty.
            for (k, run) in handle.join().unwrap_or_default().into_iter().enumerate() {
                runs[w + k * workers] = run;
            }
        }
    });
    let profiles = score(candidates, &runs)?;

    let mut best: Option<usize> = None;
    for (i, p) in profiles.iter().enumerate() {
        if p.f1 >= accuracy_target {
            match best {
                None => best = Some(i),
                Some(b) if p.cost_ms < profiles[b].cost_ms => best = Some(i),
                _ => {}
            }
        }
    }
    match best {
        Some(i) => Ok((i, profiles)),
        None => {
            let best_f1 = profiles.iter().map(|p| p.f1).fold(0.0f32, f32::max);
            Err(VqpyError::NoFeasiblePlan {
                target: accuracy_target,
                best: best_f1,
            })
        }
    }
}

/// Scores each candidate's run against the reference's (`runs[0]`); a
/// candidate without a run profiles as F1 0 at infinite cost.
fn score(candidates: &[PlanDag], runs: &[Option<Run>]) -> Result<Vec<PlanProfile>> {
    let Some((reference_hits, _)) = &runs[0] else {
        return Err(VqpyError::InvalidQuery(
            "reference plan failed during canary profiling".into(),
        ));
    };

    let mut profiles = Vec::with_capacity(candidates.len());
    for (plan, run) in candidates.iter().zip(runs) {
        match run {
            Some((hits, cost)) => {
                let mut f1_sum = 0.0f64;
                for (h, r) in hits.iter().zip(reference_hits) {
                    f1_sum += f1_frames(h, r).f1;
                }
                let f1 = (f1_sum / reference_hits.len().max(1) as f64) as f32;
                profiles.push(PlanProfile {
                    label: plan.label.clone(),
                    f1,
                    cost_ms: *cost,
                });
            }
            None => profiles.push(PlanProfile {
                label: plan.label.clone(),
                f1: 0.0,
                cost_ms: f64::INFINITY,
            }),
        }
    }
    Ok(profiles)
}

/// A candidate part-way through the canary: what its solo `execute_plan`
/// would own.
struct Lane {
    ops: StageOps,
    collector: Collector,
    clock: Clock,
}

/// Runs `plans` over `canary` in lockstep on this thread, decoding each
/// batch once; a plan that fails or panics leaves `None`.
fn run_lockstep(
    plans: &[&PlanDag],
    canary: &dyn VideoSource,
    zoo: &ModelZoo,
    config: &ExecConfig,
) -> Vec<Option<Run>> {
    let config = ExecConfig {
        exec_mode: ExecMode::Sequential,
        ..config.clone()
    };
    let mut lanes: Vec<Option<Lane>> = plans
        .iter()
        .map(|plan| {
            Some(Lane {
                ops: instantiate_stage_ops(plan, zoo, 1).ok()?,
                collector: Collector::new(plan),
                clock: Clock::new(),
            })
        })
        .collect();
    // Segment counters: a profile reads only hits and cost.
    let mut counters = ExecMetrics::default();
    let (n, batch) = (canary.frame_count(), config.batch_size.max(1) as u64);
    for lo in (0..n).step_by(batch as usize) {
        let frames = lo..(lo + batch).min(n);
        let decoded = DecodedBatch {
            source: canary,
            first: lo,
            frames: frames.clone().map(|f| canary.try_frame(f)).collect(),
        };
        for (plan, slot) in plans.iter().zip(&mut lanes) {
            let Some(lane) = slot else { continue };
            let env = ExecEnv {
                plan,
                source: &decoded,
                zoo,
                clock: &lane.clock,
                config: &config,
            };
            let (ops, sink) = (&mut lane.ops, &mut lane.collector);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                run_segment(env, frames.clone(), ops, &mut counters, sink)
            }));
            // Between batches a lane holds no frames, so memory stays at
            // one decoded batch per worker.
            ops.slots.clear();
            if !matches!(ran, Ok(Ok(()))) {
                *slot = None;
            }
        }
    }
    let runs = plans.iter().zip(lanes).map(|(plan, lane)| {
        let lane = lane?;
        let results = lane.collector.finalize(plan, ExecMetrics::default(), 0.0);
        let hits = results.iter().map(|r| r.hit_frame_set()).collect();
        Some((hits, lane.clock.virtual_ms()))
    });
    runs.collect()
}

/// One decoded batch of the canary, served to every candidate of a worker;
/// asking for a frame outside it panics.
struct DecodedBatch<'a> {
    source: &'a dyn VideoSource,
    first: u64,
    frames: Vec<std::result::Result<Frame, DecodeFault>>,
}

impl VideoSource for DecodedBatch<'_> {
    fn video_id(&self) -> u64 {
        self.source.video_id()
    }

    fn fps(&self) -> u32 {
        self.source.fps()
    }

    fn resolution(&self) -> (u32, u32) {
        self.source.resolution()
    }

    fn frame_count(&self) -> u64 {
        self.source.frame_count()
    }

    fn frame(&self, index: u64) -> Frame {
        self.try_frame(index).expect("a decodable canary frame")
    }

    fn try_frame(&self, index: u64) -> std::result::Result<Frame, DecodeFault> {
        self.frames[(index - self.first) as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::exec::{execute_plan, QueryResult};
    use crate::backend::optimize::enumerate_plans;
    use crate::backend::plan::PlanOptions;
    use crate::extend::{BinaryFilterReg, ExtensionRegistry, FrameFilterReg, SpecializedNnReg};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_models::{
        Detection, Detector, FaultInjector, FaultPlan, ModelFault, ModelProfile, Value,
    };
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    #[test]
    fn profiling_prefers_cheaper_plans_at_equal_accuracy() {
        let zoo = vqpy_models::ModelZoo::standard();
        let ext = ExtensionRegistry::new();
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
        let q = Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .build()
            .unwrap();
        let plans =
            enumerate_plans(&[Arc::clone(&q)], &zoo, &ext, &PlanOptions::vqpy_default()).unwrap();
        assert!(plans.len() > 1);
        let canary = SyntheticVideo::new(Scene::generate(presets::jackson(), 404, 15.0));
        let (chosen, profiles) =
            profile_and_choose(&plans, &canary, &zoo, &ExecConfig::default(), 0.8).unwrap();
        // Profiles come back in candidate order, whichever worker ran which.
        assert!(profiles
            .iter()
            .map(|p| &p.label)
            .eq(plans.iter().map(|p| &p.label)));
        assert!(profiles.iter().all(|p| p.cost_ms.is_finite()));
        // Reference always scores 1.0 against itself.
        assert!((profiles[0].f1 - 1.0).abs() < 1e-6);
        // The chosen plan meets the target and is no more expensive than
        // the reference.
        assert!(profiles[chosen].f1 >= 0.8);
        assert!(profiles[chosen].cost_ms <= profiles[0].cost_ms);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let zoo = vqpy_models::ModelZoo::standard();
        let q = Query::builder("Any")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .build()
            .unwrap();
        let plans = enumerate_plans(
            &[q],
            &zoo,
            &ExtensionRegistry::new(),
            &PlanOptions::vqpy_default(),
        )
        .unwrap();
        let canary = SyntheticVideo::new(Scene::generate(presets::banff(), 1, 3.0));
        let err =
            profile_and_choose(&plans, &canary, &zoo, &ExecConfig::default(), 1.5).unwrap_err();
        assert!(matches!(err, VqpyError::NoFeasiblePlan { .. }));
    }

    /// The specialised detector, the binary filter and the frame filter:
    /// eight candidates for one red-car query.
    fn all_extensions() -> ExtensionRegistry {
        let ext = ExtensionRegistry::new();
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
        ext
    }

    fn red_car_candidates(zoo: &ModelZoo) -> Vec<PlanDag> {
        let q = Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .build()
            .unwrap();
        let plans =
            enumerate_plans(&[q], zoo, &all_extensions(), &PlanOptions::vqpy_default()).unwrap();
        assert_eq!(plans.len(), 8);
        plans
    }

    /// Four seconds of jackson: 60 frames, a multiple of neither 7 nor 8.
    /// Red cars are on screen both before and after frame 50.
    fn short_canary() -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::jackson(), 404, 4.0))
    }

    /// The profiles of every candidate run alone through `execute_plan`
    /// under `config`, each on a fresh clock.
    fn solo_profiles(
        plans: &[PlanDag],
        canary: &dyn VideoSource,
        zoo: &ModelZoo,
        config: &ExecConfig,
    ) -> Vec<PlanProfile> {
        let runs: Vec<Option<Run>> = plans
            .iter()
            .map(|plan| {
                let clock = Clock::new();
                let results = execute_plan(plan, canary, zoo, &clock, config).ok()?;
                let hits = results.iter().map(QueryResult::hit_frame_set).collect();
                Some((hits, clock.virtual_ms()))
            })
            .collect();
        score(plans, &runs).unwrap()
    }

    fn assert_bit_equal(got: &PlanProfile, want: &PlanProfile, context: &str) {
        let what = format!("{context}, {}", want.label);
        assert_eq!(got.label, want.label, "{what}");
        assert_eq!(got.f1.to_bits(), want.f1.to_bits(), "{what}: f1");
        assert_eq!(
            got.cost_ms.to_bits(),
            want.cost_ms.to_bits(),
            "{what}: cost"
        );
    }

    #[test]
    fn lockstep_profiles_equal_solo_runs_under_every_batch_size_and_mode() {
        let zoo = ModelZoo::standard();
        let plans = red_car_candidates(&zoo);
        let canary = short_canary();
        let n = canary.frame_count();
        assert!(!n.is_multiple_of(7) && !n.is_multiple_of(8), "{n} frames");
        for exec_mode in [ExecMode::Sequential, ExecMode::Pipelined { workers: 2 }] {
            for batch_size in [1, 7, 8] {
                let config = ExecConfig {
                    batch_size,
                    exec_mode,
                    ..ExecConfig::default()
                };
                let (_, got) = profile_and_choose(&plans, &canary, &zoo, &config, 0.0).unwrap();
                let want = solo_profiles(&plans, &canary, &zoo, &config);
                // Scoring is exercised: some candidate loses hits.
                assert!(want.iter().any(|p| p.f1 < 1.0), "{want:?}");
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!(w.cost_ms.is_finite(), "{w:?}");
                    assert_bit_equal(g, w, &format!("{exec_mode:?}, batch {batch_size}"));
                }
            }
        }
    }

    /// `red_car_detector`, failing every batch that reaches canary frame
    /// 50: through a [`FaultInjector`] when `faulty` is set, by panicking
    /// otherwise.
    struct FailsFromFrame50 {
        inner: Arc<dyn Detector>,
        faulty: Option<Arc<dyn Detector>>,
    }

    impl Detector for FailsFromFrame50 {
        fn profile(&self) -> &ModelProfile {
            self.inner.profile()
        }

        fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection> {
            self.inner.detect(frame, clock)
        }

        fn try_detect_batch(
            &self,
            frames: &[&Frame],
            clock: &Clock,
        ) -> std::result::Result<Vec<Vec<Detection>>, ModelFault> {
            if frames.iter().all(|f| f.index < 50) {
                return self.inner.try_detect_batch(frames, clock);
            }
            match &self.faulty {
                Some(faulty) => faulty.try_detect_batch(frames, clock),
                None => panic!("red_car_detector panicked at canary frame 50"),
            }
        }
    }

    #[test]
    fn a_failing_candidate_leaves_only_its_own_profile_empty() {
        let plans = red_car_candidates(&ModelZoo::standard());
        let canary = short_canary();
        let config = ExecConfig::default();
        let healthy = profile_and_choose(&plans, &canary, &ModelZoo::standard(), &config, 0.0)
            .unwrap()
            .1;
        let injector = FaultInjector::new(FaultPlan::every_nth(7, 1));
        for panics in [false, true] {
            let zoo = ModelZoo::standard();
            let inner = zoo.detector("red_car_detector").unwrap();
            let faulty = (!panics).then(|| injector.wrap_detector(Arc::clone(&inner)));
            zoo.register_detector(Arc::new(FailsFromFrame50 { inner, faulty }));
            let (_, got) = profile_and_choose(&plans, &canary, &zoo, &config, 0.0).unwrap();
            let context = if panics { "panic" } else { "model fault" };
            for (g, h) in got.iter().zip(&healthy) {
                if h.label.contains("specialized") {
                    assert!(h.cost_ms.is_finite(), "{h:?}");
                    assert_eq!((g.f1, g.cost_ms), (0.0, f64::INFINITY), "{context}: {g:?}");
                } else {
                    assert_bit_equal(g, h, context);
                }
            }
        }
        // Every specialised candidate reached frame 50 and failed there.
        assert_eq!(injector.injected_faults(), 4);
    }
}
