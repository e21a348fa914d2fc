//! Canary profiling (§4.3): run every candidate plan on a short canary
//! clip, score each against the most-general plan's labels, and pick the
//! cheapest plan meeting the accuracy target.

use crate::backend::exec::{execute_plan, ExecConfig};
use crate::backend::plan::PlanDag;
use crate::error::{Result, VqpyError};
use crate::scoring::f1_frames;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use vqpy_models::{Clock, ModelZoo};
use vqpy_video::source::VideoSource;

/// Profiling outcome for one candidate plan.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    pub label: String,
    /// Mean F1 across the plan's queries, against the reference plan.
    pub f1: f32,
    /// Virtual cost of the canary run in milliseconds.
    pub cost_ms: f64,
}

/// Profiles `candidates` on `canary` and returns the index of the cheapest
/// plan whose F1 (vs. `candidates[0]`, the most-general reference) meets
/// `accuracy_target`, together with all profiles.
///
/// Candidates are profiled on one worker thread per core, each candidate
/// with its own clock, so profiling does not pollute the session's
/// execution clock. Not one thread per candidate: every decoding thread
/// leaves an allocator arena at its high-water mark, and sixteen
/// candidates on two cores are one thread more than glibc has arenas for,
/// so two threads doubled up in a different arena on every call and the
/// memory the process held depended on how the threads happened to overlap.
///
/// # Errors
///
/// Propagates execution errors; returns [`VqpyError::NoFeasiblePlan`] when
/// no candidate reaches the target (the reference itself always scores 1.0,
/// so this only happens with a target above 1.0).
pub fn profile_and_choose(
    candidates: &[PlanDag],
    canary: &dyn VideoSource,
    zoo: &ModelZoo,
    config: &ExecConfig,
    accuracy_target: f32,
) -> Result<(usize, Vec<PlanProfile>)> {
    assert!(!candidates.is_empty(), "need at least the reference plan");

    // One slot per candidate; a candidate that fails or panics leaves its
    // slot empty. Workers take the next unclaimed candidate until none is left.
    let runs: Vec<OnceLock<(Vec<BTreeSet<u64>>, f64)>> =
        candidates.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(candidates.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(plan) = candidates.get(i) else { break };
                    let clock = Clock::new();
                    if let Ok(results) = execute_plan(plan, canary, zoo, &clock, config) {
                        let hits = results.iter().map(|r| r.hit_frame_set()).collect();
                        let _ = runs[i].set((hits, clock.virtual_ms()));
                    }
                })
            })
            .collect();
        for h in handles {
            // A worker that panicked ran no further candidates; the others
            // pick them up.
            let _ = h.join();
        }
    });

    let Some((reference_hits, _)) = runs[0].get() else {
        return Err(VqpyError::InvalidQuery(
            "reference plan failed during canary profiling".into(),
        ));
    };

    let mut profiles = Vec::with_capacity(candidates.len());
    for (plan, run) in candidates.iter().zip(&runs) {
        match run.get() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::optimize::enumerate_plans;
    use crate::backend::plan::PlanOptions;
    use crate::extend::{BinaryFilterReg, ExtensionRegistry, SpecializedNnReg};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_models::Value;
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
}
