//! DAG optimizations (§4.3): predicate pull-up, operator fusion, and
//! alternative-plan enumeration from inheritance-registered extensions.

use crate::backend::plan::{build_plan, OpSpec, PlanDag, PlanOptions, SpecializedChoice};
use crate::error::Result;
use crate::extend::ExtensionRegistry;
use crate::frontend::predicate::Pred;
use crate::frontend::query::Query;
use std::collections::BTreeSet;
use std::sync::Arc;
use vqpy_models::ModelZoo;

/// Predicate pull-up: moves each filter to the earliest position where all
/// properties it references are available, and floats frame-level filters
/// (diff / binary) to the front of the plan. This is the §4.3 optimization
/// that recovers lazy evaluation from an eagerly-built plan.
pub fn predicate_pullup(plan: &mut PlanDag) {
    // Float frame filters to the very front, preserving their order.
    plan.ops.sort_by_key(|op| !op.is_frame_filter());

    // Extract VObj filters; property availability comes only from
    // Detect/Track/Project ops, so each filter's earliest legal position is
    // independent of the other filters and one pass suffices (a fixpoint
    // loop here could ping-pong two filters contending for the same slot).
    let mut filters: Vec<OpSpec> = Vec::new();
    let mut base: Vec<OpSpec> = Vec::new();
    for op in plan.ops.drain(..) {
        match op {
            OpSpec::Filter { .. } => filters.push(op),
            other => base.push(other),
        }
    }

    for f in filters {
        let OpSpec::Filter { alias, pred, .. } = &f else {
            unreachable!()
        };
        let needed: BTreeSet<String> = pred
            .referenced_props()
            .into_iter()
            .map(|p| p.prop)
            .collect();
        let mut available: BTreeSet<String> = ["bbox", "score", "class_label", "center"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut detect_seen = false;
        let mut insert_at = base.len();
        for (j, op) in base.iter().enumerate() {
            match op {
                OpSpec::Detect { aliases, .. } if aliases.iter().any(|(a, _)| a == alias) => {
                    detect_seen = true;
                }
                OpSpec::Track { alias: a } if a == alias => {
                    available.insert("track_id".into());
                }
                OpSpec::Project { alias: a, prop }
                | OpSpec::FusedProjectFilter { alias: a, prop, .. }
                    if a == alias =>
                {
                    available.insert(prop.clone());
                }
                _ => {}
            }
            if detect_seen && needed.iter().all(|p| available.contains(p)) {
                insert_at = j + 1;
                break;
            }
        }
        // Keep the original relative order of filters landing on the same
        // spot by skipping past previously-inserted filters.
        while insert_at < base.len() && matches!(base[insert_at], OpSpec::Filter { .. }) {
            insert_at += 1;
        }
        base.insert(insert_at, f);
    }
    plan.ops = base;
}

/// Operator fusion: merges each `Project` immediately followed by a
/// `Filter` on the same alias into one fused operator, eliminating a
/// pipeline pass and the intermediate node scan (§4.3's operator fusion).
pub fn fuse_operators(plan: &mut PlanDag) {
    let mut out: Vec<OpSpec> = Vec::with_capacity(plan.ops.len());
    let mut i = 0;
    while i < plan.ops.len() {
        let fused = match (&plan.ops[i], plan.ops.get(i + 1)) {
            (
                OpSpec::Project { alias, prop },
                Some(OpSpec::Filter {
                    alias: fa,
                    pred,
                    required,
                }),
            ) if alias == fa => Some(OpSpec::FusedProjectFilter {
                alias: alias.clone(),
                prop: prop.clone(),
                pred: pred.clone(),
                required: *required,
            }),
            _ => None,
        };
        match fused {
            Some(op) => {
                out.push(op);
                i += 2;
            }
            None => {
                out.push(plan.ops[i].clone());
                i += 1;
            }
        }
    }
    plan.ops = out;
}

/// Applies the intra-plan optimization passes requested by `opts`.
pub fn apply_passes(plan: &mut PlanDag, opts: &PlanOptions) {
    if opts.pullup {
        predicate_pullup(plan);
    }
    if opts.fuse {
        fuse_operators(plan);
    }
}

/// Enumerates candidate plans for `queries`: the baseline plus variants
/// using inheritance-registered extensions (specialized NNs, binary
/// classifiers, differencing filters). The first element is always the
/// most-general baseline, which the canary profiler uses as the accuracy
/// reference.
pub fn enumerate_plans(
    queries: &[Arc<Query>],
    zoo: &ModelZoo,
    extensions: &ExtensionRegistry,
    base: &PlanOptions,
) -> Result<Vec<PlanDag>> {
    let mut variants: Vec<PlanOptions> = Vec::new();
    let mut baseline = base.clone();
    baseline.label = "baseline".into();
    variants.push(baseline);

    // Applicable extensions, resolved through each alias's inheritance chain.
    let mut specialized: Vec<(String, SpecializedChoice)> = Vec::new();
    let mut binary: Vec<String> = Vec::new();
    for q in queries {
        for v in q.vobjs() {
            let chain = |name: &str| v.schema.inherits_from(name);
            for s in extensions.specialized_for(chain) {
                // Only applicable when the query actually constrains the
                // implemented conjunct and does not output the property.
                let conjunct = Pred::eq(&v.alias, &s.prop, s.value.clone());
                let has = q
                    .frame_constraint()
                    .conjuncts()
                    .iter()
                    .any(|c| c.to_string() == conjunct.to_string());
                let outputs_prop = q.frame_output().iter().any(|p| p.prop == s.prop);
                let entry = (
                    v.alias.clone(),
                    SpecializedChoice {
                        detector: s.detector.clone(),
                        prop: s.prop.clone(),
                        value: s.value.clone(),
                    },
                );
                // Several queries of a shared plan may constrain the same
                // conjunct; each choice is one candidate, not one per query.
                if has && !outputs_prop && !specialized.contains(&entry) {
                    specialized.push(entry);
                }
            }
            for b in extensions.binary_for(chain) {
                if !binary.contains(&b.model) {
                    binary.push(b.model.clone());
                }
            }
        }
    }
    let frame_filters = extensions.frame_filters();

    // Independent toggles: binary filter on/off x diff filter on/off x
    // specialized on/off, minus the all-off case (that is the baseline).
    let spec_states: Vec<Option<&(String, SpecializedChoice)>> = {
        let mut v: Vec<Option<&(String, SpecializedChoice)>> = vec![None];
        v.extend(specialized.iter().map(Some));
        v
    };
    for spec in &spec_states {
        for use_binary in [false, true] {
            for use_diff in [false, true] {
                if spec.is_none() && !use_binary && !use_diff {
                    continue; // baseline already present
                }
                if use_binary && binary.is_empty() {
                    continue;
                }
                if use_diff && frame_filters.is_empty() {
                    continue;
                }
                let mut o = base.clone();
                let mut label_parts = Vec::new();
                if let Some((alias, choice)) = spec {
                    o.specialized.insert(alias.clone(), choice.clone());
                    label_parts.push(format!("specialized({})", choice.detector));
                }
                if use_binary {
                    o.binary_filters = binary.clone();
                    label_parts.push(format!("binary({})", binary.join(",")));
                }
                if use_diff {
                    o.diff_filter = Some(frame_filters[0].threshold);
                    label_parts.push("diff".into());
                }
                o.label = format!("+{}", label_parts.join("+"));
                variants.push(o);
            }
        }
    }

    let mut plans = Vec::with_capacity(variants.len());
    for opts in &variants {
        let mut plan = build_plan(queries, zoo, opts)?;
        apply_passes(&mut plan, opts);
        plans.push(plan);
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extend::{BinaryFilterReg, FrameFilterReg, SpecializedNnReg};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use vqpy_models::Value;

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "red"))
            .build()
            .unwrap()
    }

    #[test]
    fn pullup_recovers_lazy_shape_from_eager_plan() {
        let zoo = ModelZoo::standard();
        let mut opts = PlanOptions::vqpy_default();
        opts.eager_filters = true;
        opts.fuse = false;
        opts.pullup = false;
        let mut plan = build_plan(&[red_car_query()], &zoo, &opts).unwrap();
        let desc_before = plan.describe();
        // Eager: score filter after color projection.
        let score_before = desc_before.find("car.score >").unwrap();
        let color_before = desc_before.find("project(car.color)").unwrap();
        assert!(score_before > color_before, "{desc_before}");

        predicate_pullup(&mut plan);
        let desc_after = plan.describe();
        let score_after = desc_after.find("car.score >").unwrap();
        let color_after = desc_after.find("project(car.color)").unwrap();
        assert!(score_after < color_after, "{desc_after}");
    }

    #[test]
    fn fusion_merges_adjacent_project_filter() {
        let zoo = ModelZoo::standard();
        let mut opts = PlanOptions::vqpy_default();
        opts.fuse = false;
        opts.pullup = false;
        let mut plan = build_plan(&[red_car_query()], &zoo, &opts).unwrap();
        assert!(plan.describe().contains("project(car.color)"));
        fuse_operators(&mut plan);
        let desc = plan.describe();
        assert!(
            desc.contains("project+filter(car.color"),
            "fused op expected:\n{desc}"
        );
        assert!(!desc.contains("project(car.color)\nfilter"), "{desc}");
    }

    #[test]
    fn enumeration_includes_extension_variants() {
        let zoo = ModelZoo::standard();
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
        let plans =
            enumerate_plans(&[red_car_query()], &zoo, &ext, &PlanOptions::vqpy_default()).unwrap();
        assert!(plans.len() >= 6, "got {} plans", plans.len());
        assert_eq!(plans[0].label, "baseline");
        assert!(plans.iter().any(|p| p.label.contains("specialized")));
        assert!(plans.iter().any(|p| p.label.contains("binary")));
        assert!(plans.iter().any(|p| p.label.contains("diff")));
    }

    #[test]
    fn queries_sharing_a_conjunct_yield_each_candidate_once() {
        let zoo = ModelZoo::standard();
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
        let red = |name: &str, extra: Pred| {
            Query::builder(name)
                .vobj("car", library::vehicle_schema_intrinsic())
                .frame_constraint(Pred::eq("car", "color", "red") & extra)
                .build()
                .unwrap()
        };
        let queries = [
            red("Q3_RedCars", Pred::gt("car", "score", 0.5)),
            red("RedCar", Pred::gt("car", "score", 0.6)),
            red("RedSpeedingCar", Pred::gt("car", "speed", 10.0)),
        ];
        let alone = enumerate_plans(&queries[..1], &zoo, &ext, &PlanOptions::vqpy_default());
        let shared = enumerate_plans(&queries, &zoo, &ext, &PlanOptions::vqpy_default());
        let labels = |plans: Vec<PlanDag>| plans.into_iter().map(|p| p.label).collect::<Vec<_>>();
        let shared = labels(shared.unwrap());
        assert_eq!(shared.len(), 8, "{shared:?}");
        assert_eq!(shared, labels(alone.unwrap()));
    }

    #[test]
    fn enumeration_without_extensions_is_baseline_only() {
        let zoo = ModelZoo::standard();
        let ext = ExtensionRegistry::new();
        let plans =
            enumerate_plans(&[red_car_query()], &zoo, &ext, &PlanOptions::vqpy_default()).unwrap();
        assert_eq!(plans.len(), 1);
    }

    #[test]
    fn specialized_not_applied_when_query_outputs_property() {
        let zoo = ModelZoo::standard();
        let ext = ExtensionRegistry::new();
        ext.register_specialized_nn(SpecializedNnReg {
            schema: "Vehicle".into(),
            detector: "red_car_detector".into(),
            prop: "color".into(),
            value: Value::from("red"),
        });
        let q = Query::builder("RedCarWithColorOut")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "color")])
            .build()
            .unwrap();
        let plans = enumerate_plans(&[q], &zoo, &ext, &PlanOptions::vqpy_default()).unwrap();
        assert!(
            plans.iter().all(|p| !p.label.contains("specialized")),
            "specialized path must be skipped when color is an output"
        );
    }
}
