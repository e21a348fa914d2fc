//! Plan generation (§4.1): lowering queries to operator chains.
//!
//! A [`PlanDag`] is a topologically-ordered operator list (parallel branches
//! of the conceptual DAG are interleaved) plus per-query join specs. The
//! builder realizes the paper's lazy evaluation: properties are scheduled
//! cheapest-first within dependency constraints, and each single-alias
//! conjunct of the frame constraint becomes a VObj filter placed immediately
//! after the last property it needs.

use crate::backend::graph::SlotLayout;
use crate::backend::stage::StageKind;
use crate::error::{Result, VqpyError};
use crate::frontend::predicate::{Pred, PropRef};
use crate::frontend::property::{BuiltinProp, PropertyKind, PropertySource};
use crate::frontend::query::{Aggregate, Query, RelationDecl};
use crate::frontend::vobj::{ResolvedProperty, VObjSchema};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use vqpy_models::{ModelZoo, Value};

/// A declarative operator, instantiated by the executor.
#[derive(Debug, Clone)]
pub enum OpSpec {
    /// Differencing frame filter with a pixel-difference threshold.
    DiffFilter { threshold: f32 },
    /// Binary-classifier frame filter.
    BinaryFilter { model: String },
    /// Object detector feeding one or more aliases.
    Detect {
        detector: String,
        aliases: Vec<(String, Vec<String>)>,
    },
    /// Tracker for one alias.
    Track { alias: String },
    /// Property projector.
    Project { alias: String, prop: String },
    /// Fused projector + filter (operator fusion, §4.3).
    FusedProjectFilter {
        alias: String,
        prop: String,
        pred: Pred,
        required: bool,
    },
    /// VObj filter.
    Filter {
        alias: String,
        pred: Pred,
        required: bool,
    },
    /// Relation projector (index into [`PlanDag::relations`]).
    ProjectRelation { index: usize },
    /// Join for one query (index into [`PlanDag::joins`]).
    Join { index: usize },
}

impl OpSpec {
    /// Whether the operator filters whole frames (differencing or a binary
    /// classifier): it runs in the frame-filter stage, ahead of everything
    /// else.
    pub fn is_frame_filter(&self) -> bool {
        matches!(
            self,
            OpSpec::DiffFilter { .. } | OpSpec::BinaryFilter { .. }
        )
    }

    /// Short label for plan dumps.
    pub fn label(&self) -> String {
        match self {
            OpSpec::DiffFilter { threshold } => format!("diff_filter(<{threshold})"),
            OpSpec::BinaryFilter { model } => format!("binary_filter({model})"),
            OpSpec::Detect { detector, aliases } => {
                let a: Vec<&str> = aliases.iter().map(|(x, _)| x.as_str()).collect();
                format!("detect({detector} -> {})", a.join(","))
            }
            OpSpec::Track { alias } => format!("track({alias})"),
            OpSpec::Project { alias, prop } => format!("project({alias}.{prop})"),
            OpSpec::FusedProjectFilter {
                alias, prop, pred, ..
            } => {
                format!("project+filter({alias}.{prop} | {pred})")
            }
            OpSpec::Filter { alias, pred, .. } => format!("filter({alias} | {pred})"),
            OpSpec::ProjectRelation { index } => format!("project_relation(#{index})"),
            OpSpec::Join { index } => format!("join(#{index})"),
        }
    }
}

/// Join target for one query in the plan.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    pub query: Arc<Query>,
    /// Frame constraint, possibly rewritten (e.g. conjuncts implemented by
    /// a specialized detector are dropped).
    pub pred: Pred,
    /// Whether a frame with no match dies (single-query plans only).
    pub kills_frame: bool,
}

/// A compiled plan for one or more queries sharing a pipeline.
#[derive(Debug, Clone)]
pub struct PlanDag {
    pub ops: Vec<OpSpec>,
    pub joins: Vec<JoinSpec>,
    pub relations: Vec<RelationDecl>,
    /// Alias -> schema bindings.
    pub schemas: BTreeMap<String, Arc<VObjSchema>>,
    /// Human-readable variant label (e.g. `"baseline"`, `"+specialized"`).
    pub label: String,
}

impl PlanDag {
    /// One line per operator, in execution order.
    pub fn describe(&self) -> String {
        self.ops
            .iter()
            .map(|o| o.label())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Where the plan's computed properties live in a frame graph: one
    /// node column per property a projection writes, one edge column per
    /// property of a projected relation, in plan order. Operators resolve
    /// every name they read or write against it once, when they are
    /// instantiated.
    pub fn slot_layout(&self) -> SlotLayout {
        let props = self.ops.iter().filter_map(|op| match op {
            OpSpec::Project { prop, .. } | OpSpec::FusedProjectFilter { prop, .. } => {
                Some(prop.as_str())
            }
            _ => None,
        });
        let relations = self.ops.iter().filter_map(|op| match op {
            OpSpec::ProjectRelation { index } => Some(&self.relations[*index]),
            _ => None,
        });
        let edge_props: Vec<&str> = relations
            .flat_map(|r| r.schema.all_properties())
            .map(|p| p.name.as_str())
            .collect();
        SlotLayout::new(props, edge_props)
    }

    /// Resolves a projected property's execution traits: its
    /// [`PropertyKind`] and whether it is model-backed. `None` for builtins
    /// and unresolvable names.
    fn prop_traits(&self, alias: &str, prop: &str) -> Option<(PropertyKind, bool)> {
        let schema = self.schemas.get(alias)?;
        match schema.resolve_property(prop) {
            Some(ResolvedProperty::Defined(def)) => {
                Some((def.kind, matches!(def.source, PropertySource::Model(_))))
            }
            _ => None,
        }
    }

    /// The stage a post-detect operator needs, taken on its own.
    fn stage_of(&self, op: &OpSpec) -> StageKind {
        match op {
            // Per-object filters read only frame-local state.
            OpSpec::Filter { .. } => StageKind::Enrich,
            OpSpec::Project { alias, prop } | OpSpec::FusedProjectFilter { alias, prop, .. } => {
                match self.prop_traits(alias, prop) {
                    // Stateful windows must observe frames in order, and
                    // intrinsic model projections read and write memoised
                    // values in the object tables, whose hit pattern is
                    // part of the results' byte-identity (§4.2).
                    Some((kind, is_model))
                        if kind.is_stateful() || (kind.is_intrinsic() && is_model) =>
                    {
                        StageKind::Prep
                    }
                    // Anything else is deterministic per object from the
                    // frame's own state, so workers may take disjoint
                    // batches concurrently without changing results.
                    Some(_) => StageKind::Enrich,
                    // Unresolvable here means instantiation will fail
                    // anyway; stay conservative and keep it ordered.
                    None => StageKind::Prep,
                }
            }
            OpSpec::ProjectRelation { .. } | OpSpec::Join { .. } => StageKind::Tail,
            // The tracker, and whatever else is left ordered.
            _ => StageKind::Prep,
        }
    }

    /// The plan's operators sliced by executor stage, indexed like
    /// [`StageKind::ALL`]: the one place the stage boundaries — and with
    /// them the planner's hoisting decision — are made.
    ///
    /// - **frame filters**: the leading frame-level operators
    ///   ([`OpSpec::is_frame_filter`]), with or without a detector after
    ///   them: the stage that holds the diff filter's reference frame.
    /// - **detect**: the contiguous run of detectors that follows (none →
    ///   empty).
    /// - **prep** ends at the *last* operator after the detectors that
    ///   sequences the stream: the tracker plus every stateful or intrinsic
    ///   model projection, in their original relative order, so the object
    ///   tables' access order — and therefore hit behavior — is
    ///   byte-identical to an unsplit plan.
    /// - **enrich** is the maximal contiguous run after prep of order-free,
    ///   table-free per-object projections and filters, which a pipelined
    ///   scheduler may fan out across workers.
    /// - **tail** is the remainder (relation projections, joins).
    ///
    /// The slices concatenate to exactly `self.ops`, so running them
    /// back-to-back on one thread is the unsplit plan.
    pub fn stage_specs(&self) -> [&[OpSpec]; StageKind::ALL.len()] {
        let is_detect = |o: &OpSpec| matches!(o, OpSpec::Detect { .. });
        let (filters, rest) = self
            .ops
            .split_at(self.ops.iter().take_while(|o| o.is_frame_filter()).count());
        let (detect, rest) = rest.split_at(rest.iter().take_while(|o| is_detect(o)).count());
        let last_prep = rest
            .iter()
            .rposition(|o| self.stage_of(o) == StageKind::Prep);
        let (prep, rest) = rest.split_at(last_prep.map_or(0, |i| i + 1));
        let hoisted = rest
            .iter()
            .take_while(|o| self.stage_of(o) == StageKind::Enrich);
        let (enrich, tail) = rest.split_at(hoisted.count());
        [filters, detect, prep, enrich, tail]
    }
}

/// Substituting a specialized NN for a detector + attribute filter.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializedChoice {
    pub detector: String,
    /// The conjunct the specialized detector implements: `alias.prop == value`.
    pub prop: String,
    pub value: Value,
}

/// Knobs controlling plan construction; the optimizer toggles these to
/// generate candidate plans and the ablation benches toggle them to isolate
/// each optimization's contribution.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// Interleave filters with projections (lazy evaluation). When false,
    /// all properties are computed before any filtering (the handcrafted-
    /// pipeline shape) — predicate pull-up can then restore laziness.
    pub eager_filters: bool,
    /// Apply operator fusion after construction.
    pub fuse: bool,
    /// Apply predicate pull-up after construction.
    pub pullup: bool,
    /// Prepend a differencing frame filter.
    pub diff_filter: Option<f32>,
    /// Prepend binary-classifier frame filters (zoo names).
    pub binary_filters: Vec<String>,
    /// Per-alias specialized-NN substitutions.
    pub specialized: BTreeMap<String, SpecializedChoice>,
    /// Variant label for profiling output.
    pub label: String,
}

impl PlanOptions {
    /// The default VQPy configuration: lazy filters, fusion, pull-up.
    pub fn vqpy_default() -> Self {
        Self {
            eager_filters: false,
            fuse: true,
            pullup: true,
            diff_filter: None,
            binary_filters: Vec::new(),
            specialized: BTreeMap::new(),
            label: "baseline".into(),
        }
    }
}

/// Per-alias analysis extracted from the query set.
#[derive(Debug, Default)]
struct AliasNeeds {
    /// Properties that must be computed (transitive deps resolved later).
    props: BTreeSet<String>,
    /// Single-alias conjuncts filterable per object: `(pred, shared_by_all)`.
    conjuncts: Vec<(Pred, bool)>,
    needs_tracker: bool,
    /// Declared by every query in the plan.
    required_by_all: bool,
}

/// Builds a plan for `queries` executed as one shared pipeline.
///
/// # Errors
///
/// Propagates schema/property resolution failures; rejects alias
/// collisions where two queries bind the same alias to different schemas.
pub fn build_plan(queries: &[Arc<Query>], zoo: &ModelZoo, opts: &PlanOptions) -> Result<PlanDag> {
    if queries.is_empty() {
        return Err(VqpyError::InvalidQuery("no queries to plan".into()));
    }

    // ---- collect aliases and check schema consistency --------------------
    let mut schemas: BTreeMap<String, Arc<VObjSchema>> = BTreeMap::new();
    for q in queries {
        for v in q.vobjs() {
            match schemas.get(&v.alias) {
                Some(existing) if existing.name() != v.schema.name() => {
                    // Shared plans unify an alias through inheritance: the
                    // most-derived schema sees every ancestor's properties,
                    // so queries written against the parent still resolve.
                    if v.schema.inherits_from(existing.name()) {
                        schemas.insert(v.alias.clone(), Arc::clone(&v.schema));
                    } else if existing.inherits_from(v.schema.name()) {
                        // keep the existing, more-derived schema
                    } else {
                        return Err(VqpyError::InvalidQuery(format!(
                            "alias `{}` bound to unrelated VObjs `{}` and `{}`",
                            v.alias,
                            existing.name(),
                            v.schema.name()
                        )));
                    }
                }
                _ => {
                    schemas.insert(v.alias.clone(), Arc::clone(&v.schema));
                }
            }
        }
    }

    // ---- per-alias needs --------------------------------------------------
    let mut needs: BTreeMap<String, AliasNeeds> = BTreeMap::new();
    for alias in schemas.keys() {
        let required_by_all = queries.iter().all(|q| q.vobj(alias).is_some());
        needs.insert(
            alias.clone(),
            AliasNeeds {
                required_by_all,
                ..AliasNeeds::default()
            },
        );
    }

    let mut relations: Vec<RelationDecl> = Vec::new();
    for q in queries {
        for r in q.relations() {
            if !relations.iter().any(|x| x.name == r.name) {
                relations.push(r.clone());
            }
        }
    }

    // Conjunct bookkeeping: count how many queries carry each conjunct (by
    // display form) so shared plans only hard-filter universally-shared ones.
    let mut conjunct_count: HashMap<String, usize> = HashMap::new();
    for q in queries {
        for c in q.frame_constraint().conjuncts() {
            *conjunct_count.entry(c.to_string()).or_default() += 1;
        }
    }

    for q in queries {
        // Properties referenced anywhere.
        for p in q.frame_constraint().referenced_props() {
            record_prop(&mut needs, &p)?;
        }
        for p in q.frame_output() {
            record_prop(&mut needs, p)?;
        }
        if let Some(
            Aggregate::CountDistinctTracks { alias }
            | Aggregate::AvgPerFrame { alias }
            | Aggregate::MaxPerFrame { alias },
        ) = q.video_output()
        {
            if let Some(n) = needs.get_mut(alias) {
                n.needs_tracker = true;
            }
        }
        // Filterable conjuncts.
        for c in q.frame_constraint().conjuncts() {
            if let Some(alias) = c.single_alias() {
                // Skip conjuncts implemented by a specialized detector.
                if conjunct_implemented(c, &alias, opts) {
                    continue;
                }
                let shared = conjunct_count[&c.to_string()] == queries.len();
                if let Some(n) = needs.get_mut(&alias) {
                    let display = c.to_string();
                    if !n.conjuncts.iter().any(|(p, _)| p.to_string() == display) {
                        n.conjuncts.push((c.clone(), shared));
                    }
                }
            }
        }
    }

    // Properties fully implemented by a specialized detector need no
    // projection unless some other conjunct or output still reads them.
    for (alias, choice) in &opts.specialized {
        let used_elsewhere = queries.iter().any(|q| {
            q.frame_output()
                .iter()
                .any(|p| p.alias == *alias && p.prop == choice.prop)
                || q.frame_constraint().conjuncts().iter().any(|c| {
                    !conjunct_implemented(c, alias, opts)
                        && c.referenced_props()
                            .iter()
                            .any(|p| p.alias == *alias && p.prop == choice.prop)
                })
        });
        if !used_elsewhere {
            if let Some(n) = needs.get_mut(alias.as_str()) {
                n.props.remove(&choice.prop);
            }
        }
    }

    // Tracker requirements from property statefulness / intrinsic reuse.
    for (alias, n) in needs.iter_mut() {
        let schema = &schemas[alias];
        let wanted: Vec<String> = n.props.iter().cloned().collect();
        for def in schema.dependency_order(&wanted)? {
            if def.kind.is_stateful() || def.kind.is_intrinsic() {
                n.needs_tracker = true;
            }
        }
        if BuiltinProp::from_name("track_id").is_some() && n.props.contains("track_id") {
            n.needs_tracker = true;
        }
    }

    // ---- emit operator chain ----------------------------------------------
    let mut ops: Vec<OpSpec> = Vec::new();
    if let Some(thr) = opts.diff_filter {
        ops.push(OpSpec::DiffFilter { threshold: thr });
    }
    for m in &opts.binary_filters {
        ops.push(OpSpec::BinaryFilter { model: m.clone() });
    }

    // Detectors, grouped so one model invocation feeds all aliases using it.
    let mut detector_groups: BTreeMap<String, Vec<(String, Vec<String>)>> = BTreeMap::new();
    for (alias, schema) in &schemas {
        let detector = match opts.specialized.get(alias) {
            Some(s) => s.detector.clone(),
            None => schema.require_detector()?.to_owned(),
        };
        detector_groups
            .entry(detector)
            .or_default()
            .push((alias.clone(), schema.class_labels().to_vec()));
    }
    for (detector, aliases) in detector_groups {
        // Validate the model exists up front for a clean error.
        zoo.detector(&detector)?;
        ops.push(OpSpec::Detect { detector, aliases });
    }

    // Per-alias: builtin filters, tracker, then cost-ordered projections
    // with interleaved filters.
    for (alias, n) in &needs {
        let schema = &schemas[alias];
        let single_query = queries.len() == 1;
        // Shared disjunction pushdown bookkeeping (see
        // [`emit_shared_disjunction`]).
        let mut last_disjunction: Option<String> = None;

        let mut pending: Vec<(Pred, bool)> = n.conjuncts.clone();
        let mut available: BTreeSet<String> = ["bbox", "score", "class_label", "center"]
            .iter()
            .map(|s| s.to_string())
            .collect();

        // Filters satisfiable from built-ins go before the tracker
        // (lazy mode only; eager mode defers everything).
        if !opts.eager_filters {
            emit_ready_filters(&mut ops, alias, &mut pending, &available, single_query, n);
        }

        if n.needs_tracker {
            ops.push(OpSpec::Track {
                alias: alias.clone(),
            });
        }
        available.insert("track_id".into());
        if !opts.eager_filters {
            emit_ready_filters(&mut ops, alias, &mut pending, &available, single_query, n);
            emit_shared_disjunction(
                &mut ops,
                alias,
                queries,
                &available,
                &conjunct_count,
                opts,
                n,
                &mut last_disjunction,
            );
        }

        // Projections in dependency order, cheapest-first.
        let wanted: Vec<String> = n.props.iter().cloned().collect();
        let mut defs = schema.dependency_order(&wanted)?;
        if !opts.eager_filters {
            defs = cost_order(defs, zoo);
        }
        let mut filters_tail: Vec<OpSpec> = Vec::new();
        for def in defs {
            if available.contains(&def.name) {
                continue;
            }
            ops.push(OpSpec::Project {
                alias: alias.clone(),
                prop: def.name.clone(),
            });
            available.insert(def.name.clone());
            if opts.eager_filters {
                // Defer all filters to after every projection (handcrafted
                // pipeline shape); pull-up can later move them forward.
                continue;
            }
            emit_ready_filters(&mut ops, alias, &mut pending, &available, single_query, n);
            emit_shared_disjunction(
                &mut ops,
                alias,
                queries,
                &available,
                &conjunct_count,
                opts,
                n,
                &mut last_disjunction,
            );
        }
        if opts.eager_filters {
            let mut still: Vec<(Pred, bool)> = Vec::new();
            for (pred, shared) in pending.drain(..) {
                if pred
                    .referenced_props()
                    .iter()
                    .all(|p| available.contains(&p.prop))
                {
                    filters_tail.push(OpSpec::Filter {
                        alias: alias.clone(),
                        pred: pred.clone(),
                        required: (single_query || shared) && n.required_by_all,
                    });
                } else {
                    still.push((pred, shared));
                }
            }
            pending = still;
            ops.extend(filters_tail);
        }
        // Any conjunct left references props we could not compute: that is
        // a bug in needs collection.
        if let Some((pred, _)) = pending.first() {
            return Err(VqpyError::InvalidQuery(format!(
                "internal: filter `{pred}` never became evaluable"
            )));
        }
    }

    for (i, _) in relations.iter().enumerate() {
        ops.push(OpSpec::ProjectRelation { index: i });
    }

    let mut joins = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut pred = q.frame_constraint().clone();
        for (alias, choice) in &opts.specialized {
            pred = drop_eq_conjunct(&pred, alias, &choice.prop);
        }
        joins.push(JoinSpec {
            query: Arc::clone(q),
            pred,
            kills_frame: queries.len() == 1,
        });
        ops.push(OpSpec::Join { index: qi });
    }

    Ok(PlanDag {
        ops,
        joins,
        relations,
        schemas,
        label: if opts.label.is_empty() {
            "baseline".into()
        } else {
            opts.label.clone()
        },
    })
}

fn record_prop(needs: &mut BTreeMap<String, AliasNeeds>, p: &PropRef) -> Result<()> {
    let n = needs
        .get_mut(&p.alias)
        .ok_or_else(|| VqpyError::UnknownAlias(p.alias.clone()))?;
    if BuiltinProp::from_name(&p.prop).is_none() {
        n.props.insert(p.prop.clone());
    } else if p.prop == "track_id" {
        n.needs_tracker = true;
    }
    Ok(())
}

fn conjunct_implemented(c: &Pred, alias: &str, opts: &PlanOptions) -> bool {
    let Some(choice) = opts.specialized.get(alias) else {
        return false;
    };
    matches!(
        c,
        Pred::Cmp { target, op: crate::frontend::predicate::CmpOp::Eq, value }
            if target.alias == alias && target.prop == choice.prop && value.loose_eq(&choice.value)
    )
}

/// Shared disjunction pushdown. In a multi-query plan, query-specific
/// conjuncts cannot become node filters on their own (a node failing one
/// query may satisfy another), so expensive downstream projections would
/// run on every object. But the *disjunction over queries* of each query's
/// alias-local constraints is always safe: an object failing every arm
/// satisfies no query's frame constraint, so it can neither join nor feed
/// an aggregate (aggregates count only join-satisfying bindings).
///
/// Called after the tracker and after every projection with the props
/// available so far: each call emits the strongest disjunction currently
/// evaluable (e.g. after `color` and `vtype` project, the filter is
/// `OR_q(color == c_q & vtype == t_q)` — the true union of the queries'
/// survivor sets), and only when it strengthens the previously emitted
/// one. On the fig13 CVIP workload this prunes most objects before the
/// non-memoizable `direction` model runs, which is what keeps one shared
/// super-plan ahead of per-query sessions as query counts grow.
///
/// Arms deliberately exclude universally-shared conjuncts (those are
/// ordinary hard filters already) and conjuncts implemented by a
/// specialized detector. If any query has no evaluable alias-local
/// conjunct, no filter is emitted: that query accepts any object, so the
/// union is everything.
#[allow(clippy::too_many_arguments)]
fn emit_shared_disjunction(
    ops: &mut Vec<OpSpec>,
    alias: &str,
    queries: &[Arc<Query>],
    available: &BTreeSet<String>,
    conjunct_count: &HashMap<String, usize>,
    opts: &PlanOptions,
    needs: &AliasNeeds,
    last: &mut Option<String>,
) {
    if queries.len() < 2 {
        return;
    }
    let mut arms: Vec<Pred> = Vec::new();
    for q in queries {
        let mut conjs: Vec<Pred> = Vec::new();
        for c in q.frame_constraint().conjuncts() {
            if c.single_alias().as_deref() != Some(alias)
                || conjunct_implemented(c, alias, opts)
                || conjunct_count[&c.to_string()] == queries.len()
                || !c
                    .referenced_props()
                    .iter()
                    .all(|p| available.contains(&p.prop))
            {
                continue;
            }
            conjs.push(c.clone());
        }
        if conjs.is_empty() {
            return;
        }
        arms.push(Pred::all(conjs));
    }
    let mut seen = BTreeSet::new();
    let arms: Vec<Pred> = arms
        .into_iter()
        .filter(|p| seen.insert(p.to_string()))
        .collect();
    if arms.len() <= 1 {
        return;
    }
    let or = Pred::any(arms);
    let display = or.to_string();
    if last.as_deref() == Some(display.as_str()) {
        return;
    }
    *last = Some(display);
    ops.push(OpSpec::Filter {
        alias: alias.to_owned(),
        pred: or,
        required: needs.required_by_all,
    });
}

fn emit_ready_filters(
    ops: &mut Vec<OpSpec>,
    alias: &str,
    pending: &mut Vec<(Pred, bool)>,
    available: &BTreeSet<String>,
    single_query: bool,
    needs: &AliasNeeds,
) {
    let mut remaining = Vec::new();
    for (pred, shared) in pending.drain(..) {
        let ready = pred
            .referenced_props()
            .iter()
            .all(|p| available.contains(&p.prop));
        if ready && (single_query || shared) {
            ops.push(OpSpec::Filter {
                alias: alias.to_owned(),
                pred,
                required: needs.required_by_all,
            });
        } else if ready {
            // Shared plans drop query-specific conjuncts: they are evaluated
            // at that query's join instead (node kills would corrupt other
            // queries sharing the alias).
        } else {
            remaining.push((pred, shared));
        }
    }
    *pending = remaining;
}

/// Orders property definitions cheapest-first while respecting deps
/// (greedy Kahn's algorithm with min-cost selection).
///
/// Intrinsic properties are costed at a fraction of their model price:
/// the §4.2 reuse cache memoizes them per track, so their steady-state
/// per-frame cost is amortized near zero, and any filter they enable
/// should run *before* non-memoizable projections that pay full price on
/// every frame (e.g. CVIP's `direction` after `color`/`vtype`).
fn cost_order(
    defs: Vec<crate::frontend::property::PropertyDef>,
    zoo: &ModelZoo,
) -> Vec<crate::frontend::property::PropertyDef> {
    const INTRINSIC_AMORTIZATION: f64 = 0.1;
    let cost_of = |def: &crate::frontend::property::PropertyDef| -> f64 {
        let base = match &def.source {
            PropertySource::Model(m) => zoo.profile(m).map(|p| p.cost).unwrap_or(10.0),
            _ => 0.05,
        };
        if def.kind.is_intrinsic() {
            base * INTRINSIC_AMORTIZATION
        } else {
            base
        }
    };
    let names: BTreeSet<String> = defs.iter().map(|d| d.name.clone()).collect();
    let mut remaining = defs;
    let mut placed: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    while !remaining.is_empty() {
        // Ready = all in-set deps already placed.
        let mut best: Option<usize> = None;
        for (i, d) in remaining.iter().enumerate() {
            let ready = d
                .deps
                .iter()
                .all(|dep| !names.contains(dep) || placed.contains(dep));
            if !ready {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) if cost_of(d) < cost_of(&remaining[b]) => best = Some(i),
                _ => {}
            }
        }
        let idx = best.expect("dependency_order output cannot deadlock");
        let def = remaining.remove(idx);
        placed.insert(def.name.clone());
        out.push(def);
    }
    out
}

/// Removes a top-level `alias.prop == _` conjunct from a predicate.
fn drop_eq_conjunct(pred: &Pred, alias: &str, prop: &str) -> Pred {
    let kept: Vec<Pred> = pred
        .conjuncts()
        .into_iter()
        .filter(|c| {
            !matches!(
                c,
                Pred::Cmp { target, op: crate::frontend::predicate::CmpOp::Eq, .. }
                    if target.alias == alias && target.prop == prop
            )
        })
        .cloned()
        .collect();
    Pred::all(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;

    fn zoo() -> Arc<ModelZoo> {
        ModelZoo::standard()
    }

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id"), ("car", "bbox")])
            .build()
            .unwrap()
    }

    #[test]
    fn lazy_plan_interleaves_filters() {
        let plan = build_plan(&[red_car_query()], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        let desc = plan.describe();
        // The score filter (builtin) must come before the color projection.
        let score_pos = desc.find("score").unwrap();
        let color_pos = desc.find("project(car.color)").unwrap();
        assert!(score_pos < color_pos, "plan:\n{desc}");
        // And a color filter appears after the color projection.
        let color_filter = desc.rfind("color == red").unwrap();
        assert!(color_filter > color_pos, "plan:\n{desc}");
    }

    #[test]
    fn eager_plan_defers_filters() {
        let mut opts = PlanOptions::vqpy_default();
        opts.eager_filters = true;
        let plan = build_plan(&[red_car_query()], &zoo(), &opts).unwrap();
        let desc = plan.describe();
        let project = desc.find("project(car.color)").unwrap();
        let filter = desc.find("filter(car | car.color == red").unwrap();
        assert!(filter > project);
        // score filter also after projections in eager mode.
        let score_filter = desc.find("car.score >").unwrap();
        assert!(score_filter > project, "plan:\n{desc}");
    }

    #[test]
    fn tracker_emitted_only_when_needed() {
        // Intrinsic color => tracker (for reuse). A query over plain score
        // with a non-intrinsic schema should skip the tracker.
        let schema = crate::frontend::vobj::VObjSchema::builder("Plain")
            .class_labels(&["car"])
            .detector("yolox")
            .build();
        let q = Query::builder("Any")
            .vobj("car", schema)
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        assert!(!plan.describe().contains("track("), "{}", plan.describe());

        let plan2 = build_plan(&[red_car_query()], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        assert!(plan2.describe().contains("track(car)"));
    }

    #[test]
    fn specialized_choice_drops_projection_and_rewrites_join() {
        let mut opts = PlanOptions::vqpy_default();
        opts.specialized.insert(
            "car".into(),
            SpecializedChoice {
                detector: "red_car_detector".into(),
                prop: "color".into(),
                value: Value::from("red"),
            },
        );
        let plan = build_plan(&[red_car_query()], &zoo(), &opts).unwrap();
        let desc = plan.describe();
        assert!(desc.contains("detect(red_car_detector"), "{desc}");
        assert!(!desc.contains("project(car.color)"), "{desc}");
        // Join predicate no longer mentions color.
        assert!(
            !plan.joins[0].pred.to_string().contains("color"),
            "{}",
            plan.joins[0].pred
        );
    }

    #[test]
    fn shared_plan_single_detector_multiple_joins() {
        let q1 = red_car_query();
        let q2 = Query::builder("GreenCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "green"))
            .build()
            .unwrap();
        let plan = build_plan(&[q1, q2], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        let desc = plan.describe();
        assert_eq!(desc.matches("detect(").count(), 1, "{desc}");
        assert_eq!(desc.matches("join(").count(), 2, "{desc}");
        // The query-specific color conjuncts must NOT become node filters.
        assert!(!desc.contains("filter(car | car.color"), "{desc}");
        // But the shared score conjunct is filterable.
        assert!(desc.contains("car.score >"), "{desc}");
        // Color projected once for both queries.
        assert_eq!(desc.matches("project(car.color)").count(), 1, "{desc}");
    }

    #[test]
    fn alias_schema_conflict_is_rejected() {
        let q1 = red_car_query();
        let q2 = Query::builder("P")
            .vobj("car", library::person_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .build()
            .unwrap();
        let err = build_plan(&[q1, q2], &zoo(), &PlanOptions::vqpy_default()).unwrap_err();
        assert!(matches!(err, VqpyError::InvalidQuery(_)));
    }

    #[test]
    fn frame_filters_lead_the_plan() {
        let mut opts = PlanOptions::vqpy_default();
        opts.diff_filter = Some(0.5);
        opts.binary_filters.push("no_red_on_road".into());
        let plan = build_plan(&[red_car_query()], &zoo(), &opts).unwrap();
        assert!(matches!(plan.ops[0], OpSpec::DiffFilter { .. }));
        assert!(matches!(plan.ops[1], OpSpec::BinaryFilter { .. }));
    }

    #[test]
    fn shared_plan_pushes_down_conjunct_disjunction() {
        // Both queries constrain car.color, so the shared plan may filter
        // nodes matching *neither* color before later work — and must not
        // hard-filter either color alone.
        let q1 = red_car_query();
        let q2 = Query::builder("GreenCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "green"))
            .build()
            .unwrap();
        let plan = build_plan(&[q1, q2], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        let desc = plan.describe();
        let or_pos = desc
            .find("car.color == red | car.color == green")
            .unwrap_or_else(|| panic!("no disjunction filter in:\n{desc}"));
        let project_pos = desc.find("project(car.color)").expect("color projected");
        assert!(
            or_pos > project_pos,
            "disjunction before its input:\n{desc}"
        );
        // The join predicates still carry the per-query colors.
        assert!(plan.joins[0].pred.to_string().contains("red"));
        assert!(plan.joins[1].pred.to_string().contains("green"));
    }

    #[test]
    fn no_disjunction_when_a_query_is_unconstrained() {
        // The Any query accepts every car, so no disjunction can exclude
        // nodes on color.
        let q1 = red_car_query();
        let q2 = Query::builder("Any")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.6))
            .build()
            .unwrap();
        let plan = build_plan(&[q1, q2], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        assert!(
            !plan.describe().contains(" | car.color"),
            "{}",
            plan.describe()
        );
    }

    #[test]
    fn intrinsic_projections_order_before_non_intrinsic_at_equal_cost() {
        // color (intrinsic, memoized per track) must project before
        // direction (non-intrinsic, paid per frame) despite equal model
        // cost: the reuse cache amortizes the former to ~0.
        let schema = crate::frontend::vobj::VObjSchema::builder("V")
            .class_labels(&["car"])
            .detector("yolox")
            .property(crate::frontend::property::PropertyDef::stateless_model(
                "color",
                "color_detect",
                true,
            ))
            .property(crate::frontend::property::PropertyDef::stateless_model(
                "direction",
                "direction_model",
                false,
            ))
            .build();
        let q = Query::builder("Both")
            .vobj("car", schema)
            .frame_constraint(
                Pred::eq("car", "color", "red") & Pred::eq("car", "direction", "straight"),
            )
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        let desc = plan.describe();
        let color = desc.find("car.color").unwrap();
        let direction = desc.find("car.direction").unwrap();
        assert!(color < direction, "{desc}");
    }

    #[test]
    fn tail_partition_hoists_non_intrinsic_projections() {
        // color: intrinsic model (cache-touching -> prep). direction:
        // non-intrinsic model (order-free -> enrich). Join stays in tail.
        let schema = crate::frontend::vobj::VObjSchema::builder("V")
            .class_labels(&["car"])
            .detector("yolox")
            .property(crate::frontend::property::PropertyDef::stateless_model(
                "color",
                "color_detect",
                true,
            ))
            .property(crate::frontend::property::PropertyDef::stateless_model(
                "direction",
                "direction_model",
                false,
            ))
            .build();
        let q = Query::builder("Both")
            .vobj("car", schema)
            .frame_constraint(
                Pred::eq("car", "color", "red") & Pred::eq("car", "direction", "straight"),
            )
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        let [filters, detect, prep, enrich, rest] = plan.stage_specs();
        let labels = |ops: &[OpSpec]| -> String {
            ops.iter().map(|o| o.label()).collect::<Vec<_>>().join("\n")
        };
        // Tracker and the intrinsic color projection stay ordered.
        assert!(labels(prep).contains("track(car)"), "{}", labels(prep));
        assert!(
            labels(prep).contains("project(car.color)"),
            "{}",
            labels(prep)
        );
        // The non-memoizable direction projection hoists into enrich
        // (filters over already-computed props hoist too — they only read
        // frame-local state).
        assert!(
            labels(enrich).contains("car.direction"),
            "{}",
            labels(enrich)
        );
        assert!(
            !labels(enrich).contains("project(car.color)")
                && !labels(enrich).contains("project+filter(car.color"),
            "cache-touching intrinsic projection must not hoist: {}",
            labels(enrich)
        );
        // Joins stay in the sequential tail.
        assert!(labels(rest).contains("join"), "{}", labels(rest));
        // The five slices reassemble the plan exactly.
        let sliced: usize = [filters, detect, prep, enrich, rest]
            .map(<[_]>::len)
            .iter()
            .sum();
        assert_eq!(sliced, plan.ops.len());
    }

    #[test]
    fn tail_partition_keeps_stateful_projections_in_prep() {
        // A stateful property (speed-style sliding window) after the
        // intrinsics must extend prep past it: its per-track history is
        // kill-sensitive and frame-ordered.
        let plan = build_plan(
            &[Query::builder("Fast")
                .vobj("car", library::vehicle_schema())
                .frame_constraint(Pred::gt("car", "speed", 5.0))
                .build()
                .unwrap()],
            &zoo(),
            &PlanOptions::vqpy_default(),
        )
        .unwrap();
        let [_, _, prep, enrich, _] = plan.stage_specs();
        let projects_speed = |o: &OpSpec| {
            matches!(
                o,
                OpSpec::Project { prop, .. } | OpSpec::FusedProjectFilter { prop, .. }
                    if prop == "speed"
            )
        };
        assert!(
            prep.iter().any(projects_speed),
            "{:?}",
            prep.iter().map(|o| o.label()).collect::<Vec<_>>()
        );
        assert!(
            !enrich.iter().any(projects_speed),
            "stateful projection must not hoist"
        );
    }

    #[test]
    fn cheapest_property_first() {
        // plate (7.0) should be projected after color (5.0) when both needed.
        let q = Query::builder("Both")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::eq("car", "color", "red") & Pred::eq("car", "plate", "X"))
            .build()
            .unwrap();
        let plan = build_plan(&[q], &zoo(), &PlanOptions::vqpy_default()).unwrap();
        let desc = plan.describe();
        let color = desc.find("project(car.color)").unwrap();
        let plate = desc.find("project(car.plate)").unwrap();
        assert!(color < plate, "{desc}");
    }
}
