//! The six operator families of §4.1 — frame filter, object detector,
//! object tracker, projector, object filter, and join — implemented as
//! stateful pipeline stages over [`FrameSlot`]s.
//!
//! The video-reader operator is the executor's frame loop itself; the
//! projector operator realizes lazy evaluation (compute a property, filter,
//! only then compute the next) and intrinsic-property reuse (§4.2).

use crate::backend::graph::{Edge, EdgeKind, FrameGraph, NodeId, VObjNode};
use crate::backend::plan::{OpSpec, PlanDag};
use crate::backend::reuse::ReuseCache;
use crate::backend::symbols::{Istr, Sym, SymbolTable};
use crate::error::{Result, VqpyError};
use crate::frontend::predicate::{or_null, Pred, PredScope, PropRef};
use crate::frontend::property::{PropertyCtx, PropertyDef, PropertyKind, PropertySource};
use crate::frontend::query::RelationDecl;
use crate::frontend::relation::{RelationCtx, RelationSource};
use crate::frontend::vobj::ResolvedProperty;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use vqpy_models::{Classifier, Clock, Detector, FrameClassifier, HoiModel, ModelZoo, Value};
use vqpy_tracker::{SortTracker, TrackId, TrackerParams};
use vqpy_video::frame::{Frame, PixelBuffer};

/// One frame moving through the pipeline.
///
/// Slots are *workspaces*: the executor keeps a pool of them and calls
/// [`FrameSlot::reset`] to load the next frame instead of reallocating the
/// graph and match buffers per frame (§4.1's batched execution keeps the
/// hot loop allocation-light).
#[derive(Debug)]
pub struct FrameSlot {
    pub frame: Frame,
    pub graph: FrameGraph,
    /// Dead slots are skipped by all later operators.
    pub alive: bool,
    /// Join results, indexed by the plan's join index (see
    /// [`crate::backend::plan::PlanDag::joins`]).
    pub matches: Vec<Vec<MatchCombo>>,
}

impl FrameSlot {
    /// Wraps a frame for pipeline processing.
    pub fn new(frame: Frame) -> Self {
        Self {
            frame,
            graph: FrameGraph::new(),
            alive: true,
            matches: Vec::new(),
        }
    }

    /// Reloads this slot with a new frame, clearing per-frame state while
    /// keeping the graph and match buffers' allocations.
    pub fn reset(&mut self, frame: Frame) {
        self.frame = frame;
        self.graph.clear();
        self.alive = true;
        for m in &mut self.matches {
            m.clear();
        }
    }

    /// Ensures `matches` has one (cleared) bucket per join in the plan.
    pub fn prepare_joins(&mut self, joins: usize) {
        if self.matches.len() != joins {
            self.matches.resize_with(joins, Vec::new);
        }
    }
}

/// One satisfying binding of query aliases to graph nodes: one node per
/// alias, in the join's alias order (the query's `vobjs()` order).
#[derive(Debug, Clone)]
pub struct MatchCombo {
    pub nodes: Vec<NodeId>,
}

/// Mutable execution context shared by all operators.
pub struct ExecCtx<'a> {
    pub zoo: &'a ModelZoo,
    pub clock: &'a Clock,
    pub fps: u32,
    /// The stream's intrinsic-property cache (§4.2), handed only to the
    /// stage that owns it; `None` elsewhere and when reuse is toggled off.
    pub reuse: Option<&'a mut ReuseCache>,
    /// The model-dispatch boundary: how detect-, binary-filter-, and
    /// classify-stage model invocations are issued (see
    /// [`crate::backend::dispatch`]). A serving supervisor swaps in a
    /// cross-stream batcher here; everything else uses the direct path.
    pub dispatch: &'a dyn crate::backend::dispatch::ModelDispatch,
    /// Span tracer for dispatch-level instrumentation. Disabled by
    /// default (one atomic load per would-be span); the serving layer
    /// installs an enabled handle via
    /// [`StageOps`](crate::backend::stage::StageOps).
    pub tracer: &'a vqpy_obs::Tracer,
}

/// Cross-frame operator state, extracted so a serving layer can carry it
/// across plan recompiles: when a query attaches or detaches mid-stream,
/// the recompiled super-plan's operators with matching
/// [`Operator::state_key`]s inherit the old state, keeping surviving
/// queries' results byte-identical to an uninterrupted run.
///
/// `Clone` gives the serving layer a cheap checkpoint: state is cloned
/// before each fallible segment so a panicking worker can restart from
/// exactly the pre-segment state.
#[derive(Debug, Clone)]
pub enum OpState {
    /// [`DiffFrameFilter`]: the last kept frame's pixels.
    DiffFilter { last_kept: Option<PixelBuffer> },
    /// [`TrackOp`]: the tracker and its motion-edge bookkeeping.
    Track {
        tracker: SortTracker,
        last_seen: HashMap<TrackId, u64>,
    },
    /// [`ProjectOp`]: per-track sliding windows of stateful dependencies.
    Project {
        history: HashMap<TrackId, VecDeque<BTreeMap<String, Value>>>,
    },
}

/// A pipeline stage. Operators keep their own cross-frame state (trackers,
/// history windows, previous pixels) and must therefore observe frames in
/// order.
pub trait Operator: Send {
    /// Operator name for plan dumps and metrics.
    fn name(&self) -> String;
    /// Processes one slot. Dead slots are not passed in.
    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()>;
    /// Processes a batch of slots in frame order (§4.1's batched
    /// execution). The default loops [`Operator::process`] over the live
    /// slots; model-backed operators override it to issue one physical
    /// batched invocation, amortizing per-invocation overhead. Results must
    /// be identical to the frame-at-a-time path.
    fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
        for slot in slots.iter_mut() {
            if !slot.alive && !self.wants_dead_frames() {
                continue;
            }
            self.process(slot, ctx)?;
        }
        Ok(())
    }
    /// Whether the operator must see every frame (even ones a frame filter
    /// would drop) to keep its cross-frame state consistent. Trackers
    /// return false: they simply miss filtered frames, like real systems.
    fn wants_dead_frames(&self) -> bool {
        false
    }
    /// Stable identity of this operator's cross-frame state, independent of
    /// plan-local details like fusion or join indices. Two operators with
    /// the same key compute the same stream function, so their state may be
    /// transplanted across plan recompiles. `None` means stateless: the
    /// operator can always be re-instantiated fresh.
    fn state_key(&self) -> Option<String> {
        None
    }
    /// Extracts the cross-frame state for carry-over, leaving this operator
    /// reset. Only meaningful when [`Operator::state_key`] is `Some`.
    fn export_state(&mut self) -> Option<OpState> {
        None
    }
    /// Installs state previously exported by an operator with the same
    /// [`Operator::state_key`]. Mismatched variants are ignored.
    fn import_state(&mut self, _state: OpState) {}
}

// ---------------------------------------------------------------------------
// Frame filters
// ---------------------------------------------------------------------------

/// Virtual cost of the native frame-differencing computation per frame.
pub const DIFF_FILTER_COST: f64 = 0.3;

/// Differencing-based frame filter (Figure 12): drops frames that are
/// near-identical to the last *kept* frame.
pub struct DiffFrameFilter {
    threshold: f32,
    last_kept: Option<PixelBuffer>,
}

impl DiffFrameFilter {
    /// Creates the filter; frames with mean absolute pixel difference below
    /// `threshold` (0-255 scale) are dropped.
    pub fn new(threshold: f32) -> Self {
        Self {
            threshold,
            last_kept: None,
        }
    }
}

impl Operator for DiffFrameFilter {
    fn name(&self) -> String {
        format!("diff_frame_filter(<{})", self.threshold)
    }

    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        ctx.clock.charge_labeled("diff_filter", DIFF_FILTER_COST);
        match &self.last_kept {
            Some(prev) if prev.mean_abs_diff(&slot.frame.pixels) < self.threshold => {
                slot.alive = false;
            }
            _ => {
                self.last_kept = Some(slot.frame.pixels.clone());
            }
        }
        Ok(())
    }

    fn state_key(&self) -> Option<String> {
        Some(format!("diff_filter(<{})", self.threshold))
    }

    fn export_state(&mut self) -> Option<OpState> {
        Some(OpState::DiffFilter {
            last_kept: self.last_kept.take(),
        })
    }

    fn import_state(&mut self, state: OpState) {
        if let OpState::DiffFilter { last_kept } = state {
            self.last_kept = last_kept;
        }
    }
}

/// Binary-classifier frame filter (Figure 11's `no_red_on_road`).
pub struct BinaryFilterOp {
    model: Arc<dyn FrameClassifier>,
}

impl BinaryFilterOp {
    /// Wraps a zoo frame classifier as a filter operator.
    pub fn new(model: Arc<dyn FrameClassifier>) -> Self {
        Self { model }
    }
}

impl Operator for BinaryFilterOp {
    fn name(&self) -> String {
        format!("binary_filter({})", self.model.profile().name)
    }

    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        self.process_batch(std::slice::from_mut(slot), ctx)
    }

    fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
        let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].alive).collect();
        if live.is_empty() {
            return Ok(());
        }
        let frames: Vec<&Frame> = live.iter().map(|&i| &slots[i].frame).collect();
        let _span = ctx
            .tracer
            .span("dispatch", "dispatch:predict")
            .arg("model", &self.model.profile().name)
            .arg("frame", frames[0].index)
            .arg("items", frames.len());
        let verdicts = ctx.dispatch.predict(&self.model, &frames, ctx.clock)?;
        for (&i, keep) in live.iter().zip(verdicts) {
            if !keep {
                slots[i].alive = false;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

/// Object detector operator. One physical model invocation can feed several
/// aliases (multi-query sharing): each detection becomes a node for every
/// alias whose class labels match.
pub struct DetectOp {
    detector: Arc<dyn Detector>,
    /// `(alias, class labels)` fed by this detector, interned up front so
    /// node construction in [`DetectOp::populate`] is allocation-free.
    aliases: Vec<(Istr, Vec<Istr>)>,
}

impl DetectOp {
    /// Creates a detect operator feeding `aliases`.
    pub fn new(detector: Arc<dyn Detector>, aliases: Vec<(String, Vec<String>)>) -> Self {
        let aliases = aliases
            .into_iter()
            .map(|(a, labels)| (Istr::new(&a), labels.iter().map(|l| Istr::new(l)).collect()))
            .collect();
        Self { detector, aliases }
    }

    fn populate(&self, slot: &mut FrameSlot, detections: &[vqpy_models::Detection]) {
        for det in detections {
            for (alias, labels) in &self.aliases {
                // The matching label doubles as the node's interned
                // class_label, so no per-detection interning is needed.
                if let Some(&label) = labels.iter().find(|l| **l == det.class_label) {
                    slot.graph
                        .add_node(VObjNode::from_detection_interned(*alias, label, det));
                }
            }
        }
    }
}

impl Operator for DetectOp {
    fn name(&self) -> String {
        let aliases: Vec<&str> = self.aliases.iter().map(|(a, _)| a.as_str()).collect();
        format!(
            "detect({} -> {})",
            self.detector.profile().name,
            aliases.join(","),
        )
    }

    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        self.process_batch(std::slice::from_mut(slot), ctx)
    }

    fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
        let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].alive).collect();
        if live.is_empty() {
            return Ok(());
        }
        let frames: Vec<&Frame> = live.iter().map(|&i| &slots[i].frame).collect();
        let _span = ctx
            .tracer
            .span("dispatch", "dispatch:detect")
            .arg("model", &self.detector.profile().name)
            .arg("frame", frames[0].index)
            .arg("items", frames.len());
        let per_frame = ctx.dispatch.detect(&self.detector, &frames, ctx.clock)?;
        for (&i, detections) in live.iter().zip(&per_frame) {
            self.populate(&mut slots[i], detections);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tracking
// ---------------------------------------------------------------------------

/// Object tracker operator for one alias: assigns stable track ids and
/// motion linkage, enabling stateful properties and intrinsic reuse.
pub struct TrackOp {
    alias: String,
    tracker: SortTracker,
    last_seen: HashMap<TrackId, u64>,
}

impl TrackOp {
    /// Creates a tracker for `alias`.
    pub fn new(alias: impl Into<String>) -> Self {
        Self {
            alias: alias.into(),
            tracker: SortTracker::new(TrackerParams::default()),
            last_seen: HashMap::new(),
        }
    }
}

impl Operator for TrackOp {
    fn name(&self) -> String {
        format!("track({})", self.alias)
    }

    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        // The Kalman tracker is native and cheap, but not free.
        ctx.clock.charge_labeled("tracker", 0.05);
        let ids = slot.graph.alive_of(&self.alias);
        let boxes: Vec<(vqpy_video::geometry::BBox, &str)> = ids
            .iter()
            .map(|&i| {
                let n = &slot.graph.nodes[i];
                (n.bbox, n.class_label.as_str())
            })
            .collect();
        let updates = self.tracker.update(&boxes);
        for (&node_id, up) in ids.iter().zip(&updates) {
            let node = &mut slot.graph.nodes[node_id];
            node.track_id = Some(up.track_id);
            node.track_confirmed = up.confirmed;
            node.track_is_new = up.is_new;
            node.prev_frame = self.last_seen.get(&up.track_id).copied();
            self.last_seen.insert(up.track_id, slot.frame.index);
        }
        Ok(())
    }

    fn state_key(&self) -> Option<String> {
        Some(format!("track({})", self.alias))
    }

    fn export_state(&mut self) -> Option<OpState> {
        Some(OpState::Track {
            tracker: std::mem::replace(
                &mut self.tracker,
                SortTracker::new(TrackerParams::default()),
            ),
            last_seen: std::mem::take(&mut self.last_seen),
        })
    }

    fn import_state(&mut self, state: OpState) {
        if let OpState::Track { tracker, last_seen } = state {
            self.tracker = tracker;
            self.last_seen = last_seen;
        }
    }
}

// ---------------------------------------------------------------------------
// Projection (property computation)
// ---------------------------------------------------------------------------

/// Projector operator: computes one property for all alive nodes of an
/// alias. Stateless model properties consult the intrinsic reuse cache
/// first; stateful properties maintain a per-track sliding window of their
/// dependencies (§4.1's "local sliding window of historical data").
///
/// An optional fused filter predicate is applied immediately after each
/// node's value is computed (operator fusion, §4.3).
pub struct ProjectOp {
    alias: String,
    def: PropertyDef,
    /// Interned `(alias, prop)` pair: the allocation-free reuse-cache key.
    alias_sym: Sym,
    prop_sym: Sym,
    classifier: Option<Arc<dyn Classifier>>,
    history: HashMap<TrackId, VecDeque<BTreeMap<String, Value>>>,
    fused_filter: Option<Pred>,
    fused_required: bool,
    /// Scratch for the batched model path, reused across frames.
    pending_ids: Vec<NodeId>,
    pending_dets: Vec<vqpy_models::Detection>,
    /// Scratch for the native path's [`PropertyCtx`]: one entry per
    /// dependency, keyed once here and refilled per node.
    deps: HashMap<String, Vec<Value>>,
}

impl ProjectOp {
    /// Creates a projector; model properties resolve their classifier from
    /// the zoo lazily on first use. `alias_sym`/`prop_sym` are the plan's
    /// interned symbols for the alias and the property name — they key the
    /// reuse cache without per-probe allocation.
    pub fn new(alias: impl Into<String>, def: PropertyDef, alias_sym: Sym, prop_sym: Sym) -> Self {
        Self {
            alias: alias.into(),
            deps: def.deps.iter().map(|d| (d.clone(), Vec::new())).collect(),
            def,
            alias_sym,
            prop_sym,
            classifier: None,
            history: HashMap::new(),
            fused_filter: None,
            fused_required: false,
            pending_ids: Vec::new(),
            pending_dets: Vec::new(),
        }
    }

    /// Fuses a filter to run on each node right after projection; when
    /// `required` is set, a frame whose alias has no surviving node dies.
    pub fn with_fused_filter(mut self, pred: Pred, required: bool) -> Self {
        self.fused_filter = Some(pred);
        self.fused_required = required;
        self
    }

    /// The property being projected.
    pub fn property(&self) -> &PropertyDef {
        &self.def
    }

    fn classifier(&mut self, ctx: &ExecCtx<'_>) -> Result<Arc<dyn Classifier>> {
        if self.classifier.is_none() {
            let name = match &self.def.source {
                PropertySource::Model(m) => m.clone(),
                other => {
                    return Err(VqpyError::InvalidQuery(format!(
                        "projector for non-model source {other:?} asked for classifier"
                    )))
                }
            };
            self.classifier = Some(ctx.zoo.classifier(&name)?);
        }
        Ok(Arc::clone(self.classifier.as_ref().expect("just set")))
    }

    /// Computes the property for `node` from the dependency values
    /// currently in the `deps` scratch.
    fn compute_native(&self, node: &VObjNode, fps: u32) -> Value {
        match &self.def.source {
            PropertySource::Native(f) => f(&PropertyCtx {
                deps: &self.deps,
                fps,
            }),
            PropertySource::Builtin(b) => node.builtin(*b),
            PropertySource::Model(_) => unreachable!("model handled separately"),
        }
    }
}

impl Operator for ProjectOp {
    fn name(&self) -> String {
        match &self.fused_filter {
            Some(p) => format!("project+filter({}.{} | {p})", self.alias, self.def.name),
            None => format!("project({}.{})", self.alias, self.def.name),
        }
    }

    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        let kind = self.def.kind;
        let is_model = matches!(self.def.source, PropertySource::Model(_));
        if let (PropertyKind::Stateless { intrinsic }, true) = (kind, is_model) {
            self.process_model_frame(slot, ctx, intrinsic)?;
        } else {
            self.process_native_frame(slot, ctx)?;
        }
        if self.fused_filter.is_some()
            && self.fused_required
            && slot.graph.alive_count(&self.alias) == 0
        {
            slot.alive = false;
        }
        Ok(())
    }

    /// The state key deliberately ignores fusion: whether a filter is fused
    /// onto this projection changes across recompiles of a shared plan, but
    /// the per-track history windows stay valid either way.
    fn state_key(&self) -> Option<String> {
        Some(format!("project({}.{})", self.alias, self.def.name))
    }

    fn export_state(&mut self) -> Option<OpState> {
        Some(OpState::Project {
            history: std::mem::take(&mut self.history),
        })
    }

    fn import_state(&mut self, state: OpState) {
        if let OpState::Project { history } = state {
            self.history = history;
        }
    }
}

impl ProjectOp {
    fn apply_value(&self, slot: &mut FrameSlot, id: NodeId, value: Value) {
        let node = &mut slot.graph.nodes[id];
        node.props.insert(self.def.name.clone(), value);
        // Operator fusion: filter right here, saving a pipeline pass.
        if let Some(pred) = &self.fused_filter {
            if !pred.eval(&*node) {
                node.alive = false;
            }
        }
    }

    /// Stateless model property: reuse-cache fast path, then one batched
    /// model invocation over the frame's remaining crops (§4.1 batching +
    /// §4.2 reuse).
    fn process_model_frame(
        &mut self,
        slot: &mut FrameSlot,
        ctx: &mut ExecCtx<'_>,
        intrinsic: bool,
    ) -> Result<()> {
        let node_ids = slot.graph.alive_of(&self.alias);
        self.pending_ids.clear();
        self.pending_dets.clear();
        for id in node_ids {
            let node = &slot.graph.nodes[id];
            if node.props.contains_key(&self.def.name) {
                continue; // already computed (shared plans)
            }
            // Memoized values are trusted only once the track is
            // confirmed: a first sighting clamped at the frame edge would
            // otherwise pin a bad classification for the object's whole
            // lifetime. An unconfirmed sighting is still *eligible* for
            // reuse, so it counts as a miss: hit rate is served-from-cache
            // over eligible projections, not over probes.
            let cached = match (&mut ctx.reuse, node.track_id) {
                (Some(reuse), Some(t)) if intrinsic && node.track_confirmed => reuse.lookup_named(
                    self.alias_sym,
                    t,
                    self.prop_sym,
                    &self.alias,
                    &self.def.name,
                ),
                (Some(reuse), Some(_)) if intrinsic => {
                    reuse.count_miss();
                    None
                }
                _ => None,
            };
            match cached {
                Some(v) => self.apply_value(slot, id, v),
                None => {
                    let det = slot.graph.nodes[id].as_detection();
                    self.pending_ids.push(id);
                    self.pending_dets.push(det);
                }
            }
        }
        if self.pending_ids.is_empty() {
            return Ok(());
        }
        let clf = self.classifier(ctx)?;
        let _span = ctx
            .tracer
            .span("dispatch", "dispatch:classify")
            .arg("model", &clf.profile().name)
            .arg("frame", slot.frame.index)
            .arg("items", self.pending_dets.len());
        let values = ctx
            .dispatch
            .classify(&clf, &slot.frame, &self.pending_dets, ctx.clock)?;
        for (&id, v) in self.pending_ids.iter().zip(values) {
            if let (true, Some(reuse), Some(t)) =
                (intrinsic, &mut ctx.reuse, slot.graph.nodes[id].track_id)
            {
                reuse.store_named(
                    self.alias_sym,
                    t,
                    self.prop_sym,
                    v.clone(),
                    &self.alias,
                    &self.def.name,
                );
            }
            self.apply_value(slot, id, v);
        }
        Ok(())
    }

    /// Native/builtin and stateful properties: per-node computation.
    fn process_native_frame(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        let node_ids = slot.graph.alive_of(&self.alias);
        for id in node_ids {
            let value = {
                let node = &slot.graph.nodes[id];
                if node.props.contains_key(&self.def.name) {
                    continue; // already computed (shared plans)
                }
                match self.def.kind {
                    // Stateless native/builtin: compute from current values.
                    PropertyKind::Stateless { .. } => {
                        for (d, values) in &mut self.deps {
                            values.clear();
                            values.push(node.value_of(d));
                        }
                        self.compute_native(node, ctx.fps)
                    }
                    // Stateful: per-track sliding window of dependencies.
                    PropertyKind::Stateful { history_len } => {
                        ctx.clock.charge_labeled("native_prop", 0.02);
                        let Some(track) = node.track_id else {
                            // Untracked objects cannot have stateful props.
                            slot.graph.nodes[id]
                                .props
                                .insert(self.def.name.clone(), Value::Null);
                            continue;
                        };
                        let window = self.history.entry(track).or_default();
                        let mut current = BTreeMap::new();
                        for d in &self.def.deps {
                            current.insert(d.clone(), node.value_of(d));
                        }
                        window.push_back(current);
                        while window.len() > history_len {
                            window.pop_front();
                        }
                        if window.len() < history_len {
                            Value::Null
                        } else {
                            for (d, values) in &mut self.deps {
                                values.clear();
                                values.extend(
                                    window
                                        .iter()
                                        .map(|m| m.get(d).cloned().unwrap_or(Value::Null)),
                                );
                            }
                            self.compute_native(node, ctx.fps)
                        }
                    }
                }
            };
            self.apply_value(slot, id, value);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Object filters
// ---------------------------------------------------------------------------

/// VObj filter: kills nodes failing a single-alias predicate; optionally
/// kills the whole frame when the alias has no survivors (the alias is
/// *required* by every query in the plan).
pub struct FilterOp {
    alias: String,
    pred: Pred,
    required: bool,
}

impl FilterOp {
    /// Creates a filter on `alias`.
    pub fn new(alias: impl Into<String>, pred: Pred, required: bool) -> Self {
        Self {
            alias: alias.into(),
            pred,
            required,
        }
    }

    /// The filter predicate.
    pub fn pred(&self) -> &Pred {
        &self.pred
    }
}

impl Operator for FilterOp {
    fn name(&self) -> String {
        format!("filter({} | {})", self.alias, self.pred)
    }

    fn process(&mut self, slot: &mut FrameSlot, _ctx: &mut ExecCtx<'_>) -> Result<()> {
        for node in &mut slot.graph.nodes {
            if node.alive && node.alias == self.alias && !self.pred.eval(&*node) {
                node.alive = false;
            }
        }
        if self.required && slot.graph.alive_count(&self.alias) == 0 {
            slot.alive = false;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Relation projection
// ---------------------------------------------------------------------------

/// Relation projector: computes relation properties for pairs of alive
/// nodes, adding spatial edges. Native properties are computed per pair;
/// HOI model properties run the model once per frame over the union of
/// both aliases' detections.
pub struct RelationProjectOp {
    decl: RelationDecl,
    hoi: Option<Arc<dyn HoiModel>>,
}

impl RelationProjectOp {
    /// Creates the projector for a declared relation.
    pub fn new(decl: RelationDecl) -> Self {
        Self { decl, hoi: None }
    }
}

impl Operator for RelationProjectOp {
    fn name(&self) -> String {
        format!(
            "project_relation({}: {} x {})",
            self.decl.name, self.decl.left_alias, self.decl.right_alias
        )
    }

    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        let left = slot.graph.alive_of(&self.decl.left_alias);
        let right = slot.graph.alive_of(&self.decl.right_alias);
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        let props: Vec<_> = self
            .decl
            .schema
            .all_properties()
            .into_iter()
            .cloned()
            .collect();

        // HOI properties: one model call per frame over both aliases.
        let mut hoi_results: HashMap<(NodeId, NodeId), Value> = HashMap::new();
        for p in &props {
            if let RelationSource::Hoi { model } = &p.source {
                if self.hoi.is_none() {
                    self.hoi = Some(ctx.zoo.hoi(model)?);
                }
                let hoi = self.hoi.as_ref().expect("just set");
                let all_ids: Vec<NodeId> = left.iter().chain(right.iter()).copied().collect();
                let dets: Vec<_> = all_ids
                    .iter()
                    .map(|&i| slot.graph.nodes[i].as_detection())
                    .collect();
                for triple in hoi.interactions(&slot.frame, &dets, ctx.clock) {
                    let s = all_ids[triple.subject_idx];
                    let o = all_ids[triple.object_idx];
                    hoi_results.insert((s, o), Value::Str(triple.kind));
                }
            }
        }

        for &l in &left {
            for &r in &right {
                ctx.clock.charge_labeled("relation_native", 0.01);
                let mut edge_props = BTreeMap::new();
                for p in &props {
                    let v = match &p.source {
                        RelationSource::Native(f) => {
                            let ln = &slot.graph.nodes[l];
                            let rn = &slot.graph.nodes[r];
                            f(&RelationCtx {
                                left_bbox: ln.bbox,
                                right_bbox: rn.bbox,
                                left_props: &ln.props,
                                right_props: &rn.props,
                                fps: ctx.fps,
                            })
                        }
                        RelationSource::Hoi { .. } => hoi_results
                            .get(&(l, r))
                            .or_else(|| hoi_results.get(&(r, l)))
                            .cloned()
                            .unwrap_or(Value::Null),
                    };
                    edge_props.insert(p.name.clone(), v);
                }
                slot.graph.add_edge(Edge {
                    kind: EdgeKind::Spatial,
                    relation: self.decl.name.clone(),
                    from: l,
                    to: r,
                    props: edge_props,
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// Join operator: enumerates bindings of the query's aliases to alive
/// nodes, evaluates the (possibly rewritten) frame constraint with relation
/// edges in scope, and records satisfying combos under the query's join
/// index (avoiding a per-frame name allocation).
///
/// The constraint is evaluated against the frame graph in place
/// (`Binding`); only a combo that matched is materialised.
pub struct JoinOp {
    /// Index into the plan's join list; keys [`FrameSlot::matches`].
    index: usize,
    query_name: String,
    aliases: Vec<String>,
    /// The declared relations both of whose aliases this join binds:
    /// `(name, left position, right position)` in `aliases`.
    relations: Vec<(String, usize, usize)>,
    pred: Pred,
    /// When true (single-query plans), an unmatched frame kills the slot.
    kills_frame: bool,
    /// Scratch, reused across frames: each alias's alive nodes, and the
    /// odometer over them (one index per alias, last alias fastest).
    candidates: Vec<Vec<NodeId>>,
    odometer: Vec<usize>,
}

impl JoinOp {
    /// Creates a join for one query; `index` is its position in the plan's
    /// join list.
    pub fn new(
        index: usize,
        query_name: impl Into<String>,
        aliases: Vec<String>,
        relations: Vec<RelationDecl>,
        pred: Pred,
        kills_frame: bool,
    ) -> Self {
        let position = |alias: &String| aliases.iter().position(|a| a == alias);
        let relations = relations
            .into_iter()
            .filter_map(|r| {
                let (left, right) = (position(&r.left_alias)?, position(&r.right_alias)?);
                Some((r.name, left, right))
            })
            .collect();
        Self {
            index,
            query_name: query_name.into(),
            candidates: vec![Vec::new(); aliases.len()],
            odometer: vec![0; aliases.len()],
            aliases,
            relations,
            pred,
            kills_frame,
        }
    }
}

/// The join's predicate scope: the frame graph read in place through the
/// odometer's current binding of aliases to candidate nodes.
struct Binding<'a> {
    graph: &'a FrameGraph,
    join: &'a JoinOp,
}

impl Binding<'_> {
    /// The node bound to the alias at join position `pos`.
    fn node(&self, pos: usize) -> NodeId {
        self.join.candidates[pos][self.join.odometer[pos]]
    }
}

impl PredScope for Binding<'_> {
    fn object_value(&self, target: &PropRef) -> Cow<'_, Value> {
        match self.join.aliases.iter().position(|a| *a == target.alias) {
            Some(pos) => self.graph.nodes[self.node(pos)].value_ref(&target.prop),
            None => Cow::Owned(Value::Null),
        }
    }

    fn relation_value(&self, relation: &str, prop: &str) -> Cow<'_, Value> {
        let edge = self
            .join
            .relations
            .iter()
            .find(|(name, ..)| name == relation)
            .and_then(|(name, left, right)| {
                self.graph
                    .edge_between(name, self.node(*left), self.node(*right))
            });
        or_null(edge.and_then(|e| e.props.get(prop)))
    }
}

impl Operator for JoinOp {
    fn name(&self) -> String {
        format!("join({} | {})", self.query_name, self.pred)
    }

    fn process(&mut self, slot: &mut FrameSlot, _ctx: &mut ExecCtx<'_>) -> Result<()> {
        if slot.matches.len() <= self.index {
            // Hand-built slots (tests) may not have been prepared.
            slot.prepare_joins(self.index + 1);
        }
        let (graph, combos) = (&slot.graph, &mut slot.matches[self.index]);
        combos.clear();
        for (nodes, alias) in self.candidates.iter_mut().zip(&self.aliases) {
            nodes.clear();
            nodes.extend(graph.alive_ids(alias));
        }
        if self.candidates.iter().all(|c| !c.is_empty()) {
            self.odometer.fill(0);
            'outer: loop {
                let binding = Binding { graph, join: self };
                if self.pred.eval(&binding) {
                    combos.push(MatchCombo {
                        nodes: (0..self.aliases.len()).map(|p| binding.node(p)).collect(),
                    });
                }
                // Advance the odometer.
                for pos in (0..self.odometer.len()).rev() {
                    self.odometer[pos] += 1;
                    if self.odometer[pos] < self.candidates[pos].len() {
                        continue 'outer;
                    }
                    self.odometer[pos] = 0;
                    if pos == 0 {
                        break 'outer;
                    }
                }
            }
        }
        if self.kills_frame && combos.is_empty() {
            slot.alive = false;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Instantiation
// ---------------------------------------------------------------------------

/// Builds the live operator a plan spec describes, interning names into
/// `syms`. Reuse-cache keys are derived from these symbols, so a long-lived
/// stream must pass the *same* table for every (re)instantiation or cached
/// values would be read back under the wrong `(alias, prop)` identity.
pub fn instantiate(
    plan: &PlanDag,
    spec: &OpSpec,
    zoo: &ModelZoo,
    syms: &mut SymbolTable,
) -> Result<Box<dyn Operator>> {
    let mut project = |alias: &str, prop: &str| -> Result<ProjectOp> {
        let schema = plan
            .schemas
            .get(alias)
            .ok_or_else(|| VqpyError::UnknownAlias(alias.to_owned()))?;
        let Some(ResolvedProperty::Defined(def)) = schema.resolve_property(prop) else {
            return Err(VqpyError::UnknownProperty {
                schema: schema.name().to_owned(),
                property: prop.to_owned(),
            });
        };
        let (a, p) = (syms.intern(alias), syms.intern(prop));
        Ok(ProjectOp::new(alias, def.clone(), a, p))
    };
    Ok(match spec {
        OpSpec::DiffFilter { threshold } => Box::new(DiffFrameFilter::new(*threshold)),
        OpSpec::BinaryFilter { model } => {
            Box::new(BinaryFilterOp::new(zoo.frame_classifier(model)?))
        }
        OpSpec::Detect { detector, aliases } => {
            Box::new(DetectOp::new(zoo.detector(detector)?, aliases.clone()))
        }
        OpSpec::Track { alias } => Box::new(TrackOp::new(alias.clone())),
        OpSpec::Project { alias, prop } => Box::new(project(alias, prop)?),
        OpSpec::FusedProjectFilter {
            alias,
            prop,
            pred,
            required,
        } => Box::new(project(alias, prop)?.with_fused_filter(pred.clone(), *required)),
        OpSpec::Filter {
            alias,
            pred,
            required,
        } => Box::new(FilterOp::new(alias.clone(), pred.clone(), *required)),
        OpSpec::ProjectRelation { index } => {
            Box::new(RelationProjectOp::new(plan.relations[*index].clone()))
        }
        OpSpec::Join { index } => {
            let j = &plan.joins[*index];
            Box::new(JoinOp::new(
                *index,
                j.query.name().to_owned(),
                j.query.vobjs().iter().map(|v| v.alias.clone()).collect(),
                j.query.relations().to_vec(),
                j.pred.clone(),
                j.kills_frame,
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::{Aggregate, Query};
    use vqpy_models::ModelZoo;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    fn ctx_parts() -> (Arc<ModelZoo>, Clock, ReuseCache) {
        (ModelZoo::standard(), Clock::new(), ReuseCache::new())
    }

    fn video() -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::jackson(), 77, 20.0))
    }

    #[test]
    fn detect_op_populates_graph() {
        let (zoo, clock, mut reuse) = ctx_parts();
        let v = video();
        let mut ctx = ExecCtx {
            dispatch: crate::backend::dispatch::direct(),
            tracer: &vqpy_obs::Tracer::disabled(),
            zoo: &zoo,
            clock: &clock,
            fps: v.fps(),
            reuse: Some(&mut reuse),
        };
        let mut op = DetectOp::new(
            zoo.detector("yolox").unwrap(),
            vec![(
                "car".into(),
                vec!["car".into(), "bus".into(), "truck".into()],
            )],
        );
        let mut slot = FrameSlot::new(v.frame(100));
        op.process(&mut slot, &mut ctx).unwrap();
        // All nodes belong to the declared alias and match its labels.
        for n in &slot.graph.nodes {
            assert_eq!(n.alias, "car");
            assert!(["car", "bus", "truck"].contains(&n.class_label.as_str()));
        }
    }

    #[test]
    fn track_op_assigns_stable_ids() {
        let (zoo, clock, mut reuse) = ctx_parts();
        let v = video();
        let mut ctx = ExecCtx {
            dispatch: crate::backend::dispatch::direct(),
            tracer: &vqpy_obs::Tracer::disabled(),
            zoo: &zoo,
            clock: &clock,
            fps: v.fps(),
            reuse: Some(&mut reuse),
        };
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut track = TrackOp::new("car");
        let mut ids_by_entity: HashMap<u64, Vec<TrackId>> = HashMap::new();
        for i in 100..130 {
            let mut slot = FrameSlot::new(v.frame(i));
            detect.process(&mut slot, &mut ctx).unwrap();
            track.process(&mut slot, &mut ctx).unwrap();
            for n in &slot.graph.nodes {
                if let (Some(e), Some(t)) = (n.sim_entity, n.track_id) {
                    ids_by_entity.entry(e).or_default().push(t);
                }
            }
        }
        // Each physical entity should map to (almost always) one track id.
        for (e, ids) in &ids_by_entity {
            if ids.len() < 5 {
                continue;
            }
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert!(
                distinct.len() <= 2,
                "entity {e} split across too many tracks: {distinct:?}"
            );
        }
    }

    #[test]
    fn projector_reuse_skips_model_calls() {
        let (zoo, clock, mut reuse) = ctx_parts();
        let v = video();
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut track = TrackOp::new("car");
        let def = PropertyDef::stateless_model("color", "color_detect", true);
        let mut project = ProjectOp::new("car", def, Sym(0), Sym(1));
        for i in 0..60 {
            let mut slot = FrameSlot::new(v.frame(i));
            let mut ctx = ExecCtx {
                dispatch: crate::backend::dispatch::direct(),
                tracer: &vqpy_obs::Tracer::disabled(),
                zoo: &zoo,
                clock: &clock,
                fps: v.fps(),
                reuse: Some(&mut reuse),
            };
            detect.process(&mut slot, &mut ctx).unwrap();
            track.process(&mut slot, &mut ctx).unwrap();
            project.process(&mut slot, &mut ctx).unwrap();
        }
        let stats = reuse.stats();
        assert!(
            stats.hits > 0,
            "confirmed tracks should hit the cache: {stats:?}"
        );
        // Model invocations = unconfirmed sightings + confirmed misses
        // (both counted as misses) + untracked nodes; far fewer than one
        // per node visit.
        let invocations = clock
            .stat("color_detect")
            .map(|s| s.invocations)
            .unwrap_or(0);
        assert!(invocations > 0);
        assert!(
            invocations >= stats.misses,
            "every miss costs a model call: {invocations} vs {stats:?}"
        );
        assert!(
            stats.misses > 0 && stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0,
            "first sightings must show up as misses: {stats:?}"
        );
        let visits = stats.hits + invocations;
        assert!(
            invocations * 2 < visits,
            "most visits should be cache hits: {invocations} of {visits}"
        );
    }

    #[test]
    fn filter_op_kills_nodes_and_frames() {
        let (zoo, clock, mut reuse) = ctx_parts();
        let v = video();
        let mut ctx = ExecCtx {
            dispatch: crate::backend::dispatch::direct(),
            tracer: &vqpy_obs::Tracer::disabled(),
            zoo: &zoo,
            clock: &clock,
            fps: v.fps(),
            reuse: Some(&mut reuse),
        };
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut filter = FilterOp::new("car", Pred::gt("car", "score", 2.0), true); // impossible
        let mut slot = FrameSlot::new(v.frame(100));
        detect.process(&mut slot, &mut ctx).unwrap();
        let before = slot.graph.alive_count("car");
        filter.process(&mut slot, &mut ctx).unwrap();
        assert_eq!(slot.graph.alive_count("car"), 0);
        assert!(!slot.alive, "required alias emptied -> frame dead");
        assert!(before > 0 || !slot.alive);
    }

    #[test]
    fn join_records_matches() {
        let (zoo, clock, mut reuse) = ctx_parts();
        let v = video();
        let mut ctx = ExecCtx {
            dispatch: crate::backend::dispatch::direct(),
            tracer: &vqpy_obs::Tracer::disabled(),
            zoo: &zoo,
            clock: &clock,
            fps: v.fps(),
            reuse: Some(&mut reuse),
        };
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut join = JoinOp::new(
            0,
            "Q",
            vec!["car".into()],
            vec![],
            Pred::gt("car", "score", 0.0),
            true,
        );
        let mut slot = FrameSlot::new(v.frame(100));
        detect.process(&mut slot, &mut ctx).unwrap();
        let n = slot.graph.alive_count("car");
        join.process(&mut slot, &mut ctx).unwrap();
        assert_eq!(slot.matches[0].len(), n);
        assert_eq!(slot.alive, n > 0);
    }

    /// Hand-built `person × car` slot for the join goldens: a dead person,
    /// a node of a third alias, a far pair, a pair with no edge (only the
    /// reverse direction has one), an edge onto the dead node and a close
    /// pair whose person fails the score term.
    fn join_golden_slot() -> FrameSlot {
        use vqpy_video::geometry::{BBox, Point};
        let mut slot = FrameSlot::new(video().frame(0));
        let mut add = |alias: &str, label: &str, x: f32, score: f32, track: Option<TrackId>| {
            let mut n = VObjNode::from_detection(
                alias,
                &vqpy_models::Detection {
                    class_label: label.into(),
                    bbox: BBox::from_center(Point::new(x, 100.0), 20.0, 10.0),
                    score,
                    sim_entity: None,
                },
            );
            n.track_id = track;
            slot.graph.add_node(n)
        };
        let p0 = add("person", "person", 100.0, 0.9, Some(7));
        let c0 = add("car", "car", 120.0, 0.8, Some(1));
        let p1 = add("person", "person", 130.0, 0.9, Some(8));
        let _bike = add("bike", "bicycle", 105.0, 0.9, None);
        let c1 = add("car", "car", 400.0, 0.7, Some(2));
        let p2 = add("person", "person", 390.0, 0.8, Some(9));
        let c2 = add("car", "car", 110.0, 0.6, None);
        let p3 = add("person", "person", 112.0, 0.2, Some(10));
        slot.graph.kill(p1);
        let mut near = |from: NodeId, to: NodeId, d: f64| {
            slot.graph.add_edge(Edge {
                kind: EdgeKind::Spatial,
                relation: "near".into(),
                from,
                to,
                props: BTreeMap::from([("distance".to_owned(), Value::Float(d))]),
            });
        };
        near(p0, c0, 20.0);
        near(p0, c1, 300.0);
        near(p0, c2, 10.0);
        near(p1, c0, 1.0); // onto the dead node
        near(p2, c0, 270.0);
        near(p2, c1, 10.0);
        near(c2, p2, 5.0); // reverse direction only: (p2, c2) has no edge
        near(p3, c2, 2.0); // close, but the person's score fails
        slot
    }

    fn join_golden_query(agg: Option<Aggregate>) -> Arc<Query> {
        use crate::frontend::library::{person_schema, vehicle_schema};
        use crate::frontend::predicate::CmpOp;
        let rel =
            crate::frontend::relation::distance_relation("near", person_schema(), vehicle_schema());
        let mut b = Query::builder("Near")
            .vobj("person", person_schema())
            .vobj("car", vehicle_schema())
            .relation(rel, "person", "car")
            .frame_constraint(
                Pred::gt("person", "score", 0.5)
                    & Pred::relation("near", "distance", CmpOp::Lt, 50.0),
            )
            .frame_output(&[
                ("car", "track_id"),
                ("person", "track_id"),
                ("car", "score"),
            ]);
        if let Some(a) = agg {
            b = b.video_output(a);
        }
        b.build().unwrap()
    }

    /// Runs `q`'s join, binding `aliases`, over `slot`.
    fn run_join(q: &Query, aliases: &[&str], kills_frame: bool, slot: &mut FrameSlot) {
        let (zoo, clock, _) = ctx_parts();
        let mut ctx = ExecCtx {
            dispatch: crate::backend::dispatch::direct(),
            tracer: &vqpy_obs::Tracer::disabled(),
            zoo: &zoo,
            clock: &clock,
            fps: 15,
            reuse: None,
        };
        JoinOp::new(
            0,
            q.name(),
            aliases.iter().map(|a| (*a).to_owned()).collect(),
            q.relations().to_vec(),
            q.frame_constraint().clone(),
            kills_frame,
        )
        .process(slot, &mut ctx)
        .unwrap();
    }

    // The expected values of the two golden tests below were printed by
    // the map-building join (`BTreeMap` bindings, a cloned property map
    // per candidate) before it was replaced.
    #[test]
    fn join_goldens_pin_combos_order_and_frame_kill() {
        let q = join_golden_query(None);
        let mut slot = join_golden_slot();
        run_join(&q, &["person", "car"], true, &mut slot);
        let combos: Vec<&[NodeId]> = slot.matches[0].iter().map(|c| &c.nodes[..]).collect();
        assert_eq!(
            combos,
            [[0, 1], [0, 6], [5, 4]],
            "(person, car), person-major"
        );
        assert!(slot.alive);

        // An alias with no live node: zero combos; the frame dies only
        // when the join may kill it.
        for kills_frame in [true, false] {
            let mut slot = join_golden_slot();
            run_join(&q, &["person", "truck"], kills_frame, &mut slot);
            assert!(slot.matches[0].is_empty());
            assert_eq!(slot.alive, !kills_frame);
        }
    }

    #[test]
    fn join_goldens_pin_hit_rows_and_aggregates() {
        use crate::backend::exec::QueryAccum;
        let row = |car: Value, person: i64, score: f32| {
            vec![
                ("car.track_id".to_owned(), car),
                ("person.track_id".to_owned(), Value::Int(person)),
                ("car.score".to_owned(), Value::Float(f64::from(score))),
            ]
        };
        let rows = vec![
            row(Value::Int(1), 7, 0.8),
            row(Value::Null, 7, 0.6),
            row(Value::Int(2), 9, 0.7),
        ];
        let person = || "person".to_owned();
        let car = || "car".to_owned();
        for (agg, value) in [
            (Aggregate::CountDistinctTracks { alias: person() }, 2),
            // The third car is untracked.
            (Aggregate::CountDistinctTracks { alias: car() }, 2),
            (Aggregate::MaxPerFrame { alias: person() }, 2),
            (Aggregate::MaxPerFrame { alias: car() }, 3),
        ] {
            let q = join_golden_query(Some(agg));
            let mut slot = join_golden_slot();
            run_join(&q, &["person", "car"], false, &mut slot);
            let mut accum = QueryAccum::for_query(&q);
            let hit = accum.observe(&slot, 0).unwrap();
            assert_eq!(hit.outputs, rows);
            assert_eq!(accum.video_value_for(&q), Some(Value::Int(value)));
        }
    }

    #[test]
    fn diff_filter_drops_static_frames() {
        let (zoo, clock, mut reuse) = ctx_parts();
        // Empty scene: every frame equals the first.
        let scene = vqpy_video::SceneBuilder::new(presets::banff(), 5.0).build();
        let v = SyntheticVideo::new(scene);
        let mut ctx = ExecCtx {
            dispatch: crate::backend::dispatch::direct(),
            tracer: &vqpy_obs::Tracer::disabled(),
            zoo: &zoo,
            clock: &clock,
            fps: v.fps(),
            reuse: Some(&mut reuse),
        };
        let mut op = DiffFrameFilter::new(0.5);
        let mut kept = 0;
        for i in 0..30 {
            let mut slot = FrameSlot::new(v.frame(i));
            op.process(&mut slot, &mut ctx).unwrap();
            if slot.alive {
                kept += 1;
            }
        }
        assert_eq!(kept, 1, "only the first static frame should survive");
    }
}
