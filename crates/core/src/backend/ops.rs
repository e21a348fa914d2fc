//! The six operator families of §4.1 — frame filter, object detector,
//! object tracker, projector, object filter, and join — implemented as
//! stateful pipeline stages over [`FrameSlot`]s.
//!
//! The video-reader operator is the executor's frame loop itself; the
//! projector operator realizes lazy evaluation (compute a property, filter,
//! only then compute the next) and intrinsic-property reuse (§4.2).

use crate::backend::graph::{
    Edge, EdgeRead, EdgeSlot, FrameGraph, NodeId, NodeRead, NodeScope, PropAccess, PropSlot,
    SlotLayout, SlotPred, VObjNode,
};
use crate::backend::objects::{Objects, Reference};
use crate::backend::plan::{OpSpec, PlanDag};
use crate::backend::symbols::Istr;
use crate::error::{Result, VqpyError};
use crate::frontend::predicate::{or_null, Pred, PredScope};
use crate::frontend::property::{PropertyCtx, PropertyDef, PropertyKind, PropertySource};
use crate::frontend::query::RelationDecl;
use crate::frontend::relation::{RelationCtx, RelationPropertyDef, RelationSource};
use crate::frontend::vobj::ResolvedProperty;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use vqpy_models::{
    Classifier, Clock, Detection, Detector, FrameClassifier, HoiModel, ModelZoo, Value,
};
use vqpy_tracker::{TrackId, TrackUpdate};
use vqpy_video::frame::Frame;
use vqpy_video::geometry::BBox;

/// One frame moving through the pipeline.
///
/// Slots are *workspaces*: the executor keeps a pool of them and calls
/// [`FrameSlot::reset`] to load the next frame instead of reallocating the
/// graph, its slot arenas and the match buffers per frame (§4.1's batched
/// execution keeps the hot loop allocation-light).
#[derive(Debug)]
pub struct FrameSlot {
    pub frame: Frame,
    pub graph: FrameGraph,
    /// Dead slots are skipped by all later operators.
    pub alive: bool,
    /// Join results, indexed by the plan's join index (see
    /// [`crate::backend::plan::PlanDag::joins`]).
    pub matches: Vec<Matches>,
    /// Tracks that aged out of their alias's tracker on this frame, by the
    /// alias's object table. Ids are never reused, so the stage owning the
    /// tables frees their rows once it has run the whole batch.
    pub expired: Vec<(usize, TrackId)>,
}

impl FrameSlot {
    /// Wraps a frame for pipeline processing, with no property slots.
    pub fn new(frame: Frame) -> Self {
        Self::with_layout(frame, &Arc::default())
    }

    /// Wraps a frame whose graph carries `layout`'s property slots.
    pub fn with_layout(frame: Frame, layout: &Arc<SlotLayout>) -> Self {
        Self {
            frame,
            graph: FrameGraph::with_layout(Arc::clone(layout)),
            alive: true,
            matches: Vec::new(),
            expired: Vec::new(),
        }
    }

    /// Reloads this slot with a new frame laid out by `layout`, clearing
    /// per-frame state while keeping the graph, arena and match buffers'
    /// allocations.
    pub fn reset(&mut self, frame: Frame, layout: &Arc<SlotLayout>) {
        self.frame = frame;
        self.graph.reset(layout);
        self.alive = true;
        for m in &mut self.matches {
            m.clear();
        }
        self.expired.clear();
    }

    /// Ensures `matches` has one (cleared) bucket per join in the plan.
    pub fn prepare_joins(&mut self, joins: usize) {
        if self.matches.len() != joins {
            self.matches.resize_with(joins, Matches::default);
        }
    }
}

/// One join's satisfying bindings of query aliases to graph nodes on a
/// frame. Each combo is one node per alias, in the join's alias order (the
/// query's `vobjs()` order); combos are stored back to back, so recording
/// one allocates nothing once the buffer is warm. They are counted apart
/// from the nodes: a query over no objects has one combo, the empty one.
#[derive(Debug, Clone, Default)]
pub struct Matches {
    arity: usize,
    combos: usize,
    nodes: Vec<NodeId>,
}

impl Matches {
    /// The combos, in the order the join found them.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        (0..self.combos).map(|c| &self.nodes[c * self.arity..(c + 1) * self.arity])
    }

    /// Number of combos.
    pub fn len(&self) -> usize {
        self.combos
    }

    /// Whether no combo matched.
    pub fn is_empty(&self) -> bool {
        self.combos == 0
    }

    /// Records one combo.
    fn push(&mut self, combo: impl Iterator<Item = NodeId>) {
        self.nodes.extend(combo);
        self.combos += 1;
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.combos = 0;
    }
}

/// Mutable execution context shared by all operators.
pub struct ExecCtx<'a> {
    pub zoo: &'a ModelZoo,
    pub clock: &'a Clock,
    pub fps: u32,
    /// The stream's object tables, handed only to prep; `None` elsewhere.
    pub objects: Option<&'a mut Objects>,
    /// The stream's diff-filter reference, handed only to the frame
    /// filters; `None` elsewhere or when the plan has no diff filter.
    pub reference: Option<&'a mut Reference>,
    /// Whether intrinsic projections memoise their values (§4.2).
    pub reuse: bool,
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

/// A pipeline stage. Operators hold no cross-frame state: the ones that use
/// the stream's ([`StreamState`]) reach it through [`ExecCtx`], and must
/// therefore observe frames in order.
///
/// [`StreamState`]: crate::backend::objects::StreamState
pub trait Operator: Send {
    /// Processes one slot. Dead slots are not passed in.
    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()>;
    /// Processes a batch of slots in frame order (§4.1's batched
    /// execution). The default loops [`Operator::process`] over the live
    /// slots; every model-backed operator (detect, binary filter,
    /// projection) overrides it to issue one physical batched invocation
    /// per batch, amortizing per-invocation overhead, and its `process` is
    /// a batch of one. Results must be identical to running the frames one
    /// at a time.
    fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
        for slot in slots.iter_mut().filter(|s| s.alive) {
            self.process(slot, ctx)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame filters
// ---------------------------------------------------------------------------

/// Virtual cost of the native frame-differencing computation per frame.
pub const DIFF_FILTER_COST: f64 = 0.3;

/// Differencing-based frame filter (Figure 12): drops frames whose mean
/// absolute pixel difference (0-255 scale) from the last *kept* frame is
/// below the stream's [`Reference`] threshold.
pub struct DiffFrameFilter;

impl Operator for DiffFrameFilter {
    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        ctx.clock.charge_labeled("diff_filter", DIFF_FILTER_COST);
        let reference = ctx
            .reference
            .as_deref_mut()
            .expect("diff filters run in the frame filters");
        match &reference.last_kept {
            Some(prev) if prev.mean_abs_diff(&slot.frame.pixels) < reference.threshold => {
                slot.alive = false;
            }
            _ => reference.last_kept = Some(slot.frame.pixels.clone()),
        }
        Ok(())
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
/// motion linkage with the tracker in the alias's object table, and stamps
/// each node with its track's row there.
pub struct TrackOp {
    alias: Istr,
    /// The alias's object table.
    table: usize,
    /// Scratch, reused across frames.
    ids: Vec<NodeId>,
    boxes: Vec<(BBox, &'static str)>,
    updates: Vec<TrackUpdate>,
    expired: Vec<TrackId>,
}

impl TrackOp {
    /// Creates the tracker operator for `alias`, whose table is `table`.
    pub fn new(alias: &str, table: usize) -> Self {
        Self {
            alias: Istr::new(alias),
            table,
            ids: Vec::new(),
            boxes: Vec::new(),
            updates: Vec::new(),
            expired: Vec::new(),
        }
    }
}

impl Operator for TrackOp {
    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        let objects = ctx.objects.as_deref_mut().expect("trackers run in prep");
        let table = objects.table_mut(self.table);
        // The Kalman tracker is native and cheap, but not free.
        ctx.clock.charge_labeled("tracker", 0.05);
        let graph = &mut slot.graph;
        self.ids.clear();
        self.ids.extend(graph.alive_ids(self.alias));
        self.boxes.clear();
        self.boxes.extend(self.ids.iter().map(|&i| {
            let n = &graph.nodes[i];
            (n.bbox, n.class_label.as_str())
        }));
        self.expired.clear();
        table
            .tracker
            .update_into(&self.boxes, &mut self.updates, &mut self.expired);
        for (&node_id, up) in self.ids.iter().zip(&self.updates) {
            let row = table.row(up.track_id);
            let node = &mut graph.nodes[node_id];
            node.track_id = Some(up.track_id);
            node.row = Some(row);
            node.track_confirmed = up.confirmed;
        }
        let expired = self.expired.iter().map(|&id| (self.table, id));
        slot.expired.extend(expired);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Projection (property computation)
// ---------------------------------------------------------------------------

/// Projector operator: computes one property for all alive nodes of an
/// alias. Intrinsic model properties consult the track's memoised value
/// first; stateful properties keep a per-track sliding window of their
/// dependencies (§4.1's "local sliding window of historical data"). Both
/// live in the track's row of the alias's object table.
///
/// The property's slot, its table column and every dependency's read are
/// resolved against the plan when the operator is built.
///
/// An optional fused filter predicate is applied immediately after each
/// node's value is computed (operator fusion, §4.3).
///
/// A model property is computed a batch at a time (§4.1): the crops every
/// live frame still needs go to the model in one dispatch call, one
/// `(frame, crops)` job per frame. Values and reuse counters equal those of
/// running the frames one at a time, where each frame's values were stored
/// before the next frame probed: a confirmed probe of a cell that an
/// earlier frame of the batch is about to fill takes that pending value
/// and counts a hit, and the stores are applied in frame order, so the
/// last one wins.
pub struct ProjectOp {
    alias: Istr,
    def: PropertyDef,
    /// Where the computed value goes.
    slot: PropSlot,
    /// The property's table and column (see [`Objects::column`]).
    column: Option<(usize, usize)>,
    /// How each of `def.deps` is read, in order.
    dep_reads: Vec<PropAccess>,
    classifier: Option<Arc<dyn Classifier>>,
    /// The fused filter as written (for plan dumps) and as resolved.
    fused_filter: Option<(Pred, SlotPred)>,
    fused_required: bool,
    /// Scratch, reused across batches: the alias's alive nodes on one
    /// frame, a stateless native property's inputs, and the model path's
    /// buffers below.
    ids: Vec<NodeId>,
    inputs: Vec<Value>,
    /// The batch's crops to classify, in frame order: `(slot, node, row)`
    /// (`row` set when the value is to be memoised) and its detection
    /// (`pending_dets` keeps its high-water length; the first
    /// `pending.len()` entries are this batch's).
    pending: Vec<(usize, NodeId, Option<usize>)>,
    pending_dets: Vec<Detection>,
    /// Probes answered by a crop an earlier frame of the batch classifies:
    /// `(slot, node, index into pending)`.
    forwarded: Vec<(usize, NodeId, usize)>,
    /// By object-table row: the last crop of that row's track pending from
    /// a frame before the current one, while the batch is gathered.
    pending_at: Vec<Option<usize>>,
    /// The jobs of the dispatch call, empty between calls (a buffer
    /// reused through [`recycle`]), and the values it returned, flat.
    jobs: Vec<(&'static Frame, &'static [Detection])>,
    values: Vec<Value>,
}

impl ProjectOp {
    /// Creates a projector writing `def`'s slot of `layout` and its column
    /// of `objects`, if any; model properties resolve their classifier
    /// from the zoo lazily on first use.
    ///
    /// # Panics
    ///
    /// Panics when `layout` has no slot for the property.
    pub fn new(alias: &str, def: PropertyDef, layout: &SlotLayout, objects: &Objects) -> Self {
        let slot = layout
            .prop(&def.name)
            .unwrap_or_else(|| panic!("no slot for projected property {}", def.name));
        Self {
            alias: Istr::new(alias),
            column: objects.column(alias, &def.name),
            dep_reads: def.deps.iter().map(|d| layout.access(d)).collect(),
            slot,
            def,
            classifier: None,
            fused_filter: None,
            fused_required: false,
            ids: Vec::new(),
            inputs: Vec::new(),
            pending: Vec::new(),
            pending_dets: Vec::new(),
            forwarded: Vec::new(),
            pending_at: Vec::new(),
            jobs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Fuses a filter to run on each node right after projection; when
    /// `required` is set, a frame whose alias has no surviving node dies.
    pub fn with_fused_filter(mut self, pred: Pred, required: bool, layout: &SlotLayout) -> Self {
        let resolved = layout.resolve(&pred, &[self.alias.as_str()], &[]);
        self.fused_filter = Some((pred, resolved));
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
}

/// Computes a native or built-in property of `node` from `ctx`.
fn compute_native(source: &PropertySource, node: &VObjNode, ctx: &PropertyCtx<'_>) -> Value {
    match source {
        PropertySource::Native(f) => f(ctx),
        PropertySource::Builtin(b) => node.builtin(*b),
        PropertySource::Model(_) => unreachable!("model handled separately"),
    }
}

/// An empty vector over `v`'s allocation: scratch whose elements borrow
/// per call keeps its buffer on the operator (collecting a vector's
/// `into_iter` into one of the same layout reuses the allocation).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

impl Operator for ProjectOp {
    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        self.process_batch(std::slice::from_mut(slot), ctx)
    }

    fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
        let is_model = matches!(self.def.source, PropertySource::Model(_));
        match self.def.kind {
            PropertyKind::Stateless { intrinsic } if is_model => {
                self.process_model_batch(slots, ctx, intrinsic)?;
            }
            _ => {
                for slot in slots.iter_mut().filter(|s| s.alive) {
                    self.process_native_frame(slot, ctx);
                }
            }
        }
        if self.fused_filter.is_some() && self.fused_required {
            for slot in slots.iter_mut().filter(|s| s.alive) {
                if slot.graph.alive_count(self.alias) == 0 {
                    slot.alive = false;
                }
            }
        }
        Ok(())
    }
}

impl ProjectOp {
    fn apply_value(&self, graph: &mut FrameGraph, id: NodeId, value: Value) {
        graph.set(id, self.slot, value);
        // Operator fusion: filter right here, saving a pipeline pass.
        if let Some((_, pred)) = &self.fused_filter {
            if !pred.eval(&NodeScope { graph, id }) {
                graph.nodes[id].alive = false;
            }
        }
    }

    /// Stateless model property: memoised-value fast path, then one
    /// batched model invocation over the crops every live frame of the
    /// batch still needs (§4.1 batching + §4.2 reuse), with in-batch
    /// forwarding as the type's docs describe. Pending cells are keyed by
    /// object-table row, which is stable for this: prep frees expired
    /// tracks' rows only after its whole chain has run the batch (see
    /// [`crate::backend::objects`]), so no row changes hands inside it.
    fn process_model_batch(
        &mut self,
        slots: &mut [FrameSlot],
        ctx: &mut ExecCtx<'_>,
        intrinsic: bool,
    ) -> Result<()> {
        let reuse = intrinsic && ctx.reuse && ctx.objects.is_some() && self.column.is_some();
        self.pending.clear();
        self.forwarded.clear();
        let mut ids = std::mem::take(&mut self.ids);
        for (s, slot) in slots.iter_mut().enumerate().filter(|(_, s)| s.alive) {
            let frame_start = self.pending.len();
            ids.clear();
            ids.extend(slot.graph.alive_ids(self.alias));
            for &id in &ids {
                let node = &slot.graph.nodes[id];
                if slot.graph.get(id, self.slot).is_some() {
                    continue; // already computed (shared plans)
                }
                // Memoized values are trusted only once the track is
                // confirmed: a first sighting clamped at the frame edge
                // would otherwise pin a bad classification for the
                // object's whole lifetime. An unconfirmed sighting is still
                // *eligible* for reuse, so it counts as a miss: hit rate is
                // served-from-cache over eligible projections, not over
                // probes.
                let cell = self.column.zip(node.row).filter(|_| reuse);
                let cached = match (ctx.objects.as_deref_mut(), cell) {
                    (Some(objects), Some(((t, col), row))) if node.track_confirmed => {
                        match self.pending_at.get(row).copied().flatten() {
                            Some(p) => {
                                objects.stats.hits += 1;
                                self.forwarded.push((s, id, p));
                                continue;
                            }
                            None => objects.lookup(t, row, col),
                        }
                    }
                    (Some(objects), Some(_)) => {
                        objects.stats.misses += 1;
                        None
                    }
                    _ => None,
                };
                match cached {
                    Some(v) => self.apply_value(&mut slot.graph, id, v),
                    None => {
                        let n = self.pending.len();
                        if n == self.pending_dets.len() {
                            self.pending_dets.push(node.as_detection());
                        } else {
                            node.fill_detection(&mut self.pending_dets[n]);
                        }
                        self.pending.push((s, id, cell.map(|(_, row)| row)));
                    }
                }
            }
            // Later frames of the batch see this frame's crops as stored.
            for p in frame_start..self.pending.len() {
                if let Some(row) = self.pending[p].2 {
                    if self.pending_at.len() <= row {
                        self.pending_at.resize(row + 1, None);
                    }
                    self.pending_at[row] = Some(p);
                }
            }
        }
        self.ids = ids;
        for &(_, _, row) in &self.pending {
            if let Some(row) = row {
                self.pending_at[row] = None;
            }
        }
        if self.pending.is_empty() {
            return Ok(());
        }

        let clf = self.classifier(ctx)?;
        let mut jobs = recycle(std::mem::take(&mut self.jobs));
        let mut at = 0;
        for run in self.pending.chunk_by(|a, b| a.0 == b.0) {
            let dets = &self.pending_dets[at..at + run.len()];
            jobs.push((&slots[run[0].0].frame, dets));
            at += run.len();
        }
        let result = {
            let _span = ctx
                .tracer
                .span("dispatch", "dispatch:classify")
                .arg("model", &clf.profile().name)
                .arg("frame", jobs[0].0.index)
                .arg("items", at);
            ctx.dispatch.classify_jobs(&clf, &jobs, ctx.clock)
        };
        self.jobs = recycle(jobs);
        self.values.clear();
        self.values.extend(result?.into_iter().flatten());

        let mut values = std::mem::take(&mut self.values);
        if let (Some(objects), Some((t, col))) = (ctx.objects.as_deref_mut(), self.column) {
            for (&(_, _, row), v) in self.pending.iter().zip(&values) {
                if let Some(row) = row {
                    objects.store(t, row, col, v.clone());
                }
            }
        }
        for &(s, id, p) in &self.forwarded {
            self.apply_value(&mut slots[s].graph, id, values[p].clone());
        }
        for (&(s, id, _), v) in self.pending.iter().zip(values.drain(..)) {
            self.apply_value(&mut slots[s].graph, id, v);
        }
        self.values = values;
        Ok(())
    }

    /// Native/builtin and stateful properties: per-node computation.
    fn process_native_frame(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) {
        let graph = &mut slot.graph;
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend(graph.alive_ids(self.alias));
        for &id in &ids {
            if graph.get(id, self.slot).is_some() {
                continue; // already computed (shared plans)
            }
            let node = &graph.nodes[id];
            let value = match self.def.kind {
                // Stateless native/builtin: compute from current values.
                PropertyKind::Stateless { .. } => {
                    self.inputs.clear();
                    let current = self.dep_reads.iter().map(|&a| graph.value(id, a));
                    self.inputs.extend(current.map(Cow::into_owned));
                    let inputs = PropertyCtx::new(&self.def.deps, &self.inputs, 1, ctx.fps);
                    compute_native(&self.def.source, node, &inputs)
                }
                // Stateful: per-track sliding window of dependencies.
                PropertyKind::Stateful { history_len } => {
                    ctx.clock.charge_labeled("native_prop", 0.02);
                    let (Some(objects), Some((t, col)), Some(row)) =
                        (ctx.objects.as_deref_mut(), self.column, node.row)
                    else {
                        // Untracked objects cannot have stateful props.
                        graph.set(id, self.slot, Value::Null);
                        continue;
                    };
                    let current = self.dep_reads.iter().map(|&a| graph.value(id, a));
                    let table = objects.table_mut(t);
                    match table.push_window(row, col, current.map(Cow::into_owned)) {
                        Some(window) => {
                            let inputs =
                                PropertyCtx::new(&self.def.deps, window, history_len, ctx.fps);
                            compute_native(&self.def.source, node, &inputs)
                        }
                        None => Value::Null,
                    }
                }
            };
            self.apply_value(graph, id, value);
        }
        self.ids = ids;
    }
}

// ---------------------------------------------------------------------------
// Object filters
// ---------------------------------------------------------------------------

/// VObj filter: kills nodes failing a single-alias predicate; optionally
/// kills the whole frame when the alias has no survivors (the alias is
/// *required* by every query in the plan).
pub struct FilterOp {
    alias: Istr,
    pred: Pred,
    /// `pred` resolved against the plan's layout, the alias at position 0.
    resolved: SlotPred,
    required: bool,
}

impl FilterOp {
    /// Creates a filter on `alias`, resolving `pred` against `layout`.
    pub fn new(alias: &str, pred: Pred, required: bool, layout: &SlotLayout) -> Self {
        Self {
            alias: Istr::new(alias),
            resolved: layout.resolve(&pred, &[alias], &[]),
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
    fn process(&mut self, slot: &mut FrameSlot, _ctx: &mut ExecCtx<'_>) -> Result<()> {
        let graph = &mut slot.graph;
        for id in 0..graph.nodes.len() {
            let node = &graph.nodes[id];
            if node.alive
                && node.alias == self.alias
                && !self.resolved.eval(&NodeScope { graph, id })
            {
                graph.nodes[id].alive = false;
            }
        }
        if self.required && graph.alive_count(self.alias) == 0 {
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
    relation: Istr,
    left_alias: Istr,
    right_alias: Istr,
    /// Every visible property of the relation, with its edge column.
    props: Vec<(RelationPropertyDef, EdgeSlot)>,
    hoi: Option<Arc<dyn HoiModel>>,
    /// Scratch, reused across frames.
    left: Vec<NodeId>,
    right: Vec<NodeId>,
    hoi_ids: Vec<NodeId>,
    hoi_dets: Vec<Detection>,
    hoi_results: HashMap<(NodeId, NodeId), Value>,
}

impl RelationProjectOp {
    /// Creates the projector for a declared relation, writing `layout`'s
    /// edge columns.
    ///
    /// # Panics
    ///
    /// Panics when `layout` has no edge column for one of its properties.
    pub fn new(decl: RelationDecl, layout: &SlotLayout) -> Self {
        let props = decl
            .schema
            .all_properties()
            .into_iter()
            .map(|p| {
                let slot = layout
                    .edge_prop(&p.name)
                    .unwrap_or_else(|| panic!("no edge slot for relation property {}", p.name));
                (p.clone(), slot)
            })
            .collect();
        Self {
            relation: Istr::new(&decl.name),
            left_alias: Istr::new(&decl.left_alias),
            right_alias: Istr::new(&decl.right_alias),
            props,
            hoi: None,
            left: Vec::new(),
            right: Vec::new(),
            hoi_ids: Vec::new(),
            hoi_dets: Vec::new(),
            hoi_results: HashMap::new(),
        }
    }
}

impl Operator for RelationProjectOp {
    fn process(&mut self, slot: &mut FrameSlot, ctx: &mut ExecCtx<'_>) -> Result<()> {
        let graph = &mut slot.graph;
        self.left.clear();
        self.left.extend(graph.alive_ids(self.left_alias));
        self.right.clear();
        self.right.extend(graph.alive_ids(self.right_alias));
        if self.left.is_empty() || self.right.is_empty() {
            return Ok(());
        }

        // HOI properties: one model call per frame over both aliases.
        self.hoi_results.clear();
        for (p, _) in &self.props {
            if let RelationSource::Hoi { model } = &p.source {
                if self.hoi.is_none() {
                    self.hoi = Some(ctx.zoo.hoi(model)?);
                }
                let hoi = self.hoi.as_ref().expect("just set");
                self.hoi_ids.clear();
                self.hoi_ids.extend(self.left.iter().chain(&self.right));
                self.hoi_dets.truncate(self.hoi_ids.len());
                for (i, &id) in self.hoi_ids.iter().enumerate() {
                    match self.hoi_dets.get_mut(i) {
                        Some(det) => graph.nodes[id].fill_detection(det),
                        None => self.hoi_dets.push(graph.nodes[id].as_detection()),
                    }
                }
                for triple in hoi.interactions(&slot.frame, &self.hoi_dets, ctx.clock) {
                    let s = self.hoi_ids[triple.subject_idx];
                    let o = self.hoi_ids[triple.object_idx];
                    self.hoi_results.insert((s, o), Value::from(triple.kind));
                }
            }
        }

        for &l in &self.left {
            for &r in &self.right {
                ctx.clock.charge_labeled("relation_native", 0.01);
                let edge = graph.add_edge(Edge {
                    relation: self.relation,
                    from: l,
                    to: r,
                });
                for (p, edge_slot) in &self.props {
                    let v = match &p.source {
                        RelationSource::Native(f) => f(&RelationCtx::new(graph, l, r, ctx.fps)),
                        RelationSource::Hoi { .. } => self
                            .hoi_results
                            .get(&(l, r))
                            .or_else(|| self.hoi_results.get(&(r, l)))
                            .cloned()
                            .unwrap_or(Value::Null),
                    };
                    graph.set_edge_value(edge, *edge_slot, v);
                }
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
/// The constraint's leaves are resolved to (join position, slot or
/// built-in) and (relation, edge column) when the join is built, and it is
/// evaluated against the frame graph in place (`Binding`); only a combo
/// that matched is materialised.
pub struct JoinOp {
    /// Index into the plan's join list; keys [`FrameSlot::matches`].
    index: usize,
    aliases: Vec<Istr>,
    /// The declared relations both of whose aliases this join binds:
    /// `(name, left position, right position)` in `aliases`.
    relations: Vec<(Istr, usize, usize)>,
    resolved: SlotPred,
    /// When true (single-query plans), an unmatched frame kills the slot.
    kills_frame: bool,
    /// Scratch, reused across frames: each alias's alive nodes, and the
    /// odometer over them (one index per alias, last alias fastest).
    candidates: Vec<Vec<NodeId>>,
    odometer: Vec<usize>,
}

impl JoinOp {
    /// Creates a join for one query; `index` is its position in the plan's
    /// join list; `pred` is resolved against `layout`.
    pub fn new(
        index: usize,
        aliases: &[&str],
        relations: &[RelationDecl],
        pred: &Pred,
        kills_frame: bool,
        layout: &SlotLayout,
    ) -> Self {
        let position = |alias: &String| aliases.iter().position(|a| a == alias);
        let bound: Vec<&RelationDecl> = relations
            .iter()
            .filter(|r| position(&r.left_alias).is_some() && position(&r.right_alias).is_some())
            .collect();
        let names: Vec<&str> = bound.iter().map(|r| r.name.as_str()).collect();
        let resolved = layout.resolve(pred, aliases, &names);
        let relations = bound
            .iter()
            .map(|r| {
                let (left, right) = (position(&r.left_alias), position(&r.right_alias));
                (
                    Istr::new(&r.name),
                    left.expect("bound"),
                    right.expect("bound"),
                )
            })
            .collect();
        Self {
            index,
            candidates: vec![Vec::new(); aliases.len()],
            odometer: vec![0; aliases.len()],
            aliases: aliases.iter().map(|a| Istr::new(a)).collect(),
            relations,
            resolved,
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

impl PredScope<NodeRead, EdgeRead> for Binding<'_> {
    fn object_value(&self, target: &NodeRead) -> Cow<'_, Value> {
        match target.at {
            Some(pos) => self.graph.value(self.node(pos), target.access),
            None => Cow::Owned(Value::Null),
        }
    }

    fn relation_value(&self, target: &EdgeRead) -> Cow<'_, Value> {
        let (Some(relation), Some(slot)) = (target.relation, target.slot) else {
            return Cow::Owned(Value::Null);
        };
        let (name, left, right) = self.join.relations[relation];
        let edge = self
            .graph
            .edge_between(name, self.node(left), self.node(right));
        or_null(edge.and_then(|e| self.graph.edge_value(e, slot)))
    }
}

impl Operator for JoinOp {
    fn process(&mut self, slot: &mut FrameSlot, _ctx: &mut ExecCtx<'_>) -> Result<()> {
        if slot.matches.len() <= self.index {
            // Hand-built slots (tests) may not have been prepared.
            slot.prepare_joins(self.index + 1);
        }
        let (graph, combos) = (&slot.graph, &mut slot.matches[self.index]);
        combos.clear();
        combos.arity = self.aliases.len();
        for (nodes, alias) in self.candidates.iter_mut().zip(&self.aliases) {
            nodes.clear();
            nodes.extend(graph.alive_ids(*alias));
        }
        if self.candidates.iter().all(|c| !c.is_empty()) {
            self.odometer.fill(0);
            'outer: loop {
                let binding = Binding { graph, join: self };
                if self.resolved.eval(&binding) {
                    combos.push((0..combos.arity).map(|p| binding.node(p)));
                }
                // Advance the odometer.
                for pos in (0..self.odometer.len()).rev() {
                    self.odometer[pos] += 1;
                    if self.odometer[pos] < self.candidates[pos].len() {
                        continue 'outer;
                    }
                    self.odometer[pos] = 0;
                }
                // Every position wrapped (none, for a query over no
                // objects): each binding has been tried once.
                break;
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
/// resolving every property it reads or writes against `layout`
/// (the plan's [`PlanDag::slot_layout`]) and every per-track cell against
/// `objects` (the plan's [`Objects::for_plan`]).
pub fn instantiate(
    plan: &PlanDag,
    spec: &OpSpec,
    zoo: &ModelZoo,
    layout: &SlotLayout,
    objects: &Objects,
) -> Result<Box<dyn Operator>> {
    let project = |alias: &str, prop: &str| -> Result<ProjectOp> {
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
        Ok(ProjectOp::new(alias, def.clone(), layout, objects))
    };
    Ok(match spec {
        OpSpec::DiffFilter { .. } => Box::new(DiffFrameFilter),
        OpSpec::BinaryFilter { model } => {
            Box::new(BinaryFilterOp::new(zoo.frame_classifier(model)?))
        }
        OpSpec::Detect { detector, aliases } => {
            Box::new(DetectOp::new(zoo.detector(detector)?, aliases.clone()))
        }
        OpSpec::Track { alias } => {
            let table = objects
                .table(alias)
                .expect("every tracked alias has a table");
            Box::new(TrackOp::new(alias, table))
        }
        OpSpec::Project { alias, prop } => Box::new(project(alias, prop)?),
        OpSpec::FusedProjectFilter {
            alias,
            prop,
            pred,
            required,
        } => Box::new(project(alias, prop)?.with_fused_filter(pred.clone(), *required, layout)),
        OpSpec::Filter {
            alias,
            pred,
            required,
        } => Box::new(FilterOp::new(alias, pred.clone(), *required, layout)),
        OpSpec::ProjectRelation { index } => Box::new(RelationProjectOp::new(
            plan.relations[*index].clone(),
            layout,
        )),
        OpSpec::Join { index } => {
            let j = &plan.joins[*index];
            let aliases: Vec<&str> = j.query.vobjs().iter().map(|v| v.alias.as_str()).collect();
            Box::new(JoinOp::new(
                *index,
                &aliases,
                j.query.relations(),
                &j.pred,
                j.kills_frame,
                layout,
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::objects::ObjectTable;
    use crate::backend::reuse::ReuseStats;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::{Aggregate, Query};
    use vqpy_models::ModelZoo;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    /// A zoo, a clock, and the object tables of a plan that tracks `car`
    /// and memoises its colour.
    fn ctx_parts() -> (Arc<ModelZoo>, Clock, Objects) {
        let zoo = ModelZoo::standard();
        let red = Query::builder("Red")
            .vobj("car", crate::frontend::library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::eq("car", "color", "red"))
            .build()
            .unwrap();
        let plan = crate::build_plan(&[red], &zoo, &crate::PlanOptions::vqpy_default()).unwrap();
        (zoo, Clock::new(), Objects::for_plan(&plan))
    }

    /// An operator context at `fps` frames a second.
    fn exec_ctx<'a>(
        zoo: &'a ModelZoo,
        clock: &'a Clock,
        tracer: &'a vqpy_obs::Tracer,
        fps: u32,
        objects: Option<&'a mut Objects>,
    ) -> ExecCtx<'a> {
        let reuse = objects.is_some();
        let dispatch = crate::backend::dispatch::direct();
        ExecCtx {
            zoo,
            clock,
            fps,
            objects,
            reference: None,
            reuse,
            dispatch,
            tracer,
        }
    }

    fn video() -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::jackson(), 77, 20.0))
    }

    #[test]
    fn detect_op_populates_graph() {
        let (zoo, clock, mut objects) = ctx_parts();
        let v = video();
        let tracer = vqpy_obs::Tracer::disabled();
        let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
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
        let (zoo, clock, mut objects) = ctx_parts();
        let v = video();
        let tracer = vqpy_obs::Tracer::disabled();
        let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut track = TrackOp::new("car", 0);
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
        let (zoo, clock, mut objects) = ctx_parts();
        let v = video();
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut track = TrackOp::new("car", objects.table("car").unwrap());
        let def = PropertyDef::stateless_model("color", "color_detect", true);
        let layout = Arc::new(SlotLayout::new(["color"], []));
        let mut project = ProjectOp::new("car", def, &layout, &objects);
        for i in 0..60 {
            let mut slot = FrameSlot::with_layout(v.frame(i), &layout);
            let tracer = vqpy_obs::Tracer::disabled();
            let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
            detect.process(&mut slot, &mut ctx).unwrap();
            track.process(&mut slot, &mut ctx).unwrap();
            project.process(&mut slot, &mut ctx).unwrap();
        }
        let stats = objects.stats;
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

    /// Answers with the index of the frame it saw, so a value names the
    /// frame whose crop produced it.
    struct FrameIndex(vqpy_models::ModelProfile);

    impl Classifier for FrameIndex {
        fn profile(&self) -> &vqpy_models::ModelProfile {
            &self.0
        }

        fn classify(&self, frame: &Frame, _det: &Detection, clock: &Clock) -> Value {
            clock.charge_model(&self.0.name, self.0.cost);
            Value::Int(frame.index as i64)
        }
    }

    /// The memoised `seen_at` cells after a batch: the frame the batch
    /// ends before, and each live track's cell, by track.
    type Cells = (u64, Vec<(TrackId, Value)>);

    /// What a run of [`project_in_batches`] produced: each tracked node's
    /// `(frame, track, seen_at, color)`, the reuse counters, and the
    /// `seen_at` cells after each batch.
    type Projected = (Vec<(u64, TrackId, Value, Value)>, ReuseStats, Vec<Cells>);

    /// Detects, tracks and projects two memoised model properties of `car`
    /// (`seen_at` by [`FrameIndex`], and `color`) over 240 jackson frames
    /// in batches of `batch`, freeing expired rows after each batch as
    /// prep does. Tracks are confirmed on their third sighting, so a track
    /// stores its cell twice before its first probe, and the cell shows
    /// which store came last. Asserts that each model makes exactly one
    /// physical call per batch that has crops left to classify.
    fn project_in_batches(batch: usize) -> Projected {
        use vqpy_models::{ModelProfile, TaskKind, DISPATCH_LABEL};
        use vqpy_tracker::{SortTracker, TrackerParams};
        const FRAMES: u64 = 240;
        let zoo = ModelZoo::standard();
        let profile = ModelProfile::new("frame_index", TaskKind::Classification, 1.0, 1.0);
        zoo.register_classifier(Arc::new(FrameIndex(profile)));
        let clock = Clock::new();
        let tracer = vqpy_obs::Tracer::disabled();
        let v = video();
        let mut objects = Objects::with_columns(&["car"], &["seen_at", "color"], &[]);
        let params = TrackerParams {
            min_hits: 3,
            ..TrackerParams::default()
        };
        objects.table_mut(0).tracker = SortTracker::new(params);
        let layout = Arc::new(SlotLayout::new(["seen_at", "color"], []));
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut track = TrackOp::new("car", 0);
        let mut projects =
            [("seen_at", "frame_index"), ("color", "color_detect")].map(|(prop, model)| {
                let def = PropertyDef::stateless_model(prop, model, true);
                (model, ProjectOp::new("car", def, &layout, &objects))
            });
        let stat = |label: &str| clock.stat(label).map_or(0, |s| s.invocations);
        let (mut out, mut cells) = (Vec::new(), Vec::new());
        for lo in (0..FRAMES).step_by(batch) {
            let hi = (lo + batch as u64).min(FRAMES);
            let mut slots: Vec<FrameSlot> = (lo..hi)
                .map(|i| FrameSlot::with_layout(v.frame(i), &layout))
                .collect();
            let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
            detect.process_batch(&mut slots, &mut ctx).unwrap();
            track.process_batch(&mut slots, &mut ctx).unwrap();
            for (model, project) in &mut projects {
                let (calls, crops) = (stat(DISPATCH_LABEL), stat(model));
                project.process_batch(&mut slots, &mut ctx).unwrap();
                let (calls, crops) = (stat(DISPATCH_LABEL) - calls, stat(model) - crops);
                assert_eq!(
                    calls,
                    u64::from(crops > 0),
                    "{model}, batch {batch} at {lo}"
                );
            }
            for slot in &slots {
                objects.release(&slot.expired);
                let graph = &slot.graph;
                let value = |id, prop| graph.get(id, layout.prop(prop).unwrap()).cloned();
                for (id, node) in graph.nodes.iter().enumerate() {
                    if let Some(track) = node.track_id {
                        let (seen_at, color) = (value(id, "seen_at"), value(id, "color"));
                        out.push((slot.frame.index, track, seen_at.unwrap(), color.unwrap()));
                    }
                }
            }
            cells.push((hi, objects.cells(0, 0)));
        }
        (out, objects.stats, cells)
    }

    /// A batch classifies its crops in one call, yet gives what running
    /// its frames one at a time gives: a confirmed probe of a cell an
    /// earlier frame of the batch fills takes that frame's value and counts
    /// a hit, and cells are stored in frame order, the last store winning:
    /// after each batch every live track's cell holds what it holds after
    /// that frame when frames run one at a time.
    #[test]
    fn batched_projection_forwards_in_batch_values_like_frame_at_a_time() {
        let (values, stats, cells) = project_in_batches(1);
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
        let mut stored: HashMap<TrackId, Vec<&Value>> = HashMap::new();
        for (track, value) in cells.iter().flat_map(|c| &c.1) {
            let seen = stored.entry(*track).or_default();
            if seen.last() != Some(&value) {
                seen.push(value);
            }
        }
        assert!(
            stored.values().any(|seen| seen.len() > 1),
            "some cell is stored twice"
        );
        for batch in [2, 8, 24] {
            let run = project_in_batches(batch);
            assert_eq!(run.0, values, "values, batch {batch}");
            assert_eq!(run.1, stats, "reuse counters, batch {batch}");
            for (at, batch_cells) in &run.2 {
                let frame_cells = cells.iter().find(|c| c.0 == *at).unwrap();
                assert_eq!(batch_cells, &frame_cells.1, "cells at {at}, batch {batch}");
            }
        }
        // The 24-frame batches did forward: a node took the value of a crop
        // classified on an earlier frame of its own batch.
        let forwarded = values.iter().any(|(frame, _, seen_at, _)| {
            let Value::Int(at) = *seen_at else {
                return false;
            };
            let at = at as u64;
            at < *frame && at / 24 == frame / 24
        });
        assert!(forwarded, "no in-batch hit to forward");
    }

    #[test]
    fn filter_op_kills_nodes_and_frames() {
        let (zoo, clock, mut objects) = ctx_parts();
        let v = video();
        let tracer = vqpy_obs::Tracer::disabled();
        let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let impossible = Pred::gt("car", "score", 2.0);
        let mut filter = FilterOp::new("car", impossible, true, &SlotLayout::default());
        let mut slot = FrameSlot::new(v.frame(100));
        detect.process(&mut slot, &mut ctx).unwrap();
        let car = Istr::new("car");
        let before = slot.graph.alive_count(car);
        filter.process(&mut slot, &mut ctx).unwrap();
        assert_eq!(slot.graph.alive_count(car), 0);
        assert!(!slot.alive, "required alias emptied -> frame dead");
        assert!(before > 0 || !slot.alive);
    }

    #[test]
    fn join_records_matches() {
        let (zoo, clock, mut objects) = ctx_parts();
        let v = video();
        let tracer = vqpy_obs::Tracer::disabled();
        let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
        let det = zoo.detector("yolox").unwrap();
        let mut detect = DetectOp::new(det, vec![("car".into(), vec!["car".into()])]);
        let mut join = JoinOp::new(
            0,
            &["car"],
            &[],
            &Pred::gt("car", "score", 0.0),
            true,
            &SlotLayout::default(),
        );
        let mut slot = FrameSlot::new(v.frame(100));
        detect.process(&mut slot, &mut ctx).unwrap();
        let n = slot.graph.alive_count(Istr::new("car"));
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
        let layout = Arc::new(SlotLayout::new([], ["distance"]));
        let distance = layout.edge_prop("distance").unwrap();
        let relation = Istr::new("near");
        let mut slot = FrameSlot::with_layout(video().frame(0), &layout);
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
            let e = slot.graph.add_edge(Edge { relation, from, to });
            slot.graph.set_edge_value(e, distance, Value::Float(d));
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
        let tracer = vqpy_obs::Tracer::disabled();
        let mut ctx = exec_ctx(&zoo, &clock, &tracer, 15, None);
        let layout = Arc::clone(slot.graph.layout());
        JoinOp::new(
            0,
            aliases,
            q.relations(),
            q.frame_constraint(),
            kills_frame,
            &layout,
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
        let combos: Vec<&[NodeId]> = slot.matches[0].iter().collect();
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

    /// Rows holding a track, and live tracks, over every object table.
    fn census(objects: &Objects) -> (usize, usize) {
        let count = |f: fn(&ObjectTable) -> usize| objects.tables().iter().map(f).sum();
        (count(ObjectTable::rows), count(ObjectTable::live_tracks))
    }

    /// A track that aged out never returns, so its row (windows, memoised
    /// values) can go: after every segment of a long stream the tables
    /// hold no more rows than their trackers have live tracks. The hits
    /// and the reuse counters are those of a run that keeps every row,
    /// whose expiry reports are dropped before prep's batch ends. With 24-frame batches a track's last sighting and its
    /// expiry (16 frames later) can share a batch, so a row freed or handed
    /// out again before the batch ends would change an answer or a hit.
    #[test]
    fn expired_tracks_leave_no_state_behind_and_change_no_hits() {
        use crate::backend::exec::{run_segment, Collector, ExecConfig, ExecMetrics};
        use crate::backend::plan::{build_plan, PlanOptions};
        use crate::backend::stage::{
            decode_batch, deliver, instantiate_stage_ops, ExecEnv, StageCtx, StageKind,
        };
        use crate::frontend::library;

        const FRAMES: u64 = 3000;
        const SEGMENT: u64 = 300;
        let preset = presets::banff();
        let seconds = FRAMES as f64 / f64::from(preset.fps);
        let scene = Scene::generate(preset, 12, seconds);
        let speeding = f64::from(scene.preset.speeding_threshold_px_per_frame());
        let video = SyntheticVideo::new(scene);
        assert_eq!(video.frame_count(), FRAMES);
        let query = |name: &str, pred: Pred| {
            Query::builder(name)
                .vobj("car", library::vehicle_schema_intrinsic())
                .frame_constraint(Pred::gt("car", "score", 0.6) & pred)
                .frame_output(&[("car", "track_id"), ("car", "bbox")])
                .build()
                .unwrap()
        };
        // (query, golden (hit frames, rows), golden reuse (hits, misses)).
        // The goldens were printed by the engine before it pruned anything;
        // by frame 3 000 it held 215 windows and 215 cached colours for 7
        // live tracks.
        let cases = [
            (
                query("SpeedingCar", Pred::gt("car", "speed", speeding)),
                (770, 942),
                (0, 0),
            ),
            (
                query("RedCar", Pred::eq("car", "color", "red")),
                (1275, 1600),
                (14_500, 215),
            ),
        ];
        for ((query, golden, golden_reuse), batch_size) in
            cases.iter().flat_map(|case| [(case, 8), (case, 24)])
        {
            let name = format!("{}, batch {batch_size}", query.name());
            let (zoo, clock, opts) = (
                ModelZoo::standard(),
                Clock::new(),
                PlanOptions::vqpy_default(),
            );
            let plan = build_plan(std::slice::from_ref(query), &zoo, &opts).unwrap();
            let config = ExecConfig {
                batch_size,
                ..ExecConfig::default()
            };
            let env = ExecEnv {
                plan: &plan,
                source: &video,
                zoo: &zoo,
                clock: &clock,
                config: &config,
            };
            let fresh = || instantiate_stage_ops(&plan, &zoo, 1).unwrap();
            let mut metrics = ExecMetrics::default();

            // The engine as it runs, one segment at a time.
            let mut pruned_ops = fresh();
            let mut pruned = Collector::new(&plan);
            for lo in (0..FRAMES).step_by(SEGMENT as usize) {
                let frames = lo..lo + SEGMENT;
                run_segment(env, frames, &mut pruned_ops, &mut metrics, &mut pruned).unwrap();
                let (rows, live) = census(&pruned_ops.state.objects);
                assert!(
                    rows <= live,
                    "{name}, to {}: {rows} rows, {live} live",
                    lo + SEGMENT
                );
            }

            // The same operators driven one at a time outside the stage
            // body, every expiry report dropped before the batch ends.
            let mut ops = fresh();
            let mut kept = Collector::new(&plan);
            let cx = StageCtx::new(env, &ops);
            let tracer = vqpy_obs::Tracer::disabled();
            let mut slots = Vec::new();
            let batch = batch_size as u64;
            for lo in (0..FRAMES).step_by(batch_size) {
                decode_batch(&cx, lo..(lo + batch).min(FRAMES), &mut slots);
                for kind in StageKind::ALL {
                    for op in ops.chains[kind.index()][0].iter_mut() {
                        let objects = kind.owns_objects().then_some(&mut ops.state.objects);
                        let mut ctx = exec_ctx(&zoo, &clock, &tracer, video.fps(), objects);
                        op.process_batch(&mut slots, &mut ctx).unwrap();
                        slots.iter_mut().for_each(|s| s.expired.clear());
                    }
                }
                deliver(&plan, &slots, &mut metrics, &mut kept).unwrap();
            }
            let (rows, live) = census(&ops.state.objects);
            assert!(rows > 4 * live, "{name}: {rows} rows kept, {live} live");

            let hits = |c: Collector| c.finalize(&plan, ExecMetrics::default(), 0.0)[0].clone();
            let (pruned, kept) = (hits(pruned).frame_hits, hits(kept).frame_hits);
            assert_eq!(pruned, kept, "{name}");
            let rows: usize = pruned.iter().map(|h| h.outputs.len()).sum();
            assert_eq!((pruned.len(), rows), *golden, "{name}");
            // The segments moved their reuse counts into `metrics`; the
            // operators driven by hand left theirs in the tables.
            let stats = metrics.reuse;
            assert_eq!(stats, ops.state.objects.stats, "{name}");
            assert_eq!((stats.hits, stats.misses), *golden_reuse, "{name}");
        }
    }

    #[test]
    fn diff_filter_drops_static_frames() {
        let (zoo, clock, mut objects) = ctx_parts();
        // Empty scene: every frame equals the first.
        let scene = vqpy_video::SceneBuilder::new(presets::banff(), 5.0).build();
        let v = SyntheticVideo::new(scene);
        let tracer = vqpy_obs::Tracer::disabled();
        let mut ctx = exec_ctx(&zoo, &clock, &tracer, v.fps(), Some(&mut objects));
        let mut reference = Reference {
            threshold: 0.5,
            last_kept: None,
        };
        ctx.reference = Some(&mut reference);
        let mut kept = 0;
        for i in 0..30 {
            let mut slot = FrameSlot::new(v.frame(i));
            DiffFrameFilter.process(&mut slot, &mut ctx).unwrap();
            if slot.alive {
                kept += 1;
            }
        }
        assert_eq!(kept, 1, "only the first static frame should survive");
    }
}
