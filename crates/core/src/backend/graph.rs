//! The object-centric data model (§4.1): graphs of VObj nodes and relation
//! edges that flow through the operator DAG.
//!
//! Nodes are VObj instances detected on a frame; edges carry relation
//! properties. Motion linkage (the paper's motion edges) is carried by the
//! tracker identity; spatial edges live inside the frame graph. Duration and
//! temporal edges materialize in composition results (`compose` module)
//! rather than per-frame graphs.
//!
//! Property values live in *slots*. A [`SlotLayout`] gives every property a
//! plan's operators write a dense column, once, when the operators are
//! instantiated; a [`FrameGraph`] keeps one flat `node × slot` arena and one
//! `edge × relation-property` arena, cleared (not freed) per frame. Every
//! read is resolved once, too, into a [`PropAccess`]: the computed slot,
//! then the built-in of that name, then `Null`. An *unset* slot falls back
//! to the built-in; a computed `Null` does not. Predicates are resolved the
//! same way ([`SlotLayout::resolve`]), so nothing on the frame path looks a
//! property up by name.

use crate::backend::symbols::Istr;
use crate::frontend::predicate::{Pred, PredScope, PropRef, RelRef};
use crate::frontend::property::BuiltinProp;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vqpy_models::{Detection, Value};
use vqpy_tracker::TrackId;
use vqpy_video::entity::EntityId;
use vqpy_video::geometry::BBox;

/// Index of a node within its frame graph.
pub type NodeId = usize;

/// Index of an edge within its frame graph.
pub type EdgeId = usize;

/// A computed property's column in every node row of a [`SlotLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropSlot(u32);

/// A relation property's column in every edge row of a [`SlotLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeSlot(u32);

/// How a read of one property resolves: the computed slot when it is set,
/// else the built-in of that name, else `Null`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropAccess {
    pub slot: Option<PropSlot>,
    pub builtin: Option<BuiltinProp>,
}

/// Where every computed property and relation property of one plan lives:
/// node columns and edge columns, in first-seen order. Names are resolved
/// against it when operators are instantiated, never per frame.
#[derive(Debug, Clone, Default)]
pub struct SlotLayout {
    /// Distinguishes layouts, so a reader that caches resolutions (the
    /// result sink) notices a recompiled plan.
    id: u64,
    props: Vec<Istr>,
    edge_props: Vec<Istr>,
}

fn dedup<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<Istr> {
    let mut out: Vec<Istr> = Vec::new();
    for name in names {
        let name = Istr::new(name);
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

impl SlotLayout {
    /// A layout with `props` as node columns and `edge_props` as edge
    /// columns, in the order given (a repeated name keeps its first column).
    pub fn new<'a>(
        props: impl IntoIterator<Item = &'a str>,
        edge_props: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            props: dedup(props),
            edge_props: dedup(edge_props),
        }
    }

    /// This layout's identity (equal only for clones of one layout).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Node columns.
    pub fn width(&self) -> usize {
        self.props.len()
    }

    /// Edge columns.
    pub fn edge_width(&self) -> usize {
        self.edge_props.len()
    }

    /// The column of computed property `name`, if the plan writes it.
    pub fn prop(&self, name: &str) -> Option<PropSlot> {
        let i = self.props.iter().position(|p| p.as_str() == name)?;
        Some(PropSlot(i as u32))
    }

    /// The column of relation property `name`, if the plan computes it.
    pub fn edge_prop(&self, name: &str) -> Option<EdgeSlot> {
        let i = self.edge_props.iter().position(|p| p.as_str() == name)?;
        Some(EdgeSlot(i as u32))
    }

    /// How a read of `name` resolves under this layout.
    pub fn access(&self, name: &str) -> PropAccess {
        PropAccess {
            slot: self.prop(name),
            builtin: BuiltinProp::from_name(name),
        }
    }

    /// Resolves `pred`'s leaves for a scope that binds `aliases` and
    /// `relations` by position: an alias or relation the scope does not
    /// bind reads `Null`.
    pub fn resolve(&self, pred: &Pred, aliases: &[&str], relations: &[&str]) -> SlotPred {
        pred.map_leaves(
            &mut |t: &PropRef| NodeRead {
                at: aliases.iter().position(|a| *a == t.alias),
                access: self.access(&t.prop),
            },
            &mut |r: &RelRef| EdgeRead {
                relation: relations.iter().position(|n| *n == r.relation),
                slot: self.edge_prop(&r.prop),
            },
        )
    }
}

/// An object leaf resolved against a [`SlotLayout`]: the bound node it
/// reads (a join position; position 0 is the node itself in a one-node
/// scope), `None` for an alias the scope does not bind.
#[derive(Debug, Clone, Copy)]
pub struct NodeRead {
    pub at: Option<usize>,
    pub access: PropAccess,
}

/// A relation leaf resolved against a [`SlotLayout`]: which of the scope's
/// relations it reads (`None`: not bound) and the edge column.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRead {
    pub relation: Option<usize>,
    pub slot: Option<EdgeSlot>,
}

/// A predicate whose leaves were resolved against a [`SlotLayout`].
pub type SlotPred = Pred<NodeRead, EdgeRead>;

/// A VObj instance on one frame. Its computed properties live in its row
/// of the frame graph's slot arena.
///
/// `alias` and `class_label` are process-interned ([`Istr`]): nodes are
/// created per detection per frame, and the interned fields make that
/// construction allocation-free (the vocabulary is the bounded set of query
/// aliases and detector class labels).
#[derive(Debug, Clone)]
pub struct VObjNode {
    /// Query alias this node belongs to.
    pub alias: Istr,
    pub class_label: Istr,
    pub bbox: BBox,
    pub score: f32,
    /// Tracker identity, once the tracker operator has run.
    pub track_id: Option<TrackId>,
    /// The track's row in its alias's object table, set with `track_id`.
    pub row: Option<usize>,
    /// Whether the track has enough hits to be trusted for stateful props.
    pub track_confirmed: bool,
    /// Simulation linkage for scoring only; engines must not read it.
    pub sim_entity: Option<EntityId>,
    /// Dead nodes have been filtered out but stay in place so `NodeId`s
    /// remain stable.
    pub alive: bool,
}

impl VObjNode {
    /// Creates a node from a detection. Interns `alias` and the detection's
    /// class label; hot paths that already hold interned values should use
    /// [`VObjNode::from_detection_interned`] instead.
    pub fn from_detection(alias: &str, det: &Detection) -> Self {
        Self::from_detection_interned(Istr::new(alias), Istr::new(&det.class_label), det)
    }

    /// Creates a node from a detection with pre-interned alias and class
    /// label — the allocation-free path used by the detect operator.
    pub fn from_detection_interned(alias: Istr, class_label: Istr, det: &Detection) -> Self {
        Self {
            alias,
            class_label,
            bbox: det.bbox,
            score: det.score,
            track_id: None,
            row: None,
            track_confirmed: false,
            sim_entity: det.sim_entity,
            alive: true,
        }
    }

    /// Reconstructs the detection view of this node (for attribute models).
    pub fn as_detection(&self) -> Detection {
        let mut det = Detection {
            class_label: String::new(),
            bbox: self.bbox,
            score: self.score,
            sim_entity: self.sim_entity,
        };
        self.fill_detection(&mut det);
        det
    }

    /// Overwrites `det` with this node's detection view, reusing its label
    /// buffer.
    pub fn fill_detection(&self, det: &mut Detection) {
        det.class_label.clear();
        det.class_label.push_str(&self.class_label);
        det.bbox = self.bbox;
        det.score = self.score;
        det.sim_entity = self.sim_entity;
    }

    /// Value of a built-in property.
    pub fn builtin(&self, b: BuiltinProp) -> Value {
        match b {
            BuiltinProp::Bbox => Value::BBox(self.bbox),
            BuiltinProp::Score => Value::Float(self.score as f64),
            BuiltinProp::ClassLabel => Value::Str(self.class_label.to_arc()),
            BuiltinProp::TrackId => match self.track_id {
                Some(id) => Value::Int(id as i64),
                None => Value::Null,
            },
            BuiltinProp::Center => Value::Point(self.bbox.center()),
        }
    }
}

/// A relation edge between two nodes of the same frame graph. Its property
/// values live in its row of the graph's edge arena.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The relation's interned name (matches the query's `RelationDecl`).
    pub relation: Istr,
    pub from: NodeId,
    pub to: NodeId,
}

/// The per-frame object graph, with its slot arenas.
#[derive(Debug, Clone, Default)]
pub struct FrameGraph {
    pub nodes: Vec<VObjNode>,
    pub edges: Vec<Edge>,
    layout: Arc<SlotLayout>,
    /// `nodes.len() × layout.width()` values, node-major; `None` is unset.
    values: Vec<Option<Value>>,
    /// `edges.len() × layout.edge_width()` values, edge-major.
    edge_values: Vec<Option<Value>>,
}

impl FrameGraph {
    /// An empty graph with no slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph whose nodes and edges carry `layout`'s slots.
    pub fn with_layout(layout: Arc<SlotLayout>) -> Self {
        Self {
            layout,
            ..Self::default()
        }
    }

    /// The layout this graph's slots follow.
    pub fn layout(&self) -> &Arc<SlotLayout> {
        &self.layout
    }

    /// Adds a node (every slot unset), returning its id.
    pub fn add_node(&mut self, node: VObjNode) -> NodeId {
        self.nodes.push(node);
        let len = self.nodes.len() * self.layout.width();
        self.values.resize(len, None);
        self.nodes.len() - 1
    }

    /// Adds an edge (every slot unset), returning its id.
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        self.edges.push(edge);
        let len = self.edges.len() * self.layout.edge_width();
        self.edge_values.resize(len, None);
        self.edges.len() - 1
    }

    fn cell(&self, id: NodeId, slot: PropSlot) -> usize {
        id * self.layout.width() + slot.0 as usize
    }

    /// The computed value in `slot` of node `id`; `None` when unset.
    pub fn get(&self, id: NodeId, slot: PropSlot) -> Option<&Value> {
        self.values[self.cell(id, slot)].as_ref()
    }

    /// Sets `slot` of node `id`.
    pub fn set(&mut self, id: NodeId, slot: PropSlot, value: Value) {
        let cell = self.cell(id, slot);
        self.values[cell] = Some(value);
    }

    /// Value of a property of node `id` as `access` resolves it: computed
    /// values are borrowed where they sit; built-ins are made on demand.
    pub fn value(&self, id: NodeId, access: PropAccess) -> Cow<'_, Value> {
        if let Some(v) = access.slot.and_then(|s| self.get(id, s)) {
            return Cow::Borrowed(v);
        }
        Cow::Owned(
            access
                .builtin
                .map_or(Value::Null, |b| self.nodes[id].builtin(b)),
        )
    }

    /// [`FrameGraph::value`] by name: for tests and cold paths, which can
    /// afford to resolve per call.
    pub fn value_by_name(&self, id: NodeId, prop: &str) -> Cow<'_, Value> {
        self.value(id, self.layout.access(prop))
    }

    /// The value in `slot` of edge `id`; `None` when unset.
    pub fn edge_value(&self, id: EdgeId, slot: EdgeSlot) -> Option<&Value> {
        self.edge_values[id * self.layout.edge_width() + slot.0 as usize].as_ref()
    }

    /// Sets `slot` of edge `id`.
    pub fn set_edge_value(&mut self, id: EdgeId, slot: EdgeSlot, value: Value) {
        let cell = id * self.layout.edge_width() + slot.0 as usize;
        self.edge_values[cell] = Some(value);
    }

    /// Ids of alive nodes with the given alias, in id order.
    pub fn alive_ids(&self, alias: Istr) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.alive && n.alias == alias)
            .map(|(i, _)| i)
    }

    /// Number of alive nodes of an alias.
    pub fn alive_count(&self, alias: Istr) -> usize {
        self.alive_ids(alias).count()
    }

    /// The edge of `relation` connecting `from` to `to`, if present.
    pub fn edge_between(&self, relation: Istr, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.edges
            .iter()
            .position(|e| e.relation == relation && e.from == from && e.to == to)
    }

    /// Marks a node dead.
    pub fn kill(&mut self, id: NodeId) {
        if let Some(n) = self.nodes.get_mut(id) {
            n.alive = false;
        }
    }

    /// Removes all nodes and edges, keeping the allocations (slot
    /// workspaces reset graphs once per frame), and adopts `layout`.
    pub fn reset(&mut self, layout: &Arc<SlotLayout>) {
        self.nodes.clear();
        self.edges.clear();
        self.values.clear();
        self.edge_values.clear();
        if !Arc::ptr_eq(&self.layout, layout) {
            self.layout = Arc::clone(layout);
        }
    }
}

/// One node as a predicate scope (object filters, fused filters): position
/// 0 is the node itself, and every relation reads `Null`.
pub struct NodeScope<'a> {
    pub graph: &'a FrameGraph,
    pub id: NodeId,
}

impl PredScope<NodeRead, EdgeRead> for NodeScope<'_> {
    fn object_value(&self, target: &NodeRead) -> Cow<'_, Value> {
        match target.at {
            Some(0) => self.graph.value(self.id, target.access),
            _ => Cow::Owned(Value::Null),
        }
    }

    fn relation_value(&self, _target: &EdgeRead) -> Cow<'_, Value> {
        Cow::Owned(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_video::geometry::Point;

    fn node(alias: &str) -> VObjNode {
        VObjNode::from_detection(
            alias,
            &Detection {
                class_label: "car".into(),
                bbox: BBox::from_center(Point::new(10.0, 10.0), 20.0, 10.0),
                score: 0.9,
                sim_entity: Some(7),
            },
        )
    }

    fn graph(props: &[&str], edge_props: &[&str]) -> FrameGraph {
        let layout = SlotLayout::new(props.iter().copied(), edge_props.iter().copied());
        FrameGraph::with_layout(Arc::new(layout))
    }

    #[test]
    fn builtins_reflect_detection() {
        let mut g = FrameGraph::new();
        let n = g.add_node(node("car"));
        assert_eq!(
            g.value_by_name(n, "class_label").into_owned(),
            Value::from("car")
        );
        assert!(matches!(*g.value_by_name(n, "bbox"), Value::BBox(_)));
        assert_eq!(*g.value_by_name(n, "track_id"), Value::Null);
        assert_eq!(*g.value_by_name(n, "ghost"), Value::Null);
        match *g.value_by_name(n, "score") {
            Value::Float(s) => assert!((s - 0.9).abs() < 1e-5),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn computed_props_shadow_builtins_in_value_of() {
        let mut g = graph(&["color", "score"], &[]);
        let n = g.add_node(node("car"));
        let (color, score) = (g.layout().access("color"), g.layout().access("score"));
        // Unset: the built-in shows through, a non-built-in reads `Null`.
        assert!(matches!(*g.value(n, score), Value::Float(_)));
        assert_eq!(*g.value(n, color), Value::Null);
        g.set(n, color.slot.unwrap(), Value::from("red"));
        assert_eq!(*g.value(n, color), Value::from("red"));
        assert!(matches!(g.value(n, color), Cow::Borrowed(_)));
        // A computed property named like a built-in wins over it, even
        // when what it computed is `Null`.
        g.set(n, score.slot.unwrap(), Value::Float(2.0));
        assert_eq!(*g.value(n, score), Value::Float(2.0));
        g.set(n, score.slot.unwrap(), Value::Null);
        assert_eq!(*g.value(n, score), Value::Null);
    }

    #[test]
    fn graph_alias_queries() {
        let mut g = FrameGraph::new();
        let a = g.add_node(node("car"));
        let b = g.add_node(node("car"));
        let _p = g.add_node(node("person"));
        let (car, person) = (Istr::new("car"), Istr::new("person"));
        assert_eq!(g.alive_ids(car).collect::<Vec<_>>(), vec![a, b]);
        g.kill(a);
        assert_eq!(g.alive_ids(car).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.alive_count(person), 1);
    }

    #[test]
    fn edges_are_searchable() {
        let near = Istr::new("near");
        let mut g = graph(&[], &["distance"]);
        let a = g.add_node(node("car"));
        let b = g.add_node(node("person"));
        let e = g.add_edge(Edge {
            relation: near,
            from: a,
            to: b,
        });
        let distance = g.layout().edge_prop("distance").unwrap();
        g.set_edge_value(e, distance, Value::Float(42.0));
        let found = g.edge_between(near, a, b).unwrap();
        assert_eq!(g.edge_value(found, distance), Some(&Value::Float(42.0)));
        assert!(g.edge_between(near, b, a).is_none());
        assert!(g.edge_between(Istr::new("far"), a, b).is_none());
    }

    #[test]
    fn roundtrip_detection() {
        let n = node("car");
        let d = n.as_detection();
        assert_eq!(d.class_label, "car");
        assert_eq!(d.sim_entity, Some(7));
    }
}
