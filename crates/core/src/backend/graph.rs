//! The object-centric data model (§4.1): graphs of VObj nodes and relation
//! edges that flow through the operator DAG.
//!
//! Nodes are VObj instances detected on a frame; edges carry relation
//! properties. Motion linkage (the paper's motion edges) is recorded as the
//! tracker identity plus a back-pointer to the previous frame the track was
//! seen on; spatial edges live inside the frame graph. Duration and
//! temporal edges materialize in composition results (`compose` module)
//! rather than per-frame graphs.

use crate::backend::symbols::Istr;
use crate::frontend::predicate::{PredScope, PropRef};
use crate::frontend::property::BuiltinProp;
use std::borrow::Cow;
use std::collections::BTreeMap;
use vqpy_models::{Detection, Value};
use vqpy_tracker::TrackId;
use vqpy_video::entity::EntityId;
use vqpy_video::geometry::BBox;

/// Index of a node within its frame graph.
pub type NodeId = usize;

/// A VObj instance on one frame.
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
    /// Whether the track has enough hits to be trusted for stateful props.
    pub track_confirmed: bool,
    /// Whether this object was first seen on this frame.
    pub track_is_new: bool,
    /// Frame index where this track was previously seen (motion edge).
    pub prev_frame: Option<u64>,
    /// Computed property values.
    pub props: BTreeMap<String, Value>,
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
            track_confirmed: false,
            track_is_new: true,
            prev_frame: None,
            props: BTreeMap::new(),
            sim_entity: det.sim_entity,
            alive: true,
        }
    }

    /// Reconstructs the detection view of this node (for attribute models).
    pub fn as_detection(&self) -> Detection {
        Detection {
            class_label: self.class_label.as_str().to_owned(),
            bbox: self.bbox,
            score: self.score,
            sim_entity: self.sim_entity,
        }
    }

    /// Value of a built-in property.
    pub fn builtin(&self, b: BuiltinProp) -> Value {
        match b {
            BuiltinProp::Bbox => Value::BBox(self.bbox),
            BuiltinProp::Score => Value::Float(self.score as f64),
            BuiltinProp::ClassLabel => Value::Str(self.class_label.as_str().to_owned()),
            BuiltinProp::TrackId => match self.track_id {
                Some(id) => Value::Int(id as i64),
                None => Value::Null,
            },
            BuiltinProp::Center => Value::Point(self.bbox.center()),
        }
    }

    /// Value of any property: computed first, then built-ins, else `Null`.
    /// Computed values are borrowed where they sit; built-ins are made on
    /// demand.
    pub fn value_ref(&self, prop: &str) -> Cow<'_, Value> {
        match self.props.get(prop) {
            Some(v) => Cow::Borrowed(v),
            None => {
                Cow::Owned(BuiltinProp::from_name(prop).map_or(Value::Null, |b| self.builtin(b)))
            }
        }
    }

    /// [`VObjNode::value_ref`], owned.
    pub fn value_of(&self, prop: &str) -> Value {
        self.value_ref(prop).into_owned()
    }
}

/// A node is the scope of a single-alias predicate (object filters, fused
/// filters): its own alias resolves through [`VObjNode::value_ref`], any
/// other alias and every relation is `Null`.
impl PredScope for VObjNode {
    fn object_value(&self, target: &PropRef) -> Cow<'_, Value> {
        if self.alias == target.alias {
            self.value_ref(&target.prop)
        } else {
            Cow::Owned(Value::Null)
        }
    }

    fn relation_value(&self, _relation: &str, _prop: &str) -> Cow<'_, Value> {
        Cow::Owned(Value::Null)
    }
}

/// Kinds of relation edges (§4.1's data model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Same object, consecutive frames (carried by track ids here).
    Motion,
    /// Two objects on the same frame.
    Spatial,
    /// Two objects within a frame-distance constraint.
    Duration,
    /// From-object precedes to-object.
    Temporal,
}

/// A relation edge between two nodes of the same frame graph.
#[derive(Debug, Clone)]
pub struct Edge {
    pub kind: EdgeKind,
    /// Relation name (matches the query's `RelationDecl`).
    pub relation: String,
    pub from: NodeId,
    pub to: NodeId,
    pub props: BTreeMap<String, Value>,
}

/// The per-frame object graph.
#[derive(Debug, Clone, Default)]
pub struct FrameGraph {
    pub nodes: Vec<VObjNode>,
    pub edges: Vec<Edge>,
}

impl FrameGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: VObjNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, edge: Edge) {
        self.edges.push(edge);
    }

    /// Ids of alive nodes with the given alias, in id order.
    pub fn alive_ids<'a>(&'a self, alias: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.alive && n.alias == *alias)
            .map(|(i, _)| i)
    }

    /// [`FrameGraph::alive_ids`], collected: for walks that change the
    /// graph as they go.
    pub fn alive_of(&self, alias: &str) -> Vec<NodeId> {
        self.alive_ids(alias).collect()
    }

    /// Number of alive nodes of an alias.
    pub fn alive_count(&self, alias: &str) -> usize {
        self.alive_ids(alias).count()
    }

    /// The edge of `relation` connecting `from` to `to`, if present.
    pub fn edge_between(&self, relation: &str, from: NodeId, to: NodeId) -> Option<&Edge> {
        self.edges
            .iter()
            .find(|e| e.relation == relation && e.from == from && e.to == to)
    }

    /// Marks a node dead.
    pub fn kill(&mut self, id: NodeId) {
        if let Some(n) = self.nodes.get_mut(id) {
            n.alive = false;
        }
    }

    /// Removes all nodes and edges, keeping the allocations (slot
    /// workspaces reset graphs once per frame).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
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

    #[test]
    fn builtins_reflect_detection() {
        let n = node("car");
        assert_eq!(n.value_of("class_label"), Value::Str("car".into()));
        assert!(matches!(n.value_of("bbox"), Value::BBox(_)));
        assert_eq!(n.value_of("track_id"), Value::Null);
        assert_eq!(n.value_of("ghost"), Value::Null);
        match n.value_of("score") {
            Value::Float(s) => assert!((s - 0.9).abs() < 1e-5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn computed_props_shadow_builtins_in_value_of() {
        let mut n = node("car");
        n.props.insert("color".into(), Value::from("red"));
        assert_eq!(n.value_of("color"), Value::from("red"));
        assert!(matches!(n.value_ref("color"), Cow::Borrowed(_)));
        // A computed property named like a built-in wins over it.
        n.props.insert("score".into(), Value::Float(2.0));
        assert_eq!(n.value_of("score"), Value::Float(2.0));
    }

    #[test]
    fn graph_alias_queries() {
        let mut g = FrameGraph::new();
        let a = g.add_node(node("car"));
        let b = g.add_node(node("car"));
        let _p = g.add_node(node("person"));
        assert_eq!(g.alive_of("car"), vec![a, b]);
        g.kill(a);
        assert_eq!(g.alive_of("car"), vec![b]);
        assert_eq!(g.alive_count("person"), 1);
    }

    #[test]
    fn edges_are_searchable() {
        let mut g = FrameGraph::new();
        let a = g.add_node(node("car"));
        let b = g.add_node(node("person"));
        let mut props = BTreeMap::new();
        props.insert("distance".to_owned(), Value::Float(42.0));
        g.add_edge(Edge {
            kind: EdgeKind::Spatial,
            relation: "near".into(),
            from: a,
            to: b,
            props,
        });
        let e = g.edge_between("near", a, b).unwrap();
        assert_eq!(e.props["distance"], Value::Float(42.0));
        assert!(g.edge_between("near", b, a).is_none());
    }

    #[test]
    fn roundtrip_detection() {
        let n = node("car");
        let d = n.as_detection();
        assert_eq!(d.class_label, "car");
        assert_eq!(d.sim_entity, Some(7));
    }
}
