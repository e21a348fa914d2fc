//! Relations between VObjs (Figures 3 and 4).
//!
//! A `RelationSchema` connects two VObj schemas and defines properties over
//! pairs of their instances — either native code over the two objects'
//! states (Figure 3's distance relation) or an HOI model from the zoo
//! (Figure 4's `PersonBallInteraction` via UPT).

use crate::backend::graph::{FrameGraph, NodeId};
use crate::frontend::vobj::VObjSchema;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vqpy_models::Value;
use vqpy_video::geometry::BBox;

/// Inputs available to a native relation property: the pair's boxes, and
/// the two objects' properties read in place on the frame graph.
#[derive(Debug)]
pub struct RelationCtx<'a> {
    pub left_bbox: BBox,
    pub right_bbox: BBox,
    pub fps: u32,
    graph: &'a FrameGraph,
    left: NodeId,
    right: NodeId,
}

impl<'a> RelationCtx<'a> {
    /// The context of the pair `(left, right)` of `graph`.
    pub fn new(graph: &'a FrameGraph, left: NodeId, right: NodeId, fps: u32) -> Self {
        Self {
            left_bbox: graph.nodes[left].bbox,
            right_bbox: graph.nodes[right].bbox,
            fps,
            graph,
            left,
            right,
        }
    }

    /// Property `prop` of the left object: computed, else built-in, else
    /// `Null`.
    pub fn left(&self, prop: &str) -> Value {
        self.graph.value_by_name(self.left, prop).into_owned()
    }

    /// Property `prop` of the right object, like [`RelationCtx::left`].
    pub fn right(&self, prop: &str) -> Value {
        self.graph.value_by_name(self.right, prop).into_owned()
    }
}

/// A native relation property implementation.
pub type NativeRelFn = Arc<dyn Fn(&RelationCtx<'_>) -> Value + Send + Sync>;

/// How a relation property is produced.
#[derive(Clone)]
pub enum RelationSource {
    /// Native code over the pair.
    Native(NativeRelFn),
    /// An HOI model: the property value is the interaction label predicted
    /// for the pair (`Null` when the model predicts none), e.g. `"hit"`.
    Hoi { model: String },
}

impl fmt::Debug for RelationSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationSource::Native(_) => write!(f, "Native(<fn>)"),
            RelationSource::Hoi { model } => write!(f, "Hoi({model})"),
        }
    }
}

/// A property on a relation.
#[derive(Debug, Clone)]
pub struct RelationPropertyDef {
    pub name: String,
    pub source: RelationSource,
}

/// A relation between two VObj schemas, with inheritance support.
#[derive(Debug, Clone)]
pub struct RelationSchema {
    name: String,
    parent: Option<Arc<RelationSchema>>,
    left: Arc<VObjSchema>,
    right: Arc<VObjSchema>,
    properties: BTreeMap<String, RelationPropertyDef>,
}

impl RelationSchema {
    /// Starts building a relation between `left` and `right`.
    pub fn builder(
        name: impl Into<String>,
        left: Arc<VObjSchema>,
        right: Arc<VObjSchema>,
    ) -> RelationSchemaBuilder {
        RelationSchemaBuilder {
            schema: RelationSchema {
                name: name.into(),
                parent: None,
                left,
                right,
                properties: BTreeMap::new(),
            },
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Left-hand VObj schema.
    pub fn left(&self) -> &Arc<VObjSchema> {
        &self.left
    }

    /// Right-hand VObj schema.
    pub fn right(&self) -> &Arc<VObjSchema> {
        &self.right
    }

    /// Resolves a relation property through the inheritance chain.
    pub fn resolve_property(&self, name: &str) -> Option<&RelationPropertyDef> {
        if let Some(p) = self.properties.get(name) {
            return Some(p);
        }
        let mut cur = self.parent.as_deref();
        while let Some(s) = cur {
            if let Some(p) = s.properties.get(name) {
                return Some(p);
            }
            cur = s.parent.as_deref();
        }
        None
    }

    /// All visible properties (sub definitions shadow inherited ones).
    pub fn all_properties(&self) -> Vec<&RelationPropertyDef> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut cur = Some(self);
        while let Some(s) = cur {
            for (n, d) in &s.properties {
                if seen.insert(n.clone()) {
                    out.push(d);
                }
            }
            cur = s.parent.as_deref();
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Builder for [`RelationSchema`].
#[derive(Debug)]
pub struct RelationSchemaBuilder {
    schema: RelationSchema,
}

impl RelationSchemaBuilder {
    /// Sets the parent relation (inherits its properties).
    pub fn parent(mut self, parent: Arc<RelationSchema>) -> Self {
        self.schema.parent = Some(parent);
        self
    }

    /// Adds a native pair property.
    pub fn native_property(mut self, name: impl Into<String>, f: NativeRelFn) -> Self {
        let name = name.into();
        self.schema.properties.insert(
            name.clone(),
            RelationPropertyDef {
                name,
                source: RelationSource::Native(f),
            },
        );
        self
    }

    /// Adds an HOI-model property (value = predicted interaction label).
    pub fn hoi_property(mut self, name: impl Into<String>, model: impl Into<String>) -> Self {
        let name = name.into();
        self.schema.properties.insert(
            name.clone(),
            RelationPropertyDef {
                name,
                source: RelationSource::Hoi {
                    model: model.into(),
                },
            },
        );
        self
    }

    /// Finalizes the relation schema.
    pub fn build(self) -> Arc<RelationSchema> {
        Arc::new(self.schema)
    }
}

/// The library's standard distance relation (Figure 3): property
/// `"distance"` = center distance of the two boxes in pixels.
pub fn distance_relation(
    name: impl Into<String>,
    left: Arc<VObjSchema>,
    right: Arc<VObjSchema>,
) -> Arc<RelationSchema> {
    let f: NativeRelFn = Arc::new(|ctx: &RelationCtx<'_>| {
        Value::Float(ctx.left_bbox.center_distance(&ctx.right_bbox) as f64)
    });
    RelationSchema::builder(name, left, right)
        .native_property("distance", f)
        .build()
}

/// The library's overlap relation: property `"iou"`.
pub fn overlap_relation(
    name: impl Into<String>,
    left: Arc<VObjSchema>,
    right: Arc<VObjSchema>,
) -> Arc<RelationSchema> {
    let f: NativeRelFn =
        Arc::new(|ctx: &RelationCtx<'_>| Value::Float(ctx.left_bbox.iou(&ctx.right_bbox) as f64));
    RelationSchema::builder(name, left, right)
        .native_property("iou", f)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::graph::VObjNode;
    use vqpy_models::Detection;
    use vqpy_video::geometry::Point;

    fn person() -> Arc<VObjSchema> {
        VObjSchema::builder("Person")
            .class_labels(&["person"])
            .detector("yolox")
            .build()
    }

    fn ball() -> Arc<VObjSchema> {
        VObjSchema::builder("Ball")
            .class_labels(&["ball"])
            .detector("yolox")
            .build()
    }

    #[test]
    fn distance_relation_computes_center_distance() {
        let rel = distance_relation("near", person(), ball());
        let def = rel.resolve_property("distance").unwrap();
        let mut graph = FrameGraph::new();
        let mut add = |x: f32, y: f32| {
            graph.add_node(VObjNode::from_detection(
                "a",
                &Detection {
                    class_label: "person".into(),
                    bbox: BBox::from_center(Point::new(x, y), 10.0, 10.0),
                    score: 0.5,
                    sim_entity: None,
                },
            ))
        };
        let (left, right) = (add(0.0, 0.0), add(30.0, 40.0));
        let ctx = RelationCtx::new(&graph, left, right, 15);
        assert_eq!(ctx.right("score"), Value::Float(0.5));
        assert_eq!(ctx.left("missing"), Value::Null);
        match &def.source {
            RelationSource::Native(f) => {
                assert_eq!(f(&ctx), Value::Float(50.0));
            }
            other => panic!("unexpected source {other:?}"),
        }
    }

    #[test]
    fn hoi_property_registers_model() {
        let rel = RelationSchema::builder("interact", person(), ball())
            .hoi_property("interaction", "upt_hoi")
            .build();
        let def = rel.resolve_property("interaction").unwrap();
        assert!(matches!(&def.source, RelationSource::Hoi { model } if model == "upt_hoi"));
    }

    #[test]
    fn relation_inheritance() {
        let base = distance_relation("near", person(), ball());
        let strict = RelationSchema::builder("very_near", person(), ball())
            .parent(base)
            .build();
        assert!(strict.resolve_property("distance").is_some());
        assert_eq!(strict.all_properties().len(), 1);
    }
}
