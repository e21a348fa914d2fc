//! The `Query` construct (Figures 5-7): frame constraints/outputs, video
//! constraints/outputs, and query inheritance.

use crate::error::VqpyError;
use crate::frontend::predicate::{Pred, PropRef};
use crate::frontend::relation::RelationSchema;
use crate::frontend::vobj::VObjSchema;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A VObj declared in a query under an alias.
#[derive(Debug, Clone)]
pub struct VObjDecl {
    pub alias: String,
    pub schema: Arc<VObjSchema>,
}

/// A relation declared in a query, binding two aliases.
#[derive(Debug, Clone)]
pub struct RelationDecl {
    pub name: String,
    pub schema: Arc<RelationSchema>,
    pub left_alias: String,
    pub right_alias: String,
}

/// Video-level aggregation (`video_output`, Figure 7). The "same object in
/// different frames is one entity" semantics come from tracker identity.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Number of distinct tracked objects of an alias that ever satisfied
    /// the frame constraint (Figure 7's right-turn counting).
    CountDistinctTracks { alias: String },
    /// Average number of matched objects of an alias per *processed* frame
    /// (§5.3 Q4/Q5: "average number of cars on the crossing").
    AvgPerFrame { alias: String },
    /// Maximum number of matched objects of an alias on any frame.
    MaxPerFrame { alias: String },
    /// Number of frames satisfying the frame constraint.
    CountFrames,
}

/// A complete basic video query.
#[derive(Debug, Clone)]
pub struct Query {
    name: String,
    vobjs: Vec<VObjDecl>,
    relations: Vec<RelationDecl>,
    frame_constraint: Pred,
    frame_output: Vec<PropRef>,
    video_output: Option<Aggregate>,
    accuracy_target: Option<f32>,
    key: CacheKey,
}

/// What the session's plan and result caches key a query on: the query's
/// every field (schemas, relations, constraint, outputs, accuracy target),
/// rendered and hashed once when it is built, so a cache lookup hashes a
/// word per query. Native functions are opaque to it: it names them by
/// property, dependencies and kind.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct CacheKey {
    hash: u64,
    text: Arc<str>,
}

impl CacheKey {
    fn new(text: String) -> Self {
        let mut hasher = DefaultHasher::new();
        text.hash(&mut hasher);
        Self {
            hash: hasher.finish(),
            text: text.into(),
        }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

impl Query {
    /// Starts building a query.
    pub fn builder(name: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            query: Query {
                name: name.into(),
                vobjs: Vec::new(),
                relations: Vec::new(),
                frame_constraint: Pred::True,
                frame_output: Vec::new(),
                video_output: None,
                accuracy_target: None,
                key: CacheKey::default(),
            },
        }
    }

    /// Builds a sub-query that inherits everything from `base`; added
    /// constraints are ANDed with the base constraint (query inheritance,
    /// §3: "a sub-Query can reuse the constraints of all its super-Query to
    /// construct a stricter constraint").
    pub fn extend(name: impl Into<String>, base: &Query) -> QueryBuilder {
        let mut q = base.clone();
        q.name = name.into();
        QueryBuilder { query: q }
    }

    /// Query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared VObjs.
    pub fn vobjs(&self) -> &[VObjDecl] {
        &self.vobjs
    }

    /// Declared relations.
    pub fn relations(&self) -> &[RelationDecl] {
        &self.relations
    }

    /// The frame constraint.
    pub fn frame_constraint(&self) -> &Pred {
        &self.frame_constraint
    }

    /// The frame output projection.
    pub fn frame_output(&self) -> &[PropRef] {
        &self.frame_output
    }

    /// The video aggregation, if any.
    pub fn video_output(&self) -> Option<&Aggregate> {
        self.video_output.as_ref()
    }

    /// Planner accuracy target (F1 against the reference plan), if set.
    pub fn accuracy_target(&self) -> Option<f32> {
        self.accuracy_target
    }

    /// The key the session's caches file this query under: equal keys
    /// plan, and answer, alike.
    pub(crate) fn cache_key(&self) -> &CacheKey {
        &self.key
    }

    /// Looks up a declared alias.
    pub fn vobj(&self, alias: &str) -> Option<&VObjDecl> {
        self.vobjs.iter().find(|v| v.alias == alias)
    }

    /// Looks up a declared relation.
    pub fn relation(&self, name: &str) -> Option<&RelationDecl> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Validates alias/relation/property references.
    fn validate(&self) -> Result<(), VqpyError> {
        let aliases: BTreeSet<&str> = self.vobjs.iter().map(|v| v.alias.as_str()).collect();
        if aliases.len() != self.vobjs.len() {
            return Err(VqpyError::InvalidQuery("duplicate alias".into()));
        }
        let mut relation_names = BTreeSet::new();
        for r in &self.relations {
            // Predicates refer to a relation by name alone, so a name must
            // identify one declaration.
            if !relation_names.insert(r.name.as_str()) {
                return Err(VqpyError::InvalidQuery(format!(
                    "duplicate relation {}",
                    r.name
                )));
            }
            for a in [&r.left_alias, &r.right_alias] {
                if !aliases.contains(a.as_str()) {
                    return Err(VqpyError::UnknownAlias(a.clone()));
                }
            }
        }
        let mut refs: Vec<PropRef> = self
            .frame_constraint
            .referenced_props()
            .into_iter()
            .collect();
        refs.extend(self.frame_output.iter().cloned());
        for p in refs {
            let decl = self
                .vobj(&p.alias)
                .ok_or_else(|| VqpyError::UnknownAlias(p.alias.clone()))?;
            if decl.schema.resolve_property(&p.prop).is_none() {
                return Err(VqpyError::UnknownProperty {
                    schema: decl.schema.name().to_owned(),
                    property: p.prop.clone(),
                });
            }
        }
        for (rel, prop) in self.frame_constraint.referenced_relation_props() {
            let decl = self
                .relation(&rel)
                .ok_or_else(|| VqpyError::UnknownRelation(rel.clone()))?;
            // A typo'd relation property used to slip through to execution,
            // where the missing value made the predicate silently false on
            // every frame; reject it here with a typed error instead.
            if decl.schema.resolve_property(&prop).is_none() {
                return Err(VqpyError::UnknownRelationProperty {
                    relation: rel,
                    property: prop,
                });
            }
        }
        if let Some(agg) = &self.video_output {
            let alias = match agg {
                Aggregate::CountDistinctTracks { alias }
                | Aggregate::AvgPerFrame { alias }
                | Aggregate::MaxPerFrame { alias } => Some(alias),
                Aggregate::CountFrames => None,
            };
            if let Some(a) = alias {
                if !aliases.contains(a.as_str()) {
                    return Err(VqpyError::UnknownAlias(a.clone()));
                }
            }
        }
        for v in &self.vobjs {
            v.schema.require_detector()?;
        }
        Ok(())
    }
}

/// Builder for [`Query`].
#[derive(Debug)]
pub struct QueryBuilder {
    query: Query,
}

impl QueryBuilder {
    /// Declares a VObj under `alias`.
    pub fn vobj(mut self, alias: impl Into<String>, schema: Arc<VObjSchema>) -> Self {
        self.query.vobjs.push(VObjDecl {
            alias: alias.into(),
            schema,
        });
        self
    }

    /// Declares a relation named by its schema between two aliases.
    pub fn relation(
        mut self,
        schema: Arc<RelationSchema>,
        left_alias: impl Into<String>,
        right_alias: impl Into<String>,
    ) -> Self {
        self.query.relations.push(RelationDecl {
            name: schema.name().to_owned(),
            schema,
            left_alias: left_alias.into(),
            right_alias: right_alias.into(),
        });
        self
    }

    /// ANDs `pred` into the frame constraint.
    pub fn frame_constraint(mut self, pred: Pred) -> Self {
        self.query.frame_constraint =
            match std::mem::replace(&mut self.query.frame_constraint, Pred::True) {
                Pred::True => pred,
                existing => existing & pred,
            };
        self
    }

    /// Adds properties to the frame output.
    pub fn frame_output(mut self, refs: &[(&str, &str)]) -> Self {
        self.query
            .frame_output
            .extend(refs.iter().map(|(a, p)| PropRef::new(*a, *p)));
        self
    }

    /// Sets the video aggregation.
    pub fn video_output(mut self, agg: Aggregate) -> Self {
        self.query.video_output = Some(agg);
        self
    }

    /// Sets the planner accuracy target in `[0, 1]`.
    pub fn accuracy_target(mut self, f1: f32) -> Self {
        self.query.accuracy_target = Some(f1);
        self
    }

    /// Validates and finalizes the query.
    ///
    /// # Errors
    ///
    /// Returns [`VqpyError`] for duplicate aliases or relation names, references to
    /// undeclared aliases/relations, unresolvable properties, or VObjs
    /// without detectors.
    pub fn build(mut self) -> Result<Arc<Query>, VqpyError> {
        self.query.validate()?;
        self.query.key = CacheKey::new(format!("{:?}", self.query));
        Ok(Arc::new(self.query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::predicate::CmpOp;
    use crate::frontend::property::PropertyDef;
    use crate::frontend::relation::distance_relation;

    fn vehicle() -> Arc<VObjSchema> {
        VObjSchema::builder("Vehicle")
            .class_labels(&["car", "bus", "truck"])
            .detector("yolox")
            .property(PropertyDef::stateless_model("color", "color_detect", true))
            .build()
    }

    fn person() -> Arc<VObjSchema> {
        VObjSchema::builder("Person")
            .class_labels(&["person"])
            .detector("yolox")
            .build()
    }

    #[test]
    fn red_car_query_builds() {
        let q = Query::builder("RedCar")
            .vobj("car", vehicle())
            .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id"), ("car", "bbox")])
            .build()
            .unwrap();
        assert_eq!(q.name(), "RedCar");
        assert_eq!(q.vobjs().len(), 1);
        assert_eq!(q.frame_output().len(), 2);
    }

    #[test]
    fn unknown_property_is_rejected() {
        let err = Query::builder("Bad")
            .vobj("car", vehicle())
            .frame_constraint(Pred::eq("car", "altitude", 3.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, VqpyError::UnknownProperty { .. }));
    }

    #[test]
    fn unknown_alias_is_rejected() {
        let err = Query::builder("Bad")
            .vobj("car", vehicle())
            .frame_constraint(Pred::eq("truck", "color", "red"))
            .build()
            .unwrap_err();
        assert!(matches!(err, VqpyError::UnknownAlias(_)));
    }

    #[test]
    fn duplicate_alias_is_rejected() {
        let err = Query::builder("Bad")
            .vobj("car", vehicle())
            .vobj("car", vehicle())
            .build()
            .unwrap_err();
        assert!(matches!(err, VqpyError::InvalidQuery(_)));
    }

    #[test]
    fn duplicate_relation_is_rejected() {
        let err = Query::builder("Bad")
            .vobj("car", vehicle())
            .vobj("person", person())
            .relation(
                distance_relation("near", vehicle(), person()),
                "car",
                "person",
            )
            .relation(
                distance_relation("near", person(), vehicle()),
                "person",
                "car",
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, VqpyError::InvalidQuery(m) if m == "duplicate relation near"));
    }

    #[test]
    fn relation_query_builds() {
        let rel = distance_relation("near", vehicle(), person());
        let q = Query::builder("CarNearPerson")
            .vobj("car", vehicle())
            .vobj("person", person())
            .relation(rel, "car", "person")
            .frame_constraint(Pred::relation("near", "distance", CmpOp::Lt, 100.0))
            .build()
            .unwrap();
        assert_eq!(q.relations().len(), 1);
    }

    #[test]
    fn typoed_relation_property_is_rejected_at_build_time() {
        // Before build-time validation, `distnace` survived to execution
        // where the predicate silently matched nothing.
        let rel = distance_relation("near", vehicle(), person());
        let err = Query::builder("Bad")
            .vobj("car", vehicle())
            .vobj("person", person())
            .relation(rel, "car", "person")
            .frame_constraint(Pred::relation("near", "distnace", CmpOp::Lt, 100.0))
            .build()
            .unwrap_err();
        match err {
            VqpyError::UnknownRelationProperty { relation, property } => {
                assert_eq!(relation, "near");
                assert_eq!(property, "distnace");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn undeclared_relation_is_rejected() {
        let err = Query::builder("Bad")
            .vobj("car", vehicle())
            .frame_constraint(Pred::relation("ghost", "distance", CmpOp::Lt, 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, VqpyError::UnknownRelation(_)));
    }

    #[test]
    fn query_inheritance_strengthens_constraints() {
        let base = Query::builder("Car")
            .vobj("car", vehicle())
            .frame_constraint(Pred::gt("car", "score", 0.6))
            .build()
            .unwrap();
        let red = Query::extend("RedCar", &base)
            .frame_constraint(Pred::eq("car", "color", "red"))
            .build()
            .unwrap();
        assert_eq!(red.name(), "RedCar");
        // Both conjuncts present.
        assert_eq!(red.frame_constraint().conjuncts().len(), 2);
        // Base unchanged.
        assert_eq!(base.frame_constraint().conjuncts().len(), 1);
    }

    #[test]
    fn video_output_alias_is_validated() {
        let err = Query::builder("Count")
            .vobj("car", vehicle())
            .video_output(Aggregate::CountDistinctTracks {
                alias: "bike".into(),
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, VqpyError::UnknownAlias(_)));
    }
}
