//! The VQPy library (§2): commonly used VObjs, properties, relations, and
//! queries that serve as building blocks — `Vehicle`, `Person`, `Ball`,
//! native speed/velocity/direction properties, `SpeedQuery`,
//! `CollisionQuery`.
//!
//! The primary interface is *typed*: [`vehicle()`], [`person()`], and
//! [`ball()`] return [`Schema`] handles whose aliases carry named, typed
//! property accessors (`car.color()`, `car.speed()`, `person.action()`),
//! so library queries compose with compile-checked predicates. The raw
//! `*_schema()` constructors remain for the stringly escape hatch and for
//! deriving sub-VObjs.

use crate::error::VqpyError;
use crate::frontend::compose::{spatial_query, QueryExpr};
use crate::frontend::predicate::{CmpOp, Pred};
use crate::frontend::property::{NativeFn, PropertyDef};
use crate::frontend::query::Query;
use crate::frontend::relation::{distance_relation, RelationSchema};
use crate::frontend::typed::{Alias, Prop, Schema, TypedQuery};
use crate::frontend::vobj::VObjSchema;
use std::sync::Arc;
use vqpy_models::{Value, ValueKind};
use vqpy_video::geometry::Point;

/// Mean center displacement (pixels/frame) over the bbox history.
fn displacement_from_bbox_history(history: &[Value]) -> Option<Point> {
    let mut centers = history
        .iter()
        .filter_map(|v| v.as_bbox().map(|b| b.center()));
    let first = centers.next()?;
    let (steps, last) = centers.fold((0usize, first), |(n, _), c| (n + 1, c));
    if steps == 0 {
        return None;
    }
    let n = steps as f32;
    Some(Point::new((last.x - first.x) / n, (last.y - first.y) / n))
}

/// Stateful native `speed` property: pixels/frame, smoothed over
/// `history_len` bbox samples (Figure 23's `velocity` UDF analog).
pub fn speed_prop(history_len: usize) -> PropertyDef {
    let f: NativeFn =
        Arc::new(
            |ctx| match displacement_from_bbox_history(ctx.dep_history("bbox")) {
                Some(d) => Value::Float(d.norm() as f64),
                None => Value::Null,
            },
        );
    PropertyDef::stateful_native("speed", &["bbox"], history_len, f).with_kind(ValueKind::Float)
}

/// Stateful native `velocity` property: per-frame displacement vector.
pub fn velocity_prop(history_len: usize) -> PropertyDef {
    let f: NativeFn =
        Arc::new(
            |ctx| match displacement_from_bbox_history(ctx.dep_history("bbox")) {
                Some(d) => Value::Point(d),
                None => Value::Null,
            },
        );
    PropertyDef::stateful_native("velocity", &["bbox"], history_len, f).with_kind(ValueKind::Point)
}

/// Stateful native `heading_change` property in degrees over the center
/// history (positive = turning right on screen); building block for native
/// direction classification (Figure 2's `direction`).
pub fn heading_change_prop(history_len: usize) -> PropertyDef {
    let f: NativeFn = Arc::new(|ctx| {
        let centers: Vec<Point> = ctx
            .dep_history("bbox")
            .iter()
            .filter_map(|v| v.as_bbox().map(|b| b.center()))
            .collect();
        if centers.len() < 3 {
            return Value::Null;
        }
        let mid = centers.len() / 2;
        let a = (centers[mid].x - centers[0].x, centers[mid].y - centers[0].y);
        let b = (
            centers[centers.len() - 1].x - centers[mid].x,
            centers[centers.len() - 1].y - centers[mid].y,
        );
        let cross = a.0 * b.1 - a.1 * b.0;
        let dot = a.0 * b.0 + a.1 * b.1;
        Value::Float(cross.atan2(dot).to_degrees() as f64)
    });
    PropertyDef::stateful_native("heading_change", &["bbox"], history_len, f)
        .with_kind(ValueKind::Float)
}

/// The library `Vehicle` VObj (Figure 2): yolox detection, model-computed
/// color/type/direction/plate, native speed. Color and type are *not*
/// marked intrinsic here — that is the user annotation §4.2/§5.1 study;
/// see [`vehicle_schema_intrinsic`].
pub fn vehicle_schema() -> Arc<VObjSchema> {
    VObjSchema::builder("Vehicle")
        .class_labels(&["car", "bus", "truck"])
        .detector("yolox")
        .property(
            PropertyDef::stateless_model("color", "color_detect", false).with_kind(ValueKind::Str),
        )
        .property(
            PropertyDef::stateless_model("vtype", "vtype_detect", false).with_kind(ValueKind::Str),
        )
        .property(
            PropertyDef::stateless_model("direction", "direction_model", false)
                .with_kind(ValueKind::Str),
        )
        .property(
            PropertyDef::stateless_model("plate", "plate_recognize", false)
                .with_kind(ValueKind::Str),
        )
        .property(speed_prop(3))
        .property(velocity_prop(3))
        .build()
}

/// The `Vehicle` VObj with `intrinsic=True` user annotations on color and
/// type (the "VQPy with annotation" configuration of §5.1).
pub fn vehicle_schema_intrinsic() -> Arc<VObjSchema> {
    // A sub-VObj of Vehicle that shadows color/type/plate with
    // intrinsic-annotated definitions — extensions registered on the
    // parent `Vehicle` still apply through inheritance.
    VObjSchema::builder("VehicleIntrinsic")
        .parent(vehicle_schema())
        .property(
            PropertyDef::stateless_model("color", "color_detect", true).with_kind(ValueKind::Str),
        )
        .property(
            PropertyDef::stateless_model("vtype", "vtype_detect", true).with_kind(ValueKind::Str),
        )
        .property(
            PropertyDef::stateless_model("plate", "plate_recognize", true)
                .with_kind(ValueKind::Str),
        )
        .build()
}

/// The library `Person` VObj: yolox detection, model-computed action and
/// re-id feature vector, native speed.
pub fn person_schema() -> Arc<VObjSchema> {
    VObjSchema::builder("Person")
        .class_labels(&["person"])
        .detector("yolox")
        .property(
            PropertyDef::stateless_model("action", "action_classify", false)
                .with_kind(ValueKind::Str),
        )
        .property(
            PropertyDef::stateless_model("feature", "reid_embed", true)
                .with_kind(ValueKind::FloatVec),
        )
        .property(speed_prop(3))
        .build()
}

/// The library `Ball` VObj.
pub fn ball_schema() -> Arc<VObjSchema> {
    VObjSchema::builder("Ball")
        .class_labels(&["ball"])
        .detector("yolox")
        .build()
}

/// Marker type for the library `Vehicle` schema family (plain and
/// intrinsic-annotated): `Alias<Vehicle>` carries the typed accessors
/// below.
#[derive(Debug, Clone, Copy)]
pub struct Vehicle;

/// Marker type for the library `Person` schema.
#[derive(Debug, Clone, Copy)]
pub struct Person;

/// Marker type for the library `Ball` schema.
#[derive(Debug, Clone, Copy)]
pub struct Ball;

/// Typed handle on [`vehicle_schema`]: the primary way to author vehicle
/// queries.
///
/// ```
/// use vqpy_core::frontend::library;
///
/// let car = library::vehicle().alias("car");
/// let pred = car.speed().gt(20.0) & car.color().eq("red");
/// assert!(pred.to_string().contains("car.speed"));
/// ```
pub fn vehicle() -> Schema<Vehicle> {
    Schema::new(vehicle_schema())
}

/// Typed handle on [`vehicle_schema_intrinsic`] (color/vtype/plate marked
/// intrinsic, unlocking per-object reuse). Same accessors as [`vehicle`].
pub fn vehicle_intrinsic() -> Schema<Vehicle> {
    Schema::new(vehicle_schema_intrinsic())
}

/// Typed handle on [`person_schema`].
pub fn person() -> Schema<Person> {
    Schema::new(person_schema())
}

/// Typed handle on [`ball_schema`].
pub fn ball() -> Schema<Ball> {
    Schema::new(ball_schema())
}

// The accessors below mint unchecked: the names and kinds are correct by
// construction for the library schemas, and a caller who pairs the marker
// with an unrelated raw schema (`Schema::<Vehicle>::new(ball_schema())`)
// gets a typed `UnknownProperty` at `Query::build()` instead of a panic.
impl Alias<Vehicle> {
    /// The model-computed color name (`"red"`, `"black"`, ...).
    pub fn color(&self) -> Prop<String> {
        self.unchecked("color")
    }

    /// The model-computed vehicle type (`"sedan"`, `"suv"`, ...).
    pub fn vtype(&self) -> Prop<String> {
        self.unchecked("vtype")
    }

    /// The model-computed movement direction label.
    pub fn direction(&self) -> Prop<String> {
        self.unchecked("direction")
    }

    /// The OCR'd license plate.
    pub fn plate(&self) -> Prop<String> {
        self.unchecked("plate")
    }

    /// Native speed in pixels/frame (stateful over the bbox history).
    pub fn speed(&self) -> Prop<f64> {
        self.unchecked("speed")
    }

    /// Native per-frame displacement vector.
    pub fn velocity(&self) -> Prop<Point> {
        self.unchecked("velocity")
    }
}

impl Alias<Person> {
    /// The model-computed action label (`"walking"`, `"standing"`, ...).
    pub fn action(&self) -> Prop<String> {
        self.unchecked("action")
    }

    /// The re-id embedding vector.
    pub fn feature(&self) -> Prop<Vec<f32>> {
        self.unchecked("feature")
    }

    /// Native speed in pixels/frame.
    pub fn speed(&self) -> Prop<f64> {
        self.unchecked("speed")
    }
}

/// The library `SpeedQuery` (used by Figure 8's car-run-away): objects of
/// `schema` moving faster than `threshold` px/frame.
pub fn speed_query(
    name: impl Into<String>,
    alias: &str,
    schema: Arc<VObjSchema>,
    threshold: f64,
) -> Result<Arc<Query>, VqpyError> {
    Query::builder(name)
        .vobj(alias, schema)
        .frame_constraint(Pred::gt(alias, "score", 0.5) & Pred::gt(alias, "speed", threshold))
        .frame_output(&[(alias, "track_id"), (alias, "bbox")])
        .build()
}

/// Typed `SpeedQuery`: same query as [`speed_query`], authored through a
/// typed alias and returning rows of `(track_id, bbox)`. Works for any
/// schema whose alias resolves a Float `speed` property.
///
/// # Errors
///
/// [`VqpyError::UnknownProperty`]/[`VqpyError::PropertyTypeMismatch`] if
/// the alias's schema does not declare a Float-decodable `speed`.
pub fn typed_speed_query<V>(
    name: impl Into<String>,
    alias: &Alias<V>,
    threshold: f64,
) -> Result<TypedQuery<(Option<i64>, vqpy_video::geometry::BBox)>, VqpyError> {
    let speed: Prop<f64> = alias.prop("speed")?;
    TypedQuery::builder(name)
        .object(alias)
        .filter(alias.score().gt(0.5) & speed.gt(threshold))
        .select((alias.track_id().optional(), alias.bbox()))
        .build()
}

/// The library `CollisionQuery` (Figure 8): a sub-query of the higher-order
/// `SpatialQuery` checking that the distance between the two objects is
/// below `threshold` pixels.
pub fn collision_query(
    name: impl Into<String>,
    q1: &Query,
    q1_alias: &str,
    q2: &Query,
    q2_alias: &str,
    threshold: f64,
) -> Result<QueryExpr, VqpyError> {
    let left = Arc::clone(
        &q1.vobj(q1_alias)
            .ok_or_else(|| VqpyError::UnknownAlias(q1_alias.to_owned()))?
            .schema,
    );
    let right = Arc::clone(
        &q2.vobj(q2_alias)
            .ok_or_else(|| VqpyError::UnknownAlias(q2_alias.to_owned()))?
            .schema,
    );
    let rel = distance_relation("collision_distance", left, right);
    spatial_query(
        name,
        q1,
        q2,
        rel,
        q1_alias,
        q2_alias,
        Pred::relation("collision_distance", "distance", CmpOp::Lt, threshold),
    )
}

/// The library person-ball interaction relation (Figure 4): property
/// `"interaction"` predicted by the UPT HOI model.
pub fn person_ball_interaction() -> Arc<RelationSchema> {
    RelationSchema::builder("person_ball_interaction", person_schema(), ball_schema())
        .hoi_property("interaction", "upt_hoi")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::property::PropertyCtx;
    use vqpy_video::geometry::BBox;

    /// A `bbox` window over boxes centred on `centers`.
    fn bbox_history(centers: &[(f32, f32)]) -> Vec<Value> {
        centers
            .iter()
            .map(|&(x, y)| Value::BBox(BBox::from_center(Point::new(x, y), 40.0, 20.0)))
            .collect()
    }

    fn eval(def: &PropertyDef, window: &[Value]) -> Value {
        let names = ["bbox".to_owned()];
        match &def.source {
            crate::frontend::property::PropertySource::Native(f) => {
                f(&PropertyCtx::new(&names, window, window.len(), 15))
            }
            other => panic!("expected native, got {other:?}"),
        }
    }

    #[test]
    fn speed_from_history() {
        let def = speed_prop(3);
        let deps = bbox_history(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
        assert_eq!(eval(&def, &deps), Value::Float(5.0));
    }

    #[test]
    fn speed_needs_two_samples() {
        let def = speed_prop(3);
        let deps = bbox_history(&[(0.0, 0.0)]);
        assert!(eval(&def, &deps).is_null());
    }

    #[test]
    fn velocity_direction_sign() {
        let def = velocity_prop(2);
        let deps = bbox_history(&[(0.0, 0.0), (3.0, -4.0)]);
        match eval(&def, &deps) {
            Value::Point(p) => {
                assert!((p.x - 3.0).abs() < 1e-5);
                assert!((p.y + 4.0).abs() < 1e-5);
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn heading_change_detects_right_turn() {
        let def = heading_change_prop(5);
        // Moving east then south (right turn on screen).
        let deps = bbox_history(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (20.0, 0.0),
            (20.0, 10.0),
            (20.0, 20.0),
        ]);
        match eval(&def, &deps) {
            Value::Float(deg) => assert!(deg > 45.0, "expected strong right turn, got {deg}"),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn library_schemas_resolve_expected_properties() {
        let v = vehicle_schema();
        for p in ["color", "vtype", "direction", "plate", "speed", "velocity"] {
            assert!(v.resolve_property(p).is_some(), "Vehicle.{p}");
        }
        let p = person_schema();
        for prop in ["action", "feature", "speed"] {
            assert!(p.resolve_property(prop).is_some(), "Person.{prop}");
        }
    }

    #[test]
    fn intrinsic_annotation_differs() {
        let plain = vehicle_schema();
        let ann = vehicle_schema_intrinsic();
        let get_intrinsic = |s: &VObjSchema, p: &str| match s.resolve_property(p) {
            Some(crate::frontend::vobj::ResolvedProperty::Defined(d)) => d.kind.is_intrinsic(),
            _ => panic!("missing property"),
        };
        assert!(!get_intrinsic(&plain, "color"));
        assert!(get_intrinsic(&ann, "color"));
        assert!(get_intrinsic(&ann, "vtype"));
    }

    #[test]
    fn speed_query_builds() {
        let q = speed_query("Speeding", "car", vehicle_schema(), 20.0).unwrap();
        assert_eq!(q.vobjs().len(), 1);
        assert_eq!(q.frame_constraint().conjuncts().len(), 2);
    }

    #[test]
    fn collision_query_is_spatial() {
        let car = speed_query("Car", "car", vehicle_schema(), 0.0).unwrap();
        let person = Query::builder("P")
            .vobj("person", person_schema())
            .frame_constraint(Pred::gt("person", "score", 0.5))
            .build()
            .unwrap();
        let expr = collision_query("CarHitPerson", &car, "car", &person, "person", 120.0).unwrap();
        assert!(matches!(expr, QueryExpr::Spatial(_)));
    }
}
