//! The dynamic value type flowing through properties, predicates, and UDFs.
//!
//! Both the VQPy engine (`vqpy-core`) and the SQL baseline (`vqpy-sql`)
//! exchange model outputs as [`Value`]s, so it lives here in the model
//! crate that both depend on.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;
use vqpy_video::geometry::{BBox, Point};

/// A dynamically-typed value.
///
/// Strings are shared (`Arc<str>`): a value handed out by a model, the
/// reuse cache or a hit row is a reference-count bump, not a copy.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Point(Point),
    BBox(BBox),
    FloatVec(Vec<f32>),
}

/// The runtime kind of a non-null [`Value`]. Schemas declare a kind per
/// property so typed handles (`Prop<T>`) can be checked when they are
/// minted, long before any frame is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Int`].
    Int,
    /// [`Value::Float`].
    Float,
    /// [`Value::Str`].
    Str,
    /// [`Value::Point`].
    Point,
    /// [`Value::BBox`].
    BBox,
    /// [`Value::FloatVec`].
    FloatVec,
}

impl ValueKind {
    /// The kind's lowercase name, for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ValueKind::Bool => "bool",
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Str => "str",
            ValueKind::Point => "point",
            ValueKind::BBox => "bbox",
            ValueKind::FloatVec => "float_vec",
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Value {
    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's kind; `None` for [`Value::Null`].
    pub fn kind(&self) -> Option<ValueKind> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueKind::Bool),
            Value::Int(_) => Some(ValueKind::Int),
            Value::Float(_) => Some(ValueKind::Float),
            Value::Str(_) => Some(ValueKind::Str),
            Value::Point(_) => Some(ValueKind::Point),
            Value::BBox(_) => Some(ValueKind::BBox),
            Value::FloatVec(_) => Some(ValueKind::FloatVec),
        }
    }

    /// Boolean view; `None` for non-bool values.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view with int→float coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; floats are not coerced.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bounding-box view.
    pub fn as_bbox(&self) -> Option<&BBox> {
        match self {
            Value::BBox(b) => Some(b),
            _ => None,
        }
    }

    /// Point view.
    pub fn as_point(&self) -> Option<&Point> {
        match self {
            Value::Point(p) => Some(p),
            _ => None,
        }
    }

    /// Float-vector view.
    pub fn as_float_vec(&self) -> Option<&[f32]> {
        match self {
            Value::FloatVec(v) => Some(v),
            _ => None,
        }
    }

    /// Total-ish comparison used by predicates: numbers compare with
    /// coercion, strings and bools compare naturally, everything else
    /// (including any comparison involving `Null`) is incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (a @ (Value::Int(_) | Value::Float(_)), b @ (Value::Int(_) | Value::Float(_))) => {
                a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap())
            }
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Equality used by predicates (`Null == Null` is *false*, like SQL).
    pub fn loose_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        match self.compare(other) {
            Some(Ordering::Equal) => true,
            Some(_) => false,
            None => self == other,
        }
    }

    /// Cosine similarity between two float vectors; `None` if either value
    /// is not a vector or lengths differ.
    pub fn cosine_similarity(&self, other: &Value) -> Option<f64> {
        let a = self.as_float_vec()?;
        let b = other.as_float_vec()?;
        if a.len() != b.len() || a.is_empty() {
            return None;
        }
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return None;
        }
        Some((dot / (na * nb)) as f64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:.4}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Point(p) => write!(f, "({:.1}, {:.1})", p.x, p.y),
            Value::BBox(b) => write!(f, "[{:.0},{:.0},{:.0},{:.0}]", b.x1, b.y1, b.x2, b.y2),
            Value::FloatVec(v) => write!(f, "vec[{}]", v.len()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::Float(f as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

impl From<BBox> for Value {
    fn from(b: BBox) -> Self {
        Value::BBox(b)
    }
}

impl From<Point> for Value {
    fn from(p: Point) -> Self {
        Value::Point(p)
    }
}

impl From<Vec<f32>> for Value {
    fn from(v: Vec<f32>) -> Self {
        Value::FloatVec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion_in_compare() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(2.5).compare(&Value::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_is_incomparable_and_not_equal() {
        assert_eq!(Value::Null.compare(&Value::Null), None);
        assert!(!Value::Null.loose_eq(&Value::Null));
        assert!(!Value::Int(1).loose_eq(&Value::Null));
    }

    #[test]
    fn string_equality() {
        assert!(Value::from("red").loose_eq(&Value::from("red")));
        assert!(!Value::from("red").loose_eq(&Value::from("blue")));
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = Value::FloatVec(vec![1.0, 0.0]);
        let b = Value::FloatVec(vec![1.0, 0.0]);
        let c = Value::FloatVec(vec![0.0, 1.0]);
        assert!((a.cosine_similarity(&b).unwrap() - 1.0).abs() < 1e-6);
        assert!(a.cosine_similarity(&c).unwrap().abs() < 1e-6);
        assert!(a.cosine_similarity(&Value::Int(1)).is_none());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(42i64), Value::Int(42));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }
}
