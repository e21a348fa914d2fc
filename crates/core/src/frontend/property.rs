//! Properties on VObjs: stateless, stateful, and intrinsic.
//!
//! Mirrors the paper's `@stateless` / `@stateful(input=..., history_len=...)`
//! annotations (Figure 2). A property is computed either by a model from the
//! zoo, by native code over its dependencies' (histories of) values, or is
//! one of the built-ins every detected object carries.

use std::fmt;
use std::sync::Arc;
use vqpy_models::{Value, ValueKind};

/// Whether a property needs cross-frame history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// Depends only on the current frame. `intrinsic` marks it constant for
    /// the lifetime of the object (the `intrinsic=True` annotation of §4.2),
    /// unlocking object-level computation reuse.
    Stateless { intrinsic: bool },
    /// Needs the last `history_len` samples of each dependency (including
    /// the current frame's) before it can produce a value.
    Stateful { history_len: usize },
}

impl PropertyKind {
    /// Whether the property is intrinsic (constant per object).
    pub fn is_intrinsic(&self) -> bool {
        matches!(self, PropertyKind::Stateless { intrinsic: true })
    }

    /// Whether the property needs tracked history.
    pub fn is_stateful(&self) -> bool {
        matches!(self, PropertyKind::Stateful { .. })
    }
}

/// Properties every detected VObj carries without computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinProp {
    /// Bounding box (`Value::BBox`).
    Bbox,
    /// Detector confidence (`Value::Float`).
    Score,
    /// Detector class label (`Value::Str`).
    ClassLabel,
    /// Tracker identity (`Value::Int`); `Null` until tracked.
    TrackId,
    /// Box center (`Value::Point`).
    Center,
}

impl BuiltinProp {
    /// The reserved property name.
    pub fn name(&self) -> &'static str {
        match self {
            BuiltinProp::Bbox => "bbox",
            BuiltinProp::Score => "score",
            BuiltinProp::ClassLabel => "class_label",
            BuiltinProp::TrackId => "track_id",
            BuiltinProp::Center => "center",
        }
    }

    /// Resolves a reserved name.
    pub fn from_name(name: &str) -> Option<BuiltinProp> {
        match name {
            "bbox" => Some(BuiltinProp::Bbox),
            "score" => Some(BuiltinProp::Score),
            "class_label" => Some(BuiltinProp::ClassLabel),
            "track_id" => Some(BuiltinProp::TrackId),
            "center" => Some(BuiltinProp::Center),
            _ => None,
        }
    }

    /// The kind of value this built-in carries (well-known for every
    /// built-in, which is what makes typed handles on them infallible).
    pub fn kind(&self) -> ValueKind {
        match self {
            BuiltinProp::Bbox => ValueKind::BBox,
            BuiltinProp::Score => ValueKind::Float,
            BuiltinProp::ClassLabel => ValueKind::Str,
            BuiltinProp::TrackId => ValueKind::Int,
            BuiltinProp::Center => ValueKind::Point,
        }
    }
}

/// Inputs available to a native property function: a window of
/// `samples` values per dependency, laid out dependency-major in the
/// property's declared dependency order.
#[derive(Debug)]
pub struct PropertyCtx<'a> {
    names: &'a [String],
    values: &'a [Value],
    samples: usize,
    /// Video frame rate, for time-based computations.
    pub fps: u32,
}

impl<'a> PropertyCtx<'a> {
    /// A context over `values`: `samples` values of each of `names`, oldest
    /// first, current last (`names.len() * samples` in all). Stateless
    /// properties see exactly one sample per dependency.
    ///
    /// # Panics
    ///
    /// Panics when `values` does not hold `samples` values per name.
    pub fn new(names: &'a [String], values: &'a [Value], samples: usize, fps: u32) -> Self {
        assert_eq!(
            values.len(),
            names.len() * samples,
            "a window per dependency"
        );
        Self {
            names,
            values,
            samples,
            fps,
        }
    }

    /// The current value of dependency `name` (`Null` if missing).
    pub fn dep(&self, name: &str) -> Value {
        self.dep_history(name)
            .last()
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Full history of dependency `name`, oldest first.
    pub fn dep_history(&self, name: &str) -> &'a [Value] {
        match self.names.iter().position(|n| n == name) {
            Some(i) => &self.values[i * self.samples..(i + 1) * self.samples],
            None => &[],
        }
    }
}

/// A native property implementation.
pub type NativeFn = Arc<dyn Fn(&PropertyCtx<'_>) -> Value + Send + Sync>;

/// How a property's value is produced.
#[derive(Clone)]
pub enum PropertySource {
    /// A classifier model from the zoo, applied to the object's crop.
    Model(String),
    /// Native code over dependency values.
    Native(NativeFn),
    /// One of the built-ins.
    Builtin(BuiltinProp),
}

impl fmt::Debug for PropertySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertySource::Model(m) => write!(f, "Model({m})"),
            PropertySource::Native(_) => write!(f, "Native(<fn>)"),
            PropertySource::Builtin(b) => write!(f, "Builtin({})", b.name()),
        }
    }
}

/// A property definition on a VObj schema.
#[derive(Debug, Clone)]
pub struct PropertyDef {
    pub name: String,
    pub kind: PropertyKind,
    /// Names of properties (on the same VObj, possibly inherited) whose
    /// values this property consumes. Model properties implicitly depend on
    /// the object's crop and need no declared deps.
    pub deps: Vec<String>,
    pub source: PropertySource,
    /// The declared kind of values this property produces, when the schema
    /// author states one (via [`PropertyDef::with_kind`]). Typed `Prop<T>`
    /// handles are checked against it at handle-creation time; `None`
    /// defers the check to row-decode time.
    pub value_kind: Option<ValueKind>,
}

impl PropertyDef {
    /// A stateless model property (e.g. `color` via `"color_detect"`).
    pub fn stateless_model(
        name: impl Into<String>,
        model: impl Into<String>,
        intrinsic: bool,
    ) -> Self {
        Self {
            name: name.into(),
            kind: PropertyKind::Stateless { intrinsic },
            deps: Vec::new(),
            source: PropertySource::Model(model.into()),
            value_kind: None,
        }
    }

    /// A stateless native property over same-frame dependencies.
    pub fn stateless_native(
        name: impl Into<String>,
        deps: &[&str],
        intrinsic: bool,
        f: NativeFn,
    ) -> Self {
        Self {
            name: name.into(),
            kind: PropertyKind::Stateless { intrinsic },
            deps: deps.iter().map(|s| s.to_string()).collect(),
            source: PropertySource::Native(f),
            value_kind: None,
        }
    }

    /// A stateful native property needing `history_len` samples of its deps.
    pub fn stateful_native(
        name: impl Into<String>,
        deps: &[&str],
        history_len: usize,
        f: NativeFn,
    ) -> Self {
        assert!(history_len >= 1, "history_len must be at least 1");
        Self {
            name: name.into(),
            kind: PropertyKind::Stateful { history_len },
            deps: deps.iter().map(|s| s.to_string()).collect(),
            source: PropertySource::Native(f),
            value_kind: None,
        }
    }

    /// Declares the kind of values this property produces, enabling
    /// typed-handle checking at `Prop<T>` creation time.
    pub fn with_kind(mut self, kind: ValueKind) -> Self {
        self.value_kind = Some(kind);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_roundtrip() {
        for b in [
            BuiltinProp::Bbox,
            BuiltinProp::Score,
            BuiltinProp::ClassLabel,
            BuiltinProp::TrackId,
            BuiltinProp::Center,
        ] {
            assert_eq!(BuiltinProp::from_name(b.name()), Some(b));
        }
        assert_eq!(BuiltinProp::from_name("nope"), None);
    }

    #[test]
    fn ctx_dep_access() {
        let names = ["bbox".to_owned(), "center".to_owned()];
        let values = [Value::Null, Value::Null, Value::Int(1), Value::Int(2)];
        let ctx = PropertyCtx::new(&names, &values, 2, 15);
        assert_eq!(ctx.dep("center"), Value::Int(2));
        assert_eq!(ctx.dep_history("center").len(), 2);
        assert_eq!(ctx.dep("missing"), Value::Null);
        assert!(ctx.dep_history("missing").is_empty());
    }

    #[test]
    fn kind_flags() {
        assert!(PropertyKind::Stateless { intrinsic: true }.is_intrinsic());
        assert!(!PropertyKind::Stateless { intrinsic: false }.is_intrinsic());
        assert!(PropertyKind::Stateful { history_len: 5 }.is_stateful());
        assert!(!PropertyKind::Stateful { history_len: 5 }.is_intrinsic());
    }

    #[test]
    #[should_panic(expected = "history_len")]
    fn stateful_requires_history() {
        let f: NativeFn = Arc::new(|_| Value::Null);
        let _ = PropertyDef::stateful_native("v", &["bbox"], 0, f);
    }
}
