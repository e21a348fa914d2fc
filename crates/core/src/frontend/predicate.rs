//! Predicate expressions over VObj and Relation properties.
//!
//! Supports the paper's logical operators (`&`, `|`, `!`) via Rust's
//! `BitAnd`/`BitOr`/`Not` overloads, so queries read like
//! `Pred::eq("car", "color", "red") & Pred::gt("car", "velocity", 1.0)`.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{BitAnd, BitOr, Not};
use vqpy_models::Value;

/// A reference to a property of a query alias, e.g. `car.color`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropRef {
    pub alias: String,
    pub prop: String,
}

impl PropRef {
    /// Creates a reference.
    pub fn new(alias: impl Into<String>, prop: impl Into<String>) -> Self {
        Self {
            alias: alias.into(),
            prop: prop.into(),
        }
    }
}

impl fmt::Display for PropRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.alias, self.prop)
    }
}

/// A reference to a property of a named relation, e.g. `near.distance`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelRef {
    pub relation: String,
    pub prop: String,
}

impl fmt::Display for RelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.relation, self.prop)
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn test(&self, ord: Option<Ordering>, eq: bool) -> bool {
        match self {
            CmpOp::Eq => eq,
            CmpOp::Ne => !eq,
            CmpOp::Lt => ord == Some(Ordering::Less),
            CmpOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
            CmpOp::Gt => ord == Some(Ordering::Greater),
            CmpOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean expression over properties.
///
/// The leaves name what they read: `O` for an object property, `R` for a
/// relation property. Queries are written with names ([`PropRef`],
/// [`RelRef`]); the backend [`Pred::map_leaves`] them once, when an
/// operator is instantiated, into leaves resolved against its frame-graph
/// layout, and evaluates that copy with the same [`Pred::eval`].
#[derive(Debug, Clone)]
pub enum Pred<O = PropRef, R = RelRef> {
    /// Always true (the empty constraint).
    True,
    /// Compare an alias property against a constant.
    Cmp {
        target: O,
        op: CmpOp,
        value: Value,
    },
    /// Compare a named relation's property against a constant. Relations
    /// connect two aliases; evaluation happens at join time.
    RelationCmp {
        target: R,
        op: CmpOp,
        value: Value,
    },
    And(Box<Pred<O, R>>, Box<Pred<O, R>>),
    Or(Box<Pred<O, R>>, Box<Pred<O, R>>),
    Not(Box<Pred<O, R>>),
}

/// Where a predicate with leaves `O`/`R` reads its values while it is
/// evaluated. The backend implements this over the frame graph in place (a
/// node for filters, the join's current binding for joins), so evaluation
/// borrows the values where the objects live; [`PredEnv`] is the owned,
/// map-backed implementor for named leaves.
pub trait PredScope<O = PropRef, R = RelRef> {
    /// Value of an object property (`Null` when missing).
    fn object_value(&self, target: &O) -> Cow<'_, Value>;

    /// Value of a relation property (`Null` when missing).
    fn relation_value(&self, target: &R) -> Cow<'_, Value>;
}

/// `Null` when the lookup found nothing, the borrowed value otherwise.
pub(crate) fn or_null(v: Option<&Value>) -> Cow<'_, Value> {
    v.map_or(Cow::Owned(Value::Null), Cow::Borrowed)
}

/// A free-standing property environment: alias -> prop -> value, plus
/// relation props for the candidate pair binding.
#[derive(Debug, Default)]
pub struct PredEnv {
    pub objects: BTreeMap<String, BTreeMap<String, Value>>,
    pub relations: BTreeMap<String, BTreeMap<String, Value>>,
}

impl PredScope for PredEnv {
    fn object_value(&self, target: &PropRef) -> Cow<'_, Value> {
        or_null(
            self.objects
                .get(&target.alias)
                .and_then(|m| m.get(&target.prop)),
        )
    }

    fn relation_value(&self, target: &RelRef) -> Cow<'_, Value> {
        or_null(
            self.relations
                .get(&target.relation)
                .and_then(|m| m.get(&target.prop)),
        )
    }
}

impl<O, R> Pred<O, R> {
    /// Evaluates against a scope. Missing values make comparisons false
    /// (never true), matching the lazy-filter semantics of the backend: an
    /// object whose property has not been computed yet cannot pass a
    /// filter on that property.
    pub fn eval(&self, scope: &impl PredScope<O, R>) -> bool {
        let test = |actual: Cow<'_, Value>, op: &CmpOp, value: &Value| {
            !actual.is_null() && op.test(actual.compare(value), actual.loose_eq(value))
        };
        match self {
            Pred::True => true,
            Pred::Cmp { target, op, value } => test(scope.object_value(target), op, value),
            Pred::RelationCmp { target, op, value } => {
                test(scope.relation_value(target), op, value)
            }
            Pred::And(a, b) => a.eval(scope) && b.eval(scope),
            Pred::Or(a, b) => a.eval(scope) || b.eval(scope),
            Pred::Not(a) => !a.eval(scope),
        }
    }

    /// The same expression with every leaf mapped: `object` for property
    /// leaves, `relation` for relation leaves.
    pub fn map_leaves<O2, R2>(
        &self,
        object: &mut impl FnMut(&O) -> O2,
        relation: &mut impl FnMut(&R) -> R2,
    ) -> Pred<O2, R2> {
        let mut map = |p: &Pred<O, R>| Box::new(p.map_leaves(object, relation));
        match self {
            Pred::True => Pred::True,
            Pred::Cmp { target, op, value } => Pred::Cmp {
                target: object(target),
                op: *op,
                value: value.clone(),
            },
            Pred::RelationCmp { target, op, value } => Pred::RelationCmp {
                target: relation(target),
                op: *op,
                value: value.clone(),
            },
            Pred::And(a, b) => Pred::And(map(a), map(b)),
            Pred::Or(a, b) => Pred::Or(map(a), map(b)),
            Pred::Not(a) => Pred::Not(map(a)),
        }
    }
}

impl Pred {
    /// `alias.prop == value`.
    pub fn eq(alias: &str, prop: &str, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            target: PropRef::new(alias, prop),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `alias.prop != value`.
    pub fn ne(alias: &str, prop: &str, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            target: PropRef::new(alias, prop),
            op: CmpOp::Ne,
            value: value.into(),
        }
    }

    /// `alias.prop > value`.
    pub fn gt(alias: &str, prop: &str, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            target: PropRef::new(alias, prop),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// `alias.prop >= value`.
    pub fn ge(alias: &str, prop: &str, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            target: PropRef::new(alias, prop),
            op: CmpOp::Ge,
            value: value.into(),
        }
    }

    /// `alias.prop < value`.
    pub fn lt(alias: &str, prop: &str, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            target: PropRef::new(alias, prop),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// `alias.prop <= value`.
    pub fn le(alias: &str, prop: &str, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            target: PropRef::new(alias, prop),
            op: CmpOp::Le,
            value: value.into(),
        }
    }

    /// `relation.prop OP value` (evaluated on object pairs at join time).
    pub fn relation(relation: &str, prop: &str, op: CmpOp, value: impl Into<Value>) -> Pred {
        Pred::RelationCmp {
            target: RelRef {
                relation: relation.to_owned(),
                prop: prop.to_owned(),
            },
            op,
            value: value.into(),
        }
    }

    /// All property references in the expression.
    pub fn referenced_props(&self) -> BTreeSet<PropRef> {
        let mut out = BTreeSet::new();
        self.collect_props(&mut out);
        out
    }

    fn collect_props(&self, out: &mut BTreeSet<PropRef>) {
        match self {
            Pred::True | Pred::RelationCmp { .. } => {}
            Pred::Cmp { target, .. } => {
                out.insert(target.clone());
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_props(out);
                b.collect_props(out);
            }
            Pred::Not(a) => a.collect_props(out),
        }
    }

    /// All relation names referenced.
    pub fn referenced_relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations(&self, out: &mut BTreeSet<String>) {
        match self {
            Pred::True | Pred::Cmp { .. } => {}
            Pred::RelationCmp { target, .. } => {
                out.insert(target.relation.clone());
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_relations(out);
                b.collect_relations(out);
            }
            Pred::Not(a) => a.collect_relations(out),
        }
    }

    /// All `(relation, property)` pairs referenced, so query validation can
    /// reject a typo'd relation property at build time.
    pub fn referenced_relation_props(&self) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        self.collect_relation_props(&mut out);
        out
    }

    fn collect_relation_props(&self, out: &mut BTreeSet<(String, String)>) {
        match self {
            Pred::True | Pred::Cmp { .. } => {}
            Pred::RelationCmp { target, .. } => {
                out.insert((target.relation.clone(), target.prop.clone()));
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_relation_props(out);
                b.collect_relation_props(out);
            }
            Pred::Not(a) => a.collect_relation_props(out),
        }
    }

    /// Splits the top-level conjunction into conjuncts.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        match self {
            Pred::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            Pred::True => Vec::new(),
            other => vec![other],
        }
    }

    /// The single alias this predicate constrains, if it references exactly
    /// one alias and no relations. Such predicates can be pushed down to
    /// per-object filters.
    pub fn single_alias(&self) -> Option<String> {
        if !self.referenced_relations().is_empty() {
            return None;
        }
        let aliases: BTreeSet<String> = self
            .referenced_props()
            .into_iter()
            .map(|p| p.alias)
            .collect();
        if aliases.len() == 1 {
            aliases.into_iter().next()
        } else {
            None
        }
    }

    /// Conjunction of an iterator of predicates (`True` when empty).
    pub fn all(preds: impl IntoIterator<Item = Pred>) -> Pred {
        preds.into_iter().fold(Pred::True, |acc, p| match acc {
            Pred::True => p,
            acc => acc & p,
        })
    }

    /// Disjunction of an iterator of predicates (`!True` when empty: an
    /// empty disjunction holds for nothing).
    pub fn any(preds: impl IntoIterator<Item = Pred>) -> Pred {
        let mut iter = preds.into_iter();
        match iter.next() {
            None => !Pred::True,
            Some(first) => iter.fold(first, |acc, p| acc | p),
        }
    }
}

impl BitAnd for Pred {
    type Output = Pred;

    fn bitand(self, rhs: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(rhs))
    }
}

impl BitOr for Pred {
    type Output = Pred;

    fn bitor(self, rhs: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(rhs))
    }
}

impl Not for Pred {
    type Output = Pred;

    fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Cmp { target, op, value } => write!(f, "{target} {op} {value}"),
            Pred::RelationCmp { target, op, value } => write!(f, "{target} {op} {value}"),
            Pred::And(a, b) => write!(f, "({a} & {b})"),
            Pred::Or(a, b) => write!(f, "({a} | {b})"),
            Pred::Not(a) => write!(f, "!({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(alias: &str, prop: &str, v: Value) -> PredEnv {
        let mut env = PredEnv::default();
        env.objects
            .entry(alias.to_owned())
            .or_default()
            .insert(prop.to_owned(), v);
        env
    }

    #[test]
    fn comparison_operators() {
        let env = env_with("car", "speed", Value::Float(2.0));
        assert!(Pred::gt("car", "speed", 1.0).eval(&env));
        assert!(!Pred::gt("car", "speed", 2.0).eval(&env));
        assert!(Pred::ge("car", "speed", 2.0).eval(&env));
        assert!(Pred::lt("car", "speed", 3.0).eval(&env));
        assert!(Pred::le("car", "speed", 2.0).eval(&env));
        assert!(Pred::ne("car", "speed", 1.0).eval(&env));
    }

    #[test]
    fn logical_operators_compose() {
        let env = env_with("car", "color", Value::from("red"));
        let red = Pred::eq("car", "color", "red");
        let blue = Pred::eq("car", "color", "blue");
        assert!((red.clone() | blue.clone()).eval(&env));
        assert!(!(red.clone() & blue.clone()).eval(&env));
        assert!((!blue).eval(&env));
        assert!((red & Pred::True).eval(&env));
    }

    #[test]
    fn missing_values_fail_comparisons_including_negated_equality() {
        let env = PredEnv::default();
        assert!(!Pred::eq("car", "color", "red").eval(&env));
        assert!(!Pred::ne("car", "color", "red").eval(&env));
        // But a Not around a failing comparison is true (standard negation).
        assert!((!Pred::eq("car", "color", "red")).eval(&env));
    }

    #[test]
    fn conjunct_splitting() {
        let p = Pred::eq("a", "x", 1i64) & Pred::eq("a", "y", 2i64) & Pred::eq("b", "z", 3i64);
        let cs = p.conjuncts();
        assert_eq!(cs.len(), 3);
        assert_eq!(Pred::True.conjuncts().len(), 0);
    }

    #[test]
    fn single_alias_detection() {
        let p = Pred::eq("car", "color", "red") & Pred::gt("car", "speed", 1.0);
        assert_eq!(p.single_alias(), Some("car".to_owned()));
        let cross = Pred::eq("car", "color", "red") & Pred::eq("person", "action", "walking");
        assert_eq!(cross.single_alias(), None);
        let rel = Pred::relation("near", "distance", CmpOp::Lt, 100.0);
        assert_eq!(rel.single_alias(), None);
    }

    #[test]
    fn referenced_props_and_relations() {
        let p = Pred::eq("car", "color", "red")
            & Pred::relation("near", "distance", CmpOp::Lt, 50.0)
            & !Pred::eq("person", "action", "standing");
        let props = p.referenced_props();
        assert!(props.contains(&PropRef::new("car", "color")));
        assert!(props.contains(&PropRef::new("person", "action")));
        assert_eq!(p.referenced_relations().len(), 1);
    }

    #[test]
    fn pred_all_folds() {
        let p = Pred::all(vec![]);
        assert!(matches!(p, Pred::True));
        let p = Pred::all(vec![Pred::eq("a", "x", 1i64)]);
        assert_eq!(p.conjuncts().len(), 1);
        let p = Pred::all(vec![Pred::eq("a", "x", 1i64), Pred::eq("a", "y", 2i64)]);
        assert_eq!(p.conjuncts().len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let p = Pred::eq("car", "color", "red") & Pred::gt("car", "speed", 1.0);
        let s = p.to_string();
        assert!(s.contains("car.color == red"));
        assert!(s.contains("car.speed > 1"));
    }
}
