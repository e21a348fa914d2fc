//! String interning for the execution hot path: [`Istr`], a
//! *process-global* leaked-string interner for the small, bounded
//! vocabulary of aliases, class labels, property and relation names that
//! operators and [`VObjNode`](crate::backend::graph::VObjNode)s carry.
//! Nodes are created per detection per frame; an `Istr` is `Copy` and
//! compares by pointer, so node construction allocates no `String` and a
//! join matches a relation edge by one pointer test.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The process-global [`Istr`] store. Entries are leaked once and live for
/// the process lifetime; the vocabulary (query aliases + detector class
/// labels) is small and bounded, so the leak is a deliberate arena.
fn istr_store() -> &'static RwLock<HashMap<&'static str, &'static Arc<str>>> {
    static STORE: OnceLock<RwLock<HashMap<&'static str, &'static Arc<str>>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// A process-interned immutable string: `Copy`, pointer-stable, and
/// allocation-free to clone or compare. Used for the per-node alias and
/// class-label fields of the object graph. The canonical copy is an
/// `Arc<str>`, so turning an `Istr` into a [`Value`](vqpy_models::Value)
/// ([`Istr::to_arc`]) is a reference-count bump.
#[derive(Clone, Copy)]
pub struct Istr(&'static Arc<str>);

impl Istr {
    /// Interns `s`, returning the canonical copy. Repeated calls with the
    /// same content return the same pointer; construction off the hot path
    /// (operator setup) is the intended pattern.
    pub fn new(s: &str) -> Self {
        if let Some(&hit) = istr_store().read().get(s) {
            return Self(hit);
        }
        let mut store = istr_store().write();
        if let Some(&hit) = store.get(s) {
            return Self(hit);
        }
        let leaked: &'static Arc<str> = Box::leak(Box::new(Arc::from(s)));
        store.insert(&**leaked, leaked);
        Self(leaked)
    }

    /// The interned string.
    pub fn as_str(&self) -> &'static str {
        let arc: &'static Arc<str> = self.0;
        arc
    }

    /// The canonical shared copy.
    pub fn to_arc(&self) -> Arc<str> {
        Arc::clone(self.0)
    }
}

impl std::ops::Deref for Istr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Istr {
    fn eq(&self, other: &Self) -> bool {
        // Every `Istr` comes from `Istr::new`, so equal content means the
        // same canonical copy: comparing is one pointer test.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Istr {}

impl PartialEq<str> for Istr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Istr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Istr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl std::hash::Hash for Istr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for Istr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Istr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::fmt::Debug for Istr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Istr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Istr {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<&String> for Istr {
    fn from(s: &String) -> Self {
        Self::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn istr_interning_dedups_storage() {
        let a = Istr::new("car");
        let b = Istr::new("car");
        let c = Istr::new("person");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, c);
        assert_eq!(a, "car");
        assert_eq!(a, *"car");
        assert_eq!(a, "car".to_owned());
        assert_eq!(format!("{a}"), "car");
        assert_eq!(format!("{a:?}"), "\"car\"");
    }

    #[test]
    fn istr_orders_by_content() {
        let mut v = [Istr::new("b"), Istr::new("a"), Istr::new("c")];
        v.sort();
        assert_eq!(
            v.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
    }
}
