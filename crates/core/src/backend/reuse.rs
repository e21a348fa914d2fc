//! Object-level computation reuse (§4.2).
//!
//! Intrinsic properties (color, plate, ...) never change for a given
//! object, so once computed for a track they are memoized here, keyed by
//! `(alias, track id, property)`. The projector consults the cache before
//! invoking any model; the ~10x gains of §5.2's stateless-property
//! comparison come from these hits.
//!
//! The key uses interned [`Sym`]s (see [`crate::backend::symbols`]), so a
//! probe is a `Copy` tuple hash — the hit path performs **zero heap
//! allocations**. Entries live in a slab-backed intrusive LRU list: an
//! optional capacity bound evicts the least-recently-used track property
//! so unboundedly long videos cannot grow memory without limit.

use crate::backend::symbols::Sym;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vqpy_models::Value;
use vqpy_tracker::TrackId;

/// A durable backing tier behind the in-memory cache.
///
/// The serving layer installs one backed by the persistent frame store
/// (`vqpy-store`): in-memory misses fall through to
/// [`ReuseTier::load`], and every memoized value is written through via
/// [`ReuseTier::save`]. Keys use *names* rather than interned [`Sym`]s —
/// symbols are per-process and not durable. Tier methods must never block
/// for long (the hit path of every projection runs through them) and must
/// tolerate concurrent calls.
pub trait ReuseTier: Send + Sync + fmt::Debug {
    /// Fetches a previously saved intrinsic value, if the tier still has
    /// it.
    fn load(&self, alias: &str, track: TrackId, prop: &str) -> Option<Value>;
    /// Persists one intrinsic value.
    fn save(&self, alias: &str, track: TrackId, prop: &str, value: &Value);
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    pub hits: u64,
    /// Eligible projections not served from memory: probes that found
    /// nothing, plus sightings of tracks too young to be probed.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// In-memory misses answered by the durable tier (a subset of
    /// `misses`: every tier hit was first counted as an in-memory miss).
    pub tier_hits: u64,
}

impl ReuseStats {
    /// Hit rate in `[0, 1]`; 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache key: `(alias, track, property)`, all `Copy`.
type Key = (Sym, TrackId, Sym);

const NIL: usize = usize::MAX;

/// One slab entry, doubly linked into the LRU list.
#[derive(Debug)]
struct Entry {
    key: Key,
    value: Value,
    prev: usize,
    next: usize,
}

/// Memoized intrinsic property values per tracked object, with an optional
/// LRU capacity bound.
#[derive(Debug, Default)]
pub struct ReuseCache {
    index: HashMap<Key, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    /// Most-recently-used end of the list.
    head: Option<usize>,
    /// Least-recently-used end of the list.
    tail: Option<usize>,
    capacity: Option<usize>,
    stats: ReuseStats,
    /// Durable backing tier; `None` keeps the cache purely in-memory.
    tier: Option<Arc<dyn ReuseTier>>,
}

impl ReuseCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache evicting least-recently-used entries beyond `capacity`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "reuse cache capacity must be positive");
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = (next != NIL).then_some(next),
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = (prev != NIL).then_some(prev),
            n => self.slab[n].prev = prev,
        }
        self.slab[i].prev = NIL;
        self.slab[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head.unwrap_or(NIL);
        if let Some(h) = self.head {
            self.slab[h].prev = i;
        }
        self.head = Some(i);
        if self.tail.is_none() {
            self.tail = Some(i);
        }
    }

    /// Looks up a memoized value, recording a hit or miss. Hits move the
    /// entry to the front of the LRU list. This path allocates nothing:
    /// the key is a `Copy` tuple and the value is returned by reference.
    pub fn lookup(&mut self, alias: Sym, track: TrackId, prop: Sym) -> Option<&Value> {
        match self.index.get(&(alias, track, prop)).copied() {
            Some(i) => {
                self.stats.hits += 1;
                if self.head != Some(i) {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(&self.slab[i].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records a miss for an eligible projection that was not probed (an
    /// intrinsic property of a tracked but not yet confirmed object), so
    /// [`ReuseStats::hit_rate`] is served-from-cache over eligible.
    pub fn count_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Memoizes a computed intrinsic value, evicting the least-recently-used
    /// entry when the capacity bound is exceeded.
    pub fn store(&mut self, alias: Sym, track: TrackId, prop: Sym, value: Value) {
        let key = (alias, track, prop);
        if let Some(&i) = self.index.get(&key) {
            self.slab[i].value = value;
            if self.head != Some(i) {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if let Some(cap) = self.capacity {
            while self.index.len() >= cap {
                let lru = self.tail.expect("non-empty cache has a tail");
                self.unlink(lru);
                self.index.remove(&self.slab[lru].key);
                self.slab[lru].value = Value::Null;
                self.free.push(lru);
                self.stats.evictions += 1;
            }
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.index.insert(key, i);
        self.push_front(i);
    }

    /// Installs a durable backing tier. In-memory misses on the *named*
    /// paths fall through to it, and named stores write through; the
    /// symbol-only [`ReuseCache::lookup`]/[`ReuseCache::store`] paths are
    /// unaffected.
    pub fn set_tier(&mut self, tier: Arc<dyn ReuseTier>) {
        self.tier = Some(tier);
    }

    /// Whether a durable tier is installed.
    pub fn has_tier(&self) -> bool {
        self.tier.is_some()
    }

    /// [`ReuseCache::lookup`] with a durable-tier fallback: an in-memory
    /// miss consults the tier under the entry's *names*; a tier hit is
    /// promoted into the in-memory cache (so subsequent probes stay
    /// allocation-free) and counted in [`ReuseStats::tier_hits`].
    pub fn lookup_named(
        &mut self,
        alias: Sym,
        track: TrackId,
        prop: Sym,
        alias_name: &str,
        prop_name: &str,
    ) -> Option<Value> {
        if let Some(v) = self.lookup(alias, track, prop) {
            return Some(v.clone());
        }
        let value = self
            .tier
            .as_ref()
            .and_then(|t| t.load(alias_name, track, prop_name))?;
        self.stats.tier_hits += 1;
        self.store(alias, track, prop, value.clone());
        Some(value)
    }

    /// [`ReuseCache::store`] with durable write-through: the value is
    /// memoized in memory and, when a tier is installed, saved under the
    /// entry's names so it survives process restarts and LRU eviction.
    pub fn store_named(
        &mut self,
        alias: Sym,
        track: TrackId,
        prop: Sym,
        value: Value,
        alias_name: &str,
        prop_name: &str,
    ) {
        if let Some(t) = &self.tier {
            t.save(alias_name, track, prop_name, &value);
        }
        self.store(alias, track, prop, value);
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops all entries and statistics.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
        self.stats = ReuseStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAR: Sym = Sym(0);
    const TRUCK: Sym = Sym(1);
    const COLOR: Sym = Sym(2);
    const PLATE: Sym = Sym(3);

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = ReuseCache::new();
        assert!(c.lookup(CAR, 1, COLOR).is_none());
        c.store(CAR, 1, COLOR, Value::from("red"));
        assert_eq!(c.lookup(CAR, 1, COLOR).cloned(), Some(Value::from("red")));
        assert_eq!(
            c.stats(),
            ReuseStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_handles_empty_and_full() {
        assert_eq!(ReuseStats::default().hit_rate(), 0.0);
        let all_hits = ReuseStats {
            hits: 10,
            ..Default::default()
        };
        assert!((all_hits.hit_rate() - 1.0).abs() < 1e-12);
        let mixed = ReuseStats {
            hits: 3,
            misses: 9,
            evictions: 2,
            ..Default::default()
        };
        assert!((mixed.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn keys_are_fully_qualified() {
        let mut c = ReuseCache::new();
        c.store(CAR, 1, COLOR, Value::from("red"));
        assert!(c.lookup(TRUCK, 1, COLOR).is_none());
        assert!(c.lookup(CAR, 2, COLOR).is_none());
        assert!(c.lookup(CAR, 1, PLATE).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut c = ReuseCache::new();
        c.store(CAR, 1, COLOR, Value::from("red"));
        c.lookup(CAR, 1, COLOR);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), ReuseStats::default());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = ReuseCache::with_capacity(2);
        c.store(CAR, 1, COLOR, Value::from("red"));
        c.store(CAR, 2, COLOR, Value::from("blue"));
        // Touch track 1 so track 2 becomes the LRU.
        assert!(c.lookup(CAR, 1, COLOR).is_some());
        c.store(CAR, 3, COLOR, Value::from("green"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(CAR, 2, COLOR).is_none(), "LRU entry evicted");
        assert!(c.lookup(CAR, 1, COLOR).is_some());
        assert!(c.lookup(CAR, 3, COLOR).is_some());
    }

    #[test]
    fn eviction_churn_reuses_slab_slots() {
        let mut c = ReuseCache::with_capacity(4);
        for t in 0..100u64 {
            c.store(CAR, t, COLOR, Value::Int(t as i64));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().evictions, 96);
        // The slab never grew past capacity + nothing leaked.
        assert!(c.slab.len() <= 5, "slab len {}", c.slab.len());
        for t in 96..100u64 {
            assert_eq!(c.lookup(CAR, t, COLOR).cloned(), Some(Value::Int(t as i64)));
        }
    }

    #[derive(Debug, Default)]
    struct MapTier(parking_lot::Mutex<HashMap<(String, TrackId, String), Value>>);

    impl ReuseTier for MapTier {
        fn load(&self, alias: &str, track: TrackId, prop: &str) -> Option<Value> {
            self.0
                .lock()
                .get(&(alias.to_owned(), track, prop.to_owned()))
                .cloned()
        }
        fn save(&self, alias: &str, track: TrackId, prop: &str, value: &Value) {
            self.0
                .lock()
                .insert((alias.to_owned(), track, prop.to_owned()), value.clone());
        }
    }

    #[test]
    fn tier_read_through_and_write_through() {
        let tier = Arc::new(MapTier::default());
        let mut c = ReuseCache::with_capacity(1);
        c.set_tier(Arc::clone(&tier) as Arc<dyn ReuseTier>);

        // Write-through: a named store lands in the tier.
        c.store_named(CAR, 1, COLOR, Value::from("red"), "car", "color");
        assert_eq!(tier.load("car", 1, "color"), Some(Value::from("red")));

        // Capacity-evict the entry, then read it back through the tier.
        c.store_named(CAR, 2, COLOR, Value::from("blue"), "car", "color");
        assert_eq!(c.stats().evictions, 1);
        let v = c.lookup_named(CAR, 1, COLOR, "car", "color");
        assert_eq!(v, Some(Value::from("red")));
        assert_eq!(c.stats().tier_hits, 1);
        // The tier hit was counted as an in-memory miss first.
        assert_eq!(c.stats().misses, 1);

        // Promotion: the value is back in memory (hit, no new tier hit).
        assert_eq!(c.lookup(CAR, 1, COLOR).cloned(), Some(Value::from("red")));
        assert_eq!(c.stats().tier_hits, 1);

        // Unknown keys miss both layers.
        assert_eq!(c.lookup_named(TRUCK, 9, PLATE, "truck", "plate"), None);
    }

    #[test]
    fn store_overwrite_updates_in_place() {
        let mut c = ReuseCache::with_capacity(2);
        c.store(CAR, 1, COLOR, Value::from("red"));
        c.store(CAR, 1, COLOR, Value::from("black"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(CAR, 1, COLOR).cloned(), Some(Value::from("black")));
    }
}
