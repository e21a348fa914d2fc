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
//! allocations**. An entry lives exactly as long as its track: when the
//! tracker that issued the id reports it expired, the stage that owns the
//! cache calls [`ReuseCache::forget`]. An expired id is never assigned
//! again, so dropping its values changes no hit, no miss and no model
//! call, and the cache holds at most the live tracks' values however long
//! the video runs.

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

/// Memoized intrinsic property values of the live tracks.
#[derive(Debug, Default, Clone)]
pub struct ReuseCache {
    entries: HashMap<Key, Value>,
    stats: ReuseStats,
    /// Durable backing tier; `None` keeps the cache purely in-memory.
    tier: Option<Arc<dyn ReuseTier>>,
}

impl ReuseCache {
    /// An empty cache with no durable tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a durable backing tier: in-memory misses fall through to
    /// it, and stores write through.
    pub fn set_tier(&mut self, tier: Arc<dyn ReuseTier>) {
        self.tier = Some(tier);
    }

    /// Looks up a memoized value, recording a hit or miss. An in-memory
    /// miss consults the tier under the entry's *names*; a tier hit is
    /// promoted into memory (so later probes stay allocation-free) and
    /// counted in [`ReuseStats::tier_hits`].
    pub fn lookup(
        &mut self,
        alias: Sym,
        track: TrackId,
        prop: Sym,
        alias_name: &str,
        prop_name: &str,
    ) -> Option<Value> {
        let key = (alias, track, prop);
        if let Some(v) = self.entries.get(&key) {
            self.stats.hits += 1;
            return Some(v.clone());
        }
        self.stats.misses += 1;
        let value = self
            .tier
            .as_ref()
            .and_then(|t| t.load(alias_name, track, prop_name))?;
        self.stats.tier_hits += 1;
        self.entries.insert(key, value.clone());
        Some(value)
    }

    /// Records a miss for an eligible projection that was not probed (an
    /// intrinsic property of a tracked but not yet confirmed object), so
    /// [`ReuseStats::hit_rate`] is served-from-cache over eligible.
    pub fn count_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Memoizes a computed intrinsic value and, when a tier is installed,
    /// saves it under the entry's names so it survives the track and the
    /// process.
    pub fn store(
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
        self.entries.insert((alias, track, prop), value);
    }

    /// Drops every value memoized for the `(alias, track)`s in `expired`:
    /// tracks their tracker reported aged out, whose ids never return. The
    /// durable tier keeps its copies.
    pub fn forget(&mut self, expired: &[(Sym, TrackId)]) {
        if expired.is_empty() || self.entries.is_empty() {
            return;
        }
        self.entries
            .retain(|&(alias, track, _), _| !expired.contains(&(alias, track)));
    }

    /// Rolls the memoized values and statistics back to `checkpoint`, an
    /// earlier clone of this cache, keeping the installed tier. A serving
    /// restart needs this: the failed attempt may have forgotten a track
    /// whose last sighting the re-run probes again.
    pub fn restore(&mut self, checkpoint: &ReuseCache) {
        self.entries.clone_from(&checkpoint.entries);
        self.stats = checkpoint.stats;
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAR: Sym = Sym(0);
    const TRUCK: Sym = Sym(1);
    const COLOR: Sym = Sym(2);
    const PLATE: Sym = Sym(3);

    /// Probes with names that only a tier would read.
    fn get(c: &mut ReuseCache, alias: Sym, track: TrackId, prop: Sym) -> Option<Value> {
        c.lookup(alias, track, prop, "car", "color")
    }

    fn put(c: &mut ReuseCache, alias: Sym, track: TrackId, prop: Sym, value: &str) {
        c.store(alias, track, prop, Value::from(value), "car", "color");
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = ReuseCache::new();
        assert!(get(&mut c, CAR, 1, COLOR).is_none());
        put(&mut c, CAR, 1, COLOR, "red");
        assert_eq!(get(&mut c, CAR, 1, COLOR), Some(Value::from("red")));
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
            ..Default::default()
        };
        assert!((mixed.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn keys_are_fully_qualified() {
        let mut c = ReuseCache::new();
        put(&mut c, CAR, 1, COLOR, "red");
        assert!(get(&mut c, TRUCK, 1, COLOR).is_none());
        assert!(get(&mut c, CAR, 2, COLOR).is_none());
        assert!(get(&mut c, CAR, 1, PLATE).is_none());
        assert_eq!(c.len(), 1);
    }

    /// An expired track loses every property, and only its alias's: the
    /// same id under another alias belongs to another tracker.
    #[test]
    fn forget_drops_every_property_of_expired_tracks_only() {
        let mut c = ReuseCache::new();
        for (alias, track, prop) in [
            (CAR, 1, COLOR),
            (CAR, 1, PLATE),
            (CAR, 2, COLOR),
            (TRUCK, 1, COLOR),
        ] {
            put(&mut c, alias, track, prop, "red");
        }
        c.forget(&[]);
        assert_eq!(c.len(), 4);
        c.forget(&[(CAR, 1), (CAR, 9)]);
        assert_eq!(c.len(), 2);
        assert!(get(&mut c, CAR, 1, COLOR).is_none());
        assert!(get(&mut c, CAR, 1, PLATE).is_none());
        assert!(get(&mut c, CAR, 2, COLOR).is_some());
        assert!(get(&mut c, TRUCK, 1, COLOR).is_some());
        let stats = c.stats();
        c.forget(&[(CAR, 2), (TRUCK, 1)]);
        assert!(c.is_empty());
        assert_eq!(c.stats(), stats, "forgetting is not a miss");
    }

    /// A checkpoint brings back what a failed attempt forgot, and its
    /// probes stop counting.
    #[test]
    fn restore_rolls_back_values_and_stats() {
        let mut c = ReuseCache::new();
        put(&mut c, CAR, 1, COLOR, "red");
        let checkpoint = c.clone();
        c.forget(&[(CAR, 1)]);
        assert!(get(&mut c, CAR, 1, COLOR).is_none());
        c.restore(&checkpoint);
        assert_eq!(c.stats(), checkpoint.stats());
        assert_eq!(get(&mut c, CAR, 1, COLOR), Some(Value::from("red")));
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
        let mut c = ReuseCache::new();
        c.set_tier(Arc::clone(&tier) as Arc<dyn ReuseTier>);

        // Write-through: a store lands in the tier, and outlives the track.
        c.store(CAR, 1, COLOR, Value::from("red"), "car", "color");
        assert_eq!(tier.load("car", 1, "color"), Some(Value::from("red")));
        c.forget(&[(CAR, 1)]);
        assert_eq!(tier.load("car", 1, "color"), Some(Value::from("red")));

        // A fresh process's cache reads it back through the tier.
        let mut c = ReuseCache::new();
        c.set_tier(Arc::clone(&tier) as Arc<dyn ReuseTier>);
        let v = c.lookup(CAR, 1, COLOR, "car", "color");
        assert_eq!(v, Some(Value::from("red")));
        assert_eq!(c.stats().tier_hits, 1);
        // The tier hit was counted as an in-memory miss first.
        assert_eq!(c.stats().misses, 1);

        // Promotion: the value is back in memory (hit, no new tier hit).
        assert_eq!(get(&mut c, CAR, 1, COLOR), Some(Value::from("red")));
        assert_eq!((c.stats().hits, c.stats().tier_hits), (1, 1));

        // Unknown keys miss both layers.
        assert_eq!(c.lookup(TRUCK, 9, PLATE, "truck", "plate"), None);
    }

    #[test]
    fn store_overwrite_updates_in_place() {
        let mut c = ReuseCache::new();
        put(&mut c, CAR, 1, COLOR, "red");
        put(&mut c, CAR, 1, COLOR, "black");
        assert_eq!(c.len(), 1);
        assert_eq!(get(&mut c, CAR, 1, COLOR), Some(Value::from("black")));
    }
}
