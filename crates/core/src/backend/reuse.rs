//! Object-level computation reuse (§4.2): the counters of the memoised
//! intrinsic values.
//!
//! Intrinsic properties (color, plate, ...) never change for a given
//! object, so once computed for a track they are memoised in the track's
//! row of its alias's object table ([`crate::backend::objects`]), which
//! the projector consults before invoking any model; the ~10x gains of
//! §5.2's stateless-property comparison come from these hits. A cell lives
//! and dies with its row, so a probe is two indices and no hash or
//! allocation. A value is memoised per object and never served for
//! another: an empty cell is a plain miss.

/// Reuse statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    pub hits: u64,
    /// Eligible projections not served from memory: probes that found
    /// nothing, plus sightings of tracks too young to be probed.
    pub misses: u64,
}

impl ReuseStats {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: ReuseStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::objects::Objects;
    use vqpy_models::Value;
    use vqpy_tracker::TrackId;

    const CAR: usize = 0;
    const TRUCK: usize = 1;
    const COLOR: usize = 0;
    const PLATE: usize = 1;

    /// Memoised cells of two aliases' tables, `car` and `truck`, each with
    /// a `color` and a `plate` column.
    fn cells() -> Objects {
        Objects::with_columns(&["car", "truck"], &["color", "plate"], &[])
    }

    fn get(o: &mut Objects, alias: usize, track: TrackId, prop: usize) -> Option<Value> {
        let row = o.table_mut(alias).row(track);
        o.lookup(alias, row, prop)
    }

    fn put(o: &mut Objects, alias: usize, track: TrackId, prop: usize, value: &str) {
        let row = o.table_mut(alias).row(track);
        o.store(alias, row, prop, Value::from(value));
    }

    fn values(o: &Objects) -> usize {
        o.tables().iter().map(|t| t.values()).sum()
    }

    fn stats(hits: u64, misses: u64) -> ReuseStats {
        ReuseStats { hits, misses }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut o = cells();
        assert!(get(&mut o, CAR, 1, COLOR).is_none());
        put(&mut o, CAR, 1, COLOR, "red");
        assert_eq!(get(&mut o, CAR, 1, COLOR), Some(Value::from("red")));
        assert_eq!(o.stats, stats(1, 1));
        assert!((o.stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_handles_empty_and_full() {
        assert_eq!(ReuseStats::default().hit_rate(), 0.0);
        assert!((stats(10, 0).hit_rate() - 1.0).abs() < 1e-12);
        assert!((stats(3, 9).hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn keys_are_fully_qualified() {
        let mut o = cells();
        put(&mut o, CAR, 1, COLOR, "red");
        assert!(get(&mut o, TRUCK, 1, COLOR).is_none());
        assert!(get(&mut o, CAR, 2, COLOR).is_none());
        assert!(get(&mut o, CAR, 1, PLATE).is_none());
        assert_eq!(values(&o), 1);
    }

    /// An expired track loses every property, and only its alias's: the
    /// same id under another alias belongs to another tracker.
    #[test]
    fn forget_drops_every_property_of_expired_tracks_only() {
        let mut o = cells();
        for (alias, track, prop) in [(CAR, 1, COLOR), (CAR, 1, PLATE), (CAR, 2, COLOR)] {
            put(&mut o, alias, track, prop, "red");
        }
        put(&mut o, TRUCK, 1, COLOR, "red");
        o.release(&[]);
        assert_eq!(values(&o), 4);
        o.release(&[(CAR, 1), (CAR, 9)]);
        assert_eq!(values(&o), 2);
        assert!(get(&mut o, CAR, 1, COLOR).is_none());
        assert!(get(&mut o, CAR, 1, PLATE).is_none());
        assert!(get(&mut o, CAR, 2, COLOR).is_some());
        assert!(get(&mut o, TRUCK, 1, COLOR).is_some());
        let (before, row) = (o.stats, o.table_mut(CAR).row(1));
        o.release(&[(CAR, 1), (CAR, 2), (TRUCK, 1)]);
        assert_eq!(values(&o), 0);
        assert_eq!(o.stats, before, "forgetting is not a miss");
        assert_eq!(
            o.table_mut(CAR).row(5),
            row,
            "a freed row is handed out again"
        );
    }

    /// A checkpoint (the tables' states and the statistics) brings back
    /// what a failed attempt forgot, and its probes stop counting.
    #[test]
    fn restore_rolls_back_values_and_stats() {
        let mut o = cells();
        put(&mut o, CAR, 1, COLOR, "red");
        let checkpoint = o.clone();
        o.release(&[(CAR, 1)]);
        assert!(get(&mut o, CAR, 1, COLOR).is_none());
        o = checkpoint;
        assert_eq!(get(&mut o, CAR, 1, COLOR), Some(Value::from("red")));
        assert_eq!(o.stats, stats(1, 0));
    }

    #[test]
    fn store_overwrite_updates_in_place() {
        let mut o = cells();
        put(&mut o, CAR, 1, COLOR, "red");
        put(&mut o, CAR, 1, COLOR, "black");
        assert_eq!(values(&o), 1);
        assert_eq!(get(&mut o, CAR, 1, COLOR), Some(Value::from("black")));
    }
}
