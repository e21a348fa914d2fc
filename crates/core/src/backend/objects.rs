//! A stream's cross-frame state ([`StreamState`]): its object tables and its
//! diff filter's reference frame. No operator holds any, so a checkpoint is
//! one clone and a recompile or a splice one move.
//!
//! Object tables hold a tracked object's cross-frame state, as the paper's
//! VObj owns its history and memoised intrinsics (§3, §4.2). An [`ObjectTable`]
//! holds its alias's tracker and one dense row per live track, with the
//! plan's columns: a window per stateful property and a memoised value per
//! intrinsic one.
//! The tracker operator stamps each node with its row, so a projection
//! reaches its cell by two indices. Prep frees an expired track's row once
//! the whole batch has run (`run_stage`), never sooner: a track's last
//! sighting and its expiry can share a batch. Expired ids never return, so
//! freeing changes no answer and no hit. A checkpoint copies the tables; a
//! recompile moves each while its alias's tracker survives; a plan without
//! the alias drops its table. A cell belongs to one object: a value crosses
//! engines only with the tracker state that gives its track id meaning
//! (see [`StreamState::adopt`]), and an empty cell is a plain miss.

use crate::backend::plan::{OpSpec, PlanDag};
use crate::backend::reuse::ReuseStats;
use crate::backend::symbols::Istr;
use crate::frontend::property::{PropertyKind, PropertySource};
use crate::frontend::vobj::ResolvedProperty;
use std::ops::Range;
use std::sync::Arc;
use vqpy_models::Value;
use vqpy_tracker::{SortTracker, TrackId, TrackerParams};
use vqpy_video::frame::PixelBuffer;

/// A column, `(property, deps, len, intrinsic)`: a
/// stateful property's window of `len` samples of each of its `deps`
/// dependencies, or an intrinsic property's memoised value (one sample,
/// held once filled). A row's columns lie back to back in its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Column(Istr, usize, usize, bool);

/// Where column `col` starts in a row's samples (`col` = all: the width).
fn offset(columns: &[Column], col: usize) -> usize {
    columns[..col].iter().map(|c| c.1 * c.2).sum()
}

/// One tracked alias's objects: its tracker and a row per live track.
/// Cells are row-major in flat buffers, so a copy of the table is a few
/// allocations however many tracks it holds.
#[derive(Debug, Clone)]
pub struct ObjectTable {
    alias: Istr,
    columns: Arc<Vec<Column>>,
    pub(crate) tracker: SortTracker,
    /// Each row's track; `None` on a free row.
    rows: Vec<Option<TrackId>>,
    /// `rows × width`: each window dependency-major, oldest first.
    samples: Vec<Value>,
    /// `rows × columns`: samples a column holds, up to its length.
    filled: Vec<usize>,
}

impl ObjectTable {
    fn new(alias: Istr, columns: Arc<Vec<Column>>, tracker: SortTracker) -> Self {
        Self {
            alias,
            columns,
            tracker,
            rows: Vec::new(),
            samples: Vec::new(),
            filled: Vec::new(),
        }
    }

    /// The tracked alias.
    pub fn alias(&self) -> &str {
        self.alias.as_str()
    }

    /// Rows holding a live track.
    pub fn rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Tracks the alias's tracker has not yet expired.
    pub fn live_tracks(&self) -> usize {
        self.tracker.live_tracks()
    }

    /// Memoised intrinsic values held.
    pub fn values(&self) -> usize {
        let n = self.columns.len();
        let held = self.filled.iter().enumerate().filter(|&(_, f)| *f > 0);
        held.filter(|(i, _)| self.columns[i % n].3).count()
    }

    /// The row of `track`, handing it a free row on its first sighting.
    pub(crate) fn row(&mut self, track: TrackId) -> usize {
        if let Some(row) = self.rows.iter().position(|&r| r == Some(track)) {
            return row;
        }
        let row = match self.rows.iter().position(Option::is_none) {
            Some(row) => row,
            None => self.grow(),
        };
        self.rows[row] = Some(track);
        row
    }

    fn grow(&mut self) -> usize {
        let (n, c) = (self.rows.len() + 1, &self.columns);
        self.rows.resize(n, None);
        self.samples.resize(n * offset(c, c.len()), Value::Null);
        self.filled.resize(n * c.len(), 0);
        n - 1
    }

    /// Frees the row of an expired track, dropping its cells.
    fn free(&mut self, track: TrackId) {
        let Some(row) = self.rows.iter().position(|&r| r == Some(track)) else {
            return;
        };
        let (n, width) = (
            self.columns.len(),
            offset(&self.columns, self.columns.len()),
        );
        self.rows[row] = None;
        self.samples[row * width..(row + 1) * width].fill(Value::Null);
        self.filled[row * n..(row + 1) * n].fill(0);
    }

    /// Where `row`'s cell in column `col` lies: its samples, and its count
    /// of samples held in `filled`.
    fn at(&self, row: usize, col: usize) -> (Range<usize>, usize) {
        let c = &self.columns;
        let at = row * offset(c, c.len()) + offset(c, col);
        (at..at + c[col].1 * c[col].2, row * c.len() + col)
    }

    /// Appends one sample per dependency to `row`'s window in column `col`,
    /// dropping the oldest, and returns the window once it is full:
    /// dependency-major, oldest first, a `PropertyCtx` input as it stands.
    pub(crate) fn push_window(
        &mut self,
        row: usize,
        col: usize,
        sample: impl Iterator<Item = Value>,
    ) -> Option<&[Value]> {
        let (len, (samples, f)) = (self.columns[col].2, self.at(row, col));
        let (window, filled) = (&mut self.samples[samples], &mut self.filled[f]);
        for (ring, v) in window.chunks_exact_mut(len).zip(sample) {
            ring.rotate_left(1);
            ring[len - 1] = v;
        }
        *filled = (*filled + 1).min(len);
        (*filled == len).then_some(&*window)
    }

    /// Copies into `row` `src`'s cells at `src_row` for each column both
    /// have and `skip` lacks.
    fn copy_row(&mut self, row: usize, src: &ObjectTable, src_row: usize, skip: &[Column]) {
        for (c, column) in self.columns.iter().enumerate() {
            let from = src.columns.iter().position(|s| s == column);
            if let (Some(s), false) = (from, skip.iter().any(|k| k.0 == column.0)) {
                let ((to, tf), (from, ff)) = (self.at(row, c), src.at(src_row, s));
                self.samples[to].clone_from_slice(&src.samples[from]);
                self.filled[tf] = src.filled[ff];
            }
        }
    }

    /// Takes over `own` (this alias's table under the previous plan) or
    /// else `seed` (another engine's): tracker, rows and every column this
    /// table has, matched by property. An intrinsic column the new plan
    /// dropped stays while the tracker lives, as a later plan may read it
    /// again; a dropped window goes, as nothing keeps it current. With
    /// both, the columns `own` lacks come from `seed`, row by track id, when
    /// the two trackers are in the same state: only then does an id name
    /// the same object in both. Otherwise those cells start empty and
    /// recompute.
    fn adopt(&mut self, own: Option<ObjectTable>, seed: Option<ObjectTable>) {
        let (base, extra) = match (own, seed) {
            (Some(own), seed) => {
                let seed = seed.filter(|seed| seed.tracker == own.tracker);
                (own, seed)
            }
            (None, Some(seed)) => (seed, None),
            (None, None) => return,
        };
        let mut columns = (*self.columns).clone();
        for c in base.columns.iter().filter(|c| c.3) {
            if !columns.iter().any(|k| k.0 == c.0) {
                columns.push(*c);
            }
        }
        let columns = Arc::new(columns);
        let mut table = ObjectTable::new(self.alias, columns, base.tracker.clone());
        for (row, &track) in base.rows.iter().enumerate() {
            table.grow();
            table.rows[row] = track;
            table.copy_row(row, &base, row, &[]);
            let Some((seed, track)) = extra.as_ref().zip(track) else {
                continue;
            };
            if let Some(seed_row) = seed.rows.iter().position(|&r| r == Some(track)) {
                table.copy_row(row, seed, seed_row, &base.columns);
            }
        }
        *self = table;
    }
}

/// A stream's object tables, one per alias its plan tracks, and the reuse
/// counters of their intrinsic cells.
#[derive(Debug, Clone, Default)]
pub struct Objects {
    tables: Vec<ObjectTable>,
    /// The running segment's counts, which
    /// [`run_segment`](crate::backend::exec::run_segment) moves into its
    /// [`ExecMetrics`](crate::ExecMetrics) when the segment ends.
    pub stats: ReuseStats,
}

impl Objects {
    /// Empty tables for every alias `plan` tracks, with a column per
    /// stateful and per intrinsic model property it projects (a plan
    /// tracks an alias before it projects it).
    pub fn for_plan(plan: &PlanDag) -> Self {
        let mut columns: Vec<(Istr, Vec<Column>)> = Vec::new();
        for op in &plan.ops {
            let (alias, prop) = match op {
                OpSpec::Track { alias } => {
                    columns.push((Istr::new(alias), Vec::new()));
                    continue;
                }
                OpSpec::Project { alias, prop } => (alias, prop),
                OpSpec::FusedProjectFilter { alias, prop, .. } => (alias, prop),
                _ => continue,
            };
            let def = plan.schemas.get(alias).map(|s| s.resolve_property(prop));
            let table = columns.iter_mut().find(|(a, _)| a == alias);
            let (Some((_, cols)), Some(Some(ResolvedProperty::Defined(def)))) = (table, def) else {
                continue;
            };
            let (prop, model) = (
                Istr::new(prop),
                matches!(def.source, PropertySource::Model(_)),
            );
            let column = match def.kind {
                PropertyKind::Stateful { history_len } => (def.deps.len(), history_len, false),
                PropertyKind::Stateless { intrinsic: true } if model => (1, 1, true),
                PropertyKind::Stateless { .. } => continue,
            };
            if !cols.iter().any(|c| c.0 == prop) {
                cols.push(Column(prop, column.0, column.1, column.2));
            }
        }
        let tracker = || SortTracker::new(TrackerParams::default());
        let table = |(alias, cols)| ObjectTable::new(alias, Arc::new(cols), tracker());
        Self {
            tables: columns.into_iter().map(table).collect(),
            ..Self::default()
        }
    }

    /// The tables, in plan order.
    pub fn tables(&self) -> &[ObjectTable] {
        &self.tables
    }

    /// The table of `alias`, if the plan tracks it.
    pub fn table(&self, alias: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.alias() == alias)
    }

    /// The table and column holding `alias.prop`: its window if stateful,
    /// its memoised value if intrinsic.
    pub fn column(&self, alias: &str, prop: &str) -> Option<(usize, usize)> {
        let t = self.table(alias)?;
        let col = self.tables[t].columns.iter().position(|c| c.0 == prop)?;
        Some((t, col))
    }

    pub(crate) fn table_mut(&mut self, t: usize) -> &mut ObjectTable {
        &mut self.tables[t]
    }

    /// Frees the rows of the `(table, track)`s a batch reported expired.
    pub(crate) fn release(&mut self, expired: &[(usize, TrackId)]) {
        for &(t, track) in expired {
            self.tables[t].free(track);
        }
    }

    /// Reads the memoised value of `row` in intrinsic column `col` of
    /// table `t`, counting a hit, or a miss when the cell is empty.
    pub(crate) fn lookup(&mut self, t: usize, row: usize, col: usize) -> Option<Value> {
        let table = &self.tables[t];
        let (cell, f) = table.at(row, col);
        if table.filled[f] == 0 {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        Some(table.samples[cell.start].clone())
    }

    /// Memoises `value` in intrinsic column `col` of table `t` for `row`.
    pub(crate) fn store(&mut self, t: usize, row: usize, col: usize, value: Value) {
        let table = &mut self.tables[t];
        let (cell, f) = table.at(row, col);
        (table.samples[cell.start], table.filled[f]) = (value, 1);
    }

    /// Each table takes over its alias's table in `own` or else in `seed`
    /// (see [`ObjectTable::adopt`]).
    fn adopt(&mut self, own: Objects, seed: Objects) {
        let (mut own_tables, mut seed_tables) = (own.tables, seed.tables);
        for table in &mut self.tables {
            let alias = table.alias;
            let take = |tables: &mut Vec<ObjectTable>| {
                let at = tables.iter().position(|t| t.alias == alias)?;
                Some(tables.swap_remove(at))
            };
            let (own, seed) = (take(&mut own_tables), take(&mut seed_tables));
            table.adopt(own, seed);
        }
    }
}

/// The diff filter's reference: the last frame it kept, and the threshold
/// it keeps frames by. A plan has at most one diff filter.
#[derive(Debug, Clone)]
pub struct Reference {
    pub(crate) threshold: f32,
    pub(crate) last_kept: Option<PixelBuffer>,
}

/// A stream's cross-frame state. Prep reaches the object tables and the
/// frame filters the reference frame, each through
/// [`ExecCtx`](crate::backend::ops::ExecCtx); a checkpoint clones the
/// value, and a recompile or a splice moves it into the new plan's (see
/// [`StreamState::adopt`]).
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    pub objects: Objects,
    /// `None` when the plan has no diff filter.
    pub reference: Option<Reference>,
}

impl StreamState {
    /// Empty state for `plan`: its object tables ([`Objects::for_plan`])
    /// and, if it filters by difference, a reference with no frame yet.
    pub fn for_plan(plan: &PlanDag) -> Self {
        let reference = plan.ops.iter().find_map(|op| match op {
            OpSpec::DiffFilter { threshold } => Some(Reference {
                threshold: *threshold,
                last_kept: None,
            }),
            _ => None,
        });
        Self {
            objects: Objects::for_plan(plan),
            reference,
        }
    }

    /// Takes over, as a new plan's empty state, `own` (the stream's state
    /// under its previous plan) and then `seed` (another engine's, at a
    /// splice). Each table takes its alias's table in `own`, or else in
    /// `seed`, which also fills the columns `own` lacks, row by track, when
    /// the two trackers are in the same state; the reference frame is
    /// `own`'s, or else `seed`'s, when it was kept by this plan's
    /// threshold. What neither holds starts empty, and what this plan lacks
    /// is dropped.
    pub fn adopt(&mut self, own: StreamState, seed: StreamState) {
        self.objects.adopt(own.objects, seed.objects);
        let threshold = self.reference.as_ref().map(|r| r.threshold);
        let carries = |r: &Reference| Some(r.threshold) == threshold;
        if let Some(kept) = own
            .reference
            .filter(carries)
            .or(seed.reference.filter(carries))
        {
            self.reference = Some(kept);
        }
    }
}

#[cfg(test)]
impl Objects {
    /// Tables for `aliases`, each with intrinsic columns `values` and
    /// `(property, dependencies, length)` windows.
    pub(crate) fn with_columns(
        aliases: &[&str],
        values: &[&str],
        windows: &[(&str, usize, usize)],
    ) -> Self {
        let value = |p: &&str| Column(Istr::new(p), 1, 1, true);
        let window = |w: &(&str, usize, usize)| Column(Istr::new(w.0), w.1, w.2, false);
        let columns = values.iter().map(value).chain(windows.iter().map(window));
        let columns = Arc::new(columns.collect());
        let tracker = || SortTracker::new(TrackerParams::default());
        let table = |a: &&str| ObjectTable::new(Istr::new(a), Arc::clone(&columns), tracker());
        Self {
            tables: aliases.iter().map(table).collect(),
            ..Self::default()
        }
    }

    /// Each filled cell of intrinsic column `col` of table `t`, as
    /// `(track, value)`, by track.
    pub(crate) fn cells(&self, t: usize, col: usize) -> Vec<(TrackId, Value)> {
        let table = &self.tables[t];
        let cells = table.rows.iter().enumerate().filter_map(|(row, &track)| {
            let (cell, f) = table.at(row, col);
            let track = track.filter(|_| table.filled[f] > 0)?;
            Some((track, table.samples[cell.start].clone()))
        });
        let mut cells: Vec<_> = cells.collect();
        cells.sort_by_key(|c| c.0);
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: &[&str], windows: &[(&str, usize, usize)]) -> ObjectTable {
        Objects::with_columns(&["car"], values, windows)
            .tables
            .remove(0)
    }

    fn push(t: &mut ObjectTable, row: usize, col: usize, v: i64) -> Option<Vec<Value>> {
        t.push_window(row, col, [Value::Int(v)].into_iter())
            .map(<[_]>::to_vec)
    }

    /// A recompile keeps every column the new plan has and every intrinsic
    /// column it dropped, drops dropped windows, and takes the columns its
    /// own table lacks from a seed, matched by track.
    #[test]
    fn adopt_matches_columns_by_property() {
        let mut own = table(&["color"], &[("speed", 1, 2)]);
        let row = own.row(4);
        (own.samples[0], own.filled[0]) = (Value::from("red"), 1);
        push(&mut own, row, 1, 1);
        let mut seed = table(&["plate"], &[("heading", 1, 1)]);
        seed.row(9);
        let seed_row = seed.row(4);
        let (cell, f) = seed.at(seed_row, 0);
        (seed.samples[cell.start], seed.filled[f]) = (Value::from("AB-1"), 1);
        push(&mut seed, seed_row, 1, 3);

        let mut next = Objects::with_columns(&["car"], &["plate"], &[("heading", 1, 1)]);
        let objects = |t: ObjectTable| Objects {
            tables: vec![t],
            ..Objects::default()
        };
        next.adopt(objects(own), objects(seed));
        let columns = next.tables[0].columns.iter().map(|c| c.0.as_str());
        let columns: Vec<&str> = columns.collect();
        assert_eq!(
            columns,
            ["plate", "heading", "color"],
            "dropped intrinsics stay"
        );
        assert_eq!((next.tables[0].rows(), next.tables[0].values()), (1, 2));
        assert_eq!(next.lookup(0, row, 0), Some(Value::from("AB-1")));
        assert_eq!(next.lookup(0, row, 2), Some(Value::from("red")));
        assert_eq!(
            push(&mut next.tables[0], row, 1, 5),
            Some(vec![Value::Int(5)])
        );
    }

    /// A seed fills the columns `own` lacks only when the two trackers are
    /// in the same state: otherwise its track ids may name other objects,
    /// so the seed-only cells stay empty and recompute.
    #[test]
    fn a_seed_fills_only_from_a_tracker_in_the_same_state() {
        use vqpy_video::geometry::{BBox, Point};
        let car = (
            BBox::from_center(Point::new(100.0, 50.0), 40.0, 20.0),
            "car",
        );
        let adopted = |seed_sightings: usize| {
            let mut own = table(&["color"], &[]);
            own.tracker.update(&[car]);
            let row = own.row(1);
            (own.samples[0], own.filled[0]) = (Value::from("red"), 1);
            let mut seed = table(&["plate"], &[]);
            for _ in 0..seed_sightings {
                seed.tracker.update(&[car]);
            }
            let seed_row = seed.row(1);
            let (cell, f) = seed.at(seed_row, 0);
            (seed.samples[cell.start], seed.filled[f]) = (Value::from("AB-1"), 1);
            let mut next = Objects::with_columns(&["car"], &["color", "plate"], &[]);
            let objects = |t: ObjectTable| Objects {
                tables: vec![t],
                ..Objects::default()
            };
            next.adopt(objects(own), objects(seed));
            (next.lookup(0, row, 0), next.lookup(0, row, 1))
        };
        let red = Some(Value::from("red"));
        assert_eq!(adopted(1), (red.clone(), Some(Value::from("AB-1"))));
        assert_eq!(adopted(2), (red.clone(), None), "another age");
        assert_eq!(adopted(0), (red, None), "another track set");
    }

    /// The reference frame carries over only to a plan whose diff filter
    /// keeps frames by its threshold, and `own`'s beats `seed`'s.
    #[test]
    fn the_reference_frame_carries_over_under_its_threshold() {
        let frame = |level: u8| Some(PixelBuffer::from_rgb(1, 1, 1, vec![level; 3]));
        let state = |threshold: Option<f32>, last_kept| StreamState {
            reference: threshold.map(|threshold| Reference {
                threshold,
                last_kept,
            }),
            ..StreamState::default()
        };
        let carried = |plan: Option<f32>, own, seed| {
            let mut next = state(plan, None);
            next.adopt(own, seed);
            next.reference.and_then(|r| r.last_kept)
        };
        let (own, seed) = (|| state(Some(1.0), frame(1)), || state(Some(1.0), frame(2)));
        assert_eq!(carried(Some(1.0), own(), seed()), frame(1));
        let unkept = state(Some(1.0), None);
        assert_eq!(carried(Some(1.0), unkept, seed()), None, "own wins unkept");
        assert_eq!(carried(Some(1.0), state(None, None), seed()), frame(2));
        assert_eq!(
            carried(Some(1.0), state(Some(2.0), frame(3)), seed()),
            frame(2)
        );
        assert_eq!(carried(Some(2.0), own(), seed()), None);
        assert_eq!(carried(None, own(), seed()), None);
    }
}
