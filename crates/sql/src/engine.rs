//! The EVA-like relational engine.
//!
//! Structurally faithful to the baseline of §5.2: video frames become rows,
//! `EXTRACT_OBJECT` materializes a detection table, attribute models run as
//! per-row scalar UDFs with DataFrame-adaptation overhead, stateful
//! properties require lagged self-joins, every `CREATE TABLE AS` pays
//! materialization, and there are no views — nested statements re-execute
//! their inputs. There is deliberately no object identity, so object-level
//! memoization (VQPy's §4.2 reuse) is *impossible to express* here.

use crate::expr::{col_index, Expr};
use crate::table::{Row, SchemaError, Table};
use crate::udf::UdfCtx;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vqpy_models::{Clock, LookupModelError, ModelZoo, Value};
use vqpy_tracker::{SortTracker, TrackerParams};
use vqpy_video::frame::Frame;
use vqpy_video::source::VideoSource;

/// Engine cost knobs (virtual ms). Defaults approximate the relational
/// overheads the paper attributes to EVA: pandas-DataFrame UDF adaptation,
/// table materialization, and join probing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per scalar-UDF invocation I/O adaptation.
    pub udf_adaptation: f64,
    /// Per row written by `CREATE TABLE AS`.
    pub row_materialize: f64,
    /// Per probe during joins.
    pub join_probe: f64,
    /// Per row scanned by `SELECT`.
    pub scan_row: f64,
    /// Per frame overhead of the `EXTRACT_OBJECT` table UDF (tracker wrap).
    pub table_udf_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            udf_adaptation: 2.0,
            row_materialize: 0.1,
            join_probe: 0.1,
            scan_row: 0.02,
            table_udf_overhead: 2.0,
        }
    }
}

/// Engine errors.
#[derive(Debug)]
pub enum SqlError {
    UnknownTable(String),
    UnknownVideo(String),
    Schema(SchemaError),
    Model(LookupModelError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            SqlError::UnknownVideo(v) => write!(f, "unknown video `{v}`"),
            SqlError::Schema(e) => write!(f, "{e}"),
            SqlError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SchemaError> for SqlError {
    fn from(e: SchemaError) -> Self {
        SqlError::Schema(e)
    }
}

impl From<LookupModelError> for SqlError {
    fn from(e: LookupModelError) -> Self {
        SqlError::Model(e)
    }
}

/// Base columns produced by `EXTRACT_OBJECT`.
pub const EXTRACT_COLUMNS: [&str; 6] = ["id", "iid", "label", "bbox", "score", "_sim"];

/// The database: named videos and materialized tables.
pub struct Database {
    zoo: Arc<ModelZoo>,
    cost: CostModel,
    videos: HashMap<String, Arc<dyn VideoSource>>,
    tables: HashMap<String, Table>,
    /// Which video a table's `id` column addresses (for frame-reading UDFs).
    table_video: HashMap<String, String>,
    /// One-frame decode cache (rows are scanned in id order).
    frame_cache: Option<(String, u64, Frame)>,
}

impl Database {
    /// Creates a database over a model zoo with default costs.
    pub fn new(zoo: Arc<ModelZoo>) -> Self {
        Self::with_cost(zoo, CostModel::default())
    }

    /// Creates a database with explicit cost knobs.
    pub fn with_cost(zoo: Arc<ModelZoo>, cost: CostModel) -> Self {
        Self {
            zoo,
            cost,
            videos: HashMap::new(),
            tables: HashMap::new(),
            table_video: HashMap::new(),
            frame_cache: None,
        }
    }

    /// The cost model in effect.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// `LOAD VIDEO ... INTO name`.
    pub fn load_video(&mut self, name: impl Into<String>, source: Arc<dyn VideoSource>) {
        self.videos.insert(name.into(), source);
    }

    /// Returns a materialized table.
    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::UnknownTable(name.to_owned()))
    }

    /// `DROP TABLE IF EXISTS`.
    pub fn drop_table(&mut self, name: &str) {
        self.tables.remove(name);
        self.table_video.remove(name);
    }

    fn frame_for(&mut self, table: &str, id: u64) -> Option<Frame> {
        let video_name = self.table_video.get(table)?.clone();
        if let Some((v, i, f)) = &self.frame_cache {
            if *v == video_name && *i == id {
                return Some(f.clone());
            }
        }
        let video = self.videos.get(&video_name)?;
        if id >= video.frame_count() {
            return None;
        }
        let frame = video.frame(id);
        self.frame_cache = Some((video_name, id, frame.clone()));
        Some(frame)
    }

    /// `CREATE TABLE out AS SELECT id, <extra...>, T.* FROM video JOIN
    /// LATERAL UNNEST(EXTRACT_OBJECT(data, detector, NorFairTracker))`:
    /// runs the detector and tracker over every frame and materializes one
    /// row per detection, evaluating `extra` scalar projections per row.
    pub fn extract_objects(
        &mut self,
        out: &str,
        video_name: &str,
        detector: &str,
        extra: &[(&str, Expr)],
        clock: &Clock,
    ) -> Result<(), SqlError> {
        let video = Arc::clone(
            self.videos
                .get(video_name)
                .ok_or_else(|| SqlError::UnknownVideo(video_name.to_owned()))?,
        );
        let det = self.zoo.detector(detector)?;
        let mut tracker = SortTracker::new(TrackerParams::default());

        let mut columns: Vec<&str> = EXTRACT_COLUMNS.to_vec();
        for (name, _) in extra {
            columns.push(name);
        }
        let mut table = Table::new(&columns);
        // Base-column index map for evaluating the extra projections.
        let base_idx: HashMap<String, usize> = EXTRACT_COLUMNS
            .iter()
            .enumerate()
            .map(|(i, c)| (c.to_string(), i))
            .collect();

        for f in 0..video.frame_count() {
            clock.charge_labeled("video_decode", vqpy_models::zoo::COST_VIDEO_DECODE);
            let frame = video.frame(f);
            let detections = det.detect(&frame, clock);
            clock.charge_labeled("extract_object", self.cost.table_udf_overhead);
            let boxes: Vec<(vqpy_video::geometry::BBox, &str)> = detections
                .iter()
                .map(|d| (d.bbox, d.class_label.as_str()))
                .collect();
            let updates = tracker.update(&boxes);
            for (d, up) in detections.iter().zip(updates) {
                let mut row: Row = vec![
                    Value::Int(f as i64),
                    Value::Int(up.track_id as i64),
                    Value::from(d.class_label.as_str()),
                    Value::BBox(d.bbox),
                    Value::Float(d.score as f64),
                    Value::Int(d.sim_entity.map(|e| e as i64).unwrap_or(-1)),
                ];
                let ctx = UdfCtx {
                    zoo: &self.zoo,
                    clock,
                    frame: Some(&frame),
                    adaptation_cost: self.cost.udf_adaptation,
                };
                for (_, expr) in extra {
                    row.push(expr.eval(&row[..EXTRACT_COLUMNS.len()].to_vec(), &base_idx, &ctx)?);
                }
                clock.charge_labeled("materialize", self.cost.row_materialize);
                table.push(row);
            }
        }
        self.tables.insert(out.to_owned(), table);
        self.table_video
            .insert(out.to_owned(), video_name.to_owned());
        Ok(())
    }

    /// `SELECT <projections> FROM from_table WHERE <filter>`, optionally
    /// materialized as `CREATE TABLE out AS ...` (paying per-row
    /// materialization).
    pub fn select(
        &mut self,
        out: Option<&str>,
        from_table: &str,
        projections: &[(&str, Expr)],
        filter: Option<&Expr>,
        clock: &Clock,
    ) -> Result<Table, SqlError> {
        let src = self.table(from_table)?.clone();
        let idx = col_index(&src);
        let id_col = src.col("id").ok();
        let columns: Vec<&str> = projections.iter().map(|(n, _)| *n).collect();
        let mut result = Table::new(&columns);
        for row in src.rows() {
            clock.charge_labeled("scan", self.cost.scan_row);
            let frame = match id_col {
                Some(c) => row[c]
                    .as_i64()
                    .and_then(|id| self.frame_for(from_table, id as u64)),
                None => None,
            };
            let ctx = UdfCtx {
                zoo: &self.zoo,
                clock,
                frame: frame.as_ref(),
                adaptation_cost: self.cost.udf_adaptation,
            };
            if let Some(f) = filter {
                if !f.eval(row, &idx, &ctx)?.as_bool().unwrap_or(false) {
                    continue;
                }
            }
            let mut out_row = Vec::with_capacity(projections.len());
            for (_, e) in projections {
                out_row.push(e.eval(row, &idx, &ctx)?);
            }
            if out.is_some() {
                clock.charge_labeled("materialize", self.cost.row_materialize);
            }
            result.push(out_row);
        }
        if let Some(name) = out {
            self.tables.insert(name.to_owned(), result.clone());
            if let Some(v) = self.table_video.get(from_table).cloned() {
                self.table_video.insert(name.to_owned(), v);
            }
        }
        Ok(result)
    }

    /// The `Add1` lag self-join of Figures 22/24: joins each `(id, iid)`
    /// row with the same object's row on frame `id - lag`, appending a
    /// `last_bbox` column. Materializes the result (EVA cannot express this
    /// as a view).
    pub fn lag_self_join(
        &mut self,
        out: &str,
        from_table: &str,
        lag: i64,
        clock: &Clock,
    ) -> Result<(), SqlError> {
        let src = self.table(from_table)?.clone();
        let id_c = src.col("id")?;
        let iid_c = src.col("iid")?;
        let bbox_c = src.col("bbox")?;

        // Build the lagged hash side (its construction is itself a scan +
        // materialization, mirroring CREATE TABLE TrackResultAdd1).
        let mut lagged: HashMap<(i64, i64), Value> = HashMap::new();
        for row in src.rows() {
            clock.charge_labeled("scan", self.cost.scan_row);
            clock.charge_labeled("materialize", self.cost.row_materialize);
            if let (Some(id), Some(iid)) = (row[id_c].as_i64(), row[iid_c].as_i64()) {
                lagged.insert((id + lag, iid), row[bbox_c].clone());
            }
        }

        let mut columns: Vec<&str> = src.columns().iter().map(|s| s.as_str()).collect();
        columns.push("last_bbox");
        let mut table = Table::new(&columns);
        for row in src.rows() {
            clock.charge_labeled("join_probe", self.cost.join_probe);
            let key = match (row[id_c].as_i64(), row[iid_c].as_i64()) {
                (Some(id), Some(iid)) => (id, iid),
                _ => continue,
            };
            let Some(last) = lagged.get(&key) else {
                continue; // inner join: first sighting has no lagged row
            };
            let mut out_row = row.clone();
            out_row.push(last.clone());
            clock.charge_labeled("materialize", self.cost.row_materialize);
            table.push(out_row);
        }
        self.tables.insert(out.to_owned(), table);
        if let Some(v) = self.table_video.get(from_table).cloned() {
            self.table_video.insert(out.to_owned(), v);
        }
        Ok(())
    }

    /// `CREATE TABLE out AS SELECT a.*, b.<col> FROM a JOIN b ON a.id =
    /// b.id AND a.iid = b.iid` — the generic equi-join used to combine
    /// nested sub-query results (Figure 24's `TrackResultJoin`).
    pub fn equi_join(
        &mut self,
        out: &str,
        left_table: &str,
        right_table: &str,
        carry_from_right: &[&str],
        clock: &Clock,
    ) -> Result<(), SqlError> {
        let left = self.table(left_table)?.clone();
        let right = self.table(right_table)?.clone();
        let l_id = left.col("id")?;
        let l_iid = left.col("iid")?;
        let r_id = right.col("id")?;
        let r_iid = right.col("iid")?;
        let carry_idx: Vec<usize> = carry_from_right
            .iter()
            .map(|c| right.col(c))
            .collect::<Result<_, _>>()?;

        let mut index: HashMap<(i64, i64), usize> = HashMap::new();
        for (i, row) in right.rows().iter().enumerate() {
            clock.charge_labeled("scan", self.cost.scan_row);
            if let (Some(a), Some(b)) = (row[r_id].as_i64(), row[r_iid].as_i64()) {
                index.insert((a, b), i);
            }
        }
        let mut columns: Vec<&str> = left.columns().iter().map(|s| s.as_str()).collect();
        columns.extend(carry_from_right);
        let mut table = Table::new(&columns);
        for row in left.rows() {
            clock.charge_labeled("join_probe", self.cost.join_probe);
            let key = match (row[l_id].as_i64(), row[l_iid].as_i64()) {
                (Some(a), Some(b)) => (a, b),
                _ => continue,
            };
            let Some(&ri) = index.get(&key) else { continue };
            let mut out_row = row.clone();
            for &c in &carry_idx {
                out_row.push(right.rows()[ri][c].clone());
            }
            clock.charge_labeled("materialize", self.cost.row_materialize);
            table.push(out_row);
        }
        self.tables.insert(out.to_owned(), table);
        if let Some(v) = self.table_video.get(left_table).cloned() {
            self.table_video.insert(out.to_owned(), v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn db_and_video() -> (Database, Arc<dyn VideoSource>, Clock) {
        let zoo = ModelZoo::standard();
        let mut db = Database::new(zoo);
        let v: Arc<dyn VideoSource> = Arc::new(SyntheticVideo::new(Scene::generate(
            presets::banff(),
            99,
            10.0,
        )));
        db.load_video("MyVideo", Arc::clone(&v));
        (db, v, Clock::new())
    }

    #[test]
    fn extract_objects_materializes_rows() {
        let (mut db, _v, clock) = db_and_video();
        db.extract_objects("TrackResult", "MyVideo", "yolox", &[], &clock)
            .unwrap();
        let t = db.table("TrackResult").unwrap();
        assert!(!t.is_empty(), "traffic should yield detections");
        assert_eq!(t.columns().len(), EXTRACT_COLUMNS.len());
        // Detector was charged once per frame.
        assert_eq!(clock.stat("yolox").unwrap().invocations, 150);
        assert_eq!(
            clock.stat("materialize").unwrap().invocations as usize,
            t.len()
        );
    }

    #[test]
    fn select_filters_rows() {
        let (mut db, _v, clock) = db_and_video();
        db.extract_objects("TrackResult", "MyVideo", "yolox", &[], &clock)
            .unwrap();
        let all = db.table("TrackResult").unwrap().len();
        let cars = db
            .select(
                None,
                "TrackResult",
                &[("id", Expr::col("id")), ("iid", Expr::col("iid"))],
                Some(&Expr::col("label").eq(Expr::lit("car"))),
                &clock,
            )
            .unwrap();
        assert!(cars.len() <= all);
        assert!(!cars.is_empty(), "there should be cars");
    }

    #[test]
    fn lag_join_produces_last_bbox() {
        let (mut db, _v, clock) = db_and_video();
        db.extract_objects("TrackResult", "MyVideo", "yolox", &[], &clock)
            .unwrap();
        db.lag_self_join("Joined", "TrackResult", 1, &clock)
            .unwrap();
        let t = db.table("Joined").unwrap();
        assert!(t.columns().contains(&"last_bbox".to_owned()));
        assert!(!t.is_empty());
        assert!(t.len() < db.table("TrackResult").unwrap().len());
        // Every joined row's last_bbox is a bbox.
        let c = t.col("last_bbox").unwrap();
        assert!(t.rows().iter().all(|r| r[c].as_bbox().is_some()));
    }

    #[test]
    fn unknown_names_error() {
        let (mut db, _v, clock) = db_and_video();
        assert!(matches!(
            db.extract_objects("T", "Nope", "yolox", &[], &clock),
            Err(SqlError::UnknownVideo(_))
        ));
        assert!(matches!(db.table("Ghost"), Err(SqlError::UnknownTable(_))));
        db.extract_objects("T", "MyVideo", "yolox", &[], &clock)
            .unwrap();
        assert!(matches!(
            db.extract_objects("T2", "MyVideo", "not_a_model", &[], &clock),
            Err(SqlError::Model(_))
        ));
    }

    #[test]
    fn drop_table_removes() {
        let (mut db, _v, clock) = db_and_video();
        db.extract_objects("T", "MyVideo", "yolox", &[], &clock)
            .unwrap();
        db.drop_table("T");
        assert!(db.table("T").is_err());
    }
}
