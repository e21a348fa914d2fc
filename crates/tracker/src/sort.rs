//! SORT-style multi-object tracker: Kalman prediction + IoU-cost Hungarian
//! matching + track lifecycle management.

use crate::hungarian::{Hungarian, FORBIDDEN};
use crate::kalman::KalmanFilter;
use std::sync::Arc;
use vqpy_video::geometry::{BBox, Point};

/// Tracker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerParams {
    /// Frames a track survives without a matched detection.
    pub max_age: u32,
    /// Matched updates before a track is *confirmed*.
    pub min_hits: u32,
    /// Minimum IoU for a detection-track match.
    pub iou_threshold: f32,
}

impl Default for TrackerParams {
    fn default() -> Self {
        Self {
            max_age: 15,
            min_hits: 2,
            iou_threshold: 0.2,
        }
    }
}

/// Stable identifier of a tracked object (unique within one tracker).
pub type TrackId = u64;

#[derive(Debug, Clone, PartialEq)]
struct Track {
    id: TrackId,
    /// Shared, so a checkpoint clone of the tracker copies no label.
    class_label: Arc<str>,
    kf: KalmanFilter,
    hits: u32,
    time_since_update: u32,
}

/// Result of matching one detection on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackUpdate {
    /// The stable track id the detection was associated with.
    pub track_id: TrackId,
    /// Whether the track has accumulated `min_hits` matches. Stateful
    /// properties should only be trusted on confirmed tracks.
    pub confirmed: bool,
}

/// A SORT-style tracker over labeled boxes.
///
/// `Clone` snapshots the full tracker state (tracks, Kalman filters, id
/// counter); the serving layer uses this to checkpoint operator state
/// before a fallible segment so a panicking worker can be restarted
/// without identity drift.
#[derive(Debug, Clone)]
pub struct SortTracker {
    params: TrackerParams,
    tracks: Vec<Track>,
    next_id: TrackId,
    scratch: Scratch,
}

/// Per-update buffers: the tracks' predicted boxes, a row-major
/// detections × tracks cost matrix, the assignment and the solver's
/// workspace. They carry nothing from one update to the next.
#[derive(Debug, Default)]
struct Workspace {
    predicted: Vec<BBox>,
    cost: Vec<f64>,
    assignment: Vec<Option<usize>>,
    hungarian: Hungarian,
}

/// The tracker's [`Workspace`], boxed so the tracker (and the operator
/// state that carries it) stays small, and made on first use. A clone
/// starts without one: a checkpointed tracker copies none of the buffers.
#[derive(Debug, Default)]
struct Scratch(Option<Box<Workspace>>);

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self(None)
    }
}

/// Two trackers are equal when they are in the same state: parameters, id
/// counter, and every track's id, label, Kalman state, hits and age. The
/// scratch buffers carry nothing from one update to the next, so they are
/// not compared. Equal trackers assign the same ids to the same detections.
impl PartialEq for SortTracker {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.next_id == other.next_id && self.tracks == other.tracks
    }
}

impl SortTracker {
    /// Creates a tracker with the given parameters.
    pub fn new(params: TrackerParams) -> Self {
        Self {
            params,
            tracks: Vec::new(),
            next_id: 1,
            scratch: Scratch::default(),
        }
    }

    /// Number of live (not yet expired) tracks.
    pub fn live_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Estimated velocity (px/frame) of a live track, if known.
    pub fn velocity_of(&self, id: TrackId) -> Option<Point> {
        self.tracks
            .iter()
            .find(|t| t.id == id)
            .map(|t| t.kf.velocity())
    }

    /// Advances one frame: predicts all tracks, matches `detections`
    /// (as `(bbox, class_label)` pairs), creates tracks for unmatched
    /// detections, ages out stale tracks.
    ///
    /// Returns one [`TrackUpdate`] per detection, in input order.
    pub fn update(&mut self, detections: &[(BBox, &str)]) -> Vec<TrackUpdate> {
        let mut updates = Vec::with_capacity(detections.len());
        self.update_into(detections, &mut updates, &mut Vec::new());
        updates
    }

    /// [`SortTracker::update`] into the caller's buffers: `updates` is
    /// overwritten with one [`TrackUpdate`] per detection, and the ids of
    /// the tracks that aged out on this frame are appended to `expired`.
    /// An expired id is never assigned again.
    pub fn update_into(
        &mut self,
        detections: &[(BBox, &str)],
        updates: &mut Vec<TrackUpdate>,
        expired: &mut Vec<TrackId>,
    ) {
        for t in &mut self.tracks {
            t.kf.predict();
            t.time_since_update += 1;
        }

        // Cost matrix: detections x tracks, 1 - IoU, class mismatch forbidden.
        let ws = self.scratch.0.get_or_insert_with(Box::default);
        ws.assignment.clear();
        if self.tracks.is_empty() || detections.is_empty() {
            ws.assignment.resize(detections.len(), None);
        } else {
            ws.predicted.clear();
            ws.predicted.extend(self.tracks.iter().map(|t| t.kf.bbox()));
            ws.cost.clear();
            for (bbox, label) in detections {
                ws.cost
                    .extend(self.tracks.iter().zip(&ws.predicted).map(|(t, predicted)| {
                        if *t.class_label != **label {
                            return FORBIDDEN;
                        }
                        let iou = bbox.iou(predicted);
                        if iou < self.params.iou_threshold {
                            FORBIDDEN
                        } else {
                            1.0 - iou as f64
                        }
                    }));
            }
            let (rows, cols) = (detections.len(), self.tracks.len());
            ws.hungarian.solve(&ws.cost, rows, cols, &mut ws.assignment);
        }

        updates.clear();
        for (di, (bbox, label)) in detections.iter().enumerate() {
            match ws.assignment[di] {
                Some(ti) => {
                    let t = &mut self.tracks[ti];
                    t.kf.update(bbox);
                    t.hits += 1;
                    t.time_since_update = 0;
                    updates.push(TrackUpdate {
                        track_id: t.id,
                        confirmed: t.hits >= self.params.min_hits,
                    });
                }
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.tracks.push(Track {
                        id,
                        class_label: Arc::from(*label),
                        kf: KalmanFilter::new(bbox),
                        hits: 1,
                        time_since_update: 0,
                    });
                    updates.push(TrackUpdate {
                        track_id: id,
                        confirmed: self.params.min_hits <= 1,
                    });
                }
            }
        }

        let max_age = self.params.max_age;
        expired.extend(
            self.tracks
                .iter()
                .filter(|t| t.time_since_update > max_age)
                .map(|t| t.id),
        );
        self.tracks.retain(|t| t.time_since_update <= max_age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes_at(x: f32) -> BBox {
        BBox::from_center(Point::new(x, 100.0), 40.0, 20.0)
    }

    #[test]
    fn single_object_keeps_its_id() {
        let mut tr = SortTracker::new(TrackerParams::default());
        let mut ids = Vec::new();
        for step in 0..20 {
            let det = [(boxes_at(50.0 + step as f32 * 5.0), "car")];
            let up = tr.update(&det);
            ids.push(up[0].track_id);
        }
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "id must be stable: {ids:?}"
        );
        assert!(tr.velocity_of(ids[0]).unwrap().x > 3.0);
    }

    #[test]
    fn two_objects_get_distinct_ids() {
        let mut tr = SortTracker::new(TrackerParams::default());
        for step in 0..10 {
            let x = step as f32 * 5.0;
            let det = [
                (boxes_at(50.0 + x), "car"),
                (
                    BBox::from_center(Point::new(500.0 - x, 300.0), 40.0, 20.0),
                    "car",
                ),
            ];
            let up = tr.update(&det);
            assert_ne!(up[0].track_id, up[1].track_id);
        }
        assert_eq!(tr.live_tracks(), 2);
    }

    #[test]
    fn class_labels_do_not_mix() {
        let mut tr = SortTracker::new(TrackerParams::default());
        // A car and a person at the same place must not share a track.
        let det = [(boxes_at(100.0), "car")];
        let a = tr.update(&det);
        let det2 = [(boxes_at(102.0), "person")];
        let b = tr.update(&det2);
        assert_ne!(a[0].track_id, b[0].track_id);
    }

    #[test]
    fn confirmation_needs_min_hits() {
        let mut tr = SortTracker::new(TrackerParams {
            min_hits: 3,
            ..TrackerParams::default()
        });
        let u1 = tr.update(&[(boxes_at(100.0), "car")]);
        assert!(!u1[0].confirmed);
        let u2 = tr.update(&[(boxes_at(105.0), "car")]);
        assert!(!u2[0].confirmed);
        assert_eq!(u2[0].track_id, u1[0].track_id);
        let u3 = tr.update(&[(boxes_at(110.0), "car")]);
        assert!(u3[0].confirmed);
    }

    #[test]
    fn occlusion_gap_is_bridged() {
        let mut tr = SortTracker::new(TrackerParams {
            max_age: 10,
            ..TrackerParams::default()
        });
        let mut last_id = 0;
        for step in 0..10 {
            let up = tr.update(&[(boxes_at(50.0 + step as f32 * 5.0), "car")]);
            last_id = up[0].track_id;
        }
        // 5 missed frames (occlusion), object keeps moving.
        for _ in 0..5 {
            tr.update(&[]);
        }
        let up = tr.update(&[(boxes_at(50.0 + 15.0 * 5.0), "car")]);
        assert_eq!(
            up[0].track_id, last_id,
            "Kalman prediction should bridge the gap"
        );
    }

    #[test]
    fn stale_tracks_expire() {
        let mut tr = SortTracker::new(TrackerParams {
            max_age: 3,
            ..TrackerParams::default()
        });
        tr.update(&[(boxes_at(100.0), "car")]);
        assert_eq!(tr.live_tracks(), 1);
        for _ in 0..5 {
            tr.update(&[]);
        }
        assert_eq!(tr.live_tracks(), 0);
        let mut tr = SortTracker::new(TrackerParams {
            max_age: 3,
            ..TrackerParams::default()
        });
        let (mut updates, mut expired) = (Vec::new(), Vec::new());
        tr.update_into(&[(boxes_at(100.0), "car")], &mut updates, &mut expired);
        let id = updates[0].track_id;
        for age in 1..=6 {
            tr.update_into(&[], &mut updates, &mut expired);
            // Reported exactly once, on the update that drops the track.
            let want: &[TrackId] = if age >= 4 { &[id] } else { &[] };
            assert_eq!(expired, want, "age {age}");
        }
        // Same place later => a brand-new id.
        let up = tr.update(&[(boxes_at(100.0), "car")]);
        assert_ne!(up[0].track_id, id);
    }

    #[test]
    fn crossing_objects_keep_identities() {
        let mut tr = SortTracker::new(TrackerParams::default());
        let mut id_a = 0;
        let mut id_b = 0;
        // Two objects on parallel-ish lanes passing each other; IoU matching
        // plus prediction should keep them separate.
        for step in 0..40 {
            let x = step as f32 * 8.0;
            let a = BBox::from_center(Point::new(x, 100.0), 40.0, 20.0);
            let b = BBox::from_center(Point::new(320.0 - x, 140.0), 40.0, 20.0);
            let up = tr.update(&[(a, "car"), (b, "car")]);
            if step == 0 {
                id_a = up[0].track_id;
                id_b = up[1].track_id;
            } else {
                assert_eq!(up[0].track_id, id_a, "step {step}");
                assert_eq!(up[1].track_id, id_b, "step {step}");
            }
        }
    }

    /// Equality is the tracker's state: a clone (which drops the scratch
    /// buffers) equals its source, and one more or one fewer detection,
    /// or other parameters, make trackers differ.
    #[test]
    fn equal_trackers_are_in_the_same_state() {
        let mut a = SortTracker::new(TrackerParams::default());
        for step in 0..5 {
            a.update(&[(boxes_at(50.0 + step as f32 * 5.0), "car")]);
        }
        let b = a.clone();
        assert_eq!(a, b);
        let (mut extra, mut aged) = (a.clone(), a.clone());
        extra.update(&[(boxes_at(75.0), "car"), (boxes_at(400.0), "car")]);
        aged.update(&[(boxes_at(75.0), "car")]);
        assert_ne!(extra, aged, "another track");
        a.update(&[(boxes_at(75.0), "car")]);
        assert_eq!(a, aged);
        aged.update(&[]);
        assert_ne!(a, aged, "another age");
        let strict = TrackerParams {
            min_hits: 3,
            ..TrackerParams::default()
        };
        assert_ne!(
            SortTracker::new(strict),
            SortTracker::new(TrackerParams::default())
        );
    }
}
