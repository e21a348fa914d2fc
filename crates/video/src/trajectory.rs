//! Waypoint-based trajectories with linear interpolation.
//!
//! A [`Trajectory`] is a time-ordered list of waypoints; an entity following
//! it is *active* between the first and last waypoint times, and its position
//! at any instant is the linear interpolation between the surrounding
//! waypoints. Velocity is the analytic segment slope, which gives the scene
//! simulator exact per-frame ground-truth speed.

use crate::geometry::Point;

/// One timed position sample of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Seconds since the start of the video.
    pub t: f64,
    /// Position (full-resolution pixels) of the entity center.
    pub pos: Point,
}

/// Coarse motion classification of a trajectory (used as the ground-truth
/// `direction` attribute that queries like "black suv turn right" test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    Straight,
    Left,
    Right,
}

impl Direction {
    /// Lowercase name used in query predicates.
    pub fn as_str(&self) -> &'static str {
        match self {
            Direction::Straight => "straight",
            Direction::Left => "left",
            Direction::Right => "right",
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A piecewise-linear, time-parameterized path.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    waypoints: Vec<Waypoint>,
}

impl Trajectory {
    /// Builds a trajectory from waypoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one waypoint is given or if waypoint times are
    /// not strictly increasing.
    pub fn from_waypoints(waypoints: Vec<Waypoint>) -> Self {
        assert!(!waypoints.is_empty(), "trajectory needs >= 1 waypoint");
        for w in waypoints.windows(2) {
            assert!(
                w[1].t > w[0].t,
                "waypoint times must be strictly increasing"
            );
        }
        Self { waypoints }
    }

    /// Straight-line motion from `a` (at `t0`) to `b` (at `t1`).
    pub fn linear(a: Point, b: Point, t0: f64, t1: f64) -> Self {
        Self::from_waypoints(vec![Waypoint { t: t0, pos: a }, Waypoint { t: t1, pos: b }])
    }

    /// An entity that stays at `pos` for `[t0, t1]`.
    pub fn stationary(pos: Point, t0: f64, t1: f64) -> Self {
        Self::from_waypoints(vec![
            Waypoint { t: t0, pos },
            Waypoint {
                t: t1,
                pos: pos.offset(0.01, 0.01),
            },
        ])
    }

    /// Time the entity enters the scene.
    pub fn start_time(&self) -> f64 {
        self.waypoints[0].t
    }

    /// Time the entity leaves the scene.
    pub fn end_time(&self) -> f64 {
        self.waypoints[self.waypoints.len() - 1].t
    }

    /// Duration the entity is active.
    pub fn duration(&self) -> f64 {
        self.end_time() - self.start_time()
    }

    /// The waypoints, in time order.
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.waypoints
    }

    /// Position at time `t`, or `None` outside the active window.
    pub fn position_at(&self, t: f64) -> Option<Point> {
        if t < self.start_time() || t > self.end_time() {
            return None;
        }
        if self.waypoints.len() == 1 {
            return Some(self.waypoints[0].pos);
        }
        // Find the segment containing t.
        let idx = self
            .waypoints
            .windows(2)
            .position(|w| t >= w[0].t && t <= w[1].t)?;
        let a = &self.waypoints[idx];
        let b = &self.waypoints[idx + 1];
        let frac = ((t - a.t) / (b.t - a.t)) as f32;
        Some(a.pos.lerp(&b.pos, frac))
    }

    /// Analytic velocity (pixels per second) at time `t`, or `None` outside
    /// the active window. On a waypoint boundary the following segment wins.
    pub fn velocity_at(&self, t: f64) -> Option<Point> {
        if t < self.start_time() || t > self.end_time() || self.waypoints.len() < 2 {
            return None;
        }
        let idx = self
            .waypoints
            .windows(2)
            .position(|w| t >= w[0].t && t < w[1].t)
            .unwrap_or(self.waypoints.len() - 2);
        let a = &self.waypoints[idx];
        let b = &self.waypoints[idx + 1];
        let dt = (b.t - a.t) as f32;
        Some(Point::new(
            (b.pos.x - a.pos.x) / dt,
            (b.pos.y - a.pos.y) / dt,
        ))
    }

    /// Classifies the trajectory's overall turn by comparing the heading of
    /// the first and last segments.
    ///
    /// A signed heading change below 30 degrees counts as
    /// [`Direction::Straight`]; larger changes are classified by sign using
    /// screen coordinates (y grows downward, so a positive cross product is a
    /// *right* turn from the driver's perspective).
    pub fn direction(&self) -> Direction {
        if self.waypoints.len() < 2 {
            return Direction::Straight;
        }
        let first = (
            self.waypoints[1].pos.x - self.waypoints[0].pos.x,
            self.waypoints[1].pos.y - self.waypoints[0].pos.y,
        );
        let n = self.waypoints.len();
        let last = (
            self.waypoints[n - 1].pos.x - self.waypoints[n - 2].pos.x,
            self.waypoints[n - 1].pos.y - self.waypoints[n - 2].pos.y,
        );
        let cross = first.0 * last.1 - first.1 * last.0;
        let dot = first.0 * last.0 + first.1 * last.1;
        let angle = cross.atan2(dot); // signed heading change in radians
        let threshold = 30f32.to_radians();
        if angle.abs() < threshold {
            Direction::Straight
        } else if angle > 0.0 {
            // Screen coordinates: y grows downward, so positive cross =
            // clockwise on screen = a right turn for the moving entity.
            Direction::Right
        } else {
            Direction::Left
        }
    }

    /// Total path length in pixels.
    pub fn path_length(&self) -> f32 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].pos.distance(&w[1].pos))
            .sum()
    }

    /// Average speed in pixels per second over the active window.
    pub fn mean_speed(&self) -> f32 {
        let d = self.duration();
        if d <= 0.0 {
            0.0
        } else {
            self.path_length() / d as f32
        }
    }

    /// Returns a copy shifted in time by `dt` seconds.
    pub fn shifted(&self, dt: f64) -> Trajectory {
        Trajectory {
            waypoints: self
                .waypoints
                .iter()
                .map(|w| Waypoint {
                    t: w.t + dt,
                    pos: w.pos,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolates() {
        let tr = Trajectory::linear(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 0.0, 10.0);
        let mid = tr.position_at(5.0).unwrap();
        assert!((mid.x - 50.0).abs() < 1e-4);
        assert!(tr.position_at(-1.0).is_none());
        assert!(tr.position_at(11.0).is_none());
    }

    #[test]
    fn velocity_is_segment_slope() {
        let tr = Trajectory::linear(Point::new(0.0, 0.0), Point::new(100.0, 50.0), 0.0, 10.0);
        let v = tr.velocity_at(3.0).unwrap();
        assert!((v.x - 10.0).abs() < 1e-4);
        assert!((v.y - 5.0).abs() < 1e-4);
        // End of window still yields the final segment's velocity.
        let v_end = tr.velocity_at(10.0).unwrap();
        assert!((v_end.x - 10.0).abs() < 1e-4);
    }

    #[test]
    fn straight_path_is_straight() {
        let tr = Trajectory::linear(Point::new(0.0, 500.0), Point::new(1000.0, 500.0), 0.0, 10.0);
        assert_eq!(tr.direction(), Direction::Straight);
    }

    #[test]
    fn turns_are_classified_in_screen_coords() {
        // Heading east, then turning to head south (downwards on screen):
        // that is a right turn for the vehicle.
        let right = Trajectory::from_waypoints(vec![
            Waypoint {
                t: 0.0,
                pos: Point::new(0.0, 500.0),
            },
            Waypoint {
                t: 5.0,
                pos: Point::new(500.0, 500.0),
            },
            Waypoint {
                t: 10.0,
                pos: Point::new(500.0, 1000.0),
            },
        ]);
        assert_eq!(right.direction(), Direction::Right);

        // Heading east, then turning to head north (up on screen): left turn.
        let left = Trajectory::from_waypoints(vec![
            Waypoint {
                t: 0.0,
                pos: Point::new(0.0, 500.0),
            },
            Waypoint {
                t: 5.0,
                pos: Point::new(500.0, 500.0),
            },
            Waypoint {
                t: 10.0,
                pos: Point::new(500.0, 0.0),
            },
        ]);
        assert_eq!(left.direction(), Direction::Left);
    }

    #[test]
    fn shifted_preserves_shape() {
        let tr = Trajectory::linear(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 0.0, 1.0);
        let sh = tr.shifted(5.0);
        assert_eq!(sh.start_time(), 5.0);
        assert_eq!(sh.end_time(), 6.0);
        assert_eq!(sh.path_length(), tr.path_length());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unordered_waypoints() {
        let _ = Trajectory::from_waypoints(vec![
            Waypoint {
                t: 1.0,
                pos: Point::new(0.0, 0.0),
            },
            Waypoint {
                t: 0.5,
                pos: Point::new(1.0, 0.0),
            },
        ]);
    }

    #[test]
    fn mean_speed_matches_linear() {
        let tr = Trajectory::linear(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 0.0, 10.0);
        assert!((tr.mean_speed() - 10.0).abs() < 1e-4);
    }
}
