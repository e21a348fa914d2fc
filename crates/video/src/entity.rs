//! Scene entities: vehicles, persons, and balls, with their ground-truth
//! attributes.
//!
//! These are the "video objects" the whole system queries for. The simulator
//! places them on trajectories; the model zoo observes them through noisy
//! simulated inference; VQPy and the baselines never read entity attributes
//! directly, only through models.

use crate::color::NamedColor;
use crate::geometry::{BBox, Point};
use crate::trajectory::{Direction, Trajectory};

/// Unique (per scene) entity identifier.
pub type EntityId = u64;

/// Vehicle body styles; `"sedan"`, `"suv"` etc. in query predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VehicleType {
    Sedan,
    Suv,
    Bus,
    Truck,
    Van,
}

impl VehicleType {
    pub const ALL: [VehicleType; 5] = [
        VehicleType::Sedan,
        VehicleType::Suv,
        VehicleType::Bus,
        VehicleType::Truck,
        VehicleType::Van,
    ];

    /// Lowercase name used in query predicates.
    pub fn as_str(&self) -> &'static str {
        match self {
            VehicleType::Sedan => "sedan",
            VehicleType::Suv => "suv",
            VehicleType::Bus => "bus",
            VehicleType::Truck => "truck",
            VehicleType::Van => "van",
        }
    }

    /// COCO-style detector class label emitted for this body style.
    pub fn detector_label(&self) -> &'static str {
        match self {
            VehicleType::Bus => "bus",
            VehicleType::Truck => "truck",
            _ => "car",
        }
    }

    /// Nominal full-resolution size (width, height) in pixels for a 1080p
    /// camera; presets scale this by resolution.
    pub fn nominal_size(&self) -> (f32, f32) {
        match self {
            VehicleType::Sedan => (120.0, 55.0),
            VehicleType::Suv => (130.0, 70.0),
            VehicleType::Bus => (260.0, 95.0),
            VehicleType::Truck => (220.0, 90.0),
            VehicleType::Van => (150.0, 75.0),
        }
    }
}

impl std::fmt::Display for VehicleType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a person is doing; ground truth for action queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersonAction {
    Walking,
    Standing,
    Running,
    HittingBall,
}

impl PersonAction {
    pub fn as_str(&self) -> &'static str {
        match self {
            PersonAction::Walking => "walking",
            PersonAction::Standing => "standing",
            PersonAction::Running => "running",
            PersonAction::HittingBall => "hitting_ball",
        }
    }
}

/// Ground-truth attributes of a vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleAttrs {
    pub color: NamedColor,
    pub vtype: VehicleType,
    /// License plate, e.g. `"7KXR245"`.
    pub plate: String,
}

/// Ground-truth attributes of a person.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonAttrs {
    pub shirt_color: NamedColor,
    pub action: PersonAction,
    /// Whether the person carries a bag (used by unattended-bag style
    /// queries and by re-identification features).
    pub carrying_bag: bool,
}

/// Ground-truth attributes of a ball.
#[derive(Debug, Clone, PartialEq)]
pub struct BallAttrs {
    pub color: NamedColor,
}

/// Per-kind attribute payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EntityAttrs {
    Vehicle(VehicleAttrs),
    Person(PersonAttrs),
    Ball(BallAttrs),
}

impl EntityAttrs {
    /// Detector class label for the entity ("car", "bus", "truck",
    /// "person", or "ball").
    pub fn class_label(&self) -> &'static str {
        match self {
            EntityAttrs::Vehicle(v) => v.vtype.detector_label(),
            EntityAttrs::Person(_) => "person",
            EntityAttrs::Ball(_) => "ball",
        }
    }

    /// The color rendered into pixels for this entity.
    pub fn render_color(&self) -> NamedColor {
        match self {
            EntityAttrs::Vehicle(v) => v.color,
            EntityAttrs::Person(p) => p.shirt_color,
            EntityAttrs::Ball(b) => b.color,
        }
    }

    /// Vehicle attributes if this is a vehicle.
    pub fn as_vehicle(&self) -> Option<&VehicleAttrs> {
        match self {
            EntityAttrs::Vehicle(v) => Some(v),
            _ => None,
        }
    }

    /// Person attributes if this is a person.
    pub fn as_person(&self) -> Option<&PersonAttrs> {
        match self {
            EntityAttrs::Person(p) => Some(p),
            _ => None,
        }
    }
}

/// A scene entity: identity, attributes, motion, and footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    pub id: EntityId,
    pub attrs: EntityAttrs,
    pub trajectory: Trajectory,
    /// Footprint (full-resolution pixels) of the rendered body.
    pub width: f32,
    pub height: f32,
    /// Render order; larger z draws on top.
    pub z: u8,
}

impl Entity {
    /// Detector class label ("car", "bus", "truck", "person", "ball").
    pub fn class_label(&self) -> &'static str {
        self.attrs.class_label()
    }

    /// Ground-truth overall turn direction of the trajectory.
    pub fn direction(&self) -> Direction {
        self.trajectory.direction()
    }

    /// Bounding box at time `t`, or `None` when inactive.
    pub fn bbox_at(&self, t: f64) -> Option<BBox> {
        let pos = self.trajectory.position_at(t)?;
        Some(BBox::from_center(pos, self.width, self.height))
    }

    /// Ground-truth velocity (pixels/second) at time `t`.
    pub fn velocity_at(&self, t: f64) -> Option<Point> {
        self.trajectory.velocity_at(t)
    }

    /// Whether the entity is active (on its trajectory) at time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.trajectory.start_time() && t <= self.trajectory.end_time()
    }
}

/// Generates a plausible license plate from a seed, deterministically.
pub fn plate_from_seed(seed: u64) -> String {
    const LETTERS: &[u8] = b"ABCDEFGHJKLMNPRSTUVWXYZ";
    let mut s = String::with_capacity(7);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    s.push(char::from(b'0' + (next() % 10) as u8));
    for _ in 0..3 {
        s.push(char::from(
            LETTERS[(next() % LETTERS.len() as u64) as usize],
        ));
    }
    for _ in 0..3 {
        s.push(char::from(b'0' + (next() % 10) as u8));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vehicle() -> Entity {
        Entity {
            id: 1,
            attrs: EntityAttrs::Vehicle(VehicleAttrs {
                color: NamedColor::Red,
                vtype: VehicleType::Sedan,
                plate: plate_from_seed(1),
            }),
            trajectory: Trajectory::linear(
                Point::new(0.0, 500.0),
                Point::new(1000.0, 500.0),
                0.0,
                10.0,
            ),
            width: 120.0,
            height: 55.0,
            z: 1,
        }
    }

    #[test]
    fn class_labels() {
        let v = sample_vehicle();
        assert_eq!(v.class_label(), "car");
        assert_eq!(VehicleType::Bus.detector_label(), "bus");
        assert_eq!(VehicleType::Truck.detector_label(), "truck");
    }

    #[test]
    fn bbox_follows_trajectory() {
        let v = sample_vehicle();
        let b = v.bbox_at(5.0).unwrap();
        let c = b.center();
        assert!((c.x - 500.0).abs() < 1e-3);
        assert!((c.y - 500.0).abs() < 1e-3);
        assert!(v.bbox_at(20.0).is_none());
    }

    #[test]
    fn plates_are_deterministic_and_distinct() {
        assert_eq!(plate_from_seed(42), plate_from_seed(42));
        assert_ne!(plate_from_seed(1), plate_from_seed(2));
        let p = plate_from_seed(7);
        assert_eq!(p.len(), 7);
        assert!(p.chars().next().unwrap().is_ascii_digit());
    }

    #[test]
    fn render_color_matches_attrs() {
        let v = sample_vehicle();
        assert_eq!(v.attrs.render_color(), NamedColor::Red);
    }
}
