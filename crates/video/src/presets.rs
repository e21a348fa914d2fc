//! Camera presets mirroring the paper's datasets (Table 3 and §5.1/§5.3).
//!
//! Each preset fixes resolution, frame rate, an intersection road layout
//! (routes in normalized coordinates), arrival rates, and attribute
//! distributions. The distributions matter for reproduction fidelity: §5.1
//! observes larger speedups for *green* vehicles than *black* ones because
//! green is rare, so the color weights below make green rare and black/white
//! common.

use crate::color::NamedColor;
use crate::entity::VehicleType;
use crate::geometry::Point;
use crate::trajectory::Direction;

/// What kind of traffic uses a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Vehicle lane with the overall turn the route makes.
    VehicleLane(Direction),
    /// Pedestrian path along the road.
    Sidewalk,
    /// Pedestrian path crossing the road (the "crosswalk" of §5.3 Q1).
    Crosswalk,
}

/// A path template in normalized `[0, 1]^2` coordinates (scaled by the
/// preset resolution when instantiated).
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    pub name: &'static str,
    pub kind: RouteKind,
    pub waypoints: Vec<(f32, f32)>,
}

impl Route {
    /// Scales normalized waypoints to full-resolution pixel points.
    pub fn scaled(&self, width: f32, height: f32) -> Vec<Point> {
        self.waypoints
            .iter()
            .map(|&(x, y)| Point::new(x * width, y * height))
            .collect()
    }
}

/// A weighted discrete distribution (weights need not sum to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Weighted<T> {
    pub entries: Vec<(T, f32)>,
}

impl<T: Copy> Weighted<T> {
    /// Samples an entry using a uniform draw `u` in `[0, 1)`.
    pub fn sample(&self, u: f32) -> T {
        let total: f32 = self.entries.iter().map(|(_, w)| *w).sum();
        let mut x = u * total;
        for (v, w) in &self.entries {
            if x < *w {
                return *v;
            }
            x -= w;
        }
        self.entries[self.entries.len() - 1].0
    }

    /// The probability mass of entries matching `pred`.
    pub fn mass_where(&self, pred: impl Fn(&T) -> bool) -> f32 {
        let total: f32 = self.entries.iter().map(|(_, w)| *w).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.entries
            .iter()
            .filter(|(v, _)| pred(v))
            .map(|(_, w)| *w)
            .sum::<f32>()
            / total
    }
}

/// Full description of a simulated camera and the traffic it sees.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraPreset {
    pub name: &'static str,
    pub width: u32,
    pub height: u32,
    pub fps: u32,
    /// Pixel buffer downscale factor (buffer = resolution / scale).
    pub render_scale: u32,
    /// Poisson arrival rate of vehicles (per second).
    pub vehicle_rate: f64,
    /// Poisson arrival rate of pedestrians (per second).
    pub person_rate: f64,
    /// Seconds a vehicle takes to traverse its route, uniform in this range.
    pub vehicle_crossing_secs: (f64, f64),
    /// Seconds a pedestrian takes to traverse its route.
    pub person_crossing_secs: (f64, f64),
    /// Fraction of vehicles that drive markedly faster ("speeding").
    pub speeder_fraction: f32,
    /// Multiplier applied to a speeder's crossing time (< 1 = faster).
    pub speeder_time_factor: f64,
    pub vehicle_colors: Weighted<NamedColor>,
    pub person_colors: Weighted<NamedColor>,
    pub vehicle_types: Weighted<VehicleType>,
    pub turns: Weighted<Direction>,
    pub routes: Vec<Route>,
    pub is_day: bool,
    /// Probability that a pedestrian is accompanied by a ball.
    pub ball_spawn_prob: f32,
    /// Probability that a person with a ball actually hits it (scripted
    /// `PersonHitsBall` event); keeps interaction positives rare like
    /// V-COCO's 4.9% positive rate in Table 6.
    pub hit_prob: f32,
    /// Probability that a pedestrian loiters (stands still) instead of
    /// walking a route; used by the loitering use case of §5.4.
    pub loiter_prob: f32,
}

impl CameraPreset {
    /// Full-resolution viewport diagonal; used to scale distance thresholds.
    pub fn diagonal(&self) -> f32 {
        ((self.width * self.width + self.height * self.height) as f32).sqrt()
    }

    /// Scale factor for nominal entity sizes (1.0 at 1080p).
    pub fn size_scale(&self) -> f32 {
        self.height as f32 / 1080.0
    }

    /// A speed threshold (pixels per frame) that separates "speeding"
    /// vehicles from normal traffic on this preset.
    ///
    /// Normal vehicles traverse ~1.2 viewport widths in
    /// `vehicle_crossing_secs`; speeders do it `1/speeder_time_factor`
    /// times faster. The threshold sits between the fastest normal vehicle
    /// and the slowest speeder.
    pub fn speeding_threshold_px_per_frame(&self) -> f32 {
        let path = 1.2 * self.width as f32;
        let fastest_normal = path / (self.vehicle_crossing_secs.0 as f32 * self.fps as f32);
        let slowest_speeder = path
            / ((self.vehicle_crossing_secs.1 * self.speeder_time_factor) as f32 * self.fps as f32);
        (fastest_normal + slowest_speeder) / 2.0
    }

    /// Routes of the given kind.
    pub fn routes_of(&self, kind_matches: impl Fn(&RouteKind) -> bool) -> Vec<&Route> {
        self.routes
            .iter()
            .filter(|r| kind_matches(&r.kind))
            .collect()
    }
}

/// Standard intersection routes: 4 approaches x {straight, left, right} for
/// vehicles, 2 sidewalks, and 1 crosswalk.
fn intersection_routes() -> Vec<Route> {
    use Direction::*;
    use RouteKind::*;
    // Horizontal road: eastbound lane y=0.58, westbound y=0.50.
    // Vertical road: southbound x=0.46, northbound x=0.54.
    vec![
        Route {
            name: "east_straight",
            kind: VehicleLane(Straight),
            waypoints: vec![(-0.10, 0.58), (1.10, 0.58)],
        },
        Route {
            name: "east_left",
            kind: VehicleLane(Left),
            waypoints: vec![(-0.10, 0.58), (0.54, 0.58), (0.54, -0.10)],
        },
        Route {
            name: "east_right",
            kind: VehicleLane(Right),
            waypoints: vec![(-0.10, 0.58), (0.46, 0.58), (0.46, 1.10)],
        },
        Route {
            name: "west_straight",
            kind: VehicleLane(Straight),
            waypoints: vec![(1.10, 0.50), (-0.10, 0.50)],
        },
        Route {
            name: "west_left",
            kind: VehicleLane(Left),
            waypoints: vec![(1.10, 0.50), (0.46, 0.50), (0.46, 1.10)],
        },
        Route {
            name: "west_right",
            kind: VehicleLane(Right),
            waypoints: vec![(1.10, 0.50), (0.54, 0.50), (0.54, -0.10)],
        },
        Route {
            name: "south_straight",
            kind: VehicleLane(Straight),
            waypoints: vec![(0.46, -0.10), (0.46, 1.10)],
        },
        Route {
            name: "south_left",
            kind: VehicleLane(Left),
            waypoints: vec![(0.46, -0.10), (0.46, 0.58), (1.10, 0.58)],
        },
        Route {
            name: "south_right",
            kind: VehicleLane(Right),
            waypoints: vec![(0.46, -0.10), (0.46, 0.50), (-0.10, 0.50)],
        },
        Route {
            name: "north_straight",
            kind: VehicleLane(Straight),
            waypoints: vec![(0.54, 1.10), (0.54, -0.10)],
        },
        Route {
            name: "north_left",
            kind: VehicleLane(Left),
            waypoints: vec![(0.54, 1.10), (0.54, 0.50), (-0.10, 0.50)],
        },
        Route {
            name: "north_right",
            kind: VehicleLane(Right),
            waypoints: vec![(0.54, 1.10), (0.54, 0.58), (1.10, 0.58)],
        },
        Route {
            name: "sidewalk_north",
            kind: Sidewalk,
            waypoints: vec![(-0.05, 0.42), (1.05, 0.42)],
        },
        Route {
            name: "sidewalk_south",
            kind: Sidewalk,
            waypoints: vec![(1.05, 0.68), (-0.05, 0.68)],
        },
        Route {
            name: "crosswalk",
            kind: Crosswalk,
            waypoints: vec![(0.36, 0.40), (0.36, 0.70)],
        },
    ]
}

/// CityFlow-NL-like vehicle colors: black/white/gray common, green rare.
fn cityflow_vehicle_colors() -> Weighted<NamedColor> {
    Weighted {
        entries: vec![
            (NamedColor::Black, 0.24),
            (NamedColor::White, 0.24),
            (NamedColor::Gray, 0.16),
            (NamedColor::Silver, 0.10),
            (NamedColor::Red, 0.09),
            (NamedColor::Blue, 0.08),
            (NamedColor::Green, 0.03),
            (NamedColor::Yellow, 0.02),
            (NamedColor::Orange, 0.02),
            (NamedColor::Brown, 0.02),
        ],
    }
}

fn person_colors() -> Weighted<NamedColor> {
    Weighted {
        entries: vec![
            (NamedColor::Blue, 0.2),
            (NamedColor::Black, 0.2),
            (NamedColor::White, 0.15),
            (NamedColor::Red, 0.15),
            (NamedColor::Gray, 0.1),
            (NamedColor::Green, 0.1),
            (NamedColor::Yellow, 0.1),
        ],
    }
}

fn vehicle_types() -> Weighted<VehicleType> {
    Weighted {
        entries: vec![
            (VehicleType::Sedan, 0.45),
            (VehicleType::Suv, 0.28),
            (VehicleType::Van, 0.12),
            (VehicleType::Truck, 0.10),
            (VehicleType::Bus, 0.05),
        ],
    }
}

fn turn_weights() -> Weighted<Direction> {
    Weighted {
        entries: vec![
            (Direction::Straight, 0.68),
            (Direction::Left, 0.16),
            (Direction::Right, 0.16),
        ],
    }
}

fn base_preset(
    name: &'static str,
    width: u32,
    height: u32,
    fps: u32,
    vehicle_rate: f64,
    person_rate: f64,
) -> CameraPreset {
    CameraPreset {
        name,
        width,
        height,
        fps,
        render_scale: 8,
        vehicle_rate,
        person_rate,
        vehicle_crossing_secs: (7.0, 14.0),
        person_crossing_secs: (12.0, 25.0),
        speeder_fraction: 0.18,
        speeder_time_factor: 0.40,
        vehicle_colors: cityflow_vehicle_colors(),
        person_colors: person_colors(),
        vehicle_types: vehicle_types(),
        turns: turn_weights(),
        routes: intersection_routes(),
        is_day: true,
        ball_spawn_prob: 0.0,
        hit_prob: 0.0,
        loiter_prob: 0.08,
    }
}

/// Banff, Canada live cam (Table 3): 15 fps, 1280x720.
pub fn banff() -> CameraPreset {
    base_preset("banff", 1280, 720, 15, 0.55, 0.35)
}

/// Jackson Hole, WY town square (Table 3): 15 fps, 1920x1080.
pub fn jackson() -> CameraPreset {
    base_preset("jackson", 1920, 1080, 15, 0.70, 0.50)
}

/// Southampton, NY traffic cam (Table 3): 30 fps, 1920x1080.
pub fn southampton() -> CameraPreset {
    base_preset("southampton", 1920, 1080, 30, 0.80, 0.30)
}

/// Auburn Toomer's Corner webcam (§5.3): busy crossroad with a crosswalk.
pub fn auburn() -> CameraPreset {
    let mut p = base_preset("auburn", 1920, 1080, 15, 0.60, 0.25);
    p.turns = Weighted {
        entries: vec![
            (Direction::Straight, 0.55),
            (Direction::Left, 0.25),
            (Direction::Right, 0.20),
        ],
    };
    p
}

/// CityFlow-NL-style traffic footage (§5.1): 10 fps, 960p minimum.
pub fn cityflow() -> CameraPreset {
    let mut p = base_preset("cityflow", 1280, 960, 10, 0.75, 0.25);
    p.vehicle_crossing_secs = (6.0, 12.0);
    p
}

/// Person/ball interaction clips standing in for V-COCO (§5.3 Q6): sparse
/// scenes where a small fraction of clips contain a person hitting a ball.
pub fn interaction_clips() -> CameraPreset {
    let mut p = base_preset("interaction", 1280, 720, 10, 0.05, 0.45);
    p.person_crossing_secs = (6.0, 14.0);
    p.ball_spawn_prob = 0.5;
    p.hit_prob = 0.5;
    p.loiter_prob = 0.02;
    p
}

/// All presets keyed by name.
pub fn by_name(name: &str) -> Option<CameraPreset> {
    match name {
        "banff" => Some(banff()),
        "jackson" => Some(jackson()),
        "southampton" => Some(southampton()),
        "auburn" => Some(auburn()),
        "cityflow" => Some(cityflow()),
        "interaction" => Some(interaction_clips()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters() {
        assert_eq!(banff().fps, 15);
        assert_eq!((banff().width, banff().height), (1280, 720));
        assert_eq!(jackson().fps, 15);
        assert_eq!((jackson().width, jackson().height), (1920, 1080));
        assert_eq!(southampton().fps, 30);
        assert_eq!((southampton().width, southampton().height), (1920, 1080));
    }

    #[test]
    fn green_is_rare_black_is_common() {
        let colors = cityflow().vehicle_colors;
        let green = colors.mass_where(|c| *c == NamedColor::Green);
        let black = colors.mass_where(|c| *c == NamedColor::Black);
        assert!(green < 0.05, "green must be rare, got {green}");
        assert!(black > 0.2, "black must be common, got {black}");
    }

    #[test]
    fn weighted_sampling_is_exhaustive() {
        let w = turn_weights();
        // Sampling over a dense grid hits every entry.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(w.sample(i as f32 / 1000.0));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn speeding_threshold_separates_populations() {
        let p = jackson();
        let thr = p.speeding_threshold_px_per_frame();
        let path = 1.2 * p.width as f32;
        let typical_normal = path / (p.vehicle_crossing_secs.1 as f32 * p.fps as f32);
        let typical_speeder =
            path / ((p.vehicle_crossing_secs.0 * p.speeder_time_factor) as f32 * p.fps as f32);
        assert!(typical_normal < thr, "{typical_normal} !< {thr}");
        assert!(typical_speeder > thr, "{typical_speeder} !> {thr}");
    }

    #[test]
    fn routes_cover_all_kinds() {
        let p = banff();
        assert!(!p
            .routes_of(|k| matches!(k, RouteKind::VehicleLane(_)))
            .is_empty());
        assert!(!p.routes_of(|k| *k == RouteKind::Sidewalk).is_empty());
        assert!(!p.routes_of(|k| *k == RouteKind::Crosswalk).is_empty());
    }

    #[test]
    fn by_name_roundtrip() {
        for name in [
            "banff",
            "jackson",
            "southampton",
            "auburn",
            "cityflow",
            "interaction",
        ] {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("nope").is_none());
    }
}
