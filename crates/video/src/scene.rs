//! Scene construction and per-frame ground truth.
//!
//! A [`Scene`] is the complete, deterministic description of everything a
//! camera will see: entities with trajectories and attributes, plus scripted
//! events. [`Scene::generate`] synthesizes realistic traffic from a
//! [`CameraPreset`] and a seed; [`SceneBuilder`] scripts exact scenarios for
//! examples and tests. [`Scene::truth_at`] computes the frame-level answer
//! key that accuracy scoring uses.

use crate::color::NamedColor;
use crate::entity::{
    plate_from_seed, BallAttrs, Entity, EntityAttrs, EntityId, PersonAction, PersonAttrs,
    VehicleAttrs, VehicleType,
};
use crate::events::{Interaction, InteractionKind, ScriptedEvent};
use crate::geometry::{BBox, Point};
use crate::presets::{CameraPreset, Route, RouteKind};
use crate::trajectory::{Direction, Trajectory, Waypoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// An entity visible on a specific frame, with its ground-truth state.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibleEntity {
    pub entity: EntityId,
    /// Detector class label: "car", "bus", "truck", "person", "ball".
    pub class_label: &'static str,
    /// Bounding box clamped to the viewport.
    pub bbox: BBox,
    /// Ground-truth displacement per frame (pixels/frame).
    pub velocity: Point,
    /// Ground-truth attributes.
    pub attrs: EntityAttrs,
    /// Overall turn direction of the entity's full trajectory.
    pub direction: Direction,
    /// Draw order: higher `z` is drawn over lower.
    pub z: u8,
}

impl VisibleEntity {
    /// Speed in pixels per frame.
    pub fn speed(&self) -> f32 {
        self.velocity.norm()
    }
}

/// Frame-level scene attributes (the paper's special `Scene` VObj).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneAttrs {
    pub is_day: bool,
}

/// The complete ground truth for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    pub frame: u64,
    pub time_s: f64,
    pub visible: Vec<VisibleEntity>,
    pub interactions: Vec<Interaction>,
    pub scene: SceneAttrs,
}

impl GroundTruth {
    /// Visible entities with the given class label.
    pub fn of_class<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a VisibleEntity> {
        self.visible.iter().filter(move |v| v.class_label == label)
    }

    /// Looks up a visible entity by id.
    pub fn entity(&self, id: EntityId) -> Option<&VisibleEntity> {
        self.visible.iter().find(|v| v.entity == id)
    }

    /// Whether an interaction of `kind` is ground truth on this frame.
    pub fn has_interaction(&self, kind: InteractionKind) -> bool {
        self.interactions.iter().any(|i| i.kind == kind)
    }
}

/// A fully specified, deterministic scene.
#[derive(Debug, Clone)]
pub struct Scene {
    pub preset: CameraPreset,
    pub duration_s: f64,
    entities: Vec<Entity>,
    events: Vec<ScriptedEvent>,
    /// The rendered background, built by the first decode (see
    /// [`crate::render`]). A clone taken after that shares the bytes.
    pub(crate) background: OnceLock<Arc<[u8]>>,
}

impl Scene {
    /// Number of frames in the scene's video.
    pub fn frame_count(&self) -> u64 {
        (self.duration_s * self.preset.fps as f64).floor() as u64
    }

    /// All entities (including ones never visible).
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// All scripted events.
    pub fn events(&self) -> &[ScriptedEvent] {
        &self.events
    }

    /// Looks up an entity by id.
    pub fn entity(&self, id: EntityId) -> Option<&Entity> {
        self.entities.iter().find(|e| e.id == id)
    }

    /// The timestamp of frame `frame`.
    pub fn frame_time(&self, frame: u64) -> f64 {
        frame as f64 / self.preset.fps as f64
    }

    /// Computes the ground truth for frame `frame`.
    pub fn truth_at(&self, frame: u64) -> GroundTruth {
        let t = self.frame_time(frame);
        let w = self.preset.width as f32;
        let h = self.preset.height as f32;
        let fps = self.preset.fps as f32;
        let mut visible = Vec::new();
        for e in &self.entities {
            if !e.active_at(t) {
                continue;
            }
            let Some(raw) = e.bbox_at(t) else { continue };
            let Some(bbox) = raw.clamp_to(w, h) else {
                continue;
            };
            let vel = e.velocity_at(t).unwrap_or_default();
            visible.push(VisibleEntity {
                entity: e.id,
                class_label: e.class_label(),
                bbox,
                velocity: Point::new(vel.x / fps, vel.y / fps),
                attrs: e.attrs.clone(),
                direction: e.direction(),
                z: e.z,
            });
        }
        let interactions = self
            .events
            .iter()
            .filter(|ev| ev.active_at(t))
            .filter(|ev| {
                visible.iter().any(|v| v.entity == ev.subject)
                    && visible.iter().any(|v| v.entity == ev.object)
            })
            .map(|ev| Interaction {
                kind: ev.kind,
                subject: ev.subject,
                object: ev.object,
            })
            .collect();
        GroundTruth {
            frame,
            time_s: t,
            visible,
            interactions,
            scene: SceneAttrs {
                is_day: self.preset.is_day,
            },
        }
    }

    /// Region covered by the crosswalk route where it crosses the road
    /// (clipped to the road band so sidewalk traffic does not count).
    /// Used as ground truth for "people passing the crosswalk" (§5.3 Q1).
    pub fn crosswalk_region(&self) -> BBox {
        let full = self.route_region(|k| *k == RouteKind::Crosswalk, 0.04);
        let h = self.preset.height as f32;
        // The horizontal road band of the standard intersection layout.
        BBox::new(
            full.x1,
            (0.46 * h).max(full.y1),
            full.x2,
            (0.64 * h).min(full.y2),
        )
    }

    /// The central intersection box where the roads cross ("cars on the
    /// crossing", §5.3 Q4).
    pub fn intersection_region(&self) -> BBox {
        let w = self.preset.width as f32;
        let h = self.preset.height as f32;
        BBox::new(0.38 * w, 0.42 * h, 0.62 * w, 0.66 * h)
    }

    fn route_region(&self, kind: impl Fn(&RouteKind) -> bool, margin_frac: f32) -> BBox {
        let w = self.preset.width as f32;
        let h = self.preset.height as f32;
        let mut x1 = f32::MAX;
        let mut y1 = f32::MAX;
        let mut x2 = f32::MIN;
        let mut y2 = f32::MIN;
        for r in &self.preset.routes {
            if !kind(&r.kind) {
                continue;
            }
            for p in r.scaled(w, h) {
                x1 = x1.min(p.x);
                y1 = y1.min(p.y);
                x2 = x2.max(p.x);
                y2 = y2.max(p.y);
            }
        }
        if x1 > x2 {
            return BBox::new(0.0, 0.0, 0.0, 0.0);
        }
        let mx = margin_frac * w;
        let my = margin_frac * h;
        BBox::new(x1 - mx, y1 - my, x2 + mx, y2 + my)
    }

    /// Synthesizes a scene of `duration_s` seconds of traffic from `preset`,
    /// deterministically for a given `seed`.
    pub fn generate(preset: CameraPreset, seed: u64, duration_s: f64) -> Scene {
        let mut b = SceneBuilder::new(preset, duration_s);
        let mut rng = StdRng::seed_from_u64(seed);
        b.generate_traffic(&mut rng);
        b.build()
    }
}

/// Samples an exponential inter-arrival gap for a Poisson process.
fn exp_gap(rng: &mut StdRng, rate_per_s: f64) -> f64 {
    if rate_per_s <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(1e-9..1.0);
    -u.ln() / rate_per_s
}

/// Incremental scene construction; also the engine behind [`Scene::generate`].
#[derive(Debug)]
pub struct SceneBuilder {
    preset: CameraPreset,
    duration_s: f64,
    entities: Vec<Entity>,
    events: Vec<ScriptedEvent>,
    next_id: EntityId,
}

impl SceneBuilder {
    /// Starts an empty scene for the given camera.
    pub fn new(preset: CameraPreset, duration_s: f64) -> Self {
        Self {
            preset,
            duration_s,
            entities: Vec::new(),
            events: Vec::new(),
            next_id: 1,
        }
    }

    /// The camera preset of the scene being built.
    pub fn preset(&self) -> &CameraPreset {
        &self.preset
    }

    fn alloc_id(&mut self) -> EntityId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Adds an arbitrary entity; returns its id.
    pub fn add_entity(
        &mut self,
        attrs: EntityAttrs,
        trajectory: Trajectory,
        width: f32,
        height: f32,
    ) -> EntityId {
        let id = self.alloc_id();
        let z = match &attrs {
            EntityAttrs::Vehicle(_) => 1,
            EntityAttrs::Person(_) => 2,
            EntityAttrs::Ball(_) => 3,
        };
        self.entities.push(Entity {
            id,
            attrs,
            trajectory,
            width,
            height,
            z,
        });
        id
    }

    /// Adds a vehicle with explicit attributes following `trajectory`.
    pub fn add_vehicle(
        &mut self,
        color: NamedColor,
        vtype: VehicleType,
        trajectory: Trajectory,
    ) -> EntityId {
        let (nw, nh) = vtype.nominal_size();
        let s = self.preset.size_scale();
        let plate = plate_from_seed(self.next_id.wrapping_mul(7919));
        self.add_entity(
            EntityAttrs::Vehicle(VehicleAttrs {
                color,
                vtype,
                plate,
            }),
            trajectory,
            nw * s,
            nh * s,
        )
    }

    /// Adds a pedestrian with explicit attributes following `trajectory`.
    pub fn add_person(
        &mut self,
        shirt_color: NamedColor,
        action: PersonAction,
        trajectory: Trajectory,
    ) -> EntityId {
        let s = self.preset.size_scale();
        self.add_entity(
            EntityAttrs::Person(PersonAttrs {
                shirt_color,
                action,
                carrying_bag: false,
            }),
            trajectory,
            28.0 * s,
            70.0 * s,
        )
    }

    /// Adds a ball following `trajectory`.
    pub fn add_ball(&mut self, color: NamedColor, trajectory: Trajectory) -> EntityId {
        let s = self.preset.size_scale();
        self.add_entity(
            EntityAttrs::Ball(BallAttrs { color }),
            trajectory,
            18.0 * s,
            18.0 * s,
        )
    }

    /// Adds a scripted event.
    pub fn add_event(&mut self, event: ScriptedEvent) {
        self.events.push(event);
    }

    /// Builds a trajectory along a preset route, entering at `t0` and taking
    /// `crossing_s` seconds, with waypoint times proportional to segment
    /// lengths.
    pub fn route_trajectory(&self, route: &Route, t0: f64, crossing_s: f64) -> Trajectory {
        let pts = route.scaled(self.preset.width as f32, self.preset.height as f32);
        trajectory_along(&pts, t0, crossing_s)
    }

    /// Generates Poisson traffic (vehicles, pedestrians, balls + hit events)
    /// from the preset distributions. May be called multiple times to
    /// superimpose traffic.
    pub fn generate_traffic(&mut self, rng: &mut StdRng) {
        self.generate_vehicles(rng);
        self.generate_people(rng);
    }

    fn generate_vehicles(&mut self, rng: &mut StdRng) {
        let preset = self.preset.clone();
        let lanes: Vec<Route> = preset
            .routes
            .iter()
            .filter(|r| matches!(r.kind, RouteKind::VehicleLane(_)))
            .cloned()
            .collect();
        if lanes.is_empty() {
            return;
        }
        // Start arrivals one full crossing before t=0 so the scene is at
        // steady state on the first frame instead of warming up from empty.
        let mut t = -preset.vehicle_crossing_secs.1 + exp_gap(rng, preset.vehicle_rate);
        while t < self.duration_s {
            let turn = preset.turns.sample(rng.gen::<f32>());
            let candidates: Vec<&Route> = lanes
                .iter()
                .filter(|r| matches!(r.kind, RouteKind::VehicleLane(d) if d == turn))
                .collect();
            let route = candidates[rng.gen_range(0..candidates.len())].clone();
            let mut crossing =
                rng.gen_range(preset.vehicle_crossing_secs.0..preset.vehicle_crossing_secs.1);
            if rng.gen::<f32>() < preset.speeder_fraction {
                crossing *= preset.speeder_time_factor;
            }
            let color = preset.vehicle_colors.sample(rng.gen::<f32>());
            let vtype = preset.vehicle_types.sample(rng.gen::<f32>());
            // Lane jitter so simultaneous vehicles don't overlap exactly.
            let jitter = rng.gen_range(-18.0f32..18.0) * preset.size_scale();
            let tr = self.route_trajectory(&route, t, crossing);
            let tr = jitter_trajectory(&tr, jitter);
            let id = self.add_vehicle(color, vtype, tr);
            // Size jitter.
            if let Some(e) = self.entities.iter_mut().find(|e| e.id == id) {
                let f = rng.gen_range(0.9f32..1.1);
                e.width *= f;
                e.height *= f;
            }
            t += exp_gap(rng, preset.vehicle_rate);
        }
    }

    fn generate_people(&mut self, rng: &mut StdRng) {
        let preset = self.preset.clone();
        let walkways: Vec<Route> = preset
            .routes
            .iter()
            .filter(|r| matches!(r.kind, RouteKind::Sidewalk | RouteKind::Crosswalk))
            .cloned()
            .collect();
        if walkways.is_empty() {
            return;
        }
        let mut t = -preset.person_crossing_secs.1 + exp_gap(rng, preset.person_rate);
        while t < self.duration_s {
            let shirt = preset.person_colors.sample(rng.gen::<f32>());
            if rng.gen::<f32>() < preset.loiter_prob {
                // Loiterer: stands near a walkway point for a long window.
                let route = &walkways[rng.gen_range(0..walkways.len())];
                let pts = route.scaled(preset.width as f32, preset.height as f32);
                let at = pts[rng.gen_range(0..pts.len())];
                let dwell = rng.gen_range(20.0..80.0);
                let tr = Trajectory::stationary(at, t, (t + dwell).min(self.duration_s + 5.0));
                self.add_person(shirt, PersonAction::Standing, tr);
            } else {
                let route = walkways[rng.gen_range(0..walkways.len())].clone();
                let crossing =
                    rng.gen_range(preset.person_crossing_secs.0..preset.person_crossing_secs.1);
                let tr = self.route_trajectory(&route, t, crossing);
                let jitter = rng.gen_range(-10.0f32..10.0) * preset.size_scale();
                let tr = jitter_trajectory(&tr, jitter);
                let person = self.add_person(shirt, PersonAction::Walking, tr.clone());
                // Optionally a ball near the person's path, with a scripted
                // hit for a fraction of them.
                if rng.gen::<f32>() < preset.ball_spawn_prob {
                    let mid_t = tr.start_time() + tr.duration() * 0.5;
                    if let Some(mid) = tr.position_at(mid_t) {
                        let ball_pos = mid.offset(
                            rng.gen_range(25.0f32..45.0) * preset.size_scale(),
                            rng.gen_range(-8.0f32..8.0),
                        );
                        let ball = self.add_ball(
                            NamedColor::White,
                            Trajectory::stationary(ball_pos, tr.start_time(), tr.end_time()),
                        );
                        if rng.gen::<f32>() < preset.hit_prob {
                            self.add_event(ScriptedEvent::new(
                                InteractionKind::Hit,
                                person,
                                ball,
                                mid_t - 0.4,
                                mid_t + 0.4,
                            ));
                        }
                    }
                }
            }
            t += exp_gap(rng, preset.person_rate);
        }
    }

    /// Finalizes the scene.
    pub fn build(self) -> Scene {
        Scene {
            preset: self.preset,
            duration_s: self.duration_s,
            entities: self.entities,
            events: self.events,
            background: OnceLock::new(),
        }
    }
}

/// Builds a trajectory visiting `pts` in order, entering at `t0` and taking
/// `total_s` seconds, with time split proportionally to segment length.
pub fn trajectory_along(pts: &[Point], t0: f64, total_s: f64) -> Trajectory {
    assert!(pts.len() >= 2, "route needs at least two points");
    let seg_lens: Vec<f32> = pts.windows(2).map(|w| w[0].distance(&w[1])).collect();
    let total_len: f32 = seg_lens.iter().sum();
    let mut wps = Vec::with_capacity(pts.len());
    let mut t = t0;
    wps.push(Waypoint { t, pos: pts[0] });
    for (i, len) in seg_lens.iter().enumerate() {
        let frac = if total_len > 0.0 {
            len / total_len
        } else {
            1.0 / seg_lens.len() as f32
        };
        t += total_s * frac as f64;
        wps.push(Waypoint { t, pos: pts[i + 1] });
    }
    Trajectory::from_waypoints(wps)
}

/// Offsets every waypoint perpendicular-ish by shifting both axes slightly;
/// cheap lane jitter that preserves direction classification.
fn jitter_trajectory(tr: &Trajectory, amount: f32) -> Trajectory {
    let wps = tr
        .waypoints()
        .iter()
        .map(|w| Waypoint {
            t: w.t,
            pos: w.pos.offset(amount * 0.3, amount),
        })
        .collect();
    Trajectory::from_waypoints(wps)
}

/// A scene wrapped in `Arc` for cheap sharing across sources and threads.
pub type SharedScene = Arc<Scene>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn generate_is_deterministic() {
        let a = Scene::generate(presets::banff(), 42, 30.0);
        let b = Scene::generate(presets::banff(), 42, 30.0);
        assert_eq!(a.entities().len(), b.entities().len());
        let ta = a.truth_at(100);
        let tb = b.truth_at(100);
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scene::generate(presets::banff(), 1, 60.0);
        let b = Scene::generate(presets::banff(), 2, 60.0);
        // Entity counts are Poisson draws; requiring inequality of the full
        // truth at some frame is robust.
        let differs = (0..a.frame_count().min(b.frame_count()))
            .step_by(50)
            .any(|f| a.truth_at(f) != b.truth_at(f));
        assert!(differs);
    }

    #[test]
    fn traffic_volume_is_plausible() {
        let scene = Scene::generate(presets::jackson(), 7, 120.0);
        let vehicles = scene
            .entities()
            .iter()
            .filter(|e| matches!(e.attrs, EntityAttrs::Vehicle(_)))
            .count();
        // rate 0.7/s over 120 s => ~84 expected; allow wide tolerance.
        assert!((30..200).contains(&vehicles), "vehicles = {vehicles}");
    }

    #[test]
    fn truth_boxes_are_inside_viewport() {
        let scene = Scene::generate(presets::banff(), 3, 60.0);
        for f in (0..scene.frame_count()).step_by(30) {
            let truth = scene.truth_at(f);
            for v in &truth.visible {
                assert!(v.bbox.x1 >= 0.0 && v.bbox.y1 >= 0.0);
                assert!(v.bbox.x2 <= scene.preset.width as f32);
                assert!(v.bbox.y2 <= scene.preset.height as f32);
            }
        }
    }

    #[test]
    fn interaction_preset_produces_hits() {
        let scene = Scene::generate(presets::interaction_clips(), 11, 300.0);
        let hits = scene
            .events()
            .iter()
            .filter(|e| e.kind == InteractionKind::Hit)
            .count();
        assert!(hits > 0, "expected some scripted hit events");
        // And at least one frame carries the interaction as ground truth.
        let any_frame = (0..scene.frame_count())
            .any(|f| scene.truth_at(f).has_interaction(InteractionKind::Hit));
        assert!(any_frame);
    }

    #[test]
    fn scripted_scene_truth() {
        let preset = presets::banff();
        let w = preset.width as f32;
        let h = preset.height as f32;
        let mut b = SceneBuilder::new(preset, 10.0);
        let tr = Trajectory::linear(
            Point::new(-100.0, 0.55 * h),
            Point::new(w + 100.0, 0.55 * h),
            0.0,
            10.0,
        );
        let id = b.add_vehicle(NamedColor::Red, VehicleType::Sedan, tr);
        let scene = b.build();
        let truth = scene.truth_at(scene.frame_count() / 2);
        let v = truth.entity(id).expect("vehicle visible mid-scene");
        assert_eq!(v.class_label, "car");
        assert_eq!(v.attrs.as_vehicle().unwrap().color, NamedColor::Red);
        assert!(v.speed() > 0.0);
    }

    #[test]
    fn regions_are_nonempty() {
        let scene = Scene::generate(presets::auburn(), 5, 10.0);
        assert!(scene.crosswalk_region().area() > 0.0);
        assert!(scene.intersection_region().area() > 0.0);
    }

    #[test]
    fn trajectory_along_splits_time_by_length() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 300.0),
        ];
        let tr = trajectory_along(&pts, 0.0, 8.0);
        let wps = tr.waypoints();
        // First segment is 1/4 of the length -> 2 s.
        assert!((wps[1].t - 2.0).abs() < 1e-6);
        assert!((wps[2].t - 8.0).abs() < 1e-6);
    }
}
