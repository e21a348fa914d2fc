//! Generated inputs: scenes and queries. This is everything the program
//! under test ever sees of a run — never the seed or a workload name.

use std::sync::Arc;
use vqpy_bench::workloads::{
    auburn_queries, red_car_query, red_speeding_query, speeding_car_query, straight_car_query,
};
use vqpy_core::frontend::library;
use vqpy_core::{Pred, Query};
use vqpy_video::presets::CameraPreset;
use vqpy_video::Scene;

/// Frames per second of every preset the benchmark uses.
pub const FPS: u64 = 15;

/// Queries whose hits depend on the colour model. `PixelBuffer::
/// dominant_rgb_in` breaks mode ties by `HashMap` iteration order, so the
/// same crop can classify differently from run to run; until that is
/// fixed these queries are checked by accounting only (see README.md).
const COLOUR_QUERIES: [&str; 3] = ["RedCar", "RedSpeedingCar", "Q3_RedCars"];

/// Whether a query's hit sequence can be compared byte for byte.
pub fn is_colour_free(query_name: &str) -> bool {
    !COLOUR_QUERIES.contains(&query_name)
}

/// What a scene puts in front of the camera: objects visible per frame,
/// by class. Per-frame cost follows this closely — every object on
/// screen is rendered, detected, tracked and classified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    /// Mean vehicles visible per frame.
    pub vehicles: f64,
    /// Mean people visible per frame.
    pub people: f64,
}

/// Every how many frames [`load`] looks at the ground truth.
const LOAD_SAMPLE_EVERY: u64 = 5;

/// Measures a scene's load on every fifth frame.
pub fn load(scene: &Scene) -> Load {
    let (mut vehicles, mut people, mut sampled) = (0usize, 0usize, 0usize);
    for frame in (0..scene.frame_count()).step_by(LOAD_SAMPLE_EVERY as usize) {
        let truth = scene.truth_at(frame);
        vehicles += truth
            .visible
            .iter()
            .filter(|v| v.attrs.as_vehicle().is_some())
            .count();
        people += truth
            .visible
            .iter()
            .filter(|v| v.attrs.as_person().is_some())
            .count();
        sampled += 1;
    }
    Load {
        vehicles: vehicles as f64 / sampled.max(1) as f64,
        people: people as f64 / sampled.max(1) as f64,
    }
}

/// Scenes of the panel whose mean load is a preset's nominal load.
const PANEL: u64 = 256;
/// Seeds of the panel: fixed, far from any seed a run is given.
const PANEL_SEED: u64 = 0x5EED_0000_0000;
/// Step between the candidate seeds of one stream.
const CANDIDATE_STRIDE: u64 = 1_000_003;

/// The load an average scene of `preset` and `frames` frames carries:
/// the mean over a fixed panel of scenes.
fn nominal_load(preset: &CameraPreset, frames: u64) -> Load {
    let seconds = frames as f64 / f64::from(preset.fps);
    let (mut vehicles, mut people) = (0.0, 0.0);
    for k in 0..PANEL {
        let l = load(&Scene::generate(preset.clone(), PANEL_SEED + k, seconds));
        vehicles += l.vehicles;
        people += l.people;
    }
    Load {
        vehicles: vehicles / PANEL as f64,
        people: people / PANEL as f64,
    }
}

/// Most candidate scenes tried for one stream before settling for the
/// closest. Tight tolerances on long scenes accept one candidate in a
/// few hundred; a very short scene (a handful of objects, so a load in
/// coarse steps) may have none within tolerance at all.
const MAX_CANDIDATES: u64 = 4096;

/// One scene per stream, each carrying the preset's nominal load to
/// within `tolerance` (a share, per class). Stream `i` takes the first
/// such scene among the seeds `seed + i`, `seed + i + stride`, … (or the
/// closest of the first [`MAX_CANDIDATES`]) — so the seed still decides
/// every scene, but not how busy the run is.
///
/// Traffic is Poisson: left alone, two seeds' 40 s scenes differ by
/// ±20 % in objects on screen, and every per-frame metric — the
/// modelled device time exactly, host time roughly — moves with them.
/// A metric that swings 3 % with the seed cannot carry a 3 % bound.
pub fn scenes(
    preset: &CameraPreset,
    seed: u64,
    streams: usize,
    frames: u64,
    tolerance: f64,
) -> Vec<Scene> {
    let seconds = frames as f64 / f64::from(preset.fps);
    let candidate = |i: u64, k: u64| {
        let seed = seed
            .wrapping_add(i)
            .wrapping_add(k.wrapping_mul(CANDIDATE_STRIDE));
        Scene::generate(preset.clone(), seed, seconds)
    };
    if tolerance.is_infinite() {
        // `--smoke`: any load will do.
        return (0..streams as u64).map(|i| candidate(i, 0)).collect();
    }
    let nominal = nominal_load(preset, frames);
    // How far a scene's load is from nominal: the worse of the two
    // classes, as a share.
    let off = |scene: &Scene| {
        let l = load(scene);
        let share = |got: f64, want: f64| (got - want).abs() / want.max(f64::MIN_POSITIVE);
        share(l.vehicles, nominal.vehicles).max(share(l.people, nominal.people))
    };
    (0..streams as u64)
        .map(|i| {
            let mut closest: Option<(f64, Scene)> = None;
            for k in 0..MAX_CANDIDATES {
                let scene = candidate(i, k);
                let off = off(&scene);
                if off <= tolerance {
                    return scene;
                }
                if closest.as_ref().is_none_or(|(best, _)| off < *best) {
                    closest = Some((off, scene));
                }
            }
            closest.expect("at least one candidate was tried").1
        })
        .collect()
}

fn sedan_car_query() -> Arc<Query> {
    Query::builder("SedanCar")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "vtype", "sedan"))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .expect("sedan query is well-formed")
}

fn walking_people_query() -> Arc<Query> {
    Query::builder("WalkingPeople")
        .vobj("person", library::person_schema())
        .frame_constraint(
            Pred::gt("person", "score", 0.5) & Pred::eq("person", "action", "walking"),
        )
        .frame_output(&[("person", "track_id"), ("person", "bbox")])
        .build()
        .expect("walking query is well-formed")
}

fn car_queries(preset: &CameraPreset) -> Vec<Arc<Query>> {
    let threshold = f64::from(preset.speeding_threshold_px_per_frame());
    vec![
        red_car_query(),
        speeding_car_query(threshold),
        straight_car_query(),
        red_speeding_query(threshold),
    ]
}

/// The six-query serving mix: the four car queries of the paper's §5.2
/// plus an intrinsic vehicle-type query and a person query, all sharing
/// one detector.
pub fn q6(preset: &CameraPreset) -> Vec<Arc<Query>> {
    let mut qs = car_queries(preset);
    qs.push(sedan_car_query());
    qs.push(walking_people_query());
    qs
}

/// The store workloads' mix: one colour query, one deterministic
/// intrinsic query, one non-memoizable query.
pub fn store_queries() -> Vec<Arc<Query>> {
    vec![red_car_query(), sedan_car_query(), straight_car_query()]
}

/// The offline mix: the five Auburn queries of §5.3 plus the four car
/// queries — nine queries, one shared plan.
pub fn offline_queries(scene: &Scene) -> Vec<Arc<Query>> {
    let mut qs: Vec<Arc<Query>> = auburn_queries(scene).into_iter().map(|(_, q)| q).collect();
    qs.extend(car_queries(&scene.preset));
    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_video::presets;

    #[test]
    fn mixes_have_the_documented_sizes_and_unique_names() {
        let scene = Scene::generate(presets::auburn(), 1, 2.0);
        for (mix, n) in [
            (q6(&presets::banff()), 6),
            (store_queries(), 3),
            (offline_queries(&scene), 9),
        ] {
            assert_eq!(mix.len(), n);
            let mut names: Vec<&str> = mix.iter().map(|q| q.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "query names must be unique within a mix");
        }
    }

    #[test]
    fn same_seed_same_scenes_of_matched_load() {
        let preset = presets::banff();
        let a = scenes(&preset, 12, 3, 300, 0.1);
        let b = scenes(&preset, 12, 3, 300, 0.1);
        let nominal = nominal_load(&preset, 300);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.frame_count(), 300);
            assert_eq!(load(x), load(y), "the same seed gives the same scene");
            assert!((load(x).vehicles - nominal.vehicles).abs() <= 0.1 * nominal.vehicles);
            assert!((load(x).people - nominal.people).abs() <= 0.1 * nominal.people);
        }
        let other = scenes(&preset, 99, 3, 300, 0.1);
        assert!(
            a.iter().zip(&other).any(|(x, y)| load(x) != load(y)),
            "another seed gives other scenes"
        );
    }

    #[test]
    fn an_unreachable_tolerance_settles_for_the_closest_scene() {
        // Eight frames hold a handful of objects: no scene's load equals
        // the panel's mean exactly, and the search must still end.
        let preset = presets::jackson();
        let a = scenes(&preset, 7, 2, 8, 0.0);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|s| s.frame_count() == 8));
        let b = scenes(&preset, 7, 2, 8, 0.0);
        assert_eq!(load(&a[1]), load(&b[1]));
    }

    #[test]
    fn load_counts_visible_objects_per_frame() {
        let scene = Scene::generate(presets::jackson(), 3, 20.0);
        let l = load(&scene);
        assert!(l.vehicles > 0.0 && l.people > 0.0);
        // No more objects can be visible than the scene has entities.
        assert!(l.vehicles + l.people <= scene.entities().len() as f64);
    }

    #[test]
    fn colour_queries_are_known() {
        assert!(!is_colour_free("RedCar"));
        assert!(!is_colour_free("Q3_RedCars"));
        assert!(is_colour_free("SedanCar"));
        assert!(is_colour_free("StraightCar"));
    }
}
