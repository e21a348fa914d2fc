//! Allocation budget of the engine's frame loop.
//!
//! Runs the benchmark's offline mix — the five Auburn queries of §5.3 plus
//! the four car queries of §5.2, nine queries as one shared plan — over a
//! fixed 300-frame auburn clip on the virtual clock, sequentially, and
//! counts heap allocations per frame with decode's own taken out.
//!
//! Measured with this file: **1 513** allocations a frame while the join
//! and the object filters cloned every candidate node's property map per
//! binding; **268** once predicates read the frame graph in place;
//! **241.7** once the clock owned a charge label only on first sight
//! instead of on every labeled charge; **44.6** once property values
//! live in plan-resolved slots (no name key per value written, no map per
//! history sample), strings are shared, combos are stored back to back and
//! the trackers keep their workspaces; **42.7** once a single frame's
//! classify call filled one result vector instead of a vector of one;
//! **42.5** once a track's windows and memoised values were cells of
//! its object table's row, which a later track reuses once it expires;
//! **43.1** now that a projection classifies a whole batch's crops in one
//! call, which returns one result vector per frame plus one for the call.
//! The budget is the current figure plus a quarter: what is left (the
//! detectors' own output, the hit rows with an owned column name per cell,
//! the classifiers' result vectors) is named in docs/ARCHITECTURE.md §3,
//! and a change that puts per-candidate or per-value work back shows up
//! here as a multiple, not as a few per cent.
//!
//! One test per process: the counter is global, and a second test running
//! beside this one would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vqpy_core::backend::exec::execute_plan;
use vqpy_core::frontend::library;
use vqpy_core::frontend::property::{NativeFn, PropertyDef};
use vqpy_core::{build_plan, Aggregate, ExecConfig, PlanOptions, Pred, Query, VObjSchema};
use vqpy_models::{Clock, ModelZoo, Value};
use vqpy_video::{presets, BBox, Scene, SyntheticVideo, VideoSource};

/// Engine allocations per frame the steady state may not exceed.
const BUDGET_PER_FRAME: f64 = 53.0;
const FRAMES: u64 = 300;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that never touches the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// `parent` plus a native `in_region` property: the box centre is inside
/// `region`.
fn in_region(name: &str, parent: Arc<VObjSchema>, region: BBox) -> Arc<VObjSchema> {
    let f: NativeFn = Arc::new(move |ctx| {
        Value::Bool(
            ctx.dep("bbox")
                .as_bbox()
                .is_some_and(|b| region.contains(&b.center())),
        )
    });
    VObjSchema::builder(name)
        .parent(parent)
        .property(PropertyDef::stateless_native(
            "in_region",
            &["bbox"],
            false,
            f,
        ))
        .build()
}

/// The nine queries of e2ebench's `offline_shared` (its `inputs.rs`).
fn offline_queries(scene: &Scene) -> Vec<Arc<Query>> {
    let speeding = f64::from(scene.preset.speeding_threshold_px_per_frame());
    let car = library::vehicle_schema_intrinsic;
    let scored = |alias: &str, score: f64, rest: Pred| Pred::gt(alias, "score", score) & rest;
    let tracked =
        |b: vqpy_core::QueryBuilder| b.frame_output(&[("car", "track_id"), ("car", "bbox")]);
    let crosswalk = in_region(
        "CrosswalkPerson",
        library::person_schema(),
        scene.crosswalk_region(),
    );
    let crossing = in_region("CrossingVehicle", car(), scene.intersection_region());
    vec![
        Query::builder("Q1_CrosswalkPeople")
            .vobj("person", crosswalk)
            .frame_constraint(scored("person", 0.5, Pred::eq("person", "in_region", true))),
        Query::builder("Q2_LeftTurningCars")
            .vobj("car", car())
            .frame_constraint(scored("car", 0.5, Pred::eq("car", "direction", "left"))),
        Query::builder("Q3_RedCars")
            .vobj("car", car())
            .frame_constraint(scored("car", 0.5, Pred::eq("car", "color", "red"))),
        Query::builder("Q4_AvgCarsOnCrossing")
            .vobj("car", crossing)
            .frame_constraint(scored("car", 0.5, Pred::eq("car", "in_region", true)))
            .video_output(Aggregate::AvgPerFrame {
                alias: "car".into(),
            }),
        Query::builder("Q5_AvgWalkingPeople")
            .vobj("person", library::person_schema())
            .frame_constraint(scored(
                "person",
                0.5,
                Pred::eq("person", "action", "walking"),
            ))
            .video_output(Aggregate::AvgPerFrame {
                alias: "person".into(),
            }),
        tracked(Query::builder("RedCar").vobj("car", car())).frame_constraint(scored(
            "car",
            0.6,
            Pred::eq("car", "color", "red"),
        )),
        tracked(Query::builder("SpeedingCar").vobj("car", car())).frame_constraint(scored(
            "car",
            0.6,
            Pred::gt("car", "speed", speeding),
        )),
        tracked(Query::builder("StraightCar").vobj("car", car())).frame_constraint(scored(
            "car",
            0.5,
            Pred::eq("car", "direction", "straight"),
        )),
        tracked(Query::builder("RedSpeedingCar").vobj("car", car())).frame_constraint(scored(
            "car",
            0.6,
            Pred::eq("car", "color", "red") & Pred::gt("car", "speed", speeding),
        )),
    ]
    .into_iter()
    .map(|b| b.build().expect("the offline mix is well-formed"))
    .collect()
}

#[test]
fn engine_allocations_per_frame_stay_within_budget() {
    let preset = presets::auburn();
    let seconds = FRAMES as f64 / f64::from(preset.fps);
    let scene = Scene::generate(preset, 12, seconds);
    let video = SyntheticVideo::new(scene.clone());
    assert_eq!(video.frame_count(), FRAMES);
    let zoo = ModelZoo::standard();
    let plan = build_plan(&offline_queries(&scene), &zoo, &PlanOptions::vqpy_default())
        .expect("the shared plan builds");
    assert_eq!(plan.joins.len(), 9);
    let run = || {
        let clock = Clock::new();
        let results = execute_plan(&plan, &video, &zoo, &clock, &ExecConfig::default())
            .expect("the shared plan runs");
        assert!(results.iter().any(|r| !r.frame_hits.is_empty()));
    };
    let decode = || (0..FRAMES).for_each(|i| drop(std::hint::black_box(video.frame(i))));

    // Once unmeasured: the scene's background, the interner and every
    // other first-use cost is paid here.
    run();
    let engine = allocs_during(run).saturating_sub(allocs_during(decode));
    let per_frame = engine as f64 / FRAMES as f64;
    println!("engine allocations per frame: {per_frame:.1} (budget {BUDGET_PER_FRAME})");
    assert!(
        per_frame <= BUDGET_PER_FRAME,
        "{per_frame:.1} engine allocations a frame, budget {BUDGET_PER_FRAME}"
    );
}
