//! Allocation budget of the serving path.
//!
//! Runs the benchmark's `Q6` mix — four car queries, a sedan query and a
//! walking-people query — on four banff streams over one bare
//! `StreamServer`, stepped round-robin at batch 2 × 4 batches a step with
//! every subscription drained after each round, on the virtual clock. It
//! counts heap allocations per frame in the steady state (after every
//! stream's first step has compiled its super-plan), with decode's own
//! taken out.
//!
//! This covers what the offline budget (`vqpy-core`'s `alloc_budget.rs`)
//! cannot see: the per-step checkpoint, the demux into per-query
//! events and the subscription channels. Measured with this file: **221.6**
//! allocations a frame while property values were keyed by name,
//! **59.0** once they live in plan-resolved slots, **53.7** once each
//! stateful operator formats its state key once, when built, rather than
//! twice per snapshot, and a single frame's classify call fills one result
//! vector instead of a vector of one, **53.85** once the snapshot also
//! copied the reuse cache (one map a step; the run's total moved by one
//! allocation with the hash seed, so the figure printed as 53.8 or 53.9),
//! **52.7** once the snapshot copied one flat object table per tracked
//! alias (a few buffers each, however many tracks it holds) instead of
//! every operator's state map, a window per track and the cache's map,
//! and **53.9** now that a projection classifies a whole batch's crops in
//! one call, which returns one result vector per frame plus one for the
//! call. Most of what is left is
//! the hit rows themselves (an output column's name and value per cell,
//! which `FrameHit` carries as owned `String`s) and the detectors' own
//! output. The budget is the current figure plus a quarter.
//!
//! One test per process: the counter is global, and a second test running
//! beside this one would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vqpy_core::frontend::library;
use vqpy_core::{ExecConfig, Pred, Query, SessionConfig, VqpySession};
use vqpy_models::{Clock, ClockMode, ModelZoo};
use vqpy_serve::{Backpressure, ServeConfig, StreamServer, Subscription};
use vqpy_video::{presets, Scene, SyntheticVideo, VideoSource};

/// Serving-path allocations per frame the steady state may not exceed.
const BUDGET_PER_FRAME: f64 = 66.0;
const STREAMS: u64 = 4;
const FRAMES_PER_STREAM: u64 = 304;

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

/// Allocations made while `f` runs, and what it returned.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn car_query(name: &str, score: f64, rest: Pred) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", score) & rest)
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .expect("the car queries are well-formed")
}

/// e2ebench's `Q6` mix (its `inputs.rs`).
fn q6(speeding: f64) -> Vec<Arc<Query>> {
    let walking = Query::builder("WalkingPeople")
        .vobj("person", library::person_schema())
        .frame_constraint(
            Pred::gt("person", "score", 0.5) & Pred::eq("person", "action", "walking"),
        )
        .frame_output(&[("person", "track_id"), ("person", "bbox")])
        .build()
        .expect("the walking query is well-formed");
    vec![
        car_query("RedCar", 0.6, Pred::eq("car", "color", "red")),
        car_query("SpeedingCar", 0.6, Pred::gt("car", "speed", speeding)),
        car_query("StraightCar", 0.5, Pred::eq("car", "direction", "straight")),
        car_query(
            "RedSpeedingCar",
            0.6,
            Pred::eq("car", "color", "red") & Pred::gt("car", "speed", speeding),
        ),
        car_query("SedanCar", 0.6, Pred::eq("car", "vtype", "sedan")),
        walking,
    ]
}

/// Receives every event that is ready on `subs`; returns how many.
fn drain(subs: &[Subscription]) -> u64 {
    let mut events = 0;
    for sub in subs {
        while let Ok(Some(_)) = sub.try_recv() {
            events += 1;
        }
    }
    events
}

#[test]
fn serving_allocations_per_frame_stay_within_budget() {
    let preset = presets::banff();
    let seconds = FRAMES_PER_STREAM as f64 / f64::from(preset.fps);
    let speeding = f64::from(preset.speeding_threshold_px_per_frame());
    let videos: Vec<Arc<SyntheticVideo>> = (0..STREAMS)
        .map(|i| {
            let scene = Scene::generate(preset.clone(), 12 + i, seconds);
            Arc::new(SyntheticVideo::new(scene))
        })
        .collect();
    let session = Arc::new(VqpySession::with_clock(
        ModelZoo::standard(),
        SessionConfig {
            exec: ExecConfig {
                batch_size: 2,
                ..ExecConfig::default()
            },
            enable_result_cache: false,
            ..SessionConfig::default()
        },
        Arc::new(Clock::with_mode(ClockMode::Virtual)),
    ));
    let server = StreamServer::new(
        session,
        ServeConfig {
            batches_per_step: 4,
            backpressure: Backpressure::Block,
            ..ServeConfig::default()
        },
    );
    let queries = q6(speeding);
    let mut ids = Vec::new();
    let mut subs = Vec::new();
    for video in &videos {
        let id = server.open_stream(Arc::clone(video) as Arc<dyn VideoSource>);
        for q in &queries {
            subs.push(server.attach(id, q).expect("attach").into_inner());
        }
        // The first step compiles the stream's super-plan: set-up, not
        // steady state.
        server.step(id).expect("first step");
        ids.push(id);
    }
    drain(&subs);
    let start: Vec<u64> = ids.iter().map(|&id| server.position(id).unwrap()).collect();

    let (serving, events) = allocs_during(|| {
        let mut events = 0;
        let mut live = ids.clone();
        while !live.is_empty() {
            live.retain(|&id| !server.step(id).expect("step").finished);
            events += drain(&subs);
        }
        events
    });
    let frames: u64 = ids
        .iter()
        .zip(&start)
        .map(|(&id, &from)| server.position(id).unwrap() - from)
        .sum();
    assert_eq!(
        frames,
        STREAMS * FRAMES_PER_STREAM - start.iter().sum::<u64>()
    );
    assert!(events > frames / 4, "{events} events for {frames} frames");
    let (decode, ()) = allocs_during(|| {
        for (video, &from) in videos.iter().zip(&start) {
            (from..FRAMES_PER_STREAM).for_each(|i| drop(std::hint::black_box(video.frame(i))));
        }
    });
    let per_frame = serving.saturating_sub(decode) as f64 / frames as f64;
    println!("serving allocations per frame: {per_frame:.1} (budget {BUDGET_PER_FRAME})");
    assert!(
        per_frame <= BUDGET_PER_FRAME,
        "{per_frame:.1} serving allocations a frame, budget {BUDGET_PER_FRAME}"
    );
}
