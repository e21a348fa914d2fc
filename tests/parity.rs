//! Sequential vs. pipelined execution parity: both drivers must produce
//! byte-identical frame hits and video aggregates on every preset scene,
//! for every batch size (including 1). This is the contract that makes the
//! pipelined mode a pure performance knob.

use std::sync::Arc;
use vqpy::core::backend::exec::execute_plan;
use vqpy::core::backend::plan::{build_plan, PlanOptions};
use vqpy::core::frontend::{library, predicate::Pred};
use vqpy::core::{Aggregate, ExecConfig, ExecMode, Query};
use vqpy::models::{Clock, ModelZoo};
use vqpy::video::source::VideoSource;
use vqpy::video::{presets, Scene, SyntheticVideo};

fn red_car_query() -> Arc<Query> {
    Query::builder("RedCar")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .expect("builds")
}

fn count_cars_query() -> Arc<Query> {
    Query::builder("CountCars")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5))
        .video_output(Aggregate::CountDistinctTracks {
            alias: "car".into(),
        })
        .build()
        .expect("builds")
}

fn straight_car_query() -> Arc<Query> {
    Query::builder("StraightCar")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "direction", "straight"))
        .frame_output(&[("car", "track_id")])
        .build()
        .expect("builds")
}

/// A query set and the plan options it runs under.
type Mix = (Vec<Arc<Query>>, PlanOptions);

fn basic_mix() -> Mix {
    (
        vec![red_car_query(), count_cars_query()],
        PlanOptions::vqpy_default(),
    )
}

/// A mix that leaves no executor stage empty: a differencing frame filter,
/// the detector, tracker + intrinsic colour (prep), the non-memoizable
/// `direction` projection (hoisted into enrich), and the joins (tail).
fn all_stages_mix() -> Mix {
    let mix = (
        vec![red_car_query(), count_cars_query(), straight_car_query()],
        PlanOptions {
            diff_filter: Some(0.4),
            ..PlanOptions::vqpy_default()
        },
    );
    let plan = build_plan(&mix.0, &ModelZoo::standard(), &mix.1).expect("plan builds");
    let stages = plan.stage_specs();
    assert!(stages.iter().all(|s| !s.is_empty()), "{}", plan.describe());
    mix
}

/// Runs a mix as one shared plan in the given mode/batch size and returns
/// `(hit frame lists, video aggregates)` per query.
fn run(
    video: &SyntheticVideo,
    (queries, options): &Mix,
    mode: ExecMode,
    batch_size: usize,
) -> (Vec<Vec<u64>>, Vec<Option<vqpy::models::Value>>) {
    let zoo = ModelZoo::standard();
    let plan = build_plan(queries, &zoo, options).expect("plan builds");
    let clock = Clock::new();
    let results = execute_plan(
        &plan,
        video,
        &zoo,
        &clock,
        &ExecConfig {
            batch_size,
            exec_mode: mode,
            ..ExecConfig::default()
        },
    )
    .expect("runs");
    (
        results.iter().map(|r| r.hit_frames()).collect(),
        results.iter().map(|r| r.video_value.clone()).collect(),
    )
}

#[test]
fn pipelined_matches_sequential_on_all_presets_and_batch_sizes() {
    for (preset, seed) in [
        (presets::jackson(), 11u64),
        (presets::banff(), 22),
        (presets::cityflow(), 33),
    ] {
        let name = preset.name;
        let video = SyntheticVideo::new(Scene::generate(preset, seed, 8.0));
        for (mix_name, mix) in [("basic", basic_mix()), ("all stages", all_stages_mix())] {
            for batch_size in [1usize, 8, 32] {
                let (seq_hits, seq_aggs) = run(&video, &mix, ExecMode::Sequential, batch_size);
                for workers in [1usize, 4] {
                    let (pipe_hits, pipe_aggs) =
                        run(&video, &mix, ExecMode::Pipelined { workers }, batch_size);
                    let case = format!(
                        "preset {name}, mix {mix_name}, batch {batch_size}, workers {workers}"
                    );
                    assert_eq!(seq_hits, pipe_hits, "hit frames diverged: {case}");
                    assert_eq!(seq_aggs, pipe_aggs, "aggregates diverged: {case}");
                }
            }
        }
    }
}

#[test]
fn sequential_results_do_not_depend_on_batch_size() {
    let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 44, 10.0));
    let mix = basic_mix();
    let (reference, ref_aggs) = run(&video, &mix, ExecMode::Sequential, 1);
    for batch_size in [2usize, 7, 16, 256] {
        let (hits, aggs) = run(&video, &mix, ExecMode::Sequential, batch_size);
        assert_eq!(reference, hits, "batch {batch_size}");
        assert_eq!(ref_aggs, aggs, "batch {batch_size}");
    }
}

/// More pipeline workers than frames: every worker beyond the first finds
/// the batch queue already drained, and results still match Sequential
/// byte-for-byte (including with single-frame batches).
#[test]
fn more_workers_than_frames_matches_sequential() {
    // 0.2s at jackson's fps is a handful of frames.
    let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 55, 0.2));
    let frames = video.frame_count();
    let mix = basic_mix();
    for batch_size in [1usize, 4] {
        let (seq_hits, seq_aggs) = run(&video, &mix, ExecMode::Sequential, batch_size);
        let workers = (frames as usize) + 5;
        let (pipe_hits, pipe_aggs) = run(&video, &mix, ExecMode::Pipelined { workers }, batch_size);
        assert_eq!(seq_hits, pipe_hits, "batch {batch_size}, workers {workers}");
        assert_eq!(seq_aggs, pipe_aggs, "batch {batch_size}, workers {workers}");
    }
}

/// A zero-frame video source: no source to decode at all.
struct EmptyVideo {
    id: u64,
}

impl vqpy::video::source::VideoSource for EmptyVideo {
    fn video_id(&self) -> u64 {
        self.id
    }

    fn fps(&self) -> u32 {
        10
    }

    fn resolution(&self) -> (u32, u32) {
        (64, 48)
    }

    fn frame_count(&self) -> u64 {
        0
    }

    fn frame(&self, index: u64) -> vqpy::video::frame::Frame {
        panic!("empty video has no frame {index}")
    }
}

/// An empty video produces empty (but well-formed) results in both modes:
/// no hits, zero-valued aggregates, no frames counted, and no panics or
/// hangs in the staged pipeline.
#[test]
fn empty_video_matches_sequential() {
    let zoo = ModelZoo::standard();
    let plan = build_plan(
        &[red_car_query(), count_cars_query()],
        &zoo,
        &PlanOptions::vqpy_default(),
    )
    .expect("plan builds");
    let empty = EmptyVideo {
        id: vqpy::video::source::fresh_video_id(),
    };
    let mut all = Vec::new();
    for mode in [ExecMode::Sequential, ExecMode::Pipelined { workers: 4 }] {
        let clock = Clock::new();
        let results = execute_plan(
            &plan,
            &empty,
            &zoo,
            &clock,
            &ExecConfig {
                batch_size: 1,
                exec_mode: mode,
                ..ExecConfig::default()
            },
        )
        .expect("runs on empty input");
        for r in &results {
            assert!(r.frame_hits.is_empty());
            assert_eq!(r.metrics.frames_total, 0);
        }
        assert_eq!(clock.virtual_ms(), 0.0, "nothing to charge for");
        all.push(results);
    }
    let seq: Vec<_> = all[0].iter().map(|r| r.video_value.clone()).collect();
    let pipe: Vec<_> = all[1].iter().map(|r| r.video_value.clone()).collect();
    assert_eq!(seq, pipe, "aggregates on empty video diverged");
}

/// The same query on the same video answers the same way twice in one
/// process. It did not while `PixelBuffer::dominant_rgb_in` broke colour
/// ties by `HashMap` iteration order: on this scene RedCar — memoised per
/// track from one coin flip — returned 132 hits in one run and 38 in the
/// next.
#[test]
fn red_car_answers_repeat_within_one_process() {
    let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 253, 40.0));
    let red_car = Query::builder("RedCar")
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "red"))
        .build()
        .expect("builds");
    let mix = (vec![red_car], PlanOptions::vqpy_default());
    let first = run(&video, &mix, ExecMode::Sequential, 8);
    assert!(!first.0[0].is_empty(), "the scene must have red-car hits");
    assert_eq!(first, run(&video, &mix, ExecMode::Sequential, 8));
}
