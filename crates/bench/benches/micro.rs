//! Criterion micro-benchmarks of the engine's real (non-virtual)
//! hot paths: Hungarian assignment, Kalman filtering, frame rendering,
//! pixel classification, and predicate evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vqpy_core::frontend::predicate::{Pred, PredEnv};
use vqpy_models::Value;
use vqpy_tracker::hungarian;
use vqpy_tracker::{KalmanFilter, SortTracker, TrackerParams};
use vqpy_video::geometry::{BBox, Point};
use vqpy_video::render::render_frame;
use vqpy_video::scene::Scene;
use vqpy_video::{presets, VideoSource};

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for n in [5usize, 15, 40] {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 31 + j * 17) % 100) as f64).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| hungarian::solve(std::hint::black_box(cost)))
        });
    }
    group.finish();
}

fn bench_kalman(c: &mut Criterion) {
    c.bench_function("kalman_predict_update", |b| {
        let mut kf = KalmanFilter::new(&BBox::from_center(Point::new(100.0, 100.0), 40.0, 20.0));
        let mut x = 100.0f32;
        b.iter(|| {
            kf.predict();
            x += 3.0;
            kf.update(&BBox::from_center(Point::new(x, 100.0), 40.0, 20.0));
            std::hint::black_box(kf.bbox())
        })
    });
}

fn bench_tracker(c: &mut Criterion) {
    c.bench_function("sort_tracker_10_objects", |b| {
        let mut tracker = SortTracker::new(TrackerParams::default());
        let mut t = 0f32;
        b.iter(|| {
            t += 2.0;
            let dets: Vec<(BBox, &str)> = (0..10)
                .map(|i| {
                    (
                        BBox::from_center(
                            Point::new(50.0 + i as f32 * 120.0 + t, 200.0),
                            60.0,
                            40.0,
                        ),
                        "car",
                    )
                })
                .collect();
            std::hint::black_box(tracker.update(&dets))
        })
    });
}

fn bench_render(c: &mut Criterion) {
    let scene = Scene::generate(presets::jackson(), 42, 30.0);
    c.bench_function("render_frame_jackson", |b| {
        let mut f = 0u64;
        b.iter(|| {
            f = (f + 7) % scene.frame_count();
            std::hint::black_box(render_frame(&scene, f))
        })
    });
    // What the engine calls: truth once, pixels from it, both in a `Frame`.
    let video = vqpy_video::SyntheticVideo::new(scene);
    c.bench_function("source_frame_jackson", |b| {
        let mut f = 0u64;
        b.iter(|| {
            f = (f + 7) % video.frame_count();
            std::hint::black_box(video.frame(f))
        })
    });
}

fn bench_pixels(c: &mut Criterion) {
    let scene = Scene::generate(presets::jackson(), 42, 10.0);
    let video = vqpy_video::SyntheticVideo::new(scene);
    let frame = video.frame(60);
    let crop = BBox::new(400.0, 400.0, 700.0, 600.0);
    c.bench_function("dominant_rgb_in_crop", |b| {
        b.iter(|| std::hint::black_box(frame.pixels.dominant_rgb_in(&crop)))
    });
}

fn bench_predicate(c: &mut Criterion) {
    let pred = Pred::gt("car", "score", 0.5)
        & Pred::eq("car", "color", "red")
        & (Pred::gt("car", "speed", 10.0) | Pred::eq("car", "vtype", "suv"));
    let mut env = PredEnv::default();
    let props = env.objects.entry("car".into()).or_default();
    props.insert("score".into(), Value::Float(0.9));
    props.insert("color".into(), Value::from("red"));
    props.insert("speed".into(), Value::Float(22.0));
    props.insert("vtype".into(), Value::from("sedan"));
    c.bench_function("predicate_eval", |b| {
        b.iter(|| std::hint::black_box(pred.eval(&env)))
    });
}

criterion_group!(
    benches,
    bench_hungarian,
    bench_kalman,
    bench_tracker,
    bench_render,
    bench_pixels,
    bench_predicate
);
criterion_main!(benches);
