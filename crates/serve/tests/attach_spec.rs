//! Acceptance tests for the unified attach surface: every live spelling
//! of `attach(stream, spec)` lands on the same subscription, an
//! `AttachSpec` reports what it was built from, and the `ServeConfig`
//! builder rejects every documented nonsense combination.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vqpy_core::frontend::library;
use vqpy_core::frontend::predicate::Pred;
use vqpy_core::{FrameHit, Query, VqpySession};
use vqpy_models::{ModelZoo, Value};
use vqpy_serve::{
    AttachSpec, ConfigError, RestartPolicy, ServeConfig, ServeEvent, ServeSession, StreamServer,
    Subscription,
};
use vqpy_store::{FrameStore, StoreConfig};
use vqpy_video::source::SyntheticVideo;
use vqpy_video::{presets, Scene};

fn video(seed: u64, secs: f64) -> SyntheticVideo {
    SyntheticVideo::new(Scene::generate(presets::jackson(), seed, secs))
}

fn red_car(name: &str) -> Arc<Query> {
    Query::builder(name)
        .vobj("car", library::vehicle_schema_intrinsic())
        .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
        .frame_output(&[("car", "track_id"), ("car", "bbox")])
        .build()
        .unwrap()
}

type PlateRow = (Option<i64>, String);

fn server() -> StreamServer {
    let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    session.serve(ServeConfig::default())
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vqpy_attach_spec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_at(dir: &Path) -> Arc<FrameStore> {
    FrameStore::open(StoreConfig {
        background_eviction: false,
        ..StoreConfig::new(dir.to_path_buf())
    })
    .unwrap()
}

fn drain(sub: Subscription) -> (Vec<FrameHit>, Option<Value>) {
    let mut hits = Vec::new();
    let mut agg = None;
    while let Some(event) = sub.recv() {
        match event {
            ServeEvent::Hit(h) => hits.push(h),
            ServeEvent::StreamFault(_) | ServeEvent::StoreFault(_) => {}
            ServeEvent::End { video_value } | ServeEvent::Detached { video_value } => {
                agg = video_value;
                break;
            }
        }
    }
    (hits, agg)
}

// ---------------------------------------------------------------------------
// AttachSpec construction and conversions
// ---------------------------------------------------------------------------

/// Every live spelling lands on the same subscription behavior: a bare
/// `Arc<Query>`, a borrowed one, and an explicit `AttachSpec::new` are
/// interchangeable, and none of them reports a replay.
#[test]
fn live_attach_spellings_are_interchangeable() {
    let query = red_car("RedCar");
    let mut runs = Vec::new();
    for spelling in 0..3 {
        let server = server();
        let stream = server.open_stream(Arc::new(video(57, 6.0)));
        let attached = match spelling {
            0 => server.attach(stream, Arc::clone(&query)).unwrap(),
            1 => server.attach(stream, &query).unwrap(),
            _ => server
                .attach(stream, AttachSpec::new(Arc::clone(&query)))
                .unwrap(),
        };
        assert!(attached.replay().is_none(), "live attach has no replay");
        server.run_to_end(stream).unwrap();
        runs.push(drain(attached.into_inner()));
    }
    assert!(!runs[0].0.is_empty(), "test video must produce hits");
    assert_eq!(runs[0], runs[1], "&Arc<Query> diverged from Arc<Query>");
    assert_eq!(runs[0], runs[2], "AttachSpec::new diverged from Arc<Query>");
}

/// The spec remembers what it was built from: `query()` hands back the
/// wrapped query and `replay_from()` only turns Some after `.from(..)`.
#[test]
fn spec_accessors_reflect_builder_state() {
    let query = red_car("RedCar");
    let spec = AttachSpec::new(Arc::clone(&query));
    assert_eq!(spec.query().name(), "RedCar");
    assert!(spec.replay_from().is_none());
    let at = std::time::Instant::now();
    let spec = spec.from(at);
    assert_eq!(spec.replay_from(), Some(at));
    let typed = AttachSpec::new(Arc::clone(&query))
        .typed::<PlateRow>()
        .from(at);
    assert_eq!(typed.replay_from(), Some(at));
    assert_eq!(typed.query().name(), "RedCar");
}

/// `Attached` is a transparent handle: Deref reaches the subscription's
/// accessors, and `into_inner` releases the exact subscription.
#[test]
fn attached_handle_derefs_and_unwraps() {
    let server = server();
    let stream = server.open_stream(Arc::new(video(7, 2.0)));
    let attached = server.attach(stream, red_car("RedCar")).unwrap();
    let id = attached.id(); // through Deref
    assert_eq!(attached.query_name(), "RedCar");
    let sub = attached.into_inner();
    assert_eq!(sub.id(), id);
    server.run_to_end(stream).unwrap();
    drain(sub);
}

// ---------------------------------------------------------------------------
// ServeConfig builder validation
// ---------------------------------------------------------------------------

#[test]
fn builder_accepts_a_valid_combination() {
    let dir = tempdir("builder_ok");
    let fs = store_at(&dir);
    let config = ServeConfig::builder()
        .shards(4)
        .channel_capacity(256)
        .batches_per_step(2)
        .store(Arc::clone(&fs))
        .build()
        .expect("valid combination");
    assert_eq!(config.shards, 4);
    assert_eq!(config.channel_capacity, 256);
    assert_eq!(config.batches_per_step, 2);
    assert!(config.store.is_some());
    drop(fs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builder_rejects_zero_batches_per_step() {
    let err = ServeConfig::builder()
        .batches_per_step(0)
        .build()
        .expect_err("zero batches must be rejected");
    assert_eq!(err, ConfigError::ZeroBatchesPerStep);
    assert!(err.to_string().contains("batches_per_step"));
}

#[test]
fn builder_rejects_restarts_without_channel_capacity() {
    let err = ServeConfig::builder()
        .channel_capacity(0)
        .restart(RestartPolicy {
            max_restarts: 3,
            ..RestartPolicy::default()
        })
        .build()
        .expect_err("restarts need a channel to carry fault notices");
    assert_eq!(err, ConfigError::RestartNeedsCapacity { max_restarts: 3 });
    assert!(err.to_string().contains("channel_capacity"));

    // Disabling restarts makes the zero-capacity channel legal again.
    ServeConfig::builder()
        .channel_capacity(0)
        .restart(RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        })
        .build()
        .expect("no restarts means no fault notices to carry");
}

#[test]
fn builder_rejects_bad_backoff() {
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        let err = ServeConfig::builder()
            .restart(RestartPolicy {
                backoff_ms: bad,
                ..RestartPolicy::default()
            })
            .build()
            .expect_err("non-finite/negative backoff must be rejected");
        match err {
            ConfigError::InvalidBackoff { backoff_ms } => {
                assert!(backoff_ms.is_nan() == bad.is_nan() || backoff_ms == bad);
            }
            other => panic!("expected InvalidBackoff, got {other:?}"),
        }
    }
}
