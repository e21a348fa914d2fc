//! # vqpy-serve
//!
//! Live stream serving on top of the VQPy backend: a [`StreamServer`] owns
//! one or more long-lived video streams, merges every currently-attached
//! query into one shared *super-plan* (detectors, trackers, and property
//! projections common to several queries execute once per frame batch —
//! §4.2/§5.3's sharing, applied continuously), and demultiplexes per-frame
//! matches to per-query subscribers over bounded channels.
//!
//! Queries come and go at runtime: [`StreamServer::attach`] and
//! [`StreamServer::detach`] take effect at the next batch boundary, where
//! the super-plan is recompiled *incrementally* — the stream's
//! cross-frame state (per alias its tracker, stateful property windows
//! and memoised values; the frame-difference filter's reference frame)
//! moves into the new plan wherever it still applies, so no frames are
//! dropped and the surviving queries' results are byte-identical to an
//! uninterrupted run (see the `equivalence` tests).
//!
//! Overload is observable rather than silent: each subscription rides a
//! bounded channel with a configurable [`Backpressure`] policy (block the
//! stream, or drop events and count them), and per-stream [`ServeMetrics`]
//! report frames/s, per-query delivery latency, dropped events, and the
//! reuse-cache hit rate.
//!
//! For multi-stream deployments, the [`StreamSupervisor`] layers a sharded
//! event-driven scheduler (N shard workers multiplexing M streams each —
//! [`ServeConfig::shards`]), fps-paced ingestion ([`PaceMode`]), cross-stream model
//! batching ([`ModelBatcher`] — one physical invocation per (stage, model)
//! feeding many streams' detect, binary-filter, and classify stages), and
//! [`ServePolicy`] admission control (typed [`AttachError`] rejections
//! under sustained overload) on top of the server; see [`supervisor`] for
//! the architecture.
//!
//! ```no_run
//! use std::sync::Arc;
//! use vqpy_core::frontend::{library, predicate::Pred};
//! use vqpy_core::{Query, VqpySession};
//! use vqpy_models::ModelZoo;
//! use vqpy_serve::{ServeConfig, ServeSession, StreamServer};
//! use vqpy_video::{presets, Scene, SyntheticVideo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = Arc::new(VqpySession::new(ModelZoo::standard()));
//! let server = session.serve(ServeConfig::default());
//! let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 30.0));
//! let stream = server.open_stream(Arc::new(video));
//! let query = Query::builder("RedCar")
//!     .vobj("car", library::vehicle_schema())
//!     .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
//!     .build()?;
//! let sub = server.attach(stream, query)?;
//! server.run_to_end(stream)?;
//! let (hits, _aggregate) = sub.collect();
//! println!("{} matching frames", hits.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod attach;
pub mod batcher;
pub mod config;
mod delivery;
mod live;
pub mod metrics;
pub mod replay;
pub mod server;
pub mod shard;
mod stream;
pub mod subscription;
pub mod supervisor;
pub mod typed;

pub use attach::{AttachMode, AttachSpec, Attached, Typed, Untyped};
pub use batcher::{
    BatchedDispatch, BatcherConfig, BatcherStats, FaultStats, ModelBatcher, StageCoalesce,
};
pub use config::{
    Backpressure, ConfigError, RestartPolicy, ServeConfig, ServeConfigBuilder, ServeError,
    ServeResult, RESTART_BACKOFF_LABEL,
};
pub use metrics::{QueryServeMetrics, ServeMetrics, ShardLoad};
pub use replay::{RecordingDispatch, StoreDispatch, STORE_READ_COST_MS, STORE_READ_LABEL};
pub use server::{ServeSession, StepOutcome, StreamId, StreamOptions, StreamServer};
pub use shard::{
    DeterministicScheduler, PaceCounters, ShardConfig, ShardCore, SplitMix64, INGEST_BOUND,
};
pub use subscription::{
    ServeEvent, StoreFaultNotice, StreamFault, Subscription, SubscriptionClosed, SubscriptionId,
};
pub use supervisor::{
    AttachError, LoadSnapshot, PaceMode, ServePolicy, StreamLoad, StreamSupervisor,
    SupervisorConfig,
};
pub use typed::{TypedServeEvent, TypedSubscription};
pub use vqpy_obs::{Registry, Telemetry, Tracer, SHARD_LANE_BASE, STORE_LANE};
