//! # vqpy
//!
//! Facade crate for the VQPy reproduction workspace: re-exports the public
//! API of every member crate so examples and downstream users need a single
//! dependency. The [`api`] module is the curated typed surface — most
//! programs only need `use vqpy::api::*;`.
//!
//! See the README for an overview and `docs/ARCHITECTURE.md` for the
//! end-to-end walkthrough of every layer.
//!
//! ```
//! use vqpy::api::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let car = library::vehicle().alias("car");
//! let query = TypedQuery::builder("RedCar")
//!     .object(&car)
//!     .filter(car.score().gt(0.6) & car.color().eq("red"))
//!     .select((car.track_id().optional(), car.bbox()))
//!     .build()?;
//! let session = VqpySession::new(ModelZoo::standard());
//! let video = SyntheticVideo::new(Scene::generate(presets::banff(), 7, 3.0));
//! let result = query.run(&session, &video)?;
//! # let _ = result.hits.len();
//! # Ok(())
//! # }
//! ```

pub use vqpy_baselines as baselines;
pub use vqpy_core as core;
pub use vqpy_models as models;
pub use vqpy_obs as obs;
pub use vqpy_serve as serve;
pub use vqpy_sql as sql;
pub use vqpy_store as store;
pub use vqpy_tracker as tracker;
pub use vqpy_video as video;

/// The curated typed API surface: everything a typical program needs to
/// author typed queries, run them offline, and subscribe to them live.
///
/// The stringly builder ([`Query::builder`](vqpy_core::Query::builder))
/// stays available through the same import as the documented escape hatch
/// for dynamically-shaped queries (e.g. property names arriving from
/// config files).
pub mod api {
    pub use vqpy_core::frontend::library;
    pub use vqpy_core::frontend::relation::{distance_relation, overlap_relation};
    pub use vqpy_core::{
        Aggregate, Alias, CmpOp, ExtensionRegistry, Pred, Prop, PropRef, Query, Schema, Select,
        SessionConfig, TypedHit, TypedQuery, TypedQueryBuilder, TypedResult, VObjSchema, VqpyError,
        VqpySession,
    };
    pub use vqpy_models::{DecodeError, FromRow, FromValue, ModelZoo, Row, Value, ValueKind};
    pub use vqpy_serve::{
        AttachSpec, Attached, ConfigError, FaultStats, PaceMode, RestartPolicy, ServeConfig,
        ServeEvent, ServeSession, StoreFaultNotice, StreamFault, StreamLoad, StreamServer,
        StreamSupervisor, Subscription, SupervisorConfig, Telemetry, TypedServeEvent,
        TypedSubscription,
    };
    pub use vqpy_store::{FrameStore, RetentionPolicy, StoreConfig};
    pub use vqpy_video::{presets, FaultyVideo, Scene, SyntheticVideo, VideoSource};
}
