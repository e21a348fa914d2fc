//! # vqpy-core
//!
//! The core of the VQPy reproduction: a video-object-oriented query
//! frontend and an object-centric optimizing backend, after
//! "VQPy: An Object-Oriented Approach to Modern Video Analytics"
//! (Yu et al., MLSys 2024).
//!
//! - **Frontend** ([`frontend`]): [`frontend::vobj::VObjSchema`] with
//!   inheritance, stateless/stateful/intrinsic properties,
//!   [`frontend::relation::RelationSchema`], predicate expressions with
//!   `&`/`|`/`!`, [`frontend::query::Query`] with frame/video constraints
//!   and outputs, and higher-order composition
//!   (Spatial/Duration/Temporal) with Rules 1-3 enforced.
//! - **Backend** ([`backend`]): object-graph data model, the six operator
//!   families, lazy plan generation, predicate pull-up, operator fusion,
//!   inheritance-driven alternative plans, canary profiling with F1
//!   scoring, intrinsic-property reuse, and materialized query results.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use vqpy_core::frontend::{library, predicate::Pred, query::Query};
//! use vqpy_core::session::VqpySession;
//! use vqpy_models::ModelZoo;
//! use vqpy_video::{presets, scene::Scene, source::SyntheticVideo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let query = Query::builder("RedCar")
//!     .vobj("car", library::vehicle_schema())
//!     .frame_constraint(Pred::gt("car", "score", 0.6) & Pred::eq("car", "color", "red"))
//!     .frame_output(&[("car", "track_id"), ("car", "bbox")])
//!     .build()?;
//! let session = VqpySession::new(ModelZoo::standard());
//! let video = SyntheticVideo::new(Scene::generate(presets::banff(), 7, 5.0));
//! let result = session.execute(&query, &video)?;
//! println!("{} hit frames", result.frame_hits.len());
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod error;
pub mod extend;
pub mod frontend;
pub mod scoring;
pub mod session;

pub use vqpy_obs::{Telemetry, Tracer};

pub use backend::dispatch::{
    DirectDispatch, ModelDispatch, ModelStage, RetryDispatch, RetryPolicy, RETRY_BACKOFF_LABEL,
};
pub use backend::exec::{
    Collector, ExecConfig, ExecMetrics, ExecMode, FrameHit, QueryAccum, QueryResult, ResultSink,
};
pub use backend::plan::{build_plan, OpSpec, PlanDag, PlanOptions};
pub use backend::stage::StageOps;
pub use error::{panic_message, ComposeError, VqpyError};
pub use extend::{BinaryFilterReg, ExtensionRegistry, FrameFilterReg, SpecializedNnReg};
pub use frontend::compose::{duration_query, spatial_query, temporal_query, QueryExpr};
pub use frontend::predicate::{CmpOp, Pred, PropRef};
pub use frontend::query::{Aggregate, Query, QueryBuilder};
pub use frontend::typed::{
    Alias, Prop, Schema, Select, TypedHit, TypedQuery, TypedQueryBuilder, TypedResult,
};
pub use frontend::vobj::VObjSchema;
pub use session::{ComposedResult, SessionConfig, VqpySession};
