//! The object-centric backend (§4): object graph, operators, planner,
//! optimizer, canary profiler, execution engine, object tables and reuse.

pub mod dispatch;
pub mod exec;
pub mod graph;
pub mod objects;
pub mod ops;
pub mod optimize;
pub mod pipeline;
pub mod plan;
pub mod profile;
pub mod reuse;
pub mod stage;
pub mod symbols;
