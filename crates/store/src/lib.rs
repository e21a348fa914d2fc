//! # vqpy-store
//!
//! A persistent frame/result store for the VQPy serving stack: the history
//! that turns "attach a query and watch future frames" into "query last
//! Tuesday's footage, *then* keep watching".
//!
//! Each stream gets a directory of append-only segment files persisting,
//! per frame, what its frame-level models answered: detector outputs and
//! frame-classifier verdicts. Intrinsic property values are not stored:
//! they are memoised per tracked object, and a track id means an object
//! only to the tracker that assigned it. Pixels are **not** stored either
//! — decode is cheap and deterministic, so a replay re-decodes and skips
//! exactly the expensive model stages whose outputs are on disk.
//!
//! Key pieces:
//!
//! - [`FrameStore`] / [`StreamStore`] — the store and its per-stream
//!   handles ([`FrameStore::stream`]); appends roll segment files at
//!   [`StoreConfig::segment_frames`] frames.
//! - [`RetentionPolicy`] — max-bytes / max-age bounds over sealed
//!   segments, enforced over every stream by the append that seals a
//!   segment, on the appending thread (or only when
//!   [`FrameStore::enforce_retention`] is called, with
//!   [`StoreConfig::background_eviction`] off). The store starts no
//!   thread.
//! - [`segment`] — the on-disk format: checksummed, length-prefixed
//!   records whose scanner treats truncation and bit rot as typed
//!   [`SegmentFault`]s, never panics. It reads only the format version it
//!   writes; a segment in any other is a bad header, which a reopen
//!   counts and deletes, and its frames recompute on replay.
//!   [`corrupt_segment`] is the deterministic damage injector for tests.
//! - [`FrameRecord`] — the per-frame artifact record. It is written in a
//!   small hand-rolled binary codec (private to this crate) whose decode
//!   fails with a typed [`WireError`] on hostile input. The header, the
//!   record layout and the codec all live here, so one crate owns the
//!   on-disk format.
//! - [`StoreMetrics`] — shared atomic counters the serving layer exports
//!   as `vqpy_store_*` Prometheus metrics.
//!
//! The serving layer (`vqpy-serve`) builds hybrid replay on top: a
//! `from: Instant` attach replays the stored suffix through the engine and
//! splices into the live stream. This crate knows nothing about engines —
//! it stores and retrieves artifacts.

#![warn(missing_docs)]

pub mod record;
pub mod segment;
pub mod store;
mod wire;

pub use record::FrameRecord;
pub use segment::{
    corrupt_segment, fnv1a, scan_segment, SegmentCorruption, SegmentFault, SegmentFaultKind,
    SegmentMeta,
};
pub use store::{
    FrameStore, RangeLoad, RetentionPolicy, StoreConfig, StoreFault, StoreMetrics, StreamStore,
};
pub use wire::WireError;
