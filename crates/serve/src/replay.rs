//! Store adapters for hybrid replay: the pieces that connect a live
//! stream's execution to its persistent [`vqpy_store::StreamStore`].
//!
//! Three adapters, all sitting on existing injection points — none of the
//! execution layers know the store exists:
//!
//! - [`StoreTier`] implements the reuse cache's durable-tier hook
//!   ([`vqpy_core::backend::reuse::ReuseTier`]) over a stream store, so
//!   intrinsic property values written by live execution persist, and
//!   replay (or a reopened process) reads them back instead of re-running
//!   classify stages.
//! - [`RecordingDispatch`] wraps a stream's [`ModelDispatch`] boundary and
//!   records every detect / binary-filter answer per frame; the server
//!   drains it after each step into [`vqpy_store::FrameRecord`] appends.
//! - [`StoreDispatch`] is the replay-side inverse: a dispatch boundary
//!   that answers detect / predict from a prefetched window of stored
//!   records (charging a token `store_read` cost instead of the model's),
//!   falling back to real recomputation for frames the store no longer
//!   has — eviction and corruption degrade to slower replay, never to
//!   different results (every model is deterministic per (frame, entity)).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vqpy_core::backend::reuse::ReuseTier;
use vqpy_core::ModelDispatch;
use vqpy_models::{Classifier, Clock, Detection, Detector, FrameClassifier, ModelFault, Value};
use vqpy_store::{FrameRecord, StoreMetrics, StreamStore};
use vqpy_video::frame::Frame;

/// Clock label charged for model stages answered from the store during
/// replay, in place of the model's own cost.
pub const STORE_READ_LABEL: &str = "store_read";

/// Host milliseconds charged per frame served from the store — the token
/// cost of reading and decoding a stored record, orders of magnitude below
/// any model cost (which is the whole point of replaying from the store).
pub const STORE_READ_COST_MS: f64 = 0.05;

/// Durable tier over a [`StreamStore`]: the write-through / read-back hook
/// the engine's in-memory reuse cache calls on miss. Track ids are
/// deterministic from the stream origin, so values written by a previous
/// engine — or a previous process — are valid for the same `(alias,
/// track, prop)` key forever.
#[derive(Debug)]
pub struct StoreTier {
    stream: Arc<StreamStore>,
}

impl StoreTier {
    /// Wraps a stream store as a reuse tier.
    pub fn new(stream: Arc<StreamStore>) -> Self {
        Self { stream }
    }
}

impl ReuseTier for StoreTier {
    fn load(&self, alias: &str, track: u64, prop: &str) -> Option<Value> {
        self.stream.tier_load(alias, track, prop)
    }

    fn save(&self, alias: &str, track: u64, prop: &str, value: &Value) {
        self.stream.tier_save(alias, track, prop, value.clone());
    }
}

/// A pass-through [`ModelDispatch`] that records every detect and
/// binary-filter answer into one [`FrameRecord`] per frame index. The
/// server drains the recording after each step and appends the records
/// as they are, stamped with their ingest time.
/// Classify answers are *not* recorded here — they flow through the reuse
/// cache's [`StoreTier`] write-through instead, already keyed durably.
///
/// Restart re-runs overwrite a frame's entry (per model name), so the
/// drained recording always reflects the attempt that actually delivered.
pub struct RecordingDispatch {
    inner: Arc<dyn ModelDispatch>,
    frames: Mutex<HashMap<u64, FrameRecord>>,
}

impl RecordingDispatch {
    /// Wraps an inner dispatch boundary (the stream's batcher/retry chain,
    /// or [`DirectDispatch`](vqpy_core::DirectDispatch)).
    pub fn new(inner: Arc<dyn ModelDispatch>) -> Self {
        Self {
            inner,
            frames: Mutex::new(HashMap::new()),
        }
    }

    /// The dispatch boundary the recorder wraps: the stream's own stack
    /// below the recording, which a replay of the stream runs on too.
    pub(crate) fn inner(&self) -> Arc<dyn ModelDispatch> {
        Arc::clone(&self.inner)
    }

    /// Takes everything recorded so far (frame → record), leaving the
    /// recorder empty for the next segment.
    pub(crate) fn drain(&self) -> HashMap<u64, FrameRecord> {
        std::mem::take(&mut *self.frames.lock())
    }
}

/// The frame's record in a recording, opened on first use.
fn record_of<'a>(rec: &'a mut HashMap<u64, FrameRecord>, f: &Frame) -> &'a mut FrameRecord {
    rec.entry(f.index).or_insert_with(|| FrameRecord {
        frame: f.index,
        time_s: f.time_s,
        ..FrameRecord::default()
    })
}

impl ModelDispatch for RecordingDispatch {
    fn detect(
        &self,
        detector: &Arc<dyn Detector>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        let out = self.inner.detect(detector, frames, clock)?;
        let name = &detector.profile().name;
        let mut rec = self.frames.lock();
        for (f, dets) in frames.iter().zip(&out) {
            let entry = record_of(&mut rec, f);
            entry.detects.retain(|(n, _)| n != name);
            entry.detects.push((name.clone(), dets.clone()));
        }
        Ok(out)
    }

    fn predict(
        &self,
        model: &Arc<dyn FrameClassifier>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<bool>, ModelFault> {
        let out = self.inner.predict(model, frames, clock)?;
        let name = &model.profile().name;
        let mut rec = self.frames.lock();
        for (f, verdict) in frames.iter().zip(&out) {
            let entry = record_of(&mut rec, f);
            entry.predicts.retain(|(n, _)| n != name);
            entry.predicts.push((name.clone(), *verdict));
        }
        Ok(out)
    }

    fn classify(
        &self,
        model: &Arc<dyn Classifier>,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        self.inner.classify(model, frame, dets, clock)
    }
}

/// The replay-side dispatch boundary: answers detect and binary-filter
/// invocations from a prefetched window of stored records, charging
/// [`STORE_READ_COST_MS`] per frame under [`STORE_READ_LABEL`] instead of
/// the model's cost. A batch with *any* frame missing from the window (an
/// evicted or corrupt segment, or a model that was not attached when the
/// frame ran live) falls through to the inner dispatch wholesale —
/// recomputation is deterministic, so the answers are identical either
/// way. Classify traffic always goes to the inner dispatch; stored
/// intrinsics short-circuit it earlier, at the reuse cache.
pub struct StoreDispatch {
    inner: Arc<dyn ModelDispatch>,
    window: Mutex<HashMap<u64, FrameRecord>>,
    metrics: Arc<StoreMetrics>,
}

impl StoreDispatch {
    /// Creates the boundary over a fallback dispatch and the store's
    /// shared metrics (for the `replay_hits` counter).
    pub fn new(inner: Arc<dyn ModelDispatch>, metrics: Arc<StoreMetrics>) -> Self {
        Self {
            inner,
            window: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Replaces the prefetch window with one replay chunk's records.
    pub fn set_window(&self, records: Vec<FrameRecord>) {
        *self.window.lock() = records.into_iter().map(|r| (r.frame, r)).collect();
    }
}

impl ModelDispatch for StoreDispatch {
    fn detect(
        &self,
        detector: &Arc<dyn Detector>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        let name = &detector.profile().name;
        {
            let window = self.window.lock();
            let stored: Option<Vec<Vec<Detection>>> = frames
                .iter()
                .map(|f| {
                    let rec = window.get(&f.index)?;
                    let (_, dets) = rec.detects.iter().find(|(n, _)| n == name)?;
                    Some(dets.clone())
                })
                .collect();
            if let Some(out) = stored {
                clock.charge_labeled(STORE_READ_LABEL, STORE_READ_COST_MS * frames.len() as f64);
                self.metrics
                    .replay_hits
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
                return Ok(out);
            }
        }
        self.inner.detect(detector, frames, clock)
    }

    fn predict(
        &self,
        model: &Arc<dyn FrameClassifier>,
        frames: &[&Frame],
        clock: &Clock,
    ) -> Result<Vec<bool>, ModelFault> {
        let name = &model.profile().name;
        {
            let window = self.window.lock();
            let stored: Option<Vec<bool>> = frames
                .iter()
                .map(|f| {
                    let rec = window.get(&f.index)?;
                    rec.predicts
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|&(_, v)| v)
                })
                .collect();
            if let Some(out) = stored {
                clock.charge_labeled(STORE_READ_LABEL, STORE_READ_COST_MS * frames.len() as f64);
                self.metrics
                    .replay_hits
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
                return Ok(out);
            }
        }
        self.inner.predict(model, frames, clock)
    }

    fn classify(
        &self,
        model: &Arc<dyn Classifier>,
        frame: &Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        self.inner.classify(model, frame, dets, clock)
    }
}
