//! Store adapters for hybrid replay: the pieces that connect a live
//! stream's execution to its persistent [`vqpy_store::StreamStore`].
//!
//! Two adapters, both sitting on the model-dispatch injection point — none
//! of the execution layers know the store exists:
//!
//! - [`RecordingDispatch`] wraps a stream's [`ModelDispatch`] boundary and
//!   records every detect / binary-filter answer per frame; the server
//!   drains it after each step into [`vqpy_store::FrameRecord`] appends.
//! - [`StoreDispatch`] is the replay-side inverse: a dispatch boundary
//!   that answers detect / predict from a prefetched window of stored
//!   records (charging a token `store_read` cost instead of the model's),
//!   falling back to real recomputation for frames the store no longer
//!   has — eviction and corruption degrade to slower replay, never to
//!   different results (every model is deterministic per (frame, entity)).
//!
//! Classify answers are not persisted: an intrinsic value is memoised per
//! tracked object in the engine's object tables, and a track id names an
//! object only within the tracker that assigned it.

use crate::config::{ServeError, ServeResult};
use crate::delivery::{ActiveSub, Exit};
use crate::server::{StepOutcome, StreamId};
use crate::stream::{Feed, Stream, StreamHandle};
use crate::subscription::{ServeEvent, StoreFaultNotice, Subscription};
use crate::StreamServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::{ModelDispatch, Query};
use vqpy_models::{Classifier, Clock, Detection, Detector, FrameClassifier, ModelFault, Value};
use vqpy_store::{FrameRecord, StoreFault, StoreMetrics};
use vqpy_video::frame::Frame;

/// Clock label charged for model stages answered from the store during
/// replay, in place of the model's own cost.
pub const STORE_READ_LABEL: &str = "store_read";

/// Host milliseconds charged per frame served from the store — the token
/// cost of reading and decoding a stored record, orders of magnitude below
/// any model cost (which is the whole point of replaying from the store).
pub const STORE_READ_COST_MS: f64 = 0.05;

/// A pass-through [`ModelDispatch`] that records every detect and
/// binary-filter answer into one [`FrameRecord`] per frame index. The
/// server drains the recording after each step and appends the records
/// as they are, stamped with their ingest time.
/// Classify answers pass through unrecorded: they are not persisted.
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

    fn classify_jobs(
        &self,
        model: &Arc<dyn Classifier>,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        self.inner.classify_jobs(model, jobs, clock)
    }
}

/// The replay-side dispatch boundary: answers detect and binary-filter
/// invocations from a prefetched window of stored records, charging
/// [`STORE_READ_COST_MS`] per frame under [`STORE_READ_LABEL`] instead of
/// the model's cost. A batch with *any* frame missing from the window (an
/// evicted or corrupt segment, or a model that was not attached when the
/// frame ran live) falls through to the inner dispatch wholesale —
/// recomputation is deterministic, so the answers are identical either
/// way. Classify traffic always goes to the inner dispatch; the engine's
/// memoised intrinsics short-circuit it earlier, at the object tables'
/// cells.
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

    fn classify_jobs(
        &self,
        model: &Arc<dyn Classifier>,
        jobs: &[(&Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        self.inner.classify_jobs(model, jobs, clock)
    }
}

/// How many live steps' worth of frames one [`StreamServer::step`] of a
/// replay may execute. Replays are scheduled like any other stream (one
/// bounded turn per scheduler visit), so this caps how long a backfill
/// turn holds its shard — backfill never starves live streams — while
/// still letting the replay catch up: it advances several steps' worth per
/// turn against the live stream's one.
const REPLAY_BUDGET_STEPS: u64 = 4;

impl StreamServer {
    /// The from-past attach path: builds the private replay engine over
    /// the stored history and registers the replay as one more stream.
    ///
    /// Semantically the subscription behaves *as if it had been attached at
    /// the stream's origin, delivering from `from`*: hits arrive for every
    /// frame whose ingest time is at or after `from` (stored past first,
    /// then live), and the video aggregate covers the whole stream. The
    /// replay runs on a private engine over the live stream's dispatch
    /// stack (the one its recorder wraps); an equivalence suite pins its
    /// results byte-identical to an always-attached subscription's.
    ///
    /// Returns the subscription plus the replay's handle. A replay is a
    /// stream you `step`: a [`StreamSupervisor`](crate::StreamSupervisor)
    /// schedules it on a shard automatically for from-past specs; on a
    /// bare server, call [`StreamServer::step`] (or
    /// [`StreamServer::run_replay`]) interleaved with the live stream's
    /// steps. Attaching to an already-finished stream is allowed: the
    /// replay runs the stored history to the end and delivers
    /// [`ServeEvent::End`].
    ///
    /// Errors with [`ServeError::StoreDisabled`] when the server has no
    /// [`ServeConfig::store`] or the stream's store directory failed to
    /// open.
    pub(crate) fn attach_replay(
        &self,
        stream: StreamId,
        query: Arc<Query>,
        from: Instant,
    ) -> ServeResult<(Subscription, Arc<StreamHandle>)> {
        let fs = self
            .config
            .store
            .as_ref()
            .ok_or(ServeError::StoreDisabled)?;
        let (source, store, base) = {
            let live = self.live_handle(stream)?;
            let Feed::Live {
                recorder: Some(recorder),
            } = &live.feed
            else {
                return Err(ServeError::StoreDisabled);
            };
            let s = live.state.lock();
            let store = s.store.clone().ok_or(ServeError::StoreDisabled)?;
            (Arc::clone(&s.source), store, recorder.inner())
        };
        // First frame whose ingest timestamp is at or after `from`; if the
        // whole stored past predates `from`, delivery starts at the live
        // boundary (frames ingested after this call).
        let deliver_from = store
            .frame_at_or_after(fs.instant_us(from))
            .unwrap_or_else(|| store.next_frame());
        // Over the live stream's stack (retry, the shared batcher, a
        // caller's base): what the store lacks recomputes as it would live.
        let window = Arc::new(StoreDispatch::new(base, fs.metrics()));
        let dispatch = Arc::clone(&window) as Arc<dyn ModelDispatch>;
        let mut replay = Stream::new(source, dispatch, self.store_tracer.clone());
        replay.store = Some(store);
        self.install(&mut replay, std::slice::from_ref(&query), None)?;
        let (sub, pending) = self.subscribe(query);
        replay
            .subs
            .push(ActiveSub::new(pending, &self.config.telemetry));
        let feed = Feed::Replay {
            of: stream,
            sub: sub.id(),
            window,
            deliver_from,
        };
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(StreamHandle::new(id, feed, replay));
        self.streams.lock().insert(id, Arc::clone(&handle));
        Ok((sub, handle))
    }

    /// One turn of a replay (see [`StreamServer::step`]): apply a pending
    /// detach, chase the live stream's published boundary through the
    /// stored history in one chunk of at most [`REPLAY_BUDGET_STEPS`]
    /// steps' worth of frames (one store read, run a step at a time), then
    /// splice into the live stream once caught up, or finish once the
    /// stored history of a finished stream ends.
    pub(crate) fn step_replay(
        &self,
        handle: &StreamHandle,
        s: &mut Stream,
        of: StreamId,
        window: &StoreDispatch,
    ) -> ServeResult<StepOutcome> {
        let live = self.handle(of).ok();
        if live.is_none() {
            // The live stream was closed underneath the replay: detach it,
            // delivering the aggregate so far.
            let ids = s.subs.iter().map(|a| a.id);
            handle.commands.lock().detach.extend(ids);
        }
        let detached = self.apply_commands(handle, s)?;
        let Some(live) = live.filter(|_| !s.subs.is_empty()) else {
            return Ok(StepOutcome {
                frames: 0,
                finished: true,
                recompiled: detached,
            });
        };
        // One chunk of stored history, read from the store once: a damaged
        // or missing segment becomes one typed StoreFault notice per replay
        // (its frames recompute), the rest primes the store-backed window,
        // and the range runs a step at a time like live segments, so a
        // restart rolls back one step, as it does live.
        let step_frames = self.frames_per_step();
        let chunk = |s: &mut Stream, end: u64| -> ServeResult<()> {
            let start = s.next_frame;
            let store = s.store.as_ref().expect("a replay reads its stream's store");
            let load = {
                let _span = self
                    .store_tracer
                    .span("store", "load_chunk")
                    .arg("start", start)
                    .arg("end", end);
                store.load_range(start, end)
            };
            for fault in &load.faults {
                let path = match fault {
                    StoreFault::Corrupt(f) => &f.path,
                    StoreFault::Missing { path } => path,
                };
                // A segment may overlap several chunks: notice it once.
                if s.store_faults.contains(path) {
                    continue;
                }
                s.store_faults.push(path.clone());
                live.store_corruptions.fetch_add(1, Ordering::Relaxed);
                let notice = StoreFaultNotice {
                    frame: start,
                    detail: fault.to_string(),
                };
                let event = ServeEvent::StoreFault(notice);
                for sub in &mut s.subs {
                    sub.notify(event.clone(), self.config.backpressure);
                }
            }
            window.set_window(load.records);
            while s.next_frame < end {
                let range = s.next_frame..(s.next_frame + step_frames).min(end);
                let _span = self
                    .store_tracer
                    .span("store", "replay")
                    .arg("start", range.start)
                    .arg("frames", range.end - range.start);
                self.run_segment_isolated(handle, s, &range, Instant::now())?;
                s.next_frame = range.end;
            }
            Ok(())
        };
        let budget = step_frames * REPLAY_BUDGET_STEPS;
        let total = s.source.frame_count();
        let live_finished = live.finished.load(Ordering::Acquire);
        // Chase the live stream's published boundary (or end-of-video once
        // it finished): frames past it are not stored yet.
        let target = if live_finished {
            total
        } else {
            live.published_next_frame.load(Ordering::Acquire).min(total)
        };
        let start = s.next_frame;
        if start < target {
            chunk(s, (start + budget).min(target))?;
        }
        let frames = s.next_frame - start;
        let outcome = |finished, recompiled| StepOutcome {
            frames,
            finished,
            recompiled,
        };
        if live_finished && s.next_frame >= total {
            self.retire(handle, s, Exit::End);
            return Ok(outcome(true, false));
        }
        if live_finished || s.next_frame < target || frames >= budget {
            return Ok(outcome(false, false));
        }
        // Caught up with budget to spare: splice. Taking the live
        // execution lock orders us against a running step; the live stream
        // may have advanced (or finished) meanwhile, so re-check under it.
        let mut live_state = live.state.lock();
        let live_next = live_state.next_frame;
        if live.finished.load(Ordering::Acquire)
            || live_next.saturating_sub(s.next_frame) > step_frames
        {
            // The next turn resumes the chase.
            return Ok(outcome(false, false));
        }
        // Close the gap (at most one step) under the lock — the live
        // stream cannot advance past us — then splice.
        if s.next_frame < live_next {
            chunk(s, live_next)?;
        }
        self.splice(&mut live_state, s)?;
        // The replay's one subscription delivers on the live stream now.
        for (from, to) in [
            (&handle.delivered, &live.delivered),
            (&handle.dropped, &live.dropped),
        ] {
            to.fetch_add(from.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        }
        // Retire under the commands lock `detach` checks: a detach queued
        // since this turn's `apply_commands` moves with the subscription.
        let mut commands = handle.commands.lock();
        handle.finished.store(true, Ordering::Release);
        live.commands.lock().detach.append(&mut commands.detach);
        Ok(outcome(true, true))
    }

    /// Splices a caught-up replay into the live stream (called with the
    /// live execution lock held, at what is by construction a batch
    /// boundary for both engines): the replay engine retires, and the live
    /// super-plan is recompiled with the replayed query appended, seeded
    /// with the replay's stream state so the query's tracker, windows and
    /// values arrive with full history, and the subscriber joins the live
    /// delivery list.
    fn splice(&self, live: &mut Stream, replay: &mut Stream) -> ServeResult<()> {
        let _span = self
            .store_tracer
            .span("store", "splice")
            .arg("frame", live.next_frame);
        let (_, ops) = replay
            .plan
            .take()
            .expect("a replay keeps its plan until it splices");
        let seed = ops.state;
        // Survivors in attach order, then the replayed query — the same
        // join-order rule apply_commands uses.
        let queries: Vec<Arc<Query>> = live
            .subs
            .iter()
            .chain(&replay.subs)
            .map(|a| Arc::clone(&a.query))
            .collect();
        self.install(live, &queries, Some(seed))?;
        live.subs.append(&mut replay.subs);
        Ok(())
    }
}
