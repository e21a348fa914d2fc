//! The [`StreamServer`]: long-lived streams, runtime query attach/detach,
//! and per-query demultiplexing of the shared super-plan's output.

use crate::attach::{AttachMode, AttachSpec, Attached};
use crate::config::{ServeConfig, ServeError, ServeResult};
use crate::delivery::{ActiveSub, Exit, DELIVERED_TOTAL, DROPPED_TOTAL};
use crate::metrics::{ServeMetrics, ShardLoad};
use crate::replay::RecordingDispatch;
use crate::stream::{Feed, PendingAttach, Stream, StreamHandle};
use crate::subscription::{ServeEvent, Subscription, SubscriptionId};
use crate::supervisor::LoadSnapshot;
#[cfg(doc)]
use crate::Backpressure;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use vqpy_core::backend::objects::StreamState;
use vqpy_core::backend::stage::instantiate_stage_ops;
use vqpy_core::{DirectDispatch, ExecMetrics, ModelDispatch, Query, VqpySession};
use vqpy_models::ClockMode;
use vqpy_obs::{Telemetry, Tracer, STORE_LANE};
use vqpy_store::FrameStore;
use vqpy_video::source::VideoSource;

/// Identifier of one open stream on a server.
pub type StreamId = u64;

/// Per-stream knobs fixed at [`StreamServer::open_stream_with`] time.
///
/// ```
/// # use vqpy_serve::StreamOptions;
/// let defaults = StreamOptions::default();
/// assert!(defaults.dispatch.is_none());
/// ```
#[derive(Default)]
pub struct StreamOptions {
    /// Model-dispatch boundary for this stream's model stages, preserved
    /// across plan recompiles. `None` means direct per-stream invocation; the
    /// multi-stream supervisor passes a shared
    /// [`ModelBatcher`](crate::ModelBatcher) handle here so the stream's
    /// detect, binary-filter, and classify batches coalesce with other
    /// streams'.
    pub dispatch: Option<Arc<dyn ModelDispatch>>,
}

/// Outcome of one [`StreamServer::step`].
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Frames executed this step.
    pub frames: u64,
    /// Whether the stream reached end-of-video.
    pub finished: bool,
    /// Whether pending attach/detach commands changed the query set (the
    /// super-plan was swapped, created, or retired at this boundary).
    pub recompiled: bool,
}

/// A multi-stream, multi-query serving frontend over one [`VqpySession`].
///
/// The server shares the session's model zoo, clock, plan cache, and
/// execution configuration; each open stream owns its plan's operators and
/// drives them with the session's configured executor (sequential or
/// pipelined) over the live source. All attached queries of a
/// stream are compiled into one shared super-plan; [`StreamServer::step`]
/// (or [`StreamServer::run_to_end`]) advances the stream and delivers
/// per-query events to subscribers. A from-past replay is one more stream
/// id in the same table, advanced by the same `step`.
///
/// `attach` and `detach` are always non-blocking (they enqueue commands
/// applied at the next step boundary). Observers (`position`, `metrics`,
/// `exec_metrics`, `is_finished`) share the execution lock and may wait
/// while a step is in flight — under [`Backpressure::Block`] that can be
/// as long as subscribers take to drain.
pub struct StreamServer {
    pub(crate) session: Arc<VqpySession>,
    pub(crate) config: ServeConfig,
    /// Live streams and in-flight replays, in one id space.
    pub(crate) streams: Mutex<HashMap<StreamId, Arc<StreamHandle>>>,
    /// Span tracer for the shared `store` lane (appends, replay chunk
    /// loads, replay execution, splices).
    pub(crate) store_tracer: Tracer,
    pub(crate) next_stream: AtomicU64,
    pub(crate) next_sub: AtomicU64,
}

impl StreamServer {
    /// Creates a server over a session.
    ///
    /// When span tracing is enabled and the session clock runs in
    /// [`ClockMode::Virtual`] (no real time passes during model charges),
    /// span timestamps are rebound to the clock's virtual-microsecond
    /// tick, so the exported timeline reflects modeled cost rather than
    /// meaningless wall gaps. [`ClockMode::Latency`] really elapses, so
    /// its wall timestamps are already honest.
    pub fn new(session: Arc<VqpySession>, config: ServeConfig) -> Self {
        let tracer = config.telemetry.tracer();
        if tracer.is_enabled() {
            tracer.set_process_name(0, "shared");
            if session.clock().mode() == ClockMode::Virtual {
                let clock = session.clock_handle();
                tracer.set_time_source(move || clock.virtual_micros());
            }
        }
        // Registered up front: a scrape before the first event lists them.
        config.telemetry.registry().counter(DELIVERED_TOTAL);
        config.telemetry.registry().counter(DROPPED_TOTAL);
        let store_tracer = tracer.for_stream(STORE_LANE);
        if store_tracer.is_enabled() && config.store.is_some() {
            store_tracer.set_process_name(STORE_LANE, "store");
        }
        Self {
            session,
            config,
            streams: Mutex::new(HashMap::new()),
            store_tracer,
            next_stream: AtomicU64::new(1),
            next_sub: AtomicU64::new(1),
        }
    }

    /// The server's frame store, when one is configured
    /// ([`ServeConfig::store`]).
    pub fn store(&self) -> Option<&Arc<FrameStore>> {
        self.config.store.as_ref()
    }

    /// The owning session.
    pub fn session(&self) -> &Arc<VqpySession> {
        &self.session
    }

    /// Opens a live stream over a video source. Nothing executes until a
    /// query is attached and the stream is stepped.
    pub fn open_stream(&self, source: Arc<dyn VideoSource>) -> StreamId {
        self.open_stream_with(source, StreamOptions::default())
    }

    /// Opens a live stream with per-stream options (e.g. a shared
    /// cross-stream detect boundary). Nothing executes until a query is
    /// attached and the stream is stepped.
    pub fn open_stream_with(
        &self,
        source: Arc<dyn VideoSource>,
        options: StreamOptions,
    ) -> StreamId {
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        // Stream lanes are pid = id + 1 in the exported timeline; pid 0 is
        // reserved for shared components (the cross-stream batcher).
        let tracer = self.config.telemetry.tracer().for_stream(id + 1);
        if tracer.is_enabled() {
            tracer.set_process_name(id + 1, format!("stream {id}"));
        }
        let dispatch = options.dispatch.unwrap_or_else(|| Arc::new(DirectDispatch));
        let mut stream = Stream::new(source, dispatch, tracer);
        let mut recorder = None;
        if let Some(fs) = &self.config.store {
            match fs.stream(&format!("stream-{id}")) {
                Ok(ss) => {
                    // Record model answers by wrapping the stream's
                    // dispatch boundary; the recorder composes over a
                    // supervisor-supplied batcher/retry chain unchanged.
                    let r = Arc::new(RecordingDispatch::new(Arc::clone(&stream.dispatch)));
                    stream.dispatch = Arc::clone(&r) as Arc<dyn ModelDispatch>;
                    stream.store = Some(ss);
                    recorder = Some(r);
                }
                Err(e) => {
                    // The stream serves live-only; a from-past attach will
                    // report StoreDisabled for it.
                    eprintln!("vqpy-serve: store disabled for stream {id}: {e}");
                }
            }
        }
        self.streams.lock().insert(
            id,
            Arc::new(StreamHandle::new(id, Feed::Live { recorder }, stream)),
        );
        id
    }

    /// Frames executed by one [`StreamServer::step`] (while the source
    /// lasts): the session's execution batch size times
    /// [`ServeConfig::batches_per_step`]. Paced ingestion converts a target
    /// fps into a step cadence with this.
    pub fn frames_per_step(&self) -> u64 {
        self.session.config().exec.batch_size.max(1) as u64 * self.config.batches_per_step.max(1)
    }

    pub(crate) fn handle(&self, id: StreamId) -> ServeResult<Arc<StreamHandle>> {
        self.streams
            .lock()
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownStream(id))
    }

    /// The handle of a live stream: a replay's id is not an attach target.
    pub(crate) fn live_handle(&self, id: StreamId) -> ServeResult<Arc<StreamHandle>> {
        let handle = self.handle(id)?;
        if handle.is_replay() {
            return Err(ServeError::UnknownStream(id));
        }
        Ok(handle)
    }

    /// A fresh subscription for `query`: the receiving end, and the
    /// server-side half to register on a stream.
    pub(crate) fn subscribe(&self, query: Arc<Query>) -> (Subscription, PendingAttach) {
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(self.config.channel_capacity.max(1));
        let sub = Subscription::new(id, query.name().to_owned(), rx);
        (sub, PendingAttach { id, query, tx })
    }

    /// Attaches a query to a stream, described by an [`AttachSpec`] (a
    /// bare `Arc<Query>` or `&TypedQuery<R>` converts). Live attachments
    /// take effect at the next step boundary; events start with the first
    /// frame executed after that, and the query's video aggregate covers
    /// only the frames it observed. Never blocks behind a running step.
    ///
    /// A spec with [`AttachSpec::from`] replays the stored past instead
    /// (requires [`ServeConfig::store`]); the returned [`Attached`] then
    /// carries the replay's stream id. A replay is a stream you `step`:
    /// drive it with [`StreamServer::step`] (or
    /// [`StreamServer::run_replay`]) interleaved with the live stream's
    /// steps. The spec's mode ([`Untyped`](crate::Untyped)
    /// or [`Typed<R>`](crate::Typed)) decides the subscription type at
    /// compile time.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vqpy_core::frontend::{library, predicate::Pred};
    /// use vqpy_core::{Query, VqpySession};
    /// use vqpy_models::ModelZoo;
    /// use vqpy_serve::{ServeConfig, ServeSession};
    /// use vqpy_video::{presets, Scene, SyntheticVideo};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    /// let server = session.serve(ServeConfig::default());
    /// let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 2.0));
    /// let stream = server.open_stream(Arc::new(video));
    ///
    /// let query = Query::builder("RedCar")
    ///     .vobj("car", library::vehicle_schema())
    ///     .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
    ///     .build()?;
    /// let sub = server.attach(stream, query)?;
    ///
    /// server.run_to_end(stream)?;
    /// let (hits, _aggregate) = sub.collect();
    /// assert!(hits.len() as u64 <= server.position(stream)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn attach<M: AttachMode>(
        &self,
        stream: StreamId,
        spec: impl Into<AttachSpec<M>>,
    ) -> ServeResult<Attached<M::Sub>> {
        let spec = spec.into();
        match spec.from {
            None => Ok(Attached::new(
                M::wrap(self.attach_queued(stream, spec.query)?),
                None,
            )),
            Some(from) => {
                let (sub, replay) = self.attach_replay(stream, spec.query, from)?;
                Ok(Attached::new(M::wrap(sub), Some(replay.id)))
            }
        }
    }

    /// The live attach path: enqueues the query for the next step
    /// boundary and returns the raw subscription.
    pub(crate) fn attach_queued(
        &self,
        stream: StreamId,
        query: Arc<Query>,
    ) -> ServeResult<Subscription> {
        let handle = self.live_handle(stream)?;
        let mut commands = handle.commands.lock();
        if handle.finished.load(Ordering::Acquire) {
            return Err(ServeError::StreamFinished);
        }
        let (sub, pending) = self.subscribe(query);
        commands.attach.push(pending);
        Ok(sub)
    }

    /// Detaches a subscription at the next step boundary. The subscriber
    /// receives [`ServeEvent::Detached`] with its aggregate-so-far; other
    /// queries are unaffected (their operators keep their state through
    /// the recompile). Never blocks behind a running step, so a slow
    /// subscriber can always detach itself.
    ///
    /// A from-past subscription is served by its replay until the replay
    /// splices, and by the live stream after that; the live stream's id
    /// reaches it throughout, and the replay's id until the splice.
    pub fn detach(&self, stream: StreamId, sub: SubscriptionId) -> ServeResult<()> {
        let mut handle = self.handle(stream)?;
        if !handle.is_replay() {
            let replay = self
                .streams
                .lock()
                .values()
                .find(|h| {
                    matches!(h.feed, Feed::Replay { of, sub: s, .. } if of == stream && s == sub)
                        && !h.finished.load(Ordering::Acquire)
                })
                .cloned();
            handle = replay.unwrap_or(handle);
        }
        let mut commands = handle.commands.lock();
        if let Feed::Replay { of, .. } = handle.feed {
            // The splice retires a replay under this lock, carrying its
            // queued detaches over; after it the live stream serves `sub`.
            if handle.finished.load(Ordering::Acquire) {
                drop(commands);
                return self.detach(of, sub);
            }
        }
        if let Some(pos) = commands.attach.iter().position(|p| p.id == sub) {
            // Attached and detached within the same boundary: never ran.
            let p = commands.attach.remove(pos);
            let _ = p.tx.try_send(ServeEvent::Detached { video_value: None });
            return Ok(());
        }
        if commands.detach.contains(&sub) {
            return Ok(());
        }
        // Validate against the live set without holding the state lock:
        // enqueue optimistically and let apply_commands ignore unknown
        // ids, but reject ids that were never issued for this stream when
        // we can see that cheaply (state lock available).
        if let Some(state) = handle.state.try_lock() {
            if !state.subs.iter().any(|a| a.id == sub) {
                return Err(ServeError::UnknownSubscription(sub));
            }
        }
        commands.detach.push(sub);
        Ok(())
    }

    /// The next frame index the stream will execute. Shares the execution
    /// lock: may wait for an in-flight step.
    pub fn position(&self, stream: StreamId) -> ServeResult<u64> {
        Ok(self.handle(stream)?.state.lock().next_frame)
    }

    /// Whether the stream has reached end-of-video.
    pub fn is_finished(&self, stream: StreamId) -> ServeResult<bool> {
        Ok(self.handle(stream)?.finished.load(Ordering::Acquire))
    }

    /// Applies pending attach/detach commands, recompiling the super-plan
    /// incrementally. Returns whether the query set changed.
    ///
    /// Order matters for failure atomicity: the prospective plan is
    /// compiled and swapped in *before* any subscriber state changes, so a
    /// planning error (e.g. a newly attached query referencing an unknown
    /// model) leaves the stream running its old plan with its old
    /// subscribers, and the commands stay queued (detaching the offending
    /// attach clears the error).
    pub(crate) fn apply_commands(
        &self,
        handle: &StreamHandle,
        s: &mut Stream,
    ) -> ServeResult<bool> {
        let mut commands = handle.commands.lock();
        if commands.attach.is_empty() && commands.detach.is_empty() {
            return Ok(false);
        }
        // Prospective query set: survivors in attach order, then new
        // attaches — matching the join order of the plan built from it.
        let queries: Vec<Arc<Query>> = s
            .subs
            .iter()
            .filter(|a| !commands.detach.contains(&a.id))
            .map(|a| Arc::clone(&a.query))
            .chain(commands.attach.iter().map(|p| Arc::clone(&p.query)))
            .collect();
        self.install(s, &queries, None)?;

        // Plan swap succeeded — now commit the subscriber changes.
        self.retire(handle, s, Exit::Detach(&commands.detach));
        commands.detach.clear();
        for p in commands.attach.drain(..) {
            s.subs.push(ActiveSub::new(p, &self.config.telemetry));
        }
        Ok(true)
    }

    /// Advances a stream by one step ([`ServeConfig::batches_per_step`]
    /// batches), applying pending attach/detach commands first. No frames
    /// are skipped by a recompile: execution resumes at exactly the next
    /// frame index.
    ///
    /// A replay's id steps the same way: one bounded turn of chasing the
    /// live stream through the stored history. The replay reports
    /// `finished` once it has spliced into the live stream, ended with the
    /// stored history of a finished stream, or been detached; from then on
    /// (or after an error) its id is retired and stepping it is
    /// [`ServeError::UnknownStream`].
    pub fn step(&self, stream: StreamId) -> ServeResult<StepOutcome> {
        let handle = self.handle(stream)?;
        self.step_handle(&handle)
    }

    /// [`StreamServer::step`] on a handle already in hand: what a shard
    /// calls for the streams it schedules.
    pub(crate) fn step_handle(&self, handle: &StreamHandle) -> ServeResult<StepOutcome> {
        let mut s = handle.state.lock();
        if handle.finished.load(Ordering::Acquire) {
            return Ok(StepOutcome {
                frames: 0,
                finished: true,
                recompiled: false,
            });
        }
        match &handle.feed {
            Feed::Live { recorder } => self.step_live(handle, &mut s, recorder.as_deref()),
            Feed::Replay { of, window, .. } => {
                let out = self.step_replay(handle, &mut s, *of, window);
                if out.as_ref().map_or(true, |o| o.finished) {
                    // Spliced, ended, detached or failed: retire the id.
                    handle.finished.store(true, Ordering::Release);
                    self.streams.lock().remove(&handle.id);
                }
                out
            }
        }
    }

    /// The one way a query set enters a stream: plans `queries` and builds
    /// the plan's operators, with the stream's dispatch and tracer, over the
    /// stream's state (which moves into the new plan's, see
    /// [`StreamState::adopt`]) or an empty one; or drops the plan and its
    /// state when no query is left. Swapping or dropping a plan counts as
    /// a recompile. `seed` is another stream's state (a replay's, at the
    /// splice), used only where this stream has none of its own. On error
    /// the stream keeps its plan.
    pub(crate) fn install(
        &self,
        s: &mut Stream,
        queries: &[Arc<Query>],
        seed: Option<StreamState>,
    ) -> ServeResult<()> {
        if queries.is_empty() {
            if s.plan.take().is_some() {
                s.recompiles += 1;
            }
            return Ok(());
        }
        // The session's planner dedups structurally: one detect per model,
        // one tracker per alias, one projection per (alias, prop) — shared
        // subgraphs of the attached queries execute once per batch. The
        // session-level plan cache makes repeated query sets cheap.
        let plan = self.session.plan_for(queries, s.source.as_ref())?;
        let workers = self.session.config().exec.exec_mode.workers();
        let mut ops = instantiate_stage_ops(&plan, self.session.zoo(), workers)?;
        ops.dispatch = Arc::clone(&s.dispatch);
        ops.tracer = s.tracer.clone();
        let own = s.plan.take().map(|(_, old)| old.state);
        s.recompiles += u64::from(own.is_some());
        ops.state
            .adopt(own.unwrap_or_default(), seed.unwrap_or_default());
        s.plan = Some((plan, ops));
        Ok(())
    }

    /// Steps `stream` until it finishes.
    fn drive(&self, stream: StreamId) -> ServeResult<()> {
        loop {
            let out = self.step(stream)?;
            if out.finished {
                return Ok(());
            }
            if out.frames == 0 {
                // A replay waiting at the live boundary: let whoever steps
                // the live stream run.
                std::thread::yield_now();
            }
        }
    }

    /// Steps a replay (the stream id a from-past attach returned) until it
    /// finishes: splice, end, or detach. For a hybrid replay of a
    /// still-live stream, the live stream must be stepped concurrently (a
    /// shard or driver thread) or the replay will spin at the chase
    /// boundary.
    pub fn run_replay(&self, replay: StreamId) -> ServeResult<()> {
        self.drive(replay)
    }

    /// Drives the stream to end-of-video, then returns its metrics. With
    /// [`Backpressure::Block`], subscribers must be drained concurrently
    /// (or fit within the channel capacity) or this will stall by design.
    pub fn run_to_end(&self, stream: StreamId) -> ServeResult<ServeMetrics> {
        self.drive(stream)?;
        self.metrics(stream)
    }

    /// Wall-clock serving metrics for a stream. Shares the execution
    /// lock: may wait for an in-flight step.
    pub fn metrics(&self, stream: StreamId) -> ServeResult<ServeMetrics> {
        let handle = self.handle(stream)?;
        let s = handle.state.lock();
        let exec = &s.exec;
        let mut per_query = s.past_queries.clone();
        per_query.extend(s.subs.iter().map(|a| a.metrics()));
        let dropped_events = per_query.iter().map(|q| q.dropped).sum();
        Ok(ServeMetrics {
            frames_total: exec.frames_total,
            batches: s.batches,
            recompiles: s.recompiles,
            restarts: s.restarts,
            frames_lost: s.frames_lost,
            decode_failures: exec.decode_failures,
            store_corruptions: handle.store_corruptions.load(Ordering::Relaxed),
            wall_ms: s.wall_ms,
            frames_per_s: if s.wall_ms > 0.0 {
                exec.frames_total as f64 / (s.wall_ms / 1e3)
            } else {
                0.0
            },
            reuse_hit_rate: exec.reuse.hit_rate(),
            dropped_events,
            per_query,
        })
    }

    /// Cumulative execution metrics of a stream (frame and reuse
    /// counters) across every plan it has run, for bench reports.
    pub fn exec_metrics(&self, stream: StreamId) -> ServeResult<ExecMetrics> {
        let handle = self.handle(stream)?;
        let s = handle.state.lock();
        Ok(s.exec.clone())
    }

    /// Server-wide load, summed over the counters on every open stream's
    /// handle. Never waits on an execution lock, so admission control can
    /// consult it while streams are mid-step. A replayed subscription's
    /// events count once it splices into its live stream.
    pub fn aggregate(&self) -> LoadSnapshot {
        self.fold_load(&mut [])
    }

    /// The one fold over the stream table every load view reads: the live
    /// streams' handle counters summed, and each scheduled stream's
    /// occupancy and backlog added to its row of `shards` (by index).
    pub(crate) fn fold_load(&self, shards: &mut [ShardLoad]) -> LoadSnapshot {
        let mut load = LoadSnapshot::default();
        for h in self.streams.lock().values().filter(|h| !h.is_replay()) {
            let s = h.load();
            let active = h.active.load(Ordering::Acquire);
            load.streams += 1;
            load.finished_streams += usize::from(s.finished);
            load.active_streams += usize::from(active);
            load.queue_depth += s.queue_depth;
            load.ticks_shed += s.ticks_shed;
            load.frames_total += s.frames_total;
            load.delivered += s.delivered;
            load.dropped += s.dropped;
            if let Some(row) = h.pace.get().and_then(|&(_, shard)| shards.get_mut(shard)) {
                row.streams += usize::from(active);
                row.queue_depth += s.queue_depth;
            }
        }
        load
    }

    /// The server's telemetry handle (shared with
    /// [`ServeConfig::telemetry`]): export the span timeline with
    /// [`Telemetry::perfetto_json`] and the metric registry with
    /// [`Telemetry::prometheus_text`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// Closes a stream, dropping its plan and subscriptions. Subscribers
    /// see their channels close.
    pub fn close_stream(&self, stream: StreamId) -> ServeResult<()> {
        self.streams
            .lock()
            .remove(&stream)
            .map(|_| ())
            .ok_or(ServeError::UnknownStream(stream))
    }
}

/// Session-level serving entry point: `session.serve(config)`.
///
/// Lives in `vqpy-serve` (as an extension trait) so the core crate stays
/// independent of the serving layer; re-exported from the facade crate as
/// `vqpy::serve::ServeSession`.
pub trait ServeSession {
    /// Opens a stream server backed by this session's zoo, clock, plan
    /// cache, and execution configuration.
    fn serve(self: &Arc<Self>, config: ServeConfig) -> StreamServer;
}

impl ServeSession for VqpySession {
    fn serve(self: &Arc<Self>, config: ServeConfig) -> StreamServer {
        StreamServer::new(Arc::clone(self), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use vqpy_core::backend::exec::run_segment;
    use vqpy_core::backend::plan::{build_plan, PlanOptions};
    use vqpy_core::backend::stage::ExecEnv;
    use vqpy_core::frontend::{library, predicate::Pred};
    use vqpy_core::{Collector, FrameHit, PlanDag};
    use vqpy_models::ModelZoo;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    fn query(name: &str, color: &str) -> Arc<Query> {
        Query::builder(name)
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", color))
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap()
    }

    fn server() -> StreamServer {
        let session = Arc::new(VqpySession::new(ModelZoo::standard()));
        session.serve(ServeConfig::default())
    }

    /// A stream over jackson seed 9, running `queries` from frame 0.
    fn stream(server: &StreamServer, seconds: f64, queries: &[Arc<Query>]) -> Stream {
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 9, seconds));
        let mut s = Stream::new(Arc::new(v), Arc::new(DirectDispatch), Tracer::disabled());
        server.install(&mut s, queries, None).unwrap();
        s
    }

    /// Runs `frames` through the stream's plan, as a serving step does,
    /// returning the hits of the query named `Red`.
    fn run_red(server: &StreamServer, s: &mut Stream, frames: Range<u64>) -> Vec<FrameHit> {
        let session = server.session();
        let (plan, ops) = s.plan.as_mut().unwrap();
        let env = ExecEnv {
            plan,
            source: s.source.as_ref(),
            zoo: session.zoo(),
            clock: session.clock(),
            config: &session.config().exec,
        };
        let mut sink = Collector::new(plan);
        run_segment(env, frames, ops, &mut s.exec, &mut sink).unwrap();
        let results = sink.finalize(plan, ExecMetrics::default(), 0.0);
        let red = results.into_iter().find(|r| r.query_name == "Red");
        red.map(|r| r.frame_hits).unwrap_or_default()
    }

    /// A detach that drops every query on an alias drops the alias's
    /// object table, values and all. A query re-attached later starts a
    /// fresh tracker, whose ids restart at 1: its first sightings miss, as
    /// they would on a fresh stream, rather than hitting the colours the
    /// detached tracker's objects left under the same ids.
    #[test]
    fn detach_drops_the_alias_table() {
        let server = server();
        let red = query("Red", "red");
        let walking = Query::builder("Moving")
            .vobj("person", library::person_schema())
            .frame_constraint(Pred::gt("person", "score", 0.5) & Pred::gt("person", "speed", 1.0))
            .frame_output(&[("person", "track_id")])
            .build()
            .unwrap();
        let aliases = |s: &Stream| -> Vec<(String, usize)> {
            let tables = s.plan.as_ref().unwrap().1.state.objects.tables().iter();
            tables.map(|t| (t.alias().to_owned(), t.values())).collect()
        };

        let mut s = stream(&server, 20.0, &[Arc::clone(&red), Arc::clone(&walking)]);
        run_red(&server, &mut s, 0..60);
        let tables = aliases(&s);
        assert!(
            tables.iter().any(|(a, n)| a == "car" && *n > 0),
            "{tables:?}"
        );

        server
            .install(&mut s, &[Arc::clone(&walking)], None)
            .unwrap();
        assert_eq!(aliases(&s), [("person".to_owned(), 0)]);
        run_red(&server, &mut s, 60..90);

        let before = s.exec.reuse;
        server
            .install(&mut s, &[walking, Arc::clone(&red)], None)
            .unwrap();
        let hits = run_red(&server, &mut s, 90..180);
        let after = s.exec.reuse;
        let mut fresh = stream(&server, 20.0, &[red]);
        let fresh_hits = run_red(&server, &mut fresh, 90..180);
        let fresh_stats = fresh.exec.reuse;
        assert!(!fresh_hits.is_empty());
        assert_eq!(hits, fresh_hits, "the re-attached query answers as fresh");
        let delta = (after.hits - before.hits, after.misses - before.misses);
        assert_eq!(delta, (fresh_stats.hits, fresh_stats.misses));
    }

    /// A restore, as the restart path takes it (a copy of the stream state
    /// and the metrics), puts the object tables back: the tracker, the
    /// rows a failed attempt freed and their colours, so a re-run answers
    /// and hits as the first run did.
    #[test]
    fn restore_rolls_back_the_tables() {
        let server = server();
        let mut s = stream(&server, 20.0, &[query("Red", "red")]);
        run_red(&server, &mut s, 0..60);
        let checkpoint = (s.plan.as_ref().unwrap().1.state.clone(), s.exec.clone());
        let first = (run_red(&server, &mut s, 60..180), s.exec.reuse);
        (s.plan.as_mut().unwrap().1.state, s.exec) = checkpoint;
        let again = (run_red(&server, &mut s, 60..180), s.exec.reuse);
        assert!(!first.0.is_empty());
        assert_eq!(first, again);
    }

    /// At a splice the seed fills the columns the live table lacks, row by
    /// track: a live stream tracking cars without their colour takes the
    /// replayed colours, so it hits as a stream that ran both queries all
    /// along. Both plans filter `score > 0.5` before tracking, so the two
    /// trackers are in the same state and their track ids agree.
    #[test]
    fn a_seed_fills_the_columns_the_live_table_lacks() {
        let server = server();
        let count = Query::builder("Count")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5))
            .video_output(vqpy_core::Aggregate::CountDistinctTracks {
                alias: "car".into(),
            })
            .build()
            .unwrap();
        let red = query("Red", "red");
        let both = [Arc::clone(&count), Arc::clone(&red)];
        let mut live = stream(&server, 20.0, &[count]);
        let mut replay = stream(&server, 20.0, &[red]);
        let mut always = stream(&server, 20.0, &both);
        for s in [&mut live, &mut replay, &mut always] {
            run_red(&server, s, 0..60);
        }
        let seed = replay.plan.take().unwrap().1.state;
        server.install(&mut live, &both, Some(seed)).unwrap();
        let (live_before, always_before) = (live.exec.reuse, always.exec.reuse);
        assert_eq!(
            run_red(&server, &mut live, 60..180),
            run_red(&server, &mut always, 60..180)
        );
        let (live_after, always_after) = (live.exec.reuse, always.exec.reuse);
        assert!(always_after.hits > always_before.hits);
        assert_eq!(
            (
                live_after.hits - live_before.hits,
                live_after.misses - live_before.misses
            ),
            (
                always_after.hits - always_before.hits,
                always_after.misses - always_before.misses
            ),
        );
    }

    #[test]
    fn recompile_preserves_shared_fingerprints() {
        let zoo = ModelZoo::standard();
        let opts = PlanOptions::vqpy_default();
        let (red, black, green) = (
            query("Red", "red"),
            query("Black", "black"),
            query("Green", "green"),
        );
        let p1 = build_plan(&[Arc::clone(&red), Arc::clone(&black)], &zoo, &opts).unwrap();
        let p2 = build_plan(&[Arc::clone(&red), Arc::clone(&green)], &zoo, &opts).unwrap();
        let labels = |p: &PlanDag| -> Vec<String> { p.ops.iter().map(|op| op.label()).collect() };
        let (l1, l2) = (labels(&p1), labels(&p2));
        let shared: Vec<&String> = l1.iter().filter(|l| l2.contains(l)).collect();
        // Detector, tracker, and the color projection are shared subgraphs.
        assert!(
            shared.iter().any(|f| f.starts_with("detect(")),
            "{shared:?}"
        );
        assert!(shared.iter().any(|f| f.starts_with("track(")), "{shared:?}");
        assert!(shared.iter().any(|f| f.contains("car.color")), "{shared:?}");

        let server = server();
        let mut s = stream(&server, 6.0, &[Arc::clone(&red), black]);
        run_red(&server, &mut s, 0..30);
        let reuse_before = s.exec.reuse;
        server.install(&mut s, &[red, green], None).unwrap();
        // The reuse cache survived the recompile.
        run_red(&server, &mut s, 30..60);
        let reuse_after = s.exec.reuse;
        assert!(
            reuse_after.hits > reuse_before.hits,
            "carried tracks should keep hitting the reuse cache: {reuse_before:?} -> {reuse_after:?}"
        );
    }
}
