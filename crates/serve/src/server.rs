//! The [`StreamServer`]: long-lived streams, runtime query attach/detach,
//! and per-query demultiplexing of the shared super-plan's output.

use crate::attach::{AttachMode, AttachSpec, Attached};
use crate::engine::StreamEngine;
use crate::metrics::{AggregateMetrics, QueryServeMetrics, ServeMetrics};
use crate::replay::{RecordingDispatch, StoreDispatch, StoreTier};
use crate::subscription::{
    ServeEvent, StoreFaultNotice, StreamFault, Subscription, SubscriptionId,
};
use crate::supervisor::PaceMode;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use vqpy_core::backend::exec::{QueryAccum, ResultSink};
use vqpy_core::backend::ops::FrameSlot;
use vqpy_core::backend::plan::PlanDag;
use vqpy_core::error::VqpyError;
use vqpy_core::{panic_message, DirectDispatch, ExecMetrics, ModelDispatch, Query, VqpySession};
use vqpy_models::ClockMode;
use vqpy_obs::{label_escape, Histogram, Telemetry, Tracer, STORE_LANE};
use vqpy_store::{FrameRecord, FrameStore, StreamStore};
use vqpy_video::source::VideoSource;

/// Identifier of one open stream on a server.
pub type StreamId = u64;

/// Clock label the restart backoff is charged under, so recovery pauses
/// are visible in the session's charge ledger like any other model cost.
pub const RESTART_BACKOFF_LABEL: &str = "restart_backoff";

/// What a restarted stream does with the segment that faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeMode {
    /// Re-run the faulted segment from the pre-segment checkpoint.
    /// Frames the failed attempt already delivered are suppressed on the
    /// re-run, so subscribers see each frame's results exactly once, and
    /// surviving results stay byte-identical to a fault-free run.
    #[default]
    Retry,
    /// Skip the rest of the faulted segment; the skipped frames are
    /// counted in [`ServeMetrics::frames_lost`] and in the
    /// [`StreamFault`] notice.
    Skip,
}

/// Bounded automatic restarts after a worker panic. The stream's engine is
/// checkpointed before each segment; on a panic (caught at the step
/// boundary, or a contained pipeline-stage panic surfaced as
/// [`VqpyError::StagePanic`]) the engine rolls back to the checkpoint,
/// subscribers get a typed [`ServeEvent::StreamFault`], and the segment is
/// re-run or skipped per [`ResumeMode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPolicy {
    /// Panics tolerated per stream before [`StreamServer::step`] gives up
    /// with [`ServeError::WorkerPanic`]. Zero makes the first panic fatal
    /// (still typed — never a propagated panic).
    pub max_restarts: u64,
    /// Wall-clock pause charged to the session clock (label
    /// [`RESTART_BACKOFF_LABEL`]) before each re-run.
    pub backoff_ms: f64,
    /// What to do with the faulted segment.
    pub resume: ResumeMode,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 2,
            backoff_ms: 5.0,
            resume: ResumeMode::Retry,
        }
    }
}

/// What happens when a subscriber's bounded channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the stream until the subscriber drains (the stream paces to
    /// its slowest consumer; nothing is ever lost).
    #[default]
    Block,
    /// Drop the event and count it in
    /// [`QueryServeMetrics::dropped`] (the stream never stalls; overload
    /// is visible in the metrics instead).
    Drop,
}

/// Serving configuration. Execution itself (batch size, sequential vs.
/// pipelined, reuse) follows the owning session's
/// [`SessionConfig::exec`](vqpy_core::SessionConfig), so served results are
/// byte-identical to what the same session computes offline.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded capacity of each subscription's event channel.
    pub channel_capacity: usize,
    /// Policy when a subscription's channel is full.
    pub backpressure: Backpressure,
    /// Batches executed per [`StreamServer::step`]; attach/detach commands
    /// are applied only at step boundaries (which are batch boundaries).
    /// Larger values amortize pipelined stage spin-up across more frames.
    pub batches_per_step: u64,
    /// Worker-panic containment: how many automatic restarts a stream
    /// gets, how long to back off, and whether faulted segments are
    /// re-run or skipped.
    pub restart: RestartPolicy,
    /// Telemetry carried by the run: a metrics [`Registry`] (delivery
    /// latency histograms, always collected) plus a span [`Tracer`]
    /// (disabled by default; [`Telemetry::with_tracing`] turns the span
    /// timeline on). Clones of this config share the same registry and
    /// ring, so one handle exports the whole server's run; a supervisor's
    /// batcher and shard counters live in it too, so supervisors built
    /// from clones share those counts.
    ///
    /// [`Registry`]: vqpy_obs::Registry
    pub telemetry: Telemetry,
    /// Shard budget for the supervisor's event-driven scheduler: how many
    /// shard worker threads multiplex the supervised streams (each stream
    /// is pinned to one shard; paced streams park on its deadline heap).
    /// `0` (the default) sizes the budget automatically from
    /// [`std::thread::available_parallelism`], capped at 8. Ignored by a
    /// bare [`StreamServer`], which leaves driving to the caller.
    pub shards: usize,
    /// Persistent frame/result store. When set, every stream appends its
    /// model outputs (detections, binary verdicts, intrinsic property
    /// values) to a per-stream segment log as it executes, and
    /// [`attach(stream, spec)`](StreamServer::attach) with a spec built
    /// `.from(instant)` can replay the stored past of a stream — skipping
    /// the model stages whose outputs are on disk — and splice the query
    /// into the live frames. `None` (the default) serves
    /// live-only, exactly as before.
    pub store: Option<Arc<FrameStore>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 1024,
            backpressure: Backpressure::Block,
            batches_per_step: 1,
            restart: RestartPolicy::default(),
            telemetry: Telemetry::disabled(),
            shards: 0,
            store: None,
        }
    }
}

impl ServeConfig {
    /// The resolved shard budget: `shards`, or an automatic size from the
    /// host's available parallelism (capped at 8) when `shards == 0`.
    pub fn shard_budget(&self) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8)
        } else {
            self.shards
        }
    }

    /// A validating builder over the defaults. Unlike struct-literal
    /// construction, [`ServeConfigBuilder::build`] rejects combinations
    /// that would misbehave at runtime (see [`ConfigError`]).
    ///
    /// ```
    /// use vqpy_serve::ServeConfig;
    ///
    /// # fn main() -> Result<(), vqpy_serve::ConfigError> {
    /// let config = ServeConfig::builder()
    ///     .shards(4)
    ///     .channel_capacity(256)
    ///     .batches_per_step(2)
    ///     .build()?;
    /// assert_eq!(config.shards, 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// A rejected [`ServeConfig`] combination — returned by
/// [`ServeConfigBuilder::build`] instead of letting the nonsense surface
/// as a runtime stall or a silently clamped knob.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `restart.max_restarts > 0` with `channel_capacity == 0`: restart
    /// recovery delivers [`StreamFault`] notices over
    /// the subscriber channels, and a zero-capacity channel cannot carry
    /// them (the runtime would otherwise clamp the capacity to 1
    /// silently).
    RestartNeedsCapacity {
        /// The configured restart budget.
        max_restarts: u64,
    },
    /// `batches_per_step == 0`: a step must execute at least one batch
    /// (the runtime would otherwise clamp to 1 silently).
    ZeroBatchesPerStep,
    /// `restart.backoff_ms` is negative or not finite.
    InvalidBackoff {
        /// The rejected value.
        backoff_ms: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::RestartNeedsCapacity { max_restarts } => write!(
                f,
                "restart policy allows {max_restarts} restart(s) but channel_capacity is 0; \
                 fault notices need a subscriber channel with capacity"
            ),
            ConfigError::ZeroBatchesPerStep => {
                write!(f, "batches_per_step must be at least 1")
            }
            ConfigError::InvalidBackoff { backoff_ms } => {
                write!(
                    f,
                    "restart backoff_ms must be finite and >= 0, got {backoff_ms}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder returned by [`ServeConfig::builder`]. Setters mirror the
/// config's fields; [`ServeConfigBuilder::build`] validates the whole
/// combination.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bounded capacity of each subscription's event channel.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Policy when a subscription's channel is full.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Batches executed per [`StreamServer::step`].
    pub fn batches_per_step(mut self, batches: u64) -> Self {
        self.config.batches_per_step = batches;
        self
    }

    /// Worker-panic containment policy.
    pub fn restart(mut self, restart: RestartPolicy) -> Self {
        self.config.restart = restart;
        self
    }

    /// Telemetry carried by the run.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Shard budget for the supervisor's scheduler (`0` = automatic).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Persistent frame/result store backing replays.
    pub fn store(mut self, store: Arc<FrameStore>) -> Self {
        self.config.store = Some(store);
        self
    }

    /// Validates the combination and returns the config.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for every rejected combination.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let c = &self.config;
        if c.batches_per_step == 0 {
            return Err(ConfigError::ZeroBatchesPerStep);
        }
        if !c.restart.backoff_ms.is_finite() || c.restart.backoff_ms < 0.0 {
            return Err(ConfigError::InvalidBackoff {
                backoff_ms: c.restart.backoff_ms,
            });
        }
        if c.restart.max_restarts > 0 && c.channel_capacity == 0 {
            return Err(ConfigError::RestartNeedsCapacity {
                max_restarts: c.restart.max_restarts,
            });
        }
        Ok(self.config)
    }
}

/// Serving errors: stream lifecycle problems, or an execution error
/// surfaced from the core engine.
#[derive(Debug)]
pub enum ServeError {
    /// The stream id is not open on this server.
    UnknownStream(StreamId),
    /// The subscription id is not attached to the given stream.
    UnknownSubscription(SubscriptionId),
    /// The stream already reached end-of-video.
    StreamFinished,
    /// The stream's execution worker panicked and the restart budget is
    /// exhausted. Subscribers received a final non-resumed
    /// [`ServeEvent::StreamFault`] and their channels closed; the stream
    /// is finished in a faulted state.
    WorkerPanic {
        /// The stringified panic payload of the final fault.
        message: String,
        /// Automatic restarts consumed before giving up.
        restarts: u64,
    },
    /// The OS refused to spawn a supervisor's shard worker thread.
    WorkerSpawn(String),
    /// The supervisor was shut down: no shard worker is left to drive a
    /// new stream or replay.
    Shutdown,
    /// A past-replay attach was requested but the server has no
    /// [`ServeConfig::store`] (or the stream's store directory failed to
    /// open), so there is no stored history to replay.
    StoreDisabled,
    /// Planning or execution failed in the core engine.
    Core(VqpyError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            ServeError::UnknownSubscription(id) => write!(f, "unknown subscription {id}"),
            ServeError::StreamFinished => write!(f, "stream already finished"),
            ServeError::WorkerPanic { message, restarts } => write!(
                f,
                "stream worker panicked after {restarts} restarts: {message}"
            ),
            ServeError::WorkerSpawn(e) => write!(f, "failed to spawn shard worker: {e}"),
            ServeError::Shutdown => write!(f, "supervisor is shut down"),
            ServeError::StoreDisabled => {
                write!(f, "no frame store configured (ServeConfig::store is None)")
            }
            ServeError::Core(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<VqpyError> for ServeError {
    fn from(e: VqpyError) -> Self {
        ServeError::Core(e)
    }
}

/// Serving result alias.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

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

/// One attached query's server-side state: its accumulator (aggregates are
/// computed from the attach boundary on) and the sending half of the
/// subscriber channel.
struct ActiveSub {
    id: SubscriptionId,
    query: Arc<Query>,
    accum: QueryAccum,
    tx: SyncSender<ServeEvent>,
    /// Cleared when the subscriber drops its receiver.
    connected: bool,
    delivered: u64,
    dropped: u64,
    /// This subscription's own delivery-latency histogram, backing the
    /// exact mean/p50/p95/p99/max of [`QueryServeMetrics`].
    latency: Histogram,
    /// The registry-wide `vqpy_delivery_latency_ms{query=...}` histogram,
    /// shared by every subscription of the same query name (what the
    /// Prometheus exposition reports).
    shared_latency: Histogram,
}

impl ActiveSub {
    fn new(p: PendingAttach, telemetry: &Telemetry) -> Self {
        let shared_latency = telemetry.registry().histogram(&format!(
            "vqpy_delivery_latency_ms{{query=\"{}\"}}",
            label_escape(p.query.name())
        ));
        Self {
            id: p.id,
            accum: QueryAccum::for_query(&p.query),
            query: p.query,
            tx: p.tx,
            connected: true,
            delivered: 0,
            dropped: 0,
            latency: Histogram::new(),
            shared_latency,
        }
    }

    /// Sends under `policy`: `Err(true)` when a full channel dropped the
    /// event, `Err(false)` when the subscriber is gone (and stays so).
    fn send(&mut self, event: ServeEvent, policy: Backpressure) -> Result<(), bool> {
        if !self.connected {
            return Err(false);
        }
        let outcome = match policy {
            Backpressure::Block => self.tx.send(event).map_err(|_| false),
            Backpressure::Drop => self.tx.try_send(event).map_err(|e| match e {
                TrySendError::Full(_) => true,
                TrySendError::Disconnected(_) => false,
            }),
        };
        self.connected = outcome != Err(false);
        outcome
    }

    fn deliver(&mut self, event: ServeEvent, policy: Backpressure, ingest: Instant) {
        match self.send(event, policy) {
            Ok(()) => {
                self.delivered += 1;
                let latency_ms = ingest.elapsed().as_secs_f64() * 1e3;
                self.latency.observe(latency_ms);
                self.shared_latency.observe(latency_ms);
            }
            Err(true) => self.dropped += 1,
            Err(false) => {}
        }
    }

    /// Sends an out-of-band notice (fault events) without touching the
    /// delivery counters, so `delivered`/`dropped` keep meaning "result
    /// events" for equivalence accounting.
    fn notify(&mut self, event: ServeEvent, policy: Backpressure) {
        let _ = self.send(event, policy);
    }

    fn metrics(&self) -> QueryServeMetrics {
        let (p50, p95, p99, max) = self.latency.percentiles();
        QueryServeMetrics {
            query: self.query.name().to_owned(),
            delivered: self.delivered,
            dropped: self.dropped,
            mean_latency_ms: self.latency.mean_ms(),
            p50_latency_ms: p50,
            p95_latency_ms: p95,
            p99_latency_ms: p99,
            max_latency_ms: max,
        }
    }
}

struct PendingAttach {
    id: SubscriptionId,
    query: Arc<Query>,
    tx: SyncSender<ServeEvent>,
}

/// Pending attach/detach commands, kept outside the execution state so
/// [`StreamServer::attach`] / [`StreamServer::detach`] never block behind a
/// running [`StreamServer::step`] (whose `Block`-policy sends can wait on
/// slow subscribers).
#[derive(Default)]
struct Commands {
    attach: Vec<PendingAttach>,
    detach: Vec<SubscriptionId>,
}

/// Per-stream knobs fixed at [`StreamServer::open_stream_with`] time.
///
/// ```
/// # use vqpy_serve::StreamOptions;
/// let defaults = StreamOptions::default();
/// assert!(defaults.dispatch.is_none());
/// ```
#[derive(Default)]
pub struct StreamOptions {
    /// Model-dispatch boundary for this stream's engine, preserved across
    /// plan recompiles. `None` means direct per-stream invocation; the
    /// multi-stream supervisor passes a shared
    /// [`ModelBatcher`](crate::ModelBatcher) handle here so the stream's
    /// detect, binary-filter, and classify batches coalesce with other
    /// streams'.
    pub dispatch: Option<Arc<dyn ModelDispatch>>,
}

/// Where a stream's frames come from, fixed when its id is issued.
enum Feed {
    /// A live source. `recorder` captures model answers per frame for
    /// persistence (it wraps the stream's dispatch in the engine); present
    /// iff the stream opened with a store.
    Live {
        recorder: Option<Arc<RecordingDispatch>>,
    },
    /// A from-past replay of live stream `of`: a private single-query
    /// engine whose detect/predict stages read stored answers through
    /// `window`, delivering hits from frame `deliver_from` on to
    /// subscription `sub`, until it catches `of` and splices into it (or
    /// the stored history ends).
    Replay {
        of: StreamId,
        sub: SubscriptionId,
        window: Arc<StoreDispatch>,
        deliver_from: u64,
    },
}

/// One stream's execution state: the engine, attached queries, and
/// progress counters.
struct Stream {
    source: Arc<dyn VideoSource>,
    /// Model-dispatch boundary installed into every engine this stream
    /// creates.
    dispatch: Option<Arc<dyn ModelDispatch>>,
    /// The stream's process-lane span tracer (pid = stream id + 1; the
    /// store lane for a replay), installed into every engine this stream
    /// creates.
    tracer: Tracer,
    /// The stream's persisted history, when the server has a store. Live
    /// execution appends to it; replays read from it.
    store: Option<Arc<StreamStore>>,
    engine: Option<StreamEngine>,
    /// Attach order; index i corresponds to join i of the current plan.
    subs: Vec<ActiveSub>,
    next_frame: u64,
    batches: u64,
    recompiles: u64,
    /// Automatic worker restarts consumed (see [`RestartPolicy`]).
    restarts: u64,
    /// Frames permanently lost to faulted segments ([`ResumeMode::Skip`]
    /// or a non-resumed final fault).
    frames_lost: u64,
    wall_ms: f64,
    /// Execution metrics of engines retired when their last query
    /// detached, so frames/reuse counters survive engine turnover.
    retired_exec: ExecMetrics,
    /// Metrics of queries that already detached.
    past_queries: Vec<QueryServeMetrics>,
}

impl Stream {
    fn new(
        source: Arc<dyn VideoSource>,
        dispatch: Option<Arc<dyn ModelDispatch>>,
        tracer: Tracer,
    ) -> Self {
        Self {
            source,
            dispatch,
            tracer,
            store: None,
            engine: None,
            subs: Vec::new(),
            next_frame: 0,
            batches: 0,
            recompiles: 0,
            restarts: 0,
            frames_lost: 0,
            wall_ms: 0.0,
            retired_exec: ExecMetrics::default(),
            past_queries: Vec::new(),
        }
    }

    /// Cumulative exec metrics: retired engines plus the live one.
    fn exec_metrics(&self) -> ExecMetrics {
        let mut m = self.retired_exec.clone();
        if let Some(e) = &self.engine {
            m.absorb(&e.metrics());
        }
        m
    }
}

/// A stream's shared handle: commands and lifecycle flags are lockable
/// independently of the (potentially long-held) execution state. The
/// server's table holds one per stream and replay; a supervisor's shard
/// holds a clone of each handle it schedules and steps it directly.
pub(crate) struct StreamHandle {
    pub(crate) id: StreamId,
    /// Read without the state lock: `aggregate` skips replays and
    /// `attach` refuses them.
    feed: Feed,
    commands: Mutex<Commands>,
    /// Set (under the `commands` lock) when the stream reaches
    /// end-of-video; checked by `attach` under the same lock so no attach
    /// can slip in behind a finish. The stream's only `finished` flag.
    pub(crate) finished: AtomicBool,
    /// Load counters published at step boundaries so
    /// [`StreamServer::aggregate`] (admission control's signal source)
    /// never waits behind the execution lock — a `Block`-policy step can
    /// hold it for as long as subscribers take to drain.
    pub(crate) published_frames: AtomicU64,
    pub(crate) published_delivered: AtomicU64,
    pub(crate) published_dropped: AtomicU64,
    /// Supervisor scheduling, unset on a bare server: the pace the stream
    /// was handed to a shard under.
    pub(crate) pace: OnceLock<PaceMode>,
    /// Whether a shard still schedules the stream ("active"); cleared,
    /// with `error` set and `released` notified under its lock, when the
    /// shard lets go (end, error, removal or shutdown).
    pub(crate) active: AtomicBool,
    /// Paced backlog and shed ticks, published by the owning shard at its
    /// step boundaries.
    pub(crate) queue_depth: AtomicU64,
    pub(crate) ticks_shed: AtomicU64,
    /// The error that made the shard let go, taken by `join_stream`.
    pub(crate) error: Mutex<Option<ServeError>>,
    pub(crate) released: Condvar,
    /// The next frame index the stream will execute, as of the last step
    /// boundary. Replays chase this to know when they have caught up.
    published_next_frame: AtomicU64,
    /// Damaged stored segments hit by this stream's replays (the frames
    /// were recomputed; mirrors `decode_failures` in spirit).
    store_corruptions: AtomicU64,
    state: Mutex<Stream>,
}

impl StreamHandle {
    fn new(id: StreamId, feed: Feed, stream: Stream) -> Self {
        Self {
            id,
            feed,
            commands: Mutex::new(Commands::default()),
            finished: AtomicBool::new(false),
            published_frames: AtomicU64::new(0),
            published_delivered: AtomicU64::new(0),
            published_dropped: AtomicU64::new(0),
            pace: OnceLock::new(),
            active: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            ticks_shed: AtomicU64::new(0),
            error: Mutex::new(None),
            released: Condvar::new(),
            published_next_frame: AtomicU64::new(0),
            store_corruptions: AtomicU64::new(0),
            state: Mutex::new(stream),
        }
    }

    pub(crate) fn is_replay(&self) -> bool {
        matches!(self.feed, Feed::Replay { .. })
    }

    /// Publishes the stream's delivery counters (called with the state
    /// lock held, at step boundaries and on finish).
    fn publish(&self, s: &Stream) {
        let mut delivered: u64 = s.past_queries.iter().map(|q| q.delivered).sum();
        let mut dropped: u64 = s.past_queries.iter().map(|q| q.dropped).sum();
        for a in &s.subs {
            delivered += a.delivered;
            dropped += a.dropped;
        }
        self.published_frames
            .store(s.exec_metrics().frames_total, Ordering::Relaxed);
        self.published_delivered.store(delivered, Ordering::Relaxed);
        self.published_dropped.store(dropped, Ordering::Relaxed);
        self.published_next_frame
            .store(s.next_frame, Ordering::Release);
    }
}

/// Demultiplexes the super-plan's per-frame matches to the per-query
/// subscribers: the serving [`ResultSink`]. `subs` is aligned with the
/// plan's joins (attach order).
struct DemuxSink<'a> {
    subs: &'a mut [ActiveSub],
    /// The stream's process-lane tracer, for per-frame demux spans.
    tracer: &'a Tracer,
    policy: Backpressure,
    /// When this segment entered the engine, for delivery latency.
    ingest: Instant,
    /// Hits on earlier frames are observed (aggregates cover them) but not
    /// delivered: a replay's first frame ingested at or after its `from`
    /// instant, 0 for a live stream.
    deliver_from: u64,
    /// Frames at or below this index were fully observed and delivered by
    /// an earlier attempt of this segment that later faulted; they are
    /// passed over wholesale on the re-run (both `observe` and delivery),
    /// so aggregates count each frame once and subscribers never see a
    /// duplicate hit.
    skip_through: Option<u64>,
    /// Highest frame index fully demuxed (every join observed) by this
    /// attempt; the restart machinery reads it to know where delivery
    /// actually got to when the attempt faulted.
    progress: Option<u64>,
}

impl ResultSink for DemuxSink<'_> {
    fn on_frame(&mut self, plan: &PlanDag, slot: &FrameSlot) -> vqpy_core::error::Result<()> {
        let frame = slot.frame.index;
        if self.skip_through.is_some_and(|t| frame <= t) {
            return Ok(());
        }
        let _span = self
            .tracer
            .span("serve", "demux")
            .arg("frame", frame)
            .arg("joins", plan.joins.len());
        for (ji, sub) in self.subs.iter_mut().enumerate() {
            // `observe` must see every frame (aggregate bookkeeping), not
            // just hits.
            if let Some(hit) = sub.accum.observe(slot, ji) {
                if frame >= self.deliver_from {
                    sub.deliver(ServeEvent::Hit(hit), self.policy, self.ingest);
                }
            }
        }
        self.progress = Some(frame);
        Ok(())
    }
}

/// How many live steps' worth of frames one [`StreamServer::step`] of a
/// replay may execute. Replays are scheduled like any other stream (one
/// bounded turn per scheduler visit), so this caps how long a backfill
/// turn holds its shard — backfill never starves live streams — while
/// still letting the replay catch up: it advances several steps' worth per
/// turn against the live stream's one.
const REPLAY_BUDGET_STEPS: u64 = 4;

/// A multi-stream, multi-query serving frontend over one [`VqpySession`].
///
/// The server shares the session's model zoo, clock, plan cache, and
/// execution configuration; each open stream owns a [`StreamEngine`]
/// driving the session's configured executor (sequential or the PR-1
/// pipelined engine) over the live source. All attached queries of a
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
    session: Arc<VqpySession>,
    config: ServeConfig,
    /// Live streams and in-flight replays, in one id space.
    streams: Mutex<HashMap<StreamId, Arc<StreamHandle>>>,
    /// Span tracer for the shared `store` lane (appends, replay chunk
    /// loads, replay execution, splices).
    store_tracer: Tracer,
    next_stream: AtomicU64,
    next_sub: AtomicU64,
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
        let mut stream = Stream::new(source, options.dispatch, tracer);
        let mut recorder = None;
        if let Some(fs) = &self.config.store {
            match fs.stream(&format!("stream-{id}")) {
                Ok(ss) => {
                    // Record model answers by wrapping the stream's
                    // dispatch boundary; the recorder composes over a
                    // supervisor-supplied batcher/retry chain unchanged.
                    let inner: Arc<dyn ModelDispatch> = stream
                        .dispatch
                        .take()
                        .unwrap_or_else(|| Arc::new(DirectDispatch));
                    let r = Arc::new(RecordingDispatch::new(inner));
                    stream.dispatch = Some(Arc::clone(&r) as Arc<dyn ModelDispatch>);
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
    fn subscribe(&self, query: Arc<Query>) -> (Subscription, PendingAttach) {
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
    fn apply_commands(&self, handle: &StreamHandle, s: &mut Stream) -> ServeResult<bool> {
        let mut commands = handle.commands.lock();
        if commands.attach.is_empty() && commands.detach.is_empty() {
            return Ok(false);
        }
        let detach_ids: Vec<SubscriptionId> = commands
            .detach
            .iter()
            .copied()
            .filter(|id| s.subs.iter().any(|a| a.id == *id))
            .collect();

        // Prospective query set: survivors in attach order, then new
        // attaches — matching the join order of the plan built from it.
        let queries: Vec<Arc<Query>> = s
            .subs
            .iter()
            .filter(|a| !detach_ids.contains(&a.id))
            .map(|a| Arc::clone(&a.query))
            .chain(commands.attach.iter().map(|p| Arc::clone(&p.query)))
            .collect();

        let had_engine = s.engine.is_some();
        if queries.is_empty() {
            // No queries left: retire the engine (a later attach restarts
            // fresh; its metrics are preserved in `retired_exec`).
            if let Some(engine) = s.engine.take() {
                s.retired_exec.absorb(&engine.metrics());
            }
        } else {
            // The session's planner dedups structurally: one detect per
            // model, one tracker per alias, one projection per
            // (alias, prop) — shared subgraphs of the attached queries
            // execute once per batch. The session-level plan cache makes
            // repeated query sets cheap.
            let plan = self.session.plan_for(&queries, s.source.as_ref())?;
            match &mut s.engine {
                Some(engine) => engine.recompile(plan, self.session.zoo())?,
                None => {
                    s.engine = Some(self.new_engine(
                        plan,
                        s.dispatch.clone(),
                        &s.tracer,
                        s.store.as_ref(),
                    )?);
                }
            }
        }
        if had_engine {
            s.recompiles += 1;
        }

        // Plan swap succeeded — now commit the subscriber changes.
        commands.detach.clear();
        for id in detach_ids {
            if let Some(pos) = s.subs.iter().position(|a| a.id == id) {
                let mut sub = s.subs.remove(pos);
                // The accumulator is per-query state, final at detach.
                let video_value = sub.accum.video_value_for(&sub.query);
                sub.deliver(
                    ServeEvent::Detached { video_value },
                    self.config.backpressure,
                    Instant::now(),
                );
                s.past_queries.push(sub.metrics());
                // Dropping `sub` closes the channel: the subscriber's
                // `collect` terminates even if the terminal event was
                // dropped by an overloaded `Drop`-policy channel.
            }
        }
        for p in commands.attach.drain(..) {
            s.subs.push(ActiveSub::new(p, &self.config.telemetry));
        }
        Ok(true)
    }

    /// Finishes the stream: every subscriber gets [`ServeEvent::End`] with
    /// its final aggregate, then its channel closes (senders drop), so
    /// [`Subscription::collect`] terminates under either backpressure
    /// policy. Pending never-run attaches are notified too. A replay
    /// finishes here when the stored history of a finished stream ends.
    fn finish(&self, handle: &StreamHandle, s: &mut Stream) {
        let mut commands = handle.commands.lock();
        handle.finished.store(true, Ordering::Release);
        for p in commands.attach.drain(..) {
            let _ = p.tx.try_send(ServeEvent::Detached { video_value: None });
        }
        commands.detach.clear();
        drop(commands);
        for mut sub in s.subs.drain(..) {
            let video_value = sub.accum.video_value_for(&sub.query);
            sub.deliver(
                ServeEvent::End { video_value },
                self.config.backpressure,
                Instant::now(),
            );
            s.past_queries.push(sub.metrics());
        }
    }

    /// Runs one segment with panic isolation and the configured
    /// [`RestartPolicy`]: checkpoint the engine, run, and on a worker
    /// panic (caught here, or a contained pipeline-stage panic surfaced as
    /// [`VqpyError::StagePanic`]) roll back to the checkpoint, notify
    /// subscribers with a typed [`ServeEvent::StreamFault`], and re-run or
    /// skip the segment. Exhausting the restart budget finishes the
    /// stream in a faulted state and returns
    /// [`ServeError::WorkerPanic`]. Non-panic execution errors propagate
    /// unchanged. Live steps and replay chunks both run here; a replay's
    /// hits before its `deliver_from` are observed but not delivered.
    fn run_segment_isolated(
        &self,
        handle: &StreamHandle,
        s: &mut Stream,
        range: &std::ops::Range<u64>,
        wall: Instant,
    ) -> ServeResult<()> {
        let deliver_from = match handle.feed {
            Feed::Live { .. } => 0,
            Feed::Replay { deliver_from, .. } => deliver_from,
        };
        let restart = self.config.restart;
        let tracer = s.tracer.clone();
        let engine = s.engine.as_mut().expect("caller checked engine presence");
        let mut skip_through: Option<u64> = None;
        loop {
            let checkpoint = engine.snapshot();
            let mut sink = DemuxSink {
                subs: &mut s.subs,
                tracer: &tracer,
                policy: self.config.backpressure,
                ingest: wall,
                deliver_from,
                skip_through,
                progress: None,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                engine.run_segment(
                    s.source.as_ref(),
                    self.session.zoo(),
                    self.session.clock(),
                    &self.session.config().exec,
                    range.clone(),
                    &mut sink,
                )
            }));
            let message = match outcome {
                Ok(Ok(())) => return Ok(()),
                // A stage-thread panic the pipelined executor already
                // contained: same fault class as a caller-thread panic.
                Ok(Err(VqpyError::StagePanic { stage, message })) => {
                    format!("{stage} stage: {message}")
                }
                Ok(Err(e)) => return Err(e.into()),
                Err(payload) => panic_message(payload.as_ref()),
            };
            let progress = sink.progress;
            // Highest frame already delivered to subscribers, across every
            // attempt of this segment.
            let delivered_through = progress.or(skip_through);
            let lost_if_abandoned = range.end - delivered_through.map_or(range.start, |p| p + 1);
            engine.restore(&checkpoint);

            if s.restarts >= restart.max_restarts {
                // Budget exhausted: final non-resumed fault notice, then
                // the channels close (collect() terminates) and the typed
                // error surfaces to the driver.
                let fault = StreamFault {
                    frame: range.start,
                    message: message.clone(),
                    restarts: s.restarts,
                    resumed: false,
                    frames_lost: lost_if_abandoned,
                };
                for sub in s.subs.iter_mut() {
                    sub.notify(
                        ServeEvent::StreamFault(fault.clone()),
                        self.config.backpressure,
                    );
                }
                s.frames_lost += lost_if_abandoned;
                s.subs.clear();
                handle.finished.store(true, Ordering::Release);
                return Err(ServeError::WorkerPanic {
                    message,
                    restarts: s.restarts,
                });
            }
            s.restarts += 1;
            if restart.backoff_ms > 0.0 {
                let _span = tracer
                    .span("serve", RESTART_BACKOFF_LABEL)
                    .arg("restart", s.restarts)
                    .arg("wait_ms", restart.backoff_ms);
                self.session
                    .clock()
                    .wait_labeled(RESTART_BACKOFF_LABEL, restart.backoff_ms);
            }
            let frames_lost = match restart.resume {
                ResumeMode::Retry => {
                    if let Some(p) = progress {
                        skip_through = Some(p);
                    }
                    0
                }
                ResumeMode::Skip => {
                    s.frames_lost += lost_if_abandoned;
                    lost_if_abandoned
                }
            };
            let fault = StreamFault {
                frame: range.start,
                message,
                restarts: s.restarts,
                resumed: true,
                frames_lost,
            };
            for sub in s.subs.iter_mut() {
                sub.notify(
                    ServeEvent::StreamFault(fault.clone()),
                    self.config.backpressure,
                );
            }
            if restart.resume == ResumeMode::Skip {
                return Ok(());
            }
        }
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

    /// One step of a live stream: apply commands, run one segment, persist
    /// it, and finish at end-of-video.
    fn step_live(
        &self,
        handle: &StreamHandle,
        s: &mut Stream,
        recorder: Option<&RecordingDispatch>,
    ) -> ServeResult<StepOutcome> {
        let recompiled = self.apply_commands(handle, s)?;
        let total = s.source.frame_count();
        if s.next_frame >= total {
            self.finish(handle, s);
            handle.publish(s);
            return Ok(StepOutcome {
                frames: 0,
                finished: true,
                recompiled,
            });
        }
        let exec = &self.session.config().exec;
        let batch = exec.batch_size.max(1) as u64;
        let frames = (batch * self.config.batches_per_step.max(1)).min(total - s.next_frame);
        let range = s.next_frame..s.next_frame + frames;
        let wall = Instant::now();
        if s.engine.is_some() {
            self.run_segment_isolated(handle, s, &range, wall)?;
            s.batches += frames.div_ceil(batch);
        }
        // With no queries attached the stream stays live but idle: frames
        // are passed over without decoding (no subscriber needs them).
        s.next_frame = range.end;
        if let Some(recorder) = recorder {
            self.persist_segment(s, recorder, &range);
        }
        s.wall_ms += wall.elapsed().as_secs_f64() * 1e3;
        if s.next_frame >= total {
            self.finish(handle, s);
        }
        handle.publish(s);
        Ok(StepOutcome {
            frames,
            finished: handle.finished.load(Ordering::Acquire),
            recompiled,
        })
    }

    /// Appends one [`FrameRecord`] per frame of the just-executed range to
    /// the stream's store: recorded model answers where the frame ran
    /// through a model stage, filler records (time + ingest stamp, no
    /// answers) for idle or decode-failed frames, so the ingest-time index
    /// stays complete and appends stay contiguous. Pending intrinsic
    /// write-throughs ride along inside the store (see
    /// `StreamStore::tier_save`).
    fn persist_segment(
        &self,
        s: &mut Stream,
        recorder: &RecordingDispatch,
        range: &std::ops::Range<u64>,
    ) {
        // Drained even once appends failed, so the recording stays bounded.
        let mut recorded = recorder.drain();
        let (Some(ss), Some(fs)) = (s.store.clone(), self.config.store.as_ref()) else {
            return;
        };
        let ingest_us = fs.now_us();
        let fps = s.source.fps().max(1) as f64;
        let _span = self
            .store_tracer
            .span("store", "append")
            .arg("start", range.start)
            .arg("frames", range.end - range.start);
        for f in range.clone() {
            if f < ss.next_frame() {
                // Already persisted — a reopened store directory ahead of
                // this process's progress. Execution is deterministic, so
                // the stored records are identical to what we would write.
                continue;
            }
            let mut rec = recorded.remove(&f).unwrap_or_else(|| FrameRecord {
                frame: f,
                time_s: f as f64 / fps,
                ..FrameRecord::default()
            });
            rec.ingest_us = ingest_us;
            if let Err(e) = ss.append(rec) {
                // An I/O failure mid-log would leave later appends
                // non-contiguous; degrade this stream to live-only.
                eprintln!("vqpy-serve: store append failed, disabling store for this stream: {e}");
                s.store = None;
                return;
            }
        }
    }

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
        let plan = self
            .session
            .plan_for(std::slice::from_ref(&query), source.as_ref())?;
        // Over the live stream's stack (retry, the shared batcher, a
        // caller's base): what the store lacks recomputes as it would live.
        let window = Arc::new(StoreDispatch::new(base, fs.metrics()));
        let dispatch = Arc::clone(&window) as Arc<dyn ModelDispatch>;
        let mut replay = Stream::new(source, Some(dispatch), self.store_tracer.clone());
        replay.engine =
            Some(self.new_engine(plan, replay.dispatch.clone(), &replay.tracer, Some(&store))?);
        replay.store = Some(store);
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
    /// stored history for at most [`REPLAY_BUDGET_STEPS`] steps' worth of
    /// frames, then splice into the live stream once caught up, or finish
    /// once the stored history of a finished stream ends.
    fn step_replay(
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
        // One chunk of stored history: damaged segments become typed
        // StoreFault notices (their frames recompute), the rest primes the
        // store-backed window, and the range runs like a live segment.
        let chunk = |s: &mut Stream, end: u64| -> ServeResult<()> {
            let range = s.next_frame..end;
            let store = s.store.as_ref().expect("a replay reads its stream's store");
            let load = {
                let _span = self
                    .store_tracer
                    .span("store", "load_chunk")
                    .arg("start", range.start)
                    .arg("end", range.end);
                store.load_range(range.start, range.end)
            };
            for fault in &load.faults {
                live.store_corruptions.fetch_add(1, Ordering::Relaxed);
                let notice = StoreFaultNotice {
                    frame: range.start,
                    detail: fault.to_string(),
                };
                for sub in &mut s.subs {
                    sub.notify(
                        ServeEvent::StoreFault(notice.clone()),
                        self.config.backpressure,
                    );
                }
            }
            window.set_window(load.records);
            let _span = self
                .store_tracer
                .span("store", "replay")
                .arg("start", range.start)
                .arg("frames", range.end - range.start);
            self.run_segment_isolated(handle, s, &range, Instant::now())?;
            s.next_frame = range.end;
            Ok(())
        };
        let step_frames = self.frames_per_step();
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
        let mut frames = 0;
        while frames < budget && s.next_frame < target {
            let end = (s.next_frame + step_frames).min(target);
            frames += end - s.next_frame;
            chunk(s, end)?;
        }
        let outcome = |finished, recompiled| StepOutcome {
            frames,
            finished,
            recompiled,
        };
        if live_finished && s.next_frame >= total {
            self.finish(handle, s);
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
        // Close the (bounded) gap under the lock — the live stream cannot
        // advance past us — then splice.
        while s.next_frame < live_next {
            let end = (s.next_frame + step_frames).min(live_next);
            chunk(s, end)?;
        }
        self.splice(&mut live_state, s)?;
        live.publish(&live_state);
        // Retire under the commands lock `detach` checks: a detach queued
        // since this turn's `apply_commands` moves with the subscription.
        let mut commands = handle.commands.lock();
        handle.finished.store(true, Ordering::Release);
        live.commands.lock().detach.append(&mut commands.detach);
        Ok(outcome(true, true))
    }

    /// Builds a stream's engine; the only place per-engine settings are
    /// applied, so live streams, replays and spliced engines cannot differ
    /// in one. With a store, intrinsics this engine computes persist and
    /// values a previous engine (or process) computed are read back
    /// instead of re-running classify stages.
    fn new_engine(
        &self,
        plan: PlanDag,
        dispatch: Option<Arc<dyn ModelDispatch>>,
        tracer: &Tracer,
        store: Option<&Arc<StreamStore>>,
    ) -> ServeResult<StreamEngine> {
        let mut engine = StreamEngine::new(plan, self.session.zoo(), &self.session.config().exec)?;
        if let Some(dispatch) = dispatch {
            engine.set_dispatch(dispatch);
        }
        engine.set_tracer(tracer.clone());
        if let Some(store) = store {
            engine.set_reuse_tier(Arc::new(StoreTier::new(Arc::clone(store))));
        }
        Ok(engine)
    }

    /// Splices a caught-up replay into the live stream (called with the
    /// live execution lock held, at what is by construction a batch
    /// boundary for both engines): the live super-plan is recompiled with
    /// the replayed query appended, seeded with the replay engine's
    /// operator states so the query's tracker/windows arrive with full
    /// history, and the subscriber joins the live delivery list.
    fn splice(&self, live: &mut Stream, replay: &mut Stream) -> ServeResult<()> {
        let _span = self
            .store_tracer
            .span("store", "splice")
            .arg("frame", live.next_frame);
        let seed = replay
            .engine
            .as_mut()
            .expect("a replay keeps its engine until it retires")
            .take_states();
        // Survivors in attach order, then the replayed query — the same
        // join-order rule apply_commands uses.
        let queries: Vec<Arc<Query>> = live
            .subs
            .iter()
            .chain(&replay.subs)
            .map(|a| Arc::clone(&a.query))
            .collect();
        let plan = self.session.plan_for(&queries, live.source.as_ref())?;
        match &mut live.engine {
            Some(engine) => {
                engine.recompile_with_seed(plan, self.session.zoo(), seed)?;
                live.recompiles += 1;
            }
            None => {
                let mut engine = self.new_engine(
                    plan,
                    live.dispatch.clone(),
                    &live.tracer,
                    live.store.as_ref(),
                )?;
                engine.seed_states(seed);
                live.engine = Some(engine);
            }
        }
        live.subs.append(&mut replay.subs);
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
        let exec = s.exec_metrics();
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

    /// Cumulative execution metrics of a stream (stage wall times, reuse
    /// counters) across every engine it has run, for bench reports.
    pub fn exec_metrics(&self, stream: StreamId) -> ServeResult<ExecMetrics> {
        let handle = self.handle(stream)?;
        let s = handle.state.lock();
        Ok(s.exec_metrics())
    }

    /// Server-wide load counters, summed over every open stream from
    /// values published at step boundaries. Never waits on an execution
    /// lock, so admission control can consult it while streams are
    /// mid-step (the numbers lag a running step by at most one boundary).
    /// In-flight replays are not counted.
    pub fn aggregate(&self) -> AggregateMetrics {
        let mut agg = AggregateMetrics::default();
        self.for_each_live(|h| {
            agg.streams += 1;
            agg.finished_streams += usize::from(h.finished.load(Ordering::Acquire));
            agg.frames_total += h.published_frames.load(Ordering::Relaxed);
            agg.delivered += h.published_delivered.load(Ordering::Relaxed);
            agg.dropped += h.published_dropped.load(Ordering::Relaxed);
        });
        agg
    }

    /// One pass over the live (non-replay) streams' handles, under the
    /// table lock: `f` must only read published counters.
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(&StreamHandle)) {
        for h in self.streams.lock().values().filter(|h| !h.is_replay()) {
            f(h);
        }
    }

    /// The server's telemetry handle (shared with
    /// [`ServeConfig::telemetry`]): export the span timeline with
    /// [`Telemetry::perfetto_json`] and the metric registry with
    /// [`Telemetry::prometheus_text`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// Closes a stream, dropping its engine and subscriptions. Subscribers
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
