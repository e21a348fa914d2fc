//! The multi-stream [`StreamSupervisor`]: a sharded, event-driven
//! scheduler multiplexing many streams onto a fixed budget of worker
//! threads, with paced ingestion, cross-stream model batching, and
//! admission control.
//!
//! A bare [`StreamServer`] leaves *driving* to the
//! caller: somebody must call `step`/`run_to_end` per stream, each stream
//! pays its own model-dispatch overhead, and nothing says no when one more
//! stream would sink the server. The supervisor closes those gaps:
//!
//! - **N shard workers, M streams each** — `add_stream` pins the stream to
//!   a shard (round-robin); each shard worker multiplexes its streams
//!   through one event loop, so stream count scales with device throughput
//!   instead of OS threads ([`ServeConfig::shards`] sets the budget).
//!   A shard holds the handles of its streams and steps them directly
//!   (the same step as `StreamServer::step`), wrapped in panic
//!   containment so one stream's escape never stalls its shard siblings.
//! - **Paced ingestion** ([`PaceMode`]) — a live camera delivers frames at
//!   its capture rate, not as fast as the engine can chew. `Fps(f)` parks
//!   the stream on its shard's deadline heap: a step runs only once all of
//!   the step's frames would have arrived, over a bounded backlog of
//!   due-but-unexecuted steps ([`INGEST_BOUND`](crate::INGEST_BOUND)). If the engine falls
//!   further behind than the bound, the overflow is *shed*: counted in
//!   [`StreamLoad::ticks_shed`], visible to admission control, and no
//!   frames are lost — sources are pull-based, the stream just lags its
//!   schedule.
//! - **Cross-stream model batching** — with
//!   [`SupervisorConfig::batcher`] set, every stream's model stages route
//!   through one shared [`ModelBatcher`]: the batcher's window fills from
//!   whichever streams are currently runnable across all shards, and
//!   submissions coalesce per (stage, model) into one physical call
//!   (per-stream results stay byte-identical to solo execution; see the
//!   serve equivalence suite).
//! - **Admission control** ([`ServePolicy`]) — `add_stream` and `attach`
//!   consult a [`LoadSnapshot`] (stream count, paced backlog, aggregate
//!   drop rate) and reject with a typed [`AttachError`] instead of letting
//!   the server degrade silently.
//!
//! ```text
//!                 StreamSupervisor (shards = N)
//!   ┌──────────────────────────────────────────────────────────┐
//!   │ shard 0: [deadlines] → runnable ───┬─ step ──┐           │
//!   │ shard 1: [deadlines] → runnable ───┼─ step ──┼──▶ ModelBatcher
//!   │ shard N: [deadlines] → runnable ───┴─ step ──┘   │ one physical
//!   │        ▲        (M streams per shard)            ▼ *_batch per
//!   │   ServePolicy ◀── LoadSnapshot (backlog, drops) (stage, model),
//!   └──────────────────────────────────────────────────demux per stream
//! ```
//!
//! A stream's lifecycle facts and counters live in one place, its handle in
//! the server's stream table: the one `finished` flag, whether a shard is
//! still scheduling it (*active*), its pace and shard, its paced backlog
//! (published by the shard), the error its shard let go of it with, and
//! its frames and deliveries (counted as they happen). The supervisor keeps
//! no per-stream record; every load view is one fold over that table.
//!
//! The scheduling core (deadline heap, runnable ring, shed accounting) lives
//! in [`crate::shard`] and is clock-agnostic; the
//! [`DeterministicScheduler`](crate::shard::DeterministicScheduler)
//! harness replays it on a virtual clock with a seeded interleaving, so
//! shard scheduling is testable without threads. The sharded suite's
//! oracle is each stream served alone on a bare [`StreamServer`]: served
//! events are a function of the stream, never of its schedule.

use crate::attach::{AttachMode, AttachSpec};
use crate::batcher::{BatcherConfig, BatcherStats, FaultStats, ModelBatcher};
use crate::config::{ServeConfig, ServeError, ServeResult};
use crate::metrics::ShardLoad;
use crate::server::{StreamId, StreamOptions, StreamServer};
use crate::shard::{ShardConfig, ShardCore};
use crate::stream::StreamHandle;
use crate::subscription::Subscription;
use crate::ServeMetrics;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vqpy_core::{panic_message, DirectDispatch, ModelDispatch, Query, RetryDispatch, VqpySession};
use vqpy_obs::{Counter, Telemetry};
use vqpy_video::source::VideoSource;

/// How a stream's steps are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PaceMode {
    /// Step as fast as the engine allows (offline/backfill processing).
    #[default]
    Unpaced,
    /// Live-camera pacing: a step runs only once all of its frames would
    /// have arrived at this capture rate (frames per second).
    Fps(f32),
}

/// Admission thresholds consulted by [`StreamSupervisor::add_stream`] and
/// [`StreamSupervisor::attach`]. Every bound is optional; the default
/// policy admits everything.
#[derive(Debug, Clone, Default)]
pub struct ServePolicy {
    /// Maximum concurrently *active* streams (those a shard is still
    /// scheduling; see [`LoadSnapshot::active_streams`]).
    pub max_streams: Option<usize>,
    /// Maximum total paced backlog (due-but-unexecuted steps summed over
    /// all streams) before new work is refused.
    pub max_queue_depth: Option<u64>,
    /// Maximum aggregate drop rate (`[0, 1]`, dropped / attempted
    /// deliveries) before new work is refused.
    pub max_drop_rate: Option<f64>,
    /// The drop-rate bound only applies after this many delivery attempts,
    /// so a server is not judged overloaded by its first few events
    /// (this is what makes the signal "sustained"). Zero means judge
    /// immediately.
    pub min_delivery_attempts: u64,
}

impl ServePolicy {
    /// Checks attach-time admission (overload signals only; the stream
    /// limit is enforced by [`ServePolicy::admit_stream`]).
    pub fn admit(&self, load: &LoadSnapshot) -> Result<(), AttachError> {
        if let Some(limit) = self.max_queue_depth {
            if load.queue_depth > limit {
                return Err(AttachError::QueueOverload {
                    depth: load.queue_depth,
                    limit,
                });
            }
        }
        if let Some(limit) = self.max_drop_rate {
            let rate = load.drop_rate();
            if load.delivery_attempts() >= self.min_delivery_attempts.max(1) && rate > limit {
                return Err(AttachError::DropOverload { rate, limit });
            }
        }
        Ok(())
    }

    /// Checks stream-level admission: the overload signals of
    /// [`ServePolicy::admit`] plus the active-stream limit.
    pub fn admit_stream(&self, load: &LoadSnapshot) -> Result<(), AttachError> {
        if let Some(limit) = self.max_streams {
            if load.active_streams >= limit {
                return Err(AttachError::StreamLimit {
                    streams: load.active_streams,
                    limit,
                });
            }
        }
        self.admit(load)
    }
}

/// A point-in-time view of server load, the input to [`ServePolicy`]
/// admission decisions: one fold over the server's stream table, summing
/// the counters on each stream's handle, which are written where their
/// events happen, so reading it never waits behind an execution lock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadSnapshot {
    /// Open streams: those in the server's stream table, finished or not.
    pub streams: usize,
    /// Streams finished at end-of-video or with their restarts run out.
    pub finished_streams: usize,
    /// Streams a shard is still scheduling: its shard has not let go of
    /// it (at end-of-video, on an error, on `remove_stream`, at shutdown).
    pub active_streams: usize,
    /// Due-but-unexecuted paced steps, summed over active streams.
    pub queue_depth: u64,
    /// Paced steps shed because a stream's backlog overflowed its ingest
    /// queue (cumulative).
    pub ticks_shed: u64,
    /// Frames executed across all streams.
    pub frames_total: u64,
    /// Events delivered across all subscriptions.
    pub delivered: u64,
    /// Events dropped by `Backpressure::Drop` across all subscriptions.
    pub dropped: u64,
    /// Fault-handling counters of the shared batcher's dispatch boundary
    /// (typed model faults, circuit-breaker trips/recoveries, coalescing
    /// panics). All zero without a batcher, and from a bare server.
    pub faults: FaultStats,
}

impl LoadSnapshot {
    /// Fraction of delivery attempts dropped, `[0, 1]` (0 when none yet).
    pub fn drop_rate(&self) -> f64 {
        if self.delivery_attempts() == 0 {
            0.0
        } else {
            self.dropped as f64 / self.delivery_attempts() as f64
        }
    }

    /// Delivered plus dropped events.
    pub fn delivery_attempts(&self) -> u64 {
        self.delivered + self.dropped
    }
}

/// Typed admission/attach failure. Policy rejections are recoverable by
/// design: back off, shed elsewhere, or retry once load drains.
#[derive(Debug)]
pub enum AttachError {
    /// The active-stream limit is reached.
    StreamLimit {
        /// Active streams at decision time.
        streams: usize,
        /// The policy's bound.
        limit: usize,
    },
    /// The paced-ingest backlog exceeds the policy bound.
    QueueOverload {
        /// Total due-but-unexecuted steps at decision time.
        depth: u64,
        /// The policy's bound.
        limit: u64,
    },
    /// The aggregate drop rate exceeds the policy bound.
    DropOverload {
        /// Observed drop rate, `[0, 1]`.
        rate: f64,
        /// The policy's bound.
        limit: f64,
    },
    /// A non-policy serving failure (unknown stream, stream finished, …).
    Serve(ServeError),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::StreamLimit { streams, limit } => {
                write!(f, "stream limit reached ({streams} active, limit {limit})")
            }
            AttachError::QueueOverload { depth, limit } => {
                write!(f, "ingest backlog {depth} steps exceeds limit {limit}")
            }
            AttachError::DropOverload { rate, limit } => write!(
                f,
                "drop rate {:.1}% exceeds limit {:.1}%",
                rate * 100.0,
                limit * 100.0
            ),
            AttachError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AttachError {}

impl From<ServeError> for AttachError {
    fn from(e: ServeError) -> Self {
        AttachError::Serve(e)
    }
}

/// A point-in-time, per-stream load breakdown — the per-stream complement
/// of the server-wide [`LoadSnapshot`]. Read from the counters on the
/// stream's handle in the server's table, so reading it never waits
/// behind the stream's execution lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamLoad {
    /// The stream's id.
    pub stream: StreamId,
    /// The stream's pace mode.
    pub pace: PaceMode,
    /// Due-but-unexecuted paced steps right now (0 for unpaced streams).
    pub queue_depth: u64,
    /// Paced steps shed because the backlog overflowed the ingest queue.
    pub ticks_shed: u64,
    /// The stream's `finished` flag, the one the server keeps: it reached
    /// end-of-video, or was finished in a faulted state (restart budget
    /// run out). A stream its shard dropped on a plain error is not
    /// finished, but no longer active either (see
    /// [`LoadSnapshot::active_streams`]).
    pub finished: bool,
    /// Frames executed.
    pub frames_total: u64,
    /// Events delivered across the stream's subscriptions.
    pub delivered: u64,
    /// Events dropped by `Backpressure::Drop`.
    pub dropped: u64,
}

/// Supervisor configuration. Execution itself still follows the owning
/// session's `SessionConfig` (shared plans, batch size, sequential or
/// pipelined engines); this adds the serving-layer knobs. The shard
/// budget rides in [`ServeConfig::shards`].
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Per-stream serving configuration (channels, backpressure, batches
    /// per step, shard budget).
    pub serve: ServeConfig,
    /// Enables the shared cross-stream [`ModelBatcher`] for every model
    /// stage (detect, binary filter, classify); `None` keeps direct
    /// per-stream model invocation.
    pub batcher: Option<BatcherConfig>,
    /// Retries transient model faults at every stream's dispatch boundary
    /// (bounded attempts, exponential backoff charged to the session
    /// clock, per-stage timeout). Applies over the batcher when one is
    /// configured, and over direct dispatch otherwise. `None` surfaces
    /// faults to the engine unretried.
    pub retry: Option<vqpy_core::RetryPolicy>,
    /// Admission thresholds.
    pub policy: ServePolicy,
}

/// Builds a stream's model-dispatch boundary from the supervisor config:
/// the shared batcher's dispatch when one is configured, wrapped in retry
/// when a [`vqpy_core::RetryPolicy`] is set. Called once per stream by
/// [`StreamSupervisor::add_stream`].
fn build_stream_dispatch(
    config: &SupervisorConfig,
    batcher: Option<&ModelBatcher>,
) -> Option<Arc<dyn ModelDispatch>> {
    let base: Option<Arc<dyn ModelDispatch>> =
        batcher.map(|b| b.dispatch() as Arc<dyn ModelDispatch>);
    // Retry backoff waits land in the shared trace lane (pid 0) with
    // stage/attempt attributes, alongside the batcher's coalesce spans.
    let retry_tracer = config.serve.telemetry.tracer().for_stream(0);
    match (base, config.retry) {
        (Some(d), Some(policy)) => Some(Arc::new(
            RetryDispatch::new(d, policy).with_tracer(retry_tracer),
        ) as Arc<dyn ModelDispatch>),
        (None, Some(policy)) => Some(Arc::new(
            RetryDispatch::new(Arc::new(DirectDispatch), policy).with_tracer(retry_tracer),
        ) as Arc<dyn ModelDispatch>),
        (d, None) => d,
    }
}

/// A command posted to a shard's inbox. A from-past replay is added like
/// any stream: the shard steps its handle one bounded turn per visit, so
/// backfill shares the shard instead of starving live work.
enum ShardCmd {
    Add {
        handle: Arc<StreamHandle>,
        pace: PaceMode,
    },
    Remove(StreamId),
}

/// The registry's count of paced steps shed, written by every shard.
const TICKS_SHED_TOTAL: &str = "vqpy_ticks_shed_total";

/// State shared between one shard worker and the supervisor: its inbox
/// and its registry counters.
struct ShardState {
    inbox: Mutex<Vec<ShardCmd>>,
    wake: Condvar,
    stop: AtomicBool,
    /// The shard's registered `vqpy_shard_steps_total{shard}` counter.
    steps: Counter,
    /// The registry's [`TICKS_SHED_TOTAL`] counter, shared by every shard.
    ticks_shed: Counter,
}

impl ShardState {
    fn new(steps: Counter, ticks_shed: Counter) -> Self {
        Self {
            inbox: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            steps,
            ticks_shed,
        }
    }

    /// Posts a command and wakes the shard if it is idle.
    fn post(&self, cmd: ShardCmd) {
        self.inbox.lock().push(cmd);
        self.wake.notify_all();
    }

    /// Publishes the pacing counters the core holds for `handle`'s stream
    /// onto the handle, counting newly shed ticks in the registry.
    fn publish(&self, handle: &StreamHandle, core: &ShardCore) {
        if let Some(c) = core.counters(handle.id) {
            handle.queue_depth.store(c.queue_depth, Ordering::Relaxed);
            let shed = c.ticks_shed - handle.ticks_shed.swap(c.ticks_shed, Ordering::Relaxed);
            self.ticks_shed.add(shed);
        }
    }

    /// Lets go of a stream: it stops counting as active, its backlog
    /// empties, and `join_stream` wakes to `error`.
    fn release(&self, handle: &StreamHandle, error: Option<ServeError>) {
        handle.queue_depth.store(0, Ordering::Relaxed);
        let mut slot = handle.error.lock();
        *slot = error;
        handle.active.store(false, Ordering::Release);
        handle.released.notify_all();
    }
}

struct ShardHandle {
    state: Arc<ShardState>,
    handle: Option<JoinHandle<()>>,
}

/// A self-driving, multi-stream serving frontend: owns a
/// [`StreamServer`], a fixed budget of shard worker threads multiplexing
/// the streams, an optional shared [`ModelBatcher`], and a
/// [`ServePolicy`]. See the module docs for the architecture.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use vqpy_core::frontend::{library, predicate::Pred};
/// use vqpy_core::{Query, VqpySession};
/// use vqpy_models::ModelZoo;
/// use vqpy_serve::{BatcherConfig, PaceMode, StreamSupervisor, SupervisorConfig};
/// use vqpy_video::{presets, Scene, SyntheticVideo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let session = Arc::new(VqpySession::new(ModelZoo::standard()));
/// let supervisor = StreamSupervisor::new(
///     Arc::clone(&session),
///     SupervisorConfig {
///         batcher: Some(BatcherConfig::default()), // cross-stream batching on
///         ..SupervisorConfig::default()
///     },
/// );
/// let query = Query::builder("RedCar")
///     .vobj("car", library::vehicle_schema())
///     .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
///     .build()?;
/// // Two paced "cameras", multiplexed onto the shard budget.
/// for seed in [1u64, 2] {
///     let video = SyntheticVideo::new(Scene::generate(presets::jackson(), seed, 30.0));
///     let (stream, subs) =
///         supervisor.add_stream(Arc::new(video), PaceMode::Fps(30.0), &[Arc::clone(&query)])?;
///     std::thread::spawn(move || {
///         let (hits, _) = subs.into_iter().next().unwrap().collect();
///         println!("stream {stream}: {} matching frames", hits.len());
///     });
/// }
/// # Ok(())
/// # }
/// ```
pub struct StreamSupervisor {
    server: Arc<StreamServer>,
    batcher: Option<ModelBatcher>,
    config: SupervisorConfig,
    /// Shard workers, spawned lazily on the first `add_stream` so a
    /// supervisor that never serves costs no threads (and so spawn
    /// failure surfaces as a typed [`AttachError`]).
    shards: Mutex<Vec<ShardHandle>>,
    /// Set by `shutdown`: from then on nothing may be posted to a shard,
    /// whose worker is gone. Read and written only under the `shards`
    /// lock, which orders it.
    shut_down: AtomicBool,
    next_shard: AtomicUsize,
}

impl StreamSupervisor {
    /// Creates a supervisor over a session, spawning the shared batcher
    /// thread if configured. Shard workers spawn on first use.
    pub fn new(session: Arc<VqpySession>, config: SupervisorConfig) -> Self {
        let batcher = config.batcher.clone().map(|bc| {
            ModelBatcher::with_telemetry(bc, session.clock_handle(), &config.serve.telemetry)
        });
        let server = Arc::new(StreamServer::new(session, config.serve.clone()));
        // Registered up front, like the delivery totals.
        config.serve.telemetry.registry().counter(TICKS_SHED_TOTAL);
        Self {
            server,
            batcher,
            config,
            shards: Mutex::new(Vec::new()),
            shut_down: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
        }
    }

    /// The underlying server, for observers ([`StreamServer::metrics`],
    /// [`StreamServer::aggregate`], …). Stepping supervised streams by
    /// hand is possible but defeats pacing.
    pub fn server(&self) -> &Arc<StreamServer> {
        &self.server
    }

    /// The number of shard workers the supervisor schedules streams on.
    pub fn shard_budget(&self) -> usize {
        self.config.serve.shard_budget().max(1)
    }

    /// The shard pool, spawned on first use. Callers post while holding
    /// the guard, so no post lands after `shutdown`; after it, this is
    /// [`ServeError::Shutdown`].
    fn running_shards(&self) -> Result<MutexGuard<'_, Vec<ShardHandle>>, ServeError> {
        let mut shards = self.shards.lock();
        if self.shut_down.load(Ordering::Relaxed) {
            return Err(ServeError::Shutdown);
        }
        if !shards.is_empty() {
            return Ok(shards);
        }
        let budget = self.shard_budget();
        let registry = self.config.serve.telemetry.registry();
        for i in 0..budget {
            let steps = registry.counter(&format!("vqpy_shard_steps_total{{shard=\"{i}\"}}"));
            let state = Arc::new(ShardState::new(steps, registry.counter(TICKS_SHED_TOTAL)));
            let worker_state = Arc::clone(&state);
            let server = Arc::clone(&self.server);
            let tracer = self.config.serve.telemetry.tracer().for_shard(i as u64);
            let handle = std::thread::Builder::new()
                .name(format!("vqpy-shard-{i}"))
                .spawn(move || run_shard(server, worker_state, tracer))
                .map_err(|e| ServeError::WorkerSpawn(e.to_string()))?;
            shards.push(ShardHandle {
                state,
                handle: Some(handle),
            });
        }
        Ok(shards)
    }

    /// Hands a stream to the next shard, round-robin, recorded on its
    /// handle. The stream is active from here until that shard releases it.
    fn schedule(&self, shards: &[ShardHandle], handle: Arc<StreamHandle>, pace: PaceMode) {
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % shards.len();
        let _ = handle.pace.set((pace, shard));
        handle.active.store(true, Ordering::Release);
        shards[shard].state.post(ShardCmd::Add { handle, pace });
    }

    /// The handle of a stream this supervisor scheduled.
    fn scheduled(&self, stream: StreamId) -> ServeResult<Arc<StreamHandle>> {
        let handle = self.server.live_handle(stream)?;
        if handle.pace.get().is_none() {
            return Err(ServeError::UnknownStream(stream));
        }
        Ok(handle)
    }

    /// Opens a stream, attaches its initial queries, and schedules it on
    /// a shard — subject to [`ServePolicy`] admission. The initial
    /// queries are in place before the stream's first step, so their
    /// results cover the stream from frame 0 (a stream added with no
    /// queries idles forward).
    ///
    /// Returns the stream id and one [`Subscription`] per query, in order.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vqpy_core::frontend::{library, predicate::Pred};
    /// use vqpy_core::{Query, VqpySession};
    /// use vqpy_models::ModelZoo;
    /// use vqpy_serve::{PaceMode, StreamSupervisor, SupervisorConfig};
    /// use vqpy_video::{presets, Scene, SyntheticVideo};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    /// let supervisor = StreamSupervisor::new(session, SupervisorConfig::default());
    /// let query = Query::builder("AnyCar")
    ///     .vobj("car", library::vehicle_schema())
    ///     .frame_constraint(Pred::gt("car", "score", 0.5))
    ///     .build()?;
    /// let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 5, 2.0));
    /// // A shard drives the stream; we only wait and read results.
    /// let (stream, subs) = supervisor.add_stream(Arc::new(video), PaceMode::Unpaced, &[query])?;
    /// let metrics = supervisor.join_stream(stream)?;
    /// let (hits, _aggregate) = subs.into_iter().next().unwrap().collect();
    /// assert_eq!(metrics.per_query[0].delivered, hits.len() as u64 + 1); // + End
    /// # Ok(())
    /// # }
    /// ```
    pub fn add_stream(
        &self,
        source: Arc<dyn VideoSource>,
        pace: PaceMode,
        queries: &[Arc<Query>],
    ) -> Result<(StreamId, Vec<Subscription>), AttachError> {
        // Holding the shard pool's lock from the admission check to the
        // hand-off makes them one step against a racing `add_stream`.
        let shards = self.running_shards()?;
        self.config.policy.admit_stream(&self.load())?;
        let dispatch = build_stream_dispatch(&self.config, self.batcher.as_ref());
        let options = StreamOptions { dispatch };
        let stream = self.server.open_stream_with(source, options);
        let mut subs = Vec::with_capacity(queries.len());
        for q in queries {
            subs.push(self.server.attach_queued(stream, Arc::clone(q))?);
        }
        self.schedule(&shards, self.server.handle(stream)?, pace);
        Ok((stream, subs))
    }

    /// Attaches a query to a supervised stream, described by an
    /// [`AttachSpec`] (a bare `Arc<Query>` or `&TypedQuery<R>` converts) —
    /// subject to [`ServePolicy`] admission control. Live attachments
    /// take effect at the stream's next step boundary.
    ///
    /// A spec with [`AttachSpec::from`] replays the stored history on a
    /// shard — scheduled like any other stream, so backfill never starves
    /// live work — and splices into the live stream when the replay
    /// catches up; the replay's driving is the supervisor's business, so
    /// (unlike [`StreamServer::attach`]) only the subscription is
    /// returned; [`StreamSupervisor::detach`] through the live stream's id
    /// reaches the subscription before and after the splice.
    ///
    /// [`TypedQuery<R>`]: vqpy_core::TypedQuery
    pub fn attach<M: AttachMode>(
        &self,
        stream: StreamId,
        spec: impl Into<AttachSpec<M>>,
    ) -> Result<M::Sub, AttachError> {
        let spec = spec.into();
        self.config.policy.admit(&self.load())?;
        match spec.replay_from() {
            None => Ok(M::wrap(
                self.server
                    .attach_queued(stream, Arc::clone(spec.query()))?,
            )),
            Some(from) => {
                let shards = self.running_shards()?;
                let (sub, replay) =
                    self.server
                        .attach_replay(stream, Arc::clone(spec.query()), from)?;
                // The replay retires its id itself (splice, end, or
                // detach); nobody joins it.
                self.schedule(&shards, replay, PaceMode::Unpaced);
                Ok(M::wrap(sub))
            }
        }
    }

    /// Detaches a subscription at the next step boundary (see
    /// [`StreamServer::detach`]). Never blocked by pacing: a paced stream
    /// waiting for its next deadline picks the command up at its next step.
    pub fn detach(
        &self,
        stream: StreamId,
        sub: crate::subscription::SubscriptionId,
    ) -> ServeResult<()> {
        self.server.detach(stream, sub)
    }

    /// The current load snapshot admission control evaluates:
    /// [`StreamServer::aggregate`] plus the batcher's fault counters.
    pub fn load(&self) -> LoadSnapshot {
        let mut load = self.server.aggregate();
        if let Some(b) = &self.batcher {
            load.faults = b.stats().faults;
        }
        load
    }

    /// Serving metrics for one stream (delegates to the server).
    pub fn metrics(&self, stream: StreamId) -> ServeResult<ServeMetrics> {
        self.server.metrics(stream)
    }

    /// Cross-stream batching counters, when the shared batcher is enabled:
    /// a view over the registry counters the batcher writes as it runs.
    /// The counts belong to the [`Telemetry`] the supervisor was built
    /// over (`ServeConfig::telemetry`): supervisors given one `Telemetry`
    /// share them, as they share `vqpy_batch_items`.
    pub fn batcher_stats(&self) -> Option<BatcherStats> {
        self.batcher.as_ref().map(|b| b.stats())
    }

    /// Per-shard load: active streams and paced backlog folded over the
    /// handles that record the shard, and its registered
    /// `vqpy_shard_steps_total{shard}` counter (shared by supervisors built
    /// over one [`Telemetry`]). One row per shard worker, none before the
    /// first `add_stream` spawns the shard pool.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        let shards = self.shards.lock();
        let mut rows: Vec<ShardLoad> = shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardLoad {
                shard,
                steps: s.state.steps.get(),
                ..ShardLoad::default()
            })
            .collect();
        self.server.fold_load(&mut rows);
        rows
    }

    /// The run's telemetry handle, shared with every layer the supervisor
    /// drives (engines, batcher, retry dispatch, demux). Export the span
    /// timeline with [`Telemetry::perfetto_json`] (or
    /// [`StreamSupervisor::trace_json`]) and the metric registry with
    /// [`StreamSupervisor::prometheus_snapshot`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.serve.telemetry
    }

    /// Per-stream load breakdown, read from the counters on the stream's
    /// handle. Never waits behind the execution lock.
    pub fn stream_snapshot(&self, stream: StreamId) -> ServeResult<StreamLoad> {
        Ok(self.scheduled(stream)?.load())
    }

    /// Renders a Prometheus text-exposition snapshot of the run. The
    /// registry already holds what components write as they run (delivery
    /// latency per query, delivered and dropped events, shed ticks, the
    /// batcher's batch sizes, request and fault counters, shard steps);
    /// this adds gauges of state the registry cannot own: the stream
    /// table's occupancy and backlog, per shard too, the clock's devices
    /// and the store.
    pub fn prometheus_snapshot(&self) -> String {
        let telemetry = self.telemetry();
        let reg = telemetry.registry();
        let load = self.load();
        reg.gauge("vqpy_streams").set(load.streams as f64);
        reg.gauge("vqpy_active_streams")
            .set(load.active_streams as f64);
        reg.gauge("vqpy_queue_depth").set(load.queue_depth as f64);
        for s in self.shard_loads() {
            reg.gauge(&format!("vqpy_shard_occupancy{{shard=\"{}\"}}", s.shard))
                .set(s.streams as f64);
            reg.gauge(&format!("vqpy_shard_queue_depth{{shard=\"{}\"}}", s.shard))
                .set(s.queue_depth as f64);
        }
        // Device occupancy of the session clock's placement layer: one
        // busy-time/queue-depth pair per modeled device (empty under
        // `DeviceModel::Unbounded`, which has no per-device slots).
        for (i, d) in self
            .server
            .session()
            .clock()
            .device_stats()
            .iter()
            .enumerate()
        {
            reg.gauge(&format!("vqpy_device_busy_ms{{device=\"{i}\"}}"))
                .set(d.busy_ms);
            reg.gauge(&format!("vqpy_device_queued{{device=\"{i}\"}}"))
                .set(d.queued as f64);
        }
        if let Some(fs) = self.server.store() {
            let m = fs.metrics();
            reg.gauge("vqpy_store_bytes")
                .set(m.bytes.load(Ordering::Relaxed) as f64);
            reg.gauge("vqpy_store_segments")
                .set(m.segments.load(Ordering::Relaxed) as f64);
            reg.counter("vqpy_store_evictions_total")
                .store(m.evictions.load(Ordering::Relaxed));
            reg.counter("vqpy_store_replay_hits_total")
                .store(m.replay_hits.load(Ordering::Relaxed));
            reg.counter("vqpy_store_corrupt_segments_total")
                .store(m.corrupt_segments.load(Ordering::Relaxed));
        }
        telemetry.prometheus_text()
    }

    /// Renders the run's span timeline as Chrome/Perfetto `trace_event`
    /// JSON (empty but valid when tracing is disabled). Load the output
    /// at `ui.perfetto.dev` to see per-stream and per-shard process
    /// lanes.
    pub fn trace_json(&self) -> String {
        self.telemetry().perfetto_json()
    }

    /// Waits until the scheduler is done with a stream (end-of-video,
    /// stop, or error), then returns the stream's final serving metrics —
    /// or the error that stopped it (e.g. a failed recompile from a bad
    /// attach). Under [`Backpressure::Block`](crate::Backpressure) this
    /// blocks until subscribers drain, by design.
    pub fn join_stream(&self, stream: StreamId) -> ServeResult<ServeMetrics> {
        let handle = self.scheduled(stream)?;
        let err = wait_released(&handle).take();
        match err {
            Some(e) => Err(e),
            None => self.server.metrics(stream),
        }
    }

    /// Detaches a stream from its shard (any in-flight step finishes
    /// first) and closes the stream; subscribers see their channels
    /// close.
    pub fn remove_stream(&self, stream: StreamId) -> ServeResult<()> {
        let handle = self.scheduled(stream)?;
        // Only the owning shard holds the stream; the others ignore this.
        for s in self.shards.lock().iter() {
            s.state.post(ShardCmd::Remove(stream));
        }
        drop(wait_released(&handle));
        self.server.close_stream(stream)
    }

    /// Stops every shard worker and the batcher. Shards finish their
    /// in-flight step; under `Backpressure::Block` that can wait on
    /// subscribers. Also runs on drop. Afterwards `add_stream` and a
    /// from-past `attach` fail with [`ServeError::Shutdown`].
    pub fn shutdown(&self) {
        let mut shards = self.shards.lock();
        self.shut_down.store(true, Ordering::Relaxed);
        for s in shards.iter() {
            s.state.stop.store(true, Ordering::Release);
            // Lock the inbox while notifying so a shard between its
            // empty-check and its wait cannot miss the wakeup.
            let _inbox = s.state.inbox.lock();
            s.state.wake.notify_all();
        }
        for s in shards.iter_mut() {
            if let Some(h) = s.handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for StreamSupervisor {
    fn drop(&mut self) {
        self.shutdown();
        // `self.batcher` drops after the shards are parked, so no stream
        // is mid-dispatch when the coalescing thread winds down.
    }
}

/// Blocks until no shard schedules `handle`; returns its terminal-error
/// slot, locked.
fn wait_released(handle: &StreamHandle) -> MutexGuard<'_, Option<ServeError>> {
    let mut error = handle.error.lock();
    while handle.active.load(Ordering::Acquire) {
        handle.released.wait(&mut error);
    }
    error
}

/// One shard worker: an event loop multiplexing the handles it holds.
/// Paced streams park on the core's deadline heap; runnable streams step
/// round-robin, each step wrapped in panic containment so one stream's
/// escape detaches only that stream, never its shard siblings.
fn run_shard(server: Arc<StreamServer>, state: Arc<ShardState>, tracer: vqpy_obs::Tracer) {
    let epoch = Instant::now();
    let now_us = || epoch.elapsed().as_micros() as u64;
    let mut core = ShardCore::new(ShardConfig {
        frames_per_step: server.frames_per_step().max(1),
    });
    let mut members: HashMap<StreamId, Arc<StreamHandle>> = HashMap::new();
    loop {
        // Drain commands first so attach/detach never wait on pacing.
        for cmd in std::mem::take(&mut *state.inbox.lock()) {
            match cmd {
                ShardCmd::Add { handle, pace } => {
                    core.register(handle.id, pace, now_us());
                    members.insert(handle.id, handle);
                }
                ShardCmd::Remove(stream) => {
                    core.remove(stream);
                    if let Some(handle) = members.remove(&stream) {
                        state.release(&handle, None);
                    }
                }
            }
        }
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        core.advance(now_us());
        let Some(stream) = core.pop_runnable(now_us()) else {
            // Idle: wait for a command, stop, or the next timer deadline.
            let mut inbox = state.inbox.lock();
            if !inbox.is_empty() || state.stop.load(Ordering::Acquire) {
                continue;
            }
            match core.next_deadline() {
                Some(deadline) => {
                    let wait = deadline.saturating_sub(now_us()).clamp(100, 10_000);
                    state.wake.wait_for(&mut inbox, Duration::from_micros(wait));
                }
                None => {
                    state.wake.wait(&mut inbox);
                }
            }
            continue;
        };
        let Some(handle) = members.get(&stream) else {
            core.remove(stream);
            continue;
        };
        // Publish the backlog the pop-evaluation just updated.
        state.publish(handle, &core);
        let result = {
            let _span = tracer
                .span("shard", "step")
                .arg("stream", stream)
                .arg("occupancy", core.occupancy());
            std::panic::catch_unwind(AssertUnwindSafe(|| server.step_handle(handle)))
        };
        state.steps.inc();
        let error = match result {
            Ok(Ok(out)) if !out.finished => {
                core.completed_step(stream, now_us());
                state.publish(handle, &core);
                continue;
            }
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e),
            Err(payload) => {
                // A panic that escaped the server's step-level containment
                // (checkpoint/restart) ends only this stream — its shard
                // siblings keep running.
                handle.finished.store(true, Ordering::Release);
                Some(ServeError::WorkerPanic {
                    message: panic_message(payload.as_ref()),
                    restarts: 0,
                })
            }
        };
        core.remove(stream);
        if let Some(handle) = members.remove(&stream) {
            state.release(&handle, error);
        }
    }
    // Stop: release every remaining stream, and every stream whose `Add`
    // landed after the last drain, so no joiner waits on a gone shard.
    // `finished` stays as-is: shutdown parks streams, it does not end them.
    for cmd in std::mem::take(&mut *state.inbox.lock()) {
        if let ShardCmd::Add { handle, .. } = cmd {
            state.release(&handle, None);
        }
    }
    for (_, handle) in members.drain() {
        state.release(&handle, None);
    }
}
