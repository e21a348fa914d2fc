//! Serving configuration and errors: [`ServeConfig`] and its validating
//! builder, the restart and backpressure policies, and [`ServeError`].

use crate::server::StreamId;
use crate::subscription::SubscriptionId;
#[cfg(doc)]
use crate::{QueryServeMetrics, ServeEvent, StreamFault, StreamServer, Tracer};
use std::sync::Arc;
use vqpy_core::error::VqpyError;
use vqpy_obs::Telemetry;
use vqpy_store::FrameStore;

/// Clock label the restart backoff is charged under, so recovery pauses
/// are visible in the session's charge ledger like any other model cost.
pub const RESTART_BACKOFF_LABEL: &str = "restart_backoff";

/// Bounded automatic restarts after a worker panic. The stream's engine is
/// checkpointed before each segment; on a panic (caught at the step
/// boundary, or a contained pipeline-stage panic surfaced as
/// [`VqpyError::StagePanic`]) the engine rolls back to the checkpoint,
/// subscribers get a typed [`ServeEvent::StreamFault`], and the segment is
/// re-run from the checkpoint. Frames the failed attempt already delivered
/// are suppressed on the re-run, so subscribers see each frame's results
/// exactly once, byte-identical to a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPolicy {
    /// Panics tolerated per stream before [`StreamServer::step`] gives up
    /// with [`ServeError::WorkerPanic`]. Zero makes the first panic fatal
    /// (still typed — never a propagated panic).
    pub max_restarts: u64,
    /// Wall-clock pause charged to the session clock (label
    /// [`RESTART_BACKOFF_LABEL`]) before each re-run.
    pub backoff_ms: f64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 2,
            backoff_ms: 5.0,
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
    /// gets and how long to back off before each re-run.
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
    /// frame-level model outputs (detections and binary verdicts) to a
    /// per-stream segment log as it executes, and
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
