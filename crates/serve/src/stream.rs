//! The per-stream record in the server's table: where a stream's frames
//! come from ([`Feed`]), its execution state ([`Stream`]), and the shared
//! handle ([`StreamHandle`]) that the table, shards and replays hold.

use crate::delivery::ActiveSub;
use crate::metrics::QueryServeMetrics;
use crate::replay::{RecordingDispatch, StoreDispatch};
use crate::server::StreamId;
use crate::subscription::{ServeEvent, SubscriptionId};
use crate::supervisor::{PaceMode, StreamLoad};
use crate::ServeError;
#[cfg(doc)]
use crate::StreamServer;
use parking_lot::{Condvar, Mutex};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, OnceLock};
use vqpy_core::backend::plan::PlanDag;
use vqpy_core::{ExecMetrics, ModelDispatch, Query, StageOps};
use vqpy_obs::Tracer;
use vqpy_store::StreamStore;
use vqpy_video::source::VideoSource;

pub(crate) struct PendingAttach {
    pub(crate) id: SubscriptionId,
    pub(crate) query: Arc<Query>,
    pub(crate) tx: SyncSender<ServeEvent>,
}

/// Pending attach/detach commands, kept outside the execution state so
/// [`StreamServer::attach`] / [`StreamServer::detach`] never block behind a
/// running [`StreamServer::step`] (whose `Block`-policy sends can wait on
/// slow subscribers).
#[derive(Default)]
pub(crate) struct Commands {
    pub(crate) attach: Vec<PendingAttach>,
    pub(crate) detach: Vec<SubscriptionId>,
}

/// Where a stream's frames come from, fixed when its id is issued.
pub(crate) enum Feed {
    /// A live source. `recorder` captures model answers per frame for
    /// persistence (it wraps the stream's dispatch); present iff the
    /// stream opened with a store.
    Live {
        recorder: Option<Arc<RecordingDispatch>>,
    },
    /// A from-past replay of live stream `of`: a private single-query
    /// plan whose detect/predict stages read stored answers through
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

/// One stream's execution state: the plan and its operators, attached
/// queries, and progress counters.
pub(crate) struct Stream {
    pub(crate) source: Arc<dyn VideoSource>,
    /// Model-dispatch boundary installed into every plan's operators.
    pub(crate) dispatch: Arc<dyn ModelDispatch>,
    /// The stream's process-lane span tracer (pid = stream id + 1; the
    /// store lane for a replay), installed into every plan's operators.
    pub(crate) tracer: Tracer,
    /// The stream's persisted history, when the server has a store. Live
    /// execution appends to it; replays read from it.
    pub(crate) store: Option<Arc<StreamStore>>,
    /// The attached queries' shared plan and its operators, which hold
    /// the stream's state; `None` while no query is attached.
    pub(crate) plan: Option<(PlanDag, StageOps)>,
    /// Execution metrics across every plan the stream has run: each
    /// segment adds its counts here.
    pub(crate) exec: ExecMetrics,
    /// Attach order; index i corresponds to join i of the current plan.
    pub(crate) subs: Vec<ActiveSub>,
    pub(crate) next_frame: u64,
    pub(crate) batches: u64,
    pub(crate) recompiles: u64,
    /// Automatic worker restarts consumed (see [`RestartPolicy`]).
    pub(crate) restarts: u64,
    /// Frames permanently lost to a non-resumed final fault.
    pub(crate) frames_lost: u64,
    pub(crate) wall_ms: f64,
    /// Metrics of queries that already detached.
    pub(crate) past_queries: Vec<QueryServeMetrics>,
    /// Stored segments a replay found damaged or missing, each counted and
    /// noticed once.
    pub(crate) store_faults: Vec<PathBuf>,
}

impl Stream {
    pub(crate) fn new(
        source: Arc<dyn VideoSource>,
        dispatch: Arc<dyn ModelDispatch>,
        tracer: Tracer,
    ) -> Self {
        Self {
            source,
            dispatch,
            tracer,
            store: None,
            plan: None,
            exec: ExecMetrics::default(),
            subs: Vec::new(),
            next_frame: 0,
            batches: 0,
            recompiles: 0,
            restarts: 0,
            frames_lost: 0,
            wall_ms: 0.0,
            past_queries: Vec::new(),
            store_faults: Vec::new(),
        }
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
    pub(crate) feed: Feed,
    pub(crate) commands: Mutex<Commands>,
    /// Set (under the `commands` lock) when the stream reaches
    /// end-of-video; checked by `attach` under the same lock so no attach
    /// can slip in behind a finish. The stream's only `finished` flag.
    pub(crate) finished: AtomicBool,
    /// Load counters, written where their events happen so the load views
    /// never wait behind the execution lock: a finished segment adds its
    /// frames, `ActiveSub::deliver` counts each event it sends or drops,
    /// and a splice moves the replayed subscription's counts here.
    pub(crate) frames_total: AtomicU64,
    pub(crate) delivered: AtomicU64,
    pub(crate) dropped: AtomicU64,
    /// Supervisor scheduling, unset on a bare server: the pace the stream
    /// was handed to a shard under, and that shard's index.
    pub(crate) pace: OnceLock<(PaceMode, usize)>,
    /// Whether a shard still schedules the stream ("active"); cleared,
    /// with `error` set and `released` notified under its lock, when the
    /// shard lets go (end, error, removal or shutdown).
    pub(crate) active: AtomicBool,
    /// Paced backlog and shed ticks, published by the owning shard from
    /// its core's pace counters at its step boundaries.
    pub(crate) queue_depth: AtomicU64,
    pub(crate) ticks_shed: AtomicU64,
    /// The error that made the shard let go, taken by `join_stream`.
    pub(crate) error: Mutex<Option<ServeError>>,
    pub(crate) released: Condvar,
    /// The next frame index the stream will execute, as of the last step
    /// boundary. Replays chase this to know when they have caught up.
    pub(crate) published_next_frame: AtomicU64,
    /// Damaged or missing stored segments this stream's replays met, each
    /// counted once per replay (the frames were recomputed; mirrors
    /// `decode_failures` in spirit).
    pub(crate) store_corruptions: AtomicU64,
    pub(crate) state: Mutex<Stream>,
}

impl StreamHandle {
    pub(crate) fn new(id: StreamId, feed: Feed, stream: Stream) -> Self {
        Self {
            id,
            feed,
            commands: Mutex::new(Commands::default()),
            finished: AtomicBool::new(false),
            frames_total: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
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

    /// The stream's load, read from its counters.
    pub(crate) fn load(&self) -> StreamLoad {
        StreamLoad {
            stream: self.id,
            pace: self.pace.get().map_or(PaceMode::Unpaced, |&(pace, _)| pace),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            ticks_shed: self.ticks_shed.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Acquire),
            frames_total: self.frames_total.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}
