//! Incremental result subscriptions: the consumer half of a served query.

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;
use vqpy_core::FrameHit;
use vqpy_models::Value;

/// Identifier of one attached query on one stream.
pub type SubscriptionId = u64;

/// The server side of this subscription is gone (the stream was closed or
/// the terminal event was already consumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionClosed;

impl std::fmt::Display for SubscriptionClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("subscription channel closed")
    }
}

impl std::error::Error for SubscriptionClosed {}

/// A typed worker-fault notice delivered to every subscriber of a stream
/// whose execution panicked mid-segment (see
/// [`RestartPolicy`](crate::RestartPolicy)). Informational: when `resumed`
/// is true the restart policy recovered the stream and more events follow;
/// when false the restart budget is exhausted and the channel closes next.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFault {
    /// First frame of the segment that faulted.
    pub frame: u64,
    /// The stringified panic payload (or contained stage-panic message).
    pub message: String,
    /// Automatic restarts consumed by this stream so far, this fault
    /// included when it was restartable.
    pub restarts: u64,
    /// Whether the stream restarted and continues (`true`), or gave up
    /// because the restart budget is exhausted (`false`).
    pub resumed: bool,
    /// Frames permanently lost to this fault (nonzero only when the
    /// stream gave up).
    pub frames_lost: u64,
}

/// A typed notice that a replay hit a damaged stored segment (truncated
/// tail or bit rot — see [`vqpy_store::SegmentFault`]). Informational and
/// never terminal: the affected frames are simply treated as not stored,
/// so the replay recomputes them from the decoded video — results stay
/// byte-identical, only slower. Counted in
/// [`ServeMetrics::store_corruptions`](crate::ServeMetrics::store_corruptions),
/// mirroring how decode failures are surfaced.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreFaultNotice {
    /// First frame of the replay chunk whose load hit the fault.
    pub frame: u64,
    /// Human-readable description of the damage (segment path and cause).
    pub detail: String,
}

/// An incremental result event. A subscription delivers the exact rows an
/// offline [`QueryResult`](vqpy_core::QueryResult) would contain, one hit
/// frame at a time, terminated by [`ServeEvent::End`] (stream exhausted) or
/// [`ServeEvent::Detached`] (query removed at a batch boundary).
/// [`ServeEvent::StreamFault`] and [`ServeEvent::StoreFault`] notices may
/// be interleaved; they are not terminal when the fault was resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A frame matched the query, with its projected output rows.
    Hit(FrameHit),
    /// The stream's worker panicked; the restart policy handled it (see
    /// [`StreamFault::resumed`]).
    StreamFault(StreamFault),
    /// A replay chunk's stored segment was damaged and its frames are
    /// being recomputed instead (never terminal; see [`StoreFaultNotice`]).
    StoreFault(StoreFaultNotice),
    /// The stream ended.
    End {
        /// The query's final video-level aggregate (over the frames
        /// observed since attach), if the query declared one.
        video_value: Option<Value>,
    },
    /// The query was detached.
    Detached {
        /// The aggregate up to the detach boundary, if the query declared
        /// one.
        video_value: Option<Value>,
    },
}

/// The receiving end of one attached query's bounded event channel.
///
/// Dropping a `Subscription` closes the channel; the server notices on the
/// next delivery attempt and stops *delivering* to it. The query itself
/// stays in the super-plan — and keeps paying its share of execution —
/// until `StreamServer::detach` removes it, so keep the id around (or
/// detach before dropping) when a query is done.
///
/// # Example
///
/// Consuming incrementally while a stream is driven elsewhere (the usual
/// pattern is one consumer thread per subscription):
///
/// ```
/// use std::sync::Arc;
/// use vqpy_core::frontend::{library, predicate::Pred};
/// use vqpy_core::{Query, VqpySession};
/// use vqpy_models::ModelZoo;
/// use vqpy_serve::{ServeConfig, ServeEvent, ServeSession};
/// use vqpy_video::{presets, Scene, SyntheticVideo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let session = Arc::new(VqpySession::new(ModelZoo::standard()));
/// let server = Arc::new(session.serve(ServeConfig::default()));
/// let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 3, 2.0));
/// let stream = server.open_stream(Arc::new(video));
/// let query = Query::builder("AnyCar")
///     .vobj("car", library::vehicle_schema())
///     .frame_constraint(Pred::gt("car", "score", 0.5))
///     .build()?;
/// let sub = server.attach(stream, query)?;
///
/// let driver = {
///     let server = Arc::clone(&server);
///     std::thread::spawn(move || server.run_to_end(stream).unwrap())
/// };
/// let mut hits = 0;
/// while let Some(event) = sub.recv() {
///     match event {
///         ServeEvent::Hit(_) => hits += 1,
///         ServeEvent::StreamFault(fault) => eprintln!("worker fault: {}", fault.message),
///         ServeEvent::StoreFault(_) => {}
///         ServeEvent::End { .. } | ServeEvent::Detached { .. } => break,
///     }
/// }
/// driver.join().unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Subscription {
    id: SubscriptionId,
    query_name: String,
    rx: Receiver<ServeEvent>,
}

impl Subscription {
    pub(crate) fn new(id: SubscriptionId, query_name: String, rx: Receiver<ServeEvent>) -> Self {
        Self { id, query_name, rx }
    }

    /// This subscription's identifier (pass to `StreamServer::detach`).
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Name of the subscribed query.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// Blocks for the next event. `None` once the channel is closed (after
    /// `End`/`Detached` has been consumed, or if the server dropped the
    /// stream).
    pub fn recv(&self) -> Option<ServeEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive; `Ok(None)` when no event is ready yet.
    pub fn try_recv(&self) -> Result<Option<ServeEvent>, SubscriptionClosed> {
        match self.rx.try_recv() {
            Ok(e) => Ok(Some(e)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(SubscriptionClosed),
        }
    }

    /// Blocks up to `timeout` for the next event; `Ok(None)` on timeout.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<ServeEvent>, SubscriptionClosed> {
        match self.rx.recv_timeout(timeout) {
            Ok(e) => Ok(Some(e)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(SubscriptionClosed),
        }
    }

    /// Drains the subscription to its terminal event, returning every hit
    /// plus the final video aggregate. Blocks until the stream ends or the
    /// query is detached, so only call this once the stream is being
    /// driven (or has finished).
    pub fn collect(self) -> (Vec<FrameHit>, Option<Value>) {
        let mut hits = Vec::new();
        let mut video_value = None;
        while let Ok(event) = self.rx.recv() {
            match event {
                ServeEvent::Hit(h) => hits.push(h),
                // Resumed faults are informational; an unresumed fault is
                // followed by the channel closing, which ends the loop.
                // Store faults are always informational (frames recompute).
                ServeEvent::StreamFault(_) | ServeEvent::StoreFault(_) => {}
                ServeEvent::End { video_value: v } | ServeEvent::Detached { video_value: v } => {
                    video_value = v;
                    break;
                }
            }
        }
        (hits, video_value)
    }
}
