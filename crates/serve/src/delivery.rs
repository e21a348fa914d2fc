//! Isolation and delivery: the per-subscription server state
//! ([`ActiveSub`]), the demultiplexing result sink ([`DemuxSink`]), the
//! panic-isolated segment runner with its restart policy, and `retire`,
//! the one way subscriptions leave a stream.

use crate::config::{Backpressure, ServeError, ServeResult, RESTART_BACKOFF_LABEL};
use crate::metrics::QueryServeMetrics;
use crate::stream::{Feed, PendingAttach, Stream, StreamHandle};
use crate::subscription::{ServeEvent, StreamFault, SubscriptionId};
use crate::StreamServer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::backend::exec::{run_segment, QueryAccum, ResultSink};
use vqpy_core::backend::ops::FrameSlot;
use vqpy_core::backend::plan::PlanDag;
use vqpy_core::backend::stage::ExecEnv;
use vqpy_core::error::VqpyError;
use vqpy_core::{panic_message, Query};
use vqpy_obs::{label_escape, Counter, Histogram, Telemetry, Tracer};

/// The registry's totals of delivered and dropped events.
pub(crate) const DELIVERED_TOTAL: &str = "vqpy_delivered_total";
pub(crate) const DROPPED_TOTAL: &str = "vqpy_dropped_total";

/// One attached query's server-side state: its accumulator (aggregates are
/// computed from the attach boundary on) and the sending half of the
/// subscriber channel.
pub(crate) struct ActiveSub {
    pub(crate) id: SubscriptionId,
    pub(crate) query: Arc<Query>,
    pub(crate) accum: QueryAccum,
    pub(crate) tx: SyncSender<ServeEvent>,
    /// Cleared when the subscriber drops its receiver.
    pub(crate) connected: bool,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    /// This subscription's own delivery-latency histogram, backing the
    /// exact mean/p50/p95/p99/max of [`QueryServeMetrics`].
    pub(crate) latency: Histogram,
    /// The registry-wide `vqpy_delivery_latency_ms{query=...}` histogram,
    /// shared by every subscription of the same query name (what the
    /// Prometheus exposition reports).
    pub(crate) shared_latency: Histogram,
    /// The registry's [`DELIVERED_TOTAL`] and [`DROPPED_TOTAL`] counters.
    delivered_total: Counter,
    dropped_total: Counter,
}

impl ActiveSub {
    pub(crate) fn new(p: PendingAttach, telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        let shared_latency = registry.histogram(&format!(
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
            delivered_total: registry.counter(DELIVERED_TOTAL),
            dropped_total: registry.counter(DROPPED_TOTAL),
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

    /// Sends a result event, counting it as delivered or dropped here, on
    /// `stream` (the handle whose step sends it) and in the registry.
    pub(crate) fn deliver(
        &mut self,
        event: ServeEvent,
        policy: Backpressure,
        ingest: Instant,
        stream: &StreamHandle,
    ) {
        match self.send(event, policy) {
            Ok(()) => {
                self.delivered += 1;
                stream.delivered.fetch_add(1, Ordering::Relaxed);
                self.delivered_total.inc();
                let latency_ms = ingest.elapsed().as_secs_f64() * 1e3;
                self.latency.observe(latency_ms);
                self.shared_latency.observe(latency_ms);
            }
            Err(true) => {
                self.dropped += 1;
                stream.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_total.inc();
            }
            Err(false) => {}
        }
    }

    /// Sends an out-of-band notice (fault events) without touching the
    /// delivery counters, so `delivered`/`dropped` keep meaning "result
    /// events" for equivalence accounting.
    pub(crate) fn notify(&mut self, event: ServeEvent, policy: Backpressure) {
        let _ = self.send(event, policy);
    }

    pub(crate) fn metrics(&self) -> QueryServeMetrics {
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

/// Demultiplexes the super-plan's per-frame matches to the per-query
/// subscribers: the serving [`ResultSink`]. `subs` is aligned with the
/// plan's joins (attach order).
struct DemuxSink<'a> {
    subs: &'a mut [ActiveSub],
    /// The handle whose step runs the segment: it counts the deliveries.
    stream: &'a StreamHandle,
    /// The stream's process-lane tracer, for per-frame demux spans.
    tracer: &'a Tracer,
    policy: Backpressure,
    /// When this segment began executing, for delivery latency.
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
    /// Frames this attempt was handed, skipped ones included.
    frames: u64,
}

impl ResultSink for DemuxSink<'_> {
    fn on_frame(&mut self, plan: &PlanDag, slot: &FrameSlot) -> vqpy_core::error::Result<()> {
        let frame = slot.frame.index;
        self.frames += 1;
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
                    sub.deliver(ServeEvent::Hit(hit), self.policy, self.ingest, self.stream);
                }
            }
        }
        self.progress = Some(frame);
        Ok(())
    }
}

/// How subscriptions leave a stream, and the terminal event each gets.
pub(crate) enum Exit<'a> {
    /// Detached on request: [`ServeEvent::Detached`] with the aggregate so far.
    Detach(&'a [SubscriptionId]),
    /// The stream ended: [`ServeEvent::End`] with the final aggregate.
    End,
    /// The restart budget ran out: the final non-resumed fault notice.
    Abandon(StreamFault),
}

impl StreamServer {
    /// The one way subscriptions leave a stream: each gets its terminal
    /// event, its metrics move to `past_queries`, and dropping it closes
    /// its channel, so [`Subscription::collect`] terminates under either
    /// backpressure policy. When the stream ends ([`Exit::End`] or
    /// [`Exit::Abandon`]) every subscription leaves, the stream is marked
    /// finished under the commands lock `attach` checks, and attaches that
    /// never ran are answered [`ServeEvent::Detached`] with no aggregate.
    pub(crate) fn retire(&self, handle: &StreamHandle, s: &mut Stream, exit: Exit<'_>) {
        let leaving: Vec<ActiveSub> = match exit {
            Exit::Detach(ids) => ids
                .iter()
                .filter_map(|id| {
                    let pos = s.subs.iter().position(|a| a.id == *id)?;
                    Some(s.subs.remove(pos))
                })
                .collect(),
            Exit::End | Exit::Abandon(_) => {
                let mut commands = handle.commands.lock();
                handle.finished.store(true, Ordering::Release);
                for p in commands.attach.drain(..) {
                    let _ = p.tx.try_send(ServeEvent::Detached { video_value: None });
                }
                commands.detach.clear();
                s.subs.drain(..).collect()
            }
        };
        let policy = self.config.backpressure;
        for mut sub in leaving {
            let video_value = sub.accum.video_value_for(&sub.query);
            let now = Instant::now();
            match &exit {
                Exit::Detach(_) => {
                    sub.deliver(ServeEvent::Detached { video_value }, policy, now, handle)
                }
                Exit::End => sub.deliver(ServeEvent::End { video_value }, policy, now, handle),
                Exit::Abandon(fault) => sub.notify(ServeEvent::StreamFault(fault.clone()), policy),
            }
            s.past_queries.push(sub.metrics());
        }
    }

    /// Runs one segment with panic isolation and the configured
    /// [`RestartPolicy`]: checkpoint the stream (a copy of its state and
    /// its metrics), run, and on a worker
    /// panic (caught here, or a contained pipeline-stage panic surfaced as
    /// [`VqpyError::StagePanic`]) roll back to the checkpoint, notify
    /// subscribers with a typed [`ServeEvent::StreamFault`], and re-run the
    /// segment. Exhausting the restart budget finishes the stream in a
    /// faulted state and returns
    /// [`ServeError::WorkerPanic`]. Non-panic execution errors propagate
    /// unchanged. Live steps and replay chunks both run here; a replay's
    /// hits before its `deliver_from` are observed but not delivered.
    pub(crate) fn run_segment_isolated(
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
        let (plan, ops) = s.plan.as_mut().expect("caller checked plan presence");
        let env = ExecEnv {
            plan,
            source: s.source.as_ref(),
            zoo: self.session.zoo(),
            clock: self.session.clock(),
            config: &self.session.config().exec,
        };
        let mut skip_through: Option<u64> = None;
        loop {
            // The tables belong in the checkpoint because prep frees a
            // track's row when it expires: a failed attempt may free a row
            // whose last sighting the re-run, from the restored tracker,
            // probes again. The reference frame does because the frame
            // filters may have run ahead of the stage that failed.
            let checkpoint = (ops.state.clone(), s.exec.clone());
            let mut sink = DemuxSink {
                subs: &mut s.subs,
                stream: handle,
                tracer: &tracer,
                policy: self.config.backpressure,
                ingest: wall,
                deliver_from,
                skip_through,
                progress: None,
                frames: 0,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_segment(env, range.clone(), ops, &mut s.exec, &mut sink)
            }));
            let message = match outcome {
                Ok(Ok(())) => {
                    handle
                        .frames_total
                        .fetch_add(sink.frames, Ordering::Relaxed);
                    return Ok(());
                }
                // A stage-thread panic the pipelined executor already
                // contained: same fault class as a caller-thread panic.
                Ok(Err(VqpyError::StagePanic { stage, message })) => {
                    format!("{stage} stage: {message}")
                }
                Ok(Err(e)) => return Err(e.into()),
                Err(payload) => panic_message(payload.as_ref()),
            };
            // Highest frame already delivered to subscribers, across every
            // attempt of this segment.
            let delivered_through = sink.progress.or(skip_through);
            (ops.state, s.exec) = checkpoint;

            if s.restarts >= restart.max_restarts {
                // Budget exhausted: the subscriptions leave with a final
                // non-resumed fault notice and the typed error surfaces to
                // the driver.
                let frames_lost = range.end - delivered_through.map_or(range.start, |p| p + 1);
                s.frames_lost += frames_lost;
                let fault = StreamFault {
                    frame: range.start,
                    message: message.clone(),
                    restarts: s.restarts,
                    resumed: false,
                    frames_lost,
                };
                self.retire(handle, s, Exit::Abandon(fault));
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
            skip_through = delivered_through;
            let fault = StreamFault {
                frame: range.start,
                message,
                restarts: s.restarts,
                resumed: true,
                frames_lost: 0,
            };
            let event = ServeEvent::StreamFault(fault);
            for sub in s.subs.iter_mut() {
                sub.notify(event.clone(), self.config.backpressure);
            }
        }
    }
}
