//! Structured span tracing: a cheap, ring-buffer-backed [`Tracer`] whose
//! spans carry stream/frame/stage attributes and whose clock is
//! pluggable, so traces stay honest under every cost-clock mode:
//!
//! - **wall time** (the default) is correct for `ClockMode::Latency`,
//!   where model cost is host-visible real time;
//! - a **custom time source** (see [`Tracer::set_time_source`]) lets the
//!   serving layer feed the cost clock's virtual nanoseconds in
//!   `ClockMode::Virtual`, where wall time would flatten every model
//!   charge to ~zero.
//!
//! A disabled tracer (the default everywhere) reduces every span to one
//! relaxed atomic load, so instrumentation can stay compiled into the hot
//! path unconditionally.

use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// First `pid` lane reserved for shard workers in the exported timeline:
/// shard `s`'s spans carry `pid = SHARD_LANE_BASE + s` (see
/// [`Tracer::for_shard`]). Chosen far above any realistic stream count so
/// shard lanes can never collide with per-stream lanes (`pid = stream + 1`).
pub const SHARD_LANE_BASE: u64 = 1 << 32;

/// The `pid` lane carrying frame-store spans (segment appends, replay
/// chunk loads, replay execution, the replay→live splice). A single shared
/// lane above the shard band: store traffic is cross-stream by nature, and
/// one lane keeps the timeline readable.
pub const STORE_LANE: u64 = 2 << 32;

/// Where a tracer reads "now" (microseconds since trace start) from.
#[derive(Clone)]
pub enum TimeSource {
    /// Wall time since the tracer was created.
    Wall,
    /// A caller-supplied monotonic microsecond counter (e.g. the cost
    /// clock's virtual time, or a deterministic counter in tests).
    Custom(Arc<dyn Fn() -> u64 + Send + Sync>),
}

impl std::fmt::Debug for TimeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeSource::Wall => f.write_str("Wall"),
            TimeSource::Custom(_) => f.write_str("Custom"),
        }
    }
}

/// One finished span, in Chrome `trace_event` terms: a complete event
/// (`ph: "X"`) with microsecond start and duration, grouped by `pid`
/// (stream lane) and `tid` (worker thread).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"decode"` or `"dispatch:detect"`.
    pub name: String,
    /// Category: `"exec"`, `"dispatch"`, `"batcher"`, `"serve"`, …
    pub cat: &'static str,
    /// Lane id; the serving layer uses `stream id + 1` (0 = shared
    /// components such as the cross-stream batcher).
    pub pid: u64,
    /// Thread lane, assigned per (tracer, OS thread) in first-use order.
    pub tid: u64,
    /// Start timestamp, microseconds since trace start.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attribute key/value pairs (rendered under `args` in the export).
    pub args: Vec<(&'static str, String)>,
}

pub(crate) struct TracerInner {
    enabled: AtomicBool,
    epoch: Instant,
    time: RwLock<TimeSource>,
    spans: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
    next_tid: AtomicU64,
    pub(crate) process_names: Mutex<BTreeMap<u64, String>>,
}

thread_local! {
    static THREAD_LANES: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, cloneable span recorder. Clones share the same ring buffer;
/// [`Tracer::for_stream`] derives a handle whose spans land in a given
/// stream's lane.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
    pid: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("pid", &self.pid)
            .field("spans", &self.inner.spans.lock().len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Default ring capacity: enough for every span of a multi-minute demo
/// run while bounding memory to a few tens of megabytes worst case.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// An enabled tracer with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled tracer retaining at most `capacity` spans (oldest spans
    /// are evicted first; see [`Tracer::dropped_spans`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(true, capacity.max(1))
    }

    /// A disabled tracer: every span call is a no-op costing one atomic
    /// load. This is the default threaded through the executors.
    pub fn disabled() -> Self {
        Self::build(false, 1)
    }

    fn build(enabled: bool, capacity: usize) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                time: RwLock::new(TimeSource::Wall),
                spans: Mutex::new(VecDeque::new()),
                capacity,
                dropped: AtomicU64::new(0),
                next_tid: AtomicU64::new(0),
                process_names: Mutex::new(BTreeMap::new()),
            }),
            pid: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Derives a handle whose spans carry `pid = stream_lane`; shares the
    /// ring buffer with `self`.
    pub fn for_stream(&self, stream_lane: u64) -> Tracer {
        Tracer {
            inner: Arc::clone(&self.inner),
            pid: stream_lane,
        }
    }

    /// Derives a handle whose spans land in shard `shard`'s lane
    /// (`pid = SHARD_LANE_BASE + shard`) and names the lane
    /// `"shard <shard>"` in the Perfetto export. Shard lanes sit far above
    /// the per-stream lanes (`pid = stream + 1`), so a timeline shows the
    /// scheduler's step multiplexing alongside each stream's stage spans.
    pub fn for_shard(&self, shard: u64) -> Tracer {
        let lane = SHARD_LANE_BASE + shard;
        // Only name the lane when spans are actually recorded, so a
        // disabled tracer's export stays empty.
        if self.is_enabled() {
            self.set_process_name(lane, format!("shard {shard}"));
        }
        self.for_stream(lane)
    }

    /// Names a `pid` lane in the Perfetto export (emitted as a
    /// `process_name` metadata event).
    pub fn set_process_name(&self, pid: u64, name: impl Into<String>) {
        self.inner.process_names.lock().insert(pid, name.into());
    }

    /// Replaces the time source. Installed once, before spans are opened
    /// (e.g. by the stream server when the cost clock runs in `Virtual`
    /// mode); timestamps from different sources do not mix meaningfully.
    pub fn set_time_source(&self, f: impl Fn() -> u64 + Send + Sync + 'static) {
        *self.inner.time.write() = TimeSource::Custom(Arc::new(f));
    }

    fn now_us(&self) -> u64 {
        match &*self.inner.time.read() {
            TimeSource::Wall => self.inner.epoch.elapsed().as_micros() as u64,
            TimeSource::Custom(f) => f(),
        }
    }

    fn thread_lane(&self) -> u64 {
        let key = Arc::as_ptr(&self.inner) as usize;
        THREAD_LANES.with(|lanes| {
            let mut lanes = lanes.borrow_mut();
            if let Some((_, tid)) = lanes.iter().find(|(k, _)| *k == key) {
                return *tid;
            }
            let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed) + 1;
            lanes.push((key, tid));
            tid
        })
    }

    /// Opens a span; it closes (and is recorded) when the returned guard
    /// drops. `cat` groups spans by layer (`"exec"`, `"dispatch"`,
    /// `"batcher"`, `"serve"`); attach attributes with
    /// [`SpanGuard::arg`].
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                inner: None,
                rec: None,
            };
        }
        let rec = SpanRecord {
            name: name.into(),
            cat,
            pid: self.pid,
            tid: self.thread_lane(),
            start_us: self.now_us(),
            dur_us: 0,
            args: Vec::new(),
        };
        SpanGuard {
            inner: Some(self.clone()),
            rec: Some(rec),
        }
    }

    /// Named lanes registered via [`Tracer::set_process_name`], sorted by
    /// pid.
    pub fn process_names(&self) -> Vec<(u64, String)> {
        self.inner
            .process_names
            .lock()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// All retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().iter().cloned().collect()
    }

    /// Retained span count.
    pub fn span_count(&self) -> usize {
        self.inner.spans.lock().len()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Discards all retained spans (the eviction counter is kept).
    pub fn clear(&self) {
        self.inner.spans.lock().clear();
    }

    fn push(&self, rec: SpanRecord) {
        let mut spans = self.inner.spans.lock();
        if spans.len() >= self.inner.capacity {
            spans.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(rec);
    }
}

/// Closes its span on drop. Returned by [`Tracer::span`].
#[must_use = "a span guard records its span when dropped; binding it to _ closes it immediately"]
pub struct SpanGuard {
    inner: Option<Tracer>,
    rec: Option<SpanRecord>,
}

impl SpanGuard {
    /// Attaches an attribute (no-op on a disabled tracer's guard).
    pub fn arg(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        self.add_arg(key, value);
        self
    }

    /// Attaches an attribute without consuming the guard.
    pub fn add_arg(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(rec) = self.rec.as_mut() {
            rec.args.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(tracer), Some(mut rec)) = (self.inner.take(), self.rec.take()) {
            let end = tracer.now_us();
            rec.dur_us = end.saturating_sub(rec.start_us);
            tracer.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic time source: each call advances by 10us.
    fn ticking() -> Arc<dyn Fn() -> u64 + Send + Sync> {
        let t = AtomicU64::new(0);
        Arc::new(move || t.fetch_add(10, Ordering::Relaxed))
    }

    fn deterministic_tracer() -> Tracer {
        let tr = Tracer::enabled();
        let tick = ticking();
        tr.set_time_source(move || tick());
        tr
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::disabled();
        {
            let _s = tr.span("exec", "decode").arg("frame", 1);
        }
        assert_eq!(tr.span_count(), 0);
        assert!(!tr.is_enabled());
    }

    #[test]
    fn spans_nest_and_close_in_inner_first_order() {
        let tr = deterministic_tracer();
        {
            let _outer = tr.span("exec", "detect").arg("frames", "0..8");
            {
                let _inner = tr.span("dispatch", "dispatch:detect").arg("items", 8);
            }
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        // Inner closed first, so it is recorded first.
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "dispatch:detect");
        assert_eq!(outer.name, "detect");
        // Proper nesting: inner starts after outer and ends before it.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        assert_eq!(outer.args, vec![("frames", "0..8".to_string())]);
        // Both on the same thread lane.
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn sibling_spans_are_ordered_by_start_time() {
        let tr = deterministic_tracer();
        for i in 0..3 {
            let _s = tr.span("exec", format!("batch-{i}"));
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.windows(2).all(|w| w[0].start_us < w[1].start_us));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let tr = Tracer::with_capacity(2);
        for i in 0..5 {
            let _s = tr.span("exec", format!("s{i}"));
        }
        assert_eq!(tr.span_count(), 2);
        assert_eq!(tr.dropped_spans(), 3);
        let names: Vec<_> = tr.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["s3", "s4"]);
    }

    #[test]
    fn for_stream_assigns_pid_lane() {
        let tr = deterministic_tracer();
        {
            let _s = tr.for_stream(3).span("serve", "demux");
        }
        assert_eq!(tr.spans()[0].pid, 3);
    }

    #[test]
    fn cross_thread_spans_get_distinct_tids() {
        let tr = deterministic_tracer();
        {
            let _a = tr.span("exec", "main");
        }
        let tr2 = tr.clone();
        std::thread::spawn(move || {
            let _b = tr2.span("exec", "worker");
        })
        .join()
        .unwrap();
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
    }
}
