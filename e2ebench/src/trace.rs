//! The harness's own span recorder: spans at each layer boundary, kept
//! in memory, written out when the run ends.
//!
//! Host time is never read from the program's `Telemetry::with_tracing()`
//! here: under the virtual clock that tracer's time source is
//! `Clock::virtual_micros`, i.e. modelled device time, not host time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a span opened with nothing open above it on its thread.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u32,
    /// `<module>.<call>`, e.g. `video.decode`.
    pub name: &'static str,
    /// Nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace's epoch.
    pub end_ns: u64,
    /// The span that was open on this thread when this one opened.
    pub parent: u32,
    /// The request identifier: which stream …
    pub stream: u32,
    /// … and which frame (the first of a batch).
    pub frame: u64,
    /// Items the call covered (frames of a batch, crops of a frame).
    pub items: u32,
    /// Whether the span lies in a timed phase (as opposed to set-up).
    pub timed: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. Shared by every interposer of a traced run.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU32,
    timed: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            timed: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the trace's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the trace's epoch to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Marks the spans opened from now on as timed-phase (or set-up).
    pub fn set_timed(&self, timed: bool) {
        self.timed.store(timed, Ordering::Relaxed);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, stream: u32, frame: u64, items: u32) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or(NO_PARENT);
            o.push(id);
            parent
        });
        SpanGuard {
            trace: self,
            span: Span {
                id,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                stream,
                frame,
                items,
                timed: self.timed.load(Ordering::Relaxed),
            },
        }
    }

    /// Runs `f` inside a span.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        stream: u32,
        frame: u64,
        items: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let _guard = self.span(name, stream, frame, items);
        f()
    }

    /// Runs `f` over every closed span, without copying them.
    pub fn read<R>(&self, f: impl FnOnce(&[Span]) -> R) -> R {
        f(&self
            .spans
            .lock()
            .expect("no span is recorded under a panic"))
    }

    /// A copy of every closed span.
    pub fn spans(&self) -> Vec<Span> {
        self.read(<[Span]>::to_vec)
    }

    /// Per-name totals over the spans of the timed phases (`timed`) or of
    /// set-up.
    pub fn summarize(&self, timed: bool) -> BTreeMap<&'static str, LayerTotals> {
        self.read(|spans| summarize(spans, timed))
    }

    /// Writes every span as one JSON array of
    /// `{id, name, start, end, parent, stream, frame, items, timed}`
    /// objects (times in ns); returns how many.
    pub fn write_json(&self, path: &Path) -> std::io::Result<usize> {
        self.read(|spans| write_json(spans, path))
    }
}

fn write_json(spans: &[Span], path: &Path) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"stream\":{},\"frame\":{},\"items\":{},\"timed\":{}}}{}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.stream,
                s.frame,
                s.items,
                s.timed,
                if i + 1 < spans.len() { ",\n" } else { "\n" }
            )?;
        }
    }
    out.write_all(b"]\n")?;
    out.flush()?;
    Ok(spans.len())
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    trace: &'a Trace,
    span: Span,
}

impl SpanGuard<'_> {
    /// Sets the item count once the call has said how many it covered.
    pub fn set_items(&mut self, items: u32) {
        self.span.items = items;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.trace.now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            // Guards drop innermost-first, so this is the top entry.
            if o.last() == Some(&self.span.id) {
                o.pop();
            }
        });
        // A poisoned lock means another thread panicked mid-push; the
        // run is failing anyway, so dropping this span is harmless.
        if let Ok(mut spans) = self.trace.spans.lock() {
            spans.push(self.span);
        }
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: u64,
    /// Items they covered.
    pub items: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// Folds spans into per-name totals. A layer's self time is its span's
/// duration minus the part its child spans cover; children run on the
/// parent's thread, nested and disjoint, so that part is their sum.
pub fn summarize(spans: &[Span], timed: bool) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.timed == timed) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.items += u64::from(s.items);
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stream: 0,
            frame: 0,
            items: 1,
            timed: true,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, "serve.step", 0, 100, NO_PARENT),
            span(1, "video.decode", 10, 40, 0),
            span(2, "core.dispatch", 50, 90, 0),
            span(3, "models.detect", 55, 85, 2),
        ];
        let s = summarize(&spans, true);
        assert_eq!(s["serve.step"].self_ns, 100 - 30 - 40);
        assert_eq!(s["video.decode"].self_ns, 30);
        assert_eq!(s["core.dispatch"].self_ns, 10);
        assert_eq!(s["models.detect"].self_ns, 30);
        let total_self: u64 = s.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
        assert!(summarize(&spans, false).is_empty());
    }

    #[test]
    fn guards_record_nesting_per_thread() {
        let trace = Trace::new();
        trace.set_timed(true);
        {
            let _outer = trace.span("outer", 1, 7, 2);
            trace.in_span("inner", 1, 7, 1, || std::hint::black_box(3));
            std::thread::scope(|s| {
                s.spawn(|| trace.in_span("elsewhere", 2, 0, 1, || ()));
            });
        }
        let spans = trace.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (outer, inner, elsewhere) = (by_name("outer"), by_name("inner"), by_name("elsewhere"));
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(elsewhere.parent, NO_PARENT, "parents never cross threads");
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(outer.timed && (outer.stream, outer.frame, outer.items) == (1, 7, 2));
    }

    #[test]
    fn json_dump_lists_every_span() {
        let trace = Trace::new();
        trace.in_span("a.b", 0, 0, 1, || ());
        trace.in_span("c.d", 0, 1, 1, || ());
        let dir = crate::run::scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-test.json");
        assert_eq!(trace.write_json(&path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert!(text.contains("\"parent\":null"));
    }
}
