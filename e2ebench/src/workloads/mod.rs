//! The six workloads and what they share.

use crate::run::{Budget, Rep, Report, Scale};
use crate::sys;
use crate::timed::{instrument_zoo, DetectionLog, TimedDispatch, TimedSource};
use crate::trace::{SpanGuard, Trace};
use std::sync::Arc;
use vqpy_core::ModelDispatch;
use vqpy_models::ModelZoo;
use vqpy_video::source::VideoSource;
use vqpy_video::{Scene, SyntheticVideo};

pub mod layers;
pub mod offline_shared;
pub mod serve_device;
pub mod serve_paced;
pub mod serve_saturated;
pub mod serving;
pub mod store;

/// One invocation: which inputs, how much work, traced or not.
pub struct Ctx {
    /// Seed of every generated input (stream `i` uses `seed + i`).
    pub seed: u64,
    /// How much work to do.
    pub scale: Scale,
    /// The span recorder of a traced run.
    pub trace: Option<Arc<Trace>>,
}

/// A workload: its name, why it exists, and how to run it.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Runs the workload.
    pub run: fn(&Ctx) -> Report,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "offline_shared",
        run: offline_shared::run,
    },
    Workload {
        name: "serve_saturated",
        run: serve_saturated::run,
    },
    Workload {
        name: "serve_paced",
        run: serve_paced::run,
    },
    Workload {
        name: "store_ingest",
        run: store::run_ingest,
    },
    Workload {
        name: "store_replay",
        run: store::run_replay,
    },
    Workload {
        name: "serve_device",
        run: serve_device::run,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The parts one repetition is built from: the program's own in an
/// untraced repetition, wrapped in the harness's interposers in a traced
/// one. Either way the program sees a zoo, a video source and a dispatch
/// boundary and cannot tell the difference.
#[derive(Clone, Copy)]
pub struct Parts<'a> {
    trace: Option<&'a Arc<Trace>>,
}

impl<'a> Parts<'a> {
    /// Plain parts.
    pub fn plain() -> Self {
        Self { trace: None }
    }

    /// Parts interposed on `trace`.
    pub fn traced(trace: &'a Arc<Trace>) -> Self {
        Self { trace: Some(trace) }
    }

    /// The recorder, in a traced repetition.
    pub fn trace(&self) -> Option<&'a Arc<Trace>> {
        self.trace
    }

    /// The standard zoo, and the log its detectors feed when traced.
    pub fn zoo(&self) -> (Arc<ModelZoo>, Option<Arc<DetectionLog>>) {
        let zoo = ModelZoo::standard();
        let log = self.trace.map(|t| instrument_zoo(&zoo, t));
        (zoo, log)
    }

    /// A video over (a copy of) `scene`, and its timing wrapper when
    /// traced.
    pub fn source(&self, scene: &Scene) -> (Arc<dyn VideoSource>, Option<Arc<TimedSource>>) {
        let video: Arc<dyn VideoSource> = Arc::new(SyntheticVideo::new(scene.clone()));
        match self.trace {
            None => (video, None),
            Some(t) => {
                let timed = Arc::new(TimedSource::new(video, Arc::clone(t)));
                (Arc::clone(&timed) as Arc<dyn VideoSource>, Some(timed))
            }
        }
    }

    /// The dispatch boundary to open a stream with: the program's default
    /// when untraced, the timed direct dispatcher when traced.
    pub fn dispatch(&self) -> Option<Arc<dyn ModelDispatch>> {
        self.trace
            .map(|t| Arc::new(TimedDispatch::new(Arc::clone(t))) as Arc<dyn ModelDispatch>)
    }

    /// Opens a span around a public call (no-op when untraced).
    pub fn span(
        &self,
        name: &'static str,
        stream: u32,
        frame: u64,
        items: u32,
    ) -> Option<SpanGuard<'a>> {
        self.trace.map(|t| t.span(name, stream, frame, items))
    }

    /// Runs the timed phase of a repetition. Traced: spans opened inside
    /// count as timed-phase spans and allocations are counted; returns
    /// `(allocations, bytes)` beside the result (zeros when untraced).
    pub fn timed_phase<R>(&self, f: impl FnOnce() -> R) -> (R, (u64, u64)) {
        let Some(trace) = self.trace else {
            return (f(), (0, 0));
        };
        trace.set_timed(true);
        let before = sys::alloc_counts();
        sys::count_allocs(true);
        let out = f();
        sys::count_allocs(false);
        let after = sys::alloc_counts();
        trace.set_timed(false);
        (out, (after.0 - before.0, after.1 - before.1))
    }
}

/// One repetition: its cold set-up time, its timed phase, and whatever
/// else the workload wants to keep of it.
pub struct Sample<T> {
    /// CPU seconds from nothing to the first frame processable.
    pub setup_s: f64,
    /// The timed phase.
    pub rep: Rep,
    /// Workload-specific counters.
    pub extra: T,
}

/// The repetitions of one invocation: always a plain pass; in a traced
/// run a second pass over the same work with the interposers installed.
pub struct Passes<T> {
    /// Repetitions built from the program's own parts.
    pub plain: Vec<Sample<T>>,
    /// Repetitions with interposers (traced runs only).
    pub traced: Vec<Sample<T>>,
}

impl<T> Passes<T> {
    /// The set-up samples and timed phases of the plain pass.
    pub fn fill_report(&self, report: &mut Report) {
        report.setups = self.plain.iter().map(|s| s.setup_s).collect();
        report.reps = self.plain.iter().map(|s| s.rep).collect();
    }
}

/// Runs `one` as 1 untimed warm-up plus as many repetitions as the
/// budget holds, each built from scratch. A traced run alternates plain
/// and interposed repetitions, so a slow spell of the machine falls on
/// both passes alike.
pub fn repeat<T>(ctx: &Ctx, mut one: impl FnMut(Parts<'_>) -> Sample<T>) -> Passes<T> {
    one(Parts::plain());
    let budget = Budget::start(&ctx.scale, 1.0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    match &ctx.trace {
        None => {
            while budget.more(plain.len()) {
                plain.push(one(Parts::plain()));
            }
        }
        Some(trace) => {
            while budget.more(plain.len() + traced.len()) {
                plain.push(one(Parts::plain()));
                traced.push(one(Parts::traced(trace)));
            }
        }
    }
    Passes { plain, traced }
}
