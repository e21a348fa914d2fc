//! The executor's stage table: the one description of what a frame batch
//! passes through between decode and the result sink.
//!
//! [`StageKind::ALL`] lists the stages in execution order;
//! [`PlanDag::stage_specs`] slices a plan by it, [`StageOps`] holds the
//! live operator chains indexed by it (and the stream state the ordered
//! stages hold parts of), and `run_stage` is the one body
//! both schedulers ([`crate::backend::exec`], [`crate::backend::pipeline`])
//! run for every stage — so sequential and pipelined execution cannot
//! drift apart: they differ only in *which thread* calls `run_stage`,
//! never in what it does.

use crate::backend::dispatch::{DirectDispatch, ModelDispatch};
use crate::backend::exec::{ExecConfig, ExecMetrics, ResultSink};
use crate::backend::graph::SlotLayout;
use crate::backend::objects::{Objects, Reference, StreamState};
use crate::backend::ops::{instantiate, ExecCtx, FrameSlot, Operator};
use crate::backend::plan::PlanDag;
use crate::error::Result;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vqpy_models::{Clock, ModelZoo};
use vqpy_video::source::VideoSource;

/// One stage of the executor. Ordered stages see batches in frame order on
/// one thread; the others are deterministic per frame, so a pipelined
/// scheduler fans them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Differencing and binary-classifier frame filters.
    FrameFilter,
    /// Object detectors.
    Detect,
    /// The trackers plus every stateful or intrinsic model projection: the
    /// operators that share the object tables.
    Prep,
    /// Order-free, table-free per-object projections and filters the
    /// planner hoisted out of the tail (see [`PlanDag::stage_specs`]).
    Enrich,
    /// Relation projections and joins; its output feeds the result sink.
    Tail,
}

impl StageKind {
    /// Every stage, in execution order.
    pub const ALL: [StageKind; 5] = [
        StageKind::FrameFilter,
        StageKind::Detect,
        StageKind::Prep,
        StageKind::Enrich,
        StageKind::Tail,
    ];

    /// Name of the decode step feeding the first stage: its span and its
    /// [`StagePanic`](crate::error::VqpyError::StagePanic) label.
    pub const DECODE: &'static str = "decode";

    /// The stage's position in [`StageKind::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stage's [`StagePanic`](crate::error::VqpyError::StagePanic)
    /// label. The CI telemetry smoke (through the spans) and the serving
    /// layer's fault text read these byte for byte, which is why prep still
    /// answers to `track`.
    pub const fn name(self) -> &'static str {
        match self {
            StageKind::FrameFilter => "frame_filters",
            StageKind::Detect => "detect",
            StageKind::Prep => "track",
            StageKind::Enrich => "enrich",
            StageKind::Tail => "tail",
        }
    }

    /// The stage's span name: [`StageKind::name`], except that exported
    /// timelines have always spelled the frame filters' span singular.
    pub const fn span_name(self) -> &'static str {
        match self {
            StageKind::FrameFilter => "frame_filter",
            other => other.name(),
        }
    }

    /// Whether the stage runs one chain in frame order rather than fanning
    /// out (one chain per worker, any order): the frame filters hold the
    /// stream's diff-filter [`Reference`], prep its object tables (see
    /// [`StageKind::owns_objects`]), and the tail feeds the sink.
    pub const fn ordered(self) -> bool {
        !matches!(self, StageKind::Detect | StageKind::Enrich)
    }

    /// Whether the stage reads and writes the stream's [`Objects`]. Only
    /// prep does: its trackers' expiry reports end a row's life, and the
    /// order of its probes and window pushes is part of the results'
    /// byte-identity, so exactly one ordered stage may touch the tables.
    /// The frame filters hold the rest of the [`StreamState`], the
    /// reference frame; no other stage holds any.
    pub const fn owns_objects(self) -> bool {
        matches!(self, StageKind::Prep)
    }
}

/// The plan-ordered operators of one stage.
pub type Chain = Vec<Box<dyn Operator>>;

/// Live operator chains, indexed by stage, and the stream state their
/// ordered stages hold parts of.
///
/// A `StageOps` owns all of a stream's cross-frame state, so a serving
/// layer can persist it across [`run_segment`] calls and, by moving
/// [`StageOps::state`], across plan recompiles when queries attach or
/// detach.
///
/// [`run_segment`]: crate::backend::exec::run_segment
pub struct StageOps {
    /// `chains[kind.index()]`: one chain for an ordered stage, one per
    /// pipeline worker for a fan-out stage (their operators are stateless,
    /// so each worker owns instances; sequential driving uses chain 0).
    pub chains: [Vec<Chain>; StageKind::ALL.len()],
    /// The model-dispatch boundary every model invocation goes through
    /// (see [`crate::backend::dispatch`]). Defaults to [`DirectDispatch`]; a
    /// serving supervisor replaces it with a shared cross-stream batcher.
    /// Owned here — rather than passed per segment — so the boundary
    /// survives exactly as long as the stream's state does.
    pub dispatch: Arc<dyn ModelDispatch>,
    /// Span tracer for stage and dispatch spans. Defaults to a disabled
    /// tracer — one atomic load per would-be span — and is owned here for
    /// the same reason `dispatch` is: the serving layer installs an
    /// enabled, per-stream handle once and it survives plan recompiles.
    pub tracer: vqpy_obs::Tracer,
    /// Frame-slot workspace the sequential scheduler fills per batch. Owned
    /// here so re-entrant segment stepping — a shard worker running one
    /// short segment per scheduler turn — reuses the allocations across
    /// calls. Purely a workspace: it carries no semantic state.
    pub slots: Vec<FrameSlot>,
    /// The plan's slot layout ([`PlanDag::slot_layout`]): the operators
    /// were resolved against it, and every frame graph they see follows it.
    pub layout: Arc<SlotLayout>,
    /// The object tables (with the reuse counters), which prep
    /// reaches through [`ExecCtx`], and the diff-filter reference, which
    /// the frame filters do.
    pub state: StreamState,
}

/// What one stage holds of the stream state while it runs a batch.
#[derive(Default)]
pub(crate) struct Held<'a> {
    objects: Option<&'a mut Objects>,
    reference: Option<&'a mut Reference>,
}

impl StreamState {
    /// Lends each stage, by [`StageKind::index`], its part of the state: a
    /// split borrow, so the frame filters and prep may run on different
    /// threads.
    pub(crate) fn split(&mut self) -> [Held<'_>; StageKind::ALL.len()] {
        let (mut objects, mut reference) = (Some(&mut self.objects), self.reference.as_mut());
        StageKind::ALL.map(|kind| Held {
            objects: objects.take_if(|_| kind.owns_objects()),
            reference: reference.take_if(|_| kind == StageKind::FrameFilter),
        })
    }
}

/// Instantiates a plan's operators by stage ([`PlanDag::stage_specs`]),
/// with `workers` chains per fan-out stage, over an empty stream state.
pub fn instantiate_stage_ops(plan: &PlanDag, zoo: &ModelZoo, workers: usize) -> Result<StageOps> {
    let specs = plan.stage_specs();
    let layout = Arc::new(plan.slot_layout());
    let state = StreamState::for_plan(plan);
    let mut chains: [Vec<Chain>; StageKind::ALL.len()] = Default::default();
    for kind in StageKind::ALL {
        let copies = if kind.ordered() { 1 } else { workers.max(1) };
        for _ in 0..copies {
            let chain = specs[kind.index()]
                .iter()
                .map(|spec| instantiate(plan, spec, zoo, &layout, &state.objects))
                .collect::<Result<Chain>>()?;
            chains[kind.index()].push(chain);
        }
    }
    Ok(StageOps {
        chains,
        dispatch: Arc::new(DirectDispatch),
        tracer: vqpy_obs::Tracer::disabled(),
        slots: Vec::new(),
        layout,
        state,
    })
}

/// What a segment run borrows from its caller and never mutates.
#[derive(Clone, Copy)]
pub struct ExecEnv<'a> {
    pub plan: &'a PlanDag,
    pub source: &'a dyn VideoSource,
    pub zoo: &'a ModelZoo,
    pub clock: &'a Clock,
    pub config: &'a ExecConfig,
}

/// Everything [`decode_batch`] and [`run_stage`] need besides the batch
/// itself, shared by reference across a pipelined segment's threads: the
/// caller's environment, the stream's dispatch boundary, tracer and slot
/// layout, and the segment's counters — atomics, because every worker adds
/// to them — which [`StageCtx::flush`] folds into [`ExecMetrics`] once,
/// when the segment ends.
pub(crate) struct StageCtx<'a> {
    pub(crate) env: ExecEnv<'a>,
    dispatch: Arc<dyn ModelDispatch>,
    tracer: vqpy_obs::Tracer,
    layout: Arc<SlotLayout>,
    frames_processed: AtomicU64,
    decode_failures: AtomicU64,
}

impl<'a> StageCtx<'a> {
    pub(crate) fn new(env: ExecEnv<'a>, ops: &StageOps) -> Self {
        Self {
            env,
            dispatch: Arc::clone(&ops.dispatch),
            tracer: ops.tracer.clone(),
            layout: Arc::clone(&ops.layout),
            frames_processed: AtomicU64::new(0),
            decode_failures: AtomicU64::new(0),
        }
    }

    pub(crate) fn flush(&self, metrics: &mut ExecMetrics) {
        metrics.frames_processed += self.frames_processed.load(Ordering::Relaxed);
        metrics.decode_failures += self.decode_failures.load(Ordering::Relaxed);
    }
}

/// Decodes `frames` into `slots`, reusing the workspaces already there and
/// leaving exactly the decodable frames, in order. An undecodable frame is
/// skipped with a counter: decode faults are per-frame events, not
/// stream-fatal. The batch's decode charges sleep once (a host section).
pub(crate) fn decode_batch(cx: &StageCtx<'_>, frames: Range<u64>, slots: &mut Vec<FrameSlot>) {
    let mut span = cx
        .tracer
        .span("exec", StageKind::DECODE)
        .arg("start", frames.start)
        .arg("end", frames.end);
    let mut n = 0usize;
    cx.env.clock.host_section(|| {
        for f in frames {
            cx.env
                .clock
                .charge_labeled("video_decode", vqpy_models::zoo::COST_VIDEO_DECODE);
            let Ok(frame) = cx.env.source.try_frame(f) else {
                cx.decode_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if n < slots.len() {
                slots[n].reset(frame, &cx.layout);
            } else {
                slots.push(FrameSlot::with_layout(frame, &cx.layout));
            }
            slots[n].prepare_joins(cx.env.plan.joins.len());
            n += 1;
        }
    });
    slots.truncate(n);
    span.add_arg("decoded", n);
}

/// Runs one stage's operator chain over one batch: the only place a stage
/// span is opened, an [`ExecCtx`] built and
/// [`Operator::process_batch`] called. `held` is the stage's part of the
/// stream state ([`StreamState::split`]). When that is the object tables,
/// after the chain has run the whole batch, and only then, they free the
/// rows of the tracks the batch's trackers reported expired. The chain
/// runs in one [`Clock::host_section`], so its native charges sleep once.
pub(crate) fn run_stage(
    kind: StageKind,
    chain: &mut [Box<dyn Operator>],
    held: &mut Held<'_>,
    seq: u64,
    slots: &mut [FrameSlot],
    cx: &StageCtx<'_>,
) -> Result<()> {
    let _span = cx
        .tracer
        .span("exec", kind.span_name())
        .arg("batch", seq)
        .arg("frames", slots.len());
    let mut ctx = ExecCtx {
        zoo: cx.env.zoo,
        clock: cx.env.clock,
        fps: cx.env.source.fps(),
        objects: held.objects.as_deref_mut(),
        reference: held.reference.as_deref_mut(),
        reuse: cx.env.config.enable_intrinsic_reuse,
        dispatch: &*cx.dispatch,
        tracer: &cx.tracer,
    };
    let result = cx.env.clock.host_section(|| {
        chain
            .iter_mut()
            .try_for_each(|op| op.process_batch(slots, &mut ctx))
    });
    if let Some(objects) = held.objects.as_deref_mut() {
        slots.iter().for_each(|slot| objects.release(&slot.expired));
    }
    if kind == StageKind::FrameFilter && result.is_ok() {
        // Frames alive past the frame filters count as processed.
        let alive = slots.iter().filter(|s| s.alive).count() as u64;
        cx.frames_processed.fetch_add(alive, Ordering::Relaxed);
    }
    result
}

/// Hands one finished batch to the sink, in frame order: the one place a
/// frame counts as delivered.
pub(crate) fn deliver(
    plan: &PlanDag,
    slots: &[FrameSlot],
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    metrics.frames_total += slots.len() as u64;
    slots.iter().try_for_each(|slot| sink.on_frame(plan, slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::dispatch::{RetryDispatch, RetryPolicy};
    use crate::backend::plan::{build_plan, PlanOptions};
    use crate::frontend::library;
    use crate::frontend::query::Query;
    use std::time::{Duration, Instant};
    use vqpy_models::{
        ClockMode, Detection, Detector, FaultInjector, FaultPlan, ModelFault, ModelProfile,
    };
    use vqpy_video::frame::Frame;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::SyntheticVideo;

    /// Stamps the start of every batched call, then defers to `inner`.
    struct Stamped {
        inner: Arc<dyn Detector>,
        calls: Arc<std::sync::Mutex<Vec<Instant>>>,
    }

    impl Detector for Stamped {
        fn profile(&self) -> &ModelProfile {
            self.inner.profile()
        }

        fn detect(&self, frame: &Frame, clock: &Clock) -> Vec<Detection> {
            self.inner.detect(frame, clock)
        }

        fn try_detect_batch(
            &self,
            frames: &[&Frame],
            clock: &Clock,
        ) -> std::result::Result<Vec<Vec<Detection>>, ModelFault> {
            self.calls.lock().unwrap().push(Instant::now());
            self.inner.try_detect_batch(frames, clock)
        }
    }

    /// A retry backoff is a wait, not host work: inside `run_stage`'s host
    /// section on a sleeping clock, the retry still starts after it.
    #[test]
    fn a_retry_inside_a_stage_follows_its_backoff() {
        let zoo = ModelZoo::standard();
        let injector = FaultInjector::new(FaultPlan::every_nth(1, 1).heal_after(1));
        let calls = Arc::new(std::sync::Mutex::new(Vec::new()));
        zoo.register_detector(Arc::new(Stamped {
            inner: injector.wrap_detector(zoo.detector("yolox").unwrap()),
            calls: Arc::clone(&calls),
        }));
        let cars = Query::builder("Cars")
            .vobj("car", library::vehicle_schema())
            .build()
            .unwrap();
        let plan = build_plan(&[cars], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let mut ops = instantiate_stage_ops(&plan, &zoo, 1).unwrap();
        let policy = RetryPolicy {
            max_retries: 1,
            backoff_base_ms: 5.0,
            stage_timeout_ms: None,
        };
        ops.dispatch = Arc::new(RetryDispatch::new(Arc::new(DirectDispatch), policy));
        let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 1.0));
        let clock = Clock::with_mode(ClockMode::Latency);
        let config = ExecConfig::default();
        let env = ExecEnv {
            plan: &plan,
            source: &video,
            zoo: &zoo,
            clock: &clock,
            config: &config,
        };
        let cx = StageCtx::new(env, &ops);
        let mut slots = Vec::new();
        decode_batch(&cx, 0..2, &mut slots);
        let chain = &mut ops.chains[StageKind::Detect.index()][0];
        run_stage(
            StageKind::Detect,
            chain,
            &mut Held::default(),
            0,
            &mut slots,
            &cx,
        )
        .unwrap();

        assert_eq!(injector.injected_faults(), 1);
        let calls = calls.lock().unwrap();
        assert_eq!(calls.len(), 2, "one failed call, one retry");
        let gap = calls[1] - calls[0];
        assert!(
            gap >= Duration::from_millis(5),
            "retried {gap:?} after the failure"
        );
    }
}
