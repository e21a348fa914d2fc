//! The pipelined scheduler ([`ExecMode::Pipelined`]).
//!
//! Real video-analytics engines overlap decode, detection, and downstream
//! relational work instead of interpreting one frame at a time. This
//! scheduler cuts the stage table into **lanes**, maximal runs of adjacent
//! stages of one kind, each on its own scoped thread(s) for the duration
//! of a segment, connected by bounded channels. A stage with an empty
//! chain holds no state, so it rides in whichever lane it falls in
//! (`run_stage` still runs for it: span and counts are unchanged).
//!
//! - A **fan-out lane** (detect, enrich; decode leads the first lane) runs
//!   on `workers` threads sharing one receiver: its operators are
//!   deterministic per frame, so batches process in any order.
//! - An **ordered lane** (frame filters, prep, tail) runs on one thread
//!   behind a `Reorder`, so its stateful operators — and the object tables
//!   prep owns — see batches in frame order and results stay
//!   byte-identical to [`ExecMode::Sequential`].
//! - The **last lane** is ordered and runs on the calling thread, feeding
//!   the sink; if the last busy stage fans out, a stageless lane delivers.
//!
//! The serving mix (no frame filter) runs `[decode+detect ×W] → [prep] →
//! [enrich ×W] → [tail]`: `2·workers + 1` threads, `3·workers + 2` with
//! every stage busy.
//!
//! Slots recycle through a return channel, so the steady state allocates no
//! new frame workspaces. Every hand-off is a blocking send or receive and
//! no thread is ever told to stop. **Drain rule:** decode exits when it
//! has no batch left to claim and drops its senders; each lane exits when
//! its input disconnects and drops its own, so the segment winds down
//! front to back. **First-failed rule:** an error or contained panic in
//! batch *b*, anywhere, records *b* when no lower batch has failed.
//! Decode stops claiming at the first failed batch, every stage runs its
//! chain only on batches before it but forwards every batch, and the
//! ordered last lane delivers only batches before it — exactly the frames
//! the sequential scheduler delivers before the same error.
//!
//! No operator holds cross-frame state: the stream state lives in the
//! caller-owned [`StageOps`], and each ordered lane borrows the part its
//! stages own for the segment (the frame filters' reference frame, prep's
//! object tables). So a long-lived stream can alternate pipelined segments
//! with plan recompiles (query attach/detach) without losing tracker or
//! filter state.
//!
//! [`ExecMode::Pipelined`]: crate::backend::exec::ExecMode::Pipelined
//! [`ExecMode::Sequential`]: crate::backend::exec::ExecMode::Sequential

use crate::backend::exec::{ExecMetrics, ResultSink};
use crate::backend::ops::{FrameSlot, Operator};
use crate::backend::stage::{
    decode_batch, deliver, run_stage, Chain, Held, StageCtx, StageKind, StageOps,
};
use crate::error::{panic_message, Result, VqpyError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel};

/// A batch of slots tagged with its sequence number.
type Batch = (u64, Vec<FrameSlot>);

/// A segment's failure record, shared by all of its threads: the lowest
/// batch that failed, in any stage, and that batch's error.
struct Failure {
    /// `u64::MAX` while the segment is clean; only ever decreases.
    first_failed: AtomicU64,
    error: Mutex<Option<VqpyError>>,
}

impl Failure {
    fn new() -> Self {
        Self {
            first_failed: AtomicU64::new(u64::MAX),
            error: Mutex::new(None),
        }
    }

    /// Whether batch `seq` precedes every failed batch. A batch reaches a
    /// lane through a channel, which orders any upstream record of its
    /// failure before this load.
    fn runs(&self, seq: u64) -> bool {
        seq < self.first_failed.load(Ordering::Relaxed)
    }

    /// Runs `stage`'s work `f` on batch `seq` if the batch still runs, and
    /// records its error — a panic as [`VqpyError::StagePanic`] — unless a
    /// lower batch already failed. Panics must not unwind: a dead thread
    /// would stop draining its input while the receiver lives on, and its
    /// upstream would block forever on the full channel.
    fn attempt(&self, seq: u64, stage: &'static str, f: impl FnOnce() -> Result<()>) {
        if !self.runs(seq) {
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
            Err(VqpyError::StagePanic {
                stage,
                message: panic_message(&*p),
            })
        });
        if let Err(e) = result {
            let mut error = self.error.lock();
            if self.runs(seq) {
                self.first_failed.store(seq, Ordering::Relaxed);
                *error = Some(e);
            }
        }
    }
}

/// Reorders sequence-tagged batches back into sequence order.
#[derive(Default)]
struct Reorder {
    pending: BTreeMap<u64, Vec<FrameSlot>>,
    next: u64,
}

impl Reorder {
    fn push(&mut self, batch: Batch) {
        self.pending.insert(batch.0, batch.1);
    }

    fn pop_ready(&mut self) -> Option<Batch> {
        let slots = self.pending.remove(&self.next)?;
        self.next += 1;
        Some((self.next - 1, slots))
    }
}

/// A run of adjacent stages (positions in [`StageKind::ALL`]; the first lane
/// decodes first) on one thread in frame order, or on `workers` in any.
struct Lane {
    stages: Range<usize>,
    ordered: bool,
}

/// Cuts the stage table into lanes: a busy stage opens a lane when its
/// kind differs from the current lane's; an empty one joins the current.
fn lanes(chains: &[Vec<Chain>; StageKind::ALL.len()]) -> Vec<Lane> {
    // Decode is unordered, so the first lane fans out.
    let mut lanes = vec![Lane {
        stages: 0..0,
        ordered: false,
    }];
    for (k, kind) in StageKind::ALL.into_iter().enumerate() {
        let lane = lanes.last_mut().expect("the decode lane");
        if kind.ordered() != lane.ordered && chains[k].iter().any(|c| !c.is_empty()) {
            lanes.push(Lane {
                stages: k..k + 1,
                ordered: kind.ordered(),
            });
        } else {
            lane.stages.end = k + 1;
        }
    }
    if lanes.last().is_some_and(|lane| !lane.ordered) {
        let end = StageKind::ALL.len();
        lanes.push(Lane {
            stages: end..end,
            ordered: true,
        });
    }
    lanes
}

/// One lane thread's stages, each with the chain it runs and its part of
/// the stream state.
type LaneChains<'a> = Vec<(StageKind, &'a mut [Box<dyn Operator>], Held<'a>)>;

/// One thread of a lane: runs every stage of the lane over each batch from
/// `next` (reordered if `ordered`) before the first failure, then `emit`s it.
fn lane_worker(
    mut stages: LaneChains<'_>,
    ordered: bool,
    mut next: impl FnMut() -> Option<Batch>,
    mut emit: impl FnMut(Batch),
    cx: &StageCtx<'_>,
    failure: &Failure,
) {
    let mut reorder = ordered.then(Reorder::default);
    while let Some(batch) = next() {
        let mut ready = match &mut reorder {
            Some(r) => {
                r.push(batch);
                r.pop_ready()
            }
            None => Some(batch),
        };
        while let Some((seq, mut slots)) = ready {
            for (kind, chain, held) in &mut stages {
                failure.attempt(seq, kind.name(), || {
                    run_stage(*kind, chain, held, seq, &mut slots, cx)
                });
            }
            emit((seq, slots));
            ready = reorder.as_mut().and_then(Reorder::pop_ready);
        }
    }
}

/// Runs one contiguous frame segment through the staged pipeline. Called by
/// [`crate::backend::exec::run_segment`] for [`Pipelined`] mode; operators,
/// the stream state and metrics persist in the caller across calls.
///
/// Lanes are derived once per segment; each but the last spawns `W`
/// threads (the number of detect chains) if it fans out, one if ordered.
/// Threads exit only when their input runs dry, failure or not (see the
/// module docs): a failed segment returns the error of its lowest failing
/// batch, having delivered every batch before it and none after — what
/// [`Sequential`] delivers.
///
/// [`Pipelined`]: crate::backend::exec::ExecMode::Pipelined
/// [`Sequential`]: crate::backend::exec::ExecMode::Sequential
pub(crate) fn run_pipelined(
    cx: &StageCtx<'_>,
    range: Range<u64>,
    ops: &mut StageOps,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    let workers = ops.chains[StageKind::Detect.index()].len();
    let batch = cx.env.config.batch_size.max(1) as u64;
    let num_batches = (range.end - range.start).div_ceil(batch);
    let lanes = lanes(&ops.chains);

    // Each stage's part of the state goes to the one thread of its
    // (ordered) lane; fan-out stages hold none.
    let mut stages = ops.chains.iter_mut().zip(ops.state.split());
    let threads = lanes.iter().map(|lane| {
        let width = if lane.ordered { 1 } else { workers };
        let mut lane_threads: Vec<LaneChains<'_>> = (0..width).map(|_| Vec::new()).collect();
        for (k, (chains, mut held)) in lane.stages.clone().zip(stages.by_ref()) {
            let (kind, mut chains) = (StageKind::ALL[k], chains.iter_mut());
            for stages in &mut lane_threads {
                let chain = chains.next().map(Vec::as_mut_slice).unwrap_or_default();
                stages.push((kind, chain, std::mem::take(&mut held)));
            }
        }
        lane_threads
    });

    // Channel `i` feeds lane `i + 1`. Every receiver outlives the scope, so
    // no send below can fail.
    let depth = workers * 2 + 2;
    let (txs, rxs): (Vec<_>, Vec<_>) = (1..lanes.len())
        .map(|_| sync_channel::<Batch>(depth))
        .map(|(tx, rx)| (tx, Mutex::new(rx)))
        .unzip();
    let (recycle_tx, recycle_rx) = channel::<Vec<FrameSlot>>();
    let recycle_rx = Mutex::new(recycle_rx);
    let failure = Failure::new();
    let next_batch = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let (failure, next_batch, recycle_rx, range) = (&failure, &next_batch, &recycle_rx, &range);
        // The first lane's input: claim the next batch and decode it.
        let decode = move || {
            let b = next_batch.fetch_add(1, Ordering::Relaxed);
            if b >= num_batches || !failure.runs(b) {
                return None;
            }
            let lo = range.start + b * batch;
            let mut slots = recycle_rx.lock().try_recv().unwrap_or_default();
            failure.attempt(b, StageKind::DECODE, || {
                decode_batch(cx, lo..(lo + batch).min(range.end), &mut slots);
                Ok(())
            });
            Some((b, slots))
        };
        let mut txs = txs.into_iter();
        let inputs = std::iter::once(None).chain(rxs.iter().map(Some));
        for ((lane, lane_threads), rx) in lanes.iter().zip(threads).zip(inputs) {
            // The guard drops on return: fan-out threads share the receiver,
            // not the work.
            let next = move || match rx {
                Some(rx) => rx.lock().recv().ok(),
                None => decode(),
            };
            let Some(tx) = txs.next() else {
                // The last lane runs here, feeding the sink. It is ordered,
                // so a batch it delivers cannot be overtaken by an earlier
                // failure: every lower batch has passed every stage.
                let emit = |(seq, slots): Batch| {
                    failure.attempt(seq, StageKind::Tail.name(), || {
                        deliver(cx.env.plan, &slots, metrics, sink)
                    });
                    let _ = recycle_tx.send(slots);
                };
                let stages = lane_threads.into_iter().next().expect("one thread");
                lane_worker(stages, true, next, emit, cx, failure);
                break;
            };
            for stages in lane_threads {
                let tx = tx.clone();
                let emit = move |batch| {
                    let _ = tx.send(batch);
                };
                let ordered = lane.ordered;
                scope.spawn(move || lane_worker(stages, ordered, next, emit, cx, failure));
            }
        }
    });

    match failure.error.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::exec::{execute_plan, run_segment, ExecConfig, ExecMode};
    use crate::backend::ops::ExecCtx;
    use crate::backend::plan::{build_plan, OpSpec, PlanDag, PlanOptions};
    use crate::backend::stage::{instantiate_stage_ops, ExecEnv};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_models::ModelZoo;
    use vqpy_video::frame::Frame;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{DecodeFault, SyntheticVideo, VideoSource};

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap()
    }

    /// The serving mix's shape: no frame filter; detect, prep (score
    /// filter, tracker), enrich (the non-memoised colour) and tail busy.
    fn serving_shaped_plan(zoo: &ModelZoo, diff_filter: Option<f32>) -> PlanDag {
        let q = Query::builder("RedCar")
            .vobj("car", library::vehicle_schema())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap();
        let opts = PlanOptions {
            diff_filter,
            ..PlanOptions::vqpy_default()
        };
        build_plan(&[q], zoo, &opts).unwrap()
    }

    /// A frame-difference filter, then tracked cars: enrich is empty.
    fn diff_filter_plan(zoo: &ModelZoo) -> PlanDag {
        let cars = Query::builder("TrackedCars")
            .vobj("car", library::vehicle_schema())
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap();
        let opts = PlanOptions {
            diff_filter: Some(1.0),
            ..PlanOptions::vqpy_default()
        };
        build_plan(&[cars], zoo, &opts).unwrap()
    }

    /// Detection and nothing after it: no tracker, no enrich, and the join
    /// dropped, so the tail is empty too.
    fn detect_only_plan(zoo: &ModelZoo) -> PlanDag {
        let cars = Query::builder("Cars")
            .vobj("car", library::vehicle_schema())
            .build()
            .unwrap();
        let mut plan = build_plan(&[cars], zoo, &PlanOptions::vqpy_default()).unwrap();
        plan.ops.retain(|op| !matches!(op, OpSpec::Join { .. }));
        plan
    }

    /// A query over no objects: a join, behind the frame filter if one is
    /// given, and nothing else.
    fn detectorless_plan(zoo: &ModelZoo, diff_filter: Option<f32>) -> PlanDag {
        let frames = Query::builder("Frames").build().unwrap();
        let opts = PlanOptions {
            diff_filter,
            ..PlanOptions::vqpy_default()
        };
        build_plan(&[frames], zoo, &opts).unwrap()
    }

    /// Lanes as `stage+stage`, decode included in the first, `×W` on a
    /// fan-out lane and `deliver` for a lane with no stages.
    fn describe(lanes: &[Lane]) -> Vec<String> {
        let describe = |(i, lane): (usize, &Lane)| {
            let decode = (i == 0).then_some(StageKind::DECODE);
            let stages = StageKind::ALL[lane.stages.clone()].iter();
            let names: Vec<&str> = decode.into_iter().chain(stages.map(|k| k.name())).collect();
            let names = if names.is_empty() {
                "deliver".to_owned()
            } else {
                names.join("+")
            };
            if lane.ordered {
                names
            } else {
                format!("{names} ×W")
            }
        };
        lanes.iter().enumerate().map(describe).collect()
    }

    #[test]
    fn lanes_follow_which_stages_have_work() {
        let zoo = ModelZoo::standard();
        type Case = (
            PlanDag,
            [bool; 5],
            &'static [&'static str],
            fn(usize) -> usize,
        );
        let cases: [Case; 5] = [
            (
                serving_shaped_plan(&zoo, None),
                [false, true, true, true, true],
                &[
                    "decode+frame_filters+detect ×W",
                    "track",
                    "enrich ×W",
                    "tail",
                ],
                |w| 2 * w + 1,
            ),
            (
                serving_shaped_plan(&zoo, Some(1.0)),
                [true; 5],
                &[
                    "decode ×W",
                    "frame_filters",
                    "detect ×W",
                    "track",
                    "enrich ×W",
                    "tail",
                ],
                |w| 3 * w + 2,
            ),
            (
                diff_filter_plan(&zoo),
                [true, true, true, false, true],
                &[
                    "decode ×W",
                    "frame_filters",
                    "detect ×W",
                    "track+enrich+tail",
                ],
                |w| 2 * w + 1,
            ),
            (
                detect_only_plan(&zoo),
                [false, true, false, false, false],
                &[
                    "decode+frame_filters+detect+track+enrich+tail ×W",
                    "deliver",
                ],
                |w| w,
            ),
            (
                detectorless_plan(&zoo, None),
                [false, false, false, false, true],
                &["decode+frame_filters+detect+track+enrich ×W", "tail"],
                |w| w,
            ),
        ];
        for (plan, busy, want, spawned) in cases {
            let shape = plan.stage_specs().map(|specs| !specs.is_empty());
            assert_eq!(shape, busy, "{}", plan.describe());
            for workers in [1, 2, 4] {
                let ops = instantiate_stage_ops(&plan, &zoo, workers).unwrap();
                let lanes = lanes(&ops.chains);
                assert_eq!(describe(&lanes), want, "{workers} workers");
                // The last lane runs on the caller's thread; every other
                // lane spawns its width.
                let (last, spawning) = lanes.split_last().unwrap();
                assert!(last.ordered);
                let width = |lane: &Lane| if lane.ordered { 1 } else { workers };
                let threads: usize = spawning.iter().map(width).sum();
                assert_eq!(threads, spawned(workers), "{want:?}, {workers} workers");
            }
        }
    }

    /// With no detector after it, the diff filter still runs in the frame
    /// filters, the stage that holds its reference frame: static frames
    /// drop, the same ones in either mode, and the query over no objects
    /// hits every frame the filter keeps.
    #[test]
    fn a_detectorless_diff_filter_drops_static_frames() {
        let zoo = ModelZoo::standard();
        let plan = detectorless_plan(&zoo, Some(1.0));
        let shape = plan.stage_specs().map(|specs| !specs.is_empty());
        assert_eq!(shape, [true, false, false, false, true]);
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 404, 5.0));
        let run = |exec_mode| {
            let config = ExecConfig {
                exec_mode,
                ..ExecConfig::default()
            };
            let clock = vqpy_models::Clock::new();
            execute_plan(&plan, &v, &zoo, &clock, &config)
                .unwrap()
                .remove(0)
        };
        let seq = run(ExecMode::Sequential);
        let pipe = run(ExecMode::Pipelined { workers: 3 });
        let m = &seq.metrics;
        assert!(
            0 < m.frames_processed && m.frames_processed < m.frames_total,
            "{} of {} frames kept",
            m.frames_processed,
            m.frames_total
        );
        assert_eq!(seq.hit_frames(), pipe.hit_frames());
        assert_eq!(m.frames_processed, pipe.metrics.frames_processed);
        // Only kept frames can hit, so as many hits as kept frames means
        // the hits are the kept frames.
        for run in [&seq, &pipe] {
            assert_eq!(run.hit_frames().len() as u64, run.metrics.frames_processed);
        }
    }

    #[test]
    fn pipelined_matches_sequential_results_and_costs() {
        let zoo = ModelZoo::standard();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 404, 15.0));
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();

        let c_seq = vqpy_models::Clock::new();
        let seq = execute_plan(&plan, &v, &zoo, &c_seq, &ExecConfig::default()).unwrap();

        let c_pipe = vqpy_models::Clock::new();
        let pipe = execute_plan(
            &plan,
            &v,
            &zoo,
            &c_pipe,
            &ExecConfig {
                exec_mode: ExecMode::Pipelined { workers: 3 },
                ..ExecConfig::default()
            },
        )
        .unwrap();

        assert_eq!(seq[0].hit_frames(), pipe[0].hit_frames());
        assert_eq!(seq[0].metrics.frames_total, pipe[0].metrics.frames_total);
        assert_eq!(
            seq[0].metrics.frames_processed,
            pipe[0].metrics.frames_processed
        );
        assert_eq!(seq[0].metrics.reuse, pipe[0].metrics.reuse);
        // Virtual cost is order-independent, so both modes charge the same.
        assert!(
            (c_seq.virtual_ms() - c_pipe.virtual_ms()).abs() < 1e-6,
            "seq {} vs pipe {}",
            c_seq.virtual_ms(),
            c_pipe.virtual_ms()
        );
    }

    /// Where a sabotaged segment fails.
    #[derive(Clone, Copy, Debug)]
    enum Site {
        Decode,
        Stage(StageKind),
        Sink,
    }

    /// Fails — or panics — at `site` when handed frame `at`, and nowhere
    /// else.
    #[derive(Clone, Copy, Debug)]
    struct Sabotage {
        site: Site,
        at: u64,
        panics: bool,
    }

    impl Sabotage {
        fn strike(&self, frame: u64) -> Result<()> {
            if frame != self.at {
                return Ok(());
            }
            if self.panics {
                panic!("injected panic at frame {frame}");
            }
            Err(VqpyError::InvalidQuery(format!(
                "injected failure at frame {frame}"
            )))
        }

        /// The label the pipelined scheduler gives a panic here.
        fn stage(&self) -> &'static str {
            match self.site {
                Site::Decode => StageKind::DECODE,
                Site::Stage(kind) => kind.name(),
                Site::Sink => StageKind::Tail.name(),
            }
        }
    }

    /// An operator that strikes on its sabotage's frame, dead or alive.
    struct Saboteur(Sabotage);

    impl Operator for Saboteur {
        fn process(&mut self, slot: &mut FrameSlot, _: &mut ExecCtx<'_>) -> Result<()> {
            self.0.strike(slot.frame.index)
        }

        fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
            slots
                .iter_mut()
                .try_for_each(|slot| self.process(slot, ctx))
        }
    }

    /// A source whose decode strikes: a panic, or an undecodable frame —
    /// which both schedulers skip with a counter rather than fail on.
    struct SabotagedVideo<'a>(&'a SyntheticVideo, Sabotage);

    impl VideoSource for SabotagedVideo<'_> {
        fn video_id(&self) -> u64 {
            self.0.video_id()
        }
        fn fps(&self) -> u32 {
            self.0.fps()
        }
        fn resolution(&self) -> (u32, u32) {
            self.0.resolution()
        }
        fn frame_count(&self) -> u64 {
            self.0.frame_count()
        }
        fn frame(&self, index: u64) -> Frame {
            self.0.frame(index)
        }
        fn try_frame(&self, index: u64) -> std::result::Result<Frame, DecodeFault> {
            if matches!(self.1.site, Site::Decode) && self.1.strike(index).is_err() {
                return Err(DecodeFault {
                    video_id: self.video_id(),
                    frame: index,
                });
            }
            Ok(self.0.frame(index))
        }
    }

    /// Records the frames delivered to it; strikes first when sabotaged.
    struct Recorder {
        delivered: Vec<u64>,
        sabotage: Option<Sabotage>,
    }

    impl ResultSink for Recorder {
        fn on_frame(&mut self, _: &PlanDag, slot: &FrameSlot) -> Result<()> {
            if let Some(s) = &self.sabotage {
                s.strike(slot.frame.index)?;
            }
            self.delivered.push(slot.frame.index);
            Ok(())
        }
    }

    /// How a segment ended, comparable across schedulers: a sequential
    /// panic unwinds out of `run_segment`, a pipelined one comes back as
    /// `StagePanic` under the stage's label.
    #[derive(Debug, PartialEq)]
    enum Ended {
        Clean,
        Failed(String),
        Panicked(String),
    }

    /// Runs the whole of `env.source` through `ops` under `sabotage`,
    /// returning how it ended and which frames reached the sink.
    fn segment(
        env: ExecEnv<'_>,
        ops: &mut StageOps,
        sabotage: Option<Sabotage>,
    ) -> (Ended, Vec<u64>) {
        let mut recorder = Recorder {
            delivered: Vec::new(),
            sabotage: sabotage.filter(|s| matches!(s.site, Site::Sink)),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_segment(
                env,
                0..env.source.frame_count(),
                ops,
                &mut ExecMetrics::default(),
                &mut recorder,
            )
        }));
        let ended = match outcome {
            Ok(Ok(())) => Ended::Clean,
            Ok(Err(VqpyError::StagePanic { stage, message })) => {
                assert_eq!(Some(stage), sabotage.map(|s| s.stage()));
                Ended::Panicked(message)
            }
            Ok(Err(e)) => Ended::Failed(e.to_string()),
            Err(p) => Ended::Panicked(panic_message(&*p)),
        };
        (ended, recorder.delivered)
    }

    /// Runs `f`, aborting the process if it is still running after a
    /// minute: with no timer left in the scheduler, a deadlocked wind-down
    /// must fail the suite rather than hang it.
    fn watchdog<R>(case: &str, f: impl FnOnce() -> R) -> R {
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let case = case.to_owned();
        let dog = std::thread::spawn(move || {
            let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
            if waited == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                eprintln!("watchdog: {case} still running after 60 s, aborting");
                std::process::abort();
            }
        });
        let result = f();
        drop(done);
        dog.join().unwrap();
        result
    }

    /// How far the detect chains have got, shared by one segment's probes.
    #[derive(Default)]
    struct Progress {
        detected: std::sync::Mutex<Option<u64>>,
        advanced: std::sync::Condvar,
    }

    /// In a detect chain (`hold_until: None`), records every frame it
    /// sees. In the tail, holds frame 0 until detect has seen frame
    /// `hold_until`, and errors after 10 s instead.
    struct Probe {
        progress: Arc<Progress>,
        hold_until: Option<u64>,
    }

    impl Operator for Probe {
        fn process(&mut self, slot: &mut FrameSlot, _: &mut ExecCtx<'_>) -> Result<()> {
            let frame = slot.frame.index;
            let mut detected = self.progress.detected.lock().unwrap();
            match self.hold_until {
                None => {
                    *detected = (*detected).max(Some(frame));
                    self.progress.advanced.notify_all();
                }
                Some(until) if frame == 0 => {
                    let (detected, hold) = (self.progress.advanced)
                        .wait_timeout_while(detected, std::time::Duration::from_secs(10), |d| {
                            *d < Some(until)
                        })
                        .unwrap();
                    if hold.timed_out() {
                        return Err(VqpyError::InvalidQuery(format!(
                            "tail held frame 0 for 10 s; detect reached {detected:?}"
                        )));
                    }
                }
                Some(_) => {}
            }
            Ok(())
        }

        fn process_batch(&mut self, slots: &mut [FrameSlot], ctx: &mut ExecCtx<'_>) -> Result<()> {
            slots
                .iter_mut()
                .try_for_each(|slot| self.process(slot, ctx))
        }
    }

    /// Stages overlap: the tail holds batch 0 until a detect chain has
    /// seen batch 1, which only a scheduler running stages side by side
    /// allows. The hold gives up with an error, so a scheduler that does
    /// not overlap fails this test instead of hanging it.
    #[test]
    fn pipelined_stages_overlap() {
        let zoo = ModelZoo::standard();
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        // 24 batches of 2 frames: more than the deepest channel holds.
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 3.2));
        let clock = vqpy_models::Clock::new();
        for workers in [1, 2, 4] {
            watchdog(&format!("overlap with {workers} workers"), || {
                let exec_mode = ExecMode::Pipelined { workers };
                let config = ExecConfig {
                    exec_mode,
                    batch_size: 2,
                    ..ExecConfig::default()
                };
                let mut ops = instantiate_stage_ops(&plan, &zoo, exec_mode.workers()).unwrap();
                let progress = Arc::new(Progress::default());
                for chain in &mut ops.chains[StageKind::Detect.index()] {
                    chain.push(Box::new(Probe {
                        progress: Arc::clone(&progress),
                        hold_until: None,
                    }));
                }
                ops.chains[StageKind::Tail.index()][0].push(Box::new(Probe {
                    progress,
                    hold_until: Some(2),
                }));
                let env = ExecEnv {
                    plan: &plan,
                    source: &v,
                    zoo: &zoo,
                    clock: &clock,
                    config: &config,
                };
                let ended = segment(env, &mut ops, None);
                let all = (0..v.frame_count()).collect();
                assert_eq!(ended, (Ended::Clean, all), "{workers} workers");
            });
        }
    }

    #[test]
    fn pipelined_surfaces_errors() {
        let zoo = ModelZoo::standard();
        let red_car = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        // 24 batches of 2 frames: more than the deepest channel holds
        // (2·4 + 2 at four workers), so sends really block.
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 3.2));
        let n = v.frame_count();
        assert_eq!(n, 48);
        let clock = vqpy_models::Clock::new();
        let config = |exec_mode| ExecConfig {
            exec_mode,
            batch_size: 2,
            ..ExecConfig::default()
        };
        // A plan referencing a model that exists at plan time but not at
        // execution time (different zoo) must error cleanly, not hang.
        let pipelined = config(ExecMode::Pipelined { workers: 2 });
        assert!(execute_plan(&red_car, &v, &ModelZoo::new(), &clock, &pipelined).is_err());

        // Decode, every stage and the sink, failing or panicking on the
        // first, a middle or the last frame: the pipelined segment returns
        // the sequential scheduler's error (a panic as `StagePanic` under
        // the site's label) after delivering exactly the frames it
        // delivers, every thread winds down, and the same operators then
        // run a clean segment to the end. Three plans, so that empty
        // stages ride in other lanes and, in the last, a delivery-only
        // lane closes the segment.
        let plans = [red_car, diff_filter_plan(&zoo), detect_only_plan(&zoo)];
        let sites = [Site::Decode, Site::Sink]
            .into_iter()
            .chain(StageKind::ALL.map(Site::Stage));
        for (plan, site) in plans
            .iter()
            .flat_map(|p| sites.clone().map(move |s| (p, s)))
        {
            for (panics, at) in [false, true]
                .into_iter()
                .flat_map(|p| [(p, 0), (p, 23), (p, 47)])
            {
                let sabotage = Sabotage { site, at, panics };
                let source = SabotagedVideo(&v, sabotage);
                let sabotaged = |exec_mode: ExecMode| {
                    let mut ops = instantiate_stage_ops(plan, &zoo, exec_mode.workers()).unwrap();
                    if let Site::Stage(kind) = site {
                        for chain in &mut ops.chains[kind.index()] {
                            chain.push(Box::new(Saboteur(sabotage)));
                        }
                    }
                    let config = config(exec_mode);
                    let env = ExecEnv {
                        plan,
                        source: &source,
                        zoo: &zoo,
                        clock: &clock,
                        config: &config,
                    };
                    (segment(env, &mut ops, Some(sabotage)), ops)
                };
                let label = plan.describe().replace('\n', ", ");
                let (expected, _) = sabotaged(ExecMode::Sequential);
                let skipped = matches!(site, Site::Decode) && !panics;
                assert_eq!(
                    expected.0 == Ended::Clean,
                    skipped,
                    "{sabotage:?}: {expected:?}"
                );
                assert!(
                    expected.1.iter().all(|&f| f < at || skipped),
                    "{sabotage:?}"
                );

                for workers in [1, 2, 4] {
                    let case = format!("{sabotage:?} with {workers} workers on [{label}]");
                    watchdog(&case, || {
                        let exec_mode = ExecMode::Pipelined { workers };
                        let (outcome, mut ops) = sabotaged(exec_mode);
                        assert_eq!(outcome, expected, "{case}");
                        if let Site::Stage(kind) = site {
                            for chain in &mut ops.chains[kind.index()] {
                                chain.pop();
                            }
                        }
                        let config = config(exec_mode);
                        let env = ExecEnv {
                            plan,
                            source: &v,
                            zoo: &zoo,
                            clock: &clock,
                            config: &config,
                        };
                        let clean = segment(env, &mut ops, None);
                        assert_eq!(clean, (Ended::Clean, (0..n).collect()), "{case}");
                    });
                }
            }
        }
    }
}
