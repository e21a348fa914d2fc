//! The pipelined scheduler ([`ExecMode::Pipelined`]).
//!
//! Real video-analytics engines overlap decode, detection, and downstream
//! relational work instead of interpreting one frame at a time. This
//! scheduler gives decode and every stage of [`StageKind::ALL`] its own
//! scoped thread(s) for the duration of a segment, connected by bounded
//! channels:
//!
//! - **Decode** fans out across `workers` threads: each claims the next
//!   batch index, renders its frames, and charges decode cost. Decoding is
//!   pure, so order does not matter here.
//! - A **fan-out stage** (detect, enrich) runs one `stage_worker` per
//!   operator chain, all pulling from one shared receiver: its operators
//!   are deterministic per frame, so batches process in any order. While
//!   enrich chews on batch *b*, prep is already sequencing batch *b+1*.
//! - An **ordered stage** (frame filters, prep, tail) runs one
//!   `stage_worker` with a `Reorder` in front, so its stateful operators
//!   — and the reuse cache prep owns — see batches in frame order and
//!   results stay byte-identical to [`ExecMode::Sequential`].
//! - The **last stage** runs on the calling thread and feeds the sink.
//!
//! Slots recycle through a return channel, so the steady state allocates no
//! new frame workspaces. Cancellation is cooperative: every blocking send /
//! receive polls a shared flag, so an error in any stage (or plain
//! completion) winds down all threads without deadlock.
//!
//! All cross-frame operator state lives in the caller-owned chains, so a
//! long-lived stream can alternate pipelined segments with plan recompiles
//! (query attach/detach) without losing tracker or filter state.
//!
//! [`ExecMode::Pipelined`]: crate::backend::exec::ExecMode::Pipelined
//! [`ExecMode::Sequential`]: crate::backend::exec::ExecMode::Sequential

use crate::backend::exec::{ExecMetrics, ResultSink};
use crate::backend::ops::{FrameSlot, Operator};
use crate::backend::reuse::ReuseCache;
use crate::backend::stage::{decode_batch, deliver, run_stage, StageCtx, StageKind, StageOps};
use crate::error::{panic_message, Result, VqpyError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError,
};
use std::time::Duration;

/// A batch of slots tagged with its sequence number.
type Batch = (u64, Vec<FrameSlot>);

const POLL: Duration = Duration::from_millis(1);
const RECV_POLL: Duration = Duration::from_millis(20);

/// A segment's wind-down state, shared by all of its threads.
#[derive(Default)]
struct Shutdown {
    cancel: AtomicBool,
    error: Mutex<Option<VqpyError>>,
}

impl Shutdown {
    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records the segment's first error and cancels every thread.
    fn fail(&self, e: VqpyError) {
        self.error.lock().get_or_insert(e);
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// Sends cooperatively: polls so a cancelled pipeline never deadlocks on a
/// full bounded channel. Returns `false` when cancelled or disconnected.
fn send_coop<T>(tx: &SyncSender<T>, mut msg: T, shutdown: &Shutdown) -> bool {
    loop {
        if shutdown.cancelled() {
            return false;
        }
        match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Full(m)) => {
                msg = m;
                std::thread::sleep(POLL);
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

/// Receives cooperatively from a shared receiver. Returns `None` when
/// cancelled or when all senders disconnected.
fn recv_coop<T>(rx: &Mutex<Receiver<T>>, shutdown: &Shutdown) -> Option<T> {
    loop {
        if shutdown.cancelled() {
            return None;
        }
        match rx.lock().recv_timeout(RECV_POLL) {
            Ok(v) => return Some(v),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return None,
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

/// Runs a stage body, converting a panic into a typed
/// [`VqpyError::StagePanic`]. Stage threads must not unwind through the
/// scope: a panicking scoped thread would re-raise at scope exit *after*
/// the other stages wind down on channel disconnects — but a thread parked
/// on a channel whose peer is still alive would never observe the
/// disconnect, so containment-plus-[`Shutdown::fail`] (which flips
/// `cancel`) is the only ordering that is deadlock-free for every stage.
fn contain<R>(stage: &'static str, f: impl FnOnce() -> Result<R>) -> Result<R> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(VqpyError::StagePanic {
            stage,
            message: panic_message(&*p),
        })
    })
}

/// One worker of stage `kind`: pulls batches from `rx` — through a
/// [`Reorder`] when the stage is ordered — runs `chain` over each, and
/// hands the result to `emit`, until the input ends, `emit` declines
/// (`Ok(false)`) or the segment is cancelled.
fn stage_worker(
    kind: StageKind,
    chain: &mut [Box<dyn Operator>],
    mut reuse: Option<&mut ReuseCache>,
    rx: &Mutex<Receiver<Batch>>,
    mut emit: impl FnMut(Batch) -> Result<bool>,
    cx: &StageCtx<'_>,
    shutdown: &Shutdown,
) {
    let mut reorder = kind.ordered().then(Reorder::default);
    while let Some(batch) = recv_coop(rx, shutdown) {
        let mut ready = match &mut reorder {
            Some(r) => {
                r.push(batch);
                r.pop_ready()
            }
            None => Some(batch),
        };
        while let Some((seq, mut slots)) = ready {
            let emitted = contain(kind.name(), || {
                run_stage(kind, chain, seq, &mut slots, reuse.as_deref_mut(), cx)?;
                emit((seq, slots))
            });
            match emitted {
                Ok(true) => {}
                Ok(false) => return,
                Err(e) => return shutdown.fail(e),
            }
            ready = reorder.as_mut().and_then(Reorder::pop_ready);
        }
    }
}

/// Runs one contiguous frame segment through the staged pipeline. Called by
/// [`crate::backend::exec::run_segment`] for [`Pipelined`] mode; operator
/// state, the reuse cache, and metrics persist in the caller across calls.
///
/// The fan-out width is the number of detect chains (fixed at
/// instantiation): `3·workers + 2` threads are spawned per segment.
///
/// [`Pipelined`]: crate::backend::exec::ExecMode::Pipelined
pub(crate) fn run_pipelined(
    cx: &StageCtx<'_>,
    range: Range<u64>,
    ops: &mut StageOps,
    reuse: &mut ReuseCache,
    metrics: &mut ExecMetrics,
    sink: &mut dyn ResultSink,
) -> Result<()> {
    let workers = ops.chains[StageKind::Detect.index()].len();
    let batch = cx.env.config.batch_size.max(1) as u64;
    let num_batches = (range.end - range.start).div_ceil(batch);

    // Channel `k` feeds `StageKind::ALL[k]`; decode feeds channel 0.
    let depth = workers * 2 + 2;
    let (txs, rxs): (Vec<_>, Vec<_>) = StageKind::ALL
        .map(|_| sync_channel::<Batch>(depth))
        .into_iter()
        .map(|(tx, rx)| (tx, Mutex::new(rx)))
        .unzip();
    let (recycle_tx, recycle_rx) = channel::<Vec<FrameSlot>>();
    let recycle_rx = Mutex::new(recycle_rx);
    let shutdown = Shutdown::default();
    let next_batch = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let (shutdown, next_batch, recycle_rx) = (&shutdown, &next_batch, &recycle_rx);
        let mut txs = txs.into_iter();
        let mut reuse = Some(reuse);

        // ---- decode workers (parallel, unordered) ------------------------
        let decoded_tx = txs.next().expect("one channel per stage");
        for _ in 0..workers {
            let decoded_tx = decoded_tx.clone();
            let range = range.clone();
            scope.spawn(move || loop {
                let b = next_batch.fetch_add(1, Ordering::Relaxed);
                if shutdown.cancelled() || b >= num_batches {
                    break;
                }
                let lo = range.start + b * batch;
                let mut slots = recycle_rx.lock().try_recv().unwrap_or_default();
                let decoded = contain(StageKind::DECODE, || {
                    decode_batch(cx, lo..(lo + batch).min(range.end), &mut slots);
                    Ok(())
                });
                if let Err(e) = decoded {
                    shutdown.fail(e);
                    break;
                }
                if !send_coop(&decoded_tx, (b, slots), shutdown) {
                    break;
                }
            });
        }
        drop(decoded_tx);

        // ---- one worker per chain of every stage -------------------------
        for ((kind, stage_chains), rx) in StageKind::ALL.into_iter().zip(&mut ops.chains).zip(&rxs)
        {
            // The stream's real cache goes to the one stage that owns it.
            let mut reuse = reuse.take_if(|_| kind.owns_reuse());
            let Some(tx) = txs.next() else {
                // The last stage runs here, on the caller's thread, feeding
                // the sink; decode may already have exited, so recycling
                // finished slots is best-effort.
                let emit = |(_, slots): Batch| {
                    deliver(cx.env.plan, &slots, metrics, sink)?;
                    let _ = recycle_tx.send(slots);
                    Ok(true)
                };
                let chain = &mut stage_chains[0];
                stage_worker(kind, chain, reuse, rx, emit, cx, shutdown);
                // Unblock any worker still parked on a full channel.
                shutdown.cancel.store(true, Ordering::Relaxed);
                break;
            };
            for chain in stage_chains {
                let tx = tx.clone();
                let reuse = reuse.take();
                let emit = move |batch| Ok(send_coop(&tx, batch, shutdown));
                scope.spawn(move || stage_worker(kind, chain, reuse, rx, emit, cx, shutdown));
            }
        }
    });

    match shutdown.error.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::exec::{execute_plan, run_segment, Collector, ExecConfig, ExecMode};
    use crate::backend::ops::ExecCtx;
    use crate::backend::plan::{build_plan, PlanOptions};
    use crate::backend::stage::{instantiate_stage_ops, ExecEnv};
    use crate::frontend::library;
    use crate::frontend::predicate::Pred;
    use crate::frontend::query::Query;
    use std::sync::Arc;
    use vqpy_models::ModelZoo;
    use vqpy_video::presets;
    use vqpy_video::scene::Scene;
    use vqpy_video::source::{SyntheticVideo, VideoSource};

    fn red_car_query() -> Arc<Query> {
        Query::builder("RedCar")
            .vobj("car", library::vehicle_schema_intrinsic())
            .frame_constraint(Pred::gt("car", "score", 0.5) & Pred::eq("car", "color", "red"))
            .frame_output(&[("car", "track_id")])
            .build()
            .unwrap()
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

    /// ...and so does the sequential scheduler, bucket for bucket: both
    /// time their stages inside the shared `run_stage`.
    #[test]
    fn pipelined_reports_stage_walltimes() {
        let zoo = ModelZoo::standard();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 5.0));
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        for exec_mode in [ExecMode::Sequential, ExecMode::Pipelined { workers: 2 }] {
            let clock = vqpy_models::Clock::new();
            let config = ExecConfig {
                exec_mode,
                ..ExecConfig::default()
            };
            let results = execute_plan(&plan, &v, &zoo, &clock, &config).unwrap();
            let walls = &results[0].metrics.stage_wall_ms;
            let stages: Vec<&str> = walls.iter().map(|(n, _)| n.as_str()).collect();
            // The literal names are what telemetry consumers read...
            assert_eq!(
                stages,
                [
                    "decode",
                    "frame_filters",
                    "detect",
                    "track",
                    "enrich",
                    "tail",
                    "total"
                ],
                "{exec_mode:?}"
            );
            // ...and they come from the table, in table order.
            assert_eq!(stages[0], StageKind::DECODE);
            assert_eq!(stages[1..6], StageKind::ALL.map(StageKind::name));
            assert!(walls.iter().all(|(_, ms)| *ms >= 0.0));
        }
    }

    /// Fails or panics on the first frame it is handed, dead or alive.
    struct Saboteur {
        panics: bool,
    }

    impl Operator for Saboteur {
        fn name(&self) -> String {
            "saboteur".into()
        }

        fn process(&mut self, _: &mut FrameSlot, _: &mut ExecCtx<'_>) -> Result<()> {
            if self.panics {
                panic!("injected panic");
            }
            Err(VqpyError::InvalidQuery("injected failure".into()))
        }

        fn wants_dead_frames(&self) -> bool {
            true
        }
    }

    #[test]
    fn pipelined_surfaces_errors() {
        let zoo = ModelZoo::standard();
        let plan = build_plan(&[red_car_query()], &zoo, &PlanOptions::vqpy_default()).unwrap();
        let v = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 2.0));
        let clock = vqpy_models::Clock::new();
        let config = ExecConfig {
            exec_mode: ExecMode::Pipelined { workers: 2 },
            ..ExecConfig::default()
        };
        // A plan referencing a model that exists at plan time but not at
        // execution time (different zoo) must error cleanly, not hang.
        assert!(execute_plan(&plan, &v, &ModelZoo::new(), &clock, &config).is_err());

        // A failing and a panicking operator in every stage: the segment
        // returns the error — a panic as `StagePanic` under the stage's
        // table name — and every thread of every other stage winds down.
        let env = ExecEnv {
            plan: &plan,
            source: &v,
            zoo: &zoo,
            clock: &clock,
            config: &config,
        };
        for kind in StageKind::ALL {
            for panics in [false, true] {
                let mut symbols = plan.symbols.clone();
                let mut ops = instantiate_stage_ops(&plan, &zoo, 2, &mut symbols).unwrap();
                for chain in &mut ops.chains[kind.index()] {
                    chain.push(Box::new(Saboteur { panics }));
                }
                let err = run_segment(
                    env,
                    0..v.frame_count(),
                    &mut ops,
                    &mut ReuseCache::new(),
                    &mut ExecMetrics::default(),
                    &mut Collector::new(&plan),
                )
                .unwrap_err();
                match err {
                    VqpyError::StagePanic { stage, message } if panics => {
                        assert_eq!(stage, kind.name());
                        assert!(message.contains("injected panic"), "{message}");
                    }
                    VqpyError::InvalidQuery(_) if !panics => {}
                    other => panic!("{kind:?} panics={panics}: unexpected {other:?}"),
                }
            }
        }
    }
}
