//! The sharded scheduler core: a per-shard [`ShardCore`] that turns
//! pacing math into runnable-set membership, parking paced streams on a
//! min-heap of step deadlines, and a seeded [`DeterministicScheduler`]
//! harness that replays shard scheduling on a virtual clock.
//!
//! The [`StreamSupervisor`](crate::StreamSupervisor) multiplexes M
//! streams onto N shard worker threads; each worker owns one `ShardCore`
//! and drives it with real time. The harness owns N cores and drives them
//! with a virtual microsecond clock plus a seeded interleaving choice, so
//! every scheduling decision — which shard runs, which stream steps, when
//! a timer fires, how much backlog is shed — is a pure function of
//! `(streams, pacing, seed)` and therefore replayable in tests.
//!
//! The pacing math is the supervisor's contract and must not drift
//! (`tests/pacing.rs` holds the core to it in virtual time): with
//! capture rate `fps` and `f` frames per step, step `k`'s frames have
//! all arrived at `t = ((k+1)*f - 1)/fps`,
//! so the number of fully-arrived steps at elapsed time `t` is
//! `floor((t*fps + 1)/f)`. The backlog of due-but-unexecuted steps is
//! bounded by [`INGEST_BOUND`]; overflow is *shed* — counted, then
//! skipped in the schedule without losing frames (sources are pull-based,
//! the stream simply lags).

use crate::server::StreamId;
use crate::supervisor::PaceMode;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Bound on each paced stream's backlog of due-but-unexecuted steps (its
/// ingest queue); overflow is shed and counted. Irrelevant for
/// [`PaceMode::Unpaced`] streams.
pub const INGEST_BOUND: u64 = 4;

/// Scheduling knobs one [`ShardCore`] runs under.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Frames consumed per engine step (`batch_size × batches_per_step`),
    /// the unit the pacing schedule is expressed in.
    pub frames_per_step: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { frames_per_step: 1 }
    }
}

/// Pacing counters for one stream scheduled on a [`ShardCore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaceCounters {
    /// Due-but-unexecuted paced steps as of the last evaluation (always 0
    /// for unpaced streams).
    pub queue_depth: u64,
    /// Paced steps shed because the backlog overflowed the ingest bound
    /// (cumulative).
    pub ticks_shed: u64,
    /// Steps executed so far.
    pub steps: u64,
}

#[derive(Debug)]
struct StreamEntry {
    pace: PaceMode,
    start_us: u64,
    /// Steps consumed from the pace schedule: executed steps plus shed
    /// ticks. The backlog at time `t` is `due_steps(t) - consumed`.
    consumed: u64,
    counters: PaceCounters,
    in_runnable: bool,
}

/// One shard's scheduling state: which streams it owns, which are
/// runnable right now (stepped round-robin), and which are parked until
/// their pace schedule's next step is due.
///
/// The core is clock-agnostic — every method takes `now_us` — so the same
/// type backs both the real shard workers (wall micros) and the
/// [`DeterministicScheduler`] (virtual micros).
#[derive(Debug)]
pub struct ShardCore {
    config: ShardConfig,
    /// Parked streams as `(deadline_us, stream)`, earliest first.
    timers: BinaryHeap<Reverse<(u64, StreamId)>>,
    entries: HashMap<StreamId, StreamEntry>,
    runnable: VecDeque<StreamId>,
    fired: Vec<StreamId>,
}

impl ShardCore {
    /// An empty core under `config`.
    pub fn new(config: ShardConfig) -> Self {
        Self {
            config,
            timers: BinaryHeap::new(),
            entries: HashMap::new(),
            runnable: VecDeque::new(),
            fired: Vec::new(),
        }
    }

    /// Adopts a stream. Unpaced streams become runnable immediately;
    /// paced streams are evaluated against their schedule (which starts
    /// now) and either run or park until their first step is due.
    pub fn register(&mut self, stream: StreamId, pace: PaceMode, now_us: u64) {
        self.entries.insert(
            stream,
            StreamEntry {
                pace,
                start_us: now_us,
                consumed: 0,
                counters: PaceCounters::default(),
                in_runnable: false,
            },
        );
        self.evaluate(stream, now_us);
    }

    /// Drops a stream. Timer and runnable entries are lazily ignored.
    pub fn remove(&mut self, stream: StreamId) {
        self.entries.remove(&stream);
    }

    /// Fires due timers: every parked stream whose deadline is `<= now_us`
    /// is re-evaluated (applying shed accounting) and becomes runnable, in
    /// `(deadline, stream)` order. All due timers pop before any is
    /// evaluated; an evaluation only parks at `now_us + 1` or later.
    pub fn advance(&mut self, now_us: u64) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        while let Some(&Reverse((deadline, stream))) = self.timers.peek() {
            if deadline > now_us {
                break;
            }
            self.timers.pop();
            fired.push(stream);
        }
        for &stream in &fired {
            if let Some(e) = self.entries.get(&stream) {
                if !e.in_runnable {
                    self.evaluate(stream, now_us);
                }
            }
        }
        self.fired = fired;
    }

    /// Evaluates a stream's pace schedule at `now_us`: applies shed
    /// accounting, then makes the stream runnable (backlog ≥ 1) or parks
    /// it until its next step is due.
    fn evaluate(&mut self, stream: StreamId, now_us: u64) {
        let Some(e) = self.entries.get_mut(&stream) else {
            return;
        };
        if let PaceMode::Fps(fps) = e.pace {
            let backlog = Self::paced_backlog(&self.config, e, fps, now_us);
            e.counters.queue_depth = backlog;
            if backlog == 0 {
                // Park until step `consumed`'s frames have arrived:
                // t = ((consumed+1)*f - 1)/fps after the stream's start.
                let f = self.config.frames_per_step.max(1);
                let fps = f64::from(fps.max(1e-3));
                let ready_us =
                    e.start_us + ((((e.consumed + 1) * f - 1) as f64 / fps) * 1e6) as u64;
                self.timers
                    .push(Reverse((ready_us.max(now_us + 1), stream)));
                return;
            }
        }
        if !e.in_runnable {
            e.in_runnable = true;
            self.runnable.push_back(stream);
        }
    }

    /// The pacing math both evaluation points share: the steps of `e`'s
    /// schedule due at `now_us` and not yet consumed, after shedding any
    /// overflow past [`INGEST_BOUND`] (counted, then skipped in the
    /// schedule: no frames are lost, the stream simply lags).
    fn paced_backlog(config: &ShardConfig, e: &mut StreamEntry, fps: f32, now_us: u64) -> u64 {
        let f = config.frames_per_step.max(1);
        let fps = f64::from(fps.max(1e-3));
        let elapsed = now_us.saturating_sub(e.start_us);
        let due = (((elapsed as f64 / 1e6) * fps + 1.0) / f as f64).trunc() as u64;
        let backlog = due.saturating_sub(e.consumed);
        if backlog > INGEST_BOUND {
            let shed = backlog - INGEST_BOUND;
            e.counters.ticks_shed += shed;
            e.consumed += shed;
            return INGEST_BOUND;
        }
        backlog
    }

    /// Pops the next runnable stream, round-robin, re-applying shed
    /// accounting at `now_us` first (time may have passed while the
    /// stream waited behind its shard siblings).
    pub fn pop_runnable(&mut self, now_us: u64) -> Option<StreamId> {
        while let Some(stream) = self.runnable.pop_front() {
            let Some(e) = self.entries.get_mut(&stream) else {
                continue; // removed while queued
            };
            e.in_runnable = false;
            if let PaceMode::Fps(fps) = e.pace {
                // A popped stream is about to run, so it has at least one
                // step queued.
                e.counters.queue_depth = Self::paced_backlog(&self.config, e, fps, now_us).max(1);
            }
            return Some(stream);
        }
        None
    }

    /// Records a completed step for `stream` and reschedules it: unpaced
    /// streams go back on the runnable ring; paced streams re-evaluate
    /// (run again if still behind schedule, park otherwise).
    pub fn completed_step(&mut self, stream: StreamId, now_us: u64) {
        if let Some(e) = self.entries.get_mut(&stream) {
            e.consumed += 1;
            e.counters.steps += 1;
        }
        self.evaluate(stream, now_us);
    }

    /// Whether any stream is runnable right now.
    pub fn has_runnable(&self) -> bool {
        self.runnable.iter().any(|s| self.entries.contains_key(s))
    }

    /// The earliest pending timer deadline, if any stream is parked.
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.peek().map(|&Reverse((deadline, _))| deadline)
    }

    /// Streams currently scheduled on this core.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// A stream's pacing counters.
    pub fn counters(&self, stream: StreamId) -> Option<PaceCounters> {
        self.entries.get(&stream).map(|e| e.counters)
    }
}

/// SplitMix64: a tiny, high-quality seeded generator (no external RNG
/// dependency) driving the harness's interleaving choices.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)` (`bound` clamped to at least 1).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

/// A seeded, virtual-clock scheduler harness: N [`ShardCore`]s, a
/// microsecond virtual clock that jumps to the next timer deadline when
/// nothing is runnable, and a [`SplitMix64`]-seeded choice among shards
/// with runnable streams. Given the same streams, pacing, step cost, and
/// seed, every scheduling decision replays identically — which is what
/// lets the equivalence and property suites pin shard scheduling without
/// real threads or real sleeps.
pub struct DeterministicScheduler {
    shards: Vec<ShardCore>,
    final_counters: HashMap<StreamId, PaceCounters>,
    next_shard: usize,
    now_us: u64,
    rng: SplitMix64,
    step_cost_us: u64,
}

impl DeterministicScheduler {
    /// A harness over `shards` cores (clamped to at least 1) configured
    /// by `config`, with interleaving seeded by `seed`.
    pub fn new(shards: usize, config: ShardConfig, seed: u64) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| ShardCore::new(config)).collect(),
            final_counters: HashMap::new(),
            next_shard: 0,
            now_us: 0,
            rng: SplitMix64::new(seed),
            step_cost_us: 0,
        }
    }

    /// Sets the virtual cost charged to the clock per executed step
    /// (default 0). Nonzero costs make shard occupancy visible to the
    /// pace schedule: a stream's timer lateness is bounded by its shard
    /// siblings' step costs.
    pub fn with_step_cost(mut self, step_cost_us: u64) -> Self {
        self.step_cost_us = step_cost_us;
        self
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Adds a stream (round-robin shard assignment, matching the
    /// supervisor); returns the shard it landed on.
    pub fn add_stream(&mut self, stream: StreamId, pace: PaceMode) -> usize {
        let shard = self.next_shard % self.shards.len();
        self.next_shard += 1;
        self.shards[shard].register(stream, pace, self.now_us);
        shard
    }

    /// A stream's pacing counters (live, or final if it finished).
    pub fn counters(&self, stream: StreamId) -> PaceCounters {
        self.shards
            .iter()
            .find_map(|s| s.counters(stream))
            .or_else(|| self.final_counters.get(&stream).copied())
            .unwrap_or_default()
    }

    /// Runs until every stream finishes (`step` returns `true` for it) or
    /// nothing is runnable and no timer is pending. `step` is the
    /// stream-step closure, called as `step(stream, fire_us)` where
    /// `fire_us` is the virtual time the step was popped (before the step
    /// cost is charged) — in the equivalence suite it calls
    /// `StreamServer::step` and reports `finished`; property tests use
    /// `fire_us` to pin no-early-fire and lateness bounds.
    pub fn run(&mut self, step: impl FnMut(StreamId, u64) -> bool) {
        self.run_until(u64::MAX, step);
    }

    /// Runs like [`DeterministicScheduler::run`] but stops once virtual
    /// time reaches `horizon_us` (the clock is then advanced to exactly
    /// the horizon, firing any timers due by it). Lets oversubscription
    /// tests bound an otherwise endless paced run.
    pub fn run_until(&mut self, horizon_us: u64, mut step: impl FnMut(StreamId, u64) -> bool) {
        loop {
            if self.now_us >= horizon_us {
                break;
            }
            let ready: Vec<usize> = self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.has_runnable())
                .map(|(i, _)| i)
                .collect();
            if ready.is_empty() {
                // Idle: jump virtual time to the earliest pending
                // deadline across shards.
                let Some(next) = self.shards.iter().filter_map(|s| s.next_deadline()).min() else {
                    break;
                };
                self.now_us = next.max(self.now_us).min(horizon_us);
                for s in &mut self.shards {
                    s.advance(self.now_us);
                }
                if self.now_us >= horizon_us {
                    break;
                }
                continue;
            }
            let shard = ready[self.rng.below(ready.len())];
            let Some(stream) = self.shards[shard].pop_runnable(self.now_us) else {
                continue;
            };
            let fire_us = self.now_us;
            self.now_us += self.step_cost_us;
            let finished = step(stream, fire_us);
            if finished {
                if let Some(mut c) = self.shards[shard].counters(stream) {
                    c.steps += 1;
                    self.final_counters.insert(stream, c);
                }
                self.shards[shard].remove(stream);
            } else {
                self.shards[shard].completed_step(stream, self.now_us);
            }
            for s in &mut self.shards {
                s.advance(self.now_us);
            }
        }
        // Settle counters at the horizon so shed accounting is exact for
        // the whole window.
        for s in &mut self.shards {
            s.advance(self.now_us);
            while s.pop_runnable(self.now_us).is_some() {
                // Draining re-applies shed accounting; the popped streams
                // are not stepped past the horizon.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unpaced_streams_round_robin() {
        let mut core = ShardCore::new(ShardConfig::default());
        core.register(1, PaceMode::Unpaced, 0);
        core.register(2, PaceMode::Unpaced, 0);
        let a = core.pop_runnable(0).unwrap();
        core.completed_step(a, 0);
        let b = core.pop_runnable(0).unwrap();
        assert_ne!(a, b);
        core.completed_step(b, 0);
        assert_eq!(core.pop_runnable(0), Some(a));
    }

    #[test]
    fn paced_stream_parks_until_due() {
        // 10 fps, 1 frame per step: step k ready at k*100ms.
        let mut core = ShardCore::new(ShardConfig { frames_per_step: 1 });
        core.register(7, PaceMode::Fps(10.0), 0);
        // Step 0 is ready immediately (its one frame "arrived" at t=0).
        assert_eq!(core.pop_runnable(0), Some(7));
        core.completed_step(7, 0);
        // Step 1 is not ready until t = 100ms.
        assert_eq!(core.pop_runnable(0), None);
        core.advance(99_000);
        assert_eq!(core.pop_runnable(99_000), None);
        core.advance(100_001);
        assert_eq!(core.pop_runnable(100_001), Some(7));
    }

    #[test]
    fn oversubscribed_core_sheds_exactly() {
        let mut core = ShardCore::new(ShardConfig::default());
        core.register(1, PaceMode::Fps(100.0), 0);
        // Jump far behind schedule: at t=1s, 100 steps are due; nothing
        // was executed, so due - bound must have been shed when the
        // stream next runs.
        core.advance(1_000_000);
        assert_eq!(core.pop_runnable(1_000_000), Some(1));
        let c = core.counters(1).unwrap();
        // due = floor(1.0*100 + 1) = 101; backlog 101; shed 101 - 4 = 97.
        assert_eq!(c.ticks_shed, 97);
        assert_eq!(c.queue_depth, INGEST_BOUND);
    }

    #[test]
    fn deterministic_scheduler_replays_identically() {
        let trace = |seed: u64| {
            let mut sched =
                DeterministicScheduler::new(3, ShardConfig::default(), seed).with_step_cost(500);
            let mut remaining: HashMap<StreamId, u64> = HashMap::new();
            for id in 0..9u64 {
                sched.add_stream(id, PaceMode::Unpaced);
                remaining.insert(id, 20);
            }
            let mut order = Vec::new();
            sched.run(|stream, _fire_us| {
                order.push(stream);
                let left = remaining.get_mut(&stream).unwrap();
                *left -= 1;
                *left == 0
            });
            order
        };
        assert_eq!(trace(1), trace(1));
        assert_eq!(trace(2), trace(2));
        assert_ne!(
            trace(1),
            trace(2),
            "different seeds should interleave differently"
        );
        assert_eq!(trace(1).len(), 9 * 20);
    }
}
