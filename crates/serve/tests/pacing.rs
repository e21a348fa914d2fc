//! Pacing and scheduler property tests, driven by seeded loops
//! (`VQPY_SHARD_SEED` and its two successors, so CI replays the suite
//! under several fixed seeds):
//!
//! 1. **No early fire, nothing lost or duplicated** — under randomized
//!    rates, frames per step, advance increments (multi-second jumps
//!    included) and mid-run registrations, a [`ShardCore`] never pops a
//!    stream before its step's frames have arrived, and at the end every
//!    due step is executed, shed or queued exactly once.
//! 2. **Lateness is bounded by shard occupancy** — on the virtual-clock
//!    harness with a nonzero step cost, a paced stream's step fires no
//!    earlier than its schedule and no later than what its shard
//!    siblings' step costs can explain.
//! 3. **Exact shed accounting under oversubscription** — when the step
//!    cost makes the pace schedule infeasible, `steps + ticks_shed`
//!    equals the schedule's due count minus the bounded backlog, exactly.
//! 4. **The schedule is pinned** — a digest of every fire decision of a
//!    mixed run equals constants recorded from a known-good scheduler.

use std::collections::HashMap;
use vqpy_serve::{
    DeterministicScheduler, PaceMode, ShardConfig, ShardCore, SplitMix64, StreamId, INGEST_BOUND,
};

/// Base interleaving seed; the suite loops over `base..base+3`.
fn seeds() -> [u64; 3] {
    let base = std::env::var("VQPY_SHARD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    [base, base + 1, base + 2]
}

/// Steps of a `fps` schedule with `f` frames per step whose frames have
/// all arrived `elapsed_us` after the stream's start: `floor((t*fps + 1)/f)`.
fn arrived_steps(elapsed_us: u64, fps: f32, f: u64) -> u64 {
    (((elapsed_us as f64 / 1e6) * f64::from(fps) + 1.0) / f as f64).trunc() as u64
}

/// Property 1: across randomized rates, step sizes and advance schedules —
/// including mid-run registrations and multi-second jumps — every stream
/// the core pops at `t` is for a step whose frames arrived by `t`, and at
/// the end `steps + ticks_shed + queue_depth` is each stream's due count:
/// no step is lost, none runs twice.
#[test]
fn core_never_fires_early_loses_or_duplicates() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed);
        for case in 0..25 {
            let f = 1 + rng.below(8) as u64;
            let mut core = ShardCore::new(ShardConfig { frames_per_step: f });
            // stream -> (fps, start_us, steps executed)
            let mut streams: HashMap<StreamId, (f32, u64, u64)> = HashMap::new();
            let mut now = 0u64;
            for round in 0..300 {
                if round == 0 || rng.below(20) == 0 {
                    let fps = 1.0 + rng.below(1_200) as f32 / 10.0;
                    let id = streams.len() as StreamId;
                    core.register(id, PaceMode::Fps(fps), now);
                    streams.insert(id, (fps, now, 0));
                }
                now += match rng.below(10) {
                    0 => 1_000_000 + rng.below(4_000_000) as u64,
                    _ => 1 + rng.below(50_000) as u64,
                };
                core.advance(now);
                for _ in 0..rng.below(4) {
                    let Some(stream) = core.pop_runnable(now) else {
                        break;
                    };
                    let (fps, start, executed) = streams.get_mut(&stream).unwrap();
                    let c = core.counters(stream).unwrap();
                    let step = c.steps + c.ticks_shed;
                    assert!(
                        step < arrived_steps(now - *start, *fps, f),
                        "stream {stream} popped for step {step} before its frames \
                         arrived at {now}us (seed {seed}, case {case})"
                    );
                    *executed += 1;
                    now += rng.below(2_000) as u64;
                    core.completed_step(stream, now);
                    core.advance(now);
                }
            }
            // Settle at `now`: popping re-applies shed accounting to the
            // runnable streams; parked ones were evaluated when they parked.
            core.advance(now);
            while core.pop_runnable(now).is_some() {}
            for (&stream, &(fps, start, executed)) in &streams {
                let c = core.counters(stream).unwrap();
                assert_eq!(c.steps, executed, "seed {seed}, case {case}");
                assert!(c.queue_depth <= INGEST_BOUND, "{c:?}");
                assert_eq!(
                    c.steps + c.ticks_shed + c.queue_depth,
                    arrived_steps(now - start, fps, f),
                    "stream {stream} lost or duplicated a step (seed {seed}, case {case}): {c:?}"
                );
            }
        }
    }
}

/// Virtual-time "ready" instant of a paced stream's `k`-th step at
/// `frames_per_step = 1`: its one frame arrives at `k / fps`.
fn ready_us(k: u64, fps: f64) -> u64 {
    ((k as f64 / fps) * 1e6) as u64
}

/// Property 2: with a feasible schedule (utilization < 1), no step ever
/// fires before its frames arrive, nothing is shed, and the worst
/// lateness is bounded by what shard occupancy explains — the bound grows
/// with streams-per-shard, pinned by comparing a lonely shard against a
/// crowded one.
#[test]
fn paced_lateness_is_bounded_by_shard_occupancy() {
    let fps = 50.0;
    let step_cost_us = 1_000u64;
    let horizon_us = 2_000_000u64;

    let max_lateness = |streams: u64, seed: u64| -> u64 {
        let mut sched = DeterministicScheduler::new(1, ShardConfig::default(), seed)
            .with_step_cost(step_cost_us);
        for id in 0..streams {
            sched.add_stream(id as StreamId, PaceMode::Fps(fps as f32));
        }
        let mut executed: HashMap<StreamId, u64> = HashMap::new();
        let mut worst = 0u64;
        sched.run_until(horizon_us, |stream, fire_us| {
            let k = executed.entry(stream).or_insert(0);
            let ready = ready_us(*k, fps);
            assert!(
                fire_us >= ready,
                "stream {stream} step {k} fired {}us early (seed {seed})",
                ready - fire_us
            );
            worst = worst.max(fire_us - ready);
            *k += 1;
            false
        });
        for id in 0..streams {
            assert_eq!(
                sched.counters(id as StreamId).ticks_shed,
                0,
                "feasible schedule must not shed (streams {streams}, seed {seed})"
            );
        }
        worst
    };

    for seed in seeds() {
        // 8 streams × 50 steps/s × 1ms/step = 40% utilization: feasible.
        let crowded = max_lateness(8, seed);
        let lonely = max_lateness(1, seed);
        // Worst pending work on the shard: every stream at its backlog
        // bound, each step charging `step_cost`.
        let bound = 8 * INGEST_BOUND * step_cost_us;
        assert!(
            crowded <= bound,
            "lateness {crowded}us exceeds the occupancy bound {bound}us (seed {seed})"
        );
        // Occupancy is the cause: a shard with siblings is measurably
        // later than a shard serving one stream.
        assert!(
            lonely < crowded,
            "expected contention lateness: lonely {lonely}us vs crowded {crowded}us (seed {seed})"
        );
        assert!(
            crowded >= step_cost_us,
            "8 streams starting together must contend for the shard (seed {seed})"
        );
    }
}

/// The schedule, pinned: a mixed run — unpaced streams that finish at
/// different times, paced streams at several rates — on three shards with
/// a nonzero step cost. Every `(stream, fire_us)` and each stream's final
/// counters fold into one FNV-1a hash per interleaving seed, recorded from
/// a known-good scheduler. A refactor of the scheduling core that keeps
/// every decision keeps these digests; a change that alters the schedule
/// on purpose says why and re-records them. Independent of
/// `VQPY_SHARD_SEED`.
#[test]
fn schedule_digest_is_unchanged() {
    const RECORDED: [(u64, u64); 3] = [
        (1, 0x2e31_81b2_138a_ac50),
        (2, 0xbe15_ace9_f802_fcbc),
        (3, 0x6d75_2520_216c_6430),
    ];
    let paces = [
        PaceMode::Unpaced,
        PaceMode::Unpaced,
        PaceMode::Unpaced,
        PaceMode::Fps(10.0),
        PaceMode::Fps(15.0),
        PaceMode::Fps(30.0),
        PaceMode::Fps(50.0),
        PaceMode::Fps(15.0),
        PaceMode::Fps(30.0),
    ];
    let digest = |seed: u64| -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut sched = DeterministicScheduler::new(3, ShardConfig { frames_per_step: 2 }, seed)
            .with_step_cost(700);
        for (id, &pace) in paces.iter().enumerate() {
            sched.add_stream(id as StreamId, pace);
        }
        // Unpaced stream `i` finishes after `150 * (i + 1)` steps, so
        // shards fall idle at different times and the clock jumps to
        // timer deadlines for the rest of the run.
        let mut steps: HashMap<StreamId, u64> = HashMap::new();
        sched.run_until(2_000_000, |stream, fire_us| {
            fold(stream);
            fold(fire_us);
            let n = steps.entry(stream).or_insert(0);
            *n += 1;
            stream < 3 && *n == 150 * (stream + 1)
        });
        for id in 0..paces.len() as StreamId {
            let c = sched.counters(id);
            fold(c.steps);
            fold(c.ticks_shed);
            fold(c.queue_depth);
        }
        fold(sched.now_us());
        hash
    };
    let got: Vec<(u64, u64)> = RECORDED.iter().map(|&(s, _)| (s, digest(s))).collect();
    assert_eq!(got, RECORDED, "the shard schedule changed");
}

/// Property 3: under oversubscription (step cost 5ms against a 1000fps
/// schedule — 5× infeasible), shed accounting is exact: at the horizon,
/// `steps + ticks_shed = due(now) - queue_depth`, the backlog never
/// exceeds the ingest bound, and throughput lands at the step-cost
/// ceiling.
#[test]
fn oversubscription_sheds_exactly_in_virtual_time() {
    let fps = 1_000.0;
    let step_cost_us = 5_000u64;
    let horizon_us = 1_000_000u64;

    for seed in seeds() {
        let mut sched = DeterministicScheduler::new(1, ShardConfig::default(), seed)
            .with_step_cost(step_cost_us);
        sched.add_stream(0, PaceMode::Fps(fps as f32));
        let mut steps = 0u64;
        sched.run_until(horizon_us, |_, _| {
            steps += 1;
            false
        });

        let c = sched.counters(0);
        assert_eq!(c.steps, steps, "counter must match executed steps");
        let due = ((sched.now_us() as f64 / 1e6) * fps + 1.0).trunc() as u64;
        assert_eq!(
            c.steps + c.ticks_shed,
            due - c.queue_depth,
            "consumed schedule must account for every due step exactly \
             (due {due}, counters {c:?}, seed {seed})"
        );
        assert!(c.queue_depth <= INGEST_BOUND, "backlog over bound: {c:?}");
        assert!(
            c.ticks_shed > 0,
            "5x oversubscription must shed (seed {seed}): {c:?}"
        );
        // One step per 5ms of virtual time: the ceiling is 200 steps/s.
        assert!(
            (190..=201).contains(&steps),
            "throughput off the step-cost ceiling: {steps} (seed {seed})"
        );
    }
}
