//! What the serving workloads share: the consumer side of every
//! subscription, and the checks on what it received.

use crate::oracle::{check_subscription, colour_mismatch, Expected, Received};
use crate::run::Checks;
use std::sync::Arc;
use vqpy_core::{ExecConfig, Query, SessionConfig, VqpySession};
use vqpy_models::{Clock, ModelZoo};
use vqpy_serve::{ServeMetrics, Subscription};

/// A serving session: the workload's execution configuration on `clock`,
/// no result cache (every repetition must execute).
pub fn session(zoo: Arc<ModelZoo>, exec: ExecConfig, clock: Clock) -> Arc<VqpySession> {
    Arc::new(VqpySession::with_clock(
        zoo,
        SessionConfig {
            exec,
            enable_result_cache: false,
            ..SessionConfig::default()
        },
        Arc::new(clock),
    ))
}

/// Every subscription of a run — `[stream][query]` — and what each has
/// delivered so far. The one consumer of the serving workloads.
pub struct Inbox {
    subs: Vec<Vec<Subscription>>,
    got: Vec<Vec<Received>>,
    open: usize,
}

impl Inbox {
    /// Wraps the subscriptions of every stream.
    pub fn new(subs: Vec<Vec<Subscription>>) -> Self {
        let got: Vec<Vec<Received>> = subs
            .iter()
            .map(|s| s.iter().map(|_| Received::default()).collect())
            .collect();
        let open = subs.iter().map(Vec::len).sum();
        Self { subs, got, open }
    }

    /// Receives everything that is ready right now without blocking.
    /// `on_hit(stream, frame)` is called for each hit as it is received.
    /// Returns the number of events received.
    pub fn sweep(&mut self, mut on_hit: impl FnMut(usize, u64)) -> u64 {
        let mut events = 0;
        for (stream, (subs, got)) in self.subs.iter().zip(&mut self.got).enumerate() {
            for (sub, got) in subs.iter().zip(got) {
                if got.is_done() {
                    continue;
                }
                while let Ok(Some(event)) = sub.try_recv() {
                    events += 1;
                    if let Some(frame) = got.absorb(event) {
                        on_hit(stream, frame);
                    }
                    if got.is_done() {
                        self.open -= 1;
                        break;
                    }
                }
            }
        }
        events
    }

    /// Whether every subscription has delivered its terminal event.
    pub fn all_done(&self) -> bool {
        self.open == 0
    }

    /// Events of every kind received so far.
    pub fn events(&self) -> u64 {
        self.got.iter().flatten().map(Received::events).sum()
    }

    /// Holds every subscription against the oracle (`expected[stream]
    /// [query]`). Returns the colour subscriptions whose hits differ from
    /// the oracle's.
    pub fn check_oracle(&self, checks: &mut Checks, expected: &[Vec<Expected>]) -> u64 {
        let mut colour_mismatches = 0;
        for (stream, (got, want)) in self.got.iter().zip(expected).enumerate() {
            for (g, e) in got.iter().zip(want) {
                check_subscription(checks, &format!("stream {stream} {}", e.query), e, g);
                colour_mismatches += colour_mismatch(e, g);
            }
        }
        colour_mismatches
    }

    /// Holds what was received against the server's own counters, one
    /// `ServeMetrics` per stream: delivered + dropped = attempts, nothing
    /// dropped, nothing lost to restarts or faults.
    pub fn check_delivery(&self, checks: &mut Checks, metrics: &[ServeMetrics]) {
        for (stream, (got, m)) in self.got.iter().zip(metrics).enumerate() {
            let delivered: u64 = m.per_query.iter().map(|q| q.delivered).sum();
            let received: u64 = got.iter().map(Received::events).sum();
            checks.fail(m.dropped_events, || {
                format!("stream {stream}: events dropped")
            });
            checks.fail(delivered.abs_diff(received), || {
                format!("stream {stream}: {delivered} events delivered, {received} received")
            });
            checks.fail(
                m.frames_lost + m.restarts + m.decode_failures + m.store_corruptions,
                || format!("stream {stream}: restarts, lost frames, decode or store faults"),
            );
        }
    }
}

/// The oracle of a multi-stream run: each stream's video through the
/// offline executor, one shared plan per stream.
pub fn expected_per_stream(
    exec: &ExecConfig,
    queries: &[Arc<Query>],
    scenes: &[vqpy_video::Scene],
) -> Vec<Vec<Expected>> {
    scenes
        .iter()
        .map(|scene| {
            let video = vqpy_video::SyntheticVideo::new(scene.clone());
            crate::oracle::expected_shared(exec, queries, &video)
        })
        .collect()
}

/// Streams handed to a `StreamSupervisor`, which drives them on its own
/// shard threads.
pub struct Supervised {
    /// The session the supervisor serves.
    pub session: Arc<VqpySession>,
    /// The supervisor.
    pub supervisor: vqpy_serve::StreamSupervisor,
    /// Stream ids, in add order.
    pub ids: Vec<vqpy_serve::StreamId>,
    /// When `add_stream` returned, per stream: the origin of its pace
    /// schedule as seen from outside.
    pub added: Vec<std::time::Instant>,
    /// Every subscription.
    pub inbox: Inbox,
    /// The timing wrappers of the sources (traced runs).
    pub sources: Vec<Option<Arc<crate::timed::TimedSource>>>,
    /// The log the zoo's detectors feed (traced runs).
    pub log: Option<Arc<crate::timed::DetectionLog>>,
    /// Frames offered, all streams.
    pub offered: u64,
    /// CPU seconds from nothing to the last `add_stream` returning.
    pub setup_s: f64,
}

/// How a supervisor workload runs its streams.
pub struct Supervision {
    /// Execution configuration of the session.
    pub exec: ExecConfig,
    /// The session clock.
    pub clock: Clock,
    /// Supervisor and serving configuration.
    pub config: vqpy_serve::SupervisorConfig,
    /// Pace of every stream.
    pub pace: vqpy_serve::PaceMode,
    /// Delay between the starts of consecutive streams.
    pub stagger: std::time::Duration,
}

/// Set-up of the supervisor workloads: zoo, session, supervisor, and
/// `add_stream` (open + attach + schedule on a shard) of every stream.
/// Stream `i` is added `i × stagger` after the first (the bench thread
/// spins until then), so paced streams do not all fall due at once.
pub fn supervise(
    parts: super::Parts<'_>,
    scenes: &[vqpy_video::Scene],
    queries: &[Arc<Query>],
    how: Supervision,
) -> Supervised {
    let Supervision {
        exec,
        clock,
        config,
        pace,
        stagger,
    } = how;
    let setup = crate::run::Stopwatch::start();
    let (zoo, log) = parts.zoo();
    let session = session(zoo, exec, clock);
    let supervisor = vqpy_serve::StreamSupervisor::new(Arc::clone(&session), config);
    let n = scenes.len();
    let mut added: Vec<std::time::Instant> = Vec::with_capacity(n);
    let (mut ids, mut subs, mut sources) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut offered = 0;
    for (i, scene) in scenes.iter().enumerate() {
        let (video, timed) = parts.source(scene);
        if let (0, Some(log)) = (i, &log) {
            log.watch(vqpy_video::source::VideoSource::video_id(video.as_ref()));
        }
        offered += vqpy_video::source::VideoSource::frame_count(video.as_ref());
        if let Some(&first) = added.first() {
            while first.elapsed() < stagger * i as u32 {
                std::hint::spin_loop();
            }
        }
        let (id, stream_subs) = {
            let _span = parts.span("serve.add_stream", i as u32, 0, queries.len() as u32);
            supervisor
                .add_stream(video, pace, queries)
                .expect("the stream is admitted")
        };
        added.push(std::time::Instant::now());
        ids.push(id);
        subs.push(stream_subs);
        sources.push(timed);
    }
    Supervised {
        session,
        supervisor,
        ids,
        added,
        inbox: Inbox::new(subs),
        sources,
        log,
        offered,
        setup_s: setup.cpu_s(),
    }
}

/// Microseconds after a paced stream's start at which the step holding
/// `frame` is due: a step of `frames_per_step` frames can run once its
/// last frame has arrived at `fps`. The same schedule `ShardCore` parks
/// streams on, `((consumed + 1) · f − 1) / fps`, with `consumed` the
/// number of whole steps before the frame's.
pub fn due_offset_us(frame: u64, frames_per_step: u64, fps: f64) -> u64 {
    let f = frames_per_step.max(1);
    let step = frame / f;
    ((((step + 1) * f - 1) as f64 / fps) * 1e6) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_serve::{PaceMode, ShardConfig, ShardCore};

    #[test]
    fn due_times_match_the_shard_cores_schedule() {
        for (f, fps) in [(2u64, 15.0f32), (8, 15.0), (1, 30.0), (4, 12.5)] {
            let mut core = ShardCore::new(ShardConfig {
                frames_per_step: f,
                ..ShardConfig::default()
            });
            let start = 5_000;
            core.register(7, PaceMode::Fps(fps), start);
            for step in 0..6u64 {
                let due = start + due_offset_us(step * f, f, f64::from(fps));
                // Every frame of a step shares the step's due time.
                assert_eq!(
                    due,
                    start + due_offset_us(step * f + f - 1, f, f64::from(fps))
                );
                if due > start + 1 {
                    core.advance(due - 1);
                    assert_eq!(
                        core.pop_runnable(due - 1),
                        None,
                        "f={f} fps={fps} step {step}"
                    );
                }
                core.advance(due + 1);
                assert_eq!(
                    core.pop_runnable(due + 1),
                    Some(7),
                    "f={f} fps={fps} step {step}"
                );
                core.completed_step(7, due + 1);
            }
        }
    }

    #[test]
    fn the_first_step_of_a_two_frame_batch_at_15_fps_is_due_after_one_frame_time() {
        assert_eq!(due_offset_us(0, 2, 15.0), 66_666);
        assert_eq!(due_offset_us(1, 2, 15.0), 66_666);
        assert_eq!(due_offset_us(2, 2, 15.0), 200_000);
        assert_eq!(due_offset_us(0, 1, 15.0), 0);
    }
}
