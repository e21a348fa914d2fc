//! The correctness check: what each subscription must deliver, computed
//! in-process by the offline executor, and the comparison against what
//! the system under test actually delivered.

use crate::inputs::is_colour_free;
use crate::run::Checks;
use std::sync::Arc;
use vqpy_core::{ExecConfig, FrameHit, Query, QueryResult, SessionConfig, VqpySession};
use vqpy_models::{Clock, ClockMode, ModelZoo, Value};
use vqpy_serve::ServeEvent;
use vqpy_video::source::VideoSource;

/// What one query must produce on one video.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Query name.
    pub query: String,
    /// The hit frames with their output rows, in frame order.
    pub hits: Vec<FrameHit>,
    /// The video-level aggregate, if the query declares one.
    pub video_value: Option<Value>,
}

impl From<&QueryResult> for Expected {
    fn from(r: &QueryResult) -> Self {
        Self {
            query: r.query_name.clone(),
            hits: r.frame_hits.clone(),
            video_value: r.video_value.clone(),
        }
    }
}

/// A plain session on the virtual clock with the workload's execution
/// configuration and no extensions: the reference every serving path
/// must reproduce.
pub fn reference_session(exec: &ExecConfig) -> VqpySession {
    VqpySession::with_clock(
        ModelZoo::standard(),
        SessionConfig {
            exec: ExecConfig {
                exec_mode: vqpy_core::ExecMode::Sequential,
                ..exec.clone()
            },
            enable_result_cache: false,
            ..SessionConfig::default()
        },
        Arc::new(Clock::with_mode(ClockMode::Virtual)),
    )
}

/// Runs `queries` over `video` as one shared offline plan.
pub fn expected_shared(
    exec: &ExecConfig,
    queries: &[Arc<Query>],
    video: &dyn VideoSource,
) -> Vec<Expected> {
    reference_session(exec)
        .execute_shared(queries, video)
        .expect("the oracle executes")
        .iter()
        .map(|r| Expected::from(r.as_ref()))
        .collect()
}

/// Everything one subscription delivered.
#[derive(Debug, Default)]
pub struct Received {
    /// Hits in arrival order.
    pub hits: Vec<FrameHit>,
    /// Terminal events (`End` / `Detached`) seen; must be exactly 1.
    pub terminals: u64,
    /// The aggregate carried by the terminal event.
    pub video_value: Option<Value>,
    /// Worker-fault notices.
    pub stream_faults: u64,
    /// Frames the fault notices reported lost.
    pub frames_lost: u64,
    /// Damaged-segment notices from a replay.
    pub store_faults: u64,
}

impl Received {
    /// Folds one event in. Returns the hit's frame for latency stamping.
    pub fn absorb(&mut self, event: ServeEvent) -> Option<u64> {
        match event {
            ServeEvent::Hit(h) => {
                let frame = h.frame;
                self.hits.push(h);
                return Some(frame);
            }
            ServeEvent::StreamFault(f) => {
                self.stream_faults += 1;
                self.frames_lost += f.frames_lost;
            }
            ServeEvent::StoreFault(_) => self.store_faults += 1,
            ServeEvent::End { video_value } | ServeEvent::Detached { video_value } => {
                self.terminals += 1;
                self.video_value = video_value;
            }
        }
        None
    }

    /// Events of every kind received.
    pub fn events(&self) -> u64 {
        self.hits.len() as u64 + self.terminals + self.stream_faults + self.store_faults
    }

    /// Whether the terminal event arrived.
    pub fn is_done(&self) -> bool {
        self.terminals > 0
    }
}

/// Positions at which two hit sequences disagree, counting the longer
/// one's surplus.
pub fn hit_differences(a: &[FrameHit], b: &[FrameHit]) -> u64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    (a.len().max(b.len()) - same) as u64
}

/// Compares what a subscription delivered with what it had to. Adds the
/// expected events to `checks.attempted` and every difference to
/// `checks.failed`. Colour-dependent queries are checked by accounting
/// only. Returns whether the subscription was compared strictly.
pub fn check_subscription(
    checks: &mut Checks,
    what: &str,
    expected: &Expected,
    got: &Received,
) -> bool {
    let strict = is_colour_free(&expected.query);
    let expected_hits = if strict {
        expected.hits.len()
    } else {
        got.hits.len()
    };
    checks.attempt(expected_hits as u64 + 1);
    checks.fail(got.terminals.abs_diff(1), || {
        format!("{what}: {} terminal events instead of 1", got.terminals)
    });
    checks.fail(got.stream_faults + got.frames_lost, || {
        format!("{what}: worker faults / frames lost to restarts")
    });
    checks.fail(got.store_faults, || format!("{what}: store faults"));
    if strict {
        checks.fail(hit_differences(&expected.hits, &got.hits), || {
            format!(
                "{what}: hits differ from the oracle ({} expected, {} received)",
                expected.hits.len(),
                got.hits.len()
            )
        });
        checks.fail(u64::from(expected.video_value != got.video_value), || {
            format!(
                "{what}: aggregate {:?} differs from the oracle's {:?}",
                got.video_value, expected.video_value
            )
        });
    } else {
        // Accounting only: hits must still be in frame order.
        let unordered = got
            .hits
            .windows(2)
            .filter(|w| w[0].frame >= w[1].frame)
            .count();
        checks.fail(unordered as u64, || {
            format!("{what}: hits out of frame order")
        });
    }
    strict
}

/// Subscriptions (of colour queries) whose hit sequence differs from the
/// oracle's: the diagnostic for the `dominant_rgb_in` tie bug, 0 once it
/// is fixed.
pub fn colour_mismatch(expected: &Expected, got: &Received) -> u64 {
    u64::from(!is_colour_free(&expected.query) && expected.hits != got.hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(frame: u64) -> FrameHit {
        FrameHit {
            frame,
            time_s: frame as f64 / 15.0,
            outputs: vec![vec![("car.track_id".into(), Value::from(frame as f64))]],
        }
    }

    fn expected(query: &str, frames: &[u64]) -> Expected {
        Expected {
            query: query.into(),
            hits: frames.iter().copied().map(hit).collect(),
            video_value: None,
        }
    }

    fn received(frames: &[u64]) -> Received {
        let mut r = Received::default();
        for &f in frames {
            assert_eq!(r.absorb(ServeEvent::Hit(hit(f))), Some(f));
        }
        assert_eq!(r.absorb(ServeEvent::End { video_value: None }), None);
        r
    }

    #[test]
    fn identical_sequences_pass_strictly() {
        let mut c = Checks::default();
        assert!(check_subscription(
            &mut c,
            "s0/SedanCar",
            &expected("SedanCar", &[1, 2, 5]),
            &received(&[1, 2, 5])
        ));
        assert_eq!((c.attempted, c.failed), (4, 0));
    }

    #[test]
    fn a_missing_hit_and_a_missing_terminal_are_failures() {
        let mut c = Checks::default();
        let mut got = received(&[1, 5]);
        got.terminals = 0;
        check_subscription(
            &mut c,
            "s0/SedanCar",
            &expected("SedanCar", &[1, 2, 5]),
            &got,
        );
        // hits [1,5] vs [1,2,5]: positions 1 and 2 differ; plus no terminal
        assert_eq!(c.failed, 3);
    }

    #[test]
    fn colour_queries_are_accounting_only() {
        let mut c = Checks::default();
        let e = expected("RedCar", &[1, 2, 5]);
        let got = received(&[1, 5]);
        assert!(!check_subscription(&mut c, "s0/RedCar", &e, &got));
        assert_eq!((c.attempted, c.failed), (3, 0));
        assert_eq!(colour_mismatch(&e, &got), 1);
        assert_eq!(colour_mismatch(&e, &received(&[1, 2, 5])), 0);
        assert_eq!(
            colour_mismatch(&expected("SedanCar", &[1]), &received(&[])),
            0
        );
    }

    #[test]
    fn hit_differences_counts_surplus() {
        let a: Vec<FrameHit> = [1, 2, 3].into_iter().map(hit).collect();
        assert_eq!(hit_differences(&a, &a), 0);
        assert_eq!(hit_differences(&a, &a[..2]), 1);
        assert_eq!(hit_differences(&a[..0], &a), 3);
    }
}
