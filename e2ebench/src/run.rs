//! What every workload shares: the run's size, the repetition budget,
//! one repetition's raw measurements, and the report they fold into.

use crate::stats::{best, median, ratio, Better};
use crate::sys;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How much work one invocation does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Seconds the timed part of the run should fill.
    pub seconds: f64,
    /// Exact repetition count (`--reps`), overriding the time budget.
    pub reps: Option<usize>,
    /// The `--smoke` size: about 30 frames per stream, 2 repetitions.
    pub smoke: bool,
}

impl Scale {
    /// The smoke size used by the integration test.
    pub fn smoke() -> Self {
        Self {
            seconds: 1.0,
            reps: Some(2),
            smoke: true,
        }
    }

    /// How far a scene's load may sit from nominal: `full` normally, any
    /// load under `--smoke` (a two-second scene holds a handful of
    /// objects; no share of them is within a few per cent of anything).
    pub fn load_tolerance(&self, full: f64) -> f64 {
        if self.smoke {
            f64::INFINITY
        } else {
            full
        }
    }

    /// `full` frames normally, `smoke` frames under `--smoke`.
    pub fn frames(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Fewest repetitions a median is ever taken over (unless `--reps` or
/// `--smoke` says otherwise).
const MIN_REPS: usize = 5;

/// Decides whether another repetition fits the run.
pub struct Budget {
    deadline: Instant,
    fixed: Option<usize>,
}

impl Budget {
    /// A budget of `share` of the run's seconds, starting now.
    pub fn start(scale: &Scale, share: f64) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(scale.seconds * share),
            fixed: scale.reps,
        }
    }

    /// Whether to run repetition number `done` (0-based).
    pub fn more(&self, done: usize) -> bool {
        match self.fixed {
            Some(n) => done < n,
            None => done < MIN_REPS || Instant::now() < self.deadline,
        }
    }
}

/// A stopwatch over the three clocks a repetition is charged on.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
    thread_ns: u64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_ns: sys::process_cpu_ns(),
            thread_ns: sys::thread_cpu_ns(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds of the whole process since the start.
    pub fn cpu_s(&self) -> f64 {
        (sys::process_cpu_ns() - self.cpu_ns) as f64 / 1e9
    }

    /// CPU seconds the system under test burned since the start, where
    /// the calling thread only generates load and measures: the
    /// process's, minus this thread's, minus what `burners` burned since
    /// `burned_before` (their reading when this stopwatch started).
    pub fn cpu_s_of_the_system(&self, burners: &sys::IdleBurners, burned_before: u64) -> f64 {
        let process = sys::process_cpu_ns() - self.cpu_ns;
        let this = sys::thread_cpu_ns() - self.thread_ns;
        let burned = burners.cpu_ns().saturating_sub(burned_before);
        process.saturating_sub(this).saturating_sub(burned) as f64 / 1e9
    }
}

/// The raw measurements of one timed repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// CPU seconds the system under test consumed in the timed phase.
    pub cpu_s: f64,
    /// Video frames offered to the system in the timed phase.
    pub frames: u64,
    /// Modelled accelerator milliseconds charged in the timed phase.
    pub device_ms: f64,
}

/// Counts what was attempted and what failed, with one line per kind of
/// failure so a non-zero count explains itself.
#[derive(Debug, Default)]
pub struct Checks {
    /// Frames offered plus events expected.
    pub attempted: u64,
    /// Everything that counts against `failed_share`.
    pub failed: u64,
    /// Human-readable reasons, printed before the metrics.
    pub notes: Vec<String>,
}

impl Checks {
    /// Adds `n` attempts.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failures of one kind.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 20 {
                self.notes.push(format!("{n} × {}", what()));
            }
        }
    }
}

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Cold set-up samples, CPU seconds.
    pub setups: Vec<f64>,
    /// Timed repetitions (one for the single-long-run workloads).
    pub reps: Vec<Rep>,
    /// Host µs per frame of each window of a single long run, where
    /// there are no repetitions to take the best of; empty otherwise.
    pub host_us_windows: Vec<f64>,
    /// Oracle and accounting checks.
    pub checks: Checks,
    /// Per-layer metrics (traced runs) by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Context lines printed before the metrics (sizes, sample counts).
    pub info: Vec<String>,
}

/// `frames ÷ wall` of every repetition.
pub fn fps_samples(reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .map(|r| ratio(r.frames as f64, r.wall_s))
        .collect()
}

/// CPU microseconds per frame of every repetition.
pub fn host_us_samples(reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .map(|r| ratio(r.cpu_s * 1e6, r.frames as f64))
        .collect()
}

/// CPU microseconds per frame over all of `reps` together.
pub fn mean_host_us(reps: &[Rep]) -> f64 {
    ratio(
        reps.iter().map(|r| r.cpu_s).sum::<f64>() * 1e6,
        reps.iter().map(|r| r.frames).sum::<u64>() as f64,
    )
}

/// Wall over CPU of the timed phases: ≈1.0 when the one driving thread
/// was never descheduled and nothing else ran.
pub fn wall_over_cpu(reps: &[Rep]) -> f64 {
    ratio(
        reps.iter().map(|r| r.wall_s).sum(),
        reps.iter().map(|r| r.cpu_s).sum(),
    )
}

impl Report {
    /// `frames ÷ wall` of every repetition.
    pub fn fps_samples(&self) -> Vec<f64> {
        fps_samples(&self.reps)
    }

    /// CPU microseconds per frame of every repetition (or window).
    pub fn host_us_samples(&self) -> Vec<f64> {
        if self.host_us_windows.is_empty() {
            host_us_samples(&self.reps)
        } else {
            self.host_us_windows.clone()
        }
    }

    /// Modelled device milliseconds per frame of every repetition.
    pub fn device_ms_samples(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| ratio(r.device_ms, r.frames as f64))
            .collect()
    }

    /// The end-to-end metrics. Each timing is its *best* repetition —
    /// the one the machine disturbed least (see [`best`]); the modelled
    /// device time is a count, so its median.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", best(&self.setups, Better::Lower)),
            ("frames_per_s", best(&self.fps_samples(), Better::Higher)),
            (
                "host_us_per_frame",
                best(&self.host_us_samples(), Better::Lower),
            ),
            ("device_ms_per_frame", median(&self.device_ms_samples())),
            ("peak_rss_mb", sys::peak_rss_mb()),
        ]
    }
}

/// The directory the benchmark's executable lives in: the build
/// directory of whichever checkout is running. Everything the benchmark
/// writes goes here, never to `/tmp`.
pub fn build_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark's executable has a path");
    exe.parent()
        .expect("an executable lives in a directory")
        .to_owned()
}

/// A directory for this process's store segments, removed at exit.
pub fn scratch_dir() -> PathBuf {
    build_dir().join(format!("e2e-scratch-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_reps_override_the_clock() {
        let b = Budget::start(&Scale::smoke(), 1.0);
        assert!(b.more(0) && b.more(1));
        assert!(!b.more(2));
    }

    #[test]
    fn timed_budget_runs_at_least_the_minimum() {
        let scale = Scale {
            seconds: 0.0,
            reps: None,
            smoke: false,
        };
        let b = Budget::start(&scale, 1.0);
        assert!(b.more(MIN_REPS - 1));
        assert!(!b.more(MIN_REPS));
    }

    #[test]
    fn end_to_end_timings_are_the_best_repetition() {
        let rep = |wall_s, cpu_s| Rep {
            wall_s,
            cpu_s,
            frames: 1000,
            device_ms: 50_000.0,
        };
        let report = Report {
            setups: vec![0.3, 0.1, 0.2],
            reps: vec![rep(1.0, 0.9), rep(2.0, 1.0), rep(4.0, 1.1)],
            ..Report::default()
        };
        let m: BTreeMap<_, _> = report.end_to_end().into_iter().collect();
        assert_eq!(m["setup_s"], 0.1);
        assert_eq!(m["frames_per_s"], 1000.0);
        assert!((m["host_us_per_frame"] - 900.0).abs() < 1e-9);
        assert_eq!(m["device_ms_per_frame"], 50.0);
        assert!(m["peak_rss_mb"] > 0.0);
        assert!((wall_over_cpu(&report.reps) - 7.0 / 3.0).abs() < 1e-9);
        assert!((mean_host_us(&report.reps) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn checks_count_and_explain() {
        let mut c = Checks::default();
        c.attempt(10);
        c.fail(0, || unreachable!("no note for zero failures"));
        c.fail(3, || "events dropped".into());
        assert_eq!((c.attempted, c.failed), (10, 3));
        assert_eq!(c.notes, vec!["3 × events dropped".to_string()]);
    }
}
