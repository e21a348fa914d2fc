//! Fault injection at the model boundary.
//!
//! Real serving tiers see transient model failures: a device resets, a
//! worker OOMs, an RPC times out. The simulated zoo never fails on its
//! own, so this module provides the controlled counterpart: a
//! [`FaultInjector`] that wraps any [`Detector`], [`Classifier`], or
//! [`FrameClassifier`] and fails (or delays) its *fallible* batch entry
//! points (`try_*_batch`) on a seeded, deterministic schedule.
//!
//! Determinism is the whole point — the chaos suite replays the same
//! schedule against the same video and asserts the served results on
//! surviving frames are byte-identical to a fault-free run. Decisions
//! are a pure function of `(seed, invocation counter)` via a
//! splitmix64-style hash, so a schedule is reproducible regardless of
//! thread interleaving *within one model instance* (the counter is the
//! per-wrapper invocation index).
//!
//! The infallible entry points (`detect`, `detect_batch`, ...) delegate
//! untouched: legacy offline paths keep their exact behavior, and a
//! retry of a failed invocation re-runs the real model deterministically.

use crate::clock::Clock;
use crate::detection::Detection;
use crate::traits::{Classifier, Detector, FrameClassifier, ModelProfile};
use crate::value::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A recoverable failure raised at the model dispatch boundary.
///
/// Carried through `ModelDispatch`'s `Result` returns; the retry layer,
/// circuit breaker, and serving metrics all consume it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelFault {
    /// Registry name of the model that failed.
    pub model: String,
    /// Human-readable cause ("injected fault #3", "panic in coalesced
    /// batch: ...").
    pub message: String,
}

impl ModelFault {
    /// Creates a fault for `model` with the given cause.
    pub fn new(model: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            model: model.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ModelFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model '{}' fault: {}", self.model, self.message)
    }
}

impl std::error::Error for ModelFault {}

/// Charge label under which injected latency spikes are recorded, so the
/// clock's per-model statistics distinguish spike time from real work.
pub const FAULT_SPIKE_LABEL: &str = "fault_latency_spike";

/// A seeded, deterministic fault schedule.
///
/// Each fallible batch invocation consults the plan in order:
/// 1. `every_nth` — invocation numbers divisible by `n` fail (1-based).
/// 2. `failure_prob` — a seeded hash of the invocation number fails the
///    call with this probability.
/// 3. `latency_spike_prob` / `latency_spike_ms` — same mechanism, but
///    the call survives and charges a spike to the clock instead.
///
/// `fail_limit` caps the total number of injected failures; once spent,
/// the model "heals" and every later invocation succeeds. This is how
/// the chaos suite builds transient-outage scenarios with exact
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-invocation hash.
    pub seed: u64,
    /// Probability in `[0, 1]` that an invocation fails.
    pub failure_prob: f64,
    /// Fail every `n`-th invocation (1-based) when set.
    pub every_nth: Option<u64>,
    /// Stop injecting failures after this many, when set.
    pub fail_limit: Option<u64>,
    /// Probability in `[0, 1]` of a latency spike on a surviving call.
    pub latency_spike_prob: f64,
    /// Virtual milliseconds charged per latency spike.
    pub latency_spike_ms: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 1,
            failure_prob: 0.0,
            every_nth: None,
            fail_limit: None,
            latency_spike_prob: 0.0,
            latency_spike_ms: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan that fails every `n`-th invocation.
    pub fn every_nth(seed: u64, n: u64) -> Self {
        Self {
            seed,
            every_nth: Some(n.max(1)),
            ..Self::default()
        }
    }

    /// A plan that fails each invocation with probability `p`.
    pub fn with_failure_prob(seed: u64, p: f64) -> Self {
        Self {
            seed,
            failure_prob: p.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// Caps the number of injected failures (the model heals after).
    pub fn heal_after(mut self, failures: u64) -> Self {
        self.fail_limit = Some(failures);
        self
    }
}

/// splitmix64: a tiny, high-quality mixer; maps (seed, counter) to a
/// uniform u64 without any shared RNG state.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, n: u64, salt: u64) -> f64 {
    (mix(seed.wrapping_add(salt), n) >> 11) as f64 / (1u64 << 53) as f64
}

/// An injector's aggregate counters, shared by every model it wraps.
#[derive(Debug, Default)]
struct Totals {
    injected: AtomicU64,
    spikes: AtomicU64,
}

/// One wrapped model's schedule: its own invocation counter and failure
/// cap, counting each injection once into the injector's [`Totals`].
#[derive(Debug)]
struct FaultCore {
    plan: FaultPlan,
    invocations: AtomicU64,
    injected: AtomicU64,
    totals: Arc<Totals>,
}

enum Decision {
    Pass,
    Spike(f64),
    Fail(u64),
}

impl FaultCore {
    fn new(plan: FaultPlan, totals: &Arc<Totals>) -> Self {
        Self {
            plan,
            invocations: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            totals: Arc::clone(totals),
        }
    }

    /// Decides the fate of the next invocation. The injected-failure cap
    /// is enforced with a compare-exchange loop so concurrent callers
    /// never overshoot `fail_limit`.
    fn decide(&self) -> Decision {
        let n = self.invocations.fetch_add(1, Ordering::Relaxed) + 1;
        let p = &self.plan;
        let scheduled_fail = p.every_nth.map(|k| n.is_multiple_of(k)).unwrap_or(false)
            || (p.failure_prob > 0.0 && unit(p.seed, n, 0x0FA1) < p.failure_prob);
        if scheduled_fail {
            let mut cur = self.injected.load(Ordering::Relaxed);
            loop {
                if p.fail_limit.is_some_and(|lim| cur >= lim) {
                    break; // healed: fall through to the spike check
                }
                match self.injected.compare_exchange(
                    cur,
                    cur + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.totals.injected.fetch_add(1, Ordering::Relaxed);
                        return Decision::Fail(cur + 1);
                    }
                    Err(seen) => cur = seen,
                }
            }
        }
        if p.latency_spike_prob > 0.0
            && p.latency_spike_ms > 0.0
            && unit(p.seed, n, 0x517E) < p.latency_spike_prob
        {
            self.totals.spikes.fetch_add(1, Ordering::Relaxed);
            return Decision::Spike(p.latency_spike_ms);
        }
        Decision::Pass
    }

    fn apply<T>(
        &self,
        model: &str,
        clock: &Clock,
        run: impl FnOnce() -> T,
    ) -> Result<T, ModelFault> {
        match self.decide() {
            Decision::Fail(k) => Err(ModelFault::new(model, format!("injected fault #{k}"))),
            Decision::Spike(ms) => {
                clock.wait_labeled(FAULT_SPIKE_LABEL, ms);
                Ok(run())
            }
            Decision::Pass => Ok(run()),
        }
    }
}

/// Wraps models with a shared, seeded fault schedule and exposes the
/// injection counters the chaos suite asserts against.
///
/// Each wrapped model gets its *own* invocation counter (schedules are
/// per model instance), but all wrappers share the injector's aggregate
/// counters, so a test can ask "how many faults did this injector cause
/// in total" regardless of which stage absorbed them.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    totals: Arc<Totals>,
}

impl FaultInjector {
    /// Creates an injector applying `plan` to every model it wraps.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            totals: Arc::default(),
        }
    }

    /// Total failures injected across all wrapped models.
    pub fn injected_faults(&self) -> u64 {
        self.totals.injected.load(Ordering::Relaxed)
    }

    /// Total latency spikes injected across all wrapped models.
    pub fn injected_spikes(&self) -> u64 {
        self.totals.spikes.load(Ordering::Relaxed)
    }

    /// Wraps a detector; its `try_detect_batch` follows the schedule.
    pub fn wrap_detector(&self, inner: Arc<dyn Detector>) -> Arc<dyn Detector> {
        Arc::new(FaultyDetector {
            inner,
            core: FaultCore::new(self.plan, &self.totals),
        })
    }

    /// Wraps a classifier; its `try_classify_batch*` follow the schedule.
    pub fn wrap_classifier(&self, inner: Arc<dyn Classifier>) -> Arc<dyn Classifier> {
        Arc::new(FaultyClassifier {
            inner,
            core: FaultCore::new(self.plan, &self.totals),
        })
    }

    /// Wraps a frame classifier; its `try_predict_batch` follows the
    /// schedule.
    pub fn wrap_frame_classifier(
        &self,
        inner: Arc<dyn FrameClassifier>,
    ) -> Arc<dyn FrameClassifier> {
        Arc::new(FaultyFrameClassifier {
            inner,
            core: FaultCore::new(self.plan, &self.totals),
        })
    }
}

struct FaultyDetector {
    inner: Arc<dyn Detector>,
    core: FaultCore,
}

impl Detector for FaultyDetector {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn detect(&self, frame: &vqpy_video::frame::Frame, clock: &Clock) -> Vec<Detection> {
        self.inner.detect(frame, clock)
    }

    fn detect_batch(
        &self,
        frames: &[&vqpy_video::frame::Frame],
        clock: &Clock,
    ) -> Vec<Vec<Detection>> {
        self.inner.detect_batch(frames, clock)
    }

    fn try_detect_batch(
        &self,
        frames: &[&vqpy_video::frame::Frame],
        clock: &Clock,
    ) -> Result<Vec<Vec<Detection>>, ModelFault> {
        self.core.apply(&self.inner.profile().name, clock, || {
            self.inner.detect_batch(frames, clock)
        })
    }
}

struct FaultyClassifier {
    inner: Arc<dyn Classifier>,
    core: FaultCore,
}

impl Classifier for FaultyClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn classify(&self, frame: &vqpy_video::frame::Frame, det: &Detection, clock: &Clock) -> Value {
        self.inner.classify(frame, det, clock)
    }

    fn classify_batch(
        &self,
        frame: &vqpy_video::frame::Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Vec<Value> {
        self.inner.classify_batch(frame, dets, clock)
    }

    fn classify_batch_jobs(
        &self,
        jobs: &[(&vqpy_video::frame::Frame, &[Detection])],
        clock: &Clock,
    ) -> Vec<Vec<Value>> {
        self.inner.classify_batch_jobs(jobs, clock)
    }

    fn try_classify_batch(
        &self,
        frame: &vqpy_video::frame::Frame,
        dets: &[Detection],
        clock: &Clock,
    ) -> Result<Vec<Value>, ModelFault> {
        self.core.apply(&self.inner.profile().name, clock, || {
            self.inner.classify_batch(frame, dets, clock)
        })
    }

    fn try_classify_batch_jobs(
        &self,
        jobs: &[(&vqpy_video::frame::Frame, &[Detection])],
        clock: &Clock,
    ) -> Result<Vec<Vec<Value>>, ModelFault> {
        self.core.apply(&self.inner.profile().name, clock, || {
            self.inner.classify_batch_jobs(jobs, clock)
        })
    }
}

struct FaultyFrameClassifier {
    inner: Arc<dyn FrameClassifier>,
    core: FaultCore,
}

impl FrameClassifier for FaultyFrameClassifier {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn predict(&self, frame: &vqpy_video::frame::Frame, clock: &Clock) -> bool {
        self.inner.predict(frame, clock)
    }

    fn predict_batch(&self, frames: &[&vqpy_video::frame::Frame], clock: &Clock) -> Vec<bool> {
        self.inner.predict_batch(frames, clock)
    }

    fn try_predict_batch(
        &self,
        frames: &[&vqpy_video::frame::Frame],
        clock: &Clock,
    ) -> Result<Vec<bool>, ModelFault> {
        self.core.apply(&self.inner.profile().name, clock, || {
            self.inner.predict_batch(frames, clock)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::SimDetector;
    use vqpy_video::{presets, Scene, SyntheticVideo, VideoSource};

    fn detector() -> Arc<dyn Detector> {
        Arc::new(SimDetector::general("det", &["car"], 10.0, 0.95, 7))
    }

    fn a_frame() -> vqpy_video::Frame {
        SyntheticVideo::new(Scene::generate(presets::banff(), 3, 1.0)).frame(0)
    }

    #[test]
    fn every_nth_schedule_is_exact() {
        let inj = FaultInjector::new(FaultPlan::every_nth(7, 3));
        let det = inj.wrap_detector(detector());
        let frame = a_frame();
        let clock = Clock::new();
        let mut failures = Vec::new();
        for n in 1..=9u64 {
            let r = det.try_detect_batch(&[&frame], &clock);
            if r.is_err() {
                failures.push(n);
            }
        }
        assert_eq!(failures, vec![3, 6, 9]);
        assert_eq!(inj.injected_faults(), 3);
    }

    #[test]
    fn schedule_is_deterministic_across_runs() {
        let run = || {
            let inj = FaultInjector::new(FaultPlan::with_failure_prob(42, 0.3));
            let det = inj.wrap_detector(detector());
            let frame = a_frame();
            let clock = Clock::new();
            (0..50)
                .map(|_| det.try_detect_batch(&[&frame], &clock).is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(
            a.iter().any(|&f| f),
            "prob 0.3 over 50 must fail at least once"
        );
        assert!(
            !a.iter().all(|&f| f),
            "prob 0.3 over 50 must not always fail"
        );
    }

    #[test]
    fn heal_after_caps_injected_failures() {
        let inj = FaultInjector::new(FaultPlan::every_nth(1, 1).heal_after(2));
        let det = inj.wrap_detector(detector());
        let frame = a_frame();
        let clock = Clock::new();
        let errs = (0..10)
            .filter(|_| det.try_detect_batch(&[&frame], &clock).is_err())
            .count();
        assert_eq!(errs, 2);
        assert_eq!(inj.injected_faults(), 2);
    }

    #[test]
    fn surviving_calls_return_real_results() {
        let inner = detector();
        let inj = FaultInjector::new(FaultPlan::every_nth(1, 2));
        let det = inj.wrap_detector(Arc::clone(&inner));
        let frame = a_frame();
        let clock = Clock::new();
        let got = det
            .try_detect_batch(&[&frame], &clock)
            .expect("1st survives");
        let want = inner.detect_batch(&[&frame], &Clock::new());
        assert_eq!(got, want);
    }

    #[test]
    fn latency_spikes_charge_the_clock() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            latency_spike_prob: 1.0,
            latency_spike_ms: 25.0,
            ..FaultPlan::default()
        });
        let det = inj.wrap_detector(detector());
        let frame = a_frame();
        let clock = Clock::new();
        det.try_detect_batch(&[&frame], &clock)
            .expect("spike survives");
        let spike = clock.stat(FAULT_SPIKE_LABEL).expect("spike charged");
        assert_eq!(spike.units, 25.0);
        assert_eq!(inj.injected_spikes(), 1);
    }

    #[test]
    fn concurrent_calls_count_each_spike_once() {
        use crate::clock::ClockMode;
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            latency_spike_prob: 1.0,
            latency_spike_ms: 5.0,
            ..FaultPlan::default()
        });
        let det = inj.wrap_detector(detector());
        let frame = a_frame();
        // A sleeping clock holds each call in its spike, so calls on the
        // one wrapped model overlap.
        let clock = Clock::with_mode(ClockMode::Latency);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5 {
                        det.try_detect_batch(&[&frame], &clock)
                            .expect("spikes survive");
                    }
                });
            }
        });
        assert_eq!(inj.injected_spikes(), 20);
    }
}
