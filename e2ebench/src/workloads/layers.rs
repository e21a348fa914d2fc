//! Folding what a traced run saw — spans, the clock's labelled charges,
//! the public stats structs, the replay drivers — into the per-layer
//! metrics.

use super::Passes;
use crate::run::{fps_samples, host_us_samples, mean_host_us, wall_over_cpu, Rep};
use crate::stats::{best, ratio, spread_pct, Better};
use crate::timed::DetectionLog;
use crate::trace::{LayerTotals, Trace};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::ExecMetrics;
use vqpy_models::clock::ChargeStat;
use vqpy_models::{Clock, ModelZoo};
use vqpy_serve::STORE_READ_LABEL;
use vqpy_tracker::sort::{SortTracker, TrackerParams};
use vqpy_video::geometry::BBox;
use vqpy_video::Scene;

/// Per-layer metrics by name. Names are checked against
/// [`crate::metrics::PER_LAYER`] when set.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// The clock's labelled charges between two snapshots.
pub fn clock_delta(
    before: &HashMap<String, ChargeStat>,
    after: &HashMap<String, ChargeStat>,
) -> HashMap<String, ChargeStat> {
    after
        .iter()
        .map(|(label, a)| {
            let b = before.get(label).copied().unwrap_or_default();
            (
                label.clone(),
                ChargeStat {
                    invocations: a.invocations - b.invocations,
                    units: a.units - b.units,
                },
            )
        })
        .collect()
}

/// Adds `delta` into `total`.
pub fn clock_add(total: &mut HashMap<String, ChargeStat>, delta: HashMap<String, ChargeStat>) {
    for (label, d) in delta {
        let t = total.entry(label).or_default();
        t.invocations += d.invocations;
        t.units += d.units;
    }
}

impl Layers {
    /// `video.*`, `models.*_us_*`, `core.dispatch_*`, `obs.spans_per_frame`
    /// from the spans of the timed phases; returns the per-name totals.
    pub fn from_spans(
        &mut self,
        trace: &Trace,
        frames: u64,
    ) -> BTreeMap<&'static str, LayerTotals> {
        let timed = trace.summarize(true);
        let setup = trace.summarize(false);
        let get = |m: &BTreeMap<&'static str, LayerTotals>, n: &str| {
            m.get(n).copied().unwrap_or_default()
        };
        let n = frames as f64;
        let decode = get(&timed, "video.decode");
        self.set(
            "video.decode_us_per_frame",
            ratio(decode.total_ns as f64 / 1e3, n),
        );
        self.set(
            "video.decodes_per_frame",
            ratio((decode.count + get(&setup, "video.decode").count) as f64, n),
        );
        let detect = get(&timed, "models.detect");
        self.set(
            "models.detect_us_per_frame",
            ratio(detect.total_ns as f64 / 1e3, n),
        );
        let classify = get(&timed, "models.classify");
        self.set(
            "models.classify_us_per_crop",
            ratio(classify.total_ns as f64 / 1e3, classify.items as f64),
        );
        self.set("models.crops_per_frame", ratio(classify.items as f64, n));
        // Calls across the dispatch boundary: its own spans where the
        // harness could install the timed dispatcher, otherwise the model
        // calls behind it (one per dispatch when nothing coalesces).
        let dispatch = get(&timed, "core.dispatch");
        let (calls, items) = if dispatch.count > 0 {
            (dispatch.count, dispatch.items)
        } else {
            let predict = get(&timed, "models.predict");
            (
                detect.count + classify.count + predict.count,
                detect.items + classify.items + predict.items,
            )
        };
        self.set("core.dispatch_calls_per_frame", ratio(calls as f64, n));
        self.set(
            "core.dispatch_items_per_call",
            ratio(items as f64, calls as f64),
        );
        let spans: u64 = timed.values().map(|t| t.count).sum();
        self.set("obs.spans_per_frame", ratio(spans as f64, n));
        timed
    }

    /// `serve.attach_ms` of the supervisor workloads: milliseconds spent
    /// in `add_stream`, all streams of the traced run.
    pub fn from_add_stream(&mut self, trace: &Trace) {
        let ns: u64 = trace.read(|spans| {
            spans
                .iter()
                .filter(|s| s.name == "serve.add_stream")
                .map(|s| s.dur_ns())
                .sum()
        });
        self.set("serve.attach_ms", ns as f64 / 1e6);
    }

    /// `video.frame_kb`: the pixel buffer one decoded frame carries.
    pub fn from_first_frame(&mut self, scene: &Scene) {
        use vqpy_video::source::VideoSource;
        let frame = vqpy_video::SyntheticVideo::new(scene.clone()).frame(0);
        self.set("video.frame_kb", frame.pixels.data().len() as f64 / 1024.0);
    }

    /// `models.*_device_ms_per_frame` and `models.invocations_per_frame`
    /// from the clock's labelled charges over the timed phases.
    pub fn from_clock(
        &mut self,
        zoo: &ModelZoo,
        charges: &HashMap<String, ChargeStat>,
        frames: u64,
    ) {
        let (mut detect, mut classify, mut store_read) = (0.0, 0.0, 0.0);
        let mut invocations = 0u64;
        for (label, stat) in charges {
            if zoo.detector(label).is_ok() {
                detect += stat.units;
            } else if zoo.classifier(label).is_ok() {
                classify += stat.units;
            } else if label == STORE_READ_LABEL {
                store_read += stat.units;
                continue;
            } else {
                continue;
            }
            invocations += stat.invocations;
        }
        let n = frames as f64;
        self.set("models.detect_device_ms_per_frame", ratio(detect, n));
        self.set("models.classify_device_ms_per_frame", ratio(classify, n));
        self.set(
            "models.store_read_device_ms_per_frame",
            ratio(store_read, n),
        );
        self.set("models.invocations_per_frame", ratio(invocations as f64, n));
    }

    /// `models.device_busy_share`: modelled device busy time over the
    /// wall time of the run (latency clock with a device pool only).
    pub fn from_devices(&mut self, clock: &Clock, wall_s: f64) {
        let stats = clock.device_stats();
        let busy_ms: f64 = stats.iter().map(|d| d.busy_ms).sum();
        self.set(
            "models.device_busy_share",
            ratio(busy_ms / 1e3, wall_s * stats.len() as f64),
        );
    }

    /// `core.reuse_*` from the executor's own counters.
    pub fn from_exec(&mut self, exec: &ExecMetrics) {
        let frames = exec.frames_total as f64;
        self.set(
            "core.reuse_hits_per_frame",
            ratio(exec.reuse.hits as f64, frames),
        );
        self.set("core.reuse_hit_share", exec.reuse.hit_rate());
    }

    /// `core.allocs_per_frame`, `core.alloc_kb_per_frame` from the
    /// counting allocator over the timed phases.
    pub fn from_allocs(&mut self, allocs: u64, bytes: u64, frames: u64) {
        self.set("core.allocs_per_frame", ratio(allocs as f64, frames as f64));
        self.set(
            "core.alloc_kb_per_frame",
            ratio(bytes as f64 / 1024.0, frames as f64),
        );
    }

    /// `tracker.*`: the logged detections of one video replayed through
    /// fresh trackers — one per alias the queries track (vehicles,
    /// people), as the plan's `TrackOp`s do. Returns µs per frame.
    pub fn from_tracker_replay(&mut self, log: &DetectionLog) -> f64 {
        let frames = log.take();
        let is_vehicle = |label: &str| matches!(label, "car" | "bus" | "truck");
        let mut vehicles = SortTracker::new(TrackerParams::default());
        let mut people = SortTracker::new(TrackerParams::default());
        let (mut live, mut ns) = (0usize, 0u128);
        for (_, dets) in &frames {
            let pick = |want_vehicle: bool| -> Vec<(BBox, &str)> {
                dets.iter()
                    .filter(|(_, l)| {
                        is_vehicle(l) == want_vehicle && (want_vehicle || l == "person")
                    })
                    .map(|(b, l)| (*b, l.as_str()))
                    .collect()
            };
            let (v, p) = (pick(true), pick(false));
            let t = Instant::now();
            std::hint::black_box(vehicles.update(&v));
            std::hint::black_box(people.update(&p));
            ns += t.elapsed().as_nanos();
            live += vehicles.live_tracks() + people.live_tracks();
        }
        let n = frames.len() as f64;
        let us_per_frame = ratio(ns as f64 / 1e3, n);
        self.set("tracker.update_us_per_frame", us_per_frame);
        self.set("tracker.live_tracks_mean", ratio(live as f64, n));
        us_per_frame
    }

    /// `obs.trace_overhead_pct`, `bench.*` from the two passes of a
    /// traced run: the same repetitions without and with interposers.
    pub fn from_passes(&mut self, plain: &[Rep], traced: &[Rep]) {
        let host = |reps: &[Rep]| best(&host_us_samples(reps), Better::Lower);
        let (p, t) = (host(plain), host(traced));
        self.set("obs.trace_overhead_pct", ratio(t - p, p) * 100.0);
        self.set("bench.rep_spread_pct", spread_pct(&fps_samples(plain)));
        self.set("bench.wall_over_cpu", wall_over_cpu(plain));
    }

    /// Everything the repeated workloads share: folds the traced
    /// repetitions' spans and [`Counters`] into the video, models, core,
    /// tracker, obs and bench metrics. `scene` is any one of the run's
    /// scenes (for the frame size).
    pub fn from_repetitions<T>(
        &mut self,
        trace: &Trace,
        passes: &Passes<T>,
        counters: impl Fn(&T) -> &Counters,
        scene: &Scene,
    ) -> Folded {
        let frames: u64 = passes.traced.iter().map(|s| s.rep.frames).sum();
        let timed = self.from_spans(trace, frames);
        let mut charges = HashMap::new();
        let mut exec = ExecMetrics::default();
        let (mut allocs, mut bytes, mut mismatches, mut events) = (0, 0, 0, 0);
        for c in passes.traced.iter().map(|s| counters(&s.extra)) {
            clock_add(&mut charges, c.charges.clone());
            exec.absorb(&c.exec);
            allocs += c.allocs.0;
            bytes += c.allocs.1;
            mismatches += c.colour_mismatches;
            events += c.events;
        }
        self.from_clock(&ModelZoo::standard(), &charges, frames);
        if exec.frames_total > 0 {
            self.from_exec(&exec);
        }
        self.from_allocs(allocs, bytes, frames);
        self.from_first_frame(scene);
        self.set("models.color_oracle_mismatch_subs", mismatches as f64);
        self.set(
            "serve.events_per_frame",
            ratio(events as f64, frames as f64),
        );
        // The detectors logged the last traced repetition's first video.
        let tracker_us = passes
            .traced
            .last()
            .and_then(|s| counters(&s.extra).log.as_ref())
            .map_or(0.0, |log| self.from_tracker_replay(log));
        let plain: Vec<Rep> = passes.plain.iter().map(|s| s.rep).collect();
        let traced: Vec<Rep> = passes.traced.iter().map(|s| s.rep).collect();
        self.from_passes(&plain, &traced);
        Folded {
            frames,
            // Means on both sides: the two passes interleave, so a slow
            // spell of the machine weighs on both alike.
            self_time_check: format!(
                "traced self times sum to {:.2} us/frame; untraced host is {:.2} us/frame \
                 (means over the interleaved repetitions)",
                self_time_us_per_frame(&timed, frames),
                mean_host_us(&plain)
            ),
            timed,
            tracker_us,
        }
    }
}

/// What a repetition of any repeated workload keeps for the per-layer
/// metrics, beyond its timings.
#[derive(Default)]
pub struct Counters {
    /// The clock's labelled charges over the timed phase.
    pub charges: HashMap<String, ChargeStat>,
    /// The executor's own counters.
    pub exec: ExecMetrics,
    /// `(allocations, bytes)` of the timed phase (traced repetitions).
    pub allocs: (u64, u64),
    /// Colour subscriptions whose hits differ from the oracle's.
    pub colour_mismatches: u64,
    /// Events received.
    pub events: u64,
    /// The log the zoo's detectors fed (traced repetitions).
    pub log: Option<Arc<DetectionLog>>,
}

/// What [`Layers::from_repetitions`] hands back for the
/// workload-specific metrics.
pub struct Folded {
    /// Frames of the traced repetitions' timed phases.
    pub frames: u64,
    /// Per-name span totals of the timed phases.
    pub timed: BTreeMap<&'static str, LayerTotals>,
    /// The tracker replay's µs per frame.
    pub tracker_us: f64,
    /// The line holding the trace's self times against the untraced
    /// host time.
    pub self_time_check: String,
}

/// Sum of every layer's self time per frame, in µs: what the trace says
/// a frame costs, to hold against the untraced `host_us_per_frame`.
pub fn self_time_us_per_frame(timed: &BTreeMap<&'static str, LayerTotals>, frames: u64) -> f64 {
    ratio(
        timed.values().map(|t| t.self_ns).sum::<u64>() as f64 / 1e3,
        frames as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_deltas_subtract_per_label() {
        let stat = |invocations, units| ChargeStat { invocations, units };
        let before = HashMap::from([("yolox".to_string(), stat(2, 60.0))]);
        let after = HashMap::from([
            ("yolox".to_string(), stat(5, 150.0)),
            ("color_detect".to_string(), stat(4, 20.0)),
        ]);
        let d = clock_delta(&before, &after);
        assert_eq!(d["yolox"], stat(3, 90.0));
        assert_eq!(d["color_detect"], stat(4, 20.0));
        let mut total = d.clone();
        clock_add(&mut total, d);
        assert_eq!(total["yolox"], stat(6, 180.0));
    }

    #[test]
    fn clock_charges_split_by_model_kind() {
        let zoo = ModelZoo::standard();
        let stat = |invocations, units| ChargeStat { invocations, units };
        let charges = HashMap::from([
            ("yolox".to_string(), stat(10, 300.0)),
            ("color_detect".to_string(), stat(4, 20.0)),
            ("store_read".to_string(), stat(10, 0.5)),
            ("video_decode".to_string(), stat(10, 30.0)),
        ]);
        let mut l = Layers::default();
        l.from_clock(&zoo, &charges, 10);
        assert_eq!(l.0["models.detect_device_ms_per_frame"], 30.0);
        assert_eq!(l.0["models.classify_device_ms_per_frame"], 2.0);
        assert_eq!(l.0["models.store_read_device_ms_per_frame"], 0.05);
        assert_eq!(l.0["models.invocations_per_frame"], 1.4);
    }

    #[test]
    fn overhead_compares_the_two_passes() {
        let rep = |cpu_s| Rep {
            wall_s: cpu_s,
            cpu_s,
            frames: 1000,
            device_ms: 0.0,
        };
        let mut l = Layers::default();
        l.from_passes(&[rep(1.0), rep(1.0), rep(1.0)], &[rep(1.05), rep(1.05)]);
        assert!((l.0["obs.trace_overhead_pct"] - 5.0).abs() < 1e-9);
        assert_eq!(l.0["bench.rep_spread_pct"], 0.0);
        assert_eq!(l.0["bench.wall_over_cpu"], 1.0);
    }
}
