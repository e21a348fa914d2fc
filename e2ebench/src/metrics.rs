//! The metric names and units, exactly as `BENCHMARK.json` declares
//! them, and the result line the driver reads.

use crate::run::Report;
use std::collections::BTreeMap;

/// End-to-end metrics: printed by an untraced run (`--trace 0`), by
/// every workload.
///
/// `device_ms_per_frame` is modelled accelerator time, a *count* that
/// repeats exactly on the virtual clock, so its unit is `sim_ms`, not a
/// measured `ms`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("host_us_per_frame", "us"),
    ("device_ms_per_frame", "sim_ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by a traced run (`--trace 1`), by every
/// workload; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("video.decode_us_per_frame", "us"),
    ("video.decodes_per_frame", "count"),
    ("video.frame_kb", "KB"),
    ("models.detect_us_per_frame", "us"),
    ("models.classify_us_per_crop", "us"),
    ("models.crops_per_frame", "count"),
    ("models.detect_device_ms_per_frame", "sim_ms"),
    ("models.classify_device_ms_per_frame", "sim_ms"),
    ("models.store_read_device_ms_per_frame", "sim_ms"),
    ("models.invocations_per_frame", "count"),
    ("models.device_busy_share", "ratio"),
    ("models.color_oracle_mismatch_subs", "count"),
    ("tracker.update_us_per_frame", "us"),
    ("tracker.live_tracks_mean", "count"),
    ("core.plan_build_ms", "ms"),
    ("core.canary_ms", "ms"),
    ("core.plan_candidates", "count"),
    ("core.plan_ops", "count"),
    ("core.exec_self_us_per_frame", "us"),
    ("core.dispatch_calls_per_frame", "count"),
    ("core.dispatch_items_per_call", "count"),
    ("core.reuse_hits_per_frame", "count"),
    ("core.reuse_hit_share", "ratio"),
    ("core.allocs_per_frame", "count"),
    ("core.alloc_kb_per_frame", "KB"),
    ("serve.step_us_p50", "us"),
    ("serve.step_us_p99", "us"),
    ("serve.step_self_us_per_frame", "us"),
    ("serve.drain_us_per_event", "us"),
    ("serve.events_per_frame", "count"),
    ("serve.events_dropped_share", "ratio"),
    ("serve.attach_ms", "ms"),
    ("serve.sched_late_us_p50", "us"),
    ("serve.sched_late_us_p99", "us"),
    ("serve.exec_to_recv_us_p50", "us"),
    ("serve.delivery_p50_ms", "ms"),
    ("serve.delivery_p95_ms", "ms"),
    ("serve.delivery_p99_ms", "ms"),
    ("serve.delivery_max_ms", "ms"),
    ("serve.delivery_samples", "count"),
    ("serve.delivery_late_share", "ratio"),
    ("serve.ticks_shed", "count"),
    ("serve.backlog_max", "count"),
    ("serve.shard_cpu_share", "ratio"),
    ("serve.batcher_coalesced_detect", "count"),
    ("serve.batcher_coalesced_classify", "count"),
    ("serve.batcher_max_batch_frames", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.model_faults", "count"),
    ("store.append_us_per_frame", "us"),
    ("store.load_range_us_per_frame", "us"),
    ("store.replay_hit_share", "ratio"),
    ("store.bytes_per_frame", "B"),
    ("store.segments", "count"),
    ("store.reopen_ms", "ms"),
    ("store.corrupt_segments", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_per_frame", "count"),
    ("bench.rep_spread_pct", "%"),
    ("bench.wall_over_cpu", "ratio"),
    ("bench.consumer_gap_us_p99", "us"),
];

/// The metrics of a finished run in declaration order: the end-to-end
/// set of an untraced run, the per-layer set of a traced one.
pub fn of_report(report: &Report, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values: BTreeMap<_, _> = report.end_to_end().into_iter().collect();
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, values[name]))
            .collect()
    }
}

/// A JSON number with every digit the measurement has. Non-finite
/// values (a division that had nothing to divide) read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The one-line JSON object the driver reads from the last line of
/// standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_bench::json::Json;

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[("latency_ms", "ms", 1.2034), ("bad", "s", f64::NAN)],
        );
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.path("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(doc.path("failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            doc.path("metrics.latency_ms.value").and_then(Json::as_f64),
            Some(1.2034)
        );
        assert_eq!(
            doc.path("metrics.latency_ms.unit").and_then(Json::as_str),
            Some("ms")
        );
        assert_eq!(
            doc.path("metrics.bad.value").and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(line.starts_with("{\"correct\": true, "));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
