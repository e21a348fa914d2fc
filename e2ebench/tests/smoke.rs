//! Every workload at its `--smoke` size, untraced and traced: the
//! harness compiles, its oracle checks pass, and every declared metric
//! comes out. No bounds are applied at this size.

use e2ebench::metrics::{of_report, result_line, END_TO_END, PER_LAYER};
use e2ebench::run::Scale;
use e2ebench::trace::Trace;
use e2ebench::workloads::{Ctx, ALL};
use std::sync::Arc;
use vqpy_bench::json::Json;

fn run_smoke(name: &str, seed: u64, traced: bool) {
    let workload = e2ebench::workloads::by_name(name).expect("a declared workload");
    let ctx = Ctx {
        seed,
        scale: Scale::smoke(),
        trace: traced.then(|| Arc::new(Trace::new())),
    };
    let report = (workload.run)(&ctx);
    assert_eq!(
        report.checks.failed, 0,
        "{name} (traced: {traced}) failed its checks: {:?}",
        report.checks.notes
    );
    assert!(report.checks.attempted >= 1);
    assert!(!report.reps.is_empty() && !report.setups.is_empty());
    let metrics = of_report(&report, traced);
    if traced {
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(
            report
                .layers
                .keys()
                .all(|k| PER_LAYER.iter().any(|m| m.0 == *k)),
            "{name} reported an undeclared per-layer metric"
        );
        let decode = report.layers["video.decode_us_per_frame"];
        assert!(decode > 0.0, "{name}: the timed source saw no decode");
        let trace = ctx.trace.as_ref().unwrap();
        assert!(trace.spans().iter().any(|s| s.timed));
    } else {
        assert_eq!(metrics.len(), END_TO_END.len());
        for (metric, _, value) in &metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name}: end-to-end metric {metric} must never be 0, got {value}"
            );
        }
    }
    let line = result_line(true, report.checks.attempted, 0, &metrics);
    assert!(
        Json::parse(&line).is_some(),
        "{name}: the result line is JSON"
    );
}

// One test per workload so they run in parallel and fail separately.
// Two seeds each: the oracle must hold on more than the default inputs.

#[test]
fn offline_shared() {
    run_smoke("offline_shared", 12, false);
    run_smoke("offline_shared", 77, true);
}

#[test]
fn serve_saturated() {
    run_smoke("serve_saturated", 12, false);
    run_smoke("serve_saturated", 77, true);
}

#[test]
fn serve_paced() {
    run_smoke("serve_paced", 12, false);
    run_smoke("serve_paced", 77, true);
}

#[test]
fn store_ingest() {
    run_smoke("store_ingest", 12, false);
    run_smoke("store_ingest", 77, true);
}

#[test]
fn store_replay() {
    run_smoke("store_replay", 12, false);
    run_smoke("store_replay", 77, true);
}

#[test]
fn serve_device() {
    run_smoke("serve_device", 12, false);
    run_smoke("serve_device", 77, true);
}

#[test]
fn the_workload_list_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    m.get("unit").and_then(Json::as_str).map(str::to_owned),
                )
            })
            .collect()
    };
    let declared: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    let run: Vec<&str> = ALL.iter().map(|w| w.name).collect();
    assert_eq!(declared, run);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<(String, Option<String>)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(
            names(key),
            want,
            "{key} of BENCHMARK.json and metrics.rs disagree"
        );
    }
}
