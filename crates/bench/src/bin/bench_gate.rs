//! The CI bench-regression gate.
//!
//! Reads the *committed* `BENCH_exec.json` / `BENCH_serve.json` baselines,
//! re-runs the smoke benches (which rewrite those files in the working
//! tree), and compares the key **ratios** — pipelined-vs-sequential
//! speedups, the shared-batcher-vs-per-stream scaling speedups per stream
//! count, and the device-pool speedups — against the committed values
//! within a tolerance. Only ratios of real overlap are gated here: a
//! device-work ratio the virtual clock states exactly (shared super-plan,
//! stored replay) is a row of `REPRODUCTION.json`. One absolute metric
//! rides along: the sharded supervisor's delivered fps at 64 paced
//! streams on 4 shards, which the pacing schedule pins to a
//! machine-independent ceiling. Ratios, not absolute
//! fps: under the virtual-latency clock the serving speedups are
//! dominated by device sleeps and are near machine-independent; the
//! pipelined-vs-sequential exec speedups also contain real host work
//! (decode) and therefore *rise* with core count. The check is one-sided
//! (fail only below the floor) and the committed baselines are generated
//! on a deliberately modest 1-core container, so a beefier CI runner
//! biases toward passing — regenerate the baselines from the CI
//! artifact, not from a fast dev machine, or the floor loses meaning.
//! Exits nonzero on regression so CI fails the job; the freshly
//! generated JSON is left in the working tree for upload as a workflow
//! artifact. A missing or malformed baseline file/section is flagged
//! with a clear warning and skipped rather than panicking — the gate
//! only hard-fails when *no* committed metric is left to compare.
//!
//! Usage: `cargo run --release -p vqpy-bench --bin bench_gate --
//! [--tolerance 0.15] [--skip-run]`. The bench scale is taken from
//! `VQPY_BENCH_SCALE` (defaulting to the committed baselines' 0.2) and
//! passed through to the bench subprocesses — gate and baselines must run
//! at the same scale for ratios to be comparable.

use std::path::{Path, PathBuf};
use std::process::Command;
use vqpy_bench::json::Json;

/// One gated ratio extracted from a report file.
struct Metric {
    name: String,
    value: f64,
}

struct Comparison {
    name: String,
    committed: f64,
    fresh: f64,
    floor: f64,
    ok: bool,
}

/// Every warn/skip names exactly where in which report it came from —
/// `[ctx file :: section.key]` — so a CI log line is actionable without
/// opening the JSON.
fn warn_skip(ctx: &str, file: &str, section_key: &str, why: &str) {
    eprintln!("bench_gate: WARNING: [{ctx} {file} :: {section_key}] {why}");
}

/// Reads and parses one report. A missing or malformed file is flagged
/// loudly but does not abort the gate: the remaining reports' metrics are
/// still compared (and an empty committed set fails cleanly in `main`).
fn read_json(path: &Path, ctx: &str) -> Option<Json> {
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            warn_skip(
                ctx,
                &file,
                "<whole file>",
                &format!(
                    "unreadable ({e}); all of its metrics are skipped — \
                     regenerate the report and commit it to restore gate coverage"
                ),
            );
            return None;
        }
    };
    let parsed = Json::parse(&doc);
    if parsed.is_none() {
        warn_skip(
            ctx,
            &file,
            "<whole file>",
            "malformed JSON; all of its metrics are skipped — regenerate the \
             report and commit it",
        );
    }
    parsed
}

/// Pipelined-vs-sequential speedups per query from `BENCH_exec.json`.
fn exec_metrics(doc: &Json, ctx: &str) -> Vec<Metric> {
    let mut out = Vec::new();
    match doc.path("queries").and_then(Json::as_arr) {
        Some(queries) => {
            for (i, q) in queries.iter().enumerate() {
                match (
                    q.get("query").and_then(Json::as_str),
                    q.get("speedup").and_then(Json::as_f64),
                ) {
                    (Some(name), Some(speedup)) => out.push(Metric {
                        name: format!("exec.pipelined_speedup.{name}"),
                        value: speedup,
                    }),
                    (name, _) => {
                        let missing = if name.is_none() {
                            format!("queries[{i}].query")
                        } else {
                            format!("queries[{i}].speedup")
                        };
                        warn_skip(
                            ctx,
                            "BENCH_exec.json",
                            &missing,
                            "key missing or wrong type; this row's exec speedup \
                             is not gated this run",
                        );
                    }
                }
            }
        }
        None => warn_skip(
            ctx,
            "BENCH_exec.json",
            "queries",
            "section missing; exec speedups are not gated this run",
        ),
    }
    out
}

/// Multi-stream and device scaling speedups from `BENCH_serve.json`.
fn serve_metrics(doc: &Json, ctx: &str) -> Vec<Metric> {
    let mut out = Vec::new();
    // Device-scaling speedups (devices=1 vs n under `DeviceModel::Devices`)
    // joined the report with the placement work: a committed baseline
    // without the section merely warns, it never fails the gate.
    match doc.path("device_scale.table").and_then(Json::as_arr) {
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                match (
                    row.get("devices").and_then(Json::as_f64),
                    row.get("speedup").and_then(Json::as_f64),
                ) {
                    (Some(devices), Some(speedup)) => {
                        // devices=1 is the ratio's own denominator (1.0x
                        // by construction) — report-only.
                        if devices as u64 > 1 {
                            out.push(Metric {
                                name: format!(
                                    "serve.device_scale_speedup.{}_devices",
                                    devices as u64
                                ),
                                value: speedup,
                            });
                        }
                    }
                    (devices, _) => {
                        let missing = if devices.is_none() {
                            format!("device_scale.table[{i}].devices")
                        } else {
                            format!("device_scale.table[{i}].speedup")
                        };
                        warn_skip(
                            ctx,
                            "BENCH_serve.json",
                            &missing,
                            "key missing or wrong type; this row's device \
                             scaling is not gated this run",
                        );
                    }
                }
            }
        }
        None => warn_skip(
            ctx,
            "BENCH_serve.json",
            "device_scale.table",
            "section missing (baseline predates device placement?); device \
             scaling is not gated this run — regenerate with `cargo bench -p \
             vqpy-bench --bench device_scale` and commit",
        ),
    }
    match doc.path("scaling.table").and_then(Json::as_arr) {
        Some(rows) => {
            for row in rows {
                if let (Some(streams), Some(speedup)) = (
                    row.get("streams").and_then(Json::as_f64),
                    row.get("speedup").and_then(Json::as_f64),
                ) {
                    out.push(Metric {
                        name: format!("serve.scaling_speedup.{}_streams", streams as u64),
                        value: speedup,
                    });
                }
                // Sharded occupancy rows carry no speedup ratio; gate the
                // smallest one's delivered fps instead — at 64 paced
                // streams the event loop runs well under the pace ceiling,
                // so delivered fps is pinned by the pacing schedule and is
                // stable across machines. The larger rows (256/1024) may
                // be host-bound and stay report-only.
                if let (Some(streams), Some(shards), Some(fps)) = (
                    row.get("streams").and_then(Json::as_f64),
                    row.get("shards").and_then(Json::as_f64),
                    row.get("delivered_fps").and_then(Json::as_f64),
                ) {
                    if streams as u64 == 64 {
                        out.push(Metric {
                            name: format!(
                                "serve.sharded_delivered_fps.{}x{}",
                                streams as u64, shards as u64
                            ),
                            value: fps,
                        });
                    }
                }
            }
        }
        None => warn_skip(
            ctx,
            "BENCH_serve.json",
            "scaling.table",
            "section missing; stream-scaling ratios are not gated this run",
        ),
    }
    out
}

/// Telemetry nudge, warn-only: current bench runs embed latency-percentile
/// objects (`frame_latency_ms` inside each query's sequential exec metrics,
/// `latency_ms` inside each scaling row). A committed baseline without them
/// simply predates the telemetry work — percentiles are reported, not
/// ratio-gated, so their absence never fails the gate, but it is worth a
/// loud reminder to regenerate the baseline and pick them up.
fn warn_missing_percentiles(exec: Option<&Json>, serve: Option<&Json>) {
    let exec_has = exec.is_none_or(|doc| {
        doc.path("queries").and_then(Json::as_arr).is_none_or(|qs| {
            qs.iter().all(|q| {
                q.get("sequential_exec")
                    .and_then(|e| e.get("frame_latency_ms"))
                    .is_some()
            })
        })
    });
    if !exec_has {
        warn_skip(
            "committed",
            "BENCH_exec.json",
            "queries[*].sequential_exec.frame_latency_ms",
            "percentile objects missing; regenerate with `cargo bench -p \
             vqpy-bench --bench throughput` to record per-frame p50/p95/p99",
        );
    }
    // Only the batcher-comparison rows (the ones carrying a speedup)
    // record delivery percentiles; sharded occupancy rows do not.
    let serve_has = serve.is_none_or(|doc| {
        doc.path("scaling.table")
            .and_then(Json::as_arr)
            .is_none_or(|rows| {
                rows.iter()
                    .filter(|r| r.get("speedup").is_some())
                    .all(|r| r.get("latency_ms").is_some())
            })
    });
    if !serve_has {
        warn_skip(
            "committed",
            "BENCH_serve.json",
            "scaling.table[*].latency_ms",
            "percentile objects missing; regenerate with `cargo bench -p \
             vqpy-bench --bench serve_scale` to record delivery p50/p95/p99",
        );
    }
}

fn collect(root: &Path, ctx: &str) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let exec_doc = read_json(&root.join("BENCH_exec.json"), ctx);
    let serve_doc = read_json(&root.join("BENCH_serve.json"), ctx);
    if ctx == "committed" {
        warn_missing_percentiles(exec_doc.as_ref(), serve_doc.as_ref());
    }
    if let Some(doc) = exec_doc {
        metrics.extend(exec_metrics(&doc, ctx));
    }
    if let Some(doc) = serve_doc {
        metrics.extend(serve_metrics(&doc, ctx));
    }
    metrics
}

fn run_bench(root: &Path, bench: &str, scale: &str) {
    println!("\n=== bench_gate: running {bench} (scale {scale}) ===");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(root)
        .args(["bench", "-p", "vqpy-bench", "--bench", bench])
        .env("VQPY_BENCH_SCALE", scale)
        .status()
        .unwrap_or_else(|e| panic!("spawn cargo bench {bench}: {e}"));
    assert!(status.success(), "bench {bench} failed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.15f64;
    let mut skip_run = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance takes a number");
            }
            "--skip-run" => skip_run = true,
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let scale = std::env::var("VQPY_BENCH_SCALE").unwrap_or_else(|_| "0.2".into());
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");

    // Committed baselines first — the bench runs rewrite these files.
    let committed = collect(&root, "committed");
    if committed.is_empty() {
        eprintln!(
            "bench_gate: no gated metrics found in the committed BENCH_*.json \
             baselines (see warnings above). Regenerate them with \
             `cargo bench -p vqpy-bench` at VQPY_BENCH_SCALE={scale} and \
             commit the result; the gate cannot pass without a baseline."
        );
        std::process::exit(1);
    }

    if !skip_run {
        for bench in ["throughput", "serve_scale", "device_scale"] {
            run_bench(&root, bench, &scale);
        }
    }

    // Fresh numbers, same extraction.
    let fresh: Vec<Metric> = collect(&root, "fresh");
    let mut comparisons: Vec<Comparison> = Vec::new();
    for m in &committed {
        let floor = m.value * (1.0 - tolerance);
        let (fresh_value, ok) = match fresh.iter().find(|f| f.name == m.name) {
            Some(f) => (f.value, f.value >= floor),
            None => (f64::NAN, false), // metric vanished from the report
        };
        comparisons.push(Comparison {
            name: m.name.clone(),
            committed: m.value,
            fresh: fresh_value,
            floor,
            ok,
        });
    }

    println!(
        "\n=== bench_gate: ratio comparison (tolerance -{:.0}%) ===",
        tolerance * 100.0
    );
    println!(
        "{:<42} {:>10} {:>10} {:>10}  verdict",
        "metric", "committed", "fresh", "floor"
    );
    let mut failed = false;
    for c in &comparisons {
        println!(
            "{:<42} {:>9.3}x {:>9.3}x {:>9.3}x  {}",
            c.name,
            c.committed,
            c.fresh,
            c.floor,
            if c.ok { "ok" } else { "REGRESSION" }
        );
        failed |= !c.ok;
    }
    if failed {
        eprintln!("\nbench_gate: performance regression against committed BENCH_*.json");
        std::process::exit(1);
    }
    println!("\nbench_gate: all ratios within tolerance");
}
