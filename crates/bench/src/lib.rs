//! # vqpy-bench
//!
//! The reproduction's two rulers. [`reproduce`] is the paper's evaluation
//! (§5) as one table on the virtual clock, exact and asserted against
//! `REPRODUCTION.json`; the three bench targets under `benches/` measure
//! what a virtual clock cannot — real overlap under a sleeping clock —
//! and `bench_gate` holds their ratios. This library provides the common
//! workloads, query constructors and report formatting.

pub mod json;
pub mod report;
pub mod reproduce;
pub mod workloads;

/// Reads the wall-clock benches' scale factor from `VQPY_BENCH_SCALE`.
/// Video durations are the paper's clip lengths times this factor. The
/// default of 0.2 keeps a full `cargo bench --workspace` pass to a few
/// minutes; set `VQPY_BENCH_SCALE=1` to run the paper's full lengths.
/// ([`reproduce`] never reads it: its scale is compiled in.)
pub fn bench_scale() -> f64 {
    std::env::var("VQPY_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.2)
}
