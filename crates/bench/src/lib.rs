//! # vqpy-bench
//!
//! The paper's evaluation (§5) as one table on the virtual clock:
//! [`reproduce`] runs it, exact and asserted against `REPRODUCTION.json`.
//! This library provides its workloads, query constructors, report
//! formatting and JSON reader. What the engine itself costs is measured
//! by `e2ebench`, whose contract is `BENCHMARK.json`.

pub mod json;
pub mod report;
pub mod reproduce;
pub mod workloads;
