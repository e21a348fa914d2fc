//! # e2ebench
//!
//! The repo benchmark: six workloads over the VQPy reproduction, five
//! end-to-end metrics and a per-layer ledger, all measured from outside
//! the program through its public functions. See `README.md` for how to
//! run it and what every rule in here defends against, and
//! `../BENCHMARK.json` for the contract the driver holds it to.

pub mod inputs;
pub mod metrics;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod sys;
pub mod timed;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;
