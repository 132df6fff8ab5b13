//! End-to-end ALS benchmark for HaTen2: three workloads run through the
//! public library API, output checks, and a traced per-layer breakdown.
//! See `perfbench/README.md` for the workloads, metrics and predictions.

#![forbid(unsafe_code)]

pub mod checks;
pub mod json;
pub mod replica;
pub mod run;
pub mod trace;
pub mod traced;
pub mod workload;
