//! # legw-perf
//!
//! The repo's end-to-end benchmark: for each of four workloads, LEGW
//! train-to-target through the real `legw::trainer` entry point, a traced
//! mirror of that loop, evaluation, and frozen-model serving (offline and
//! through the dynamic batcher) — with every layer timed from outside, by
//! spans around calls into public functions, and every end-to-end timing
//! judged on a reference clock that follows the shared box's speed. See `README.md` beside this
//! crate for the metric tables and how to read them, and `BENCHMARK.json` at
//! the repo root for the contract the numbers are judged against.

pub mod apps;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod json;
pub mod pipeline;
pub mod probes;
pub mod refclock;
pub mod report;
pub mod serve;
pub mod trace;
pub mod workload;
