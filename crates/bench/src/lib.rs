//! # mea-bench
//!
//! The experiment harness: one runner per table/figure of the paper, shared
//! between the `benches/` targets (`cargo bench`) and the `repro` binary
//! (`cargo run --release -p mea-bench --bin repro`).
//!
//! Every runner returns a rendered table plus structured numbers, so the
//! bench targets can both print paper-style output and assert shape
//! properties (who wins, direction of trends).
//!
//! Scale is controlled by [`Scale`] (env var `MEA_SCALE=smoke|repro|full`):
//! `smoke` finishes in seconds per experiment and is the `cargo bench`
//! default on small machines; `repro` is the documented scale of
//! EXPERIMENTS.md; `full` raises epochs and data for tighter numbers.
//!
//! The fast asserting benches additionally emit machine-readable
//! `BENCH_<name>.json` reports via [`regression::Reporter`] (set
//! `MEA_BENCH_JSON=<dir>`); the `bench_regression` binary gates them
//! against the baselines under `baselines/` in CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod pin;
pub mod regression;
pub mod scale;

pub use scale::Scale;
