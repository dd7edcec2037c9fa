//! # mea-bench
//!
//! The experiment harness: one runner per table/figure of the paper and
//! per serving experiment. The `repro` binary (`cargo run --release -p
//! mea-bench --bin repro`) is the one runner: it runs them in order, with
//! the kernel timings, prints each table and asserts the claims it makes;
//! `repro NAME…` runs only the named steps.
//!
//! Every runner returns a rendered table plus structured numbers, so
//! `repro` can both print paper-style output and assert shape properties
//! (who wins, direction of trends).
//!
//! Scale is controlled by [`Scale`] (env var `MEA_SCALE=smoke|repro|full`;
//! any other value is refused): `smoke` is the default and finishes in
//! seconds per experiment; `repro` is the documented reproduction scale;
//! `full` raises epochs and data for tighter numbers.
//!
//! The steps that record headline metrics into their
//! [`regression::BenchReport`] (the cost-model tables, the kernel timings
//! and the serving experiments) write machine-readable
//! `BENCH_<step>.json` reports when `MEA_BENCH_JSON=<dir>` is set; the
//! `bench_regression` binary gates them against the baselines under
//! `baselines/` in CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod pin;
pub mod regression;
mod scale;

pub use scale::Scale;
