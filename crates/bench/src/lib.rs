//! # mea-bench
//!
//! The experiment harness: one runner per table/figure of the paper. The
//! `repro` binary (`cargo run --release -p mea-bench --bin repro`) runs
//! them in order, prints each table and asserts the claims it makes;
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
//! The serving and cost-model bench targets (`cargo bench`) emit
//! machine-readable `BENCH_<name>.json` reports via
//! [`regression::Reporter`] (set `MEA_BENCH_JSON=<dir>`); the
//! `bench_regression` binary gates them against the baselines under
//! `baselines/` in CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod pin;
pub mod regression;
mod scale;

pub use scale::Scale;
