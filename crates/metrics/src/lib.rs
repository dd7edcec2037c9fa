//! # mea-metrics
//!
//! Measurement instruments for the MEANet reproduction:
//!
//! * [`ConfusionMatrix`] — confusion matrices, per-class precision and the false
//!   discovery rate (FDR) that defines class-wise complexity (paper Fig. 3);
//! * [`EntropyStats`] — prediction-entropy statistics, including the `µ_correct`
//!   / `µ_wrong` means that bound the cloud-offload threshold range;
//! * [`ErrorBreakdown`] — the four-way error taxonomy of paper Fig. 5;
//! * [`flops`] — multiply-add and parameter counting with a
//!   fixed-vs-trained split (paper Table VI, ptflops-equivalent);
//! * [`memory`] — the analytic training-memory model behind paper Fig. 6;
//! * [`Histogram`] — fixed-bin histograms for entropy distributions;
//! * [`StreamingHistogram`] — bounded log-bucket histograms for high-volume
//!   latency streams (flat memory at any sample count);
//! * [`Table`] — plain-text table rendering for the bench harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calibration;
mod confusion;
mod entropy;
mod errors;
pub mod flops;
mod histogram;
pub mod memory;
mod report;
mod streaming;

pub use calibration::ece;
pub use confusion::ConfusionMatrix;
pub use entropy::EntropyStats;
pub use errors::ErrorBreakdown;
pub use flops::CostSplit;
pub use histogram::Histogram;
pub use report::Table;
pub use streaming::StreamingHistogram;
