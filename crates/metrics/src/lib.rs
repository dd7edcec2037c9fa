//! # mea-metrics
//!
//! Measurement instruments for the MEANet reproduction:
//!
//! * [`confusion`] — confusion matrices, per-class precision and the false
//!   discovery rate (FDR) that defines class-wise complexity (paper Fig. 3);
//! * [`entropy`] — prediction-entropy statistics, including the `µ_correct`
//!   / `µ_wrong` means that bound the cloud-offload threshold range;
//! * [`errors`] — the four-way error taxonomy of paper Fig. 5;
//! * [`flops`] — multiply-add and parameter counting with a
//!   fixed-vs-trained split (paper Table VI, ptflops-equivalent);
//! * [`memory`] — the analytic training-memory model behind paper Fig. 6;
//! * [`histogram`] — fixed-bin histograms for entropy distributions;
//! * [`streaming`] — bounded log-bucket histograms for high-volume
//!   latency streams (flat memory at any sample count);
//! * [`report`] — plain-text table rendering for the bench harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod confusion;
pub mod entropy;
pub mod errors;
pub mod flops;
pub mod histogram;
pub mod memory;
pub mod report;
pub mod streaming;
pub mod windowed;

pub use calibration::{ece, Reliability, ReliabilityBin};
pub use confusion::ConfusionMatrix;
pub use entropy::EntropyStats;
pub use errors::{ErrorBreakdown, ErrorType};
pub use flops::{CostSplit, LayerCost};
pub use histogram::Histogram;
pub use report::Table;
pub use streaming::StreamingHistogram;
pub use windowed::WindowedQuantiles;
