//! # meanet
//!
//! The paper's primary contribution: **MEANet**, a tripartite edge network
//! (main block / extension block / adaptive block) plus the complexity-aware
//! training and inference strategies that couple it to a cloud DNN.
//!
//! The crate follows the paper's structure:
//!
//! * [`model`] — the MEANet architecture (paper §III, Fig. 4): a frozen,
//!   cloud-pretrained **main block** with its own exit over all classes; a
//!   locally trained **extension block** with an exit over hard classes
//!   only; and a shallow **adaptive block** that connects the raw input to
//!   the extension block so its gradients do not depend on the frozen main
//!   block.
//! * [`hard_classes`] — class-wise complexity: rank classes by validation
//!   precision, take the bottom `N_hard` (Algorithm 1, step 2), or a random
//!   baseline for the Table IV/V ablation.
//! * [`train`] — Algorithm 1: cloud pretraining, main-exit fitting,
//!   hard-subset construction via `ClassDict`, and blockwise edge training
//!   with the main block frozen. A joint-optimisation baseline (no
//!   freezing) supports the Fig. 6 memory comparison.
//! * [`infer`] — Algorithm 2: entropy-gated cloud offload, `IsHard` routing
//!   into the extension block, and confidence-based exit arbitration.
//! * [`routing`] — the per-instance routing core of Algorithm 2 factored
//!   out of the sweep: main-exit evaluation, route planning, the local
//!   execution legs and record assembly, shared with the online serving
//!   runtime in `mea_edgecloud::serve`.
//! * [`DifficultyPredictor`] — input-difficulty prediction for difficulty-aware
//!   routing: main-exit entropies of a calibration set clustered into
//!   easy/ambiguous/hard bands, plus a cheap input-statistics regressor
//!   so serving can route a request before any forward pass (easy skips
//!   the offload machinery, hard pre-commits to the cloud).
//! * [`OffloadPolicy`] — the offload decision abstracted: the paper's entropy
//!   threshold plus margin-based and budgeted (quantile-calibrated)
//!   alternatives, and the edge-only/cloud-only endpoints.
//! * [`HardDetector`] — the optional *trained* binary easy/hard detector the
//!   paper mentions in §III-B, so its claim that the argmax rule suffices
//!   can be measured.
//! * [`continual`] — episodic-replay adaptation for newly collected edge
//!   data, the paper's §III-A suggestion for avoiding catastrophic
//!   forgetting, with a measurable forgetting protocol.
//! * [`ThresholdController`] — SPINN-style (reference \[42\]) runtime adaptation: an
//!   integral controller that retunes the entropy threshold between
//!   windows so the offload fraction tracks a target under input drift.
//! * [`thresholds`] — the `(µ_correct, µ_wrong)` entropy threshold range.
//! * [`stats`] — exit fractions, hard-class accuracy, easy/hard detection
//!   accuracy and the Fig. 5 error taxonomy.
//! * [`pipeline`] — an end-to-end orchestration of all the above, shared by
//!   the examples, the integration tests and the bench harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod continual;
mod detector;
mod difficulty;
pub mod hard_classes;
pub mod infer;
pub mod model;
pub mod pipeline;
mod policy;
pub mod routing;
mod runtime;
pub mod stats;
pub mod thresholds;
pub mod train;

pub use continual::{extension_accuracy, train_edge_continual, AdaptationStats, ReplayBuffer};
pub use detector::{compare_detectors, DetectorComparison, HardDetector};
pub use difficulty::{Difficulty, DifficultyPredictor};
pub use hard_classes::Selection;
pub use infer::{ExitPoint, InferenceConfig, InstanceRecord, SweepStats};
pub use model::{AdaptivePlan, MeaNet, Merge};
pub use pipeline::{Pipeline, PipelineConfig};
pub use policy::OffloadPolicy;
pub use routing::{MainExit, PendingCloud, RoutePlan, RoutingEngine, SweepPayload};
pub use runtime::ThresholdController;
pub use train::TrainConfig;
