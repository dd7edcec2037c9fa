//! Multi-worker online serving runtime with dynamic cloud batching.
//!
//! The paper motivates early exits with the cloud pressure of "a large
//! amount of IoT devices" — this module serves that traffic through a
//! trained MEANet instead of modelling it in closed form (see
//! [`crate::fleet`] for the analytic counterpart):
//!
//! * **N edge workers**, each owning a bitwise-identical replica of the
//!   trained [`MeaNet`] (see `MeaNet::replicate_into`), consume bounded
//!   per-worker queues. Routing is device-sticky (`device % N`), so one
//!   device's stream is processed in order.
//! * Every routing decision goes through the
//!   [`meanet::routing::RoutingEngine`] the offline sweep
//!   (`meanet::infer::run_inference`) uses, so the served system and the
//!   sweep produce identical [`InstanceRecord`]s.
//! * A run has **one transport lane**. **M cloud workers** read its uplink
//!   together, each in turn coalescing what has arrived up to
//!   [`ServeConfigBuilder::max_batch`] (waiting at most
//!   [`ServeConfigBuilder::max_wait`] for stragglers) into *one* batched
//!   forward, and answer down it to one collector thread. Eval forwards
//!   are bitwise per-sample independent, so batch composition cannot
//!   change a prediction, and the collector's per-device reorder gate
//!   releases each device's cloud completions in offload order whichever
//!   worker ran them. A run holds `N + M + 1` threads besides the
//!   dispatching one (a byte wire adds the lane's reader).
//! * Offloads cross a real wire format ([`Payload`]) in length-prefixed
//!   frames over a pluggable [`Transport`]
//!   ([`ServeConfigBuilder::transport`]): the default modelled conduit
//!   sleeps an optional [`NetworkLink`]'s upload + RTT + download
//!   (deterministic, the CI path); `TransportKind::Uds` ships the same
//!   frames over a real Unix socket under an in-flight byte budget and an
//!   optional uplink pacer, timed by the wire itself
//!   ([`crate::transport`]).
//! * One [`ControlPlan`] ([`ServeConfigBuilder::control`]) says who
//!   steers. Every variant but [`ControlPlan::Image`] serves **feature
//!   payloads**: the edge runs the cloud network's prefix (each
//!   [`EdgeReplica`] carries a replica) up to a cut, optionally
//!   int8-quantises the activation, and the cloud resumes there. The cut
//!   is fixed ([`ControlPlan::Static`]) or planned per device class by a
//!   [`CutPlanner`] ([`ControlPlan::OpenLoop`]) and replanned whenever the
//!   [`ThresholdController`] moves the offload fraction; an edge worker
//!   reads each request's route, placement and wire from the one live
//!   policy state. Suffix execution is bitwise identical to the full
//!   forward (asserted in `mea-nn`), so under the lossless wire the cut is
//!   a pure cost knob.
//! * [`ControlPlan::ClosedLoop`]'s [`LinkFeedback`] closes the planner
//!   loop: cloud workers feed the upload/RTT/download time every batch
//!   paid into a per-class [`LinkEstimator`], and the [`CutPlanner`]
//!   replans from the *measured* rates (blended with its static
//!   `rate / max(1, β·streams)` prior by sample count), so congestion and
//!   a mid-run [`LinkChange`] reach the cut. The modelled transport feeds
//!   the model's own times; the socket feeds `Instant::now()` deltas.
//! * A [`ThresholdController`] (the plan's `controller` slot) retunes the
//!   entropy threshold every [`ControllerConfig::window`] routed
//!   instances from the achieved offload fraction (SPINN-style).
//! * A [`FleetSpec`] ([`ServeConfigBuilder::fleet`]) makes the population
//!   **heterogeneous**: named [`DeviceClass`]es with a [`ComputeTier`], an
//!   optional radio prior and explicit device→class assignments. The
//!   planner plans one cut per class from its effective profile, the link
//!   estimator indexes telemetry by class, and [`ServeStats::per_class`]
//!   breaks the run out per class. Without a spec, devices round-robin
//!   over [`CutPlannerConfig::classes`].
//! * A [`DifficultyPredictor`] ([`ServeConfigBuilder::difficulty`]) routes
//!   from input statistics: predicted-easy requests settle locally,
//!   predicted-hard ones pre-commit to the cloud *without evaluating the
//!   main exit* ([`ServeStats::skipped_main_exits`]), and ambiguous ones
//!   take the full Algorithm-2 path.
//!
//! The one entry point is [`Fleet`]. A [`ServeConfig`] is valid by
//! construction ([`ServeConfig::builder`] is the only way to make one);
//! [`Fleet::new`] checks the replicas against it once, and
//! [`Fleet::serve_with`] checks each trace before serving it. Both return
//! [`ServeError`] instead of panicking.
//!
//! Memory is bounded by the requests in flight, not by the trace: bounded
//! edge queues block the dispatcher and bounded cloud queues block the
//! edge workers, so a slow cloud tier slows admission; an offload is
//! parked only until its response returns; and the dispatching thread
//! settles each completion as it lands — folds it into [`ServeStats`] and
//! hands it to the caller's sink — between arrivals. [`Fleet::serve`] is
//! the sink that keeps everything, as a [`ServeReport`].

mod cloud;
mod collect;
mod config;
mod edge;
mod stats;
#[cfg(test)]
mod tests;

pub(crate) use cloud::*;
pub use collect::*;
pub use config::*;
pub(crate) use edge::*;
pub use stats::*;

pub(crate) use crate::clock;
pub(crate) use crate::device::DeviceProfile;
pub(crate) use crate::fleet::{ComputeTier, DeviceClass, FleetSpec};
pub(crate) use crate::governor::{ControlPoint, Governor, GovernorConfig, SlaTarget};
pub(crate) use crate::network::{LinkEstimate, LinkEstimator, NetworkLink};
pub(crate) use crate::partition::{
    profile_network, CutPlanner, Objective, PartitionEnv, PeerPool, PlacementPlan, SlaObjective, StageExecutor,
    MEASURED_PRIOR_SAMPLES,
};
pub(crate) use crate::payload::{channel_absmax, ActivationGrids, Payload};
pub(crate) use crate::traces::ArrivalModel;
pub(crate) use crate::transport::{
    recv_channel, DownlinkReceiver, InboundRequest, ModelledTransport, RecvOutcome, RequestFrame, ResponseFrame,
    Transport, TransportKind, UplinkReceiver,
};
pub(crate) use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
pub(crate) use mea_data::Dataset;
pub(crate) use mea_metrics::{Histogram, StreamingHistogram};
pub(crate) use mea_nn::layer::Mode;
pub(crate) use mea_nn::models::SegmentedCnn;
pub(crate) use mea_tensor::{Rng, Tensor};
pub(crate) use meanet::routing::{PendingCloud, RoutingEngine};
pub(crate) use meanet::{
    Difficulty, DifficultyPredictor, ExitPoint, InstanceRecord, MeaNet, OffloadPolicy, ThresholdController,
};
pub(crate) use parking_lot::Mutex;
pub(crate) use serde::{Deserialize, Serialize};
pub(crate) use std::collections::{BTreeMap, HashMap};
pub(crate) use std::fmt;
pub(crate) use std::num::NonZeroU64;
pub(crate) use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
pub(crate) use std::sync::Arc;
pub(crate) use std::time::{Duration, Instant};
