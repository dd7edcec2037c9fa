//! Multi-worker online serving runtime with dynamic cloud batching.
//!
//! The paper motivates early exits with the cloud pressure of "a large
//! amount of IoT devices" — this module is the substrate that actually
//! serves that traffic through a trained MEANet instead of modelling it in
//! closed form (see [`crate::fleet`] for the analytic counterpart):
//!
//! * **N edge workers**, each owning a bitwise-identical replica of the
//!   trained [`MeaNet`] (see `MeaNet::replicate_into`), consume requests
//!   from bounded per-worker queues. Requests are routed to workers
//!   device-stickily (`device % N`), so one device's stream is processed
//!   in order.
//! * Every routing decision goes through the same
//!   [`meanet::routing::RoutingEngine`] the offline sweep
//!   (`meanet::infer::run_inference`) uses, so the served system and the
//!   evaluation sweep provably produce identical [`InstanceRecord`]s.
//! * **M cloud workers** each drain a bounded ingress queue with
//!   **dynamic batching**: whatever is queued is coalesced up to
//!   [`ServeConfig::max_batch`] (waiting at most
//!   [`ServeConfig::max_wait`] for stragglers) and classified in *one*
//!   batched forward. Because eval-mode forwards are bitwise per-sample
//!   independent, batch composition cannot change predictions.
//! * Offloaded instances cross a real wire format ([`Payload`]) inside
//!   length-prefixed request/response frames, carried by a pluggable
//!   [`Transport`] ([`ServeConfig::transport`]). The default modelled
//!   conduit pays an optional [`NetworkLink`] as upload + RTT + response
//!   download wall-clock sleeps (deterministic, the CI path), so
//!   cloud-worker scaling overlaps network latency exactly like
//!   concurrent in-flight RPCs; [`TransportKind::Pipe`] instead ships the
//!   same frames over a real in-process byte stream (and
//!   `TransportKind::Uds` over a Unix socket) under an in-flight byte
//!   budget, where transfer time is whatever the wire genuinely took
//!   ([`crate::transport`]).
//! * One [`ControlPlan`] ([`ServeConfig::control`]) says who steers.
//!   Every variant but [`ControlPlan::Image`] turns on **feature-payload
//!   serving**: the edge runs the *cloud network's* prefix up to a cut
//!   layer (each [`EdgeReplica`] carries a cloud-prefix replica) and
//!   ships the activation — optionally int8-quantised through the
//!   `mea-quant` wire codec — and the cloud resumes at the cut instead of
//!   recomputing from pixels. The cut is fixed
//!   ([`ControlPlan::Static`], [`ControlPlan::Placement`]) or planned
//!   online by a [`CutPlanner`] per edge device class
//!   ([`ControlPlan::OpenLoop`]), replanned whenever the
//!   [`ThresholdController`] moves the offload fraction. Because suffix
//!   execution is bitwise identical to the full forward (asserted in
//!   `mea-nn`), the cut — like batch composition — is a pure cost knob:
//!   it can never change a prediction under the lossless wire.
//! * [`ControlPlan::ClosedLoop`]'s [`LinkFeedback`] closes the planner
//!   loop: cloud workers record the upload/RTT/download time every batch
//!   actually paid into a per-class [`LinkEstimator`] EWMA, and the
//!   [`CutPlanner`] periodically replans
//!   from the *measured* effective rates (blended with its static
//!   `rate / max(1, β·streams)` contention prior by sample count) — so
//!   real congestion, including a mid-run [`LinkChange`] the static model
//!   never hears about, reaches the cut decision. On the modelled
//!   transport those observations are the model's own times; on the pipe
//!   they are `Instant::now()` deltas around the actual send/recv, so the
//!   loop learns from time genuinely paid.
//! * A [`ThresholdController`] (the plan's `controller` slot) can steer
//!   the entropy threshold inside the serving path (SPINN-style runtime
//!   adaptation): every
//!   [`ControllerConfig::window`] routed instances, the achieved offload
//!   fraction is fed back and the threshold retuned.
//! * A [`FleetSpec`] ([`ServeConfig::fleet`]) makes the device population
//!   **heterogeneous**: named [`DeviceClass`]es with a [`ComputeTier`]
//!   (high/medium/low kernel-latency scaling), an optional per-class
//!   radio prior, and explicit device→class assignments. The cut planner
//!   then plans one cut per class from each class's *effective* profile
//!   and link prior, the link estimator indexes its telemetry by the
//!   spec's class map, and [`ServeStats`] breaks served/offloaded counts
//!   and latency out per class. Without a spec, devices round-robin over
//!   [`CutPlannerConfig::classes`] (planner class = `device % classes`).
//! * A [`DifficultyPredictor`] ([`ServeConfig::difficulty`]) turns on
//!   **difficulty-aware routing** from input statistics alone:
//!   predicted-easy requests settle locally without consulting the
//!   offload policy, predicted-hard requests pre-commit to the cloud
//!   *without evaluating the main exit at all*
//!   ([`ServeStats::skipped_main_exits`] counts the saved forwards), and
//!   ambiguous requests take the full Algorithm-2 path unchanged.
//!
//! The preferred entry point is [`Fleet`]: it owns the replicas, checks
//! every configuration invariant up front (builder-validated via
//! [`ServeConfig::builder`], or [`Fleet::new`] returning [`ServeError`])
//! and serves traces through [`Fleet::serve`]; [`try_serve`] is the
//! borrowing form underneath it.
//!
//! Backpressure is end-to-end: bounded edge queues block the dispatcher,
//! bounded cloud queues block edge workers, so a slow cloud tier slows
//! admission instead of ballooning memory.

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
#[cfg(unix)]
pub(crate) use crate::transport::UdsTransport;
pub(crate) use crate::transport::{
    DownlinkReceiver, InboundRequest, ModelledTransport, PipeTransport, RecvOutcome, RequestFrame, ResponseFrame,
    Transport, TransportKind, UplinkReceiver,
};
pub(crate) use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
pub(crate) use mea_data::Dataset;
pub(crate) use mea_metrics::{Histogram, StreamingHistogram, WindowedQuantiles};
pub(crate) use mea_nn::layer::Mode;
pub(crate) use mea_nn::models::SegmentedCnn;
pub(crate) use mea_tensor::{Rng, Tensor};
pub(crate) use meanet::routing::{PendingCloud, RoutingEngine};
pub(crate) use meanet::{
    Difficulty, DifficultyPredictor, ExitPoint, InstanceRecord, MeaNet, OffloadPolicy, ThresholdController,
};
pub(crate) use parking_lot::Mutex;
pub(crate) use serde::{Deserialize, Serialize};
pub(crate) use std::collections::{BTreeMap, HashMap, VecDeque};
pub(crate) use std::fmt;
pub(crate) use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
pub(crate) use std::sync::{Condvar, Mutex as StdMutex};
pub(crate) use std::time::{Duration, Instant};
