//! # mea-edgecloud
//!
//! The distributed-system substrate of the MEANet reproduction: everything
//! between the edge model and the cloud model.
//!
//! * [`device`] — compute device profiles (power, effective MAC throughput)
//!   calibrated against the paper's Table VII measurements;
//! * [`network`] — the WiFi upload power model the paper takes from
//!   Huang et al. (MobiSys'12): `P = 283.17 mW/Mbps · s + 132.86 mW`;
//! * [`payload`] — what actually crosses the link (raw images vs feature
//!   maps), with a binary codec and wire-size accounting;
//! * [`cost`] — the closed-form cost estimation of Table I for the four
//!   strategies (edge, cloud, edge-cloud raw, edge-cloud features);
//! * [`partition`] — Neurosurgeon-style layer-granularity partition-point
//!   search backing the "sending features" strategy (every layer boundary
//!   scored for latency or edge energy);
//! * [`energy`] — per-image compute/communication energy (Table VII) and
//!   whole-testset totals (Fig. 8), both the paper's coarse model and a
//!   per-exit refinement driven by Algorithm-2 records;
//! * [`transport`] — the edge→cloud wire behind a [`transport::Transport`]
//!   trait: a deterministic modelled conduit (bounded channels, the
//!   [`network::NetworkLink`] model as the only clock) and two real wires
//!   (an in-process byte stream and Unix-domain sockets) sharing one
//!   framing layer with an in-flight byte budget and frame multiplexing,
//!   whose transfer times come from `Instant::now()`;
//! * [`sim`] — an edge-cloud pipeline simulator: a deterministic
//!   virtual-clock model for latency accounting;
//! * [`fleet`] — a multi-device extension of the simulator where many edge
//!   devices share a bounded pool of cloud servers, quantifying the cloud
//!   congestion the paper's introduction argues early exits relieve —
//!   plus the [`fleet::FleetSpec`] registry of heterogeneous device
//!   classes (tier-scaled compute profiles, per-class link priors,
//!   device→class assignment) shared with the serving runtime;
//! * [`mod@serve`] — the *online* counterpart of [`fleet`]: a real multi-worker
//!   serving runtime (N edge workers, M dynamically batching cloud
//!   workers over bounded channels) that routes trace-driven traffic
//!   through a trained MEANet with the same `RoutingEngine` as the
//!   offline sweep, shipping offloads as images or as cut-layer
//!   activations whose cut the [`partition::CutPlanner`] selects online —
//!   closed-loop when [`serve::LinkFeedback`] feeds the workers' measured
//!   per-batch link times ([`network::LinkEstimator`]) back into the plan.
//!   One [`serve::ControlPlan`] says which of those steers. The public
//!   entry is [`serve::Fleet`] over a builder-validated
//!   [`serve::ServeConfig`]; a [`fleet::FleetSpec`] makes the planning,
//!   link estimation and stats per-device-class, and a calibrated
//!   `meanet` difficulty predictor can pre-commit predicted-hard inputs
//!   to the cloud (skipping their main-exit forward) and settle
//!   predicted-easy inputs locally;
//! * [`governor`] — the SLA control plane over [`mod@serve`]: a
//!   [`governor::Governor`] escalation ladder that jointly moves the
//!   offload fraction β, the cut depth and the wire format (f32 →
//!   per-tensor int8 → per-channel int8) per device class, replanning
//!   from measured link EWMAs and live windowed p95 latency so the
//!   runtime holds a [`governor::SlaTarget`] (p95 budget + Table-III
//!   accuracy floor); selected with [`serve::ControlPlan::Governed`];
//! * [`traces`] — seeded arrival-time generators (uniform / Poisson /
//!   bursty) driving both the fleet simulator and the serving runtime.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod energy;
pub mod fleet;
pub mod governor;
pub mod network;
pub mod partition;
pub mod payload;
pub mod serve;
pub mod sim;
pub mod traces;
pub mod transport;

pub use cost::{CostBreakdown, CostParams, Strategy};
pub use device::DeviceProfile;
pub use energy::{EnergyReport, PerImageCosts};
pub use fleet::{
    simulate_fleet, simulate_fleet_spec, simulate_fleet_spec_with_arrivals, simulate_fleet_with_arrivals,
    ComputeTier, CoopGroup, DeviceClass, FleetConfig, FleetReport, FleetSpec,
};
pub use governor::{AccuracyModel, ControlPoint, Governor, GovernorConfig, SlaTarget};
pub use network::{LinkEstimate, LinkEstimator, NetworkLink, UploadPowerModel};
pub use partition::{
    best_cut, profile_network, sweep_cuts, CutCost, CutPlanner, LayerProfile, Objective, PartitionEnv, PeerPool,
    PlacementCost, PlacementPlan, SlaObjective, Stage, StageExecutor, MEASURED_PRIOR_SAMPLES,
};
pub use payload::{channel_absmax, ActivationGrids, Payload};
pub use serve::{
    trace_requests, try_serve, Completion, ControlPlan, ControllerConfig, CutPlannerConfig, EdgeReplica,
    FeatureWire, Fleet, LinkChange, LinkFeedback, ServeConfig, ServeConfigBuilder, ServeConfigError, ServeError,
    ServeReport, ServeRequest, ServeStats, WireFormat,
};
pub use traces::ArrivalModel;
pub use transport::{
    ModelledTransport, PaceChange, PipeConfig, PipeTransport, RequestFrame, ResponseFrame, Transport,
    TransportKind,
};
#[cfg(unix)]
pub use transport::{UdsConfig, UdsTransport};
