//! Serving configuration surface: the [`ControlPlan`], the validated
//! [`ServeConfig`] builder, and the error taxonomy.

use super::*;

/// Bytes of the cloud's response per prediction on the downlink — the
/// exact encoded size of a [`ResponseFrame`] (length prefix, request id,
/// class id), which is what [`ServeStats::bytes_from_cloud`] counts and
/// the [`CutPlanner`] charges as `response_bytes`. Both transports put
/// the same frame on the wire, so the charge is byte-for-byte real.
pub const RESPONSE_WIRE_BYTES: u64 = ResponseFrame::WIRE_BYTES;

/// Headroom factor on the calibration activations' per-channel absolute
/// maxima when building the serve-time [`ActivationGrids`]: inputs hotter
/// than the calibration image saturate instead of wrapping, and a little
/// headroom keeps saturation rare.
pub(crate) const GRID_HEADROOM: f32 = 1.25;

/// How offloaded images are encoded on the edge→cloud wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Lossless `f32` tensors ([`Payload::Features`] codec). The cloud
    /// sees exactly the edge's pixels, so the served system is
    /// bit-identical to the offline sweep.
    #[default]
    Float32,
    /// The paper's 1-byte-per-sample sensor format
    /// ([`Payload::RawImage`]): 4× smaller uploads, but quantisation can
    /// flip borderline cloud predictions.
    Quantised8Bit,
}

/// How offloaded *activations* are encoded on the edge→cloud wire in
/// feature-payload mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FeatureWire {
    /// Lossless `f32` activations ([`Payload::Features`]): the resumed
    /// cloud forward is bitwise identical to the full forward, whatever
    /// the cut.
    #[default]
    F32,
    /// Int8 activations through the `mea-quant` wire codec
    /// ([`Payload::QuantFeatures`]): ~4× smaller — a deep cut undercuts
    /// even the raw-image upload — at the cost of borderline prediction
    /// flips. Every frame carries its own per-tensor quantisation
    /// parameters, and its elements raw or Huffman-coded, whichever is
    /// shorter (3,103 or 2,325 bytes on average at the e2e split cut).
    Int8,
    /// Per-channel int8 activations on a **calibrated grid**
    /// ([`Payload::encode_grid_features`]): the per-channel scales are
    /// calibrated once at serve setup ([`ActivationGrids`]) and shared by
    /// edge and cloud out of band, so frames carry only a one-byte cut
    /// index plus the quantised data — a header 16 bytes shorter than
    /// [`FeatureWire::Int8`]'s at every cut, with the finer channel
    /// granularity on top. The governor's deepest wire rung.
    PerChannelInt8,
}

impl FeatureWire {
    /// Bytes one activation element occupies on the wire, at most.
    pub fn bytes_per_elem(self) -> u64 {
        match self {
            FeatureWire::F32 => 4,
            FeatureWire::Int8 | FeatureWire::PerChannelInt8 => 1,
        }
    }
}

/// Measured-link feedback configuration: the closed loop between the
/// cloud tier's per-batch link telemetry and the [`CutPlanner`].
///
/// Under [`ControlPlan::ClosedLoop`] every served cloud batch feeds one
/// `(bytes, seconds)` observation per device class into a
/// [`LinkEstimator`] EWMA, and every [`LinkFeedback::replan_every`]
/// batches the planner re-derives the per-class cuts from the measured
/// effective rates blended with its static contention prior — so real
/// congestion (e.g. a [`LinkChange`] degradation) moves the cut, not just
/// the modelled `β·streams` divisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFeedback {
    /// EWMA coefficient for per-batch observations, in `(0, 1]` (weight
    /// of the newest observation).
    pub alpha: f64,
    /// Pseudo-sample weight of the static contention prior: a class with
    /// `n` observed batches trusts its measurement with weight
    /// `n / (n + prior_samples)` (see
    /// [`CutPlanner::plan_placement_for_measured`]).
    pub prior_samples: f64,
    /// Replan the per-class cuts every this many observed batches.
    pub replan_every: NonZeroU64,
}

impl Default for LinkFeedback {
    /// A moderately reactive loop: newest observation worth 30%, the
    /// static prior worth [`MEASURED_PRIOR_SAMPLES`] batches, replanning
    /// every 8 batches.
    fn default() -> Self {
        LinkFeedback {
            alpha: 0.3,
            prior_samples: MEASURED_PRIOR_SAMPLES,
            replan_every: NonZeroU64::new(8).expect("8 > 0"),
        }
    }
}

/// Online cut-point planning parameters for feature-payload serving.
#[derive(Debug, Clone, PartialEq)]
pub struct CutPlannerConfig {
    /// Edge device classes: device `d` belongs to class
    /// `d % classes.len()` and serves from that class's planned cut.
    ///
    /// When [`ServeConfigBuilder::fleet`] is set this list must be **empty** —
    /// the fleet's effective per-class profiles (and link priors) drive
    /// the planner, and devices map to classes through
    /// [`FleetSpec::class_of`] instead of the modulo convention.
    pub classes: Vec<DeviceProfile>,
    /// The cloud device executing the suffix.
    pub cloud: DeviceProfile,
    /// What the planner minimises.
    pub objective: Objective,
    /// Must be `None`: [`ControlPlan::OpenLoop`] has no feedback loop and
    /// [`ControlPlan::ClosedLoop`] carries its own
    /// ([`ServeConfigError::ClosedLoopFeedbackConflict`]). The field
    /// survives only because the frozen benchmark crate names it.
    pub feedback: Option<LinkFeedback>,
}

/// One edge worker's model state: the MEANet it routes with, plus — in
/// feature-payload mode — a bitwise replica of the cloud network whose
/// prefix it executes up to the current cut.
#[derive(Debug)]
pub struct EdgeReplica {
    /// The trained MEANet (routing, main/extension exits).
    pub net: MeaNet,
    /// Cloud-network replica for prefix execution. Must be bitwise
    /// identical to the cloud workers' replicas; required by every
    /// [`ControlPlan`] except [`ControlPlan::Image`].
    pub cloud_prefix: Option<SegmentedCnn>,
}

impl EdgeReplica {
    /// An edge replica for image-payload serving (no cloud prefix).
    pub fn new(net: MeaNet) -> Self {
        EdgeReplica { net, cloud_prefix: None }
    }

    /// An edge replica that can serve feature payloads.
    pub fn with_cloud_prefix(net: MeaNet, cloud: SegmentedCnn) -> Self {
        EdgeReplica { net, cloud_prefix: Some(cloud) }
    }
}

/// Closed-loop threshold steering inside the serving path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The integral controller (carries the initial threshold, the target
    /// β and the gain).
    pub controller: ThresholdController,
    /// Number of routed instances per feedback window.
    pub window: usize,
}

/// Who steers serving: one value that says what crosses the edge→cloud
/// wire and how the (β, cut, wire) operating point is chosen. Set via
/// [`ServeConfigBuilder::control`]; the workers read it directly.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlPlan {
    /// Ship the input image; the cloud computes its whole network from
    /// pixels (the paper's collaboration mode). The default, with the
    /// lossless wire and no controller.
    Image {
        /// The image wire encoding.
        wire: WireFormat,
        /// Optional runtime threshold adaptation.
        controller: Option<ControllerConfig>,
    },
    /// Open-loop: a fixed cut and wire for every device, optionally with
    /// SPINN-style threshold steering. Nothing replans at runtime.
    Static {
        /// The fixed cut layer (same for every device class).
        cut: usize,
        /// The activation wire encoding.
        wire: FeatureWire,
        /// Optional runtime threshold adaptation.
        controller: Option<ControllerConfig>,
    },
    /// Open-loop planned cuts: the [`CutPlanner`] scores every cut of the
    /// cloud network against the serving link and device profiles, picks
    /// the cost-minimal placement per device class (including cooperative
    /// peer splits for classes with a
    /// [`crate::fleet::DeviceClass::coop_group`]) from the static
    /// contention model, and replans only when the controller moves β.
    OpenLoop {
        /// Planner parameters.
        planner: CutPlannerConfig,
        /// The activation wire encoding.
        wire: FeatureWire,
        /// Optional runtime threshold adaptation.
        controller: Option<ControllerConfig>,
    },
    /// Closed-loop planned cuts: [`ControlPlan::OpenLoop`] plus
    /// measured-link `feedback` replanning from the link times cloud
    /// batches actually paid.
    ClosedLoop {
        /// Planner parameters.
        planner: CutPlannerConfig,
        /// The measured-link feedback loop.
        feedback: LinkFeedback,
        /// The activation wire encoding.
        wire: FeatureWire,
        /// Optional runtime threshold adaptation.
        controller: Option<ControllerConfig>,
    },
    /// SLA-governed joint (β, cut, wire) control: the
    /// [`Governor`] watches live per-class p95 latency windows and
    /// escalates cut objective, wire format and finally the offload
    /// fraction to hold the [`SlaTarget`] — see [`crate::governor`].
    /// Starts from lossless `f32` on latency-planned cuts with default
    /// measured-link feedback; requires [`ServeConfigBuilder::link`]
    /// ([`ServeConfigError::GovernedWithoutTelemetry`]).
    Governed(SlaTarget),
}

impl Default for ControlPlan {
    fn default() -> Self {
        ControlPlan::Image { wire: WireFormat::Float32, controller: None }
    }
}

impl ControlPlan {
    /// The configured threshold controller (a governor synthesises its
    /// own when its β rung fires).
    pub(crate) fn controller(&self) -> Option<&ControllerConfig> {
        match self {
            ControlPlan::Image { controller, .. }
            | ControlPlan::Static { controller, .. }
            | ControlPlan::OpenLoop { controller, .. }
            | ControlPlan::ClosedLoop { controller, .. } => controller.as_ref(),
            ControlPlan::Governed(_) => None,
        }
    }

    /// The activation wire offloads start on; `None` ships images.
    pub(crate) fn feature_wire(&self) -> Option<FeatureWire> {
        match self {
            ControlPlan::Image { .. } => None,
            ControlPlan::Static { wire, .. }
            | ControlPlan::OpenLoop { wire, .. }
            | ControlPlan::ClosedLoop { wire, .. } => Some(*wire),
            ControlPlan::Governed(_) => Some(FeatureWire::F32),
        }
    }

    /// The caller-supplied planner parameters of the two planned
    /// variants.
    pub(crate) fn planner(&self) -> Option<&CutPlannerConfig> {
        match self {
            ControlPlan::OpenLoop { planner, .. } | ControlPlan::ClosedLoop { planner, .. } => Some(planner),
            _ => None,
        }
    }
}

/// Static configuration of the serving runtime, valid by construction:
/// [`ServeConfig::builder`] is the only way to make one, and each setting
/// is documented on its [`ServeConfigBuilder`] setter.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    pub(crate) edge_workers: usize,
    pub(crate) cloud_workers: usize,
    pub(crate) max_batch: usize,
    pub(crate) max_wait: Duration,
    pub(crate) queue_depth: usize,
    pub(crate) policy: OffloadPolicy,
    pub(crate) control: ControlPlan,
    pub(crate) link: Option<NetworkLink>,
    pub(crate) transport: TransportKind,
    pub(crate) link_schedule: Vec<LinkChange>,
    pub(crate) fleet: Option<FleetSpec>,
    pub(crate) difficulty: Option<DifficultyPredictor>,
    pub(crate) ingress: CloudIngress,
}

/// One scheduled change of serving link conditions (see
/// [`ServeConfigBuilder::link_events`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChange {
    /// The change takes effect once this many coalesced cloud batches
    /// have been *started* (dequeued), counted across the whole cloud
    /// tier. With one cloud worker batches start in completion order, so
    /// the switch point is exact; with several workers the start order is
    /// scheduler-dependent, so batches already in flight may still ride
    /// the old link.
    pub after_batches: u64,
    /// The link every later batch pays (and telemetry observes).
    pub link: NetworkLink,
}

/// How offloaded frames reach the cloud workers (see
/// [`ServeConfigBuilder::ingress`]).
///
/// Either way every frame still enters through its device-sticky lane
/// (`spec.sticky_index(device, lanes)`), so the wire-level ordering
/// guarantees are identical; the choice only controls how cloud *workers*
/// pick frames up once they have arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloudIngress {
    /// Sharded work-stealing ingress (the default): each cloud worker
    /// owns one bounded shard fed by a pump thread draining its lane, and
    /// an idle worker steals a FIFO prefix of frames (whole device-sticky
    /// runs, in arrival order) from the deepest backlogged shard instead
    /// of sleeping. Per-device FIFO survives stealing because (a) a steal
    /// takes a *prefix* of a shard, preserving every device's frame order
    /// within it, and (b) completions pass a per-device reorder gate
    /// keyed on the edge-assigned offload index, so results leave the
    /// cloud tier in exactly per-device offload order. [`ServeStats::steals`] / [`ServeStats::per_shard_batches`]
    /// expose the balancing behaviour.
    #[default]
    Sharded,
    /// The reference path: each cloud worker blocks on its own lane only.
    /// A skewed device population can idle every other worker; kept as
    /// the record-identity reference and for A/B measurement.
    SingleQueue,
}

/// The link a batch rides given how many batches the cloud tier has
/// *started* (dequeued) before it: [`ServeConfigBuilder::link`] with every due
/// [`LinkChange`] applied in order. Keying on started batches matches
/// [`LinkChange::after_batches`]: the counter increments when a worker
/// dequeues a coalesced batch, before any leg of the link is paid.
pub(crate) fn scheduled_link(cfg: &ServeConfig, batches_before: u64) -> Option<NetworkLink> {
    let mut link = cfg.link?;
    for change in &cfg.link_schedule {
        if batches_before >= change.after_batches {
            link = change.link;
        }
    }
    Some(link)
}

impl ServeConfig {
    /// A validating builder with sane defaults: one edge worker, one cloud
    /// worker, `max_batch` 1, no batching wait, a queue depth of 4 per
    /// worker, image payloads on the lossless wire, no simulated link, no
    /// controller. [`ServeConfigBuilder::build`] checks every static
    /// invariant and returns [`ServeConfigError`] instead of panicking
    /// downstream.
    pub fn builder(policy: OffloadPolicy) -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig {
                edge_workers: 1,
                cloud_workers: 1,
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_depth: 4,
                policy,
                control: ControlPlan::default(),
                link: None,
                transport: TransportKind::default(),
                link_schedule: Vec::new(),
                fleet: None,
                difficulty: None,
                ingress: CloudIngress::default(),
            },
        }
    }
}

/// Validating builder for [`ServeConfig`] — see [`ServeConfig::builder`].
///
/// Every setter is infallible; [`ServeConfigBuilder::build`] runs the
/// full invariant suite once at the end, so a successfully built config
/// can never trip a configuration panic inside the runtime.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Edge worker threads: one per edge replica, at least one.
    pub fn edge_workers(mut self, n: usize) -> Self {
        self.cfg.edge_workers = n;
        self
    }

    /// Cloud worker threads: one per cloud replica. Zero only under an
    /// edge-only policy without a controller.
    pub fn cloud_workers(mut self, n: usize) -> Self {
        self.cfg.cloud_workers = n;
        self
    }

    /// Dynamic-batching cap: a cloud worker coalesces at most this many
    /// queued payloads into one batched forward.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// How long a cloud worker waits for stragglers once it holds at
    /// least one payload. `Duration::ZERO` (the default) coalesces only
    /// what is already queued (no added latency).
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.cfg.max_wait = wait;
        self
    }

    /// Capacity of each bounded edge/cloud ingress queue.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Replaces the offload policy. Ignored when the [`ControlPlan`]
    /// carries a controller (the controller then drives an
    /// entropy-threshold policy starting from its own threshold).
    pub fn policy(mut self, policy: OffloadPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Who steers ([`ControlPlan`]): what offloaded instances carry
    /// across the wire and how the (β, cut, wire) operating point is
    /// chosen.
    pub fn control(mut self, plan: ControlPlan) -> Self {
        self.cfg.control = plan;
        self
    }

    /// The modelled network link: each cloud batch pays its uplink leg
    /// (the upload plus half the RTT) before the forward and its downlink
    /// leg (half the RTT plus the response download) after it, as real
    /// wall-clock delay on the worker that serves it — the same
    /// [`NetworkLink::uplink_leg_s`]/[`NetworkLink::downlink_leg_s`]
    /// convention the virtual-clock simulator and the closed-form
    /// `round_trip_s` charge. On a real transport the wire's own transfer
    /// time replaces these sleeps; the model then only informs the
    /// [`CutPlanner`]'s static prior.
    pub fn link(mut self, link: NetworkLink) -> Self {
        self.cfg.link = Some(link);
        self
    }

    /// Which wire the offloaded payloads cross: the deterministic
    /// modelled conduit (default — the CI/record-identity path) or a real
    /// byte stream (in-process pipe, Unix sockets) whose transfer times
    /// feed the [`LinkEstimator`] as genuine `Instant::now()` deltas.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Scheduled changes of the modelled wire mid-run (radio
    /// degradation): once the cloud tier has *started* `after_batches`
    /// coalesced batches, subsequently started batches ride the changed
    /// link. Applied in order; requires [`ServeConfigBuilder::link`] and
    /// the modelled transport. These are *scenario* input — what happens
    /// to the radio — not control policy: the planner's static model is
    /// deliberately not told, and only measured-link feedback
    /// ([`LinkFeedback`]) can observe the change.
    pub fn link_events(mut self, events: Vec<LinkChange>) -> Self {
        self.cfg.link_schedule = events;
        self
    }

    /// Heterogeneous device registry: routes every device→class decision
    /// (planned cuts, link telemetry, per-class stats) through
    /// [`FleetSpec::class_of`] and plans cuts from each class's
    /// tier-scaled profile and radio prior. Without one, devices
    /// round-robin over [`CutPlannerConfig::classes`]. A spec whose
    /// classes equal those planner classes serves record-identically.
    pub fn fleet(mut self, spec: FleetSpec) -> Self {
        self.cfg.fleet = Some(spec);
        self
    }

    /// Difficulty-aware routing: classifies every request from its input
    /// statistics before any forward pass. Predicted-**easy** requests
    /// settle locally (main or extension exit) without consulting the
    /// offload policy, predicted-**hard** requests pre-commit to the
    /// cloud without evaluating the main exit (skipped evaluations are
    /// counted in [`ServeStats::skipped_main_exits`]), and ambiguous
    /// requests take the unchanged Algorithm-2 path. Without a predictor
    /// everything routes through Algorithm 2.
    pub fn difficulty(mut self, predictor: DifficultyPredictor) -> Self {
        self.cfg.difficulty = Some(predictor);
        self
    }

    /// How cloud workers pick up arrived frames: the sharded
    /// work-stealing ingress (default) or the one-queue-per-worker
    /// reference path. Pure scheduling knob — the served
    /// [`InstanceRecord`]s are identical either way (asserted by the
    /// property suite); only throughput and the [`ServeStats`] scheduling
    /// counters differ.
    pub fn ingress(mut self, ingress: CloudIngress) -> Self {
        self.cfg.ingress = ingress;
        self
    }

    /// Validates every static invariant and returns the configuration.
    ///
    /// # Errors
    ///
    /// One [`ServeConfigError`] per violated invariant.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        validate_config(&self.cfg)?;
        Ok(self.cfg)
    }
}

/// A [`ServeConfig`] that violates a static invariant — everything
/// checkable from the configuration alone, before any replica or request
/// is seen. Returned by [`ServeConfigBuilder::build`], the only way to
/// make a [`ServeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `edge_workers == 0`: there is nobody to route requests.
    NoEdgeWorkers,
    /// `max_batch == 0`: a cloud batch cannot hold zero payloads.
    ZeroMaxBatch,
    /// `queue_depth == 0`: bounded queues need capacity.
    ZeroQueueDepth,
    /// [`ServeConfigBuilder::link_events`] without a
    /// [`ServeConfigBuilder::link`] to change.
    ScheduleWithoutLink,
    /// A link schedule combined with a transport that pays real wire
    /// time (the schedule drives the modelled wire only).
    ScheduleOnMeasuredWire,
    /// A [`TransportKind::Pipe`] pacing rate (`up_mbps`, `down_mbps` or a
    /// throttle's `up_mbps`) that is not finite and positive.
    InvalidPaceRate,
    /// A [`ControllerConfig::window`] of zero instances.
    ControllerWindowEmpty,
    /// An offloading policy (or a controller, which implies one) with no
    /// cloud workers to offload to.
    PolicyNeedsCloud,
    /// A planned [`ControlPlan`] with no device classes and no fleet spec
    /// to derive them from.
    NoPlannerClasses,
    /// A planned [`ControlPlan`] without a [`ServeConfigBuilder::link`] to
    /// plan against.
    PlannedCutWithoutLink,
    /// Both [`ServeConfigBuilder::fleet`] and [`CutPlannerConfig::classes`] list
    /// device classes — it must be one or the other.
    FleetClassesConflict,
    /// A planned [`ControlPlan`] whose planner config carries a
    /// [`CutPlannerConfig::feedback`] — a closed loop's feedback lives in
    /// the plan's own field, and an open loop has none.
    ClosedLoopFeedbackConflict,
    /// [`ControlPlan::Governed`] without a [`ServeConfigBuilder::link`]: the
    /// governor plans cuts against a link model and needs link telemetry
    /// to close its loop.
    GovernedWithoutTelemetry,
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::NoEdgeWorkers => write!(f, "need at least one edge worker"),
            ServeConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ServeConfigError::ZeroQueueDepth => write!(f, "queues need capacity"),
            ServeConfigError::ScheduleWithoutLink => {
                write!(f, "a link schedule needs a link model (ServeConfigBuilder::link) to change")
            }
            ServeConfigError::ScheduleOnMeasuredWire => write!(
                f,
                "a link schedule drives the modelled wire only; a real transport (pipe, Unix socket) pays \
                 whatever its own wire takes"
            ),
            ServeConfigError::InvalidPaceRate => {
                write!(f, "pipe pacing rates (up_mbps, down_mbps, throttle) must be finite and positive")
            }
            ServeConfigError::ControllerWindowEmpty => write!(f, "controller window must be non-empty"),
            ServeConfigError::PolicyNeedsCloud => {
                write!(f, "an offloading policy requires a cloud model (no cloud workers configured)")
            }
            ServeConfigError::NoPlannerClasses => {
                write!(f, "planned cut selection needs at least one device class")
            }
            ServeConfigError::PlannedCutWithoutLink => {
                write!(f, "planned cut selection requires a link model (ServeConfigBuilder::link)")
            }
            ServeConfigError::FleetClassesConflict => write!(
                f,
                "planned cut selection must leave CutPlannerConfig::classes empty when ServeConfigBuilder::fleet \
                 is set (the fleet's effective profiles drive the planner)"
            ),
            ServeConfigError::ClosedLoopFeedbackConflict => write!(
                f,
                "ControlPlan::ClosedLoop carries the feedback loop itself and ControlPlan::OpenLoop has none; \
                 leave CutPlannerConfig::feedback as None"
            ),
            ServeConfigError::GovernedWithoutTelemetry => {
                write!(f, "ControlPlan::Governed needs link telemetry: configure a link model (ServeConfigBuilder::link)")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Anything [`Fleet::new`] or [`Fleet::serve`] can reject: replicas that
/// do not match the configuration, or a malformed request trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// `edges.len()` does not match [`ServeConfigBuilder::edge_workers`].
    EdgeReplicaMismatch {
        /// Configured edge workers.
        workers: usize,
        /// Edge replicas supplied.
        replicas: usize,
    },
    /// `clouds.len()` does not match [`ServeConfigBuilder::cloud_workers`].
    CloudReplicaMismatch {
        /// Configured cloud workers.
        workers: usize,
        /// Cloud replicas supplied.
        replicas: usize,
    },
    /// A request with a NaN or infinite arrival time.
    NonFiniteArrival {
        /// Index of the offending request in the trace.
        index: usize,
        /// Originating device.
        device: usize,
        /// Per-device sequence number.
        seq: usize,
    },
    /// Requests not sorted by arrival time.
    UnsortedArrivals,
    /// A request with a negative arrival time.
    NegativeArrival {
        /// Index of the offending request in the trace.
        index: usize,
    },
    /// A request whose arrival time is finite but too far in the future to
    /// become a deadline on the monotonic clock.
    UnschedulableArrival {
        /// Index of the offending request in the trace.
        index: usize,
        /// Its arrival time (s).
        arrival_s: f64,
    },
    /// A request whose image is not one instance of the edge network's
    /// input, `[1, C, H, W]` (a batched image is one case).
    ImageShapeMismatch {
        /// Index of the offending request in the trace.
        index: usize,
        /// The dims every image must have.
        expected: [usize; 4],
        /// The image's dims.
        found: Vec<usize>,
    },
    /// Feature-payload serving with an edge replica lacking a
    /// cloud-prefix replica.
    MissingCloudPrefix {
        /// The edge worker whose replica has no prefix.
        worker: usize,
    },
    /// A fixed cut outside the cloud network's cut-layer range.
    FixedCutOutOfRange {
        /// The configured cut.
        cut: usize,
        /// Cut layers the cloud network actually has.
        cut_layers: usize,
    },
    /// An edge cloud-prefix replica and a cloud replica disagree on the
    /// layer enumeration.
    PrefixMismatch {
        /// Cut layers of the edge-side prefix replica.
        edge_layers: usize,
        /// Cut layers of the cloud replica.
        cloud_layers: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EdgeReplicaMismatch { workers, replicas } => {
                write!(f, "one edge replica per edge worker ({workers} workers, {replicas} replicas)")
            }
            ServeError::CloudReplicaMismatch { workers, replicas } => {
                write!(f, "one cloud replica per cloud worker ({workers} workers, {replicas} replicas)")
            }
            ServeError::NonFiniteArrival { index, device, seq } => {
                write!(f, "non-finite arrival time for request {index} (device {device}, seq {seq})")
            }
            ServeError::UnsortedArrivals => write!(f, "requests must be sorted by arrival time"),
            ServeError::NegativeArrival { index } => {
                write!(f, "negative arrival time for request {index}")
            }
            ServeError::UnschedulableArrival { index, arrival_s } => {
                write!(f, "arrival time {arrival_s} s of request {index} cannot be scheduled")
            }
            ServeError::ImageShapeMismatch { index, expected, found } => {
                write!(f, "request {index} has image dims {found:?}; the edge network takes {expected:?}")
            }
            ServeError::MissingCloudPrefix { worker } => {
                write!(f, "feature-payload serving: edge worker {worker} has no cloud prefix")
            }
            ServeError::FixedCutOutOfRange { cut, cut_layers } => {
                write!(f, "fixed cut {cut} out of range (cloud network has {cut_layers} cut layers)")
            }
            ServeError::PrefixMismatch { edge_layers, cloud_layers } => write!(
                f,
                "edge cloud-prefix and cloud replicas disagree on the layer enumeration \
                 ({edge_layers} vs {cloud_layers} cut layers)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Checks every invariant knowable from the configuration alone.
fn validate_config(cfg: &ServeConfig) -> Result<(), ServeConfigError> {
    if cfg.edge_workers == 0 {
        return Err(ServeConfigError::NoEdgeWorkers);
    }
    if cfg.max_batch == 0 {
        return Err(ServeConfigError::ZeroMaxBatch);
    }
    if cfg.queue_depth == 0 {
        return Err(ServeConfigError::ZeroQueueDepth);
    }
    if !cfg.link_schedule.is_empty() && cfg.link.is_none() {
        return Err(ServeConfigError::ScheduleWithoutLink);
    }
    if cfg.transport.is_measured() && !cfg.link_schedule.is_empty() {
        return Err(ServeConfigError::ScheduleOnMeasuredWire);
    }
    if matches!(&cfg.transport, TransportKind::Pipe(pipe) if !pipe.rates_are_valid()) {
        return Err(ServeConfigError::InvalidPaceRate);
    }
    let controller = cfg.control.controller();
    if controller.is_some_and(|cc| cc.window == 0) {
        return Err(ServeConfigError::ControllerWindowEmpty);
    }
    // A controller always drives an entropy-threshold policy, which needs
    // the cloud; otherwise the configured policy decides.
    let edge_only = controller.is_none() && cfg.policy.is_edge_only();
    if cfg.cloud_workers == 0 && !edge_only {
        return Err(ServeConfigError::PolicyNeedsCloud);
    }
    if let Some(pc) = cfg.control.planner() {
        if pc.feedback.is_some() {
            return Err(ServeConfigError::ClosedLoopFeedbackConflict);
        }
        if cfg.fleet.is_some() && !pc.classes.is_empty() {
            return Err(ServeConfigError::FleetClassesConflict);
        }
        if cfg.fleet.is_none() && pc.classes.is_empty() {
            return Err(ServeConfigError::NoPlannerClasses);
        }
        if cfg.link.is_none() {
            return Err(ServeConfigError::PlannedCutWithoutLink);
        }
    }
    match &cfg.control {
        ControlPlan::Governed(_) if cfg.link.is_none() => Err(ServeConfigError::GovernedWithoutTelemetry),
        _ => Ok(()),
    }
}

/// Checks the replicas against the configuration, once, in
/// [`Fleet::new`]: worker/replica counts and, for feature payloads, that
/// every edge carries a cloud prefix, that every prefix and cloud replica
/// enumerate the same cut layers, and that a forced cut fits them.
pub(crate) fn validate_replicas(
    cfg: &ServeConfig,
    edges: &[EdgeReplica],
    clouds: &[SegmentedCnn],
) -> Result<(), ServeError> {
    if cfg.edge_workers != edges.len() {
        return Err(ServeError::EdgeReplicaMismatch { workers: cfg.edge_workers, replicas: edges.len() });
    }
    if cfg.cloud_workers != clouds.len() {
        return Err(ServeError::CloudReplicaMismatch { workers: cfg.cloud_workers, replicas: clouds.len() });
    }
    if cfg.control.feature_wire().is_none() {
        return Ok(());
    }
    let mut prefixes = Vec::with_capacity(edges.len());
    for (w, e) in edges.iter().enumerate() {
        prefixes.push(e.cloud_prefix.as_ref().ok_or(ServeError::MissingCloudPrefix { worker: w })?);
    }
    // One layer count for every replica: the first cloud's, or the first
    // prefix's when the fleet is edge-only.
    let layers = clouds.first().unwrap_or(prefixes[0]).cut_layer_count();
    for prefix in prefixes {
        if prefix.cut_layer_count() != layers {
            return Err(ServeError::PrefixMismatch {
                edge_layers: prefix.cut_layer_count(),
                cloud_layers: layers,
            });
        }
    }
    for cloud in clouds {
        if cloud.cut_layer_count() != layers {
            return Err(ServeError::PrefixMismatch { edge_layers: layers, cloud_layers: cloud.cut_layer_count() });
        }
    }
    match cfg.control {
        ControlPlan::Static { cut, .. } if cut >= layers => {
            Err(ServeError::FixedCutOutOfRange { cut, cut_layers: layers })
        }
        _ => Ok(()),
    }
}

/// Checks a request trace before [`Fleet::serve_with`] runs it: finite,
/// sorted, non-negative arrival times that each become a deadline from
/// now, and images that are one instance of the edge network's
/// `[C, H, W]` input.
pub(crate) fn validate_trace(requests: &[ServeRequest], in_shape: [usize; 3]) -> Result<(), ServeError> {
    let [c, h, w] = in_shape;
    let expected = [1, c, h, w];
    // Finiteness first: a NaN arrival would otherwise trip the sortedness
    // check (NaN fails every comparison) with a misleading message.
    for (i, r) in requests.iter().enumerate() {
        if !r.arrival_s.is_finite() {
            return Err(ServeError::NonFiniteArrival { index: i, device: r.device, seq: r.seq });
        }
    }
    if !requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s) {
        return Err(ServeError::UnsortedArrivals);
    }
    let now = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        if r.arrival_s < 0.0 {
            return Err(ServeError::NegativeArrival { index: i });
        }
        if Duration::try_from_secs_f64(r.arrival_s).ok().and_then(|d| now.checked_add(d)).is_none() {
            return Err(ServeError::UnschedulableArrival { index: i, arrival_s: r.arrival_s });
        }
        if r.image.dims() != expected {
            return Err(ServeError::ImageShapeMismatch { index: i, expected, found: r.image.dims().to_vec() });
        }
    }
    Ok(())
}
