//! Serving-runtime throughput/latency-under-load experiment: the online
//! multi-worker runtime (`mea_edgecloud::serve`) under saturating traffic
//! at a high offload fraction, scaling the cloud tier.

use crate::scale::Scale;
use mea_data::synth::generate;
use mea_data::{ClassDict, Dataset};
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::fleet::{ComputeTier, DeviceClass, FleetSpec};
use mea_edgecloud::governor::{AccuracyModel, ControlPoint, SlaTarget};
use mea_edgecloud::network::{LinkEstimate, NetworkLink};
use mea_edgecloud::partition::{CutPlanner, Objective, PartitionEnv};
use mea_edgecloud::serve::{
    trace_requests, ControlPlan, CutPlannerConfig, EdgeReplica, FeatureWire, Fleet, LinkChange, LinkFeedback,
    ServeConfig, ServeConfigBuilder, ServeReport, ServeRequest, WireFormat, RESPONSE_WIRE_BYTES,
};
use mea_edgecloud::traces::ArrivalModel;
use mea_edgecloud::transport::{PaceChange, TransportKind, UdsConfig};
use mea_metrics::{Histogram, StreamingHistogram};
use mea_nn::models::{resnet_cifar, CifarResNetConfig, SegmentedCnn};
use mea_tensor::Rng;
use meanet::infer::run_inference_with_policy;
use meanet::model::{AdaptivePlan, MeaNet, Merge, Variant};
use meanet::{Difficulty, DifficultyPredictor, ExitPoint, InstanceRecord, OffloadPolicy};
use std::collections::HashMap;
use std::num::NonZeroU64;

/// Mean wall-clock service time per request (ms) — `1e3 / throughput`.
fn service_ms(report: &ServeReport) -> f64 {
    1e3 * report.stats.wall_s / report.stats.total as f64
}

/// Planned cuts on the lossless wire, unsteered: closed-loop when
/// `feedback` is given, open-loop otherwise.
fn planned(planner: CutPlannerConfig, feedback: Option<LinkFeedback>) -> ControlPlan {
    match feedback {
        Some(feedback) => ControlPlan::ClosedLoop { planner, feedback, wire: FeatureWire::F32, controller: None },
        None => ControlPlan::OpenLoop { planner, wire: FeatureWire::F32, controller: None },
    }
}

/// One serving configuration's measurements.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Cloud workers used.
    pub cloud_workers: usize,
    /// Requests served per second of wall clock.
    pub throughput_hz: f64,
    /// Mean wall-clock service time per request (ms) — `1e3 / throughput`.
    pub service_ms: f64,
    /// Median end-to-end latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Fraction of requests classified by the cloud.
    pub achieved_beta: f64,
    /// Batched cloud forwards executed.
    pub cloud_batches: u64,
    /// Largest coalesced batch.
    pub max_batch_seen: usize,
}

/// Everything the bench target needs to assert and report.
#[derive(Debug)]
pub struct ServingResult {
    /// One row per cloud-worker count, in sweep order (saturating load —
    /// arrivals all due at t=0, so quantiles track the makespan).
    pub rows: Vec<ServingRow>,
    /// A paced run at moderate load with the full cloud tier: latencies
    /// are dominated by the (precise) link-model sleeps plus service, so
    /// its p50/p95/p99 are stable enough to gate in CI.
    pub paced: ServingRow,
    /// The sequential offline sweep's records (ground truth).
    pub offline: Vec<InstanceRecord>,
    /// Each serving run's records: the sweep rows, then the paced run.
    pub served: Vec<Vec<InstanceRecord>>,
}

/// A tiny untrained MEANet (shared by the serving experiments and the
/// measured Table I row).
pub(crate) fn edge_replica(seed: u64, hard: &[usize]) -> MeaNet {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    let backbone = resnet_cifar(&cfg, &mut rng);
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
        Merge::Sum,
        &mut rng,
    );
    net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(hard), &mut rng);
    net
}

/// The matching tiny cloud DNN replica builder.
pub(crate) fn cloud_replica(seed: u64) -> SegmentedCnn {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    cfg.blocks_per_stage = 3;
    cfg.channels = [16, 24, 32];
    resnet_cifar(&cfg, &mut rng)
}

/// Picks an entropy threshold that offloads roughly `beta` of the data
/// (quantile of the main-exit entropies on the same instances).
pub(crate) fn high_offload_policy(net: &mut MeaNet, data: &Dataset, beta: f64) -> OffloadPolicy {
    let probe = meanet::infer::run_inference(net, None, data, &meanet::infer::InferenceConfig::edge_only(16));
    let entropies: Vec<f32> = probe.iter().map(|r| r.entropy).collect();
    OffloadPolicy::budgeted_from_validation(&entropies, beta)
}

/// The edge blocks' hard classes in every serving scenario.
const HARD: [usize; 3] = [0, 2, 4];

/// Worker counts and queue sizes of one serving run.
#[derive(Debug, Clone, Copy)]
struct Topology {
    edge_workers: usize,
    cloud_workers: usize,
    max_batch: usize,
    queue_depth: usize,
}

/// Two edge and two cloud workers, batches of up to 4, queues of 8.
const PAIR: Topology = Topology { edge_workers: 2, cloud_workers: 2, max_batch: 4, queue_depth: 8 };

/// One edge and one cloud worker, one payload per batch: batches start in
/// completion order, so every telemetry and control trajectory is
/// deterministic.
const PIPELINE: Topology = Topology { edge_workers: 1, cloud_workers: 1, max_batch: 1, queue_depth: 4 };

/// The driver every serving runner shares: the instances it serves and the
/// models its replicas are built from, afresh for each run.
struct Scenario {
    /// The served instances, in dataset order.
    data: Dataset,
    /// The training split of the same synthetic bundle.
    train: Dataset,
    edge: fn(u64, &[usize]) -> MeaNet,
    cloud: fn(u64) -> SegmentedCnn,
    edge_seed: u64,
    cloud_seed: u64,
}

impl Scenario {
    /// The first 96 test images (`repro_instances` at repro scale) of a
    /// 6-class, 8×8 `cifar100_like(data_seed)` bundle, served by
    /// [`edge_replica`] / [`cloud_replica`] networks of the given seeds.
    fn new(scale: Scale, data_seed: u64, repro_instances: usize, edge_seed: u64, cloud_seed: u64) -> Scenario {
        let instances = match scale {
            Scale::Smoke => 96,
            Scale::Repro | Scale::Full => repro_instances,
        };
        let mut data_cfg = scale.cifar100_like(data_seed);
        data_cfg.num_classes = 6;
        data_cfg.num_clusters = 3;
        data_cfg.image_hw = 8;
        data_cfg.test_per_class = instances / 6 + 1;
        let bundle = generate(&data_cfg);
        let data = bundle.test.subset(&(0..instances.min(bundle.test.len())).collect::<Vec<_>>());
        Scenario { data, train: bundle.train, edge: edge_replica, cloud: cloud_replica, edge_seed, cloud_seed }
    }

    /// A fresh edge network, bitwise equal to every other.
    fn edge_net(&self) -> MeaNet {
        (self.edge)(self.edge_seed, &HARD)
    }

    /// A fresh cloud network, bitwise equal to every other.
    fn cloud_net(&self) -> SegmentedCnn {
        (self.cloud)(self.cloud_seed)
    }

    /// The entropy threshold that offloads about `beta` of the instances.
    fn policy(&self, beta: f64) -> OffloadPolicy {
        high_offload_policy(&mut self.edge_net(), &self.data, beta)
    }

    /// The sequential offline sweep's records under `policy`: the ground
    /// truth every served run must reproduce.
    fn offline(&self, policy: OffloadPolicy) -> Vec<InstanceRecord> {
        run_inference_with_policy(&mut self.edge_net(), Some(&mut self.cloud_net()), &self.data, policy, 16)
    }

    /// A trace of every instance from `devices` devices, one frame per
    /// device every `interval_s` seconds.
    fn trace(&self, devices: usize, interval_s: f64, rng: &mut Rng) -> Vec<ServeRequest> {
        trace_requests(&self.data, devices, &ArrivalModel::Uniform { interval_s }, rng)
    }

    /// Serves `requests` once through a fresh [`Fleet`] of `topology`'s
    /// replicas under `cfg` steered by `control`. Edge replicas carry a
    /// cloud-network prefix whenever `control` ships features.
    fn serve(
        &self,
        topology: Topology,
        control: ControlPlan,
        cfg: ServeConfigBuilder,
        requests: &[ServeRequest],
    ) -> ServeReport {
        let features = !matches!(control, ControlPlan::Image { .. });
        let edge = || {
            if features {
                EdgeReplica::with_cloud_prefix(self.edge_net(), self.cloud_net())
            } else {
                EdgeReplica::new(self.edge_net())
            }
        };
        let edges = (0..topology.edge_workers).map(|_| edge()).collect();
        let clouds = (0..topology.cloud_workers).map(|_| self.cloud_net()).collect();
        let cfg = cfg
            .edge_workers(topology.edge_workers)
            .cloud_workers(topology.cloud_workers)
            .max_batch(topology.max_batch)
            .queue_depth(topology.queue_depth)
            .control(control)
            .build()
            .expect("valid serving configuration");
        let mut fleet = Fleet::new(cfg, edges, clouds).expect("replicas match the configuration");
        fleet.serve(requests).expect("the fleet serves the trace")
    }

    /// The first rate on the grid `0.05 · 1.3^i` Mbps (`i < 60`, 1 ms RTT)
    /// at which `pick` accepts the latency planner for `edge` devices, with
    /// `streams` of them contending for the link; returns the rate and
    /// that planner.
    fn search_link_rate(
        &self,
        edge: &DeviceProfile,
        streams: usize,
        pick: impl Fn(&CutPlanner) -> bool,
    ) -> (f64, CutPlanner) {
        let cloud_net = self.cloud_net();
        let in_elems: u64 = cloud_net.in_shape.iter().map(|&d| d as u64).product();
        let planner_at = |rate: f64| {
            let env = PartitionEnv {
                edge: edge.clone(),
                cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                link: NetworkLink::wifi(rate).with_rtt(0.001),
                bytes_per_elem: 4,
                raw_input_bytes: 4 * in_elems,
                response_bytes: RESPONSE_WIRE_BYTES,
            };
            CutPlanner::from_network(&cloud_net, env, Objective::Latency, streams)
        };
        let rate = (0..60)
            .map(|i| 0.05 * 1.3f64.powi(i))
            .find(|&r| pick(&planner_at(r)))
            .expect("some link rate on the grid satisfies the search");
        (rate, planner_at(rate))
    }
}

/// Latency-objective planner parameters over `classes` (empty when a
/// fleet spec supplies them) against a 200-GFLOP/s cloud.
fn latency_planner(classes: Vec<DeviceProfile>) -> CutPlannerConfig {
    CutPlannerConfig {
        classes,
        cloud: DeviceProfile::new("cloud", 200.0, 1e12),
        objective: Objective::Latency,
        feedback: None,
    }
}

/// The measured-link loop of the feedback experiments: a fast-moving
/// EWMA with no prior weight, replanning every 8 batches.
fn eager_feedback() -> LinkFeedback {
    LinkFeedback { alpha: 0.5, prior_samples: 0.0, replan_every: NonZeroU64::new(8).expect("8 > 0") }
}

/// Runs the cloud-worker scaling sweep: saturating arrivals (everything
/// due at t=0), a WiFi-class link model on the offload path (so extra
/// cloud workers overlap upload/RTT like concurrent in-flight RPCs), and
/// the same policy/instances for every configuration.
pub fn serving_throughput(scale: Scale) -> ServingResult {
    let scenario = Scenario::new(scale, 4201, 384, 31, 32);
    let policy = scenario.policy(0.8);
    let offline = scenario.offline(policy);
    // A WiFi-class uplink with a 10 ms RTT: each coalesced batch pays its
    // upload plus one round trip in real wall-clock time, so the cloud
    // tier scales by overlapping in-flight batches even when host cores
    // are scarce.
    let cfg = || ServeConfig::builder(policy).link(NetworkLink::wifi(50.0).with_rtt(0.010));
    let topology = |cloud_workers| Topology { cloud_workers, ..PAIR };

    let mut rng = Rng::new(7);
    let requests = scenario.trace(8, 0.0, &mut rng);
    let mut rows = Vec::new();
    let mut served = Vec::new();
    for cloud_workers in [1usize, 2, 4] {
        let report = scenario.serve(topology(cloud_workers), ControlPlan::default(), cfg(), &requests);
        rows.push(row_from(cloud_workers, &report));
        served.push(report.records);
    }

    // Paced latency profile: each of the 8 devices offers a frame every
    // 16 ms (aggregate ~500 req/s, comfortably under the 4-worker
    // capacity), so end-to-end latency reflects service + batching + link
    // rather than the saturation backlog.
    let paced_requests = scenario.trace(8, 0.016, &mut rng);
    let paced_cfg = cfg().max_wait(std::time::Duration::from_millis(1));
    let report = scenario.serve(topology(4), ControlPlan::default(), paced_cfg, &paced_requests);
    let paced = row_from(4, &report);
    // The paced trace interleaves devices by arrival time; map records
    // back to dataset order (instance = seq · devices + device) so they
    // compare directly against the offline sweep.
    let mut ordered = report.records.clone();
    for (k, req) in paced_requests.iter().enumerate() {
        ordered[req.seq * 8 + req.device] = report.records[k];
    }
    served.push(ordered);

    ServingResult { rows, paced, offline, served }
}

/// One payload mode's measurements from the feature-payload experiment.
#[derive(Debug, Clone)]
pub struct PayloadModeRow {
    /// Human-readable mode name.
    pub mode: &'static str,
    /// Bytes the cloud tier received.
    pub bytes_to_cloud: u64,
    /// Response bytes sent back down.
    pub bytes_from_cloud: u64,
    /// MACs the cloud tier executed.
    pub cloud_macs: u64,
    /// MACs the cloud tier skipped thanks to edge prefix execution.
    pub cloud_macs_saved: u64,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
    /// The cut layer (image modes have none).
    pub cut: Option<usize>,
    /// Records produced by the run, in input order.
    pub records: Vec<InstanceRecord>,
}

/// Everything the `feature_payload` bench target asserts and reports.
#[derive(Debug)]
pub struct FeaturePayloadResult {
    /// Raw-image upload (the paper's 1-byte-per-pixel baseline).
    pub image_raw: PayloadModeRow,
    /// f32 activations at the online-planned cut (lossless).
    pub feature_f32: PayloadModeRow,
    /// int8 activations at the deepest cut (`mea-quant` wire codec).
    pub feature_int8: PayloadModeRow,
    /// The sequential offline sweep's records (ground truth).
    pub offline: Vec<InstanceRecord>,
    /// Requests offloaded to the cloud (identical across modes).
    pub offloaded: usize,
    /// Full-forward MACs of the cloud network.
    pub cloud_total_macs: u64,
}

/// Runs the same saturating high-offload trace through the three payload
/// modes: raw-image upload, f32 feature payload at the cut the
/// [`mea_edgecloud::partition::CutPlanner`] picks online, and int8
/// feature payload at the deepest cut. Same models, same policy, same
/// instances — only the wire and the split move.
pub fn feature_payload(scale: Scale) -> FeaturePayloadResult {
    let scenario = Scenario::new(scale, 5301, 384, 41, 42);
    let policy = scenario.policy(0.8);
    let offline = scenario.offline(policy);
    let requests = scenario.trace(8, 0.0, &mut Rng::new(8));
    let link = NetworkLink::wifi(50.0).with_rtt(0.002);
    let deep_cut = scenario.cloud_net().cut_layer_count() - 1;

    let run = |mode: &'static str, control: ControlPlan| -> PayloadModeRow {
        let report = scenario.serve(PAIR, control, ServeConfig::builder(policy).link(link), &requests);
        PayloadModeRow {
            mode,
            bytes_to_cloud: report.stats.bytes_to_cloud,
            bytes_from_cloud: report.stats.bytes_from_cloud,
            cloud_macs: report.stats.cloud_macs,
            cloud_macs_saved: report.stats.cloud_macs_saved,
            service_ms: service_ms(&report),
            cut: report.stats.final_cuts.map(|c| c[0]),
            records: report.records,
        }
    };

    let image_raw =
        run("image (raw 8-bit)", ControlPlan::Image { wire: WireFormat::Quantised8Bit, controller: None });
    let feature_f32 = run(
        "features f32 @ planned cut",
        planned(latency_planner(vec![DeviceProfile::new("edge worker", 15.0, 5e11)]), None),
    );
    let feature_int8 = run(
        "features int8 @ deepest cut",
        ControlPlan::Static { cut: deep_cut, wire: FeatureWire::Int8, controller: None },
    );

    let offloaded = offline.iter().filter(|r| r.exit == ExitPoint::Cloud).count();
    let cloud_total_macs = scenario.cloud_net().total_macs();
    FeaturePayloadResult { image_raw, feature_f32, feature_int8, offline, offloaded, cloud_total_macs }
}

/// One planner-loop configuration's outcome in the measured-link
/// feedback experiment.
#[derive(Debug, Clone)]
pub struct FeedbackRow {
    /// Human-readable loop mode.
    pub mode: &'static str,
    /// The cut the (single) device class ended the run on.
    pub final_cut: usize,
    /// Replans that actually changed a cut.
    pub cut_replans: u64,
    /// Bytes the cloud tier received (informational: requests in flight
    /// across a replan boundary make the exact split racy).
    pub bytes_to_cloud: u64,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
    /// Records produced by the run, in input order.
    pub records: Vec<InstanceRecord>,
}

/// Everything the `planner_feedback` bench target asserts and reports.
#[derive(Debug)]
pub struct PlannerFeedbackResult {
    /// Open loop: the static contention model never hears about the
    /// degradation and keeps its nominal plan to the end.
    pub open: FeedbackRow,
    /// Closed loop: per-batch link telemetry reaches the planner, which
    /// moves the cut once the measured rate collapses.
    pub closed: FeedbackRow,
    /// The sequential offline sweep's records (ground truth).
    pub offline: Vec<InstanceRecord>,
    /// Requests offloaded (all of them: the trace serves `Always`).
    pub offloaded: usize,
    /// The degraded wire's uplink rate (Mbps) the schedule switches to.
    pub degraded_up_mbps: f64,
    /// The closed-loop run's final class-0 link estimate.
    pub estimate: LinkEstimate,
}

/// Runs the measured-link planner-feedback experiment: one device
/// streaming through a 1 edge × 1 cloud × `max_batch 1` pipeline (batch
/// order — and hence the whole telemetry trajectory — is deterministic),
/// with the wire silently degrading 100× a quarter of the way in. The
/// same trace runs open-loop (static contention model only) and
/// closed-loop ([`LinkFeedback`]); only the closed loop can move the cut.
pub fn planner_feedback(scale: Scale) -> PlannerFeedbackResult {
    let scenario = Scenario::new(scale, 6401, 288, 51, 52);
    let offline = scenario.offline(OffloadPolicy::Always);

    // A slow edge next to a fast cloud: under the nominal 100 Mbps wire
    // the planner ships pixels; once the wire collapses to 1 Mbps, paying
    // the edge prefix to shrink the upload wins — but only measured
    // telemetry can find that out.
    let nominal = NetworkLink::wifi(100.0).with_rtt(0.0002);
    let degraded = NetworkLink::wifi(1.0).with_rtt(0.0002);
    let degrade_after = scenario.data.len() as u64 / 4;
    let planner = latency_planner(vec![DeviceProfile::new("edge", 10.0, 5e9)]);

    let requests = scenario.trace(1, 0.0, &mut Rng::new(9));
    let run = |mode: &'static str, feedback: Option<LinkFeedback>| -> (FeedbackRow, ServeReport) {
        let cfg = ServeConfig::builder(OffloadPolicy::Always)
            .link(nominal)
            .link_events(vec![LinkChange { after_batches: degrade_after, link: degraded }]);
        let report = scenario.serve(PIPELINE, planned(planner.clone(), feedback), cfg, &requests);
        let row = FeedbackRow {
            mode,
            final_cut: report.stats.final_cuts.as_ref().expect("planned mode")[0],
            cut_replans: report.stats.cut_replans,
            bytes_to_cloud: report.stats.bytes_to_cloud,
            service_ms: service_ms(&report),
            records: report.records.clone(),
        };
        (row, report)
    };

    let (open, _) = run("open loop (static model)", None);
    let (closed, closed_report) = run("closed loop (measured feedback)", Some(eager_feedback()));
    let estimate = closed_report.stats.link_estimates.expect("feedback reports estimates")[0]
        .expect("class 0 observed at least one batch");
    let offloaded = offline.iter().filter(|r| r.exit == ExitPoint::Cloud).count();
    PlannerFeedbackResult { open, closed, offline, offloaded, degraded_up_mbps: 1.0, estimate }
}

/// One payload plan's modelled-vs-socket parity measurement in the
/// real-transport experiment.
#[derive(Debug, Clone)]
pub struct TransportParityRow {
    /// Human-readable plan name.
    pub plan: &'static str,
    /// Whether the socket run's records equal the modelled run's, bitwise.
    pub records_match: bool,
    /// Uplink bytes (asserted identical across transports).
    pub bytes_to_cloud: u64,
    /// Downlink bytes (asserted identical across transports).
    pub bytes_from_cloud: u64,
    /// The final cut, where the plan has one (identical across transports).
    pub cut: Option<usize>,
    /// Mean wall-clock service time per request over the modelled wire (ms).
    pub service_modelled_ms: f64,
    /// Mean wall-clock service time per request over the Unix socket (ms).
    pub service_uds_ms: f64,
}

/// One closed-loop run over the paced socket (measured wall-clock telemetry).
#[derive(Debug, Clone)]
pub struct SocketLoopRow {
    /// The cut the single device class ended the run on.
    pub final_cut: usize,
    /// Replans that actually changed a cut.
    pub cut_replans: u64,
    /// The final class-0 link estimate (from `Instant::now()` deltas).
    pub estimate: LinkEstimate,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
    /// Records produced by the run, in input order.
    pub records: Vec<InstanceRecord>,
}

/// Everything the `real_transport` bench target asserts and reports.
#[derive(Debug)]
pub struct RealTransportResult {
    /// Modelled-vs-socket parity, one row per payload plan.
    pub parity: Vec<TransportParityRow>,
    /// Instances served per parity run.
    pub total: usize,
    /// Requests offloaded per parity run (identical across transports).
    pub offloaded: usize,
    /// Open loop over the throttled socket: no feedback, the static
    /// model's plan holds to the end.
    pub open_cut: usize,
    /// Two identically-configured closed-loop runs over the throttled
    /// socket: real clocks make their link estimates differ run-to-run
    /// while every routing outcome stays identical.
    pub closed: [SocketLoopRow; 2],
    /// The pacer rate (Mbps) the mid-run throttle drops the uplink to.
    pub throttled_up_mbps: f64,
}

/// Runs the real-transport experiment. Part one: the same high-offload
/// trace crosses the modelled wire and a real Unix socket under every
/// payload plan (raw/quantised image, fixed f32/int8 cuts, planner-chosen
/// cut) — records and byte accounting must be identical, since the
/// transport only changes where the time comes from. Part two: the
/// socket's uplink pacer silently throttles mid-run and only the measured
/// closed loop (fed by `Instant::now()` deltas around real sends) moves
/// the cut; the static model is never told.
pub fn real_transport(scale: Scale) -> RealTransportResult {
    let scenario = Scenario::new(scale, 7501, 192, 61, 62);
    let policy = scenario.policy(0.8);
    let mut rng = Rng::new(10);
    let requests = scenario.trace(4, 0.0, &mut rng);
    let link = NetworkLink::wifi(50.0).with_rtt(0.002);
    let deep_cut = scenario.cloud_net().cut_layer_count() - 1;
    let open_loop = planned(latency_planner(vec![DeviceProfile::new("edge worker", 15.0, 5e11)]), None);
    let plans: Vec<(&'static str, ControlPlan)> = vec![
        ("image f32", ControlPlan::Image { wire: WireFormat::Float32, controller: None }),
        ("image quant8", ControlPlan::Image { wire: WireFormat::Quantised8Bit, controller: None }),
        (
            "features f32 @ mid cut",
            ControlPlan::Static { cut: deep_cut / 2, wire: FeatureWire::F32, controller: None },
        ),
        (
            "features int8 @ deep cut",
            ControlPlan::Static { cut: deep_cut, wire: FeatureWire::Int8, controller: None },
        ),
        ("features f32 @ planned cut", open_loop),
    ];

    let run = |control: &ControlPlan, transport: TransportKind| -> ServeReport {
        let cfg = ServeConfig::builder(policy).link(link).transport(transport);
        scenario.serve(PAIR, control.clone(), cfg, &requests)
    };

    let mut parity = Vec::new();
    let mut offloaded = 0;
    for (name, control) in &plans {
        let modelled = run(control, TransportKind::Modelled);
        let socket = run(control, TransportKind::Uds(UdsConfig::default()));
        assert_eq!(
            socket.stats.bytes_to_cloud, modelled.stats.bytes_to_cloud,
            "{name}: uplink bytes diverged between transports"
        );
        assert_eq!(
            socket.stats.bytes_from_cloud, modelled.stats.bytes_from_cloud,
            "{name}: downlink bytes diverged between transports"
        );
        assert_eq!(socket.stats.final_cuts, modelled.stats.final_cuts, "{name}: the transport moved the cut");
        offloaded = modelled.stats.offloaded;
        parity.push(TransportParityRow {
            plan: name,
            records_match: socket.records == modelled.records,
            bytes_to_cloud: modelled.stats.bytes_to_cloud,
            bytes_from_cloud: modelled.stats.bytes_from_cloud,
            cut: modelled.stats.final_cuts.as_ref().map(|c| c[0]),
            service_modelled_ms: service_ms(&modelled),
            service_uds_ms: service_ms(&socket),
        });
    }

    // Part two: a single deterministic pipeline over the PACED socket. The
    // pacer starts at 50 Mbps and silently throttles to 1 Mbps a quarter
    // of the way in; the static model (the planner's prior) is told
    // 100 Mbps and never updated.
    let throttled_up_mbps = 1.0;
    let loop_requests = scenario.trace(1, 0.0, &mut rng);
    let closed_loop = |feedback: Option<LinkFeedback>| -> ServeReport {
        let uds = UdsConfig {
            up_mbps: Some(50.0),
            throttle: vec![PaceChange {
                after_frames: scenario.data.len() as u64 / 4,
                up_mbps: throttled_up_mbps,
            }],
            ..UdsConfig::default()
        };
        let cfg = ServeConfig::builder(OffloadPolicy::Always)
            .link(NetworkLink::wifi(100.0).with_rtt(0.0002))
            .transport(TransportKind::Uds(uds));
        let planner = latency_planner(vec![DeviceProfile::new("edge", 10.0, 5e9)]);
        scenario.serve(PIPELINE, planned(planner, feedback), cfg, &loop_requests)
    };
    let open = closed_loop(None);
    let open_cut = open.stats.final_cuts.as_ref().expect("planned mode")[0];
    let feedback = Some(eager_feedback());
    let closed = [closed_loop(feedback), closed_loop(feedback)].map(|report| SocketLoopRow {
        final_cut: report.stats.final_cuts.as_ref().expect("planned mode")[0],
        cut_replans: report.stats.cut_replans,
        service_ms: service_ms(&report),
        estimate: report.stats.link_estimates.expect("feedback reports estimates")[0]
            .expect("class 0 observed at least one batch"),
        records: report.records,
    });

    RealTransportResult { parity, total: scenario.data.len(), offloaded, open_cut, closed, throttled_up_mbps }
}

fn row_from(cloud_workers: usize, report: &ServeReport) -> ServingRow {
    let h: Histogram = report.latency_histogram(2048);
    ServingRow {
        cloud_workers,
        throughput_hz: report.stats.throughput_hz,
        service_ms: service_ms(report),
        p50_ms: h.p50() * 1e3,
        p95_ms: h.p95() * 1e3,
        p99_ms: h.p99() * 1e3,
        achieved_beta: report.achieved_beta(),
        cloud_batches: report.stats.cloud_batches,
        max_batch_seen: report.stats.max_batch_seen,
    }
}

/// One device class's outcome in the heterogeneous-fleet experiment
/// (from the base run, difficulty routing off).
#[derive(Debug, Clone)]
pub struct FleetTierRow {
    /// Class name (it names the compute tier).
    pub name: &'static str,
    /// The tier's kernel-latency scale factor on the shared profile.
    pub throughput_factor: f64,
    /// The cut the planner derived from the tier-scaled profile.
    pub planned_cut: usize,
    /// Requests served by devices of this class.
    pub served: usize,
    /// Requests this class's devices offloaded to the cloud.
    pub offloaded: usize,
    /// 95th-percentile end-to-end latency (ms) within the class.
    pub p95_ms: f64,
}

/// One whole-fleet serving run (difficulty routing on or off).
#[derive(Debug, Clone)]
pub struct FleetRunRow {
    /// Human-readable routing mode.
    pub mode: &'static str,
    /// Requests served.
    pub total: usize,
    /// Requests classified by the cloud.
    pub offloaded: usize,
    /// Main-exit forwards skipped by hard-request pre-commits.
    pub skipped_main_exits: usize,
    /// Main-exit forwards actually executed (`total - skipped`).
    pub main_exit_evals: usize,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
}

/// Everything the `hetero_fleet` bench target asserts and reports.
#[derive(Debug)]
pub struct HeteroFleetResult {
    /// Per-class outcomes of the base run, High → Medium → Low.
    pub tiers: Vec<FleetTierRow>,
    /// The base run: heterogeneous fleet, no difficulty predictor.
    pub base: FleetRunRow,
    /// The same trace with difficulty-aware routing enabled.
    pub routed: FleetRunRow,
    /// Requests the predictor banded hard (pre-committed to the cloud).
    pub predicted_hard: usize,
    /// Requests the predictor banded easy (kept on the edge).
    pub predicted_easy: usize,
    /// The link rate (Mbps) the search settled on to separate the tiers.
    pub link_mbps: f64,
}

/// Runs the heterogeneous-fleet experiment: six devices spread round-robin
/// across three [`ComputeTier`]s of one hardware profile, served through
/// the [`Fleet`] API with planner-chosen per-class cuts — the link rate is
/// searched so the High and Low tiers provably plan different cuts. The
/// same trace then reruns with a [`DifficultyPredictor`] so hard requests
/// pre-commit to the cloud (skipping their main-exit forwards) and easy
/// requests refuse the offload leg.
pub fn hetero_fleet(scale: Scale) -> HeteroFleetResult {
    let scenario = Scenario::new(scale, 8601, 288, 71, 72);
    let mut probe_net = scenario.edge_net();
    let policy = high_offload_policy(&mut probe_net, &scenario.data, 0.5);
    let predictor = DifficultyPredictor::calibrate(&mut probe_net, &scenario.train.images, 16);

    // Three tiers sharing one hardware profile: only the kernel-latency
    // scale factor separates their effective throughputs.
    let base_profile = DeviceProfile::new("edge", 10.0, 5e8);
    let tier_list = [("high", ComputeTier::High), ("medium", ComputeTier::Medium), ("low", ComputeTier::Low)];
    let classes: Vec<DeviceClass> =
        tier_list.iter().map(|&(name, tier)| DeviceClass::new(name, base_profile.clone(), tier)).collect();

    // Find a link rate where the High and Low effective profiles plan
    // different cuts (their throughputs differ 2.5x, so some rate must),
    // making the per-class cut assertion meaningful at every scale.
    let devices = 6;
    let (high_profile, low_profile) = (classes[0].effective_profile(), classes[2].effective_profile());
    let (link_mbps, _) = scenario.search_link_rate(&high_profile, devices, |planner| {
        let cut = |edge| planner.plan_placement_for_measured(edge, None, None, None).plan.final_cut();
        cut(&high_profile) != cut(&low_profile)
    });
    let link = NetworkLink::wifi(link_mbps).with_rtt(0.001);

    let requests = scenario.trace(devices, 0.0, &mut Rng::new(11));
    let spec = FleetSpec::round_robin(classes.clone());
    let run = |mode: &'static str, difficulty: Option<DifficultyPredictor>| {
        let mut cfg = ServeConfig::builder(policy).link(link).fleet(spec.clone());
        if let Some(p) = difficulty {
            cfg = cfg.difficulty(p);
        }
        let topology = Topology { edge_workers: 3, ..PAIR };
        let report = scenario.serve(topology, planned(latency_planner(Vec::new()), None), cfg, &requests);
        let row = FleetRunRow {
            mode,
            total: report.stats.total,
            offloaded: report.stats.offloaded,
            skipped_main_exits: report.stats.skipped_main_exits,
            main_exit_evals: report.stats.total - report.stats.skipped_main_exits,
            service_ms: service_ms(&report),
        };
        (row, report)
    };

    let (base, base_report) = run("uniform routing", None);
    let verdicts: Vec<Difficulty> = requests.iter().map(|r| predictor.predict(&r.image)).collect();
    let predicted_hard = verdicts.iter().filter(|&&d| d == Difficulty::Hard).count();
    let predicted_easy = verdicts.iter().filter(|&&d| d == Difficulty::Easy).count();
    let (routed, _) = run("difficulty-aware routing", Some(predictor));

    let cuts = base_report.stats.final_cuts.clone().expect("planned mode reports cuts");
    let classes = base_report.stats.per_class.as_ref().expect("fleet stats");
    let tiers = tier_list
        .iter()
        .enumerate()
        .map(|(i, &(name, tier))| FleetTierRow {
            name,
            throughput_factor: tier.throughput_factor(),
            planned_cut: cuts[i],
            served: classes[i].served,
            offloaded: classes[i].offloaded,
            p95_ms: classes[i].latency.as_ref().map_or(0.0, |h| h.p95() * 1e3),
        })
        .collect();

    HeteroFleetResult { tiers, base, routed, predicted_hard, predicted_easy, link_mbps }
}

/// One topology/transport configuration's outcome in the saturation load
/// harness.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Row label (cloud workers + transport or trace).
    pub label: &'static str,
    /// Sustained throughput at saturation (req/s of wall clock).
    pub sustained_hz: f64,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
    /// Median end-to-end latency (ms), from the bounded streaming
    /// histogram — saturation quantiles track the backlog drain.
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Cloud workers that ran at least one batch.
    pub busy_workers: usize,
    /// High-water mark of frames on their way to the cloud tier.
    pub max_queue_depth: usize,
    /// Batched cloud forwards executed.
    pub cloud_batches: u64,
    /// Requests classified by the cloud tier.
    pub offloaded: usize,
    /// Per-device FIFO held per exit lane across the completion stream.
    pub fifo_ok: bool,
    /// Every request's record matched the offline sweep of its instance.
    pub record_identity: bool,
}

/// Everything the `load_harness` bench target asserts and reports.
#[derive(Debug)]
pub struct LoadHarnessResult {
    /// Devices in the trace (each contributes `frames_per_device` frames).
    pub devices: usize,
    /// Frames each device offers.
    pub frames_per_device: usize,
    /// Total requests per run.
    pub total: usize,
    /// Cloud workers in every run but `one_worker`.
    pub cloud_workers: usize,
    /// All cloud workers at the shared ingress queue, modelled WiFi link,
    /// heavy tail.
    pub shared: LoadRow,
    /// One cloud worker on the identical trace (the A/B baseline).
    pub one_worker: LoadRow,
    /// All cloud workers over the Unix socket transport, same trace.
    pub uds: LoadRow,
    /// All cloud workers on the diurnal-modulated Poisson trace.
    pub diurnal: LoadRow,
    /// `one_worker.service_ms / shared.service_ms` — the scheduling win
    /// from sharing a pathologically skewed device population's backlog.
    pub speedup: f64,
}

/// Builds a saturating trace of `devices * frames_per_device` requests by
/// cycling the dataset's instances round-robin (instance `seq·devices +
/// device`, modulo the dataset), with every device id multiplied by
/// `stride`: every id is then one residue modulo any divisor of `stride`,
/// so device-sticky dispatch (`device % edge_workers`) sends the whole
/// population through one edge worker — the worst-case skew, whose one
/// stream the cloud workers still share.
fn skewed_trace(
    data: &Dataset,
    devices: usize,
    frames_per_device: usize,
    stride: usize,
    model: &ArrivalModel,
    rng: &mut Rng,
) -> (Vec<usize>, Vec<ServeRequest>) {
    let mut tagged: Vec<(usize, ServeRequest)> = Vec::with_capacity(devices * frames_per_device);
    for d in 0..devices {
        let times = model.generate(frames_per_device, rng);
        for (s, &arrival_s) in times.iter().enumerate() {
            assert!(arrival_s.is_finite(), "non-finite arrival for device {d} seq {s}");
            let instance = (s * devices + d) % data.len();
            tagged.push((
                instance,
                ServeRequest {
                    device: d * stride,
                    seq: s,
                    arrival_s,
                    image: data.images.slice_axis0(instance, instance + 1),
                    truth: data.labels[instance],
                },
            ));
        }
    }
    // Stable sort: ties keep per-device generation order, and each
    // device's own times are non-decreasing, so seq order survives.
    tagged.sort_by(|a, b| a.1.arrival_s.total_cmp(&b.1.arrival_s));
    tagged.into_iter().unzip()
}

/// Slimmer replicas than [`edge_replica`]/[`cloud_replica`]: the load
/// harness measures *scheduling* (how well link sleeps overlap across the
/// cloud tier), so per-request model compute is kept far below the
/// modelled link time — otherwise the edge tier's forwards would bound
/// both topologies on a small CI host and hide the scheduling gap.
fn slim_edge(seed: u64, hard: &[usize]) -> MeaNet {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    cfg.blocks_per_stage = 1;
    cfg.channels = [8, 12, 16];
    let backbone = resnet_cifar(&cfg, &mut rng);
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
        Merge::Sum,
        &mut rng,
    );
    net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(hard), &mut rng);
    net
}

/// The matching slim cloud DNN replica.
fn slim_cloud(seed: u64) -> SegmentedCnn {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    cfg.blocks_per_stage = 2;
    cfg.channels = [8, 12, 16];
    resnet_cifar(&cfg, &mut rng)
}

/// Runs the scale-out saturation harness: a heavy-tailed (log-normal)
/// trace from a large skewed device population — every device rides one
/// edge worker — through six cloud workers sharing the run's one lane and
/// through one cloud worker on the modelled-link transport (A/B on
/// identical requests), plus the same trace over the Unix socket
/// transport and a diurnal-modulated Poisson trace, all at a high offload
/// fraction.
///
/// The modelled link charges each coalesced batch an upload plus a 20 ms
/// RTT; one worker serialises those sleeps, while six overlap them — the
/// measured speedup is pure scheduling, which is why records must still
/// match the offline sweep bit for bit in every run.
pub fn load_harness(scale: Scale) -> LoadHarnessResult {
    let (devices, frames_per_device) = match scale {
        Scale::Smoke => (1_000, 2),
        Scale::Repro | Scale::Full => (10_000, 2),
    };
    let scenario = Scenario { edge: slim_edge, cloud: slim_cloud, ..Scenario::new(scale, 9701, 96, 81, 82) };
    let data = &scenario.data;
    let policy = scenario.policy(0.8);
    // Ground truth: the sequential offline sweep over the base instances.
    // Each request is a cycled instance, so its record must equal the
    // offline record of that instance whatever the topology or transport.
    let offline = scenario.offline(policy);

    let topology = Topology { edge_workers: 2, cloud_workers: 6, max_batch: 8, queue_depth: 64 };
    let cloud_workers = topology.cloud_workers;
    let mut rng = Rng::new(12);

    // Heavy tail: median inter-arrival ~0.9 ms per device with sigma=1
    // log-normal stragglers — saturating in aggregate, bursty per device.
    let heavy = ArrivalModel::LogNormal { mu: -7.0, sigma: 1.0 };
    let (instance_of, requests) = skewed_trace(data, devices, frames_per_device, cloud_workers, &heavy, &mut rng);
    // Day/night swing compressed to a sub-second period so the modulation
    // actually moves within the trace.
    let diurnal_model = ArrivalModel::Diurnal { base_rate_hz: 2_000.0, amplitude: 0.8, period_s: 0.25 };
    let (diurnal_instance_of, diurnal_requests) =
        skewed_trace(data, devices, frames_per_device, cloud_workers, &diurnal_model, &mut rng);

    let run = |label: &'static str,
               topology: Topology,
               transport: TransportKind,
               requests: &[ServeRequest],
               instance_of: &[usize]|
     -> LoadRow {
        let mut cfg = ServeConfig::builder(policy);
        if matches!(transport, TransportKind::Modelled) {
            // WiFi-class uplink with a 20 ms RTT: each batch pays real
            // wall-clock sleep, so overlap (not host cores) sets capacity,
            // and a deep queue lets every worker fill whole batches.
            cfg = cfg.link(NetworkLink::wifi(50.0).with_rtt(0.020));
        }
        let report = scenario.serve(topology, ControlPlan::default(), cfg.transport(transport), requests);
        assert_eq!(report.completions.len(), requests.len(), "{label}: every request completes");

        let mut fifo_ok = true;
        let mut last: HashMap<usize, [Option<usize>; 2]> = HashMap::new();
        for c in &report.completions {
            let lane = usize::from(c.record.exit == ExitPoint::Cloud);
            let slot = &mut last.entry(c.device).or_default()[lane];
            if slot.is_some_and(|prev| c.seq <= prev) {
                fifo_ok = false;
            }
            *slot = Some(c.seq);
        }

        let mut h = StreamingHistogram::for_latency();
        for c in &report.completions {
            h.record(c.latency_s);
        }

        LoadRow {
            label,
            sustained_hz: report.stats.throughput_hz,
            service_ms: service_ms(&report),
            p50_ms: h.p50() * 1e3,
            p95_ms: h.p95() * 1e3,
            p99_ms: h.p99() * 1e3,
            busy_workers: report.stats.per_worker_batches.iter().filter(|&&b| b > 0).count(),
            max_queue_depth: report.stats.max_queue_depth,
            cloud_batches: report.stats.cloud_batches,
            offloaded: report.stats.offloaded,
            fifo_ok,
            record_identity: report.records.iter().zip(instance_of).all(|(r, &i)| *r == offline[i]),
        }
    };

    let shared = run("6 workers / modelled", topology, TransportKind::Modelled, &requests, &instance_of);
    let one_worker = run(
        "1 worker / modelled",
        Topology { cloud_workers: 1, ..topology },
        TransportKind::Modelled,
        &requests,
        &instance_of,
    );
    let uds = run(
        "6 workers / Unix socket",
        topology,
        TransportKind::Uds(UdsConfig::default()),
        &requests,
        &instance_of,
    );
    let diurnal = run(
        "6 workers / diurnal trace",
        topology,
        TransportKind::Modelled,
        &diurnal_requests,
        &diurnal_instance_of,
    );

    let speedup = one_worker.service_ms / shared.service_ms;
    LoadHarnessResult {
        devices,
        frames_per_device,
        total: requests.len(),
        cloud_workers,
        shared,
        one_worker,
        uds,
        diurnal,
        speedup,
    }
}

/// One serving run's outcome in the SLA-governor experiment.
#[derive(Debug, Clone)]
pub struct SlaRunRow {
    /// Human-readable control-plan name.
    pub mode: &'static str,
    /// p95 latency over the steady-state half of the trace (ms): the
    /// completions whose request index falls in the second half, i.e.
    /// after the degradation hit and any governed escalation settled.
    pub steady_p95_ms: f64,
    /// The cut layer class 0 ended the run on.
    pub final_cut: usize,
    /// The feature wire class 0 ended the run on.
    pub final_wire: FeatureWire,
    /// Decision windows that violated the SLA (0 unless governed).
    pub sla_violations: u64,
    /// Times the governor moved the (β, cut, wire) point (0 unless
    /// governed).
    pub governor_decisions: u64,
    /// Replans that actually changed a cut.
    pub cut_replans: u64,
    /// Uplink bytes shipped to the cloud tier.
    pub bytes_to_cloud: u64,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
    /// Records produced by the run, in input order.
    pub records: Vec<InstanceRecord>,
}

/// Everything the `sla_governor` bench target asserts and reports.
#[derive(Debug)]
pub struct SlaGovernorResult {
    /// The governed p95 budget (ms).
    pub budget_ms: f64,
    /// The governed Table-III accuracy floor.
    pub accuracy_floor: f64,
    /// Open loop: static contention model, f32 wire, no feedback — the
    /// degradation goes unnoticed and the SLA is violated to the end.
    pub open: SlaRunRow,
    /// Closed loop: measured feedback moves the cut, but the wire is
    /// pinned to f32 — not enough to get back under the budget.
    pub closed: SlaRunRow,
    /// Governed: the same loop plus the governor's ladder — holds the
    /// budget by switching the wire to int8 on the replanned cut.
    pub governed: SlaRunRow,
    /// The governed run's control trajectory (initial point + one entry
    /// per decision).
    pub governed_trajectory: Vec<ControlPoint>,
    /// The accuracy model's prediction at the achieved offload fraction.
    pub predicted_accuracy: f64,
    /// A governed run against an unreachable budget on a stationary
    /// link: the ladder escalates to the top deterministically.
    pub harsh: SlaRunRow,
    /// The harsh run's control trajectory.
    pub harsh_trajectory: Vec<ControlPoint>,
    /// Where the harsh run's β target must pin: the accuracy floor's
    /// minimum offload fraction.
    pub harsh_beta_floor: f64,
    /// The cut the harsh run ends on (deep: past the image-size
    /// break-even).
    pub deep_cut: usize,
    /// Requests offloaded per run (all of them: the trace serves
    /// `Always`).
    pub offloaded: usize,
    /// Uplink bytes of a fixed run at `deep_cut` on the per-tensor int8
    /// wire.
    pub bytes_per_tensor: u64,
    /// Uplink bytes of the same fixed run on the grid-indexed
    /// per-channel int8 wire.
    pub bytes_per_channel: u64,
}

/// Exact p95 order statistic of the completions whose request index is
/// in the second half of the trace (the steady-state tail), in ms.
fn steady_p95_ms(report: &ServeReport) -> f64 {
    let total = report.stats.total;
    let mut tail: Vec<f64> =
        report.completions.iter().filter(|c| c.req_id >= total / 2).map(|c| c.latency_s).collect();
    assert!(!tail.is_empty(), "no steady-state completions");
    tail.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((tail.len() - 1) as f64 * 0.95).round() as usize;
    1e3 * tail[idx]
}

/// Runs the SLA-governor experiment: one device paced through a 1 edge ×
/// 1 cloud × `max_batch 1` pipeline (batch order — and hence the whole
/// control trajectory — is deterministic), with the wire collapsing
/// 200× a quarter of the way in. The same trace runs open-loop (static
/// model, f32), closed-loop (measured feedback, f32) and governed
/// ([`ControlPlan::Governed`]); only the governor can change the wire,
/// and only it gets back under the p95 budget. A fourth governed run
/// against an unreachable budget on a stationary link walks the full
/// escalation ladder — per-channel int8 at the deep cut, β stepped down
/// to the accuracy floor — and two fixed-cut runs price the int8 wires
/// against each other byte-for-byte.
pub fn sla_governor(scale: Scale) -> SlaGovernorResult {
    let scenario = Scenario::new(scale, 7301, 192, 71, 72);
    let instances = scenario.data.len();
    let budget_ms = 16.0;
    let accuracy_floor = 0.80;
    // Nominal, the plan ships pixels comfortably under budget; degraded,
    // a f32 upload at any cut blows the budget (deep f32 ≈ 25 ms) while
    // an int8 one at the deep cut fits (≈ 11 ms) — ~1.5× margin on both
    // sides of the budget, so the window verdicts that drive the ladder
    // are stable under scheduler noise.
    let nominal = NetworkLink::wifi(40.0).with_rtt(0.0002);
    let degraded = NetworkLink::wifi(0.2).with_rtt(0.0002);
    let degrade_after = instances as u64 / 4;

    let mut rng = Rng::new(11);
    // Paced slower than the worst degraded f32 service (~36 ms), so no
    // backlog builds and the decision windows see clean per-wire
    // latencies (no cross-epoch stragglers).
    let paced = scenario.trace(1, 0.050, &mut rng);
    let saturating = scenario.trace(1, 0.0, &mut rng);

    // A single-class fleet with a compute-poor edge: nominally the
    // latency plan ships pixels (cut 0), so the collapse forces the
    // governor to move the *cut* before the wire. The spec supplies the
    // planner's device classes for every run, governed or not, so the
    // baselines differ from the governed run only by the control plan.
    let spec =
        FleetSpec::uniform(DeviceClass::new("edge", DeviceProfile::new("edge", 10.0, 5e9), ComputeTier::High));
    let planner = || CutPlannerConfig {
        classes: Vec::new(),
        cloud: DeviceProfile::cloud_accelerator(),
        objective: Objective::Latency,
        feedback: None,
    };
    let run = |mode: &'static str,
               control: ControlPlan,
               link: NetworkLink,
               schedule: &[LinkChange],
               requests: &[ServeRequest]|
     -> (SlaRunRow, ServeReport) {
        let cfg = ServeConfig::builder(OffloadPolicy::Always)
            .link(link)
            .link_events(schedule.to_vec())
            .fleet(spec.clone());
        let report = scenario.serve(PIPELINE, control, cfg, requests);
        let final_wire = report
            .stats
            .control_trajectory
            .as_ref()
            .and_then(|t| t.last())
            .map_or(FeatureWire::F32, |p| p.wires[0]);
        let row = SlaRunRow {
            mode,
            steady_p95_ms: steady_p95_ms(&report),
            final_cut: report.stats.final_cuts.as_ref().expect("feature mode")[0],
            final_wire,
            sla_violations: report.stats.sla_violations,
            governor_decisions: report.stats.governor_decisions,
            cut_replans: report.stats.cut_replans,
            bytes_to_cloud: report.stats.bytes_to_cloud,
            service_ms: service_ms(&report),
            records: report.records.clone(),
        };
        (row, report)
    };

    let schedule = vec![LinkChange { after_batches: degrade_after, link: degraded }];
    // The comparison rows are wall-clock order statistics of live paced
    // pipelines: a noisy host (CI neighbour, a background compile) can
    // double every p95 regardless of the control plan. Each run keeps
    // its best (lowest-p95) attempt out of up to three — host noise only
    // ever inflates a latency, so the minimum is the cleanest estimate —
    // and the loop stops as soon as the verdicts separate (governed
    // under the budget, both ungoverned runs over it), which on a quiet
    // host is the first attempt. The harsh and pricing runs below are
    // deterministic in everything gated and are never retried.
    let keep_best = |best: &mut Option<(SlaRunRow, ServeReport)>, attempt: (SlaRunRow, ServeReport)| {
        let replace = match best {
            Some((row, _)) => attempt.0.steady_p95_ms < row.steady_p95_ms,
            None => true,
        };
        if replace {
            *best = Some(attempt);
        }
    };
    let mut best_open = None;
    let mut best_closed = None;
    let mut best_governed = None;
    for _attempt in 0..3 {
        keep_best(
            &mut best_open,
            run("open loop (static, f32)", planned(planner(), None), nominal, &schedule, &paced),
        );
        keep_best(
            &mut best_closed,
            run(
                "closed loop (feedback, f32)",
                planned(planner(), Some(LinkFeedback::default())),
                nominal,
                &schedule,
                &paced,
            ),
        );
        keep_best(
            &mut best_governed,
            run(
                "governed (SLA ladder)",
                ControlPlan::Governed(SlaTarget::new(budget_ms, accuracy_floor)),
                nominal,
                &schedule,
                &paced,
            ),
        );
        let p95 = |best: &Option<(SlaRunRow, ServeReport)>| best.as_ref().expect("just ran").0.steady_p95_ms;
        if p95(&best_governed) <= budget_ms && p95(&best_open) > budget_ms && p95(&best_closed) > budget_ms {
            break;
        }
    }
    let (open, _) = best_open.expect("at least one attempt");
    let (closed, _) = best_closed.expect("at least one attempt");
    let (governed, governed_report) = best_governed.expect("at least one attempt");
    let governed_trajectory =
        governed_report.stats.control_trajectory.clone().expect("governed runs report a trajectory");
    let predicted_accuracy = AccuracyModel::default().predicted(governed_report.achieved_beta());

    // The unreachable budget: every full window violates, so the ladder
    // walks rung by rung to per-channel int8 and then steps β down to
    // the accuracy floor — on a stationary link the whole trajectory is
    // deterministic.
    let harsh_floor = 0.90;
    let (harsh, harsh_report) = run(
        "governed (unreachable SLA)",
        ControlPlan::Governed(SlaTarget::new(1e-3, harsh_floor)),
        NetworkLink::wifi(1.0).with_rtt(0.0002),
        &[],
        &saturating,
    );
    let harsh_trajectory =
        harsh_report.stats.control_trajectory.clone().expect("governed runs report a trajectory");
    let harsh_beta_floor = AccuracyModel::default().min_beta(harsh_floor);
    let deep_cut = harsh.final_cut;

    // Price the two int8 wires against each other at the deep cut the
    // ladder landed on: the per-channel grid frames embed no params and
    // squeeze the batch axis, so they undercut per-tensor frames by a
    // fixed 16 bytes each.
    let fixed = |wire: FeatureWire| -> u64 {
        let (row, _) = run(
            "fixed wire pricing",
            ControlPlan::Static { cut: deep_cut, wire, controller: None },
            nominal,
            &[],
            &saturating,
        );
        row.bytes_to_cloud
    };
    let bytes_per_tensor = fixed(FeatureWire::Int8);
    let bytes_per_channel = fixed(FeatureWire::PerChannelInt8);

    SlaGovernorResult {
        budget_ms,
        accuracy_floor,
        open,
        closed,
        governed,
        governed_trajectory,
        predicted_accuracy,
        harsh,
        harsh_trajectory,
        harsh_beta_floor,
        deep_cut,
        offloaded: instances,
        bytes_per_tensor,
        bytes_per_channel,
    }
}

/// One cooperative-splitting serving run (the Low tier solo or pooled).
#[derive(Debug, Clone)]
pub struct CoopRunRow {
    /// Row label.
    pub mode: &'static str,
    /// Requests served.
    pub total: usize,
    /// Requests classified by the cloud.
    pub offloaded: usize,
    /// Layer the final upload resumes at (planner-chosen).
    pub final_cut: usize,
    /// Stages in the planned placement.
    pub stages: usize,
    /// Offloads that crossed the cooperative local wire first.
    pub peer_hops: u64,
    /// Bytes shipped over the cooperative local wire.
    pub peer_bytes: u64,
    /// Bytes shipped over the WAN uplink.
    pub bytes_to_cloud: u64,
    /// Mean wall-clock service time per request (ms).
    pub service_ms: f64,
}

/// Everything the `coop_edge` bench target asserts and reports.
#[derive(Debug)]
pub struct CoopEdgeResult {
    /// The Low-tier class serving alone.
    pub solo: CoopRunRow,
    /// The same class splitting across its cooperative group.
    pub coop: CoopRunRow,
    /// The WAN rate (Mbps) the search settled on to make pooling pay.
    pub link_mbps: f64,
    /// The cooperative group's local wire rate (Mbps).
    pub peer_mbps: f64,
    /// Devices in the cooperative group.
    pub members: usize,
    /// Planner-promised WAN payload bytes per offload, solo plan.
    pub planned_upload_solo: u64,
    /// Planner-promised WAN payload bytes per offload, pooled plan.
    pub planned_upload_coop: u64,
    /// Planner-promised peer-wire bytes per offload, pooled plan.
    pub planned_peer_bytes: u64,
    /// Whether both runs produced bitwise-identical Algorithm-2 records.
    pub records_match: bool,
}

/// Runs the cooperative-edge-splitting experiment: one Low-tier device
/// class served through the [`Fleet`] API twice over the same trace —
/// once solo (the planner can only choose a two-stage edge→cloud plan)
/// and once with a 3-member cooperative group behind a fast local wire,
/// where pooled peer throughput lets the planner push the final cut
/// deeper and shrink the WAN upload. The WAN rate is searched so the
/// pooled plan provably takes a peer stage AND uploads strictly fewer
/// bytes than the solo plan, making the wall-clock comparison decisive.
/// Both runs ship `f32` features, so their Algorithm-2 records must be
/// bitwise identical despite the different cuts.
pub fn coop_edge(scale: Scale) -> CoopEdgeResult {
    let scenario = Scenario::new(scale, 9301, 240, 91, 92);
    let policy = scenario.policy(0.6);

    // One Low-tier class in two guises: solo, and pooled into a
    // 3-member cooperative group behind a fast dedicated local wire.
    let members = 3;
    let peer_mbps = 400.0;
    let base_profile = DeviceProfile::new("edge", 10.0, 5e8);
    let solo_class = DeviceClass::new("low", base_profile.clone(), ComputeTier::Low);
    let coop_class = solo_class.clone().coop_group(members, NetworkLink::wifi(peer_mbps).with_rtt(0.0005));
    let pool = FleetSpec::uniform(coop_class.clone()).peer_pools().remove(0);
    let low_profile = solo_class.effective_profile();

    // Find a WAN rate where the pooled plan takes a peer stage and
    // strictly shrinks the upload: the cooperative win is then decisive
    // (the saved WAN bytes dominate the cheap local hop at any scale).
    let devices = 4;
    let (link_mbps, planner) = scenario.search_link_rate(&low_profile, devices, |planner| {
        let pooled = planner.plan_placement_for_measured(&low_profile, None, None, pool.as_ref());
        let solo = planner.plan_placement_for_measured(&low_profile, None, None, None);
        pooled.plan.peer_stage().is_some() && pooled.upload_bytes < solo.upload_bytes
    });
    let link = NetworkLink::wifi(link_mbps).with_rtt(0.001);
    let planned_coop = planner.plan_placement_for_measured(&low_profile, None, None, pool.as_ref());
    let planned_solo = planner.plan_placement_for_measured(&low_profile, None, None, None);

    let requests = scenario.trace(devices, 0.0, &mut Rng::new(17));
    let run = |mode: &'static str, class: DeviceClass| {
        let cfg = ServeConfig::builder(policy).link(link).fleet(FleetSpec::uniform(class));
        let report = scenario.serve(PAIR, planned(latency_planner(Vec::new()), None), cfg, &requests);
        let placement = report.stats.placements.as_ref().expect("planned mode reports placements")[0].clone();
        let row = CoopRunRow {
            mode,
            total: report.stats.total,
            offloaded: report.stats.offloaded,
            final_cut: placement.final_cut(),
            stages: placement.stages().len(),
            peer_hops: report.stats.peer_hops,
            peer_bytes: report.stats.peer_bytes,
            bytes_to_cloud: report.stats.bytes_to_cloud,
            service_ms: service_ms(&report),
        };
        (row, report)
    };

    let (solo, solo_report) = run("solo", solo_class);
    let (coop, coop_report) = run("coop pool", coop_class);
    CoopEdgeResult {
        solo,
        coop,
        link_mbps,
        peer_mbps,
        members,
        planned_upload_solo: planned_solo.upload_bytes,
        planned_upload_coop: planned_coop.upload_bytes,
        planned_peer_bytes: planned_coop.peer_bytes,
        records_match: solo_report.records == coop_report.records,
    }
}
