//! The online serving runtime: train a small distributed system, then
//! serve bursty multi-device traffic through it — N edge workers, a
//! dynamically batching cloud tier behind a modelled WiFi uplink, and a
//! runtime threshold controller steering the offload fraction — and
//! print the end-to-end latency histogram. Ends with cooperative edge
//! splitting: a pooled 3-member group whose planned multi-stage
//! `PlacementPlan` ships a fraction of the solo plan's WAN bytes over
//! the same trace with bitwise-identical records.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::fleet::{ComputeTier, DeviceClass, FleetSpec};
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::partition::{CutPlanner, Objective, PartitionEnv, StageExecutor};
use mea_edgecloud::serve::{
    trace_requests, ControlPlan, ControllerConfig, CutPlannerConfig, EdgeReplica, FeatureWire, Fleet, LinkChange,
    LinkFeedback, ServeConfig, ServeRequest, WireFormat, RESPONSE_WIRE_BYTES,
};
use mea_edgecloud::traces::ArrivalModel;
use mea_edgecloud::transport::{PaceChange, TransportKind, UdsConfig};
use mea_nn::models::SegmentedCnn;
use mea_nn::StateDict;
use mea_tensor::Rng;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::{MeaNet, OffloadPolicy, ThresholdController};
use std::num::NonZeroU64;

fn main() {
    // Train a small distributed system (same recipe as edge_cloud_sim).
    let bundle = mea_data::presets::tiny(3);
    let mut cfg = PipelineConfig::repro_resnet_b(6, 8, 3);
    if let BackboneChoice::CifarResNet(ref mut c) = cfg.backbone {
        c.input_hw = 8;
    }
    if let Some(BackboneChoice::CifarResNet(ref mut c)) = cfg.cloud {
        c.input_hw = 8;
        // A bottlenecked final stage: the deepest activation (64 elems)
        // is far smaller than the input (192), so a *deep* cut can beat
        // shipping pixels outright — the regime where closed-loop cut
        // planning has something to find.
        c.channels = [16, 24, 16];
    }
    let mut pipe = Pipeline::run(&cfg, &bundle.train);

    // Replicate the trained models onto the workers: 2 edge, 2 cloud.
    // Every run below rebuilds fresh replicas from the same trained
    // state, so they all serve bitwise-identical models.
    let edge_workers = 2;
    let cloud_workers = 2;
    let dict = pipe.net.hard_dict().expect("trained pipeline").clone();
    let cloud_state = StateDict::from_cnn(pipe.cloud.as_mut().expect("pipeline has a cloud"));
    let cloud_choice = cfg.cloud.as_ref().expect("cloud configured");
    let build_cloud = |seed: u64| -> SegmentedCnn {
        let mut rng = Rng::new(seed);
        let mut replica = cloud_choice.build(&mut rng);
        cloud_state.apply_to_cnn(&mut replica).expect("identical cloud architecture");
        replica
    };
    let mut build_edges = |with_prefix: bool| -> Vec<EdgeReplica> {
        (0..edge_workers)
            .map(|i| {
                let mut rng = Rng::new(100 + i as u64);
                let backbone = cfg.backbone.build(&mut rng);
                let mut net = MeaNet::from_backbone(backbone, cfg.variant, cfg.merge, &mut rng);
                net.attach_edge_blocks(cfg.adaptive, dict.clone(), &mut rng);
                pipe.net.replicate_into(&mut net);
                if with_prefix {
                    // Feature payloads need the cloud's prefix at the edge.
                    EdgeReplica::with_cloud_prefix(net, build_cloud(300 + i as u64))
                } else {
                    EdgeReplica::new(net)
                }
            })
            .collect()
    };
    let edges = build_edges(false);
    let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|i| build_cloud(200 + i as u64)).collect();

    // Bursty traffic from 6 devices: 5-frame bursts with a 60 ms gap —
    // exactly the pattern that stresses the shared cloud queue. Repeat
    // the test set a few times for a longer trace.
    let mut rng = Rng::new(9);
    let burst = ArrivalModel::Bursty { burst_len: 5, intra_s: 0.001, gap_s: 0.060 };
    let mut requests: Vec<ServeRequest> = Vec::new();
    for rep in 0..4 {
        let offset = requests.last().map(|r| r.arrival_s + 0.05).unwrap_or(0.0);
        for mut r in trace_requests(&bundle.test, 6, &burst, &mut rng) {
            r.arrival_s += offset;
            r.seq += rep * bundle.test.len();
            requests.push(r);
        }
    }

    // Serve through the Fleet API with dynamic batching (up to 8 per
    // cloud forward), a WiFi uplink model, and a controller steering beta
    // toward 0.3. The builder validates the configuration up front and
    // Fleet::new checks it against the replicas, so the serving loop
    // itself can only fail on a malformed trace.
    let serve_cfg = ServeConfig::builder(OffloadPolicy::Never)
        .edge_workers(edge_workers)
        .cloud_workers(cloud_workers)
        .max_batch(8)
        .queue_depth(8)
        .link(NetworkLink::wifi(50.0).with_rtt(0.008))
        .control(ControlPlan::Image {
            wire: WireFormat::Float32,
            controller: Some(ControllerConfig {
                controller: ThresholdController::new(0.5, 0.3, 1.0, (0.0, 2.0)),
                window: 24,
            }),
        })
        .build()
        .expect("valid serving configuration");
    let mut fleet = Fleet::new(serve_cfg, edges, clouds).expect("replicas match the configuration");
    let report = fleet.serve(&requests).expect("the fleet serves the trace");

    let accuracy = report.records.iter().filter(|r| r.correct).count() as f64 / report.records.len() as f64;
    println!(
        "served {} requests at {:.0} req/s — accuracy {:.1}%, offloaded {:.1}% (target 30%), \
         {} cloud batches (max batch {}), final threshold {:.3}",
        report.stats.total,
        report.stats.throughput_hz,
        100.0 * accuracy,
        100.0 * report.achieved_beta(),
        report.stats.cloud_batches,
        report.stats.max_batch_seen,
        report.stats.final_threshold.unwrap_or(f32::NAN),
    );

    let h = report.latency_histogram(24);
    println!("latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms", 1e3 * h.p50(), 1e3 * h.p95(), 1e3 * h.p99());
    println!("end-to-end latency histogram (s):\n{h}");

    // Feature-payload comparison: the same trace with everything
    // offloaded, once as raw 8-bit images (the cloud recomputes from
    // pixels) and once as int8 activations at the cut a CutPlanner picks
    // online (the cloud resumes from the cut).
    let mut compare = |label: &str, control: ControlPlan| {
        let edges = build_edges(!matches!(control, ControlPlan::Image { .. }));
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|i| build_cloud(400 + i as u64)).collect();
        let cfg2 = ServeConfig::builder(OffloadPolicy::Always)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(8)
            .queue_depth(8)
            .link(NetworkLink::wifi(50.0).with_rtt(0.008))
            .control(control)
            .build()
            .expect("valid configuration");
        let r = Fleet::new(cfg2, edges, clouds)
            .expect("replicas match the configuration")
            .serve(&requests)
            .expect("a well-formed trace");
        println!(
            "{label:<26} cut {:<8} {:>8} bytes up, cloud ran {:>6.2} MMACs, skipped {:>6.2} MMACs",
            r.stats.final_cuts.map_or("-".into(), |c| format!("{c:?}")),
            r.stats.bytes_to_cloud,
            r.stats.cloud_macs as f64 / 1e6,
            r.stats.cloud_macs_saved as f64 / 1e6,
        );
    };
    println!("\npayload modes over the same all-offload trace:");
    compare("image (raw 8-bit)", ControlPlan::Image { wire: WireFormat::Quantised8Bit, controller: None });
    // A congested cloud (two orders of magnitude below the edge's
    // effective throughput) pushes the planner toward a deep cut: the
    // edge absorbs the prefix and the cloud only finishes the suffix.
    compare(
        "features (int8, planned)",
        ControlPlan::OpenLoop {
            planner: CutPlannerConfig {
                classes: vec![DeviceProfile::new("edge worker", 15.0, 5e11)],
                cloud: DeviceProfile::new("congested cloud", 200.0, 1e10),
                objective: Objective::Latency,
                feedback: None,
            },
            wire: FeatureWire::Int8,
            controller: None,
        },
    );

    // Closed-loop planning: the uplink silently collapses 50 -> 1 Mbps a
    // few batches in. The planner's static model never hears about it —
    // the cloud workers' per-batch telemetry (LinkEstimator EWMA) is the
    // only way the degradation can reach the cut decision.
    let edges = build_edges(true);
    let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|i| build_cloud(500 + i as u64)).collect();
    let cfg3 = ServeConfig::builder(OffloadPolicy::Always)
        .edge_workers(edge_workers)
        .cloud_workers(cloud_workers)
        .max_batch(8)
        .queue_depth(8)
        .link(NetworkLink::wifi(50.0).with_rtt(0.004))
        .link_events(vec![LinkChange { after_batches: 8, link: NetworkLink::wifi(1.0).with_rtt(0.004) }])
        .control(ControlPlan::ClosedLoop {
            planner: CutPlannerConfig {
                classes: vec![DeviceProfile::new("edge worker", 15.0, 2e9)],
                cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                objective: Objective::Latency,
                feedback: None,
            },
            feedback: LinkFeedback {
                alpha: 0.5,
                prior_samples: 2.0,
                replan_every: NonZeroU64::new(4).expect("4 > 0"),
            },
            wire: FeatureWire::F32,
            controller: None,
        })
        .build()
        .expect("valid configuration");
    let r = Fleet::new(cfg3, edges, clouds)
        .expect("replicas match the configuration")
        .serve(&requests)
        .expect("a well-formed trace");
    let est = r.stats.link_estimates.as_ref().and_then(|e| e[0]);
    println!(
        "\nclosed-loop planning under a mid-run 50 -> 1 Mbps degradation: {} replans, final cut {:?},\n\
         measured uplink {} over {} batches (the static model still believes 50 Mbps)",
        r.stats.cut_replans,
        r.stats.final_cuts.unwrap_or_default(),
        est.map_or("-".into(), |e| format!("{:.2} Mbps", e.up_mbps)),
        est.map_or(0, |e| e.samples),
    );

    // The same closed loop over a REAL wire: payload frames genuinely
    // cross a Unix socket whose uplink pacer throttles 20 -> 1 Mbps
    // mid-run. No modelled sleeps on this path — the telemetry is
    // Instant::now() deltas around the actual sends, so the estimate
    // (and hence the replanned cut) comes from time genuinely paid.
    let edges = build_edges(true);
    let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|i| build_cloud(500 + i as u64)).collect();
    let cfg4 = ServeConfig::builder(OffloadPolicy::Always)
        .edge_workers(edge_workers)
        .cloud_workers(cloud_workers)
        .max_batch(8)
        .queue_depth(8)
        .link(NetworkLink::wifi(20.0).with_rtt(0.004))
        .transport(TransportKind::Uds(UdsConfig {
            up_mbps: Some(20.0),
            throttle: vec![PaceChange { after_frames: 24, up_mbps: 1.0 }],
            ..UdsConfig::default()
        }))
        .control(ControlPlan::ClosedLoop {
            planner: CutPlannerConfig {
                classes: vec![DeviceProfile::new("edge worker", 15.0, 2e9)],
                cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                objective: Objective::Latency,
                feedback: None,
            },
            feedback: LinkFeedback {
                alpha: 0.5,
                prior_samples: 2.0,
                replan_every: NonZeroU64::new(4).expect("4 > 0"),
            },
            wire: FeatureWire::F32,
            controller: None,
        })
        .build()
        .expect("valid configuration");
    let r = Fleet::new(cfg4, edges, clouds)
        .expect("replicas match the configuration")
        .serve(&requests)
        .expect("a well-formed trace");
    let est = r.stats.link_estimates.as_ref().and_then(|e| e[0]);
    println!(
        "\nsame loop over a Unix socket (pacer throttled 20 -> 1 Mbps): {} replans, final cut {:?},\n\
         wall-clock-measured uplink {} over {} batches",
        r.stats.cut_replans,
        r.stats.final_cuts.unwrap_or_default(),
        est.map_or("-".into(), |e| format!("{:.2} Mbps", e.up_mbps)),
        est.map_or(0, |e| e.samples),
    );

    // Cooperative edge splitting: the same trace through a Low-tier
    // fleet twice — solo (the planner can only pick a two-stage
    // edge -> cloud placement) and pooled into a 3-member cooperative
    // group behind a fast local wire, where pooled peer throughput lets
    // the planner insert a Peer stage and push the final upload deeper.
    // The WAN rate is searched so the pooled plan provably takes the
    // peer hop AND shrinks the upload; records stay bitwise identical
    // (the peer hop is always lossless f32).
    let solo_class = DeviceClass::new("low", DeviceProfile::new("edge", 10.0, 5e8), ComputeTier::Low);
    let coop_class = solo_class.clone().coop_group(3, NetworkLink::wifi(400.0).with_rtt(0.0005));
    let pool = FleetSpec::uniform(coop_class.clone()).peer_pools().remove(0);
    let low = solo_class.effective_profile();
    let cloud_probe = build_cloud(600);
    let in_elems: u64 = cloud_probe.in_shape.iter().map(|&d| d as u64).product();
    let planner_at = |rate: f64| {
        let env = PartitionEnv {
            edge: low.clone(),
            cloud: DeviceProfile::new("cloud", 200.0, 1e12),
            link: NetworkLink::wifi(rate).with_rtt(0.001),
            bytes_per_elem: 4,
            raw_input_bytes: 4 * in_elems,
            response_bytes: RESPONSE_WIRE_BYTES,
        };
        CutPlanner::from_network(&cloud_probe, env, Objective::Latency, 6)
    };
    let wan = (0..60)
        .map(|i| 0.05 * 1.3f64.powi(i))
        .find(|&r| {
            let planner = planner_at(r);
            let pooled = planner.plan_placement_for_measured(&low, None, None, pool.as_ref());
            pooled.plan.peer_stage().is_some()
                && pooled.upload_bytes < planner.plan_placement_for_measured(&low, None, None, None).upload_bytes
        })
        .expect("some WAN rate rewards the cooperative split");
    println!("\ncooperative edge splitting over a {wan:.2} Mbps WAN (Low tier, all-offload):");
    let mut coop_records = Vec::new();
    for (label, class) in [("solo", solo_class), ("coop x3", coop_class)] {
        let edges = build_edges(true);
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|i| build_cloud(600 + i as u64)).collect();
        let cfg5 = ServeConfig::builder(OffloadPolicy::Always)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(8)
            .queue_depth(8)
            .link(NetworkLink::wifi(wan).with_rtt(0.001))
            .control(ControlPlan::OpenLoop {
                planner: CutPlannerConfig {
                    classes: Vec::new(),
                    cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                    objective: Objective::Latency,
                    feedback: None,
                },
                wire: FeatureWire::F32,
                controller: None,
            })
            .fleet(FleetSpec::uniform(class))
            .build()
            .expect("valid serving configuration");
        let mut fleet = Fleet::new(cfg5, edges, clouds).expect("replicas match the configuration");
        let r = fleet.serve(&requests).expect("the fleet serves the trace");
        let plan = &r.stats.placements.as_ref().expect("planned mode reports placements")[0];
        let shape: Vec<String> = plan
            .stages()
            .iter()
            .map(|s| {
                let who = match s.executor {
                    StageExecutor::Local => "Local".to_string(),
                    StageExecutor::Peer(c) => format!("Peer({c})"),
                    StageExecutor::Cloud => "Cloud".to_string(),
                };
                format!("{who}[{}..{})", s.layer_range.0, s.layer_range.1)
            })
            .collect();
        println!(
            "{label:<9} {:<46} {:>8} B to cloud, {:>6} B over the peer wire ({} hops)",
            shape.join(" -> "),
            r.stats.bytes_to_cloud,
            r.stats.peer_bytes,
            r.stats.peer_hops,
        );
        coop_records.push(r.records);
    }
    println!(
        "records bitwise identical across placements: {} (the peer hop is lossless f32)",
        coop_records[0] == coop_records[1]
    );
}
