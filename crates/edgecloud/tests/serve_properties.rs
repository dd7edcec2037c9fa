//! Property-based tests on the serving runtime: per-device response
//! ordering under dynamic batching, record equivalence with the offline
//! sweep under arbitrary worker/batch configurations, and cut-point
//! invariance of feature-payload serving.

use mea_data::{presets, ClassDict};
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::fleet::{ComputeTier, DeviceClass, FleetSpec};
use mea_edgecloud::governor::SlaTarget;
use mea_edgecloud::network::{LinkEstimate, LinkEstimator, NetworkLink};
use mea_edgecloud::partition::{CutPlanner, Objective, PartitionEnv};
use mea_edgecloud::serve::{
    trace_requests, ControlPlan, CutPlannerConfig, EdgeReplica, FeatureWire, Fleet, LinkChange, LinkFeedback,
    ServeConfig, ServeReport, ServeRequest, RESPONSE_WIRE_BYTES,
};
use mea_edgecloud::traces::ArrivalModel;
use mea_nn::models::{resnet_cifar, CifarResNetConfig, SegmentedCnn};
use mea_tensor::Rng;
use meanet::infer::run_inference_with_policy;
use meanet::model::{AdaptivePlan, MeaNet, Merge, Variant};
use meanet::{DifficultyPredictor, ExitPoint, OffloadPolicy};
use proptest::prelude::*;
use std::num::NonZeroU64;
use std::time::Duration;

/// Checks the replicas against `cfg` and serves `requests` once.
fn serve(
    cfg: ServeConfig,
    edges: Vec<EdgeReplica>,
    clouds: Vec<SegmentedCnn>,
    requests: &[ServeRequest],
) -> ServeReport {
    Fleet::new(cfg, edges, clouds).expect("consistent replicas").serve(requests).expect("serves")
}

fn tiny_net(seed: u64) -> MeaNet {
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
    net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 2, 4]), &mut rng);
    net
}

fn tiny_cloud(seed: u64) -> SegmentedCnn {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    cfg.channels = [16, 24, 32];
    resnet_cifar(&cfg, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dynamic batching never reorders responses *per device*: within one
    /// device's stream, cloud completions come back in sequence order and
    /// local completions come back in sequence order, whatever the worker
    /// topology, batch cap or coalescing wait. (A local exit may overtake
    /// an earlier in-flight offload — that cross-exit interleaving is
    /// inherent to early-exit serving — but the cloud path itself is
    /// device-FIFO end to end.)
    #[test]
    fn dynamic_batching_preserves_per_device_order(
        devices in 1usize..5,
        edge_workers in 1usize..4,
        cloud_workers in 1usize..4,
        max_batch in 1usize..9,
        wait_us in 0u64..2000,
        threshold in 0.0f32..2.0,
    ) {
        let bundle = presets::tiny(70);
        let mut rng = Rng::new(5);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let edges: Vec<EdgeReplica> = (0..edge_workers).map(|_| EdgeReplica::new(tiny_net(21))).collect();
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(22)).collect();
        let cfg = ServeConfig::builder(OffloadPolicy::EntropyThreshold(threshold))
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .max_wait(Duration::from_micros(wait_us))
            .build()
            .expect("valid config");
        let report = serve(cfg, edges, clouds, &requests);
        prop_assert_eq!(report.completions.len(), requests.len());

        for d in 0..devices {
            let mut last_cloud_seq = None;
            let mut last_local_seq = None;
            for c in report.completions.iter().filter(|c| c.device == d) {
                let slot = if c.record.exit == ExitPoint::Cloud {
                    &mut last_cloud_seq
                } else {
                    &mut last_local_seq
                };
                if let Some(prev) = *slot {
                    prop_assert!(
                        c.seq > prev,
                        "device {} exit {:?}: seq {} completed after seq {}",
                        d, c.record.exit, c.seq, prev
                    );
                }
                *slot = Some(c.seq);
            }
        }
    }

    /// Whatever the configuration, the records equal the sequential
    /// offline sweep's — worker scheduling is invisible in the output —
    /// and every cloud worker's batches add up to the tier's.
    #[test]
    fn any_configuration_matches_the_offline_sweep(
        devices in 1usize..5,
        edge_workers in 1usize..4,
        cloud_workers in 1usize..5,
        max_batch in 1usize..9,
        wait_us in 0u64..1500,
        batch_size in 1usize..17,
        threshold in 0.0f32..2.0,
    ) {
        let bundle = presets::tiny(71);
        let policy = OffloadPolicy::EntropyThreshold(threshold);
        let mut offline_net = tiny_net(23);
        let mut offline_cloud = tiny_cloud(24);
        let expected = run_inference_with_policy(
            &mut offline_net,
            Some(&mut offline_cloud),
            &bundle.test,
            policy,
            batch_size,
        );

        let mut rng = Rng::new(6);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let edges: Vec<EdgeReplica> = (0..edge_workers).map(|_| EdgeReplica::new(tiny_net(23))).collect();
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(24)).collect();
        let cfg = ServeConfig::builder(policy)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .max_wait(Duration::from_micros(wait_us))
            .build()
            .expect("valid config");
        let report = serve(cfg, edges, clouds, &requests);
        let offloaded = expected.iter().filter(|r| r.exit == ExitPoint::Cloud).count();
        prop_assert_eq!(report.records, expected);
        prop_assert_eq!(report.stats.offloaded, offloaded);
        prop_assert_eq!(report.stats.per_worker_batches.len(), cloud_workers);
        prop_assert_eq!(report.stats.per_worker_batches.iter().sum::<u64>(), report.stats.cloud_batches);
    }

    /// Any cut index yields bitwise-identical cloud predictions: serving
    /// with a feature payload (lossless wire) at an arbitrary cut, under
    /// an arbitrary worker/batch topology, reproduces the offline sweep's
    /// records exactly — and saves the cloud exactly the prefix MACs.
    #[test]
    fn any_cut_yields_bitwise_identical_cloud_predictions(
        cut_pick in 0usize..1000,
        devices in 1usize..4,
        edge_workers in 1usize..3,
        cloud_workers in 1usize..3,
        max_batch in 1usize..6,
        threshold in 0.0f32..1.5,
    ) {
        let bundle = presets::tiny(79);
        let policy = OffloadPolicy::EntropyThreshold(threshold);
        let mut offline_net = tiny_net(25);
        let mut offline_cloud = tiny_cloud(26);
        let expected =
            run_inference_with_policy(&mut offline_net, Some(&mut offline_cloud), &bundle.test, policy, 8);

        let layers = tiny_cloud(26).cut_layer_count();
        let cut = cut_pick % layers;
        let mut rng = Rng::new(7);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let edges: Vec<EdgeReplica> = (0..edge_workers)
            .map(|_| EdgeReplica::with_cloud_prefix(tiny_net(25), tiny_cloud(26)))
            .collect();
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(26)).collect();
        let cfg = ServeConfig::builder(policy)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .control(ControlPlan::Static { cut, wire: FeatureWire::F32, controller: None })
            .build()
            .expect("valid config");
        let report = serve(cfg, edges, clouds, &requests);
        prop_assert_eq!(report.records, expected, "cut {} diverged", cut);
        prop_assert_eq!(report.stats.final_cuts, Some(vec![cut]));
        // MAC conservation: executed + saved = offloads x full forward.
        let total_macs: u64 = tiny_cloud(26).total_macs();
        prop_assert_eq!(
            report.stats.cloud_macs + report.stats.cloud_macs_saved,
            report.stats.offloaded as u64 * total_macs
        );
    }

    /// The exchange law of closed-loop planning: degrading the *measured*
    /// link (any factor >= 1) can never move the planned serving cut to a
    /// larger upload — congestion only ever shrinks what crosses the
    /// wire. (The cut index itself need not be monotone: a shallow cut
    /// with a small upload may legitimately beat a deep cut with a fat
    /// activation.)
    #[test]
    fn measured_degradation_never_grows_the_planned_upload(
        rate in 0.05f64..500.0,
        factor in 1.0f64..256.0,
        edge_rate in 1e7f64..1e12,
        cloud_rate in 1e9f64..1e13,
        samples in 1u64..128,
    ) {
        let cloud_net = tiny_cloud(26);
        let in_elems: u64 = cloud_net.in_shape.iter().map(|&d| d as u64).product();
        let env = PartitionEnv {
            edge: DeviceProfile::new("edge", 10.0, edge_rate),
            cloud: DeviceProfile::new("cloud", 200.0, cloud_rate),
            link: NetworkLink::wifi(rate).with_rtt(0.001),
            bytes_per_elem: 4,
            raw_input_bytes: 4 * in_elems,
            response_bytes: RESPONSE_WIRE_BYTES,
        };
        let mut planner = CutPlanner::from_network(&cloud_net, env, Objective::Latency, 1);
        planner.set_prior_samples(0.0); // isolate the measured path
        let edge = DeviceProfile::new("edge", 10.0, edge_rate);
        let nominal = LinkEstimate { up_mbps: rate, down_mbps: rate, rtt_s: 0.001, samples };
        let degraded = LinkEstimate { up_mbps: rate / factor, down_mbps: rate / factor, ..nominal };
        let before = planner.plan_placement_for_measured(&edge, None, Some(&nominal), None);
        let after = planner.plan_placement_for_measured(&edge, None, Some(&degraded), None);
        prop_assert!(
            after.upload_bytes <= before.upload_bytes,
            "degradation x{} grew the upload: {:?} -> {:?}", factor, before, after
        );
        // And a measured link identical to the static prior is a no-op.
        let static_plan = planner.plan_placement_for_measured(&edge, None, None, None);
        prop_assert_eq!(before.plan.final_cut(), static_plan.plan.final_cut());
    }

    /// EWMA telemetry recovers a stationary link's true rates exactly
    /// (observations are size-invariant), and after a mid-stream rate
    /// change converges geometrically onto the new rate.
    #[test]
    fn link_estimator_converges_to_the_true_rate(
        up in 0.1f64..1000.0,
        down in 0.1f64..1000.0,
        rtt in 0.0f64..0.05,
        alpha in 0.2f64..1.0,
        sizes in proptest::collection::vec(1u64..100_000, 4..24),
    ) {
        let link = NetworkLink::wifi(up).with_rtt(rtt).with_download(down);
        let mut est = LinkEstimator::new(1, alpha);
        for &bytes in &sizes {
            est.observe(0, bytes, link.upload_time_s(bytes), bytes, link.download_time_s(bytes), link.rtt_s);
        }
        let e = est.estimate(0).expect("observed");
        prop_assert!((e.up_mbps - up).abs() / up < 1e-9, "stationary up {} vs {}", e.up_mbps, up);
        prop_assert!((e.down_mbps - down).abs() / down < 1e-9);
        prop_assert!((e.rtt_s - rtt).abs() < 1e-12);
        // Halve the link; after 24 more observations the estimate must
        // sit within 5% of the new rate for any alpha >= 0.2
        // (residual weight (1-alpha)^24 < 0.005).
        let slow = NetworkLink::wifi(up / 2.0).with_rtt(rtt).with_download(down / 2.0);
        for &bytes in sizes.iter().cycle().take(24) {
            est.observe(0, bytes, slow.upload_time_s(bytes), bytes, slow.download_time_s(bytes), slow.rtt_s);
        }
        let e = est.estimate(0).expect("observed");
        let target = up / 2.0;
        prop_assert!(
            (e.up_mbps - target).abs() / target < 0.05,
            "after degradation: {} vs {}", e.up_mbps, target
        );
    }

    /// Closed-loop serving under a mid-trace link degradation: whatever
    /// the feedback cadence and smoothing, the records stay bitwise
    /// identical to the open-loop run (the cut is a pure cost knob under
    /// the lossless wire), replan telemetry is reported, and the final
    /// planned upload is never larger than the open-loop one.
    #[test]
    fn degraded_link_feedback_replans_without_touching_predictions(
        replan_every in 1u64..7,
        alpha in 0.3f64..1.0,
        after_batches in 4u64..12,
        threshold in 0.2f32..1.2,
    ) {
        let bundle = presets::tiny(83);
        let nominal = NetworkLink::wifi(100.0).with_rtt(0.0002);
        let degraded = NetworkLink::wifi(0.5).with_rtt(0.0002);
        let edge = DeviceProfile::new("edge", 10.0, 5e8);
        let run = |feedback: Option<LinkFeedback>| {
            let edges =
                vec![EdgeReplica::with_cloud_prefix(tiny_net(27), tiny_cloud(28))];
            let clouds: Vec<SegmentedCnn> = vec![tiny_cloud(28)];
            let planner = CutPlannerConfig {
                classes: vec![edge.clone()],
                cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                objective: Objective::Latency,
                feedback: None,
            };
            let control = match feedback {
                Some(feedback) => {
                    ControlPlan::ClosedLoop { planner, feedback, wire: FeatureWire::F32, controller: None }
                }
                None => ControlPlan::OpenLoop { planner, wire: FeatureWire::F32, controller: None },
            };
            let cfg = ServeConfig::builder(OffloadPolicy::EntropyThreshold(threshold))
                .control(control)
                .link(nominal)
                .link_events(vec![LinkChange { after_batches, link: degraded }])
                .build()
                .expect("valid config");
            let mut rng = Rng::new(9);
            let requests =
                trace_requests(&bundle.test, 1, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
            serve(cfg, edges, clouds, &requests)
        };
        let replan_every = NonZeroU64::new(replan_every).expect("the strategy starts at 1");
        let closed = run(Some(LinkFeedback { alpha, prior_samples: 0.0, replan_every }));
        let open = run(None);
        prop_assert_eq!(&closed.records, &open.records, "feedback leaked into predictions");
        prop_assert_eq!(open.stats.cut_replans, 0);
        let ests = closed.stats.link_estimates.as_ref().expect("feedback reports estimates");
        if closed.stats.offloaded > 0 {
            let est = ests[0].expect("class observed");
            prop_assert_eq!(est.samples, closed.stats.offloaded as u64);
        }
        // The closed-loop final cut uploads no more than the open-loop one.
        let cloud_net = tiny_cloud(28);
        let profiles = mea_edgecloud::partition::profile_network(&cloud_net);
        let in_elems: u64 = cloud_net.in_shape.iter().map(|&d| d as u64).product();
        let upload =
            |cut: usize| if cut == 0 { 4 * in_elems } else { 4 * profiles[cut - 1].out_elems };
        let closed_cut = closed.stats.final_cuts.as_ref().expect("planned")[0];
        let open_cut = open.stats.final_cuts.as_ref().expect("planned")[0];
        prop_assert!(
            upload(closed_cut) <= upload(open_cut),
            "feedback grew the upload: open cut {} -> closed cut {}", open_cut, closed_cut
        );
    }

    /// Heterogeneity never breaks ordering: whatever the class mix
    /// (random tiers), the explicit device pins, the worker topology or
    /// the difficulty predictor, each device's stream stays FIFO per exit
    /// lane and the per-class breakdown partitions the totals exactly.
    #[test]
    fn heterogeneous_fleets_preserve_per_device_order(
        devices in 1usize..5,
        edge_workers in 1usize..4,
        cloud_workers in 1usize..3,
        max_batch in 1usize..6,
        tiers in proptest::collection::vec(0usize..3, 1..4),
        pins in proptest::collection::vec(0usize..4, 0..4),
        use_difficulty in any::<bool>(),
        threshold in 0.0f32..2.0,
    ) {
        let bundle = presets::tiny(90);
        let base = DeviceProfile::new("edge", 10.0, 1e9);
        let classes: Vec<DeviceClass> = tiers
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let tier = [ComputeTier::High, ComputeTier::Medium, ComputeTier::Low][t];
                DeviceClass::new(format!("c{i}"), base.clone(), tier)
            })
            .collect();
        let class_count = classes.len();
        let mut spec = FleetSpec::round_robin(classes);
        for (device, &class) in pins.iter().enumerate() {
            spec = spec.assign(device, class % class_count);
        }
        let mut rng = Rng::new(8);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let mut builder = ServeConfig::builder(OffloadPolicy::EntropyThreshold(threshold))
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .fleet(spec);
        if use_difficulty {
            let mut calibration = tiny_net(29);
            builder = builder
                .difficulty(DifficultyPredictor::calibrate(&mut calibration, &bundle.train.images, 8));
        }
        let cfg = builder.build().expect("valid config");
        let edges: Vec<EdgeReplica> = (0..edge_workers).map(|_| EdgeReplica::new(tiny_net(29))).collect();
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(30)).collect();
        let mut fleet = Fleet::new(cfg, edges, clouds).expect("consistent replicas");
        let report = fleet.serve(&requests).expect("serves");
        prop_assert_eq!(report.completions.len(), requests.len());

        let classes = report.stats.per_class.as_ref().expect("fleet stats");
        prop_assert_eq!(classes.iter().map(|c| c.served).sum::<usize>(), report.stats.total);
        prop_assert_eq!(classes.iter().map(|c| c.offloaded).sum::<usize>(), report.stats.offloaded);

        for d in 0..devices {
            let mut last_cloud_seq = None;
            let mut last_local_seq = None;
            for c in report.completions.iter().filter(|c| c.device == d) {
                let slot = if c.record.exit == ExitPoint::Cloud {
                    &mut last_cloud_seq
                } else {
                    &mut last_local_seq
                };
                if let Some(prev) = *slot {
                    prop_assert!(
                        c.seq > prev,
                        "device {} exit {:?}: seq {} completed after seq {}",
                        d, c.record.exit, c.seq, prev
                    );
                }
                *slot = Some(c.seq);
            }
        }
    }

    /// Per-device FIFO per exit lane survives several cloud workers
    /// sharing a deliberately skewed population's backlog: every device id
    /// is a multiple of the cloud worker count, so one device's batches can
    /// run on several workers at once. The completion stream must still be
    /// sequence-ordered per device and exit lane, and the records
    /// identical to the offline sweep.
    #[test]
    fn work_stealing_preserves_per_device_fifo_under_skew(
        device_count in 1usize..4,
        cloud_workers in 2usize..5,
        max_batch in 1usize..5,
        threshold in 0.0f32..2.0,
    ) {
        let bundle = presets::tiny(96);
        let policy = OffloadPolicy::EntropyThreshold(threshold);
        let mut rng = Rng::new(12);
        let mut requests =
            trace_requests(&bundle.test, device_count, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        // Skew: device d -> d * cloud_workers keeps ids distinct while
        // giving every device the same residue modulo the worker count.
        for r in &mut requests {
            r.device *= cloud_workers;
        }
        let edges = vec![EdgeReplica::new(tiny_net(35))];
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(36)).collect();
        let cfg = ServeConfig::builder(policy)
            .edge_workers(1)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .queue_depth(8)
            .link(NetworkLink::wifi(200.0).with_rtt(0.0005))
            .build()
            .expect("valid config");
        let report = serve(cfg, edges, clouds, &requests);
        prop_assert_eq!(report.completions.len(), requests.len());
        for d in (0..device_count).map(|d| d * cloud_workers) {
            let mut last_cloud_seq = None;
            let mut last_local_seq = None;
            for c in report.completions.iter().filter(|c| c.device == d) {
                let slot = if c.record.exit == ExitPoint::Cloud {
                    &mut last_cloud_seq
                } else {
                    &mut last_local_seq
                };
                if let Some(prev) = *slot {
                    prop_assert!(
                        c.seq > prev,
                        "device {} exit {:?}: seq {} completed after seq {}",
                        d, c.record.exit, c.seq, prev
                    );
                }
                *slot = Some(c.seq);
            }
        }
        let mut net = tiny_net(35);
        let mut cloud = tiny_cloud(36);
        let expected = run_inference_with_policy(&mut net, Some(&mut cloud), &bundle.test, policy, 8);
        prop_assert_eq!(report.records, expected, "skewed shared-backlog run diverged from the sweep");
    }

    /// The identity embedding of the old API into the new one: a fleet of
    /// ONE High-tier class (scale factor 1.0, no link prior, no pins) is
    /// record-identical — cuts, bytes and all — to the legacy homogeneous
    /// `CutPlannerConfig::classes` path, for any topology, link rate and
    /// threshold.
    #[test]
    fn identity_fleet_is_record_identical_to_the_homogeneous_path(
        devices in 1usize..4,
        edge_workers in 1usize..3,
        cloud_workers in 1usize..3,
        max_batch in 1usize..6,
        rate in 0.5f64..200.0,
        threshold in 0.0f32..1.5,
    ) {
        let bundle = presets::tiny(91);
        let edge = DeviceProfile::new("edge", 10.0, 5e8);
        let link = NetworkLink::wifi(rate).with_rtt(0.001);
        let policy = OffloadPolicy::EntropyThreshold(threshold);
        let mut rng = Rng::new(10);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let planned = |classes: Vec<DeviceProfile>| ControlPlan::OpenLoop {
            planner: CutPlannerConfig {
                classes,
                cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                objective: Objective::Latency,
                feedback: None,
            },
            wire: FeatureWire::F32,
            controller: None,
        };
        let build_replicas = || {
            let edges: Vec<EdgeReplica> = (0..edge_workers)
                .map(|_| EdgeReplica::with_cloud_prefix(tiny_net(31), tiny_cloud(32)))
                .collect();
            let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(32)).collect();
            (edges, clouds)
        };

        let legacy_cfg = ServeConfig::builder(policy)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .control(planned(vec![edge.clone()]))
            .link(link)
            .build()
            .expect("valid config");
        let (edges, clouds) = build_replicas();
        let legacy = serve(legacy_cfg, edges, clouds, &requests);

        let spec = FleetSpec::uniform(DeviceClass::new("edge", edge, ComputeTier::High));
        let fleet_cfg = ServeConfig::builder(policy)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .control(planned(Vec::new()))
            .link(link)
            .fleet(spec)
            .build()
            .expect("valid config");
        let (fleet_edges, fleet_clouds) = build_replicas();
        let mut fleet = Fleet::new(fleet_cfg, fleet_edges, fleet_clouds).expect("consistent replicas");
        let report = fleet.serve(&requests).expect("serves");
        prop_assert_eq!(&report.records, &legacy.records, "identity fleet diverged from the legacy path");
        prop_assert_eq!(report.stats.final_cuts, legacy.stats.final_cuts);
        prop_assert_eq!(report.stats.bytes_to_cloud, legacy.stats.bytes_to_cloud);
        prop_assert_eq!(report.stats.offloaded, legacy.stats.offloaded);
    }

    /// The identity embedding of the scalar cut into placement planning:
    /// a coop group with a SINGLE member pools no extra throughput, so
    /// whatever the topology, WAN rate, peer-link rate, compute tier or
    /// control plan (open-loop planned, closed-loop feedback, governed),
    /// the planner must emit the same two-stage placements as a fleet
    /// with no coop group at all — records, cuts, placements and bytes
    /// all identical, with zero peer hops on the wire.
    #[test]
    fn single_member_coop_group_is_record_identical_to_solo_planning(
        devices in 1usize..4,
        edge_workers in 1usize..3,
        cloud_workers in 1usize..3,
        max_batch in 1usize..6,
        rate in 0.5f64..200.0,
        peer_rate in 1.0f64..500.0,
        tier_pick in 0usize..3,
        control_pick in 0usize..3,
        threshold in 0.0f32..1.5,
    ) {
        let bundle = presets::tiny(99);
        let edge = DeviceProfile::new("edge", 10.0, 5e8);
        let link = NetworkLink::wifi(rate).with_rtt(0.001);
        let policy = OffloadPolicy::EntropyThreshold(threshold);
        let tier = [ComputeTier::High, ComputeTier::Medium, ComputeTier::Low][tier_pick];
        let mut rng = Rng::new(15);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let planner = || CutPlannerConfig {
            classes: Vec::new(), // the fleet spec supplies the class profiles
            cloud: DeviceProfile::new("cloud", 200.0, 1e12),
            objective: Objective::Latency,
            feedback: None,
        };
        let run = |coop: Option<(usize, NetworkLink)>| {
            let mut class = DeviceClass::new("edge", edge.clone(), tier);
            if let Some((members, peer_link)) = coop {
                class = class.coop_group(members, peer_link);
            }
            let mut builder = ServeConfig::builder(policy)
                .edge_workers(edge_workers)
                .cloud_workers(cloud_workers)
                .max_batch(max_batch)
                .link(link)
                .fleet(FleetSpec::uniform(class));
            builder = match control_pick {
                0 => builder.control(ControlPlan::OpenLoop {
                    planner: planner(),
                    wire: FeatureWire::F32,
                    controller: None,
                }),
                1 => builder.control(ControlPlan::ClosedLoop {
                    planner: planner(),
                    feedback: LinkFeedback::default(),
                    wire: FeatureWire::F32,
                    controller: None,
                }),
                // A one-minute p95 budget no tiny trace can violate: the
                // governor plans but never escalates.
                _ => builder.control(ControlPlan::Governed(SlaTarget::new(60_000.0, 0.80))),
            };
            let cfg = builder.build().expect("valid config");
            let edges: Vec<EdgeReplica> = (0..edge_workers)
                .map(|_| EdgeReplica::with_cloud_prefix(tiny_net(45), tiny_cloud(46)))
                .collect();
            let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(46)).collect();
            let mut fleet = Fleet::new(cfg, edges, clouds).expect("consistent replicas");
            fleet.serve(&requests).expect("serves")
        };
        let solo = run(None);
        let single = run(Some((1, NetworkLink::wifi(peer_rate).with_rtt(0.0002))));
        prop_assert_eq!(&single.records, &solo.records, "a single-member coop group changed the records");
        prop_assert_eq!(&single.stats.final_cuts, &solo.stats.final_cuts);
        prop_assert_eq!(&single.stats.placements, &solo.stats.placements);
        prop_assert_eq!(single.stats.bytes_to_cloud, solo.stats.bytes_to_cloud);
        prop_assert_eq!(single.stats.offloaded, solo.stats.offloaded);
        prop_assert_eq!(single.stats.peer_hops, 0, "a degenerate pool must never ship a peer hop");
        prop_assert_eq!(single.stats.peer_bytes, 0);
        let placements = single.stats.placements.as_ref().expect("planned placements");
        prop_assert!(
            placements.iter().all(|plan| plan.peer_stage().is_none()),
            "single-member pool must stay two-stage: {:?}",
            placements
        );
    }

    /// An unreachable SLA degrades gracefully: whatever the topology or
    /// routing policy, the governor escalates its ladder without ever
    /// panicking, every request still completes, and — once enough
    /// decision epochs have fired — the violating windows are reported
    /// in the stats rather than swallowed.
    #[test]
    fn governed_unreachable_sla_degrades_gracefully(
        edge_workers in 1usize..3,
        cloud_workers in 1usize..3,
        max_batch in 1usize..5,
        always in any::<bool>(),
        threshold in 0.2f32..1.2,
    ) {
        let bundle = presets::tiny(97);
        let policy =
            if always { OffloadPolicy::Always } else { OffloadPolicy::EntropyThreshold(threshold) };
        let mut rng = Rng::new(13);
        let requests =
            trace_requests(&bundle.test, 2, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let edges: Vec<EdgeReplica> = (0..edge_workers)
            .map(|_| EdgeReplica::with_cloud_prefix(tiny_net(41), tiny_cloud(42)))
            .collect();
        let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(42)).collect();
        // A 1 µs p95 budget: no cut, wire or beta can reach it.
        let cfg = ServeConfig::builder(policy)
            .edge_workers(edge_workers)
            .cloud_workers(cloud_workers)
            .max_batch(max_batch)
            .link(NetworkLink::wifi(1.0).with_rtt(0.002))
            .control(ControlPlan::Governed(SlaTarget::new(1e-3, 0.90)))
            .build()
            .expect("valid config");
        let report = serve(cfg, edges, clouds, &requests);
        prop_assert_eq!(report.completions.len(), requests.len());
        let trajectory =
            report.stats.control_trajectory.as_ref().expect("governed runs report their trajectory");
        prop_assert!(!trajectory.is_empty(), "trajectory always holds the initial operating point");
        // Three epochs' worth of batches guarantees at least one judged
        // window; under a 1 µs budget every judged window violates.
        if report.stats.cloud_batches >= 24 {
            prop_assert!(
                report.stats.sla_violations > 0,
                "an unreachable SLA must report violating windows ({} cloud batches, 0 violations)",
                report.stats.cloud_batches
            );
        }
    }

    /// A generous SLA is invisible: a governed run whose budget nothing
    /// ever violates takes the exact open-loop decision path, so its
    /// records, cuts and bytes are identical to the equivalent
    /// `ControlPlan::ClosedLoop` run and its counters stay zero.
    #[test]
    fn governed_generous_sla_is_record_identical_to_closed_loop(
        devices in 1usize..4,
        edge_workers in 1usize..3,
        cloud_workers in 1usize..3,
        max_batch in 1usize..6,
        threshold in 0.2f32..1.2,
    ) {
        let bundle = presets::tiny(98);
        let policy = OffloadPolicy::EntropyThreshold(threshold);
        let mut rng = Rng::new(14);
        let requests =
            trace_requests(&bundle.test, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
        let run = |control: ControlPlan| {
            let edges: Vec<EdgeReplica> = (0..edge_workers)
                .map(|_| EdgeReplica::with_cloud_prefix(tiny_net(43), tiny_cloud(44)))
                .collect();
            let clouds: Vec<SegmentedCnn> = (0..cloud_workers).map(|_| tiny_cloud(44)).collect();
            let cfg = ServeConfig::builder(policy)
                .edge_workers(edge_workers)
                .cloud_workers(cloud_workers)
                .max_batch(max_batch)
                .link(NetworkLink::wifi(50.0).with_rtt(0.001))
                .control(control)
                .build()
                .expect("valid config");
            serve(cfg, edges, clouds, &requests)
        };
        // A one-minute p95 budget no tiny trace can violate.
        let governed = run(ControlPlan::Governed(SlaTarget::new(60_000.0, 0.80)));
        // The exact plan Governed starts from, minus the governor.
        let open = run(ControlPlan::ClosedLoop {
            planner: CutPlannerConfig {
                classes: vec![DeviceProfile::edge_gpu_cifar()],
                cloud: DeviceProfile::cloud_accelerator(),
                objective: Objective::Latency,
                feedback: None,
            },
            feedback: LinkFeedback::default(),
            wire: FeatureWire::F32,
            controller: None,
        });
        prop_assert_eq!(&governed.records, &open.records, "an idle governor leaked into the records");
        prop_assert_eq!(governed.stats.final_cuts, open.stats.final_cuts);
        prop_assert_eq!(governed.stats.bytes_to_cloud, open.stats.bytes_to_cloud);
        prop_assert_eq!(governed.stats.sla_violations, 0);
        prop_assert_eq!(governed.stats.governor_decisions, 0);
        let trajectory =
            governed.stats.control_trajectory.as_ref().expect("governed runs report their trajectory");
        prop_assert_eq!(trajectory.len(), 1, "no violation, no decision: only the initial point");
        prop_assert_eq!(open.stats.control_trajectory, None);
    }
}
