use super::*;
use crate::transport::{PaceChange, PipeConfig};
use mea_data::{presets, ClassDict};
use mea_nn::models::{resnet_cifar, CifarResNetConfig};
use meanet::infer::run_inference;
use meanet::infer::{run_inference_with_policy, InferenceConfig};
use meanet::model::{AdaptivePlan, Merge, Variant};

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

fn replicas<T>(count: usize, mut build: impl FnMut() -> T) -> Vec<T> {
    (0..count).map(|_| build()).collect()
}

/// Image-payload edge replicas (no cloud prefix).
fn edge_replicas(count: usize, seed: u64) -> Vec<EdgeReplica> {
    replicas(count, || EdgeReplica::new(tiny_net(seed)))
}

/// Feature-payload edge replicas: each carries a bitwise replica of
/// the cloud network (same constructor seed = same weights).
fn split_replicas(count: usize, net_seed: u64, cloud_seed: u64) -> Vec<EdgeReplica> {
    replicas(count, || EdgeReplica::with_cloud_prefix(tiny_net(net_seed), tiny_cloud(cloud_seed)))
}

/// A configuration builder for `edge` and `cloud` workers batching up to
/// `max_batch`.
fn config(policy: OffloadPolicy, edge: usize, cloud: usize, max_batch: usize) -> ServeConfigBuilder {
    ServeConfig::builder(policy).edge_workers(edge).cloud_workers(cloud).max_batch(max_batch)
}

/// Builds the configuration, checks the replicas against it and serves
/// `requests` once.
fn serve(
    cfg: ServeConfigBuilder,
    edges: Vec<EdgeReplica>,
    clouds: Vec<SegmentedCnn>,
    requests: &[ServeRequest],
) -> Result<ServeReport, ServeError> {
    Fleet::new(cfg.build().expect("valid config"), edges, clouds)?.serve(requests)
}

fn instant_requests(data: &Dataset, devices: usize) -> Vec<ServeRequest> {
    let mut rng = Rng::new(0);
    trace_requests(data, devices, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng)
}

#[test]
fn serve_matches_offline_sweep_bitwise() {
    let bundle = presets::tiny(60);
    let policy = OffloadPolicy::EntropyThreshold(0.8);
    let mut offline_net = tiny_net(1);
    let mut offline_cloud = tiny_cloud(2);
    let expected = run_inference_with_policy(&mut offline_net, Some(&mut offline_cloud), &bundle.test, policy, 8);

    for (e, c, b) in [(1usize, 1usize, 1usize), (2, 1, 4), (3, 2, 4)] {
        let edges = edge_replicas(e, 1);
        let clouds = replicas(c, || tiny_cloud(2));
        let cfg = config(policy, e, c, b);
        let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 3)).expect("serves");
        assert_eq!(report.records, expected, "serve({e} edge, {c} cloud, batch {b}) diverged");
        assert_eq!(report.stats.total, bundle.test.len());
    }
}

#[test]
fn sharded_ingress_serves_record_identically_to_single_queue() {
    // The ingress is a pure scheduling knob: same trace, same
    // replicas, same records — whatever the worker/batch topology.
    let bundle = presets::tiny(170);
    let policy = OffloadPolicy::EntropyThreshold(0.8);
    let requests = instant_requests(&bundle.test, 4);
    for (e, c, b) in [(1usize, 2usize, 1usize), (2, 3, 4), (3, 1, 2)] {
        let run = |ingress: CloudIngress| {
            let edges = edge_replicas(e, 21);
            let clouds = replicas(c, || tiny_cloud(22));
            let cfg = config(policy, e, c, b).ingress(ingress);
            serve(cfg, edges, clouds, &requests).expect("serves")
        };
        let sharded = run(CloudIngress::Sharded);
        let single = run(CloudIngress::SingleQueue);
        assert_eq!(sharded.records, single.records, "ingress changed records at ({e},{c},{b})");
        assert_eq!(sharded.stats.offloaded, single.stats.offloaded);
        assert_eq!(single.stats.steals, 0, "the single-queue path never steals");
        assert_eq!(single.stats.max_queue_depth, 0, "single-queue frames wait in transport lanes");
        for stats in [&sharded.stats, &single.stats] {
            assert_eq!(stats.per_shard_batches.len(), c);
            assert_eq!(stats.per_shard_batches.iter().sum::<u64>(), stats.cloud_batches);
        }
    }
}

#[test]
fn work_stealing_soaks_a_skewed_population_and_keeps_device_fifo() {
    // Every request comes from device 0, so every frame lands on
    // shard 0 of a 3-worker cloud tier: under SingleQueue two workers
    // would idle, under the sharded ingress they steal the backlog.
    // The modelled link sleep keeps whichever worker holds a batch
    // busy long enough for the shard to refill, forcing steals even
    // on a single-core host.
    let bundle = presets::tiny(171);
    let edges = edge_replicas(1, 23);
    let clouds = replicas(3, || tiny_cloud(24));
    let cfg = config(OffloadPolicy::Always, 1, 3, 1).queue_depth(8).link(NetworkLink::wifi(50.0).with_rtt(0.002));
    let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).expect("serves");
    assert_eq!(report.stats.offloaded, report.stats.total);
    assert!(
        report.stats.steals > 0,
        "skewed population must force steals: per-shard {:?}",
        report.stats.per_shard_batches
    );
    assert!(report.stats.max_queue_depth > 0, "the backlog must have queued");
    // Cloud completions of the single device leave in offload order
    // even though three workers classified them concurrently.
    let seqs: Vec<usize> =
        report.completions.iter().filter(|c| c.record.exit == ExitPoint::Cloud).map(|c| c.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "per-device cloud FIFO violated under stealing");
    // And the records still match the offline sweep bit for bit.
    let mut net = tiny_net(23);
    let mut cloud = tiny_cloud(24);
    let expected = run_inference_with_policy(&mut net, Some(&mut cloud), &bundle.test, OffloadPolicy::Always, 8);
    assert_eq!(report.records, expected);
}

#[test]
fn edge_only_serving_needs_no_cloud_replicas() {
    let bundle = presets::tiny(61);
    let edges = edge_replicas(2, 3);
    let cfg = config(OffloadPolicy::Never, 2, 0, 1);
    let report = serve(cfg, edges, Vec::new(), &instant_requests(&bundle.test, 2)).expect("serves");
    assert_eq!(report.stats.offloaded, 0);
    assert!(report.records.iter().all(|r| r.exit != ExitPoint::Cloud));
    let mut net = tiny_net(3);
    let expected = run_inference(&mut net, None, &bundle.test, &InferenceConfig::edge_only(8));
    assert_eq!(report.records, expected);
}

#[test]
fn dynamic_batching_actually_batches_under_saturation() {
    let bundle = presets::tiny(62);
    let edges = edge_replicas(1, 4);
    let clouds = replicas(1, || tiny_cloud(5));
    // A generous wait so queued items coalesce even on a slow host.
    let cfg = config(OffloadPolicy::Always, 1, 1, 8).max_wait(Duration::from_millis(2)).queue_depth(16);
    let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).expect("serves");
    assert_eq!(report.stats.offloaded, report.stats.total);
    assert!(
        report.stats.cloud_batches < report.stats.offloaded as u64 || report.stats.total <= 1,
        "no coalescing happened: {} batches for {} offloads",
        report.stats.cloud_batches,
        report.stats.offloaded
    );
    assert!(report.stats.max_batch_seen >= 2);
}

#[test]
fn controller_steers_beta_in_the_serving_path() {
    let bundle = presets::tiny(63);
    let edges = edge_replicas(1, 6);
    let clouds = replicas(1, || tiny_cloud(7));
    let target = 0.5;
    let cfg = config(OffloadPolicy::Never, 1, 1, 4).control(ControlPlan::Image {
        wire: WireFormat::Float32,
        controller: Some(ControllerConfig {
            controller: ThresholdController::new(1.0, target, 2.0, (0.0, 3.0)),
            window: 8,
        }),
    });
    // Repeat the tiny set to give the controller windows to converge.
    let mut requests = Vec::new();
    for rep in 0..6 {
        for mut r in instant_requests(&bundle.test, 2) {
            r.seq += rep * bundle.test.len();
            requests.push(r);
        }
    }
    let report = serve(cfg, edges, clouds, &requests).expect("serves");
    assert!(report.stats.final_threshold.is_some());
    let beta = report.achieved_beta();
    assert!((beta - target).abs() < 0.25, "controller failed to steer beta toward {target}: achieved {beta}");
}

#[test]
fn latency_histogram_quantiles_are_ordered() {
    let bundle = presets::tiny(64);
    let edges = edge_replicas(1, 8);
    let clouds = replicas(1, || tiny_cloud(9));
    let cfg = config(OffloadPolicy::EntropyThreshold(0.5), 1, 1, 2);
    let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves");
    let h = report.latency_histogram(128);
    assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    assert!(report.stats.throughput_hz > 0.0);
}

#[test]
fn simulated_link_delay_shows_up_in_latency() {
    let bundle = presets::tiny(65);
    let n = bundle.test.len();
    let run = |link: Option<NetworkLink>| {
        let edges = edge_replicas(1, 10);
        let clouds = replicas(1, || tiny_cloud(11));
        let mut cfg = config(OffloadPolicy::Always, 1, 1, 4);
        if let Some(link) = link {
            cfg = cfg.link(link);
        }
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).expect("serves")
    };
    let fast = run(None);
    let slow = run(Some(NetworkLink::wifi(8.0).with_rtt(0.004)));
    assert_eq!(fast.records, slow.records, "link delay must not change predictions");
    let mean = |r: &ServeReport| r.completions.iter().map(|c| c.latency_s).sum::<f64>() / n as f64;
    assert!(mean(&slow) > mean(&fast), "simulated RTT should add latency: {} vs {}", mean(&slow), mean(&fast));
}

#[test]
fn quantised_wire_serves_everything_and_mostly_agrees_with_lossless() {
    let bundle = presets::tiny(69);
    let run = |wire: WireFormat| {
        let edges = edge_replicas(2, 14);
        let clouds = replicas(1, || tiny_cloud(15));
        let cfg = config(OffloadPolicy::Always, 2, 1, 4).control(image_plan(wire));
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves")
    };
    let lossless = run(WireFormat::Float32);
    let quantised = run(WireFormat::Quantised8Bit);
    assert_eq!(quantised.records.len(), lossless.records.len());
    assert!(quantised.records.iter().all(|r| r.exit == ExitPoint::Cloud));
    // The 1-byte codec shrinks the upload roughly 4x (f32 -> u8).
    assert!(quantised.stats.bytes_to_cloud * 3 < lossless.stats.bytes_to_cloud);
    // Edge-side fields are computed before quantisation: identical.
    for (q, l) in quantised.records.iter().zip(&lossless.records) {
        assert_eq!(q.truth, l.truth);
        assert_eq!(q.entropy, l.entropy);
        assert_eq!(q.main_prediction, l.main_prediction);
    }
    // Cloud predictions may flip on borderline images, but rarely.
    let n = lossless.records.len();
    let agree =
        quantised.records.iter().zip(&lossless.records).filter(|(q, l)| q.prediction == l.prediction).count();
    assert!(agree * 4 >= n * 3, "8-bit wire flipped too many predictions: {agree}/{n}");
}

#[test]
fn trace_requests_cover_the_dataset_in_order() {
    let bundle = presets::tiny(66);
    let mut rng = Rng::new(1);
    let reqs = trace_requests(&bundle.test, 4, &ArrivalModel::Poisson { rate_hz: 100.0 }, &mut rng);
    assert_eq!(reqs.len(), bundle.test.len());
    assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    // Per-device seq numbers are contiguous from 0.
    for d in 0..4 {
        let mut seqs: Vec<usize> = reqs.iter().filter(|r| r.device == d).map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..seqs.len()).collect::<Vec<_>>());
    }
}

#[test]
#[should_panic(expected = "sorted by arrival")]
fn unsorted_requests_rejected() {
    let bundle = presets::tiny(67);
    let mut reqs = instant_requests(&bundle.test, 1);
    reqs[0].arrival_s = 1.0;
    let edges = edge_replicas(1, 12);
    let cfg = config(OffloadPolicy::Never, 1, 0, 1);
    let _ = serve(cfg, edges, Vec::new(), &reqs).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
#[should_panic(expected = "requires a cloud model")]
fn offload_policy_without_cloud_workers_rejected() {
    let _ = config(OffloadPolicy::Always, 1, 0, 1).build().unwrap_or_else(|e| panic!("{e}"));
}

/// Image payloads on the given wire, no controller.
fn image_plan(wire: WireFormat) -> ControlPlan {
    ControlPlan::Image { wire, controller: None }
}

/// A fixed cut on the given feature wire, no controller.
fn feature_plan(wire: FeatureWire, cut: usize) -> ControlPlan {
    ControlPlan::Static { cut, wire, controller: None }
}

#[test]
fn feature_payload_any_fixed_cut_matches_image_mode_bitwise() {
    // The crux of the tentpole: shipping the activation at ANY cut and
    // resuming on the cloud is indistinguishable (in records) from
    // shipping pixels — the cut moves compute, never predictions.
    let bundle = presets::tiny(72);
    let policy = OffloadPolicy::EntropyThreshold(0.5);
    let run = |control: ControlPlan| {
        let edges = split_replicas(2, 16, 17);
        let clouds = replicas(2, || tiny_cloud(17));
        let cfg = config(policy, 2, 2, 4).control(control);
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 3)).expect("serves")
    };
    let image = run(image_plan(WireFormat::Float32));
    let layers = tiny_cloud(17).cut_layer_count();
    for cut in [0, 1, layers / 2, layers - 1] {
        let feat = run(feature_plan(FeatureWire::F32, cut));
        assert_eq!(feat.records, image.records, "cut {cut} changed records");
        if cut > 0 {
            assert!(feat.stats.cloud_macs_saved > 0, "cut {cut} saved no cloud MACs");
        }
        assert_eq!(
            feat.stats.cloud_macs + feat.stats.cloud_macs_saved,
            image.stats.cloud_macs,
            "cut {cut}: MAC split does not cover the full forward"
        );
        assert_eq!(feat.stats.final_cuts, Some(vec![cut]));
    }
    assert_eq!(image.stats.cloud_macs_saved, 0);
    assert_eq!(image.stats.final_cuts, None);
}

#[test]
fn deep_int8_cut_beats_raw_image_upload_on_bytes() {
    let bundle = presets::tiny(73);
    let run = |control: ControlPlan| {
        let edges = split_replicas(1, 18, 19);
        let clouds = replicas(1, || tiny_cloud(19));
        let cfg = config(OffloadPolicy::Always, 1, 1, 4).control(control);
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves")
    };
    let raw = run(image_plan(WireFormat::Quantised8Bit));
    let deep = tiny_cloud(19).cut_layer_count() - 1;
    let int8 = run(feature_plan(FeatureWire::Int8, deep));
    let f32_deep = run(feature_plan(FeatureWire::F32, deep));
    assert!(
        int8.stats.bytes_to_cloud < raw.stats.bytes_to_cloud,
        "deep int8 activations should undercut the raw-image upload: {} vs {}",
        int8.stats.bytes_to_cloud,
        raw.stats.bytes_to_cloud
    );
    // While f32 features at the same cut are bigger than the raw image
    // (the paper's objection to sending features from small images).
    assert!(f32_deep.stats.bytes_to_cloud > raw.stats.bytes_to_cloud);
    // Responses are charged: every offload pulls its prediction back.
    assert_eq!(int8.stats.bytes_from_cloud, RESPONSE_WIRE_BYTES * int8.stats.offloaded as u64);
    // Int8 may flip borderline predictions but serves everything.
    assert_eq!(int8.records.len(), raw.records.len());
    assert!(int8.records.iter().all(|r| r.exit == ExitPoint::Cloud));
}

#[test]
fn per_channel_int8_is_deterministic_and_undercuts_per_tensor_at_every_cut() {
    // The grid-indexed frames round-trip deterministically end to end
    // (same trace, same records and bytes, twice), and carrying the quant
    // params out of band in the calibrated grid makes every frame's header
    // exactly 16 bytes smaller than its per-tensor twin's at the same cut:
    // 12 bytes of embedded params plus the squeezed batch-axis dim. Each
    // body is then the shorter of raw and Huffman-coded on its own grid,
    // so the totals differ by exactly that where both travel raw (the
    // smallest activations) and by more here wherever they travel coded:
    // the per-channel grid's elements code shorter.
    let bundle = presets::tiny(77);
    let run = |control: ControlPlan| {
        let edges = split_replicas(1, 46, 47);
        let clouds = replicas(1, || tiny_cloud(47));
        let cfg = config(OffloadPolicy::Always, 1, 1, 4).control(control);
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves")
    };
    let last = tiny_cloud(47).cut_layer_count() - 1;
    for cut in 0..=last {
        let a = run(feature_plan(FeatureWire::PerChannelInt8, cut));
        let b = run(feature_plan(FeatureWire::PerChannelInt8, cut));
        assert_eq!(a.records, b.records, "cut {cut}: grid framing must be deterministic");
        assert_eq!(a.stats.bytes_to_cloud, b.stats.bytes_to_cloud, "cut {cut}");
        assert_eq!(a.records.len(), bundle.test.len());
        assert!(a.records.iter().all(|r| r.exit == ExitPoint::Cloud));
        let per_tensor = run(feature_plan(FeatureWire::Int8, cut));
        assert_eq!(per_tensor.stats.offloaded, a.stats.offloaded);
        let header_saving = 16 * a.stats.offloaded as u64;
        let saving = per_tensor.stats.bytes_to_cloud - a.stats.bytes_to_cloud;
        if cut == 0 || cut == last {
            assert_eq!(saving, header_saving, "cut {cut}: raw bodies differ by the header alone");
        } else {
            assert!(saving > header_saving, "cut {cut}: the shared grid saved {saving} bytes");
        }
    }
}

#[test]
fn governed_unreachable_sla_escalates_the_full_ladder() {
    // Deterministic single-lane run under an impossible budget: the
    // governor walks rung 1 (SLA-constrained replan), rungs 2-3 (the
    // int8 wires) and then spends β — and the cloud decodes the
    // mid-run mix of f32 / per-tensor / grid-indexed frames without a
    // hiccup, serving every request.
    let bundle = presets::tiny(84);
    let mut requests = Vec::new();
    for rep in 0..4 {
        for mut r in instant_requests(&bundle.test, 2) {
            r.seq += rep * bundle.test.len();
            requests.push(r);
        }
    }
    let edges = split_replicas(1, 48, 49);
    let clouds = replicas(1, || tiny_cloud(49));
    let cfg = config(OffloadPolicy::Always, 1, 1, 1)
        .link(NetworkLink::wifi(2.0).with_rtt(0.001))
        .control(ControlPlan::Governed(SlaTarget::new(1e-3, 0.80)));
    let report = serve(cfg, edges, clouds, &requests).expect("serves");
    assert_eq!(report.records.len(), requests.len());
    assert!(
        report.stats.sla_violations >= 4,
        "every judged window violates a 1 µs budget, saw {}",
        report.stats.sla_violations
    );
    let traj = report.stats.control_trajectory.expect("governed runs report their trajectory");
    let last = traj.last().expect("trajectory holds at least the initial point");
    assert_eq!(
        last.wires,
        vec![FeatureWire::PerChannelInt8],
        "the ladder should exhaust the wire rungs down to per-channel int8"
    );
    assert!(last.beta_target.is_some(), "past the wire rungs the β rung must be spent");
    assert!(report.stats.governor_decisions >= 1, "wire moves count as decisions");
    assert_eq!(traj.first().expect("seeded").after_batches, 0, "trajectory starts at the initial point");
}

#[test]
fn control_plan_rejects_each_incoherent_combination_by_name() {
    let b = || ServeConfig::builder(OffloadPolicy::Always);
    let edge = DeviceProfile::new("edge", 10.0, 1e9);
    let planner = || CutPlannerConfig {
        classes: vec![edge.clone()],
        cloud: DeviceProfile::new("cloud", 200.0, 1e12),
        objective: Objective::Latency,
        feedback: None,
    };
    let closed = || ControlPlan::ClosedLoop {
        planner: planner(),
        feedback: LinkFeedback::default(),
        wire: FeatureWire::F32,
        controller: None,
    };
    // Governed without link telemetry has nothing to govern from.
    assert_eq!(
        b().control(ControlPlan::Governed(SlaTarget::new(50.0, 0.9))).build(),
        Err(ServeConfigError::GovernedWithoutTelemetry)
    );
    // ClosedLoop's own feedback slot is the only one.
    let mut doubled = planner();
    doubled.feedback = Some(LinkFeedback::default());
    assert_eq!(
        b().control(ControlPlan::ClosedLoop {
            planner: doubled.clone(),
            feedback: LinkFeedback::default(),
            wire: FeatureWire::F32,
            controller: None,
        })
        .link(NetworkLink::wifi(10.0))
        .build(),
        Err(ServeConfigError::ClosedLoopFeedbackConflict)
    );
    // And an open loop has no feedback at all.
    assert_eq!(
        b().control(ControlPlan::OpenLoop { planner: doubled, wire: FeatureWire::F32, controller: None })
            .link(NetworkLink::wifi(10.0))
            .build(),
        Err(ServeConfigError::ClosedLoopFeedbackConflict)
    );
    // And each coherent plan builds.
    assert!(b().control(ControlPlan::Static { cut: 1, wire: FeatureWire::F32, controller: None }).build().is_ok());
    assert!(b().control(closed()).link(NetworkLink::wifi(10.0)).build().is_ok());
    assert!(b()
        .control(ControlPlan::Governed(SlaTarget::new(50.0, 0.9)))
        .link(NetworkLink::wifi(10.0))
        .build()
        .is_ok());
}

#[test]
fn planned_cut_is_deterministic_and_in_range() {
    let bundle = presets::tiny(74);
    let planned = ControlPlan::OpenLoop {
        planner: CutPlannerConfig {
            classes: vec![DeviceProfile::new("fast edge", 10.0, 1e12), DeviceProfile::new("slow edge", 10.0, 1e7)],
            cloud: DeviceProfile::new("cloud", 200.0, 1e11),
            objective: Objective::Latency,
            feedback: None,
        },
        wire: FeatureWire::Int8,
        controller: None,
    };
    let run = || {
        let edges = split_replicas(2, 20, 21);
        let clouds = replicas(1, || tiny_cloud(21));
        let cfg = config(OffloadPolicy::Always, 2, 1, 4)
            .control(planned.clone())
            .link(NetworkLink::wifi(1.0).with_rtt(0.001));
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 4)).expect("serves")
    };
    let a = run();
    let b = run();
    let cuts = a.stats.final_cuts.clone().expect("feature mode reports cuts");
    assert_eq!(cuts.len(), 2, "one cut per device class");
    let layers = tiny_cloud(21).cut_layer_count();
    assert!(cuts.iter().all(|&c| c < layers));
    assert_eq!(a.stats.final_cuts, b.stats.final_cuts, "closed-form planning must be deterministic");
    assert_eq!(a.records, b.records);
    assert_eq!(a.stats.cut_replans, 0, "no controller, no replans");
}

#[test]
fn controller_replans_cuts_without_touching_predictions() {
    // A controller window moves β; the planner re-derives the cut
    // under the new contention. With the lossless wire the records
    // still match plain image serving bit for bit.
    let bundle = presets::tiny(75);
    let mut requests = Vec::new();
    for rep in 0..4 {
        for mut r in instant_requests(&bundle.test, 4) {
            r.seq += rep * bundle.test.len();
            requests.push(r);
        }
    }
    let controller =
        Some(ControllerConfig { controller: ThresholdController::new(1.0, 0.5, 2.0, (0.0, 3.0)), window: 16 });
    // One edge worker: the controller's window feedback then happens
    // in arrival order, so both runs see the same threshold (and cut)
    // trajectory. With several edge workers the lock interleaving —
    // not the payload plan — can reorder observations.
    let run = |control: ControlPlan| {
        let edges = split_replicas(1, 22, 23);
        let clouds = replicas(2, || tiny_cloud(23));
        let cfg =
            config(OffloadPolicy::Never, 1, 2, 4).control(control).link(NetworkLink::wifi(40.0).with_rtt(0.0005));
        serve(cfg, edges, clouds, &requests).expect("serves")
    };
    let planned = ControlPlan::OpenLoop {
        planner: CutPlannerConfig {
            classes: vec![DeviceProfile::new("edge", 10.0, 1e8)],
            cloud: DeviceProfile::new("cloud", 200.0, 1e11),
            objective: Objective::Latency,
            feedback: None,
        },
        wire: FeatureWire::F32,
        controller,
    };
    let feat = run(planned);
    let image = run(ControlPlan::Image { wire: WireFormat::Float32, controller });
    assert_eq!(feat.records, image.records, "replanning leaked into predictions");
    assert!(feat.stats.final_cuts.is_some());
}

/// Rebuilds the planner exactly as `build_cut_table` does for an F32
/// feature plan over the tiny cloud: same env, same stream count.
fn planner_like_serve(cloud_seed: u64, link: NetworkLink, edge: &DeviceProfile, streams: usize) -> CutPlanner {
    let prefix = tiny_cloud(cloud_seed);
    let in_elems: u64 = prefix.in_shape.iter().map(|&d| d as u64).product();
    let env = PartitionEnv {
        edge: edge.clone(),
        cloud: DeviceProfile::new("cloud", 200.0, 1e12),
        link,
        bytes_per_elem: 4,
        raw_input_bytes: 4 * in_elems,
        response_bytes: RESPONSE_WIRE_BYTES,
    };
    CutPlanner::from_network(&prefix, env, Objective::Latency, streams)
}

/// The final cut `planner` picks for `edge` on the shared link, solo.
fn solo_cut(planner: &CutPlanner, edge: &DeviceProfile) -> usize {
    planner.plan_placement_for_measured(edge, None, None, None).plan.final_cut()
}

#[test]
fn stream_count_uses_distinct_devices_not_max_id() {
    // Regression: the planner's contention model used to estimate the
    // stream count as `max(device id) + 1`, so a trace from devices
    // {0, 7} was charged as EIGHT concurrent uploaders instead of two,
    // inflating β·streams and pushing the planned cut away from where
    // the actual two-stream contention warrants.
    let bundle = presets::tiny(80);
    let edge = DeviceProfile::new("edge", 10.0, 1e9);
    // Find a link rate where 2-stream and 8-stream contention plan
    // different cuts (such a rate must exist: the effective rates
    // differ 4x), so the test can detect which model served.
    let rate = (0..60)
        .map(|i| 0.05 * 1.3f64.powi(i))
        .find(|&r| {
            let two = planner_like_serve(29, NetworkLink::wifi(r).with_rtt(0.001), &edge, 2);
            let eight = planner_like_serve(29, NetworkLink::wifi(r).with_rtt(0.001), &edge, 8);
            solo_cut(&two, &edge) != solo_cut(&eight, &edge)
        })
        .expect("some rate separates 2-stream from 8-stream contention");
    let link = NetworkLink::wifi(rate).with_rtt(0.001);
    let expected_cut = solo_cut(&planner_like_serve(29, link, &edge, 2), &edge);
    let wrong_cut = solo_cut(&planner_like_serve(29, link, &edge, 8), &edge);
    assert_ne!(expected_cut, wrong_cut, "rate search guaranteed a separation");

    // Sparse trace: the same frames, but the second device is id 7.
    let mut requests = instant_requests(&bundle.test, 2);
    for r in &mut requests {
        if r.device == 1 {
            r.device = 7;
        }
    }
    let edges = split_replicas(2, 28, 29);
    let clouds = replicas(1, || tiny_cloud(29));
    let cfg = config(OffloadPolicy::Always, 2, 1, 4).control(planned(vec![edge.clone()])).link(link);
    let report = serve(cfg, edges, clouds, &requests).expect("serves");
    assert_eq!(
        report.stats.final_cuts,
        Some(vec![expected_cut]),
        "sparse ids {{0, 7}} must be planned as two streams, not eight"
    );
}

#[test]
fn measured_degradation_replans_toward_an_edge_heavier_cut() {
    // The closed loop end to end: the wire silently degrades 50x
    // mid-run; the static contention model can never see it, but the
    // cloud workers' per-batch telemetry does, and the planner moves
    // the cut toward the edge (smaller uploads). 1 edge x 1 cloud x
    // max_batch 1 keeps the batch order and hence the whole feedback
    // trajectory deterministic.
    let bundle = presets::tiny(81);
    // A slow edge device makes the nominal plan shallow (ship early,
    // the cloud is 2000x faster); once the wire degrades 200x, paying
    // the edge prefix to shrink the upload wins.
    let nominal = NetworkLink::wifi(100.0).with_rtt(0.0002);
    let degraded = NetworkLink::wifi(0.5).with_rtt(0.0002);
    let edge = DeviceProfile::new("edge", 10.0, 5e8);
    let run = |feedback: Option<LinkFeedback>| {
        let edges = split_replicas(1, 30, 31);
        let clouds = replicas(1, || tiny_cloud(31));
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
        let cfg = config(OffloadPolicy::Always, 1, 1, 1)
            .control(control)
            .link(nominal)
            .link_events(vec![LinkChange { after_batches: 8, link: degraded }]);
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).expect("serves")
    };
    let closed = run(Some(LinkFeedback {
        alpha: 0.5,
        prior_samples: 0.0,
        replan_every: NonZeroU64::new(4).expect("4 > 0"),
    }));
    let open = run(None);

    // Open loop: the degradation happened, nobody replanned.
    assert_eq!(open.stats.cut_replans, 0);
    assert!(open.stats.link_estimates.is_none());
    let open_cut = open.stats.final_cuts.clone().expect("planned mode")[0];

    // Closed loop: telemetry saw the slower wire and the plan moved.
    assert!(closed.stats.cut_replans >= 1, "degradation never reached the planner");
    let closed_cut = closed.stats.final_cuts.clone().expect("planned mode")[0];
    assert!(closed_cut > open_cut, "cut should move edge-heavier: {open_cut} -> {closed_cut}");
    let cloud_net = tiny_cloud(31);
    let profiles = profile_network(&cloud_net);
    let in_elems: u64 = cloud_net.in_shape.iter().map(|&d| d as u64).product();
    let upload = |cut: usize| if cut == 0 { 4 * in_elems } else { 4 * profiles[cut - 1].out_elems };
    assert!(upload(closed_cut) < upload(open_cut), "edge-heavier cut must shrink the upload");

    // The estimator converged onto the degraded wire (EWMA of exact
    // per-batch observations; the nominal prefix decays geometrically).
    let ests = closed.stats.link_estimates.expect("feedback reports estimates");
    let est = ests[0].expect("class 0 observed");
    assert_eq!(est.samples, closed.stats.offloaded as u64, "one observation per served batch");
    assert!((est.up_mbps - 0.5).abs() / 0.5 < 0.05, "estimate {} should track 0.5 Mbps", est.up_mbps);
    assert!((est.rtt_s - 0.0002).abs() < 1e-9);

    // The cut is a pure cost knob: closed- and open-loop runs serve
    // bitwise-identical records under the lossless wire.
    assert_eq!(closed.records, open.records, "replanning leaked into predictions");
}

#[test]
#[should_panic(expected = "link schedule needs a link")]
fn link_schedule_without_link_rejected() {
    let _ = config(OffloadPolicy::Never, 1, 0, 1)
        .link_events(vec![LinkChange { after_batches: 1, link: NetworkLink::wifi(1.0) }])
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
#[should_panic(expected = "no cloud prefix")]
fn feature_mode_without_prefixes_rejected() {
    let bundle = presets::tiny(76);
    let edges = edge_replicas(1, 24);
    let clouds = replicas(1, || tiny_cloud(25));
    let cfg = config(OffloadPolicy::Always, 1, 1, 1).control(feature_plan(FeatureWire::F32, 1));
    let _ = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
#[should_panic(expected = "out of range")]
fn fixed_cut_out_of_range_rejected() {
    let bundle = presets::tiny(78);
    let edges = split_replicas(1, 26, 27);
    let clouds = replicas(1, || tiny_cloud(27));
    let cfg = config(OffloadPolicy::Always, 1, 1, 1)
        .control(feature_plan(FeatureWire::F32, tiny_cloud(27).cut_layer_count()));
    let _ = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn serve_counts_every_uplink_byte() {
    // Every offloaded image crosses the wire as exactly one encoded
    // payload: `bytes_to_cloud` is the offload count times the codec's
    // wire size of one `[1, C, H, W]` image, on the modelled wire and on
    // the byte pipe alike.
    let bundle = presets::tiny(88);
    let image = bundle.test.images.slice_axis0(0, 1);
    let codecs = [
        (WireFormat::Float32, Payload::Features { features: image.clone() }),
        (WireFormat::Quantised8Bit, Payload::RawImage { image }),
    ];
    for (wire, payload) in codecs {
        for kind in [TransportKind::Modelled, TransportKind::Pipe(PipeConfig::default())] {
            let edges = edge_replicas(1, 42);
            let clouds = replicas(1, || tiny_cloud(43));
            let cfg = config(OffloadPolicy::EntropyThreshold(0.5), 1, 1, 4)
                .control(image_plan(wire))
                .transport(kind.clone());
            let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves");
            assert!(report.stats.offloaded > 0, "{wire:?} on {kind:?}: nothing offloaded");
            assert_eq!(
                report.stats.bytes_to_cloud,
                report.stats.offloaded as u64 * payload.wire_size_bytes(),
                "{wire:?} on {kind:?}: uplink bytes are not one payload per offload"
            );
        }
    }
}

#[test]
fn scheduled_link_keys_on_started_batches() {
    // `after_batches: 3` means "the 4th started batch (and later) rides
    // the new link": a batch with 3 starts before it has crossed the
    // boundary, one with 2 has not.
    let before = NetworkLink::wifi(100.0);
    let after = NetworkLink::wifi(1.0);
    let cfg = config(OffloadPolicy::Always, 1, 1, 1)
        .link(before)
        .link_events(vec![LinkChange { after_batches: 3, link: after }])
        .build()
        .expect("valid config");
    assert_eq!(scheduled_link(&cfg, 2), Some(before));
    assert_eq!(scheduled_link(&cfg, 3), Some(after));
    assert_eq!(scheduled_link(&cfg, 9), Some(after));
}

#[test]
fn link_change_fires_on_the_started_batch_boundary() {
    // Regression for the started-vs-completed ambiguity: a change due
    // at batch 3 must leave EXACTLY the first three started batches on
    // the fast link, even with two cloud workers racing to dequeue.
    // The fast link is effectively free; the slow one costs 0.2 s of
    // RTT, so per-request latency separates the two regimes cleanly.
    let bundle = presets::tiny(83);
    let mut reqs = instant_requests(&bundle.test, 2);
    reqs.truncate(12);
    let edges = edge_replicas(1, 34);
    let clouds = replicas(2, || tiny_cloud(35));
    let cfg = config(OffloadPolicy::Always, 1, 2, 1)
        .link(NetworkLink::wifi(10_000.0).with_rtt(0.0))
        .link_events(vec![LinkChange { after_batches: 3, link: NetworkLink::wifi(10_000.0).with_rtt(0.2) }]);
    let report = serve(cfg, edges, clouds, &reqs).expect("serves");
    assert_eq!(report.stats.cloud_batches, 12, "max_batch 1 means one batch per offload");
    let fast = report.completions.iter().filter(|c| c.latency_s < 0.1).count();
    assert_eq!(fast, 3, "exactly the batches started before the boundary ride the fast link");
}

#[test]
#[should_panic(expected = "non-finite arrival time")]
fn trace_requests_reject_non_finite_arrivals() {
    // `0 * inf = NaN`: an infinite uniform interval passes the model's
    // own `>= 0` parameter check but yields a NaN first arrival.
    let bundle = presets::tiny(84);
    let mut rng = Rng::new(0);
    let _ = trace_requests(&bundle.test, 1, &ArrivalModel::Uniform { interval_s: f64::INFINITY }, &mut rng);
}

#[test]
#[should_panic(expected = "non-finite arrival time")]
fn serve_rejects_non_finite_arrivals() {
    // A NaN smuggled into a hand-built trace must be named up front,
    // not surface as a misleading "sorted by arrival" comparator error.
    let bundle = presets::tiny(85);
    let mut reqs = instant_requests(&bundle.test, 1);
    reqs[3].arrival_s = f64::NAN;
    let edges = edge_replicas(1, 36);
    let cfg = config(OffloadPolicy::Never, 1, 0, 1);
    let _ = serve(cfg, edges, Vec::new(), &reqs).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn serve_rejects_an_arrival_too_late_to_schedule() {
    // `1e20` s is finite, sorted and non-negative, but no `Duration`
    // holds it: the dispatcher used to panic turning it into a deadline,
    // and the cloud workers then waited forever on their uplinks.
    let bundle = presets::tiny(87);
    let mut reqs = instant_requests(&bundle.test, 1);
    let last = reqs.len() - 1;
    reqs[last].arrival_s = 1e20;
    let clouds = replicas(1, || tiny_cloud(39));
    let err = serve(config(OffloadPolicy::Always, 1, 1, 1), edge_replicas(1, 40), clouds, &reqs)
        .expect_err("an unschedulable arrival");
    assert_eq!(err, ServeError::UnschedulableArrival { index: last, arrival_s: 1e20 });
    assert!(err.to_string().contains("cannot be scheduled"), "{err}");
}

#[test]
#[should_panic(expected = "edge worker 0 panicked")]
fn worker_panic_propagates_instead_of_hanging() {
    // An edge replica without its edge blocks blows up on the first
    // request it settles locally, with offloads in flight. (A wrong-shape
    // image cannot be the poison: `Fleet::serve` rejects it before any
    // worker starts.) The collector used to block forever on `done_rx.recv()`;
    // now the runtime joins the workers and re-raises the original
    // panic, naming the worker that died.
    let bundle = presets::tiny(86);
    let reqs = instant_requests(&bundle.test, 1);
    let mut rng = Rng::new(37);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    let variant = Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 };
    let net = MeaNet::from_backbone(resnet_cifar(&cfg, &mut rng), variant, Merge::Sum, &mut rng);
    let clouds = replicas(2, || tiny_cloud(38));
    let policy = OffloadPolicy::EntropyThreshold(0.5);
    let _ = serve(config(policy, 1, 2, 1), vec![EdgeReplica::new(net)], clouds, &reqs);
}

#[test]
#[should_panic(expected = "the sink refused a completion")]
fn a_panicking_sink_propagates_instead_of_hanging() {
    // The sink runs on the dispatching thread. If it panics with edge
    // queues open and cloud workers waiting on their uplinks, the
    // dispatch side must close both, so the run unwinds and re-raises the
    // sink's panic instead of joining workers that wait forever.
    let bundle = presets::tiny(88);
    let reqs = instant_requests(&bundle.test, 2);
    let cfg = config(OffloadPolicy::EntropyThreshold(0.5), 2, 2, 2).build().expect("valid config");
    let mut fleet = Fleet::new(cfg, edge_replicas(2, 41), replicas(2, || tiny_cloud(42))).expect("consistent");
    let _ = fleet.serve_with(&reqs, |_| panic!("the sink refused a completion"));
}

#[test]
fn pipe_transport_matches_modelled_records_bitwise() {
    // The acceptance bar of the transport tentpole: byte-identical
    // frames ride a real buffered byte stream instead of a modelled
    // channel, so records, uplink bytes, and downlink bytes all match
    // the modelled path exactly — on every payload plan and cut.
    let bundle = presets::tiny(87);
    let deep = tiny_cloud(41).cut_layer_count() - 1;
    let plans = [
        image_plan(WireFormat::Float32),
        image_plan(WireFormat::Quantised8Bit),
        feature_plan(FeatureWire::F32, 2),
        feature_plan(FeatureWire::Int8, deep),
    ];
    for plan in plans {
        let run = |transport: TransportKind| {
            let edges = split_replicas(2, 40, 41);
            let clouds = replicas(2, || tiny_cloud(41));
            let cfg =
                config(OffloadPolicy::EntropyThreshold(0.5), 2, 2, 4).control(plan.clone()).transport(transport);
            serve(cfg, edges, clouds, &instant_requests(&bundle.test, 3)).expect("serves")
        };
        let modelled = run(TransportKind::Modelled);
        let mut real_wires = vec![("pipe", TransportKind::Pipe(PipeConfig::default()))];
        #[cfg(unix)]
        real_wires.push(("uds", TransportKind::Uds(crate::transport::UdsConfig::default())));
        for (wire, kind) in real_wires {
            let real = run(kind);
            assert_eq!(real.records, modelled.records, "{plan:?}: {wire} transport changed records");
            assert_eq!(real.stats.offloaded, modelled.stats.offloaded);
            assert_eq!(
                real.stats.bytes_to_cloud, modelled.stats.bytes_to_cloud,
                "{plan:?}: {wire} uplink bytes diverged"
            );
            assert_eq!(
                real.stats.bytes_from_cloud, modelled.stats.bytes_from_cloud,
                "{plan:?}: {wire} downlink bytes diverged"
            );
        }
    }
}

#[test]
fn pipe_telemetry_measures_the_real_wire_not_the_model() {
    // Pace the pipe's uplink at 4 Mbps while telling the planner the
    // link is 100 Mbps. The estimator must report the paced wire (from
    // Instant::now() deltas around real sends), not echo the model.
    let bundle = presets::tiny(88);
    let edges = split_replicas(1, 42, 43);
    let clouds = replicas(1, || tiny_cloud(43));
    let cfg = config(OffloadPolicy::Always, 1, 1, 1)
        .control(ControlPlan::ClosedLoop {
            planner: CutPlannerConfig {
                classes: vec![DeviceProfile::new("edge", 10.0, 5e8)],
                cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                objective: Objective::Latency,
                feedback: None,
            },
            feedback: LinkFeedback {
                alpha: 0.5,
                prior_samples: 0.0,
                replan_every: NonZeroU64::new(4).expect("4 > 0"),
            },
            wire: FeatureWire::F32,
            controller: None,
        })
        .link(NetworkLink::wifi(100.0).with_rtt(0.0))
        .transport(TransportKind::Pipe(PipeConfig { up_mbps: Some(4.0), ..PipeConfig::default() }));
    let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).expect("serves");
    let ests = report.stats.link_estimates.expect("feedback reports estimates");
    let est = ests[0].expect("class 0 observed");
    assert_eq!(est.samples, report.stats.offloaded as u64, "one observation per served batch");
    assert!(
        est.up_mbps > 1.0 && est.up_mbps < 16.0,
        "measured estimate {} Mbps should track the 4 Mbps pace, not the 100 Mbps model",
        est.up_mbps
    );
}

#[test]
fn pipe_throttle_replans_toward_an_edge_heavier_cut() {
    // The closed loop over REAL wall-clock time: the pipe's pacer
    // silently throttles 50 -> 0.4 Mbps mid-run. The static model is
    // never told, but the measured estimates are, and the planner
    // moves the cut toward the edge (smaller uploads) — the modelled
    // analogue of `measured_degradation_replans_toward_an_edge_heavier_cut`.
    let edge = DeviceProfile::new("edge", 10.0, 5e8);
    let bundle = presets::tiny(89);
    let run = |throttle: Vec<PaceChange>| {
        let edges = split_replicas(1, 44, 45);
        let clouds = replicas(1, || tiny_cloud(45));
        let cfg = config(OffloadPolicy::Always, 1, 1, 1)
            .control(ControlPlan::ClosedLoop {
                planner: CutPlannerConfig {
                    classes: vec![edge.clone()],
                    cloud: DeviceProfile::new("cloud", 200.0, 1e12),
                    objective: Objective::Latency,
                    feedback: None,
                },
                feedback: LinkFeedback {
                    alpha: 0.5,
                    prior_samples: 0.0,
                    replan_every: NonZeroU64::new(4).expect("4 > 0"),
                },
                wire: FeatureWire::F32,
                controller: None,
            })
            .link(NetworkLink::wifi(100.0).with_rtt(0.0002))
            .transport(TransportKind::Pipe(PipeConfig { up_mbps: Some(50.0), throttle, ..PipeConfig::default() }));
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 1)).expect("serves")
    };
    let steady = run(Vec::new());
    let throttled = run(vec![PaceChange { after_frames: 8, up_mbps: 0.4 }]);
    assert!(throttled.stats.cut_replans >= 1, "throttle never reached the planner");
    let steady_cut = steady.stats.final_cuts.clone().expect("planned mode")[0];
    let throttled_cut = throttled.stats.final_cuts.clone().expect("planned mode")[0];
    assert!(
        throttled_cut > steady_cut,
        "cut should move edge-heavier under the real throttle: {steady_cut} -> {throttled_cut}"
    );
    // Lossless wire: the cut stays a pure cost knob even when the
    // schedule is driven by measured time.
    assert_eq!(throttled.records, steady.records, "replanning leaked into predictions");
}

/// Open-loop planned cuts over the given classes on the lossless wire.
fn planned(classes: Vec<DeviceProfile>) -> ControlPlan {
    ControlPlan::OpenLoop {
        planner: CutPlannerConfig {
            classes,
            cloud: DeviceProfile::new("cloud", 200.0, 1e12),
            objective: Objective::Latency,
            feedback: None,
        },
        wire: FeatureWire::F32,
        controller: None,
    }
}

#[test]
fn builder_rejects_each_static_invariant_by_name() {
    let b = || ServeConfig::builder(OffloadPolicy::Always);
    let edge = DeviceProfile::new("edge", 10.0, 1e9);
    assert_eq!(b().edge_workers(0).build(), Err(ServeConfigError::NoEdgeWorkers));
    assert_eq!(b().max_batch(0).build(), Err(ServeConfigError::ZeroMaxBatch));
    assert_eq!(b().queue_depth(0).build(), Err(ServeConfigError::ZeroQueueDepth));
    let schedule = vec![LinkChange { after_batches: 1, link: NetworkLink::wifi(1.0) }];
    assert_eq!(b().link_events(schedule.clone()).build(), Err(ServeConfigError::ScheduleWithoutLink));
    assert_eq!(
        b().link(NetworkLink::wifi(1.0))
            .link_events(schedule)
            .transport(TransportKind::Pipe(PipeConfig::default()))
            .build(),
        Err(ServeConfigError::ScheduleOnMeasuredWire)
    );
    // A NaN rate used to panic a worker inside the pacer; a rate <= 0
    // silently ran unpaced.
    let paced = |cfg: PipeConfig| b().transport(TransportKind::Pipe(cfg)).build();
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        assert_eq!(
            paced(PipeConfig { up_mbps: Some(bad), ..PipeConfig::default() }),
            Err(ServeConfigError::InvalidPaceRate)
        );
        assert_eq!(
            paced(PipeConfig { down_mbps: Some(bad), ..PipeConfig::default() }),
            Err(ServeConfigError::InvalidPaceRate)
        );
        let throttle = vec![PaceChange { after_frames: 3, up_mbps: bad }];
        assert_eq!(
            paced(PipeConfig { throttle, ..PipeConfig::default() }),
            Err(ServeConfigError::InvalidPaceRate)
        );
    }
    assert!(paced(PipeConfig { up_mbps: Some(5.0), down_mbps: Some(5.0), ..PipeConfig::default() }).is_ok());
    let controller =
        ControllerConfig { controller: ThresholdController::new(1.0, 0.5, 2.0, (0.0, 3.0)), window: 0 };
    assert_eq!(
        b().control(ControlPlan::Image { wire: WireFormat::Float32, controller: Some(controller) }).build(),
        Err(ServeConfigError::ControllerWindowEmpty)
    );
    assert_eq!(b().cloud_workers(0).build(), Err(ServeConfigError::PolicyNeedsCloud));
    // An edge-only policy without cloud workers stays legal.
    assert!(ServeConfig::builder(OffloadPolicy::Never).cloud_workers(0).build().is_ok());
    assert_eq!(
        b().control(planned(Vec::new())).link(NetworkLink::wifi(1.0)).build(),
        Err(ServeConfigError::NoPlannerClasses)
    );
    assert_eq!(b().control(planned(vec![edge.clone()])).build(), Err(ServeConfigError::PlannedCutWithoutLink));
    let spec = FleetSpec::uniform(DeviceClass::new("edge", edge.clone(), ComputeTier::High));
    assert_eq!(
        b().control(planned(vec![edge])).link(NetworkLink::wifi(1.0)).fleet(spec).build(),
        Err(ServeConfigError::FleetClassesConflict)
    );
    // And a fully specified valid configuration builds.
    let cfg = b().edge_workers(2).cloud_workers(1).max_batch(4).build().expect("valid config");
    assert_eq!((cfg.edge_workers, cfg.cloud_workers, cfg.max_batch), (2, 1, 4));
}

#[cfg(unix)]
#[test]
fn link_schedule_on_the_unix_socket_wire_rejected() {
    // The Unix-socket wire pays real time like the pipe, so a modelled
    // link schedule can never fire on it; the config used to build and
    // the scheduled degradation silently never happened.
    let built = ServeConfig::builder(OffloadPolicy::Always)
        .link(NetworkLink::wifi(1.0))
        .link_events(vec![LinkChange { after_batches: 1, link: NetworkLink::wifi(0.1) }])
        .transport(TransportKind::Uds(crate::transport::UdsConfig::default()))
        .build();
    assert_eq!(built, Err(ServeConfigError::ScheduleOnMeasuredWire));
    let message = ServeConfigError::ScheduleOnMeasuredWire.to_string();
    assert!(!message.contains("PipeConfig"), "a UDS user has no pipe to throttle: {message}");
}

/// A deeper cloud variant (two blocks per stage): same input shape as
/// [`tiny_cloud`], different layer enumeration.
fn deeper_cloud(seed: u64) -> SegmentedCnn {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    cfg.channels = [16, 24, 32];
    cfg.blocks_per_stage = 2;
    resnet_cifar(&cfg, &mut rng)
}

#[test]
fn fleet_names_every_replica_and_trace_inconsistency() {
    let bundle = presets::tiny(150);
    let reqs = instant_requests(&bundle.test, 1);
    let fleet =
        |cfg: ServeConfigBuilder, edges, clouds| Fleet::new(cfg.build().expect("valid config"), edges, clouds);

    assert_eq!(
        fleet(config(OffloadPolicy::Never, 2, 0, 1), edge_replicas(1, 50), Vec::new()).unwrap_err(),
        ServeError::EdgeReplicaMismatch { workers: 2, replicas: 1 }
    );
    assert_eq!(
        fleet(config(OffloadPolicy::Never, 1, 0, 1), edge_replicas(1, 50), replicas(1, || tiny_cloud(51)))
            .unwrap_err(),
        ServeError::CloudReplicaMismatch { workers: 0, replicas: 1 }
    );

    let mut edge_only =
        fleet(config(OffloadPolicy::Never, 1, 0, 1), edge_replicas(1, 50), Vec::new()).expect("consistent");
    let mut unsorted = reqs.clone();
    unsorted[0].arrival_s = 1.0;
    assert_eq!(edge_only.serve(&unsorted).unwrap_err(), ServeError::UnsortedArrivals);
    // Finiteness is named before sortedness: a NaN fails every
    // comparison, so it must not masquerade as "unsorted".
    let mut nan = reqs.clone();
    nan[2].arrival_s = f64::NAN;
    assert!(matches!(edge_only.serve(&nan), Err(ServeError::NonFiniteArrival { index: 2, .. })));
    let mut negative = reqs.clone();
    negative[0].arrival_s = -1.0;
    assert_eq!(edge_only.serve(&negative).unwrap_err(), ServeError::NegativeArrival { index: 0 });
    let mut batched = reqs.clone();
    batched[1].image = Tensor::zeros([2, 3, 8, 8]);
    assert_eq!(
        edge_only.serve(&batched).unwrap_err(),
        ServeError::ImageShapeMismatch { index: 1, expected: [1, 3, 8, 8], found: vec![2, 3, 8, 8] }
    );
    // A rejected trace leaves the fleet servable.
    assert_eq!(edge_only.serve(&reqs).expect("serves").stats.total, reqs.len());

    // Feature-payload inconsistencies.
    let fixed = |cut| config(OffloadPolicy::Always, 1, 1, 1).control(feature_plan(FeatureWire::F32, cut));
    assert_eq!(
        fleet(fixed(1), edge_replicas(1, 50), replicas(1, || tiny_cloud(51))).unwrap_err(),
        ServeError::MissingCloudPrefix { worker: 0 }
    );
    let layers = tiny_cloud(53).cut_layer_count();
    assert_eq!(
        fleet(fixed(layers), split_replicas(1, 52, 53), replicas(1, || tiny_cloud(53))).unwrap_err(),
        ServeError::FixedCutOutOfRange { cut: layers, cut_layers: layers }
    );
    assert_eq!(
        fleet(fixed(0), split_replicas(1, 52, 53), replicas(1, || deeper_cloud(53))).unwrap_err(),
        ServeError::PrefixMismatch { edge_layers: layers, cloud_layers: deeper_cloud(53).cut_layer_count() }
    );
}

/// Serves `reqs` with `index`'s image replaced by a `dims`-shaped one on
/// an edge-only fleet, whose tiny network takes `[3, 8, 8]` images.
fn serve_with_image(reqs: &[ServeRequest], index: usize, dims: [usize; 4]) -> Result<ServeReport, ServeError> {
    let mut reqs = reqs.to_vec();
    reqs[index].image = Tensor::zeros(dims);
    serve(config(OffloadPolicy::Never, 1, 0, 1), edge_replicas(1, 50), Vec::new(), &reqs)
}

#[test]
fn fleet_serve_rejects_an_image_of_the_wrong_height_and_width() {
    // Global average pooling would classify a 16×16 image at the wrong
    // geometry without a complaint: the trace check names it instead.
    let reqs = instant_requests(&presets::tiny(150).test, 1);
    assert_eq!(
        serve_with_image(&reqs, 2, [1, 3, 16, 16]).err(),
        Some(ServeError::ImageShapeMismatch { index: 2, expected: [1, 3, 8, 8], found: vec![1, 3, 16, 16] })
    );
}

#[test]
fn fleet_serve_rejects_an_image_with_the_wrong_channel_count() {
    // A one-channel image would panic inside the edge worker's first
    // convolution; the trace check rejects it before any thread spawns.
    let reqs = instant_requests(&presets::tiny(150).test, 1);
    assert_eq!(
        serve_with_image(&reqs, 0, [1, 1, 8, 8]).err(),
        Some(ServeError::ImageShapeMismatch { index: 0, expected: [1, 3, 8, 8], found: vec![1, 1, 8, 8] })
    );
}

#[test]
fn fleet_new_checks_every_cloud_replica_against_the_prefixes() {
    // The second cloud replica enumerates more layers than the edge
    // prefixes and the first cloud: a plan made for one network would
    // resume on another.
    let layers = tiny_cloud(53).cut_layer_count();
    let cfg = ServeConfig::builder(OffloadPolicy::Always)
        .cloud_workers(2)
        .control(feature_plan(FeatureWire::F32, 1))
        .build()
        .expect("valid config");
    let edges = vec![EdgeReplica::with_cloud_prefix(tiny_net(52), tiny_cloud(53))];
    let err = Fleet::new(cfg, edges, vec![tiny_cloud(53), deeper_cloud(53)]).expect_err("second cloud is deeper");
    assert_eq!(
        err,
        ServeError::PrefixMismatch { edge_layers: layers, cloud_layers: deeper_cloud(53).cut_layer_count() }
    );
}

#[test]
fn fleet_new_checks_every_edge_prefix_against_the_clouds() {
    // The second edge worker's prefix enumerates more layers than the
    // cloud it ships to.
    let layers = tiny_cloud(53).cut_layer_count();
    let cfg = ServeConfig::builder(OffloadPolicy::Always)
        .edge_workers(2)
        .control(feature_plan(FeatureWire::F32, 1))
        .build()
        .expect("valid config");
    let edges = vec![
        EdgeReplica::with_cloud_prefix(tiny_net(52), tiny_cloud(53)),
        EdgeReplica::with_cloud_prefix(tiny_net(52), deeper_cloud(53)),
    ];
    let err = Fleet::new(cfg, edges, vec![tiny_cloud(53)]).expect_err("second prefix is deeper");
    assert_eq!(
        err,
        ServeError::PrefixMismatch { edge_layers: deeper_cloud(53).cut_layer_count(), cloud_layers: layers }
    );
}

#[test]
fn fleet_serves_again_from_its_parts_bitwise() {
    let bundle = presets::tiny(151);
    let cfg = config(OffloadPolicy::EntropyThreshold(0.8), 2, 1, 4).build().expect("valid config");
    let reqs = instant_requests(&bundle.test, 3);
    let mut fleet = Fleet::new(cfg, edge_replicas(2, 54), replicas(1, || tiny_cloud(55))).expect("consistent");
    let first = fleet.serve(&reqs).expect("serves");

    // The parts come back out, and a fleet rebuilt from them serves the
    // same records.
    let (cfg, edges, clouds) = fleet.into_parts();
    assert_eq!((edges.len(), clouds.len()), (cfg.edge_workers, cfg.cloud_workers));
    let again = Fleet::new(cfg, edges, clouds).expect("consistent").serve(&reqs).expect("serves");
    assert_eq!(again.records, first.records);
    assert_eq!(again.stats.offloaded, first.stats.offloaded);
}

#[test]
fn fleet_new_rejects_mismatched_replicas_up_front() {
    let cfg = config(OffloadPolicy::Never, 2, 0, 1).build().expect("valid config");
    let err = Fleet::new(cfg, edge_replicas(1, 56), Vec::new()).expect_err("one replica short");
    assert_eq!(err, ServeError::EdgeReplicaMismatch { workers: 2, replicas: 1 });
    assert!(err.to_string().contains("one edge replica per edge worker"));
}

#[test]
fn uniform_high_tier_fleet_matches_the_legacy_planner_path_bitwise() {
    // Backward compatibility of the registry: a single High-tier class
    // (scale factor 1.0, no link prior) must reproduce the legacy
    // `CutPlannerConfig::classes` path bit for bit — same cuts, same
    // records — because `scaled_throughput(1.0)` preserves the profile
    // and an absent prior falls back to the shared link model.
    let bundle = presets::tiny(152);
    let edge = DeviceProfile::new("edge", 10.0, 5e8);
    let link = NetworkLink::wifi(1.0).with_rtt(0.001);
    let run = |classes: Vec<DeviceProfile>, fleet: Option<FleetSpec>| {
        let edges = split_replicas(2, 58, 59);
        let clouds = replicas(1, || tiny_cloud(59));
        let mut cfg = config(OffloadPolicy::Always, 2, 1, 4).control(planned(classes)).link(link);
        if let Some(fleet) = fleet {
            cfg = cfg.fleet(fleet);
        }
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves")
    };
    let legacy = run(vec![edge.clone()], None);
    let spec = FleetSpec::uniform(DeviceClass::new("edge", edge, ComputeTier::High));
    let fleet = run(Vec::new(), Some(spec));
    assert_eq!(fleet.records, legacy.records);
    assert_eq!(fleet.stats.final_cuts, legacy.stats.final_cuts);
    assert_eq!(fleet.stats.bytes_to_cloud, legacy.stats.bytes_to_cloud);
    // Only the registry path reports per-class breakdowns.
    assert!(legacy.stats.per_class.is_none());
    let classes = fleet.stats.per_class.expect("fleet stats");
    assert_eq!(classes.iter().map(|c| c.served).collect::<Vec<_>>(), vec![fleet.stats.total]);
}

#[test]
fn heterogeneous_tiers_plan_per_class_cuts_from_effective_profiles() {
    // The heart of the heterogeneity tentpole: two classes sharing one
    // hardware profile but different compute tiers must plan different
    // cuts once a link rate separates their effective throughputs —
    // and the planned cuts must equal what an offline planner derives
    // from the tier-scaled profiles.
    let bundle = presets::tiny(153);
    let base = DeviceProfile::new("edge", 10.0, 5e8);
    let high = DeviceClass::new("high", base.clone(), ComputeTier::High);
    let low = DeviceClass::new("low", base, ComputeTier::Low);
    let (hp, lp) = (high.effective_profile(), low.effective_profile());
    let rate = (0..60)
        .map(|i| 0.05 * 1.3f64.powi(i))
        .find(|&r| {
            let planner = planner_like_serve(61, NetworkLink::wifi(r).with_rtt(0.001), &hp, 2);
            solo_cut(&planner, &hp) != solo_cut(&planner, &lp)
        })
        .expect("some rate separates the High and Low tiers");
    let link = NetworkLink::wifi(rate).with_rtt(0.001);
    let planner = planner_like_serve(61, link, &hp, 2);
    let expected = vec![solo_cut(&planner, &hp), solo_cut(&planner, &lp)];

    let edges = split_replicas(2, 60, 61);
    let clouds = replicas(1, || tiny_cloud(61));
    let cfg = config(OffloadPolicy::Always, 2, 1, 4)
        .control(planned(Vec::new()))
        .link(link)
        .fleet(FleetSpec::round_robin(vec![high, low]));
    let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves");
    assert_eq!(report.stats.final_cuts, Some(expected.clone()));
    assert_ne!(expected[0], expected[1], "tiers must plan different cuts");

    // Round-robin assignment: devices {0, 1} split across the classes,
    // and the per-class breakdown partitions the totals.
    let classes = report.stats.per_class.expect("fleet stats");
    let served: Vec<usize> = classes.iter().map(|c| c.served).collect();
    assert_eq!(served.iter().sum::<usize>(), report.stats.total);
    assert_eq!(classes.iter().map(|c| c.offloaded).sum::<usize>(), report.stats.offloaded);
    assert!(served.iter().all(|&s| s > 0), "both classes serve traffic: {served:?}");
    assert!(classes.iter().all(|c| c.latency.is_some()), "both classes record latencies");
}

#[test]
fn explicit_assignment_overrides_the_modulo_convention() {
    // `FleetSpec::assign` must beat `device % classes`: pin both
    // devices to class 1 and the class-0 row of every per-class stat
    // stays empty.
    let bundle = presets::tiny(154);
    let base = DeviceProfile::new("edge", 10.0, 1e9);
    let spec = FleetSpec::round_robin(vec![
        DeviceClass::new("a", base.clone(), ComputeTier::High),
        DeviceClass::new("b", base, ComputeTier::Medium),
    ])
    .assign(0, 1)
    .assign(1, 1);
    let cfg = config(OffloadPolicy::Always, 2, 1, 4).fleet(spec);
    let edges = edge_replicas(2, 62);
    let clouds = replicas(1, || tiny_cloud(63));
    let report = serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves");
    let classes = report.stats.per_class.expect("fleet stats");
    assert_eq!(classes[0].served, 0, "every device is pinned to class b");
    assert_eq!(classes[1].served, report.stats.total);
    assert_eq!(classes[0].latency, None, "empty class has no histogram");
}

#[test]
fn difficulty_routing_skips_main_exits_and_settles_easy_locally() {
    // Algorithm-2 short-circuits: predicted-hard requests pre-commit
    // to the cloud WITHOUT running the main exit (the saved forwards
    // are counted), predicted-easy requests refuse the offload leg
    // entirely, and ambiguous requests take the unchanged route.
    let bundle = presets::tiny(155);
    let mut calibration = tiny_net(64);
    let predictor = DifficultyPredictor::calibrate(&mut calibration, &bundle.train.images, 8);
    let reqs = instant_requests(&bundle.test, 2);
    let verdicts: Vec<Difficulty> = reqs.iter().map(|r| predictor.predict(&r.image)).collect();
    let hard = verdicts.iter().filter(|&&d| d == Difficulty::Hard).count();
    let easy = verdicts.iter().filter(|&&d| d == Difficulty::Easy).count();
    assert!(hard > 0 && easy > 0, "calibration must spread the trace across bands: {verdicts:?}");

    let run = |difficulty: Option<DifficultyPredictor>| {
        let edges = edge_replicas(2, 64);
        let clouds = replicas(1, || tiny_cloud(65));
        let mut cfg = config(OffloadPolicy::EntropyThreshold(0.8), 2, 1, 4);
        if let Some(difficulty) = difficulty {
            cfg = cfg.difficulty(difficulty);
        }
        serve(cfg, edges, clouds, &reqs).expect("serves")
    };
    let plain = run(None);
    let routed = run(Some(predictor.clone()));

    assert_eq!(plain.stats.skipped_main_exits, 0, "no predictor, no skips");
    assert_eq!(routed.stats.total, plain.stats.total, "routing must not drop requests");
    // Every predicted-hard request skipped its main-exit forward …
    assert_eq!(routed.stats.skipped_main_exits, hard);
    // … and is recognisable in the records by the sentinel.
    let precommitted = routed.records.iter().filter(|r| r.main_prediction == PendingCloud::PRECOMMITTED).count();
    assert_eq!(precommitted, hard);
    for (verdict, record) in verdicts.iter().zip(&routed.records) {
        match verdict {
            Difficulty::Hard => assert_eq!(record.exit, ExitPoint::Cloud, "hard pre-commits to the cloud"),
            Difficulty::Easy => assert_ne!(record.exit, ExitPoint::Cloud, "easy settles on the edge"),
            Difficulty::Ambiguous => {}
        }
    }
}

#[test]
fn difficulty_respects_an_edge_only_policy() {
    // `wants_precommit` defers to the policy: with no cloud at all a
    // predicted-hard request must still run the normal local route
    // (there is nowhere to pre-commit to).
    let bundle = presets::tiny(156);
    let mut calibration = tiny_net(66);
    let predictor = DifficultyPredictor::calibrate(&mut calibration, &bundle.train.images, 8);
    let edges = edge_replicas(1, 66);
    let cfg = config(OffloadPolicy::Never, 1, 0, 1).difficulty(predictor);
    let report = serve(cfg, edges, Vec::new(), &instant_requests(&bundle.test, 1)).expect("serves");
    assert_eq!(report.stats.offloaded, 0);
    assert_eq!(report.stats.skipped_main_exits, 0, "edge-only serving never pre-commits");
    assert_eq!(report.stats.total, bundle.test.len());
    assert!(report.records.iter().all(|r| r.exit != ExitPoint::Cloud));
}

#[test]
fn coop_fleet_plans_multi_stage_placements_and_keeps_records() {
    // Cooperative edge splitting end to end: a Low-tier class pooled
    // into a 3-member coop group over a fast intra-edge wire plans a
    // multi-stage placement the solo class does not, the placement
    // matches the offline placement planner exactly, and the records are
    // identical with and without the pool (the plan is a cost knob).
    let bundle = presets::tiny(191);
    let base = DeviceProfile::new("edge", 10.0, 5e8);
    let coop_link = NetworkLink::wifi(400.0).with_rtt(0.0005);
    let spec_with = |coop: bool| {
        let mut dc = DeviceClass::new("low", base.clone(), ComputeTier::Low);
        if coop {
            dc = dc.coop_group(3, coop_link);
        }
        FleetSpec::uniform(dc)
    };
    let eff = spec_with(false).classes()[0].effective_profile();
    let pool = spec_with(true).peer_pools()[0].clone().expect("coop group pools");
    // Find a WAN rate where the pool actually changes the plan (the
    // pooled peers absorb deep prefix layers the solo class cannot).
    let rate = (0..60)
        .map(|i| 0.05 * 1.3f64.powi(i))
        .find(|&r| {
            let planner = planner_like_serve(93, NetworkLink::wifi(r).with_rtt(0.001), &eff, 2);
            let coop = planner.plan_placement_for_measured(&eff, None, None, Some(&pool));
            coop.plan.peer_stage().is_some()
        })
        .expect("some WAN rate makes the pool worthwhile");
    let link = NetworkLink::wifi(rate).with_rtt(0.001);
    let offline = planner_like_serve(93, link, &eff, 2);
    let expected_coop = offline.plan_placement_for_measured(&eff, None, None, Some(&pool));
    let expected_solo = offline.plan_placement_for_measured(&eff, None, None, None);

    let run = |coop: bool| {
        let edges = split_replicas(2, 92, 93);
        let clouds = replicas(1, || tiny_cloud(93));
        let cfg =
            config(OffloadPolicy::Always, 2, 1, 8).control(planned(Vec::new())).link(link).fleet(spec_with(coop));
        serve(cfg, edges, clouds, &instant_requests(&bundle.test, 2)).expect("serves")
    };
    let coop = run(true);
    let solo = run(false);
    assert_eq!(coop.records, solo.records, "the pool changed records");
    assert_eq!(coop.stats.placements, Some(vec![expected_coop.plan.clone()]));
    assert_eq!(solo.stats.placements, Some(vec![expected_solo.plan.clone()]));
    assert!(coop.stats.placements.as_ref().unwrap()[0].peer_stage().is_some());
    assert_eq!(coop.stats.final_cuts, Some(vec![expected_coop.plan.final_cut()]));
    // Every offload paid the peer hop; the solo run never did.
    assert_eq!(coop.stats.peer_hops, coop.stats.offloaded as u64);
    assert!(coop.stats.peer_bytes > 0);
    assert_eq!(solo.stats.peer_hops, 0);
}
