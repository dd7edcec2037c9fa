//! The serving runtime and the offline sweep must be the same system:
//! for any worker/batch configuration — and for any control plan with a
//! lossless wire — `edgecloud::serve` over a trained MEANet must produce
//! exactly the `InstanceRecord`s that sequential `run_inference` produces
//! on the same dataset and policy. Dynamic batching, worker scheduling,
//! the wire format and the partition cut may not change a single
//! prediction, entropy or exit.

use mea_edgecloud::serve::{trace_requests, ControlPlan, EdgeReplica, FeatureWire, Fleet, ServeConfig};
use mea_edgecloud::traces::ArrivalModel;
use mea_nn::models::SegmentedCnn;
use mea_nn::StateDict;
use mea_tensor::Rng;
use meanet::infer::{run_inference_with_payload, run_inference_with_policy};
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::{MeaNet, OffloadPolicy, SweepPayload};

/// Trains a tiny model-B system and returns builders for bitwise replicas
/// of the edge net and the cloud net.
fn trained_system() -> (Pipeline, PipelineConfig, mea_data::synth::DatasetBundle) {
    let bundle = mea_data::presets::tiny(77);
    let mut cfg = PipelineConfig::repro_resnet_b(6, 3, 7);
    if let BackboneChoice::CifarResNet(ref mut c) = cfg.backbone {
        c.input_hw = 8;
    }
    if let Some(BackboneChoice::CifarResNet(ref mut c)) = cfg.cloud {
        c.input_hw = 8;
    }
    let pipe = Pipeline::run(&cfg, &bundle.train);
    (pipe, cfg, bundle)
}

/// Builds `count` bitwise replicas of the pipeline's trained MEANet by
/// assembling fresh same-architecture nets and copying the state over.
fn edge_replicas(pipe: &mut Pipeline, cfg: &PipelineConfig, count: usize) -> Vec<MeaNet> {
    let dict = pipe.net.hard_dict().expect("trained pipeline").clone();
    (0..count)
        .map(|i| {
            let mut rng = Rng::new(1000 + i as u64);
            let backbone = cfg.backbone.build(&mut rng);
            let mut replica = MeaNet::from_backbone(backbone, cfg.variant, cfg.merge, &mut rng);
            replica.attach_edge_blocks(cfg.adaptive, dict.clone(), &mut rng);
            pipe.net.replicate_into(&mut replica);
            replica
        })
        .collect()
}

/// Image-payload serving replicas (no cloud prefix).
fn serving_replicas(pipe: &mut Pipeline, cfg: &PipelineConfig, count: usize) -> Vec<EdgeReplica> {
    edge_replicas(pipe, cfg, count).into_iter().map(EdgeReplica::new).collect()
}

/// Feature-payload serving replicas: each edge additionally carries a
/// bitwise replica of the trained cloud network for prefix execution.
fn split_serving_replicas(pipe: &mut Pipeline, cfg: &PipelineConfig, count: usize) -> Vec<EdgeReplica> {
    let nets = edge_replicas(pipe, cfg, count);
    let prefixes = cloud_replicas(pipe, cfg, count);
    nets.into_iter().zip(prefixes).map(|(n, p)| EdgeReplica::with_cloud_prefix(n, p)).collect()
}

/// Builds `count` bitwise replicas of the trained cloud DNN.
fn cloud_replicas(pipe: &mut Pipeline, cfg: &PipelineConfig, count: usize) -> Vec<SegmentedCnn> {
    let cloud = pipe.cloud.as_mut().expect("pipeline has a cloud");
    let state = StateDict::from_cnn(cloud);
    let choice = cfg.cloud.as_ref().expect("cloud configured");
    (0..count)
        .map(|i| {
            let mut rng = Rng::new(2000 + i as u64);
            let mut replica = choice.build(&mut rng);
            state.apply_to_cnn(&mut replica).expect("identical cloud architecture");
            replica
        })
        .collect()
}

#[test]
fn serving_runtime_reproduces_sequential_inference_exactly() {
    let (mut pipe, cfg, bundle) = trained_system();
    // A mid-range threshold so all three exits actually occur.
    let mid = 0.5 * (pipe.entropy.mean_correct + pipe.entropy.mean_wrong) as f32;
    let policy = OffloadPolicy::EntropyThreshold(mid);

    let mut offline_net = edge_replicas(&mut pipe, &cfg, 1);
    let mut offline_cloud = cloud_replicas(&mut pipe, &cfg, 1);
    let expected =
        run_inference_with_policy(&mut offline_net[0], Some(&mut offline_cloud[0]), &bundle.test, policy, 16);
    let exits: std::collections::HashSet<_> = expected.iter().map(|r| r.exit).collect();
    assert!(exits.len() >= 2, "threshold {mid} exercised only {exits:?}; test is too weak");

    let mut rng = Rng::new(3);
    let requests = trace_requests(&bundle.test, 5, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
    for (e, c, b) in [(1usize, 1usize, 1usize), (2, 2, 1), (4, 1, 8), (3, 2, 4)] {
        let edges = serving_replicas(&mut pipe, &cfg, e);
        let clouds = cloud_replicas(&mut pipe, &cfg, c);
        let serve_cfg = ServeConfig::builder(policy)
            .edge_workers(e)
            .cloud_workers(c)
            .max_batch(b)
            .build()
            .expect("valid configuration");
        let report = Fleet::new(serve_cfg, edges, clouds)
            .expect("replicas match the configuration")
            .serve(&requests)
            .expect("a well-formed trace");
        assert_eq!(
            report.records, expected,
            "serve(edge={e}, cloud={c}, max_batch={b}) diverged from the offline sweep"
        );
        assert_eq!(report.stats.offloaded, expected.iter().filter(|r| r.exit == meanet::ExitPoint::Cloud).count());
    }
}

#[test]
fn feature_payload_serving_is_the_same_system_at_every_cut() {
    // The three substrates — sequential `run_inference`, image-payload
    // serving, feature-payload serving at an arbitrary cut — must be one
    // system: identical records everywhere, while the cloud provably
    // recomputes less the deeper the cut.
    let (mut pipe, cfg, bundle) = trained_system();
    let mid = 0.5 * (pipe.entropy.mean_correct + pipe.entropy.mean_wrong) as f32;
    let policy = OffloadPolicy::EntropyThreshold(mid);

    let mut offline_net = edge_replicas(&mut pipe, &cfg, 1);
    let mut offline_cloud = cloud_replicas(&mut pipe, &cfg, 1);
    let expected =
        run_inference_with_policy(&mut offline_net[0], Some(&mut offline_cloud[0]), &bundle.test, policy, 16);
    assert!(
        expected.iter().any(|r| r.exit == meanet::ExitPoint::Cloud),
        "threshold routed nothing to the cloud; test is too weak"
    );

    let mut rng = Rng::new(5);
    let requests = trace_requests(&bundle.test, 4, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
    let layers = cloud_replicas(&mut pipe, &cfg, 1)[0].cut_layer_count();
    let mut saved_at: Vec<u64> = Vec::new();
    for (e, c, b, cut) in
        [(1usize, 1usize, 1usize, 0usize), (2, 2, 4, 1), (3, 1, 8, layers / 2), (2, 2, 2, layers - 1)]
    {
        let edges = split_serving_replicas(&mut pipe, &cfg, e);
        let clouds = cloud_replicas(&mut pipe, &cfg, c);
        let serve_cfg = ServeConfig::builder(policy)
            .edge_workers(e)
            .cloud_workers(c)
            .max_batch(b)
            .control(ControlPlan::Static { cut, wire: FeatureWire::F32, controller: None })
            .build()
            .expect("valid configuration");
        let report = Fleet::new(serve_cfg, edges, clouds)
            .expect("replicas match the configuration")
            .serve(&requests)
            .expect("a well-formed trace");
        assert_eq!(
            report.records, expected,
            "feature serve(edge={e}, cloud={c}, max_batch={b}, cut={cut}) diverged from the offline sweep"
        );
        saved_at.push(report.stats.cloud_macs_saved);
    }
    assert_eq!(saved_at[0], 0, "cut 0 ships pixels and saves nothing");
    assert!(saved_at.windows(2).all(|w| w[0] <= w[1]), "deeper cuts must save at least as much: {saved_at:?}");
    assert!(*saved_at.last().unwrap() > 0, "the deepest cut must spare the cloud real recompute");
}

#[test]
fn offline_feature_sweep_is_bitwise_identical_to_feature_serving() {
    // The acceptance bar for the offline "sending features" Table I row:
    // `run_inference_with_payload` in feature mode and feature-payload
    // *serving* at the same cut are one system — identical records on the
    // lossless f32 wire, and identical records *and* wire frames (modulo
    // the 1-byte payload tag) on the lossy int8 wire, because both paths
    // quantize each instance's activation on its own affine grid through
    // the same `mea_quant::wire` round trip.
    let (mut pipe, cfg, bundle) = trained_system();
    let mid = 0.5 * (pipe.entropy.mean_correct + pipe.entropy.mean_wrong) as f32;
    let policy = OffloadPolicy::EntropyThreshold(mid);

    let mut rng = Rng::new(11);
    let requests = trace_requests(&bundle.test, 3, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
    let layers = cloud_replicas(&mut pipe, &cfg, 1)[0].cut_layer_count();

    let serve_at = |pipe: &mut Pipeline, wire: FeatureWire, cut: usize| {
        let edges = split_serving_replicas(pipe, &cfg, 2);
        let clouds = cloud_replicas(pipe, &cfg, 2);
        let serve_cfg = ServeConfig::builder(policy)
            .edge_workers(2)
            .cloud_workers(2)
            .max_batch(4)
            .control(ControlPlan::Static { cut, wire, controller: None })
            .build()
            .expect("valid configuration");
        Fleet::new(serve_cfg, edges, clouds)
            .expect("replicas match the configuration")
            .serve(&requests)
            .expect("a well-formed trace")
    };

    // Lossless wire, several cuts: offline sweep == serving, bitwise.
    for cut in [1usize, layers / 2, layers - 1] {
        let mut net = edge_replicas(&mut pipe, &cfg, 1);
        let mut cloud = cloud_replicas(&mut pipe, &cfg, 1);
        let (offline, stats) = run_inference_with_payload(
            &mut net[0],
            Some(&mut cloud[0]),
            &bundle.test,
            policy,
            16,
            SweepPayload::Features { cut },
        );
        let report = serve_at(&mut pipe, FeatureWire::F32, cut);
        assert_eq!(report.records, offline, "offline f32 feature sweep diverged from serving at cut {cut}");
        assert_eq!(stats.offloaded, report.stats.offloaded);
        assert!(stats.offloaded > 0, "nothing offloaded; the equivalence is vacuous");
        assert_eq!(stats.cut, cut);
    }

    // Int8 wire at the deepest cut: the two lossy paths flip the *same*
    // borderline predictions, and the measured bytes line up exactly
    // (serving frames carry one extra payload-tag byte per offload).
    let cut = layers - 1;
    let mut net = edge_replicas(&mut pipe, &cfg, 1);
    let mut cloud = cloud_replicas(&mut pipe, &cfg, 1);
    let (offline_q, q_stats) = run_inference_with_payload(
        &mut net[0],
        Some(&mut cloud[0]),
        &bundle.test,
        policy,
        16,
        SweepPayload::QuantFeatures { cut },
    );
    let report = serve_at(&mut pipe, FeatureWire::Int8, cut);
    assert_eq!(report.records, offline_q, "offline int8 feature sweep diverged from int8 serving");
    assert_eq!(
        report.stats.bytes_to_cloud,
        q_stats.upload_bytes + q_stats.offloaded as u64,
        "serving's int8 wire must be the offline codec frame plus one tag byte per offload"
    );
}

#[test]
fn batched_cloud_forward_is_bitwise_stable_across_batch_caps() {
    // Same trained system, saturating all-offload traffic: whatever batch
    // sizes the dynamic batcher happens to form, the predictions must be
    // identical — batching is a throughput knob, never an accuracy knob.
    let (mut pipe, cfg, bundle) = trained_system();
    let mut rng = Rng::new(4);
    let requests = trace_requests(&bundle.test, 3, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut rng);
    let mut baseline = None;
    for max_batch in [1usize, 2, 8] {
        let edges = serving_replicas(&mut pipe, &cfg, 1);
        let clouds = cloud_replicas(&mut pipe, &cfg, 1);
        let serve_cfg = ServeConfig::builder(OffloadPolicy::Always)
            .edge_workers(1)
            .cloud_workers(1)
            .max_batch(max_batch)
            .max_wait(std::time::Duration::from_millis(1))
            .queue_depth(8)
            .build()
            .expect("valid configuration");
        let report = Fleet::new(serve_cfg, edges, clouds)
            .expect("replicas match the configuration")
            .serve(&requests)
            .expect("a well-formed trace");
        assert_eq!(report.stats.offloaded, report.stats.total);
        match &baseline {
            None => baseline = Some(report.records),
            Some(b) => assert_eq!(&report.records, b, "max_batch={max_batch} changed predictions"),
        }
    }
}
