//! Fast cross-crate smoke test: the whole workspace wired together in one
//! scenario — build a tiny MobileNetV2, take one training step, then run a
//! partitioned edge-cloud inference through the real payload codec and
//! check it agrees with the monolithic forward. Runs in well under a
//! second; meant as the first thing to break when crate wiring regresses.

use mea_data::ClassDict;
use mea_edgecloud::{
    best_cut, profile_network, sweep_cuts, DeviceProfile, NetworkLink, Objective, PartitionEnv, Payload,
};
use mea_nn::layer::{zero_grads, Mode};
use mea_nn::models::mobilenet_v2_lite;
use mea_nn::{CrossEntropyLoss, Layer, Sgd};
use mea_tensor::{Rng, Tensor};
use meanet::model::{AdaptivePlan, MeaNet, Merge, Variant};

#[test]
fn workspace_smoke() {
    let mut rng = Rng::new(0xC0FFEE);
    let classes = 4;
    let mut net = mobilenet_v2_lite(classes, &mut rng);

    let n = 8;
    let hw = 12;
    let x = Tensor::randn([n, 3, hw, hw], 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();

    // One full training step: forward, loss, backward, SGD update.
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    for seg in &mut net.segments {
        zero_grads(seg);
    }
    zero_grads(&mut net.head);
    let logits = net.forward(&x, Mode::Train);
    assert_eq!(logits.dims(), &[n, classes]);
    let out = loss_fn.forward(&logits, &labels);
    assert!(out.loss.is_finite() && out.loss > 0.0, "train loss {}", out.loss);
    net.backward(&out.grad);
    opt.step_with(&mut |f| net.visit_params(f));
    net.clear_caches();

    // The updated model still produces finite loss on the same batch.
    let post = loss_fn.forward(&net.forward(&x, Mode::Eval), &labels);
    assert!(post.loss.is_finite(), "post-step loss {}", post.loss);

    // Partitioned inference: run the first half of the segments as the
    // "edge", ship the features through the real wire codec, finish on the
    // "cloud", and require agreement with the monolithic forward (the f32
    // feature codec is lossless, so only op determinism is at stake).
    let full = net.forward(&x, Mode::Eval);
    let cut = net.segments.len() / 2;
    assert!(cut > 0, "tiny MobileNet should have multiple segments");
    let mut edge_out = x.clone();
    for seg in &mut net.segments[..cut] {
        edge_out = seg.forward(&edge_out, Mode::Eval);
    }
    let wire = Payload::Features { features: edge_out }.encode();
    assert!(!wire.is_empty(), "encoded payload is empty");
    let received = Payload::decode(wire).expect("a self-encoded payload decodes");
    let mut cloud_out = received.into_tensor();
    for seg in &mut net.segments[cut..] {
        cloud_out = seg.forward(&cloud_out, Mode::Eval);
    }
    let split_logits = net.head.forward(&cloud_out, Mode::Eval);
    assert_eq!(split_logits.dims(), full.dims());
    for (a, b) in split_logits.as_slice().iter().zip(full.as_slice()) {
        assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "split {a} vs monolithic {b}");
    }

    // The partitioner scores every cut of this exact network with finite,
    // non-negative costs, and best_cut is no worse than either endpoint.
    let profiles = profile_network(&net);
    let env = PartitionEnv {
        edge: DeviceProfile::new("edge", 10.0, 1e9),
        cloud: DeviceProfile::new("cloud", 200.0, 1e11),
        link: NetworkLink::wifi(8.0).with_rtt(0.005),
        bytes_per_elem: 4,
        raw_input_bytes: (3 * hw * hw) as u64,
        response_bytes: 8,
    };
    let costs = sweep_cuts(&profiles, &env);
    assert_eq!(costs.len(), profiles.len() + 1);
    assert!(costs.iter().all(|c| c.latency_s.is_finite() && c.latency_s >= 0.0));
    let best = best_cut(&profiles, &env, Objective::Latency);
    assert!(best.latency_s <= costs[0].latency_s + 1e-12, "best worse than cloud-only");
    assert!(best.latency_s <= costs.last().unwrap().latency_s + 1e-12, "best worse than edge-only");

    // MEANet assembly through the adaptive-plan API: the same tiny
    // MobileNet becomes a model-B main block, edge blocks attach under the
    // default depthwise-separable plan, and the edge path produces
    // hard-class logits. The dense mirror must cost strictly more.
    let assemble = |plan: AdaptivePlan| {
        let mut rng = Rng::new(0xBEEF);
        let backbone = mobilenet_v2_lite(classes, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(plan, ClassDict::new(&[0, 2]), &mut rng);
        net
    };
    let mut net = assemble(AdaptivePlan::default());
    assert_eq!(net.adaptive_plan(), Some(AdaptivePlan::DepthwiseSeparable), "default plan is separable");
    let probe = Tensor::randn([2, 3, 24, 24], 1.0, &mut Rng::new(5));
    let features = net.main_features(&probe, Mode::Eval);
    let y2 = net.extension_logits(&probe, &features, Mode::Eval);
    assert_eq!(y2.dims(), &[2, 2], "edge path predicts over the two hard classes");
    let dense = assemble(AdaptivePlan::DenseMirror);
    assert!(
        net.trained_params() < dense.trained_params(),
        "separable edge blocks ({}) must be lighter than the dense mirror ({})",
        net.trained_params(),
        dense.trained_params()
    );
}
