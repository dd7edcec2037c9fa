//! The threaded edge→cloud pipeline must agree with local inference: the
//! payload codec and channel plumbing may not change predictions (for
//! lossless feature payloads) and must account every byte.

use mea_data::presets;
use mea_edgecloud::payload::Payload;
use mea_edgecloud::serve::run_payload_pipeline;
use mea_edgecloud::transport::TransportKind;
use mea_nn::layer::Mode;
use mea_nn::models::{resnet_cifar, CifarResNetConfig};
use mea_tensor::Rng;
use meanet::train::{train_backbone, TrainConfig};
use parking_lot::Mutex;
use std::time::Duration;

#[test]
fn threaded_cloud_matches_local_predictions_for_feature_payloads() {
    let bundle = presets::tiny(55);
    let mut rng = Rng::new(55);
    let mut arch = CifarResNetConfig::repro_scale(6);
    arch.input_hw = 8;
    let mut cloud = resnet_cifar(&arch, &mut rng);
    let _ = train_backbone(&mut cloud, &bundle.train, &TrainConfig::repro(4));

    // Local predictions.
    let mut local = Vec::new();
    for i in 0..bundle.test.len().min(12) {
        let img = bundle.test.images.slice_axis0(i, i + 1);
        local.push(cloud.forward(&img, Mode::Eval).argmax_rows()[0]);
    }

    // Remote predictions via the threaded pipeline with lossless f32
    // feature payloads (raw-image payloads quantise to 8 bits).
    let payloads: Vec<Payload> = (0..local.len())
        .map(|i| Payload::Features { features: bundle.test.images.slice_axis0(i, i + 1) })
        .collect();
    let expected_bytes: u64 = payloads.iter().map(|p| p.wire_size_bytes()).sum();
    let cloud = Mutex::new(cloud);
    let (remote, stats) = run_payload_pipeline(&TransportKind::Modelled, payloads, 1, 1, Duration::ZERO, 4, |p| {
        cloud.lock().forward(&p.as_tensor(), Mode::Eval).argmax_rows()[0]
    });

    assert_eq!(remote, local, "wire transfer changed predictions");
    assert_eq!(stats.bytes_sent, expected_bytes, "byte accounting mismatch");
    assert_eq!(stats.payloads as usize, local.len());
}

#[test]
fn raw_payload_quantisation_rarely_flips_predictions() {
    let bundle = presets::tiny(56);
    let mut rng = Rng::new(56);
    let mut arch = CifarResNetConfig::repro_scale(6);
    arch.input_hw = 8;
    let mut cloud = resnet_cifar(&arch, &mut rng);
    let _ = train_backbone(&mut cloud, &bundle.train, &TrainConfig::repro(4));

    let n = bundle.test.len().min(16);
    let mut local = Vec::new();
    for i in 0..n {
        let img = bundle.test.images.slice_axis0(i, i + 1);
        local.push(cloud.forward(&img, Mode::Eval).argmax_rows()[0]);
    }
    let payloads: Vec<Payload> =
        (0..n).map(|i| Payload::RawImage { image: bundle.test.images.slice_axis0(i, i + 1) }).collect();
    let cloud = Mutex::new(cloud);
    let (remote, _) = run_payload_pipeline(&TransportKind::Modelled, payloads, 1, 1, Duration::ZERO, 4, |p| {
        cloud.lock().forward(&p.as_tensor(), Mode::Eval).argmax_rows()[0]
    });
    let agree = remote.iter().zip(&local).filter(|(a, b)| a == b).count();
    assert!(agree * 4 >= n * 3, "8-bit quantisation flipped too many predictions: {agree}/{n}");
}
