//! Algorithm 2: inference in the edge-cloud system.
//!
//! Every instance passes through the main block. High-entropy (complex)
//! instances go to the cloud when one is attached; otherwise, instances
//! predicted as hard classes take the adaptive + extension path and the
//! more confident of the two exits wins; everything else exits at the main
//! block.

use crate::model::MeaNet;
use crate::policy::OffloadPolicy;
use crate::routing::{PendingCloud, RoutingEngine, SweepPayload};
use mea_data::Dataset;
use mea_nn::layer::Mode;
use mea_nn::models::SegmentedCnn;
use mea_tensor::ops;
use serde::{Deserialize, Serialize};

/// Where an instance's final prediction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExitPoint {
    /// Early exit at the main block (easy class, confident).
    Main,
    /// Exit at the extension block (detected hard class).
    Extension,
    /// Offloaded to the cloud DNN (complex instance).
    Cloud,
}

/// Inference-time policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Entropy threshold above which an instance is "complex" and goes to
    /// the cloud. The paper picks it from `(µ_correct, µ_wrong)`.
    pub entropy_threshold: f32,
    /// Whether a cloud is reachable at all (edge-only mode when `false`).
    pub cloud_enabled: bool,
    /// Mini-batch size of the evaluation sweep.
    pub batch_size: usize,
}

impl InferenceConfig {
    /// Edge-only inference (no cloud, regardless of entropy).
    pub fn edge_only(batch_size: usize) -> Self {
        InferenceConfig { entropy_threshold: f32::INFINITY, cloud_enabled: false, batch_size }
    }

    /// Edge-cloud inference with the given threshold.
    pub(crate) fn with_cloud(threshold: f32, batch_size: usize) -> Self {
        InferenceConfig { entropy_threshold: threshold, cloud_enabled: true, batch_size }
    }
}

/// The outcome of Algorithm 2 for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// True class.
    pub truth: usize,
    /// Final prediction (original label space).
    pub prediction: usize,
    /// Exit that produced the final prediction.
    pub exit: ExitPoint,
    /// Prediction entropy at the main exit.
    pub entropy: f32,
    /// The main exit's own prediction.
    pub main_prediction: usize,
    /// Whether `IsHard(main_prediction)` fired.
    pub detected_hard: bool,
    /// Whether the final prediction is correct.
    pub correct: bool,
}

/// Runs Algorithm 2 over a dataset, returning one record per instance.
///
/// `cloud` is consulted only when `cfg.cloud_enabled` and the main-exit
/// entropy exceeds the threshold; it receives the raw images (the paper's
/// chosen collaboration mode, §III-C).
///
/// # Panics
///
/// Panics if edge blocks are not attached, or if `cfg.cloud_enabled` is set
/// without a cloud model.
pub fn run_inference(
    net: &mut MeaNet,
    cloud: Option<&mut SegmentedCnn>,
    data: &Dataset,
    cfg: &InferenceConfig,
) -> Vec<InstanceRecord> {
    let policy = if cfg.cloud_enabled {
        OffloadPolicy::EntropyThreshold(cfg.entropy_threshold)
    } else {
        OffloadPolicy::Never
    };
    run_inference_with_policy(net, cloud, data, policy, cfg.batch_size)
}

/// Algorithm 2 with a pluggable offload rule (see [`OffloadPolicy`]);
/// [`run_inference`] is the paper's entropy-threshold special case.
///
/// All routing decisions and both local legs go through the shared
/// [`RoutingEngine`], so this offline sweep and the online serving
/// runtime (`mea_edgecloud::serve`) provably agree instance by instance.
///
/// # Panics
///
/// Panics if edge blocks are not attached, or if the policy can offload
/// but no cloud model is given.
pub fn run_inference_with_policy(
    net: &mut MeaNet,
    cloud: Option<&mut SegmentedCnn>,
    data: &Dataset,
    policy: OffloadPolicy,
    batch_size: usize,
) -> Vec<InstanceRecord> {
    run_inference_with_payload(net, cloud, data, policy, batch_size, SweepPayload::Pixels).0
}

/// Byte accounting of one offline sweep — the measured side of Table I's
/// communication column (what the closed-form `mea_edgecloud::cost` model
/// only estimates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SweepStats {
    /// Instances routed to the cloud.
    pub offloaded: usize,
    /// Bytes that crossed the edge→cloud wire, under the payload mode's
    /// accounting (see [`SweepPayload`]).
    pub upload_bytes: u64,
    /// The cut layer offloads resumed at (0 = cloud computed from the
    /// payload's input tensor).
    pub cut: usize,
}

/// [`run_inference_with_policy`] with a configurable offload payload: the
/// feature-payload modes run the cloud network's prefix on the edge side
/// and resume at the cut, exactly like `mea_edgecloud::serve`'s
/// feature-payload `ControlPlan`s — same routing, same split execution,
/// same int8 wire — so the sequential sweep measures Table I's "sending
/// features" row end-to-end and is provably record-identical to
/// feature-payload serving at the same cut.
///
/// # Panics
///
/// Panics if edge blocks are not attached, if the policy can offload but
/// no cloud model is given, or if a feature cut is out of range.
pub fn run_inference_with_payload(
    net: &mut MeaNet,
    mut cloud: Option<&mut SegmentedCnn>,
    data: &Dataset,
    policy: OffloadPolicy,
    batch_size: usize,
    payload: SweepPayload,
) -> (Vec<InstanceRecord>, SweepStats) {
    assert!(net.hard_dict().is_some(), "attach edge blocks before inference");
    let engine = RoutingEngine::new(policy, cloud.is_some());
    let mut records = Vec::with_capacity(data.len());
    let mut stats = SweepStats { cut: payload.cut(), ..SweepStats::default() };
    for (images, labels) in data.batches(batch_size) {
        let n = labels.len();
        let main = RoutingEngine::evaluate_main(net, &images);
        let plan = engine.plan(net, &main);
        let to_cloud = plan.cloud_indices();
        let to_extension = plan.extension_indices();

        // Cloud route: the payload (pixels or cut-layer activations) to
        // the deeper network, one batched forward over the gathered
        // sub-batch (what the serving runtime's dynamic batcher does with
        // a coalesced queue).
        let mut cloud_preds = Vec::new();
        if !to_cloud.is_empty() {
            let cloud_net = cloud.as_deref_mut().expect("cloud model present");
            let sub = images.gather_axis0(&to_cloud);
            let (preds, bytes) = RoutingEngine::classify_cloud_payload(cloud_net, &sub, payload);
            cloud_preds = preds;
            stats.offloaded += to_cloud.len();
            stats.upload_bytes += bytes;
        }

        // Extension route: adaptive + extension on the sub-batch, then
        // confidence arbitration against the main exit.
        let ext_preds = RoutingEngine::finish_extension(net, &images, &main, &to_extension);

        // Assemble records in batch order.
        let mut final_preds: Vec<usize> = main.preds.clone();
        for (k, &i) in to_cloud.iter().enumerate() {
            final_preds[i] = cloud_preds[k];
        }
        for (k, &i) in to_extension.iter().enumerate() {
            final_preds[i] = ext_preds[k];
        }
        for i in 0..n {
            records.push(match plan.routes[i] {
                ExitPoint::Cloud => PendingCloud::from_main(net, &main, i, labels[i]).complete(final_preds[i]),
                exit => RoutingEngine::local_record(net, &main, i, exit, final_preds[i], labels[i]),
            });
        }
    }
    (records, stats)
}

/// Runs plain cloud-only inference (every instance classified by the cloud
/// network) — the "cloud only" bar of Figs. 7–8.
pub fn run_cloud_only(cloud: &mut SegmentedCnn, data: &Dataset, batch_size: usize) -> Vec<InstanceRecord> {
    let mut records = Vec::with_capacity(data.len());
    for (images, labels) in data.batches(batch_size) {
        let logits = cloud.forward(&images, Mode::Eval);
        let probs = ops::softmax_rows(&logits);
        let entropies = ops::entropy_rows(&probs);
        let preds = probs.argmax_rows();
        for (i, &t) in labels.iter().enumerate() {
            records.push(InstanceRecord {
                truth: t,
                prediction: preds[i],
                exit: ExitPoint::Cloud,
                entropy: entropies[i],
                main_prediction: preds[i],
                detected_hard: false,
                correct: preds[i] == t,
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePlan, Merge, Variant};
    use mea_data::{presets, ClassDict};
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};
    use mea_tensor::Rng;

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

    #[test]
    fn edge_only_never_reaches_cloud() {
        let mut net = tiny_net(0);
        let bundle = presets::tiny(5);
        let records = run_inference(&mut net, None, &bundle.test, &InferenceConfig::edge_only(8));
        assert_eq!(records.len(), bundle.test.len());
        assert!(records.iter().all(|r| r.exit != ExitPoint::Cloud));
        // Routing invariant: hard-detected instances take the extension path,
        // everything else exits at the main block. (An untrained net may
        // collapse onto one route, so we don't demand both occur.)
        for r in &records {
            let expected =
                if [0, 2, 4].contains(&r.main_prediction) { ExitPoint::Extension } else { ExitPoint::Main };
            assert_eq!(r.exit, expected);
        }
    }

    #[test]
    fn zero_threshold_sends_everything_to_cloud() {
        let mut net = tiny_net(1);
        let mut cloud = tiny_cloud(2);
        let bundle = presets::tiny(6);
        let records =
            run_inference(&mut net, Some(&mut cloud), &bundle.test, &InferenceConfig::with_cloud(-1.0, 8));
        assert!(records.iter().all(|r| r.exit == ExitPoint::Cloud));
    }

    #[test]
    fn threshold_monotonically_reduces_cloud_traffic() {
        let mut net = tiny_net(3);
        let mut cloud = tiny_cloud(4);
        let bundle = presets::tiny(7);
        let mut last = usize::MAX;
        for thr in [0.0f32, 0.5, 1.0, 2.0] {
            let records =
                run_inference(&mut net, Some(&mut cloud), &bundle.test, &InferenceConfig::with_cloud(thr, 8));
            let cloud_count = records.iter().filter(|r| r.exit == ExitPoint::Cloud).count();
            assert!(cloud_count <= last, "cloud traffic must shrink with threshold");
            last = cloud_count;
        }
    }

    #[test]
    fn detection_flag_matches_dict() {
        let mut net = tiny_net(5);
        let bundle = presets::tiny(8);
        let records = run_inference(&mut net, None, &bundle.test, &InferenceConfig::edge_only(8));
        for r in &records {
            assert_eq!(r.detected_hard, [0, 2, 4].contains(&r.main_prediction));
            // Hard-detected instances exit at the extension, others at main.
            match r.exit {
                ExitPoint::Extension => assert!(r.detected_hard),
                ExitPoint::Main => assert!(!r.detected_hard),
                ExitPoint::Cloud => unreachable!("edge-only run"),
            }
        }
    }

    #[test]
    fn extension_prediction_is_always_a_hard_class() {
        let mut net = tiny_net(6);
        let bundle = presets::tiny(9);
        let records = run_inference(&mut net, None, &bundle.test, &InferenceConfig::edge_only(8));
        for r in records.iter().filter(|r| r.exit == ExitPoint::Extension) {
            // Final prediction either confirms the main exit or is a remapped
            // hard class — in both cases a valid original label.
            assert!(r.prediction < 6);
        }
    }

    #[test]
    #[should_panic(expected = "requires a cloud model")]
    fn cloud_flag_without_model_panics() {
        let mut net = tiny_net(8);
        let bundle = presets::tiny(10);
        let _ = run_inference(&mut net, None, &bundle.test, &InferenceConfig::with_cloud(0.5, 8));
    }

    #[test]
    fn policy_always_is_cloud_only() {
        let mut net = tiny_net(9);
        let mut cloud = tiny_cloud(10);
        let bundle = presets::tiny(11);
        let records =
            run_inference_with_policy(&mut net, Some(&mut cloud), &bundle.test, OffloadPolicy::Always, 8);
        assert!(records.iter().all(|r| r.exit == ExitPoint::Cloud));
    }

    #[test]
    fn policy_never_matches_edge_only_config() {
        let mut net_a = tiny_net(12);
        let mut net_b = tiny_net(12);
        let bundle = presets::tiny(13);
        let a = run_inference(&mut net_a, None, &bundle.test, &InferenceConfig::edge_only(8));
        let b = run_inference_with_policy(&mut net_b, None, &bundle.test, OffloadPolicy::Never, 8);
        assert_eq!(a, b, "Never policy must reproduce the edge-only configuration exactly");
    }

    #[test]
    fn budgeted_policy_offloads_roughly_beta() {
        let mut net = tiny_net(14);
        let mut cloud = tiny_cloud(15);
        let bundle = presets::tiny(16);
        // Calibrate on the test set itself: the achieved fraction must then
        // match the budget up to quantile granularity.
        let probe = run_inference(&mut net, None, &bundle.test, &InferenceConfig::edge_only(8));
        let entropies: Vec<f32> = probe.iter().map(|r| r.entropy).collect();
        let beta = 0.25;
        let policy = OffloadPolicy::budgeted_from_validation(&entropies, beta);
        let records = run_inference_with_policy(&mut net, Some(&mut cloud), &bundle.test, policy, 8);
        let frac = records.iter().filter(|r| r.exit == ExitPoint::Cloud).count() as f64 / records.len() as f64;
        assert!(
            (frac - beta).abs() <= 2.0 / records.len() as f64 + 0.05,
            "budget {beta} missed: offloaded {frac}"
        );
    }

    #[test]
    fn feature_payload_sweep_matches_pixel_sweep_at_every_cut() {
        // The offline "sending features" row must be the same system as
        // the pixel sweep: the lossless f32 wire at any cut changes bytes
        // and compute placement, never a record.
        let bundle = presets::tiny(20);
        let policy = OffloadPolicy::EntropyThreshold(0.5);
        let mut net = tiny_net(20);
        let mut cloud = tiny_cloud(21);
        let (expected, pixel_stats) =
            run_inference_with_payload(&mut net, Some(&mut cloud), &bundle.test, policy, 8, SweepPayload::Pixels);
        assert!(pixel_stats.offloaded > 0, "threshold routed nothing to the cloud; test is too weak");
        assert_eq!(pixel_stats.cut, 0);
        // Pixels: the paper's 1 byte per input sample.
        assert_eq!(pixel_stats.upload_bytes, (pixel_stats.offloaded * 3 * 8 * 8) as u64);

        let layers = tiny_cloud(21).cut_layer_count();
        for cut in [0, 1, layers / 2, layers - 1] {
            let mut net = tiny_net(20);
            let mut cloud = tiny_cloud(21);
            let (records, stats) = run_inference_with_payload(
                &mut net,
                Some(&mut cloud),
                &bundle.test,
                policy,
                8,
                SweepPayload::Features { cut },
            );
            assert_eq!(records, expected, "cut {cut} changed records");
            assert_eq!(stats.offloaded, pixel_stats.offloaded);
            assert_eq!(stats.cut, cut);
            assert!(stats.upload_bytes > 0);
        }
    }

    #[test]
    fn quantized_feature_sweep_serves_everything_and_mostly_agrees() {
        let bundle = presets::tiny(22);
        let mut net = tiny_net(23);
        let mut cloud = tiny_cloud(24);
        let cut = tiny_cloud(24).cut_layer_count() - 1;
        let (lossless, f32_stats) = run_inference_with_payload(
            &mut net,
            Some(&mut cloud),
            &bundle.test,
            OffloadPolicy::Always,
            8,
            SweepPayload::Features { cut },
        );
        let mut net = tiny_net(23);
        let mut cloud = tiny_cloud(24);
        let (quant, q_stats) = run_inference_with_payload(
            &mut net,
            Some(&mut cloud),
            &bundle.test,
            OffloadPolicy::Always,
            8,
            SweepPayload::QuantFeatures { cut },
        );
        assert_eq!(quant.len(), lossless.len());
        assert!(quant.iter().all(|r| r.exit == ExitPoint::Cloud));
        // Edge-side fields are computed before quantization: identical.
        for (q, l) in quant.iter().zip(&lossless) {
            assert_eq!(q.entropy, l.entropy);
            assert_eq!(q.main_prediction, l.main_prediction);
        }
        // The int8 frame (1 byte/element + small header) undercuts f32.
        assert!(q_stats.upload_bytes * 3 < f32_stats.upload_bytes);
        let n = lossless.len();
        let agree = quant.iter().zip(&lossless).filter(|(q, l)| q.prediction == l.prediction).count();
        assert!(agree * 4 >= n * 3, "int8 wire flipped too many predictions: {agree}/{n}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sweep_cut_out_of_range_rejected() {
        let bundle = presets::tiny(25);
        let mut net = tiny_net(26);
        let mut cloud = tiny_cloud(27);
        let cut = tiny_cloud(27).cut_layer_count();
        let _ = run_inference_with_payload(
            &mut net,
            Some(&mut cloud),
            &bundle.test,
            OffloadPolicy::Always,
            8,
            SweepPayload::Features { cut },
        );
    }

    #[test]
    fn margin_policy_offloads_low_margin_instances_only() {
        let mut net = tiny_net(17);
        let mut cloud = tiny_cloud(18);
        let bundle = presets::tiny(19);
        let records = run_inference_with_policy(
            &mut net,
            Some(&mut cloud),
            &bundle.test,
            OffloadPolicy::ConfidenceMargin(0.1),
            8,
        );
        // Low-entropy (confident) instances must not have been offloaded:
        // near-zero entropy implies a dominant top-1, hence a large margin.
        for r in records.iter().filter(|r| r.entropy < 0.05) {
            assert_ne!(r.exit, ExitPoint::Cloud, "confident instance was offloaded: {r:?}");
        }
    }
}
