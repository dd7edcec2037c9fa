//! The per-instance routing core of Algorithm 2, factored out of the
//! offline sweep so online serving paths can reuse it.
//!
//! [`crate::infer::run_inference_with_policy`] (the offline evaluation
//! sweep) and `mea_edgecloud`'s serving runtime both route instances the
//! same way: run the main block, consult the [`OffloadPolicy`], send
//! complex instances to the cloud, detected-hard instances through the
//! adaptive + extension path, and let everything else exit at the main
//! block. [`RoutingEngine`] owns that decision plus the two local
//! execution legs, and [`PendingCloud`] carries a half-finished record to
//! wherever the cloud prediction is eventually produced — in-process for
//! the sweep, on a cloud worker thread for the server. One routing core,
//! two substrates, provably identical records.

use crate::infer::{ExitPoint, InstanceRecord};
use crate::model::MeaNet;
use crate::policy::OffloadPolicy;
use mea_nn::layer::Mode;
use mea_nn::models::SegmentedCnn;
use mea_tensor::{ops, Tensor};
use serde::{Deserialize, Serialize};

/// What an offloaded instance carries across the edge→cloud wire in the
/// *offline* evaluation sweep — the measured counterpart of Table I's
/// strategy rows, mirroring the serving runtime's `ControlPlan` payloads
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SweepPayload {
    /// Raw pixels: the cloud recomputes its whole network from the input
    /// (the paper's chosen collaboration mode, §III-C). Accounted at the
    /// paper's 1 byte per sample (Table VII's `C·H·W`).
    #[default]
    Pixels,
    /// The cloud network's f32 activation at cut layer `cut`: the edge
    /// runs the prefix `[0, cut)`, the cloud resumes at `cut`
    /// ([`SegmentedCnn::forward_prefix`] / [`SegmentedCnn::forward_from`],
    /// bitwise identical to the monolithic forward). Accounted at 4 bytes
    /// per activation element — Table I's "sending features" row,
    /// measured instead of modelled.
    Features {
        /// Cloud-network cut layer (`0` degenerates to shipping the raw
        /// input tensor).
        cut: usize,
    },
    /// The activation at `cut`, int8 through the `mea_quant::wire` codec
    /// (per-instance affine grid, exactly the serving runtime's
    /// `Payload::QuantFeatures` wire). Accounted at the codec's real
    /// frame length.
    QuantFeatures {
        /// Cloud-network cut layer.
        cut: usize,
    },
}

impl SweepPayload {
    /// The cut layer the cloud resumes at (`0` for pixels).
    pub(crate) fn cut(&self) -> usize {
        match *self {
            SweepPayload::Pixels => 0,
            SweepPayload::Features { cut } | SweepPayload::QuantFeatures { cut } => cut,
        }
    }
}

/// Main-exit statistics for one batch of instances: everything the
/// routing decision and the downstream legs need from the main block.
#[derive(Debug)]
pub struct MainExit {
    /// Main-block feature maps `F` for the batch.
    pub features: Tensor,
    /// Softmax probabilities at the main exit.
    pub probs: Tensor,
    /// Prediction entropy per instance.
    pub entropies: Vec<f32>,
    /// Main-exit argmax prediction per instance.
    pub preds: Vec<usize>,
}

impl MainExit {
    /// Number of instances in the batch.
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }
}

/// Planned exit per instance of a batch, before the extension and cloud
/// legs have produced their predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// Planned exit per instance, in batch order.
    pub routes: Vec<ExitPoint>,
}

impl RoutePlan {
    /// Batch indices routed to the cloud, in batch order.
    pub(crate) fn cloud_indices(&self) -> Vec<usize> {
        self.indices_of(ExitPoint::Cloud)
    }

    /// Batch indices routed through the extension path, in batch order.
    pub(crate) fn extension_indices(&self) -> Vec<usize> {
        self.indices_of(ExitPoint::Extension)
    }

    fn indices_of(&self, exit: ExitPoint) -> Vec<usize> {
        self.routes.iter().enumerate().filter(|(_, &r)| r == exit).map(|(i, _)| i).collect()
    }
}

/// A routed instance whose prediction the cloud still owes: the partial
/// [`InstanceRecord`] travels with the offloaded payload and is completed
/// wherever the cloud forward runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingCloud {
    /// True class.
    pub truth: usize,
    /// Main-exit entropy.
    pub entropy: f32,
    /// The main exit's own prediction.
    pub main_prediction: usize,
    /// Whether `IsHard(main_prediction)` fired.
    pub detected_hard: bool,
    /// Cloud-network layer the forward resumes at: `0` means the payload
    /// is the input image (the cloud computes from pixels); `k > 0` means
    /// the edge already ran the cloud network's prefix `[0, k)` and the
    /// payload is the activation at the cut.
    pub resume_layer: usize,
}

impl PendingCloud {
    /// Sentinel `main_prediction` of a pre-committed offload: the main
    /// exit was never evaluated, so there is no prediction to carry.
    pub const PRECOMMITTED: usize = usize::MAX;

    /// A pre-committed offload: the difficulty predictor routed this
    /// instance to the cloud *without* evaluating the main exit, so the
    /// record carries sentinels instead of main-exit statistics —
    /// `entropy` is the predictor's entropy estimate,
    /// `main_prediction` is [`PendingCloud::PRECOMMITTED`], and
    /// `detected_hard` is `false` (the hard-class detector never ran).
    /// The resume point defaults to `0`; feature-payload paths override
    /// it with [`PendingCloud::resume_at`].
    pub fn precommit(truth: usize, predicted_entropy: f32) -> PendingCloud {
        PendingCloud {
            truth,
            entropy: predicted_entropy,
            main_prediction: Self::PRECOMMITTED,
            detected_hard: false,
            resume_layer: 0,
        }
    }

    /// Captures the main-exit side of instance `i`'s record. The resume
    /// point defaults to `0` (cloud computes from pixels); feature-payload
    /// paths override it with [`PendingCloud::resume_at`].
    pub fn from_main(net: &MeaNet, main: &MainExit, i: usize, truth: usize) -> PendingCloud {
        PendingCloud {
            truth,
            entropy: main.entropies[i],
            main_prediction: main.preds[i],
            detected_hard: net.is_hard(main.preds[i]),
            resume_layer: 0,
        }
    }

    /// Marks the payload as the cloud network's activation at layer
    /// `cut`, so the cloud resumes its forward there instead of
    /// recomputing the prefix.
    pub fn resume_at(mut self, cut: usize) -> PendingCloud {
        self.resume_layer = cut;
        self
    }

    /// Completes the record with the cloud's prediction.
    pub fn complete(self, prediction: usize) -> InstanceRecord {
        InstanceRecord {
            truth: self.truth,
            prediction,
            exit: ExitPoint::Cloud,
            entropy: self.entropy,
            main_prediction: self.main_prediction,
            detected_hard: self.detected_hard,
            correct: prediction == self.truth,
        }
    }
}

/// The shared routing core: a policy plus the knowledge of whether a cloud
/// is reachable at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingEngine {
    policy: OffloadPolicy,
    cloud_available: bool,
}

impl RoutingEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the policy can offload but no cloud is available —
    /// routing would silently degrade instead of honouring the policy.
    pub fn new(policy: OffloadPolicy, cloud_available: bool) -> RoutingEngine {
        assert!(policy.is_edge_only() || cloud_available, "an offloading policy requires a cloud model");
        RoutingEngine { policy, cloud_available }
    }

    /// Replaces the offload policy at runtime (the serving path does this
    /// when a [`crate::runtime::ThresholdController`] retunes the entropy
    /// threshold between windows).
    ///
    /// # Panics
    ///
    /// Panics if the new policy can offload but the engine has no cloud.
    pub fn set_policy(&mut self, policy: OffloadPolicy) {
        assert!(policy.is_edge_only() || self.cloud_available, "an offloading policy requires a cloud model");
        self.policy = policy;
    }

    /// Runs the main block + exit over a batch, producing the statistics
    /// every routing decision consumes. Pure evaluation — identical for
    /// the offline sweep and the server.
    pub fn evaluate_main(net: &mut MeaNet, images: &Tensor) -> MainExit {
        let features = net.main_features(images, Mode::Eval);
        let logits = net.main_logits_from(&features, Mode::Eval);
        let probs = ops::softmax_rows(&logits);
        let entropies = ops::entropy_rows(&probs);
        let preds = probs.argmax_rows();
        MainExit { features, probs, entropies, preds }
    }

    /// Decides every instance's exit: cloud when the policy fires (and a
    /// cloud exists), extension when the main prediction is a hard class,
    /// main otherwise.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached to `net`.
    pub fn plan(&self, net: &MeaNet, main: &MainExit) -> RoutePlan {
        let routes = (0..main.len())
            .map(|i| {
                if self.cloud_available && self.policy.should_offload(main.probs.row(i), main.entropies[i]) {
                    ExitPoint::Cloud
                } else if net.is_hard(main.preds[i]) {
                    ExitPoint::Extension
                } else {
                    ExitPoint::Main
                }
            })
            .collect();
        RoutePlan { routes }
    }

    /// Whether a request predicted at `difficulty` should pre-commit to
    /// the cloud leg without evaluating the main exit: only `Hard`
    /// predictions, only when a cloud is reachable, and only if the
    /// policy can offload at all — a [`OffloadPolicy::Never`] deployment
    /// keeps every instance local, difficulty predictor or not.
    pub fn wants_precommit(&self, difficulty: crate::difficulty::Difficulty) -> bool {
        difficulty == crate::difficulty::Difficulty::Hard && self.cloud_available && !self.policy.is_edge_only()
    }

    /// Plans a batch *local-only*: extension when the main prediction is
    /// a hard class, main otherwise — the offload decision is skipped
    /// entirely. This is the `Easy` difficulty band's plan: detection
    /// quality is preserved (the hard-class detector still runs on the
    /// main prediction) while the cloud machinery never engages.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached to `net`.
    pub fn plan_local(&self, net: &MeaNet, main: &MainExit) -> RoutePlan {
        let routes = (0..main.len())
            .map(|i| if net.is_hard(main.preds[i]) { ExitPoint::Extension } else { ExitPoint::Main })
            .collect();
        RoutePlan { routes }
    }

    /// Runs the adaptive + extension leg for the sub-batch `indices` and
    /// arbitrates each instance between the two exits by confidence,
    /// returning final predictions (original label space) in `indices`
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub fn finish_extension(net: &mut MeaNet, images: &Tensor, main: &MainExit, indices: &[usize]) -> Vec<usize> {
        if indices.is_empty() {
            return Vec::new();
        }
        let sub_x = images.gather_axis0(indices);
        let sub_f = main.features.gather_axis0(indices);
        let logits2 = net.extension_logits(&sub_x, &sub_f, Mode::Eval);
        let probs2 = ops::softmax_rows(&logits2);
        let preds2 = probs2.argmax_rows();
        let dict = net.hard_dict().expect("edge blocks attached");
        indices
            .iter()
            .enumerate()
            .map(|(j, &i)| {
                let conf1 = main.probs.row(i).iter().cloned().fold(0.0f32, f32::max);
                let conf2 = probs2.row(j).iter().cloned().fold(0.0f32, f32::max);
                if conf1 > conf2 {
                    main.preds[i]
                } else {
                    dict.to_original(preds2[j])
                }
            })
            .collect()
    }

    /// Runs the cloud network over an already-gathered sub-batch and
    /// returns its predictions — the one batched forward both the offline
    /// sweep and the dynamic-batching cloud worker perform.
    pub(crate) fn classify_cloud(cloud: &mut SegmentedCnn, images: &Tensor) -> Vec<usize> {
        cloud.forward(images, Mode::Eval).argmax_rows()
    }

    /// Resumes the cloud network at `resume_layer` over a batch of
    /// activations shipped from the edge (see
    /// [`PendingCloud::resume_layer`]) and returns its predictions.
    /// `resume_layer == 0` is exactly `RoutingEngine::classify_cloud`:
    /// suffix execution is bitwise identical to the full forward
    /// (asserted in `mea-nn`), so feature payloads cannot change a
    /// prediction — they only cut the cloud's recompute.
    pub fn classify_cloud_from(cloud: &mut SegmentedCnn, activations: &Tensor, resume_layer: usize) -> Vec<usize> {
        cloud.forward_from(activations, resume_layer, Mode::Eval).argmax_rows()
    }

    /// Runs the cloud leg of the offline sweep for a gathered sub-batch
    /// under a [`SweepPayload`] mode, returning the predictions and the
    /// bytes that crossed the (virtual) wire.
    ///
    /// * [`SweepPayload::Pixels`] is exactly
    ///   [`RoutingEngine::classify_cloud`], accounted at the paper's
    ///   1 byte per input sample.
    /// * [`SweepPayload::Features`] runs the prefix once over the
    ///   sub-batch (eval forwards are bitwise per-sample independent) and
    ///   resumes at the cut; 4 bytes per activation element.
    /// * [`SweepPayload::QuantFeatures`] quantizes each instance's
    ///   activation on its *own* affine grid through
    ///   `mea_quant::wire::ship_affine` — the same per-request round trip
    ///   the serving runtime's int8 wire performs, so the two paths see
    ///   bitwise-identical dequantized activations — then resumes the
    ///   batched forward at the cut.
    ///
    /// # Panics
    ///
    /// Panics if a feature cut is out of range for `cloud`.
    pub(crate) fn classify_cloud_payload(
        cloud: &mut SegmentedCnn,
        images: &Tensor,
        payload: SweepPayload,
    ) -> (Vec<usize>, u64) {
        let check_cut = |cut: usize| {
            let layers = cloud.cut_layer_count();
            assert!(cut < layers, "sweep cut {cut} out of range (cloud network has {layers} cut layers)");
        };
        match payload {
            SweepPayload::Pixels => (Self::classify_cloud(cloud, images), images.numel() as u64),
            SweepPayload::Features { cut } => {
                check_cut(cut);
                let activation = cloud.forward_prefix(images, cut, Mode::Eval);
                let bytes = 4 * activation.numel() as u64;
                (Self::classify_cloud_from(cloud, &activation, cut), bytes)
            }
            SweepPayload::QuantFeatures { cut } => {
                check_cut(cut);
                // One batched prefix forward (bitwise identical to
                // per-instance prefixes — eval forwards are per-sample
                // independent), then quantize each instance's slice on
                // its own affine grid, exactly like the serving wire.
                let activations = cloud.forward_prefix(images, cut, Mode::Eval);
                let n = activations.dims()[0];
                let mut bytes = 0u64;
                let mut parts = Vec::with_capacity(n);
                for i in 0..n {
                    let (shipped, frame) = mea_quant::wire::ship_affine(&activations.slice_axis0(i, i + 1));
                    bytes += frame;
                    parts.push(shipped);
                }
                let refs: Vec<&Tensor> = parts.iter().collect();
                let stacked = Tensor::concat_axis0(&refs);
                (Self::classify_cloud_from(cloud, &stacked, cut), bytes)
            }
        }
    }

    /// Assembles the record of a locally completed instance (main or
    /// extension exit).
    pub fn local_record(
        net: &MeaNet,
        main: &MainExit,
        i: usize,
        exit: ExitPoint,
        prediction: usize,
        truth: usize,
    ) -> InstanceRecord {
        InstanceRecord {
            truth,
            prediction,
            exit,
            entropy: main.entropies[i],
            main_prediction: main.preds[i],
            detected_hard: net.is_hard(main.preds[i]),
            correct: prediction == truth,
        }
    }
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

    #[test]
    fn plan_respects_policy_and_hard_dict() {
        let mut net = tiny_net(0);
        let bundle = presets::tiny(30);
        let images = bundle.test.images.slice_axis0(0, 8);
        let main = RoutingEngine::evaluate_main(&mut net, &images);

        let edge_only = RoutingEngine::new(OffloadPolicy::Never, false).plan(&net, &main);
        for (i, route) in edge_only.routes.iter().enumerate() {
            let expect = if [0, 2, 4].contains(&main.preds[i]) { ExitPoint::Extension } else { ExitPoint::Main };
            assert_eq!(*route, expect);
        }

        let all_cloud = RoutingEngine::new(OffloadPolicy::Always, true).plan(&net, &main);
        assert!(all_cloud.routes.iter().all(|&r| r == ExitPoint::Cloud));
        assert_eq!(all_cloud.cloud_indices(), (0..8).collect::<Vec<_>>());
        assert!(all_cloud.extension_indices().is_empty());
    }

    #[test]
    fn index_lists_partition_the_batch() {
        let mut net = tiny_net(1);
        let bundle = presets::tiny(31);
        let images = bundle.test.images.slice_axis0(0, 10);
        let main = RoutingEngine::evaluate_main(&mut net, &images);
        let median = {
            let mut e = main.entropies.clone();
            e.sort_by(|a, b| a.partial_cmp(b).unwrap());
            e[e.len() / 2]
        };
        let plan = RoutingEngine::new(OffloadPolicy::EntropyThreshold(median), true).plan(&net, &main);
        let cloud = plan.cloud_indices();
        let ext = plan.extension_indices();
        let locals = plan.routes.iter().filter(|&&r| r == ExitPoint::Main).count() + cloud.len() + ext.len();
        assert_eq!(locals, main.len());
        for &i in &cloud {
            assert!(!ext.contains(&i), "instance {i} routed twice");
        }
    }

    #[test]
    fn pending_cloud_round_trips_the_record() {
        let mut net = tiny_net(2);
        let bundle = presets::tiny(32);
        let images = bundle.test.images.slice_axis0(0, 4);
        let main = RoutingEngine::evaluate_main(&mut net, &images);
        let pending = PendingCloud::from_main(&net, &main, 2, bundle.test.labels[2]);
        let rec = pending.complete(bundle.test.labels[2]);
        assert_eq!(rec.exit, ExitPoint::Cloud);
        assert!(rec.correct);
        assert_eq!(rec.main_prediction, main.preds[2]);
        assert_eq!(rec.detected_hard, [0, 2, 4].contains(&main.preds[2]));
    }

    #[test]
    fn pending_cloud_carries_the_resume_point() {
        let mut net = tiny_net(4);
        let bundle = presets::tiny(33);
        let images = bundle.test.images.slice_axis0(0, 2);
        let main = RoutingEngine::evaluate_main(&mut net, &images);
        let pending = PendingCloud::from_main(&net, &main, 1, bundle.test.labels[1]);
        assert_eq!(pending.resume_layer, 0, "default payload is pixels");
        let resumed = pending.resume_at(3);
        assert_eq!(resumed.resume_layer, 3);
        // The resume point is transport metadata: the finished record is
        // identical whichever cut produced the cloud prediction.
        assert_eq!(pending.complete(0), resumed.complete(0));
    }

    #[test]
    fn classify_cloud_from_any_cut_matches_full_forward() {
        use mea_nn::layer::Mode;
        let mut rng = Rng::new(9);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut cloud = resnet_cifar(&cfg, &mut rng);
        let bundle = presets::tiny(34);
        let images = bundle.test.images.slice_axis0(0, 6);
        let expected = RoutingEngine::classify_cloud(&mut cloud, &images);
        for cut in 0..cloud.cut_layer_count() {
            let activation = cloud.forward_prefix(&images, cut, Mode::Eval);
            let preds = RoutingEngine::classify_cloud_from(&mut cloud, &activation, cut);
            assert_eq!(preds, expected, "resume at layer {cut} changed cloud predictions");
        }
    }

    #[test]
    fn precommit_carries_sentinels_and_completes_like_any_offload() {
        let pending = PendingCloud::precommit(3, 1.25);
        assert_eq!(pending.main_prediction, PendingCloud::PRECOMMITTED);
        assert!(!pending.detected_hard);
        assert_eq!(pending.resume_layer, 0);
        let rec = pending.resume_at(2).complete(3);
        assert_eq!(rec.exit, ExitPoint::Cloud);
        assert!(rec.correct);
        assert_eq!(rec.entropy, 1.25);
        // A main-evaluated offload is never mistaken for a precommit.
        let mut net = tiny_net(5);
        let bundle = presets::tiny(35);
        let images = bundle.test.images.slice_axis0(0, 2);
        let main = RoutingEngine::evaluate_main(&mut net, &images);
        assert_ne!(PendingCloud::from_main(&net, &main, 0, 0).main_prediction, PendingCloud::PRECOMMITTED);
    }

    #[test]
    fn wants_precommit_needs_hard_cloud_and_an_offloading_policy() {
        use crate::difficulty::Difficulty;
        let offloading = RoutingEngine::new(OffloadPolicy::EntropyThreshold(0.5), true);
        assert!(offloading.wants_precommit(Difficulty::Hard));
        assert!(!offloading.wants_precommit(Difficulty::Ambiguous));
        assert!(!offloading.wants_precommit(Difficulty::Easy));
        let edge_only = RoutingEngine::new(OffloadPolicy::Never, false);
        assert!(!edge_only.wants_precommit(Difficulty::Hard), "no cloud, no precommit");
        let never_with_cloud = RoutingEngine::new(OffloadPolicy::Never, true);
        assert!(!never_with_cloud.wants_precommit(Difficulty::Hard), "Never keeps everything local");
    }

    #[test]
    fn plan_local_never_routes_to_the_cloud() {
        let mut net = tiny_net(6);
        let bundle = presets::tiny(36);
        let images = bundle.test.images.slice_axis0(0, 8);
        let main = RoutingEngine::evaluate_main(&mut net, &images);
        // Even under Always — the point of the Easy band is to skip the
        // offload decision entirely.
        let engine = RoutingEngine::new(OffloadPolicy::Always, true);
        let plan = engine.plan_local(&net, &main);
        assert!(plan.cloud_indices().is_empty());
        // And it agrees with the edge-only full plan instance by instance.
        let edge_only = RoutingEngine::new(OffloadPolicy::Never, false).plan(&net, &main);
        assert_eq!(plan, edge_only);
    }

    #[test]
    fn set_policy_is_checked_against_cloud_availability() {
        let mut engine = RoutingEngine::new(OffloadPolicy::Never, true);
        engine.set_policy(OffloadPolicy::EntropyThreshold(0.5));
        assert_eq!(engine.policy, OffloadPolicy::EntropyThreshold(0.5));
    }

    #[test]
    #[should_panic(expected = "requires a cloud model")]
    fn offloading_policy_without_cloud_rejected() {
        let _ = RoutingEngine::new(OffloadPolicy::Always, false);
    }

    #[test]
    #[should_panic(expected = "requires a cloud model")]
    fn set_policy_without_cloud_rejected() {
        let mut engine = RoutingEngine::new(OffloadPolicy::Never, false);
        engine.set_policy(OffloadPolicy::Always);
    }
}
