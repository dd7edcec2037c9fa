//! A trained binary easy/hard detector — the alternative the paper
//! mentions and dismisses.
//!
//! §III-B: *"Although it is optional to train a binary classifier as a
//! detector, we find that using the outputs of the main block to detect
//! easy/hard classes is the simplest and the most effective way."* This
//! module implements that optional binary classifier so the claim can be
//! tested rather than taken on faith: a small `GlobalAvgPool → Linear(C, 2)`
//! head reads the frozen main block's feature maps and predicts
//! easy-vs-hard, and [`compare_detectors`] pits it against the paper's
//! argmax rule on held-out data.

use crate::model::MeaNet;
use crate::train::{EpochStats, TrainConfig};
use mea_data::{ClassDict, Dataset};
use mea_nn::layer::{Layer, Mode};
use mea_nn::models::make_head;
use mea_nn::{CrossEntropyLoss, Sequential};
use mea_tensor::{ops, Rng, Tensor};
use serde::{Deserialize, Serialize};

/// A binary classifier on main-block features predicting whether an
/// instance belongs to a hard class.
#[derive(Debug)]
pub struct HardDetector {
    head: Sequential,
}

impl HardDetector {
    /// Creates an untrained detector for main blocks producing
    /// `feature_channels` channels.
    pub fn new(feature_channels: usize, rng: &mut Rng) -> Self {
        HardDetector { head: make_head(feature_channels, 2, rng) }
    }

    /// Trains the detector on frozen main-block features. Labels are
    /// derived from the dataset: class 1 = instance's true class is hard.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(
        &mut self,
        net: &mut MeaNet,
        data: &Dataset,
        dict: &ClassDict,
        cfg: &TrainConfig,
    ) -> Vec<EpochStats> {
        let loss_fn = CrossEntropyLoss::new();
        let mut opt = mea_nn::Sgd::new(cfg.base_lr, cfg.momentum, cfg.weight_decay);
        let sched = mea_nn::MultiStepLr::new(cfg.base_lr, cfg.milestones.clone(), cfg.gamma);
        let mut rng = Rng::new(cfg.shuffle_seed);
        let mut stats = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            opt.set_lr(sched.lr_at(epoch));
            let shuffled = data.shuffled(&mut rng);
            let mut loss_sum = 0.0;
            let mut correct = 0usize;
            let mut batches = 0usize;
            for (images, labels) in shuffled.batches(cfg.batch_size) {
                let binary: Vec<usize> = labels.iter().map(|&l| usize::from(dict.contains(l))).collect();
                self.head.visit_params(&mut |p| p.zero_grad());
                let features = net.main_features(&images, Mode::Eval); // frozen
                let logits = self.head.forward(&features, Mode::Train);
                let out = loss_fn.forward(&logits, &binary);
                let _ = self.head.backward(&out.grad);
                opt.step_with(&mut |f| self.head.visit_params(f));
                loss_sum += out.loss;
                correct += out.probs.argmax_rows().iter().zip(&binary).filter(|(p, l)| p == l).count();
                batches += 1;
            }
            stats.push(EpochStats {
                loss: loss_sum / batches.max(1) as f64,
                accuracy: correct as f64 / data.len() as f64,
            });
        }
        stats
    }

    /// Predicts hard/easy for precomputed main-block features.
    pub(crate) fn predict_from_features(&mut self, features: &Tensor) -> Vec<bool> {
        let logits = self.head.forward(features, Mode::Eval);
        let probs = ops::softmax_rows(&logits);
        probs.argmax_rows().into_iter().map(|c| c == 1).collect()
    }
}

/// Detection accuracy of the two rules, for Table IV-style comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorComparison {
    /// The paper's rule: `argmax(p1) ∈ C_hard`.
    pub argmax_accuracy: f64,
    /// The trained binary head.
    pub binary_accuracy: f64,
}

/// Evaluates both easy/hard detection rules on the same dataset.
///
/// # Panics
///
/// Panics if edge blocks are not attached to `net`.
pub fn compare_detectors(
    net: &mut MeaNet,
    detector: &mut HardDetector,
    data: &Dataset,
    batch_size: usize,
) -> DetectorComparison {
    let dict = net.hard_dict().expect("edge blocks not attached").clone();
    let mut argmax_correct = 0usize;
    let mut binary_correct = 0usize;
    for (images, labels) in data.batches(batch_size) {
        let features = net.main_features(&images, Mode::Eval);
        let logits = net.main_logits_from(&features, Mode::Eval);
        let preds = ops::softmax_rows(&logits).argmax_rows();
        let binary = detector.predict_from_features(&features);
        for i in 0..labels.len() {
            let truth_hard = dict.contains(labels[i]);
            argmax_correct += usize::from(dict.contains(preds[i]) == truth_hard);
            binary_correct += usize::from(binary[i] == truth_hard);
        }
    }
    DetectorComparison {
        argmax_accuracy: argmax_correct as f64 / data.len() as f64,
        binary_accuracy: binary_correct as f64 / data.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePlan, Merge, Variant};
    use crate::train::{train_backbone, TrainConfig};
    use mea_data::presets;
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};

    fn trained_setup() -> (MeaNet, Dataset, Dataset, ClassDict) {
        let bundle = presets::tiny(21);
        let mut rng = Rng::new(0);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut backbone = resnet_cifar(&cfg, &mut rng);
        let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(5));
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        let dict = ClassDict::new(&[0, 2, 4]);
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, dict.clone(), &mut rng);
        (net, bundle.train, bundle.test, dict)
    }

    #[test]
    fn detector_learns_above_chance() {
        let (mut net, train, test, dict) = trained_setup();
        let mut rng = Rng::new(1);
        let channels = net.main_out_shape()[0];
        let mut det = HardDetector::new(channels, &mut rng);
        let stats = det.train(&mut net, &train, &dict, &TrainConfig::repro(6));
        assert!(
            stats.last().unwrap().accuracy > 0.55,
            "binary detector should beat coin flipping on train: {stats:?}"
        );
        let acc = compare_detectors(&mut net, &mut det, &test, 8).binary_accuracy;
        assert!(acc > 0.5, "test detection accuracy {acc} not above chance");
    }

    #[test]
    fn training_does_not_touch_the_main_block() {
        let (mut net, train, _, dict) = trained_setup();
        let mut rng = Rng::new(2);
        let channels = net.main_out_shape()[0];
        let mut det = HardDetector::new(channels, &mut rng);
        let mut before = Vec::new();
        net.visit_main_params(&mut |p| before.push(p.value.clone()));
        let _ = det.train(&mut net, &train, &dict, &TrainConfig::repro(2));
        let mut after = Vec::new();
        net.visit_main_params(&mut |p| after.push(p.value.clone()));
        assert_eq!(before, after, "detector training must keep the main block frozen");
    }

    #[test]
    fn comparison_reports_both_rules() {
        let (mut net, train, test, dict) = trained_setup();
        let mut rng = Rng::new(3);
        let channels = net.main_out_shape()[0];
        let mut det = HardDetector::new(channels, &mut rng);
        let _ = det.train(&mut net, &train, &dict, &TrainConfig::repro(4));
        let cmp = compare_detectors(&mut net, &mut det, &test, 8);
        assert!(cmp.argmax_accuracy > 0.0 && cmp.argmax_accuracy <= 1.0);
        assert!(cmp.binary_accuracy > 0.0 && cmp.binary_accuracy <= 1.0);
    }

    #[test]
    fn detector_head_is_tiny() {
        let mut rng = Rng::new(4);
        let det = HardDetector::new(32, &mut rng);
        // GlobalAvgPool → Linear(32, 2): 66 parameters — negligible next to
        // the extension block, which is the point of the comparison.
        assert_eq!(det.head.param_count(), 32 * 2 + 2);
    }
}
