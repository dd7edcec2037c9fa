//! Training procedures — Algorithm 1 of the paper, plus the baselines.
//!
//! The distributed flow:
//!
//! 1. [`train_backbone`] — "cloud" pretraining of the full CNN on all
//!    classes (and of the separate cloud DNN).
//! 2. `train_main_exit` — model A only: fit the freshly created main exit
//!    on frozen main-block features.
//! 3. Hard classes are selected from validation statistics
//!    ([`crate::hard_classes`]) and the hard subset is materialised with
//!    [`build_hard_dataset`] (Algorithm 1, steps 2–5).
//! 4. [`train_edge_blocks`] — blockwise edge training: the main block is
//!    frozen (eval mode, no caches, no gradients); only the adaptive and
//!    extension blocks and their exit learn (steps 6–8).
//!
//! [`train_edge_joint`] is the no-freezing baseline used by the Fig. 6
//! memory comparison and the blockwise-vs-joint ablation.

use crate::model::MeaNet;
use mea_data::{ClassDict, Dataset};
use mea_nn::layer::Mode;
use mea_nn::models::SegmentedCnn;
use mea_nn::{CrossEntropyLoss, MultiStepLr, Sgd};
use mea_tensor::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (the paper: 0.1 for CIFAR, 0.01 for ImageNet).
    pub base_lr: f32,
    /// Epochs at which the learning rate is multiplied by `gamma`.
    pub milestones: Vec<usize>,
    /// Learning-rate decay factor (the paper: 0.1).
    pub gamma: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Seed for per-epoch shuffling.
    pub shuffle_seed: u64,
}

impl TrainConfig {
    /// A fast schedule for the repro-scale experiments.
    pub fn repro(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            batch_size: 32,
            base_lr: 0.1,
            milestones: vec![epochs * 6 / 10, epochs * 8 / 10],
            gamma: 0.1,
            momentum: 0.9,
            weight_decay: 5e-4,
            shuffle_seed: 0x5eed,
        }
    }

    fn scheduler(&self) -> MultiStepLr {
        MultiStepLr::new(self.base_lr, self.milestones.clone(), self.gamma)
    }

    fn optimizer(&self) -> Sgd {
        Sgd::new(self.base_lr, self.momentum, self.weight_decay)
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

/// Generic epoch loop shared by all trainers: shuffles, batches, calls
/// `step(images, labels)` which must return `(loss, #correct)`.
fn epoch_loop(
    data: &Dataset,
    cfg: &TrainConfig,
    mut step: impl FnMut(&mea_tensor::Tensor, &[usize], f32) -> (f64, usize),
) -> Vec<EpochStats> {
    let mut rng = Rng::new(cfg.shuffle_seed);
    let sched = cfg.scheduler();
    let mut stats = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let lr = sched.lr_at(epoch);
        let shuffled = data.shuffled(&mut rng);
        let mut loss_sum = 0.0;
        let mut correct = 0usize;
        let mut batches = 0usize;
        for (images, labels) in shuffled.batches(cfg.batch_size) {
            let (loss, c) = step(&images, labels, lr);
            loss_sum += loss;
            correct += c;
            batches += 1;
        }
        stats.push(EpochStats {
            loss: loss_sum / batches.max(1) as f64,
            accuracy: correct as f64 / data.len() as f64,
        });
    }
    stats
}

fn count_correct(probs: &mea_tensor::Tensor, labels: &[usize]) -> usize {
    probs.argmax_rows().iter().zip(labels).filter(|(p, l)| p == l).count()
}

/// Trains a full backbone CNN (the "cloud" phase of Algorithm 1, also used
/// for the cloud DNN itself).
pub fn train_backbone(net: &mut SegmentedCnn, data: &Dataset, cfg: &TrainConfig) -> Vec<EpochStats> {
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = cfg.optimizer();
    epoch_loop(data, cfg, |images, labels, lr| {
        opt.set_lr(lr);
        net.visit_params(&mut |p| p.zero_grad());
        let logits = net.forward(images, Mode::Train);
        let out = loss_fn.forward(&logits, labels);
        net.backward(&out.grad);
        opt.step_with(&mut |f| net.visit_params(f));
        (out.loss, count_correct(&out.probs, labels))
    })
}

/// Fits a freshly created main exit (model A) on frozen main-block
/// features. Cheap: only the exit's pool + FC learn.
pub(crate) fn train_main_exit(net: &mut MeaNet, data: &Dataset, cfg: &TrainConfig) -> Vec<EpochStats> {
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = cfg.optimizer();
    epoch_loop(data, cfg, |images, labels, lr| {
        opt.set_lr(lr);
        net.visit_main_exit_params(&mut |p| p.zero_grad());
        let features = net.main_features(images, Mode::Eval);
        let logits = net.main_logits_from(&features, Mode::Train);
        let out = loss_fn.forward(&logits, labels);
        net.main_exit_backward(&out.grad);
        opt.step_with(&mut |f| net.visit_main_exit_params(f));
        (out.loss, count_correct(&out.probs, labels))
    })
}

/// Materialises the hard-class training subset with remapped labels
/// (Algorithm 1, step 5). The resulting dataset's label space is
/// `0..dict.len()`.
///
/// # Panics
///
/// Panics if no instance belongs to a hard class.
pub fn build_hard_dataset(data: &Dataset, dict: &ClassDict) -> Dataset {
    let (indices, remapped) = dict.select_and_remap(&data.labels);
    assert!(!indices.is_empty(), "no instances of any hard class in the dataset");
    let images = data.images.gather_axis0(&indices);
    Dataset::new(images, remapped, dict.len())
}

/// Blockwise edge training (Algorithm 1, steps 6–8): the main block is
/// frozen in eval mode; adaptive + extension + exit learn from hard-class
/// data with remapped labels.
///
/// # Panics
///
/// Panics if edge blocks are not attached or the dataset's label space does
/// not match the hard-class count.
pub fn train_edge_blocks(net: &mut MeaNet, hard_data: &Dataset, cfg: &TrainConfig) -> Vec<EpochStats> {
    let n_hard = net.hard_dict().expect("edge blocks not attached").len();
    assert_eq!(hard_data.num_classes, n_hard, "hard dataset must use remapped labels (see build_hard_dataset)");
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = cfg.optimizer();
    epoch_loop(hard_data, cfg, |images, labels, lr| {
        opt.set_lr(lr);
        net.visit_edge_params(&mut |p| p.zero_grad());
        let features = net.main_features(images, Mode::Eval); // frozen
        let logits = net.extension_logits(images, &features, Mode::Train);
        let out = loss_fn.forward(&logits, labels);
        net.edge_backward(&out.grad);
        opt.step_with(&mut |f| net.visit_edge_params(f));
        (out.loss, count_correct(&out.probs, labels))
    })
}

/// Joint-optimisation baseline: identical to [`train_edge_blocks`] but the
/// main block is *not* frozen — it runs in training mode, stores
/// activations, and receives gradients. This is the memory-hungry
/// configuration Fig. 6 compares against.
pub fn train_edge_joint(net: &mut MeaNet, hard_data: &Dataset, cfg: &TrainConfig) -> Vec<EpochStats> {
    let n_hard = net.hard_dict().expect("edge blocks not attached").len();
    assert_eq!(hard_data.num_classes, n_hard, "hard dataset must use remapped labels (see build_hard_dataset)");
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = cfg.optimizer();
    epoch_loop(hard_data, cfg, |images, labels, lr| {
        opt.set_lr(lr);
        net.visit_all_params(&mut |p| p.zero_grad());
        let features = net.main_features(images, Mode::Train); // not frozen
        let logits = net.extension_logits(images, &features, Mode::Train);
        let out = loss_fn.forward(&logits, labels);
        net.edge_backward_joint(&out.grad);
        opt.step_with(&mut |f| {
            // The main exit takes no gradient from the extension loss, so
            // only main + edge blocks move; visiting all params keeps the
            // optimizer's velocity slots aligned anyway.
            net.visit_all_params(f)
        });
        (out.loss, count_correct(&out.probs, labels))
    })
}

/// BranchyNet-style **joint optimisation** of both exits: one step
/// minimises `w_main · CE(ŷ1, y) + w_ext · CE(ŷ2, remap(y))` with nothing
/// frozen. This is the first of the paper's three multi-exit training
/// methods (§III-A); the paper rejects it for the edge because every
/// parameter needs gradients and activations.
///
/// `hard_data` must carry remapped labels; original labels are recovered
/// through the dictionary for the main exit's loss.
///
/// # Panics
///
/// Panics if edge blocks are not attached or the label spaces disagree.
pub fn train_edge_joint_weighted(
    net: &mut MeaNet,
    hard_data: &Dataset,
    cfg: &TrainConfig,
    w_main: f32,
    w_ext: f32,
) -> Vec<EpochStats> {
    let dict = net.hard_dict().expect("edge blocks not attached").clone();
    assert_eq!(
        hard_data.num_classes,
        dict.len(),
        "hard dataset must use remapped labels (see build_hard_dataset)"
    );
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = cfg.optimizer();
    epoch_loop(hard_data, cfg, |images, labels, lr| {
        opt.set_lr(lr);
        net.visit_all_params(&mut |p| p.zero_grad());
        let original: Vec<usize> = labels.iter().map(|&l| dict.to_original(l)).collect();
        let features = net.main_features(images, Mode::Train);
        let logits1 = net.main_logits_from(&features, Mode::Train);
        let logits2 = net.extension_logits(images, &features, Mode::Train);
        let out1 = loss_fn.forward(&logits1, &original);
        let out2 = loss_fn.forward(&logits2, labels);
        let mut g1 = out1.grad;
        g1.scale(w_main);
        net.main_backward(&g1);
        let mut g2 = out2.grad;
        g2.scale(w_ext);
        net.edge_backward_joint(&g2);
        opt.step_with(&mut |f| net.visit_all_params(f));
        let loss = w_main as f64 * out1.loss + w_ext as f64 * out2.loss;
        (loss, count_correct(&out2.probs, labels))
    })
}

/// Per-phase statistics of [`train_separate`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeparateStats {
    /// Phase 1: all convolutional layers trained on the final (extension)
    /// exit's loss.
    pub final_exit: Vec<EpochStats>,
    /// Phase 2: convolutions frozen, the main exit refitted on all classes.
    pub other_exits: Vec<EpochStats>,
}

/// **Separate optimisation**, the second of the paper's three multi-exit
/// training methods (§III-A): *"trains all convolutional layers based on
/// the loss at the ﬁnal exit, then freezes them and trains the other
/// exits."*
///
/// Phase 1 backpropagates the extension (final) exit's loss through the
/// whole network — main block included — on the hard subset. Phase 2
/// freezes every convolution and refits the main exit on the full dataset.
///
/// # Panics
///
/// Panics if edge blocks are not attached or label spaces disagree.
pub fn train_separate(
    net: &mut MeaNet,
    hard_data: &Dataset,
    all_data: &Dataset,
    cfg: &TrainConfig,
) -> SeparateStats {
    let final_exit = train_edge_joint(net, hard_data, cfg);
    let other_exits = train_main_exit(net, all_data, cfg);
    SeparateStats { final_exit, other_exits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePlan, Merge, Variant};
    use mea_data::presets;
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};

    fn tiny_setup() -> (MeaNet, Dataset, Dataset) {
        let bundle = presets::tiny(3);
        let mut rng = Rng::new(0);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut backbone = resnet_cifar(&cfg, &mut rng);
        let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(2));
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 2, 4]), &mut rng);
        (net, bundle.train, bundle.test)
    }

    #[test]
    fn backbone_training_reduces_loss() {
        let bundle = presets::tiny(1);
        let mut rng = Rng::new(1);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut backbone = resnet_cifar(&cfg, &mut rng);
        let stats = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(6));
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss, "loss did not decrease: {stats:?}");
        assert!(stats.last().unwrap().accuracy > 0.3, "final train accuracy too low: {stats:?}");
    }

    #[test]
    fn hard_dataset_is_remapped() {
        let bundle = presets::tiny(2);
        let dict = ClassDict::new(&[1, 4]);
        let hard = build_hard_dataset(&bundle.train, &dict);
        assert_eq!(hard.num_classes, 2);
        assert_eq!(hard.len(), 16); // 8 per class × 2 classes
        assert!(hard.labels.iter().all(|&l| l < 2));
    }

    #[test]
    fn edge_training_improves_hard_accuracy_and_freezes_main() {
        let (mut net, train, _) = tiny_setup();
        let dict = net.hard_dict().unwrap().clone();
        let hard = build_hard_dataset(&train, &dict);
        let mut main_before = Vec::new();
        net.visit_main_params(&mut |p| main_before.push(p.value.clone()));
        let stats = train_edge_blocks(&mut net, &hard, &TrainConfig::repro(5));
        let mut main_after = Vec::new();
        net.visit_main_params(&mut |p| main_after.push(p.value.clone()));
        assert_eq!(main_before, main_after, "main block must stay frozen");
        assert!(
            stats.last().unwrap().accuracy > stats.first().unwrap().accuracy - 0.05,
            "edge training regressed: {stats:?}"
        );
    }

    #[test]
    fn joint_training_does_move_the_main_block() {
        let (mut net, train, _) = tiny_setup();
        let dict = net.hard_dict().unwrap().clone();
        let hard = build_hard_dataset(&train, &dict);
        let mut main_before = Vec::new();
        net.visit_main_params(&mut |p| main_before.push(p.value.clone()));
        let _ = train_edge_joint(&mut net, &hard, &TrainConfig::repro(1));
        let mut changed = false;
        let mut i = 0;
        net.visit_main_params(&mut |p| {
            if p.value != main_before[i] {
                changed = true;
            }
            i += 1;
        });
        assert!(changed, "joint optimisation should update the main block");
    }

    #[test]
    #[should_panic(expected = "remapped labels")]
    fn edge_training_rejects_unremapped_labels() {
        let (mut net, train, _) = tiny_setup();
        let _ = train_edge_blocks(&mut net, &train, &TrainConfig::repro(1));
    }

    #[test]
    fn joint_weighted_reduces_combined_loss_and_moves_main() {
        let (mut net, train, _) = tiny_setup();
        let dict = net.hard_dict().unwrap().clone();
        let hard = build_hard_dataset(&train, &dict);
        let mut main_before = Vec::new();
        net.visit_main_params(&mut |p| main_before.push(p.value.clone()));
        let stats = train_edge_joint_weighted(&mut net, &hard, &TrainConfig::repro(4), 0.5, 1.0);
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss,
            "weighted joint loss did not decrease: {stats:?}"
        );
        let mut changed = false;
        let mut i = 0;
        net.visit_main_params(&mut |p| {
            if p.value != main_before[i] {
                changed = true;
            }
            i += 1;
        });
        assert!(changed, "joint optimisation must update the main block");
    }

    #[test]
    fn separate_optimisation_runs_both_phases() {
        let (mut net, train, test) = tiny_setup();
        let dict = net.hard_dict().unwrap().clone();
        let hard = build_hard_dataset(&train, &dict);
        let stats = train_separate(&mut net, &hard, &train, &TrainConfig::repro(3));
        assert_eq!(stats.final_exit.len(), 3);
        assert_eq!(stats.other_exits.len(), 3);
        // After phase 2 the main exit must still be a functioning
        // all-classes classifier.
        let eval = crate::stats::evaluate_main_exit(&mut net, &test, 8);
        assert!(eval.accuracy() > 1.0 / 6.0, "main exit collapsed after separate optimisation");
    }

    #[test]
    fn zero_extension_weight_reduces_to_main_only_updates() {
        // With w_ext = 0 the extension exit's parameters receive no
        // gradient, so only main(+exit) should move... except BN running
        // stats; compare extension-exit *parameters* only.
        let (mut net, train, _) = tiny_setup();
        let dict = net.hard_dict().unwrap().clone();
        let hard = build_hard_dataset(&train, &dict);
        let mut edge_before = Vec::new();
        net.visit_edge_params(&mut |p| edge_before.push(p.value.clone()));
        let _ = train_edge_joint_weighted(&mut net, &hard, &TrainConfig::repro(1), 1.0, 0.0);
        let mut max_delta = 0.0f32;
        let mut i = 0;
        net.visit_edge_params(&mut |p| {
            for (a, b) in p.value.as_slice().iter().zip(edge_before[i].as_slice()) {
                max_delta = max_delta.max((a - b).abs());
            }
            i += 1;
        });
        // Weight decay still shrinks edge parameters slightly; gradients of
        // the loss itself must not reach them.
        assert!(max_delta < 0.05, "edge blocks moved too much under w_ext = 0: {max_delta}");
    }
}
