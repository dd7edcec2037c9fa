//! Shared experiment plumbing: dataset + pipeline construction per scale.

use crate::scale::Scale;
use mea_data::synth::{generate, DatasetBundle};
use mea_data::Dataset;
use mea_nn::layer::Mode;
use mea_nn::models::SegmentedCnn;
use mea_tensor::ops;
use meanet::model::MeaNet;
use meanet::pipeline::{Pipeline, PipelineConfig};
use meanet::stats::MainEval;
use meanet::train::TrainConfig;

/// A trained distributed system plus its dataset.
#[derive(Debug)]
pub struct TrainedSystem {
    /// The trained pipeline (MEANet + optional cloud).
    pub pipeline: Pipeline,
    /// The dataset bundle it was trained on.
    pub bundle: DatasetBundle,
}

fn shrink_schedules(cfg: &mut PipelineConfig, scale: Scale) {
    let epochs = scale.epochs();
    cfg.pretrain = TrainConfig::repro(epochs);
    cfg.cloud_pretrain = TrainConfig::repro(epochs * 2);
    cfg.edge_train = TrainConfig::repro(epochs);
    cfg.exit_train = TrainConfig::repro((epochs / 2).max(2));
    // The synthetic datasets are far smaller than CIFAR/ImageNet; the
    // paper's 10% validation split would leave ~2 instances per class,
    // making the FDR ranking pure noise. 30% keeps the ranking stable.
    cfg.val_fraction = 0.3;
}

/// Model A (split ResNet) on the CIFAR-100-like dataset.
pub(crate) fn cifar_system_a(scale: Scale, seed: u64, with_cloud: bool) -> TrainedSystem {
    let bundle = generate(&scale.cifar100_like(seed));
    let classes = bundle.train.num_classes;
    let mut cfg = PipelineConfig::repro_resnet_a(classes, scale.epochs(), seed);
    shrink_schedules(&mut cfg, scale);
    if !with_cloud {
        cfg.cloud = None;
    }
    TrainedSystem { pipeline: Pipeline::run(&cfg, &bundle.train), bundle }
}

/// Model B (full ResNet + fresh extension) on the CIFAR-100-like dataset.
pub(crate) fn cifar_system_b(scale: Scale, seed: u64, with_cloud: bool) -> TrainedSystem {
    let bundle = generate(&scale.cifar100_like(seed));
    let classes = bundle.train.num_classes;
    let mut cfg = PipelineConfig::repro_resnet_b(classes, scale.epochs(), seed);
    shrink_schedules(&mut cfg, scale);
    if !with_cloud {
        cfg.cloud = None;
    }
    TrainedSystem { pipeline: Pipeline::run(&cfg, &bundle.train), bundle }
}

/// Model B with a ResNet main block on the ImageNet-like dataset.
pub(crate) fn imagenet_resnet_b(scale: Scale, seed: u64, with_cloud: bool) -> TrainedSystem {
    let bundle = generate(&scale.imagenet_like(seed));
    let classes = bundle.train.num_classes;
    let mut cfg = PipelineConfig::repro_imagenet_resnet_b(classes, scale.epochs(), seed);
    shrink_schedules(&mut cfg, scale);
    if !with_cloud {
        cfg.cloud = None;
    }
    TrainedSystem { pipeline: Pipeline::run(&cfg, &bundle.train), bundle }
}

/// Model B with a MobileNetV2 main block on the ImageNet-like dataset.
pub(crate) fn imagenet_mobilenet_b(scale: Scale, seed: u64, with_cloud: bool) -> TrainedSystem {
    let mut data_cfg = scale.imagenet_like(seed);
    if scale == Scale::Smoke {
        // The depthwise-separable MobileNet backbone converges slower than
        // the ResNets on the tiny synthetic set; under the generic smoke
        // budget its main exit sits near chance — and easy/hard detection
        // with it. This system alone gets a raised smoke budget (more
        // training data, doubled pretrain/edge schedules; still seconds)
        // so the Table III detection floor holds at 0.6 for every row —
        // the old smoke-only 0.45 concession is retired.
        data_cfg.train_per_class += data_cfg.train_per_class / 2;
    }
    let bundle = generate(&data_cfg);
    let classes = bundle.train.num_classes;
    let mut cfg = PipelineConfig::repro_mobilenet_b(classes, scale.epochs(), seed);
    shrink_schedules(&mut cfg, scale);
    if scale == Scale::Smoke {
        cfg.pretrain = TrainConfig::repro(scale.epochs() * 2);
        cfg.edge_train = TrainConfig::repro(scale.epochs() * 2);
    }
    if !with_cloud {
        cfg.cloud = None;
    }
    TrainedSystem { pipeline: Pipeline::run(&cfg, &bundle.train), bundle }
}

/// Accuracy of the main exit alone over a dataset slice with *original*
/// labels.
pub(crate) fn main_accuracy(net: &mut MeaNet, data: &Dataset, batch: usize) -> f64 {
    let mut correct = 0usize;
    for (images, labels) in data.batches(batch) {
        let logits = net.main_logits(&images, Mode::Eval);
        let preds = logits.argmax_rows();
        correct += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    }
    correct as f64 / data.len() as f64
}

/// MEANet accuracy over a *hard-class* dataset (original labels), with the
/// extension path always activated and confidence arbitration between the
/// exits — the protocol of paper Table II ("the extension and adaptive
/// blocks are always activated").
pub(crate) fn meanet_accuracy_on_hard(net: &mut MeaNet, data: &Dataset, batch: usize) -> f64 {
    let dict = net.hard_dict().expect("edge blocks attached").clone();
    let mut correct = 0usize;
    for (images, labels) in data.batches(batch) {
        let features = net.main_features(&images, Mode::Eval);
        let logits1 = net.main_logits_from(&features, Mode::Eval);
        let probs1 = ops::softmax_rows(&logits1);
        let preds1 = probs1.argmax_rows();
        let logits2 = net.extension_logits(&images, &features, Mode::Eval);
        let probs2 = ops::softmax_rows(&logits2);
        let preds2 = probs2.argmax_rows();
        for (i, &label) in labels.iter().enumerate() {
            let conf1 = probs1.row(i).iter().cloned().fold(0.0f32, f32::max);
            let conf2 = probs2.row(i).iter().cloned().fold(0.0f32, f32::max);
            let pred = if conf1 > conf2 { preds1[i] } else { dict.to_original(preds2[i]) };
            if pred == label {
                correct += 1;
            }
        }
    }
    correct as f64 / data.len() as f64
}

/// Evaluates the main exit over a dataset (wrapper for the runners).
pub(crate) fn evaluate_main(net: &mut MeaNet, data: &Dataset, batch: usize) -> MainEval {
    meanet::stats::evaluate_main_exit(net, data, batch)
}

/// Per-image MACs of the main path, the extension extra path and a cloud
/// model — inputs for the energy/latency models.
pub(crate) fn macs_profile(net: &MeaNet, cloud: Option<&SegmentedCnn>) -> (u64, u64, u64) {
    let split = net.cost_split();
    let macs_main = split.fixed_macs;
    let macs_ext = split.trained_macs;
    let macs_cloud = cloud.map(|c| c.total_macs()).unwrap_or(0);
    (macs_main, macs_ext, macs_cloud)
}

/// Formats a ratio as a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}
