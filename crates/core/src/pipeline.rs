//! End-to-end orchestration of the distributed system: cloud pretraining,
//! hard-class selection, blockwise edge training and the cloud DNN — the
//! complete Algorithm 1 followed by everything Algorithm 2 needs.

use crate::hard_classes::Selection;
use crate::infer::{run_inference, InferenceConfig, InstanceRecord};
use crate::model::{AdaptivePlan, MeaNet, Merge, Variant};
use crate::stats::{evaluate_main_exit, MainEval};
use crate::thresholds::entropy_stats;
use crate::train::{
    build_hard_dataset, train_backbone, train_edge_blocks, train_main_exit, EpochStats, TrainConfig,
};
use mea_data::Dataset;
use mea_metrics::EntropyStats;
use mea_nn::models::{
    mobilenet_v2, resnet_cifar, resnet_imagenet, CifarResNetConfig, ImageNetResNetConfig, MobileNetConfig,
    SegmentedCnn,
};
use mea_tensor::Rng;

/// Which reference architecture to instantiate.
#[derive(Debug, Clone)]
pub enum BackboneChoice {
    /// CIFAR-style ResNet (paper's ResNet32 family).
    CifarResNet(CifarResNetConfig),
    /// ImageNet-style ResNet (paper's ResNet18 / ResNet101 family).
    ImageNetResNet(ImageNetResNetConfig),
    /// MobileNetV2.
    MobileNet(MobileNetConfig),
}

impl BackboneChoice {
    /// Instantiates the network.
    pub fn build(&self, rng: &mut Rng) -> SegmentedCnn {
        match self {
            BackboneChoice::CifarResNet(cfg) => resnet_cifar(cfg, rng),
            BackboneChoice::ImageNetResNet(cfg) => resnet_imagenet(cfg, rng),
            BackboneChoice::MobileNet(cfg) => mobilenet_v2(cfg, rng),
        }
    }
}

/// Full configuration of a distributed training pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Edge backbone architecture.
    pub backbone: BackboneChoice,
    /// MEANet variant (model A split / model B full).
    pub variant: Variant,
    /// Feature merge mode at the extension input.
    pub merge: Merge,
    /// How the edge-trained adaptive mirror (and fresh-extension bridge)
    /// is built; [`AdaptivePlan::DepthwiseSeparable`] is the paper-faithful
    /// default.
    pub adaptive: AdaptivePlan,
    /// Hard-class selection strategy.
    pub selection: Selection,
    /// Cloud DNN architecture (None = edge-only system).
    pub cloud: Option<BackboneChoice>,
    /// Schedule for the cloud DNN (the cloud has no resource constraint,
    /// so it typically trains longer than the edge backbone).
    pub cloud_pretrain: TrainConfig,
    /// Schedule for backbone pretraining.
    pub pretrain: TrainConfig,
    /// Schedule for fitting a fresh model-A main exit.
    pub exit_train: TrainConfig,
    /// Schedule for blockwise edge training.
    pub edge_train: TrainConfig,
    /// Fraction of the training set held out as validation (paper: 10%).
    pub val_fraction: f64,
    /// Master seed (weights, splits, shuffles).
    pub seed: u64,
}

impl PipelineConfig {
    /// Repro-scale model A on a CIFAR-like dataset: ResNet split after two
    /// of four segments, cloud = deeper/wider ResNet.
    pub fn repro_resnet_a(num_classes: usize, epochs: usize, seed: u64) -> Self {
        let mut backbone = CifarResNetConfig::repro_scale(num_classes);
        backbone.input_hw = 16;
        let mut cloud = CifarResNetConfig::repro_scale(num_classes);
        cloud.input_hw = 16;
        cloud.blocks_per_stage = 3;
        cloud.channels = [12, 24, 48];
        PipelineConfig {
            backbone: BackboneChoice::CifarResNet(backbone),
            variant: Variant::SplitBackbone { main_segments: 2 },
            merge: Merge::Sum,
            adaptive: AdaptivePlan::default(),
            selection: Selection::HardestByPrecision { n: (num_classes / 2).max(1) },
            cloud: Some(BackboneChoice::CifarResNet(cloud)),
            cloud_pretrain: TrainConfig::repro(epochs * 2),
            pretrain: TrainConfig::repro(epochs),
            exit_train: TrainConfig::repro((epochs / 2).max(2)),
            edge_train: TrainConfig::repro(epochs),
            val_fraction: 0.1,
            seed,
        }
    }

    /// Repro-scale model B on a CIFAR-like dataset.
    pub fn repro_resnet_b(num_classes: usize, epochs: usize, seed: u64) -> Self {
        let mut cfg = Self::repro_resnet_a(num_classes, epochs, seed);
        cfg.variant = Variant::FullBackbone { extension_channels: 32, extension_blocks: 2 };
        cfg
    }

    /// Repro-scale model B on an ImageNet-like dataset (ResNet main block).
    pub fn repro_imagenet_resnet_b(num_classes: usize, epochs: usize, seed: u64) -> Self {
        let backbone = ImageNetResNetConfig::repro_scale(num_classes);
        let mut cloud = ImageNetResNetConfig::repro_scale(num_classes);
        cloud.blocks_per_stage = [2, 2, 2, 2];
        cloud.channels = [12, 24, 36, 48];
        PipelineConfig {
            backbone: BackboneChoice::ImageNetResNet(backbone),
            variant: Variant::FullBackbone { extension_channels: 32, extension_blocks: 2 },
            merge: Merge::Sum,
            adaptive: AdaptivePlan::default(),
            selection: Selection::HardestByPrecision { n: (num_classes / 2).max(1) },
            cloud: Some(BackboneChoice::ImageNetResNet(cloud)),
            cloud_pretrain: TrainConfig::repro(epochs * 2),
            pretrain: TrainConfig::repro(epochs),
            exit_train: TrainConfig::repro((epochs / 2).max(2)),
            edge_train: TrainConfig::repro(epochs),
            val_fraction: 0.1,
            seed,
        }
    }

    /// Repro-scale model B with a MobileNetV2 main block (paper: "the
    /// extension block for model B is designed to have four residual
    /// blocks").
    pub fn repro_mobilenet_b(num_classes: usize, epochs: usize, seed: u64) -> Self {
        let mut cloud = ImageNetResNetConfig::repro_scale(num_classes);
        cloud.blocks_per_stage = [2, 2, 2, 2];
        cloud.channels = [12, 24, 36, 48];
        PipelineConfig {
            backbone: BackboneChoice::MobileNet(MobileNetConfig::repro_scale(num_classes)),
            variant: Variant::FullBackbone { extension_channels: 48, extension_blocks: 4 },
            merge: Merge::Sum,
            adaptive: AdaptivePlan::default(),
            selection: Selection::HardestByPrecision { n: (num_classes / 2).max(1) },
            cloud: Some(BackboneChoice::ImageNetResNet(cloud)),
            cloud_pretrain: TrainConfig::repro(epochs * 2),
            pretrain: TrainConfig::repro(epochs),
            exit_train: TrainConfig::repro((epochs / 2).max(2)),
            edge_train: TrainConfig::repro(epochs),
            val_fraction: 0.1,
            seed,
        }
    }
}

/// The trained distributed system plus everything measured along the way.
#[derive(Debug)]
pub struct Pipeline {
    /// The trained MEANet (edge blocks attached and trained).
    pub net: MeaNet,
    /// The trained cloud DNN, if configured.
    pub cloud: Option<SegmentedCnn>,
    /// Main-exit evaluation on the validation split (drives hard-class
    /// selection and threshold calibration).
    pub val_eval: MainEval,
    /// Entropy statistics `(µ_correct, µ_wrong)` on the validation split.
    pub entropy: EntropyStats,
    /// Hard classes in selection order.
    pub hard_classes: Vec<usize>,
    /// Backbone pretraining curve.
    pub pretrain_stats: Vec<EpochStats>,
    /// Edge (blockwise) training curve.
    pub edge_stats: Vec<EpochStats>,
    /// The 90% training split used for edge training (pre-remap).
    pub train_split: Dataset,
    /// The 10% validation split.
    pub val_split: Dataset,
}

impl Pipeline {
    /// Runs the full Algorithm-1 pipeline on a training set.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (e.g. model A with concat
    /// merge) — see [`MeaNet::from_backbone`].
    pub fn run(cfg: &PipelineConfig, train_full: &Dataset) -> Pipeline {
        let mut rng = Rng::new(cfg.seed);

        // Step 0: hold out validation (paper: 10% of training data).
        let (val_split, train_split) = train_full.split_fraction(cfg.val_fraction, &mut rng);

        // Step 1: train the edge backbone at the "cloud" on all classes.
        let mut backbone = cfg.backbone.build(&mut rng);
        let pretrain_stats = train_backbone(&mut backbone, &train_split, &cfg.pretrain);

        // Assemble the MEANet; model A additionally fits its fresh exit.
        let mut net = MeaNet::from_backbone(backbone, cfg.variant, cfg.merge, &mut rng);
        if matches!(cfg.variant, Variant::SplitBackbone { .. }) {
            let _ = train_main_exit(&mut net, &train_split, &cfg.exit_train);
        }

        // Step 2: validation statistics determine the hard classes.
        let val_eval = evaluate_main_exit(&mut net, &val_split, cfg.pretrain.batch_size);
        let dict = cfg.selection.select_dict(&val_eval.confusion);
        let hard_classes = dict.hard_classes().to_vec();

        // Steps 3–8: attach and train the edge blocks on the hard subset.
        net.attach_edge_blocks(cfg.adaptive, dict.clone(), &mut rng);
        let hard_train = build_hard_dataset(&train_split, &dict);
        let edge_stats = train_edge_blocks(&mut net, &hard_train, &cfg.edge_train);
        net.clear_caches(); // the last step's activations: serving needs none of them

        // The independent cloud DNN trains on the full training set.
        let cloud = cfg.cloud.as_ref().map(|choice| {
            let mut cloud_net = choice.build(&mut rng);
            let _ = train_backbone(&mut cloud_net, train_full, &cfg.cloud_pretrain);
            cloud_net.clear_caches();
            cloud_net
        });

        let entropy = entropy_stats(&val_eval);
        Pipeline {
            net,
            cloud,
            val_eval,
            entropy,
            hard_classes,
            pretrain_stats,
            edge_stats,
            train_split,
            val_split,
        }
    }

    /// Edge-only Algorithm-2 records on a dataset.
    pub fn infer_edge_only(&mut self, data: &Dataset, batch: usize) -> Vec<InstanceRecord> {
        run_inference(&mut self.net, None, data, &InferenceConfig::edge_only(batch))
    }

    /// Edge-cloud Algorithm-2 records at a given entropy threshold.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline was built without a cloud model.
    pub fn infer_distributed(&mut self, data: &Dataset, threshold: f32, batch: usize) -> Vec<InstanceRecord> {
        let cloud = self.cloud.as_mut().expect("pipeline has no cloud model");
        run_inference(&mut self.net, Some(cloud), data, &InferenceConfig::with_cloud(threshold, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ExitStats;
    use mea_data::presets;

    use mea_nn::Layer;
    use mea_tensor::Tensor;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Model B shrunk to the tiny preset's 8×8 images.
    fn tiny_config() -> PipelineConfig {
        let mut cfg = PipelineConfig::repro_resnet_b(6, 4, 1);
        if let BackboneChoice::CifarResNet(ref mut c) = cfg.backbone {
            c.input_hw = 8;
        }
        if let Some(BackboneChoice::CifarResNet(ref mut c)) = cfg.cloud {
            c.input_hw = 8;
        }
        cfg
    }

    /// One end-to-end smoke test at micro scale; thorough accuracy checks
    /// live in the integration suite where bigger budgets are acceptable.
    #[test]
    fn tiny_pipeline_end_to_end() {
        let bundle = presets::tiny(21);
        let mut pipe = Pipeline::run(&tiny_config(), &bundle.train);
        assert_eq!(pipe.hard_classes.len(), 3);
        assert!(pipe.pretrain_stats.last().unwrap().accuracy > 0.2);

        let records = pipe.infer_edge_only(&bundle.test, 8);
        assert_eq!(records.len(), bundle.test.len());
        let dict = pipe.net.hard_dict().unwrap().clone();
        let stats = ExitStats::from_records(&records, &dict);
        assert!(stats.accuracy > 1.0 / 6.0, "edge accuracy {} not above chance", stats.accuracy);

        let dist = pipe.infer_distributed(&bundle.test, 0.5, 8);
        let dstats = ExitStats::from_records(&dist, &dict);
        assert!(dstats.cloud_exits > 0, "no instance reached the cloud at threshold 0.5");
    }

    /// Whether `backward` stops for want of a training forward — every
    /// layer checks its cache before it reads the gradient's shape.
    fn backward_finds_no_cache(backward: impl FnOnce()) -> bool {
        let Err(panic) = catch_unwind(AssertUnwindSafe(backward)) else { return false };
        let message = panic.downcast_ref::<String>().map(String::as_str).or(panic.downcast_ref::<&str>().copied());
        message.is_some_and(|m| m.contains("without"))
    }

    /// The trained networks leave `run` holding no training caches: the
    /// last step's activations, patch inputs and masks are dropped, so no
    /// layer of the cloud network and neither exit of the MEANet can
    /// backpropagate until a new training forward.
    #[test]
    fn run_drops_the_training_caches_of_both_networks() {
        let bundle = presets::tiny(22);
        let mut pipe = Pipeline::run(&tiny_config(), &bundle.train);
        let grad = Tensor::zeros([1]);
        let cloud = pipe.cloud.as_mut().expect("model B has a cloud");
        let layers = cloud.segments.iter_mut().flat_map(|s| s.layers_mut()).map(|l| &mut **l as &mut dyn Layer);
        for (at, layer) in layers.chain(std::iter::once(&mut cloud.head as &mut dyn Layer)).enumerate() {
            assert!(backward_finds_no_cache(|| drop(layer.backward(&grad))), "cloud layer {at} kept its cache");
        }
        assert!(backward_finds_no_cache(|| pipe.net.edge_backward(&grad)), "the extension exit kept its cache");
        assert!(backward_finds_no_cache(|| pipe.net.main_backward(&grad)), "the main exit kept its cache");
    }
}
