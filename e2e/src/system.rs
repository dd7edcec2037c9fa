//! Set-up: synthesise the dataset, train the tiny MEANet and the cloud
//! ResNet, calibrate the offload threshold and build the serving fleet.
//!
//! The recipe is fixed — no argument of the benchmark reaches it — so every
//! run of every seed serves the same trained system; `--seed` only shapes
//! the request traffic drawn from the pool.

use crate::workload::Workload;
use mea_data::synth::{generate, SynthConfig};
use mea_data::Dataset;
use mea_edgecloud::serve::{EdgeReplica, Fleet};
use mea_nn::models::SegmentedCnn;
use mea_nn::StateDict;
use mea_tensor::Rng;
use meanet::infer::InstanceRecord;
use meanet::model::Variant;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::{MeaNet, OffloadPolicy, TrainConfig};

/// Seed of the dataset, the weights and the training shuffles.
const RECIPE_SEED: u64 = 7;
/// Classes of the synthetic task.
const CLASSES: usize = 6;
/// Images per class in the request pool.
const POOL_PER_CLASS: usize = 80;
/// Batch size of the offline reference sweeps.
pub const SWEEP_BATCH: usize = 16;

/// The trained distributed system plus the request pool.
#[derive(Debug)]
pub struct System {
    recipe: PipelineConfig,
    /// The trained MEANet and cloud network.
    pub pipe: Pipeline,
    cloud_state: StateDict,
    /// Images requests are drawn from (the synthetic test split).
    pub pool: Dataset,
    /// Edge-only Algorithm-2 record of every pool image: the main-exit
    /// entropies calibrate the threshold, and a served request that exits
    /// locally must reproduce its record.
    pub edge_only: Vec<InstanceRecord>,
}

fn schedule(epochs: usize, batch_size: usize) -> TrainConfig {
    let mut cfg = TrainConfig::repro(epochs);
    cfg.batch_size = batch_size;
    // One full-rate phase, the last epoch at a tenth: the stock schedule
    // decays after 60 % of the epochs, which leaves a handful of epochs
    // with almost no full-rate steps.
    cfg.milestones = vec![epochs - 1];
    cfg
}

impl System {
    /// Synthesises the data and runs Algorithm 1 (cloud pretraining,
    /// hard-class selection, blockwise edge training, cloud DNN).
    pub fn train() -> System {
        let bundle = generate(&SynthConfig {
            num_classes: CLASSES,
            num_clusters: 3,
            image_hw: 16,
            feature_dim: 12,
            train_per_class: 20,
            test_per_class: POOL_PER_CLASS,
            cluster_separation: 3.0,
            spread_tight: 0.2,
            spread_loose: 1.4,
            noise_mean: 0.25,
            noise_cap: 1.5,
            seed: RECIPE_SEED,
        });
        let mut recipe = PipelineConfig::repro_resnet_b(CLASSES, 4, RECIPE_SEED);
        recipe.variant = Variant::FullBackbone { extension_channels: 16, extension_blocks: 1 };
        if let Some(BackboneChoice::CifarResNet(cloud)) = &mut recipe.cloud {
            cloud.blocks_per_stage = 2;
        }
        // The edge trains briefly and the deeper cloud longer, at a gentler
        // rate in smaller batches: the cloud ends up the more accurate of
        // the two, as the paper assumes, inside a two-second budget.
        recipe.pretrain = schedule(2, 10);
        recipe.edge_train = schedule(2, 10);
        recipe.cloud_pretrain = schedule(5, 6);
        recipe.cloud_pretrain.base_lr = 0.05;
        let mut pipe = Pipeline::run(&recipe, &bundle.train);
        let cloud_state = StateDict::from_cnn(pipe.cloud.as_mut().expect("the recipe configures a cloud"));
        let edge_only = pipe.infer_edge_only(&bundle.test, SWEEP_BATCH);
        System { recipe, pipe, cloud_state, pool: bundle.test, edge_only }
    }

    /// The entropy threshold that offloads the `beta` highest-entropy
    /// share of the pool.
    pub fn threshold(&self, beta: f64) -> f32 {
        let entropies: Vec<f32> = self.edge_only.iter().map(|r| r.entropy).collect();
        match OffloadPolicy::budgeted_from_validation(&entropies, beta) {
            OffloadPolicy::Budgeted { threshold } => threshold,
            other => unreachable!("budgeted calibration returned {other:?}"),
        }
    }

    /// A fresh cloud network carrying the trained weights.
    pub fn cloud_replica(&self) -> SegmentedCnn {
        let mut rng = Rng::new(RECIPE_SEED);
        let mut replica = self.recipe.cloud.as_ref().expect("the recipe configures a cloud").build(&mut rng);
        self.cloud_state.apply_to_cnn(&mut replica).expect("identical cloud architecture");
        replica
    }

    /// A fresh edge replica carrying the trained weights, with a cloud
    /// prefix when the workload ships activations.
    pub fn edge_replica(&mut self, with_prefix: bool) -> EdgeReplica {
        let mut rng = Rng::new(RECIPE_SEED);
        let backbone = self.recipe.backbone.build(&mut rng);
        let mut net = MeaNet::from_backbone(backbone, self.recipe.variant, self.recipe.merge, &mut rng);
        let dict = self.pipe.net.hard_dict().expect("trained edge blocks").clone();
        net.attach_edge_blocks(self.recipe.adaptive, dict, &mut rng);
        self.pipe.net.replicate_into(&mut net);
        if with_prefix {
            EdgeReplica::with_cloud_prefix(net, self.cloud_replica())
        } else {
            EdgeReplica::new(net)
        }
    }

    /// Builds the workload's fleet: one edge worker, its cloud workers,
    /// the threshold calibrated to the workload's offload share.
    pub fn fleet(&mut self, workload: &Workload) -> Fleet {
        let config = workload.serve_config(self.threshold(workload.beta)).expect("frozen configuration is valid");
        let edges = vec![self.edge_replica(workload.ships_features())];
        let clouds = (0..workload.cloud_workers).map(|_| self.cloud_replica()).collect();
        Fleet::new(config, edges, clouds).expect("replicas match the frozen configuration")
    }
}

/// Everything `setup_s` covers: data synthesis, training, policy
/// calibration and replica build.
pub fn set_up(workload: &Workload) -> (System, Fleet) {
    let mut system = System::train();
    let fleet = system.fleet(workload);
    (system, fleet)
}
