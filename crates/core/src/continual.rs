//! Continual edge adaptation with episodic replay.
//!
//! Paper §III-A closes with: *"In the real environment, the edge can
//! collect new samples that have a different distribution. To avoid
//! overfitting and catastrophic forgetting on the new samples, we suggest
//! using both the new samples and samples from the dataset for training."*
//!
//! This module makes that suggestion concrete: a bounded [`ReplayBuffer`]
//! keeps a uniform sample of previously seen hard-class instances
//! (reservoir sampling, as in episodic-memory continual learning), and
//! [`train_edge_continual`] adapts the extension/adaptive blocks on a mix
//! of freshly collected data and replayed memories. Since only the edge
//! blocks move, the main block's knowledge of easy classes can never
//! degrade — forgetting is confined to, and measurable on, the hard
//! classes.

use crate::model::MeaNet;
use crate::train::{train_edge_blocks, EpochStats, TrainConfig};
use mea_data::Dataset;
use mea_nn::layer::Mode;
use mea_tensor::{ops, Rng, Tensor};
use serde::{Deserialize, Serialize};

/// A bounded episodic memory of labelled instances, kept uniform over
/// everything ever observed via reservoir sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    image_dims: Option<Vec<usize>>, // [C, H, W], learned on first observe
    data: Vec<f32>,                 // len() * elems
    labels: Vec<usize>,
    num_classes: usize,
    seen: usize,
}

impl ReplayBuffer {
    /// An empty buffer holding at most `capacity` instances with labels in
    /// `0..num_classes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, num_classes: usize) -> Self {
        assert!(capacity > 0, "replay buffer needs capacity");
        ReplayBuffer { capacity, image_dims: None, data: Vec::new(), labels: Vec::new(), num_classes, seen: 0 }
    }

    /// Instances currently held.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when nothing has been stored yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Streams a dataset through the reservoir: each instance lands in the
    /// buffer with probability `capacity / seen`, keeping the buffer a
    /// uniform sample of the whole stream.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's image shape or class count disagrees with
    /// earlier observations.
    pub fn observe(&mut self, data: &Dataset, rng: &mut Rng) {
        assert_eq!(data.num_classes, self.num_classes, "class-space mismatch");
        let dims = data.images.dims()[1..].to_vec();
        match &self.image_dims {
            None => self.image_dims = Some(dims.clone()),
            Some(d) => assert_eq!(d, &dims, "image shape changed between observations"),
        }
        let elems: usize = dims.iter().product();
        let src = data.images.as_slice();
        for i in 0..data.len() {
            self.seen += 1;
            let row = &src[i * elems..(i + 1) * elems];
            if self.labels.len() < self.capacity {
                self.data.extend_from_slice(row);
                self.labels.push(data.labels[i]);
            } else {
                let j = rng.below(self.seen);
                if j < self.capacity {
                    self.data[j * elems..(j + 1) * elems].copy_from_slice(row);
                    self.labels[j] = data.labels[i];
                }
            }
        }
    }

    /// Draws `k` instances uniformly without replacement.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty or `k` exceeds its length.
    pub(crate) fn sample(&self, k: usize, rng: &mut Rng) -> Dataset {
        assert!(!self.is_empty(), "cannot sample an empty replay buffer");
        assert!(k > 0 && k <= self.len(), "sample size {k} out of range 1..={}", self.len());
        let idx = rng.sample_indices(self.len(), k);
        self.as_dataset().subset(&idx)
    }

    /// Views the whole buffer as a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub(crate) fn as_dataset(&self) -> Dataset {
        assert!(!self.is_empty(), "empty replay buffer");
        let dims = self.image_dims.as_ref().expect("dims set when non-empty");
        let mut shape = vec![self.labels.len()];
        shape.extend_from_slice(dims);
        let images = Tensor::from_vec(self.data.clone(), &shape).expect("buffer internally consistent");
        Dataset::new(images, self.labels.clone(), self.num_classes)
    }
}

/// Result of one adaptation round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationStats {
    /// Per-epoch statistics of the mixed-data training.
    pub epochs: Vec<EpochStats>,
    /// New instances in the mix.
    pub new_instances: usize,
    /// Replayed instances in the mix.
    pub replayed_instances: usize,
}

/// Adapts the edge blocks to newly collected hard-class data, mixing in
/// `replay_ratio × |new|` replayed instances (capped by the buffer size)
/// exactly as the paper suggests. The buffer then absorbs the new data.
///
/// `new_data` must use remapped hard-class labels (see
/// [`crate::train::build_hard_dataset`]). `replay_ratio = 0` reproduces
/// naive fine-tuning.
///
/// # Panics
///
/// Panics if edge blocks are not attached or label spaces disagree.
pub fn train_edge_continual(
    net: &mut MeaNet,
    new_data: &Dataset,
    buffer: &mut ReplayBuffer,
    replay_ratio: f64,
    cfg: &TrainConfig,
    rng: &mut Rng,
) -> AdaptationStats {
    assert!(replay_ratio >= 0.0, "replay ratio must be non-negative");
    let want = ((new_data.len() as f64) * replay_ratio).round() as usize;
    let k = want.min(buffer.len());
    let mixed = if k > 0 {
        let replay = buffer.sample(k, rng);
        let images = Tensor::concat_axis0(&[&new_data.images, &replay.images]);
        let mut labels = new_data.labels.clone();
        labels.extend_from_slice(&replay.labels);
        Dataset::new(images, labels, new_data.num_classes)
    } else {
        new_data.clone()
    };
    let epochs = train_edge_blocks(net, &mixed, cfg);
    buffer.observe(new_data, rng);
    AdaptationStats { epochs, new_instances: new_data.len(), replayed_instances: k }
}

/// Accuracy of the extension exit alone on remapped hard-class data — the
/// metric that exposes catastrophic forgetting of hard classes.
pub fn extension_accuracy(net: &mut MeaNet, hard_data: &Dataset, batch_size: usize) -> f64 {
    let n_hard = net.hard_dict().expect("edge blocks not attached").len();
    assert_eq!(hard_data.num_classes, n_hard, "hard dataset must use remapped labels");
    let mut correct = 0usize;
    for (images, labels) in hard_data.batches(batch_size) {
        let features = net.main_features(&images, Mode::Eval);
        let logits = net.extension_logits(&images, &features, Mode::Eval);
        let preds = ops::softmax_rows(&logits).argmax_rows();
        correct += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    }
    correct as f64 / hard_data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePlan, Merge, Variant};
    use crate::train::{build_hard_dataset, train_backbone, TrainConfig};
    use mea_data::{presets, ClassDict};
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};

    #[test]
    fn reservoir_respects_capacity_and_tracks_seen() {
        let bundle = presets::tiny(50);
        let mut buf = ReplayBuffer::new(10, 6);
        let mut rng = Rng::new(0);
        buf.observe(&bundle.train, &mut rng);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.seen, bundle.train.len());
        buf.observe(&bundle.test, &mut rng);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.seen, bundle.train.len() + bundle.test.len());
    }

    #[test]
    fn reservoir_is_roughly_uniform_over_the_stream() {
        // Stream 60 instances of class 0 then 60 of class 1 through a
        // 30-slot reservoir: the final mix should be near 50/50, not
        // dominated by the most recent chunk.
        let images = Tensor::zeros([60, 1, 2, 2]);
        let a = Dataset::new(images.clone(), vec![0; 60], 2);
        let b = Dataset::new(images, vec![1; 60], 2);
        let mut counts = [0usize; 2];
        for seed in 0..20 {
            let mut buf = ReplayBuffer::new(30, 2);
            let mut rng = Rng::new(seed);
            buf.observe(&a, &mut rng);
            buf.observe(&b, &mut rng);
            for &l in &buf.as_dataset().labels {
                counts[l] += 1;
            }
        }
        let frac0 = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((frac0 - 0.5).abs() < 0.12, "reservoir is biased: class-0 fraction {frac0}");
    }

    #[test]
    fn sample_draws_without_replacement() {
        let images = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[4, 1, 2, 2]).unwrap();
        let data = Dataset::new(images, vec![0, 1, 0, 1], 2);
        let mut buf = ReplayBuffer::new(4, 2);
        let mut rng = Rng::new(1);
        buf.observe(&data, &mut rng);
        let s = buf.sample(4, &mut rng);
        let mut firsts: Vec<i64> = s.images.as_slice().chunks(4).map(|c| c[0] as i64).collect();
        firsts.sort_unstable();
        assert_eq!(firsts, vec![0, 4, 8, 12], "each instance drawn at most once");
    }

    /// Full forgetting scenario: adapt to a single hard class with and
    /// without replay; replay must retain more accuracy on the original
    /// hard test set.
    #[test]
    fn replay_mitigates_catastrophic_forgetting() {
        let bundle = presets::tiny(51);
        let mut rng = Rng::new(2);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut backbone = resnet_cifar(&cfg, &mut rng);
        let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(4));
        let dict = ClassDict::new(&[0, 2, 4]);

        // Both runs adapt the *same* starting model: clone the trained
        // backbone through a state dict.
        let sd = mea_nn::StateDict::from_cnn(&mut backbone);
        let make_net = |rng: &mut Rng| {
            let mut cfg2 = CifarResNetConfig::repro_scale(6);
            cfg2.input_hw = 8;
            let mut b = resnet_cifar(&cfg2, rng);
            sd.apply_to_cnn(&mut b).unwrap();
            let mut net = MeaNet::from_backbone(
                b,
                Variant::FullBackbone { extension_channels: 16, extension_blocks: 1 },
                Merge::Sum,
                &mut Rng::new(99),
            );
            net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, dict.clone(), &mut Rng::new(100));
            net
        };

        let hard_train = build_hard_dataset(&bundle.train, &dict);
        let hard_test = build_hard_dataset(&bundle.test, &dict);
        let tc = TrainConfig::repro(5);

        // Phase 1 (both nets identical): learn all hard classes.
        let mut with_replay = make_net(&mut Rng::new(3));
        let mut without_replay = make_net(&mut Rng::new(3));
        let _ = train_edge_blocks(&mut with_replay, &hard_train, &tc);
        let _ = train_edge_blocks(&mut without_replay, &hard_train, &tc);

        // Environment shift: only remapped class 0 is collected now.
        let only_class0 = {
            let keep: Vec<usize> = (0..hard_train.len()).filter(|&i| hard_train.labels[i] == 0).collect();
            hard_train.subset(&keep)
        };
        let mut buffer = ReplayBuffer::new(hard_train.len(), dict.len());
        buffer.observe(&hard_train, &mut Rng::new(4));

        let adapt_cfg = TrainConfig::repro(8);
        let mut rng_a = Rng::new(5);
        let stats = train_edge_continual(&mut with_replay, &only_class0, &mut buffer, 2.0, &adapt_cfg, &mut rng_a);
        assert!(stats.replayed_instances > 0, "replay must actually mix in old data");
        let mut empty = ReplayBuffer::new(8, dict.len());
        let mut rng_b = Rng::new(5);
        let _ = train_edge_continual(&mut without_replay, &only_class0, &mut empty, 2.0, &adapt_cfg, &mut rng_b);

        let acc_with = extension_accuracy(&mut with_replay, &hard_test, 8);
        let acc_without = extension_accuracy(&mut without_replay, &hard_test, 8);
        assert!(
            acc_with > acc_without,
            "replay ({acc_with}) must retain more hard-class accuracy than naive fine-tuning ({acc_without})"
        );
    }

    #[test]
    fn zero_ratio_reduces_to_fine_tuning() {
        let bundle = presets::tiny(52);
        let mut rng = Rng::new(6);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut backbone = resnet_cifar(&cfg, &mut rng);
        let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(2));
        let dict = ClassDict::new(&[1, 3]);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, dict.clone(), &mut rng);
        let hard = build_hard_dataset(&bundle.train, &dict);
        let mut buffer = ReplayBuffer::new(4, dict.len());
        buffer.observe(&hard, &mut rng);
        let stats = train_edge_continual(&mut net, &hard, &mut buffer, 0.0, &TrainConfig::repro(1), &mut rng);
        assert_eq!(stats.replayed_instances, 0);
        assert_eq!(stats.new_instances, hard.len());
    }

    #[test]
    #[should_panic(expected = "image shape changed")]
    fn shape_drift_is_rejected() {
        let mut buf = ReplayBuffer::new(4, 2);
        let mut rng = Rng::new(7);
        let a = Dataset::new(Tensor::zeros([2, 1, 2, 2]), vec![0, 1], 2);
        let b = Dataset::new(Tensor::zeros([2, 1, 3, 3]), vec![0, 1], 2);
        buf.observe(&a, &mut rng);
        buf.observe(&b, &mut rng);
    }
}
