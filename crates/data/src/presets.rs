//! The ready-made dataset for unit and integration tests: [`tiny`], six
//! classes in three clusters, 8² images, 8 / 4 train/test images per class.
//!
//! The stand-ins for the paper's CIFAR-10, CIFAR-100 and ImageNet are built
//! per experiment scale by `mea_bench::Scale`, whose docs list their sizes.

use crate::synth::{generate, DatasetBundle, SynthConfig};

/// Six-class micro dataset for fast unit and integration tests.
pub fn tiny(seed: u64) -> DatasetBundle {
    generate(&SynthConfig {
        num_classes: 6,
        num_clusters: 3,
        image_hw: 8,
        feature_dim: 10,
        train_per_class: 8,
        test_per_class: 4,
        cluster_separation: 3.0,
        spread_tight: 0.2,
        spread_loose: 1.4,
        noise_mean: 0.25,
        noise_cap: 1.5,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_documented_sizes() {
        let t = tiny(0);
        assert_eq!((t.train.len(), t.test.len()), (48, 24));
        assert_eq!(t.train.num_classes, 6);
        assert_eq!(t.train.images.dims()[2], 8);
    }
}
