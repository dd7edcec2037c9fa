//! The synthetic dataset generator: cluster-structured class prototypes
//! with long-tailed per-instance noise.

use crate::dataset::Dataset;
use crate::patterns::PatternDictionary;
use mea_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic vision dataset.
///
/// Class-wise complexity: the `num_classes` prototypes live in
/// `num_clusters` clusters. Cluster `j` has an internal spread interpolated
/// between `spread_tight` and `spread_loose`; classes in tight clusters are
/// nearly identical (confusable → hard), classes in loose clusters are well
/// separated (easy).
///
/// Instance-wise complexity: each instance draws a noise level from an
/// exponential distribution with mean `noise_mean`, clipped at
/// `noise_cap`; the long tail produces the high-entropy "complex" instances
/// the paper ships to the cloud.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of classes.
    pub num_classes: usize,
    /// Number of prototype clusters (must divide the class count evenly or
    /// the remainder spills into the last cluster).
    pub num_clusters: usize,
    /// Image side length (images are `3 × hw × hw`).
    pub image_hw: usize,
    /// Coefficient dimension of the pattern dictionary.
    pub feature_dim: usize,
    /// Training instances per class.
    pub train_per_class: usize,
    /// Test instances per class.
    pub test_per_class: usize,
    /// Distance between cluster centres (coefficient space).
    pub cluster_separation: f32,
    /// Within-cluster spread of the tightest (hardest) cluster.
    pub spread_tight: f32,
    /// Within-cluster spread of the loosest (easiest) cluster.
    pub spread_loose: f32,
    /// Mean of the exponential per-instance noise level.
    pub noise_mean: f32,
    /// Upper clip of the per-instance noise level.
    pub noise_cap: f32,
    /// Seed for prototype and instance generation.
    pub seed: u64,
}

impl SynthConfig {
    /// Sanity-checks the configuration.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid values (zero classes, more clusters
    /// than classes, inverted spreads, …).
    pub(crate) fn validate(&self) {
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(self.num_clusters >= 1 && self.num_clusters <= self.num_classes, "invalid cluster count");
        assert!(self.image_hw >= 4, "images must be at least 4x4");
        assert!(self.feature_dim >= 2, "feature dim must be at least 2");
        assert!(self.train_per_class >= 2 && self.test_per_class >= 1, "need data per class");
        assert!(self.spread_tight <= self.spread_loose, "spread_tight must not exceed spread_loose");
        assert!(self.noise_mean >= 0.0 && self.noise_cap >= self.noise_mean, "invalid noise levels");
    }
}

/// A generated dataset pair plus the ground-truth complexity metadata.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Which cluster each class belongs to.
    pub class_cluster: Vec<usize>,
    /// The spread of each class's cluster — ground-truth class-wise
    /// complexity (smaller = harder). Useful for validating hard-class
    /// detection in tests.
    pub class_spread: Vec<f32>,
    /// Per-instance noise level of the *test* split — ground-truth
    /// instance-wise complexity.
    pub test_noise: Vec<f32>,
}

/// Generates a dataset bundle from a configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid (see `SynthConfig::validate`).
pub fn generate(config: &SynthConfig) -> DatasetBundle {
    config.validate();
    let mut rng = Rng::new(config.seed);
    let dict = PatternDictionary::new(config.feature_dim, config.image_hw);
    let d = config.feature_dim;

    // Cluster centres: random unit directions scaled by the separation.
    let mut centres = Vec::with_capacity(config.num_clusters);
    for _ in 0..config.num_clusters {
        let mut c: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
        let norm = c.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        for v in &mut c {
            *v *= config.cluster_separation / norm;
        }
        centres.push(c);
    }

    // Cluster spreads sweep tight → loose; shuffle so hardness is not
    // correlated with class index.
    let mut spreads: Vec<f32> = (0..config.num_clusters)
        .map(|j| {
            if config.num_clusters == 1 {
                config.spread_tight
            } else {
                let t = j as f32 / (config.num_clusters - 1) as f32;
                config.spread_tight + t * (config.spread_loose - config.spread_tight)
            }
        })
        .collect();
    rng.shuffle(&mut spreads);

    // Class prototypes: centre + spread-scaled offset.
    let mut class_cluster = Vec::with_capacity(config.num_classes);
    let mut class_spread = Vec::with_capacity(config.num_classes);
    let mut prototypes = Vec::with_capacity(config.num_classes);
    for c in 0..config.num_classes {
        let j = (c * config.num_clusters) / config.num_classes;
        let spread = spreads[j];
        let proto: Vec<f32> = centres[j].iter().map(|&v| v + spread * rng.normal()).collect();
        class_cluster.push(j);
        class_spread.push(spread);
        prototypes.push(proto);
    }

    let make_split = |per_class: usize, rng: &mut Rng| -> (Dataset, Vec<f32>) {
        let n = per_class * config.num_classes;
        let img_len = 3 * config.image_hw * config.image_hw;
        let mut data = Vec::with_capacity(n * img_len);
        let mut labels = Vec::with_capacity(n);
        let mut noises = Vec::with_capacity(n);
        for (class, proto) in prototypes.iter().enumerate().take(config.num_classes) {
            for _ in 0..per_class {
                // Long-tailed instance noise: exponential, clipped.
                let noise = (-rng.uniform().max(1e-9).ln() * config.noise_mean).min(config.noise_cap);
                let coeffs: Vec<f32> = proto.iter().map(|&p| p + noise * rng.normal()).collect();
                let mut img = dict.render(&coeffs);
                for v in &mut img {
                    *v += 0.3 * noise * rng.normal(); // pixel-level noise
                }
                data.extend_from_slice(&img);
                labels.push(class);
                noises.push(noise);
            }
        }
        let images = Tensor::from_vec(data, &[n, 3, config.image_hw, config.image_hw])
            .expect("generated data length matches shape");
        (Dataset::new(images, labels, config.num_classes), noises)
    };

    let (train, _train_noise) = make_split(config.train_per_class, &mut rng);
    let (test, test_noise) = make_split(config.test_per_class, &mut rng);
    DatasetBundle { train, test, class_cluster, class_spread, test_noise }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig {
            num_classes: 8,
            num_clusters: 4,
            image_hw: 8,
            feature_dim: 10,
            train_per_class: 6,
            test_per_class: 3,
            cluster_separation: 3.0,
            spread_tight: 0.2,
            spread_loose: 1.5,
            noise_mean: 0.3,
            noise_cap: 1.5,
            seed: 11,
        }
    }

    #[test]
    fn generates_requested_counts() {
        let b = generate(&small_config());
        assert_eq!(b.train.len(), 48);
        assert_eq!(b.test.len(), 24);
        assert_eq!(b.class_cluster.len(), 8);
        assert_eq!(b.test_noise.len(), 24);
        assert_eq!(b.train.images.dims(), &[48, 3, 8, 8]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.train.images, b.train.images);
        assert_eq!(a.test.labels, b.test.labels);
        let mut cfg = small_config();
        cfg.seed = 999;
        let c = generate(&cfg);
        assert_ne!(a.train.images, c.train.images);
    }

    #[test]
    fn classes_in_same_cluster_are_closer() {
        // Same-cluster test images should be more similar on average than
        // cross-cluster images — the mechanism behind hard classes.
        let b = generate(&small_config());
        let img_len = 3 * 8 * 8;
        let dist = |i: usize, j: usize| -> f32 {
            let a = &b.test.images.as_slice()[i * img_len..(i + 1) * img_len];
            let c = &b.test.images.as_slice()[j * img_len..(j + 1) * img_len];
            a.iter().zip(c).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..b.test.len() {
            for j in (i + 1)..b.test.len() {
                let (ci, cj) = (b.test.labels[i], b.test.labels[j]);
                if ci == cj {
                    continue; // compare *different* classes only
                }
                if b.class_cluster[ci] == b.class_cluster[cj] {
                    same.push(dist(i, j));
                } else {
                    diff.push(dist(i, j));
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&same) < mean(&diff),
            "same-cluster distance {} should be below cross-cluster {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn noise_distribution_is_long_tailed() {
        let mut cfg = small_config();
        cfg.test_per_class = 200;
        let b = generate(&cfg);
        let mean = b.test_noise.iter().sum::<f32>() / b.test_noise.len() as f32;
        assert!((mean - cfg.noise_mean).abs() < 0.1, "noise mean {mean}");
        // A visible tail beyond 2× the mean.
        let tail = b.test_noise.iter().filter(|&&v| v > 2.0 * cfg.noise_mean).count();
        assert!(tail > b.test_noise.len() / 20, "tail count {tail}");
    }

    #[test]
    #[should_panic(expected = "spread_tight must not exceed")]
    fn invalid_spreads_rejected() {
        let mut cfg = small_config();
        cfg.spread_tight = 2.0;
        cfg.spread_loose = 0.1;
        generate(&cfg);
    }
}
