//! Input-difficulty prediction: route requests *before* running the
//! network.
//!
//! Algorithm 2 decides an instance's exit from its main-exit entropy —
//! which means every instance pays the main block first, even the ones a
//! glance could classify. Following the data-cartography idea (cluster
//! training dynamics into easy / ambiguous / hard), this module clusters
//! the *main-exit confidence trajectory* of a calibration set into three
//! 1-D entropy clusters and fits a cheap ridge regressor from raw input
//! statistics (mean, spread, extrema, high-frequency energy) to the
//! entropy, so a serving edge worker can ask "how hard does this look?"
//! without any forward pass:
//!
//! * **Easy** requests go straight to the local exits — the main exit is
//!   still evaluated (its prediction is the answer), but the offload
//!   machinery is skipped entirely.
//! * **Hard** requests pre-commit to the cloud leg without evaluating the
//!   main exit at all — the saving the paper's always-evaluate pipeline
//!   leaves on the table.
//! * **Ambiguous** requests fall through to the full Algorithm-2 plan.
//!
//! The predictor is deliberately tiny (seven f64 coefficients and two
//! thresholds): it must cost less than the main block it saves, and it
//! must be deterministic so serving stays reproducible.

use crate::model::MeaNet;
use crate::routing::RoutingEngine;
use mea_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Predicted difficulty band of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Difficulty {
    /// Confident-main territory: evaluate the main exit and finish
    /// locally; skip the offload decision.
    Easy,
    /// No call either way: run the full Algorithm-2 plan.
    Ambiguous,
    /// Predicted-complex input: pre-commit to the cloud without paying
    /// the main exit.
    Hard,
}

/// Number of input statistics the regressor consumes (bias excluded).
const N_FEATURES: usize = 6;

/// Ridge penalty on the normal equations. The features are on wildly
/// different scales (means vs gradient energies), so a small absolute
/// penalty only guards the solve against a degenerate calibration set.
const RIDGE_LAMBDA: f64 = 1e-3;

/// Rounds of 1-D Lloyd iteration for the entropy clustering.
const KMEANS_ROUNDS: usize = 64;

/// A calibrated easy / ambiguous / hard input router.
///
/// Built by [`DifficultyPredictor::calibrate`] from a trained net and a
/// calibration batch; consumed per request by
/// [`DifficultyPredictor::predict`], which needs only the raw input
/// tensor — no forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DifficultyPredictor {
    /// Regression coefficients over the input statistics, bias last.
    weights: Vec<f64>,
    /// Predicted entropies strictly below this are `Easy`.
    easy_below: f32,
    /// Predicted entropies strictly above this are `Hard`.
    hard_above: f32,
}

impl DifficultyPredictor {
    /// Calibrates a predictor: runs the main exit over `images` in
    /// batches of `batch`, clusters the observed entropies into three
    /// 1-D clusters (easy / ambiguous / hard centroids; the decision
    /// thresholds are the midpoints between adjacent centroids), and
    /// ridge-fits the input-statistics regressor to the entropies.
    ///
    /// Deterministic: same net and images, same predictor.
    ///
    /// # Panics
    ///
    /// Panics if `images` holds fewer than 3 instances or `batch == 0`.
    pub fn calibrate(net: &mut MeaNet, images: &Tensor, batch: usize) -> DifficultyPredictor {
        let n = images.dims()[0];
        assert!(n >= 3, "difficulty calibration needs at least 3 images, got {n}");
        assert!(batch > 0, "calibration batch must be at least 1");

        let mut entropies: Vec<f32> = Vec::with_capacity(n);
        let mut features: Vec<[f64; N_FEATURES]> = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let chunk = images.slice_axis0(start, end);
            let main = RoutingEngine::evaluate_main(net, &chunk);
            entropies.extend_from_slice(&main.entropies);
            for i in start..end {
                features.push(input_stats(&images.slice_axis0(i, i + 1)));
            }
            start = end;
        }

        let centroids = kmeans3(&entropies);
        let weights = ridge_fit(&features, &entropies);
        DifficultyPredictor {
            weights,
            easy_below: ((centroids[0] + centroids[1]) / 2.0) as f32,
            hard_above: ((centroids[1] + centroids[2]) / 2.0) as f32,
        }
    }

    /// Predicts the main-exit entropy of `image` (any tensor whose last
    /// two axes are spatial) from its input statistics alone.
    pub fn predict_entropy(&self, image: &Tensor) -> f32 {
        let stats = input_stats(image);
        let mut e = self.weights[N_FEATURES];
        for (w, x) in self.weights[..N_FEATURES].iter().zip(stats) {
            e += w * x;
        }
        e.max(0.0) as f32
    }

    /// Predicts the difficulty band of `image` without a forward pass.
    pub fn predict(&self, image: &Tensor) -> Difficulty {
        self.classify_entropy(self.predict_entropy(image))
    }

    /// Classifies an entropy value (predicted or measured) against the
    /// calibrated cluster boundaries.
    pub(crate) fn classify_entropy(&self, entropy: f32) -> Difficulty {
        if entropy < self.easy_below {
            Difficulty::Easy
        } else if entropy > self.hard_above {
            Difficulty::Hard
        } else {
            Difficulty::Ambiguous
        }
    }
}

/// The six input statistics the regressor sees: mean, standard
/// deviation, min, max, and mean absolute horizontal / vertical
/// neighbour differences (high-frequency energy). All computable in one
/// pass over the raw pixels.
fn input_stats(image: &Tensor) -> [f64; N_FEATURES] {
    let dims = image.dims();
    assert!(dims.len() >= 2, "input statistics need spatial axes, got shape {dims:?}");
    let w = dims[dims.len() - 1];
    let h = dims[dims.len() - 2];
    let data = image.as_slice();
    let n = data.len() as f64;

    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in data {
        let v = v as f64;
        sum += v;
        sum_sq += v * v;
        min = min.min(v);
        max = max.max(v);
    }
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);

    // Neighbour differences within each H×W plane.
    let plane = h * w;
    let planes = data.len() / plane;
    let mut dx = 0.0f64;
    let mut dy = 0.0f64;
    let mut dx_n = 0u64;
    let mut dy_n = 0u64;
    for p in 0..planes {
        let base = p * plane;
        for r in 0..h {
            for c in 0..w.saturating_sub(1) {
                dx += (data[base + r * w + c + 1] - data[base + r * w + c]).abs() as f64;
                dx_n += 1;
            }
        }
        for r in 0..h.saturating_sub(1) {
            for c in 0..w {
                dy += (data[base + (r + 1) * w + c] - data[base + r * w + c]).abs() as f64;
                dy_n += 1;
            }
        }
    }
    let dx = if dx_n > 0 { dx / dx_n as f64 } else { 0.0 };
    let dy = if dy_n > 0 { dy / dy_n as f64 } else { 0.0 };

    [mean, var.sqrt(), min, max, dx, dy]
}

/// 1-D 3-means over the calibration entropies. Initialised at the 1/6,
/// 1/2 and 5/6 quantiles of the sorted values (spread across the mass,
/// deterministic); an emptied cluster keeps its previous centroid.
/// Returns the centroids ascending.
fn kmeans3(values: &[f32]) -> [f64; 3] {
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite entropies"));
    let n = sorted.len();
    let mut c = [sorted[n / 6], sorted[n / 2], sorted[(5 * n) / 6]];
    for _ in 0..KMEANS_ROUNDS {
        let mut sums = [0.0f64; 3];
        let mut counts = [0u64; 3];
        for &v in &sorted {
            let mut best = 0;
            for k in 1..3 {
                if (v - c[k]).abs() < (v - c[best]).abs() {
                    best = k;
                }
            }
            sums[best] += v;
            counts[best] += 1;
        }
        let mut next = c;
        for k in 0..3 {
            if counts[k] > 0 {
                next[k] = sums[k] / counts[k] as f64;
            }
        }
        if next == c {
            break;
        }
        c = next;
    }
    c.sort_by(|a, b| a.partial_cmp(b).expect("finite centroids"));
    c
}

/// Ridge regression of entropy on the input statistics via the normal
/// equations `(XᵀX + λI) w = Xᵀy`, solved by Gaussian elimination with
/// partial pivoting. Bias column appended (and regularised like the
/// rest — λ is tiny).
fn ridge_fit(features: &[[f64; N_FEATURES]], targets: &[f32]) -> Vec<f64> {
    const D: usize = N_FEATURES + 1;
    let mut xtx = [[0.0f64; D]; D];
    let mut xty = [0.0f64; D];
    for (f, &y) in features.iter().zip(targets) {
        let mut row = [0.0f64; D];
        row[..N_FEATURES].copy_from_slice(f);
        row[N_FEATURES] = 1.0;
        let y = y as f64;
        for i in 0..D {
            for j in 0..D {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * y;
        }
    }
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += RIDGE_LAMBDA;
    }

    // Gaussian elimination with partial pivoting on [XᵀX | Xᵀy].
    let mut a = xtx;
    let mut b = xty;
    for col in 0..D {
        let pivot = (col..D)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite"))
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue; // degenerate direction: ridge keeps this harmless
        }
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for (off, row) in rest.iter_mut().enumerate() {
            let factor = row[col] / diag;
            for (k, &p) in pivot_row.iter().enumerate().skip(col) {
                row[k] -= factor * p;
            }
            b[col + 1 + off] -= factor * b[col];
        }
    }
    let mut w = vec![0.0f64; D];
    for col in (0..D).rev() {
        let mut acc = b[col];
        for k in col + 1..D {
            acc -= a[col][k] * w[k];
        }
        w[col] = if a[col][col].abs() < 1e-30 { 0.0 } else { acc / a[col][col] };
    }
    w
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
    fn calibration_is_deterministic_and_batch_invariant() {
        let bundle = presets::tiny(40);
        let a = DifficultyPredictor::calibrate(&mut tiny_net(7), &bundle.test.images, 8);
        let b = DifficultyPredictor::calibrate(&mut tiny_net(7), &bundle.test.images, 8);
        assert_eq!(a, b, "same inputs must calibrate identically");
        // Eval forwards are per-sample independent, so the batch size is
        // a pure scheduling knob for calibration too.
        let c = DifficultyPredictor::calibrate(&mut tiny_net(7), &bundle.test.images, 3);
        assert_eq!((a.easy_below, a.hard_above), (c.easy_below, c.hard_above));
    }

    #[test]
    fn centroids_and_thresholds_are_ordered() {
        let bundle = presets::tiny(41);
        let mut net = tiny_net(8);
        let p = DifficultyPredictor::calibrate(&mut net, &bundle.test.images, 16);
        let entropies = RoutingEngine::evaluate_main(&mut net, &bundle.test.images).entropies;
        let centroids = kmeans3(&entropies);
        let [c0, c1, c2] = centroids.map(|c| c as f32);
        assert!(c0 <= c1 && c1 <= c2, "centroids must ascend: {centroids:?}");
        let (easy, hard) = (p.easy_below, p.hard_above);
        assert!(easy <= hard, "boundaries must ascend: {easy} vs {hard}");
        assert!(c0 <= easy && easy <= c1, "easy boundary sits between its centroids");
        assert!(c1 <= hard && hard <= c2, "hard boundary sits between its centroids");
    }

    #[test]
    fn classify_entropy_respects_the_boundaries() {
        let bundle = presets::tiny(42);
        let p = DifficultyPredictor::calibrate(&mut tiny_net(9), &bundle.test.images, 16);
        let (easy, hard) = (p.easy_below, p.hard_above);
        assert_eq!(p.classify_entropy(0.0), Difficulty::Easy);
        if hard > easy {
            assert_eq!(p.classify_entropy((easy + hard) / 2.0), Difficulty::Ambiguous);
        }
        assert_eq!(p.classify_entropy(hard + 1.0), Difficulty::Hard);
    }

    #[test]
    fn prediction_needs_no_forward_and_covers_every_band_boundary() {
        // The predictor must produce *some* split over a varied set and
        // be pure: identical tensors classify identically.
        let bundle = presets::tiny(43);
        let p = DifficultyPredictor::calibrate(&mut tiny_net(10), &bundle.test.images, 16);
        let n = bundle.test.images.dims()[0];
        for i in 0..n.min(8) {
            let img = bundle.test.images.slice_axis0(i, i + 1);
            assert_eq!(p.predict(&img), p.predict(&img));
            assert!(p.predict_entropy(&img) >= 0.0, "entropies are non-negative");
        }
    }

    #[test]
    fn regressor_recovers_a_linear_relationship_exactly() {
        // Synthetic check of the normal-equations solve: targets that
        // *are* a linear function of the statistics are recovered.
        let mut rng = Rng::new(3);
        let images: Vec<Tensor> = (0..24).map(|_| Tensor::randn([1, 2, 4, 4], 1.0, &mut rng)).collect();
        let features: Vec<[f64; N_FEATURES]> = images.iter().map(input_stats).collect();
        let targets: Vec<f32> =
            features.iter().map(|f| (0.3 * f[0] + 0.2 * f[1] - 0.1 * f[4] + 0.5) as f32).collect();
        let w = ridge_fit(&features, &targets);
        for (f, &y) in features.iter().zip(&targets) {
            let pred: f64 = f.iter().zip(&w[..N_FEATURES]).map(|(x, c)| x * c).sum::<f64>() + w[N_FEATURES];
            assert!((pred - y as f64).abs() < 1e-3, "ridge fit missed: {pred} vs {y}");
        }
    }

    #[test]
    fn kmeans_separates_three_obvious_clusters() {
        let mut vals = Vec::new();
        for i in 0..10 {
            vals.push(0.1 + 0.001 * i as f32);
            vals.push(1.0 + 0.001 * i as f32);
            vals.push(2.5 + 0.001 * i as f32);
        }
        let c = kmeans3(&vals);
        assert!((c[0] - 0.1045).abs() < 0.02, "{c:?}");
        assert!((c[1] - 1.0045).abs() < 0.02, "{c:?}");
        assert!((c[2] - 2.5045).abs() < 0.02, "{c:?}");
    }

    #[test]
    #[should_panic(expected = "at least 3 images")]
    fn too_small_calibration_rejected() {
        let bundle = presets::tiny(44);
        let two = bundle.test.images.slice_axis0(0, 2);
        let _ = DifficultyPredictor::calibrate(&mut tiny_net(11), &two, 8);
    }
}
