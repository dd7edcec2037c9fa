//! Weight initialisation: Kaiming (He) normal for conv/linear layers.

use mea_tensor::{Rng, Tensor};

/// Kaiming-normal initialisation for a convolution weight of shape
/// `[out_c, in_c·kh·kw]`: `N(0, sqrt(2 / fan_in))`, the standard choice for
/// ReLU networks (He et al., 2015) and what PyTorch uses for ResNets.
pub(crate) fn kaiming_conv(out_c: usize, fan_in: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn([out_c, fan_in], std, rng)
}

/// Kaiming-uniform initialisation for a linear weight of shape
/// `[out_f, in_f]` (PyTorch's `nn.Linear` default: `U(-1/√in, 1/√in)`).
pub(crate) fn linear_weight(out_f: usize, in_f: usize, rng: &mut Rng) -> Tensor {
    let bound = 1.0 / (in_f as f32).sqrt();
    Tensor::rand_uniform([out_f, in_f], -bound, bound, rng)
}

/// Bias initialisation matching PyTorch's `nn.Linear` default.
pub(crate) fn linear_bias(out_f: usize, in_f: usize, rng: &mut Rng) -> Tensor {
    let bound = 1.0 / (in_f as f32).sqrt();
    Tensor::rand_uniform([out_f], -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_variance_tracks_fan_in() {
        let mut rng = Rng::new(0);
        let w = kaiming_conv(64, 9 * 16, &mut rng);
        let mean = w.mean();
        let var = w.as_slice().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / w.numel() as f64;
        let expected = 2.0 / (9.0 * 16.0);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - expected).abs() < 0.2 * expected, "var {var} vs {expected}");
    }

    #[test]
    fn linear_weight_is_bounded() {
        let mut rng = Rng::new(1);
        let w = linear_weight(10, 25, &mut rng);
        let bound = 1.0 / 5.0;
        assert!(w.as_slice().iter().all(|&x| x >= -bound && x < bound));
    }
}
