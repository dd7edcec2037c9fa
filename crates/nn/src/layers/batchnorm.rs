//! 2-D batch normalisation with running statistics.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::Tensor;

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// Batch normalisation over the channel axis of `[N, C, H, W]` tensors.
///
/// Training mode normalises with batch statistics and updates running
/// estimates (PyTorch semantics: biased variance for normalisation, unbiased
/// for the running update). Eval mode — which is also how frozen MEANet main
/// blocks run — uses the running estimates and caches nothing.
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    per_channel: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with unit scale and zero shift.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            gamma: Param::new(Tensor::ones([channels])),
            beta: Param::new(Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// Per-channel `(scale, shift)` that folds this layer's *inference*
    /// transform into a preceding convolution:
    /// `y_c = scale_c · x_c + shift_c` with
    /// `scale_c = γ_c / √(σ²_c + ε)` and `shift_c = β_c − scale_c · µ_c`,
    /// where µ/σ² are the running statistics. Used by the post-training
    /// quantizer's conv+BN fusion.
    pub fn fold_params(&self) -> (Vec<f32>, Vec<f32>) {
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        let mut scale = Vec::with_capacity(self.channels);
        let mut shift = Vec::with_capacity(self.channels);
        for c in 0..self.channels {
            let s = gamma[c] / (self.running_var[c] + EPS).sqrt();
            scale.push(s);
            shift.push(beta[c] - s * self.running_mean[c]);
        }
        (scale, shift)
    }

    fn dims(&self, x: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(x.shape().rank(), 4, "BatchNorm2d expects NCHW, got {}", x.shape());
        assert_eq!(
            x.dims()[1],
            self.channels,
            "BatchNorm2d expects {} channels, got {}",
            self.channels,
            x.dims()[1]
        );
        (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3])
    }
}

impl Layer for BatchNorm2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.clone(), mode)
    }

    fn forward_owned(&mut self, mut out: Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = self.dims(&out);
        let plane = h * w;
        let m = n * plane; // samples per channel
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();

        if mode.is_train() {
            assert!(m > 1, "BatchNorm2d training needs more than one sample per channel");
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            let src = out.as_slice();
            for img in 0..n {
                for (ch, acc) in mean.iter_mut().enumerate() {
                    let base = (img * c + ch) * plane;
                    for &v in &src[base..base + plane] {
                        *acc += v;
                    }
                }
            }
            for v in &mut mean {
                *v /= m as f32;
            }
            for img in 0..n {
                for (ch, acc) in var.iter_mut().enumerate() {
                    let base = (img * c + ch) * plane;
                    let mu = mean[ch];
                    for &v in &src[base..base + plane] {
                        *acc += (v - mu) * (v - mu);
                    }
                }
            }
            for v in &mut var {
                *v /= m as f32;
            }

            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
            let mut xhat = out.clone();
            {
                let xh = xhat.as_mut_slice();
                let o = out.as_mut_slice();
                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * plane;
                        let (mu, is) = (mean[ch], inv_std[ch]);
                        let (g, b) = (gamma[ch], beta[ch]);
                        for i in base..base + plane {
                            let normed = (xh[i] - mu) * is;
                            xh[i] = normed;
                            o[i] = g * normed + b;
                        }
                    }
                }
            }
            // Running statistics use the unbiased variance, like PyTorch.
            let unbias = m as f32 / (m as f32 - 1.0);
            for ch in 0..c {
                self.running_mean[ch] = (1.0 - MOMENTUM) * self.running_mean[ch] + MOMENTUM * mean[ch];
                self.running_var[ch] = (1.0 - MOMENTUM) * self.running_var[ch] + MOMENTUM * var[ch] * unbias;
            }
            self.cache = Some(Cache { xhat, inv_std, per_channel: m });
        } else {
            let o = out.as_mut_slice();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * plane;
                    let mu = self.running_mean[ch];
                    let is = 1.0 / (self.running_var[ch] + EPS).sqrt();
                    let (g, b) = (gamma[ch], beta[ch]);
                    for v in &mut o[base..base + plane] {
                        *v = g * (*v - mu) * is + b;
                    }
                }
            }
            self.cache = None;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("BatchNorm2d::backward without training forward");
        let (n, c, h, w) = self.dims(grad_out);
        let plane = h * w;
        let m = cache.per_channel as f32;
        assert_eq!(n * plane, cache.per_channel, "batch geometry changed between forward and backward");

        let g = grad_out.as_slice();
        let xhat = cache.xhat.as_slice();
        // Per-channel reductions: Σ dout and Σ dout·x̂.
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gx = vec![0.0f32; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    sum_g[ch] += g[i];
                    sum_gx[ch] += g[i] * xhat[i];
                }
            }
        }
        for ch in 0..c {
            self.beta.grad.as_mut_slice()[ch] += sum_g[ch];
            self.gamma.grad.as_mut_slice()[ch] += sum_gx[ch];
        }

        // dx = γ·inv_std/m · (m·dout − Σdout − x̂·Σ(dout·x̂))
        let gamma = self.gamma.value.as_slice();
        let mut grad_in = Tensor::zeros(grad_out.shape().clone());
        let gi = grad_in.as_mut_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                let k = gamma[ch] * cache.inv_std[ch] / m;
                let (sg, sgx) = (sum_g[ch], sum_gx[ch]);
                for i in base..base + plane {
                    gi[i] = k * (m * g[i] - sg - xhat[i] * sgx);
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        // ptflops counts BN as zero MACs; shape is unchanged.
        (0, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::zero_grads;
    use mea_tensor::Rng;

    #[test]
    fn train_forward_normalises_batch() {
        let mut rng = Rng::new(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn([4, 3, 5, 5], 2.0, &mut rng).map(|v| v + 3.0);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ≈ 0, var ≈ 1 after normalisation (γ=1, β=0).
        for ch in 0..3 {
            let mut vals = Vec::new();
            for img in 0..4 {
                let base = (img * 3 + ch) * 25;
                vals.extend_from_slice(&y.as_slice()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {ch} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng::new(1);
        let mut bn = BatchNorm2d::new(2);
        // Several training passes to settle running stats.
        for _ in 0..50 {
            let x = Tensor::randn([8, 2, 4, 4], 1.0, &mut rng).map(|v| v + 5.0);
            let _ = bn.forward(&x, Mode::Train);
        }
        // In eval, a batch from the same distribution should come out with
        // roughly zero mean.
        let x = Tensor::randn([8, 2, 4, 4], 1.0, &mut rng).map(|v| v + 5.0);
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.mean().abs() < 0.3, "eval mean {}", y.mean());
        assert!(bn.cache.is_none());
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::new(2);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial γ/β.
        bn.gamma.value.as_mut_slice().copy_from_slice(&[1.5, 0.7]);
        bn.beta.value.as_mut_slice().copy_from_slice(&[0.3, -0.2]);
        let x = Tensor::randn([3, 2, 3, 3], 1.0, &mut rng);
        let wsum = Tensor::randn([3, 2, 3, 3], 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f64 {
            let y = bn.forward(x, Mode::Train);
            y.as_slice().iter().zip(wsum.as_slice()).map(|(&a, &b)| (a * b) as f64).sum()
        };
        let _ = loss(&mut bn, &x);
        zero_grads(&mut bn);
        let _ = bn.forward(&x, Mode::Train);
        let gx = bn.backward(&wsum);
        let eps = 1e-2f32;
        for &idx in &[0usize, 10, 33, 53] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            // Keep running stats fixed between probes by restoring them.
            let (rm, rv) = (bn.running_mean.clone(), bn.running_var.clone());
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps as f64);
            bn.running_mean = rm;
            bn.running_var = rv;
            let ana = gx.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 3e-2 * (1.0 + ana.abs()), "input grad {idx}: {num} vs {ana}");
        }
        // γ and β grads.
        zero_grads(&mut bn);
        let _ = bn.forward(&x, Mode::Train);
        let _ = bn.backward(&wsum);
        for ch in 0..2 {
            let orig = bn.gamma.value.as_slice()[ch];
            bn.gamma.value.as_mut_slice()[ch] = orig + eps;
            let lp = loss(&mut bn, &x);
            bn.gamma.value.as_mut_slice()[ch] = orig - eps;
            let lm = loss(&mut bn, &x);
            bn.gamma.value.as_mut_slice()[ch] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = bn.gamma.grad.as_slice()[ch] as f64;
            assert!((num - ana).abs() < 3e-2 * (1.0 + ana.abs()), "gamma grad {ch}: {num} vs {ana}");
        }
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let bn = BatchNorm2d::new(16);
        assert_eq!(bn.param_count(), 32);
        let (macs, out) = bn.macs(&[16, 8, 8]);
        assert_eq!(macs, 0);
        assert_eq!(out, vec![16, 8, 8]);
    }
}
