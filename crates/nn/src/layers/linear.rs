//! Fully connected (dense) layer — the classifier "exit" of each MEANet
//! block.

use crate::init;
use crate::layer::{Layer, Mode, Param};
use mea_tensor::{matmul, ops, Rng, Tensor};

/// `y = x·Wᵀ + b` over `[N, in_features]` inputs.
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with PyTorch-default uniform initialisation.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            in_features,
            out_features,
            weight: Param::new(init::linear_weight(out_features, in_features, rng)),
            bias: Param::new(init::linear_bias(out_features, in_features, rng)),
            cache: None,
        }
    }

    /// The `[out_features, in_features]` weight matrix.
    pub fn weight_value(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector.
    pub fn bias_value(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Linear {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Linear expects [N, features], got {}", x.shape());
        assert_eq!(
            x.dims()[1],
            self.in_features,
            "Linear expects {} features, got {}",
            self.in_features,
            x.dims()[1]
        );
        let mut y = matmul::matmul_a_bt(x, &self.weight.value);
        ops::add_bias_rows(&mut y, &self.bias.value);
        self.cache = mode.is_train().then(|| x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.as_ref().expect("Linear::backward without training forward");
        // dW [out, in] = dYᵀ · X ; db = Σ rows(dY) ; dX = dY · W.
        self.weight.grad.add_assign(&matmul::matmul_at_b(grad_out, x));
        self.bias.grad.add_assign(&ops::bias_grad_rows(grad_out));
        matmul::matmul(grad_out, &self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        assert_eq!(in_shape, [self.in_features], "Linear::macs expects [{}], got {in_shape:?}", self.in_features);
        ((self.in_features * self.out_features) as u64, vec![self.out_features])
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::zero_grads;

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng::new(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        lin.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0], &[2, 3]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = lin.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[1.5, 4.5]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::new(1);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn([5, 4], 1.0, &mut rng);
        let wsum = Tensor::randn([5, 3], 1.0, &mut rng);
        let loss = |l: &mut Linear, x: &Tensor| -> f64 {
            let y = l.forward(x, Mode::Train);
            y.as_slice().iter().zip(wsum.as_slice()).map(|(&a, &b)| (a * b) as f64).sum()
        };
        let _ = loss(&mut lin, &x);
        zero_grads(&mut lin);
        let _ = lin.forward(&x, Mode::Train);
        let gx = lin.backward(&wsum);
        let eps = 1e-2f32;
        for idx in [0usize, 7, 19] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut lin, &xp) - loss(&mut lin, &xm)) / (2.0 * eps as f64);
            let ana = gx.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "{num} vs {ana}");
        }
        zero_grads(&mut lin);
        let _ = lin.forward(&x, Mode::Train);
        let _ = lin.backward(&wsum);
        for idx in [0usize, 5, 11] {
            let orig = lin.weight.value.as_slice()[idx];
            lin.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut lin, &x);
            lin.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut lin, &x);
            lin.weight.value.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = lin.weight.grad.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "{num} vs {ana}");
        }
    }

    #[test]
    fn counts() {
        let mut rng = Rng::new(0);
        let lin = Linear::new(64, 100, &mut rng);
        assert_eq!(lin.param_count(), 64 * 100 + 100);
        assert_eq!(lin.macs(&[64]), (6400, vec![100]));
    }
}
