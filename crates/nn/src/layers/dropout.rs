//! Inverted dropout for the extension-block classifier head.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::{Rng, Tensor};
use std::cell::RefCell;

/// Inverted dropout: active in training mode only, identity in eval.
///
/// Each kept unit is scaled by `1 / (1 - p)` so eval needs no rescaling.
pub struct Dropout {
    p: f32,
    rng: RefCell<Rng>,
    mask: Option<Tensor>,
}

impl std::fmt::Debug for Dropout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dropout").field("p", &self.p).finish()
    }
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own seeded
    /// random stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1), got {p}");
        Dropout { p, rng: RefCell::new(Rng::new(seed)), mask: None }
    }
}

impl Layer for Dropout {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.clone(), mode)
    }

    fn forward_owned(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        if !mode.is_train() || self.p == 0.0 {
            self.mask = None;
            return x;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut rng = self.rng.borrow_mut();
        let mask = x.map(|_| if rng.bernoulli(keep) { scale } else { 0.0 });
        drop(rng);
        for (a, m) in x.as_mut_slice().iter_mut().zip(mask.as_slice()) {
            *a *= m;
        }
        self.mask = Some(mask);
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_out.zip_with(mask, |g, m| g * m),
            // p == 0 or eval forward: identity.
            None => grad_out.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn clear_cache(&mut self) {
        self.mask = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones([4, 4]);
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y, x);
    }

    #[test]
    fn train_preserves_expected_magnitude() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones([64, 64]);
        let y = d.forward(&x, Mode::Train);
        // Inverted dropout keeps E[y] == E[x].
        assert!((y.mean() - 1.0).abs() < 0.1, "mean {}", y.mean());
        // Some units are dropped, survivors are scaled by 2.
        assert!(y.as_slice().contains(&0.0));
        assert!(y.as_slice().iter().any(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones([8, 8]);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::ones([8, 8]));
        // Gradient flows exactly where the forward survived.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }
}
