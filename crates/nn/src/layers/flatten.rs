//! Flatten `[N, C, H, W]` feature maps into `[N, C·H·W]` vectors.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::Tensor;

/// Reshapes all trailing axes into one feature axis.
#[derive(Debug)]
pub struct Flatten {
    cache_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cache_dims: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.clone(), mode)
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        self.cache_dims = mode.is_train().then(|| x.dims().to_vec());
        x.reshape(&[n, rest]).expect("flatten reshape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self.cache_dims.as_ref().expect("Flatten::backward without training forward");
        grad_out.clone().reshape(dims).expect("flatten backward reshape")
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, vec![in_shape.iter().product()])
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clear_cache(&mut self) {
        self.cache_dims = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::ones([2, 3, 2, 2]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
    }
}
