//! Pointwise activations: ReLU and ReLU6 (MobileNetV2).

use crate::layer::{Layer, Mode, Param};
use mea_tensor::Tensor;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Relu,
    Relu6,
}

/// A pointwise activation layer.
#[derive(Debug)]
pub struct Activation {
    kind: Kind,
    cache: Option<Tensor>,
}

impl Activation {
    /// Standard rectified linear unit.
    pub fn relu() -> Self {
        Activation { kind: Kind::Relu, cache: None }
    }

    /// ReLU clamped at 6, as used throughout MobileNetV2.
    pub fn relu6() -> Self {
        Activation { kind: Kind::Relu6, cache: None }
    }

    /// The upper clamp of this activation: `None` for plain ReLU,
    /// `Some(6.0)` for ReLU6. (Both clamp below at zero.)
    pub fn clamp_max(&self) -> Option<f32> {
        match self.kind {
            Kind::Relu => None,
            Kind::Relu6 => Some(6.0),
        }
    }
}

impl Layer for Activation {
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
        self.cache = mode.is_train().then(|| x.clone());
        match self.kind {
            Kind::Relu => x.map_inplace(|v| v.max(0.0)),
            Kind::Relu6 => x.map_inplace(|v| v.clamp(0.0, 6.0)),
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.as_ref().expect("Activation::backward without training forward");
        match self.kind {
            Kind::Relu => grad_out.zip_with(x, |g, v| if v > 0.0 { g } else { 0.0 }),
            Kind::Relu6 => grad_out.zip_with(x, |g, v| if v > 0.0 && v < 6.0 { g } else { 0.0 }),
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
        match self.kind {
            Kind::Relu => "ReLU",
            Kind::Relu6 => "ReLU6",
        }
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut act = Activation::relu();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0, 3.0], &[2, 2]).unwrap();
        let y = act.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = act.backward(&Tensor::ones([2, 2]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu6_clamps_and_gates_gradient() {
        let mut act = Activation::relu6();
        let x = Tensor::from_vec(vec![-1.0, 3.0, 7.0, 6.0], &[2, 2]).unwrap();
        let y = act.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 3.0, 6.0, 6.0]);
        let g = act.backward(&Tensor::ones([2, 2]));
        // Gradient flows only strictly inside (0, 6).
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }
}
