//! The [`Layer`] trait: explicit forward/backward with per-layer caches.

use mea_tensor::Tensor;

/// Whether a forward pass should cache intermediates for a later backward
/// pass (and use batch statistics in normalisation layers).
///
/// Frozen blocks of a MEANet always run in [`Mode::Eval`]; this is what
/// eliminates their activation/gradient memory in blockwise training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: cache intermediates, use batch statistics.
    Train,
    /// Inference / frozen: no caches, use running statistics.
    Eval,
}

impl Mode {
    /// True in [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A learnable parameter: value plus gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Tensor,
    /// Gradient of the loss with respect to [`Param::value`], accumulated by
    /// `backward` and cleared by [`Param::zero_grad`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with a zeroed gradient.
    pub(crate) fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// A differentiable network component.
///
/// The contract between `forward` and `backward`:
///
/// * `backward` may only be called after a `forward` with [`Mode::Train`] on
///   the same input batch; implementations panic otherwise.
/// * `backward` receives the gradient of the loss with respect to the
///   layer's *output* and returns the gradient with respect to its *input*,
///   accumulating parameter gradients into its [`Param`]s along the way.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// [`Layer::forward`] for a caller that is done with `x`: the same
    /// output, bit for bit, but a shape-preserving layer may write it over
    /// `x` instead of allocating. Containers hand each intermediate
    /// activation to the next layer this way. The default borrows `x`.
    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        self.forward(&x, mode)
    }

    /// Backpropagates `grad_out`, returning the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every learnable parameter in a deterministic order.
    /// Parameter-free layers use the default empty implementation.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-learnable state buffer (batch-norm running
    /// statistics) in a deterministic order. Layers without buffers use
    /// the default empty implementation. Containers must forward to their
    /// children so that state-dict capture sees the whole model.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Total number of scalar learnable parameters.
    fn param_count(&self) -> usize;

    /// Multiply-adds needed for one *single-image* forward pass given an
    /// input of shape `[C, H, W]` (batch dimension excluded), together with
    /// the output shape. Pointwise layers cost zero MACs by the ptflops
    /// convention used in the paper's Table VI.
    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>);

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Per-image activation elements produced by this layer (used by the
    /// training-memory model of Fig. 6). Defaults to the output size implied
    /// by [`Layer::macs`].
    fn activation_elems(&self, in_shape: &[usize]) -> u64 {
        let (_, out) = self.macs(in_shape);
        out.iter().product::<usize>() as u64
    }

    /// Drops cached activations (after an optimisation step, or to shrink a
    /// model kept only for inference).
    fn clear_cache(&mut self) {}

    /// Type-erased view for downcasting, used by graph walkers that need to
    /// recognise concrete layers (the post-training quantizer, the DNN
    /// partitioner, the state-dict serializer).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable counterpart of [`Layer::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Clears the gradients of every parameter in `layer`.
pub fn zero_grads(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| p.zero_grad());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad_clears() {
        let mut p = Param::new(Tensor::ones([2, 2]));
        p.grad.fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0; 4]);
        assert_eq!(p.numel(), 4);
    }

    #[test]
    fn mode_predicates() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }
}
