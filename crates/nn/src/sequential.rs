//! Sequential composition of layers.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::Tensor;
use std::borrow::Cow;

/// A chain of layers applied in order; the workhorse container for MEANet
/// blocks.
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// An empty container (identity function).
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the child layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the child layers (graph walkers run calibration
    /// forwards through individual children).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Splits off the layers from `at` onward into a new container,
    /// keeping `[0, at)` in `self`. Used to cut a backbone into MEANet's
    /// main and extension blocks (model A).
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Sequential {
        assert!(at <= self.layers.len(), "split_off index {at} > length {}", self.layers.len());
        Sequential { layers: self.layers.split_off(at) }
    }

    /// Absorbs all layers of `other`, appending them after `self`'s.
    pub fn append(&mut self, mut other: Sequential) {
        self.layers.append(&mut other.layers);
    }

    fn chain(&mut self, x: Cow<'_, Tensor>, mode: Mode) -> Tensor {
        chain(self.layers.iter_mut().map(|l| &mut **l as &mut dyn Layer), x, mode)
    }
}

/// Runs `layers` in order over `x`. A borrowed input is only ever read by
/// the first layer; every activation after it belongs to the chain and is
/// handed on by value, so shape-preserving layers work in place and nothing
/// is cloned on entry.
pub(crate) fn chain<'a>(
    layers: impl Iterator<Item = &'a mut dyn Layer>,
    x: Cow<'_, Tensor>,
    mode: Mode,
) -> Tensor {
    let mut cur = x;
    for layer in layers {
        cur = Cow::Owned(match cur {
            Cow::Borrowed(x) => layer.forward(x, mode),
            Cow::Owned(x) => layer.forward_owned(x, mode),
        });
    }
    cur.into_owned()
}

impl Layer for Sequential {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.chain(Cow::Borrowed(x), mode)
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        self.chain(Cow::Owned(x), mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        match layers.next() {
            Some(last) => layers.fold(last.backward(grad_out), |grad, layer| layer.backward(&grad)),
            None => grad_out.clone(),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let mut shape = in_shape.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            let (m, out) = layer.macs(&shape);
            total += m;
            shape = out;
        }
        (total, shape)
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn activation_elems(&self, in_shape: &[usize]) -> u64 {
        let mut shape = in_shape.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.activation_elems(&shape);
            let (_, out) = layer.macs(&shape);
            shape = out;
        }
        total
    }

    fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Conv2d, Flatten, GlobalAvgPool, Linear};
    use mea_tensor::Rng;

    fn tiny_net(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, false, rng)),
            Box::new(Activation::relu()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(4, 3, rng)),
        ])
    }

    #[test]
    fn forward_chains_shapes() {
        let mut rng = Rng::new(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([2, 1, 6, 6], 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn backward_returns_input_shaped_grad() {
        let mut rng = Rng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([2, 1, 6, 6], 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        let g = net.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn split_off_partitions_layers() {
        let mut rng = Rng::new(2);
        let mut net = tiny_net(&mut rng);
        let tail = {
            let total = net.param_count();
            let tail = net.split_off(2);
            assert_eq!(net.len(), 2);
            assert_eq!(tail.len(), 2);
            assert_eq!(net.param_count() + tail.param_count(), total);
            tail
        };
        // Chaining the halves equals the whole.
        let mut whole = tiny_net(&mut Rng::new(2));
        let mut head = tiny_net(&mut Rng::new(2));
        let _ = head.split_off(2);
        let mut tail2 = tail;
        let x = Tensor::randn([1, 1, 6, 6], 1.0, &mut Rng::new(3));
        let expect = whole.forward(&x, Mode::Eval);
        let mid = head.forward(&x, Mode::Eval);
        let got = tail2.forward(&mid, Mode::Eval);
        for (a, b) in expect.as_slice().iter().zip(got.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn macs_accumulate_through_chain() {
        let mut rng = Rng::new(0);
        let net = tiny_net(&mut rng);
        let (macs, out) = net.macs(&[1, 6, 6]);
        // conv: 4·1·9·36 = 1296, linear: 4·3 = 12
        assert_eq!(macs, 1296 + 12);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn flatten_in_chain() {
        let mut rng = Rng::new(4);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, false, &mut rng)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 4 * 4, 5, &mut rng)),
        ]);
        let x = Tensor::randn([3, 1, 4, 4], 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[3, 5]);
    }
}
