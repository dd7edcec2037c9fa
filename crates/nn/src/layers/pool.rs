//! Pooling layers wrapping the `mea_tensor::pool` kernels.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::{pool, Tensor};

/// Non-overlapping `k × k` average pooling.
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    cache_hw: Option<(usize, usize)>,
}

impl AvgPool2d {
    /// Pooling window / stride size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Creates an average pool with window and stride `k`.
    pub fn new(k: usize) -> Self {
        AvgPool2d { k, cache_hw: None }
    }
}

impl Layer for AvgPool2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let y = pool::avg_pool2d(x, self.k);
        self.cache_hw = mode.is_train().then(|| (x.dims()[2], x.dims()[3]));
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (h, w) = self.cache_hw.expect("AvgPool2d::backward without training forward");
        pool::avg_pool2d_backward(grad_out, self.k, h, w)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, vec![in_shape[0], in_shape[1] / self.k, in_shape[2] / self.k])
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }

    fn clear_cache(&mut self) {
        self.cache_hw = None;
    }
}

/// Non-overlapping `k × k` max pooling.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    cache: Option<(Vec<u32>, usize, Vec<usize>)>,
}

impl MaxPool2d {
    /// Pooling window / stride size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Creates a max pool with window and stride `k`.
    pub(crate) fn new(k: usize) -> Self {
        MaxPool2d { k, cache: None }
    }
}

impl Layer for MaxPool2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (y, argmax) = pool::max_pool2d(x, self.k);
        self.cache = mode.is_train().then(|| (argmax, x.numel(), x.dims().to_vec()));
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, numel, dims) = self.cache.as_ref().expect("MaxPool2d::backward without training forward");
        pool::max_pool2d_backward(grad_out, argmax, *numel).reshape(dims).expect("pool backward shape")
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, vec![in_shape[0], in_shape[1] / self.k, in_shape[2] / self.k])
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Global average pooling `[N, C, H, W] → [N, C]`, feeding the FC exit.
#[derive(Debug)]
pub struct GlobalAvgPool {
    cache_hw: Option<(usize, usize)>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool { cache_hw: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let y = pool::global_avg_pool(x);
        self.cache_hw = mode.is_train().then(|| (x.dims()[2], x.dims()[3]));
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (h, w) = self.cache_hw.expect("GlobalAvgPool::backward without training forward");
        pool::global_avg_pool_backward(grad_out, h, w)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, vec![in_shape[0]])
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn clear_cache(&mut self) {
        self.cache_hw = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::Rng;

    #[test]
    fn avg_pool_layer_round_trip() {
        let mut rng = Rng::new(0);
        let mut p = AvgPool2d::new(2);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        let g = p.backward(&Tensor::ones([1, 2, 2, 2]));
        assert_eq!(g.dims(), x.dims());
        assert!((g.sum() - 8.0).abs() < 1e-5); // mass conserved
    }

    #[test]
    fn max_pool_layer_routes_to_argmax() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]).unwrap();
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[9.0]);
        let g = p.backward(&Tensor::ones([1, 1, 1, 1]));
        assert_eq!(g.dims(), &[1, 1, 2, 2]);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn global_pool_shapes() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::ones([2, 3, 4, 4]);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.as_slice(), &[1.0; 6]);
        let g = p.backward(&Tensor::ones([2, 3]));
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }
}
