//! Reference architectures: CIFAR/ImageNet ResNets and MobileNetV2, built
//! as *segmented* CNNs so the MEANet assembly can cut them into main and
//! extension blocks at segment boundaries.

mod mobilenet;
mod resnet;

pub use mobilenet::{mobilenet_v2, mobilenet_v2_lite, MobileNetConfig};
pub use resnet::{resnet_cifar, resnet_imagenet, CifarResNetConfig, ImageNetResNetConfig};

use crate::layer::{Layer, Mode};
use crate::layers::{GlobalAvgPool, Linear};
use crate::sequential::{chain, Sequential};
use mea_tensor::{Rng, Tensor};
use std::borrow::Cow;

/// Static description of one convolutional segment of a backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpec {
    /// Channels produced by the segment.
    pub out_channels: usize,
    /// Spatial downsampling factor applied *by this segment* (1 = none).
    pub downsample: usize,
}

/// A CNN backbone decomposed into sequential segments plus a classifier
/// head (global average pool + fully connected exit).
///
/// The MEANet builder consumes this: model A keeps the first segments as
/// the main block and moves the rest into the extension block; model B
/// keeps everything as the main block and builds a fresh extension.
#[derive(Debug)]
pub struct SegmentedCnn {
    /// Convolutional segments in forward order.
    pub segments: Vec<Sequential>,
    /// Static spec for each segment (parallel to `segments`).
    pub specs: Vec<SegmentSpec>,
    /// Classifier head applied after the last segment.
    pub head: Sequential,
    /// Number of classes the head predicts.
    pub num_classes: usize,
    /// Expected input shape `[C, H, W]`.
    pub in_shape: [usize; 3],
}

impl SegmentedCnn {
    /// Runs the full network (all segments, then the head).
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let blocks = self.segments.iter_mut().chain(std::iter::once(&mut self.head));
        chain(blocks.map(|b| b as &mut dyn Layer), Cow::Borrowed(x), mode)
    }

    /// Number of partitionable top-level layers: every layer of every
    /// segment in forward order, plus the head counted as one opaque
    /// unit. This is the enumeration the edge-cloud partition search
    /// scores, so a cut index `k` means layers `[0, k)` run on one side
    /// and `[k, cut_layer_count())` on the other.
    pub fn cut_layer_count(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum::<usize>() + 1
    }

    /// Runs top-level layers `[from, to)` in evaluation order. The head
    /// occupies the final index (`cut_layer_count() - 1`).
    ///
    /// Because [`crate::sequential::Sequential::forward`] is this same
    /// chain over its layers, running `forward_range(x, 0, k)` into
    /// `forward_range(·, k, L)` is **bitwise identical** to one
    /// uninterrupted [`SegmentedCnn::forward`] — the guarantee the
    /// feature-payload serving path relies on.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > cut_layer_count()`.
    pub fn forward_range(&mut self, x: &Tensor, from: usize, to: usize, mode: Mode) -> Tensor {
        let total = self.cut_layer_count();
        assert!(from <= to, "inverted layer range [{from}, {to})");
        assert!(to <= total, "layer range end {to} exceeds the {total} cut layers");
        let head = std::iter::once(&mut self.head as &mut dyn Layer);
        let layers = self.segments.iter_mut().flat_map(|s| s.layers_mut()).map(|l| &mut **l as &mut dyn Layer);
        chain(layers.chain(head).skip(from).take(to - from), Cow::Borrowed(x), mode)
    }

    /// Runs the prefix `[0, cut)` — what the edge executes before
    /// shipping the activation at a partition cut.
    pub fn forward_prefix(&mut self, x: &Tensor, cut: usize, mode: Mode) -> Tensor {
        self.forward_range(x, 0, cut, mode)
    }

    /// Resumes the forward at layer `cut` from an activation produced by
    /// [`SegmentedCnn::forward_prefix`] at the same cut, running the
    /// suffix (including the head) to logits. `forward_from(x, 0, mode)`
    /// is bitwise identical to [`SegmentedCnn::forward`].
    pub fn forward_from(&mut self, activation: &Tensor, cut: usize, mode: Mode) -> Tensor {
        self.forward_range(activation, cut, self.cut_layer_count(), mode)
    }

    /// Backpropagates a logits gradient through the head and all segments
    /// (requires a preceding training-mode [`SegmentedCnn::forward`]).
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = self.head.backward(grad_logits);
        for seg in self.segments.iter_mut().rev() {
            g = seg.backward(&g);
        }
    }

    /// Visits every learnable parameter (segments then head).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut crate::layer::Param)) {
        for seg in &mut self.segments {
            seg.visit_params(f);
        }
        self.head.visit_params(f);
    }

    /// Clears all cached activations.
    pub fn clear_caches(&mut self) {
        for seg in &mut self.segments {
            seg.clear_cache();
        }
        self.head.clear_cache();
    }

    /// Total learnable parameters.
    pub fn param_count(&self) -> usize {
        self.segments.iter().map(|s| s.param_count()).sum::<usize>() + self.head.param_count()
    }

    /// Total multiply-adds for a single image.
    pub fn total_macs(&self) -> u64 {
        let mut shape = self.in_shape.to_vec();
        let mut total = 0u64;
        for seg in &self.segments {
            let (m, out) = seg.macs(&shape);
            total += m;
            shape = out;
        }
        total + self.head.macs(&shape).0
    }

    /// Channels coming out of segment `i`.
    pub fn out_channels(&self, i: usize) -> usize {
        self.specs[i].out_channels
    }

    /// Decomposes into `(segments, head)` for MEANet assembly.
    pub fn into_parts(self) -> (Vec<Sequential>, Sequential) {
        (self.segments, self.head)
    }
}

/// Builds a classifier head (`GlobalAvgPool → Linear`) — the "exit" attached
/// to each MEANet block.
pub fn make_head(channels: usize, num_classes: usize, rng: &mut Rng) -> Sequential {
    Sequential::new(vec![Box::new(GlobalAvgPool::new()), Box::new(Linear::new(channels, num_classes, rng))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_head_maps_channels_to_classes() {
        let mut rng = Rng::new(0);
        let mut head = make_head(8, 5, &mut rng);
        let x = Tensor::ones([2, 8, 4, 4]);
        let y = head.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 5]);
        assert_eq!(head.param_count(), 8 * 5 + 5);
    }

    #[test]
    fn split_forward_is_bitwise_identical_at_every_cut() {
        // The feature-payload serving path runs the prefix on the edge and
        // resumes on the cloud; any cut must reproduce the monolithic
        // forward bit for bit, or the partition choice would become an
        // accuracy knob instead of a cost knob.
        let mut rng = Rng::new(11);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut net = resnet_cifar(&cfg, &mut rng);
        let x = Tensor::randn([3, 3, 8, 8], 1.0, &mut rng);
        let expected = net.forward(&x, Mode::Eval);
        let l = net.cut_layer_count();
        assert!(l >= 3, "resnet should expose several cut layers, got {l}");
        for cut in 0..=l {
            let mid = net.forward_prefix(&x, cut, Mode::Eval);
            let out = net.forward_from(&mid, cut, Mode::Eval);
            assert_eq!(out.as_slice(), expected.as_slice(), "cut {cut} diverged from the monolithic forward");
        }
        // Cut 0 ships the input unchanged; the full-range resume is the
        // whole network.
        assert_eq!(net.forward_prefix(&x, 0, Mode::Eval).as_slice(), x.as_slice());
        assert_eq!(net.forward_from(&x, 0, Mode::Eval).as_slice(), expected.as_slice());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_cut_rejected() {
        let mut rng = Rng::new(12);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let mut net = resnet_cifar(&cfg, &mut rng);
        let l = net.cut_layer_count();
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let _ = net.forward_prefix(&x, l + 1, Mode::Eval);
    }

    #[test]
    fn eval_forward_is_bitwise_per_sample_independent() {
        // The serving runtime's dynamic batcher coalesces whatever happens
        // to be queued, so a row of a batched eval forward must equal the
        // same instance's single-image forward bit for bit — otherwise
        // batching would change predictions depending on queue timing.
        let mut rng = Rng::new(3);
        let cfg = CifarResNetConfig::repro_scale(6);
        let mut net = resnet_cifar(&cfg, &mut rng);
        let batch = Tensor::randn([5, 3, cfg.input_hw, cfg.input_hw], 1.0, &mut rng);
        let full = net.forward(&batch, Mode::Eval);
        for i in 0..5 {
            let single = net.forward(&batch.slice_axis0(i, i + 1), Mode::Eval);
            assert_eq!(single.row(0), full.row(i), "sample {i} depends on its batch neighbours");
        }
        // And on an arbitrary sub-batch (different size, different order).
        let sub = batch.gather_axis0(&[3, 1]);
        let sub_out = net.forward(&sub, Mode::Eval);
        assert_eq!(sub_out.row(0), full.row(3));
        assert_eq!(sub_out.row(1), full.row(1));
    }
}
