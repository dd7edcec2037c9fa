//! Dense 2-D convolution lowered to im2col + GEMM, one image at a time.
//!
//! An image is unfolded into its patch matrix and multiplied by the
//! flattened weights, the product accumulating straight into that image's
//! slice of the output. Patch matrices live in one buffer the layer owns:
//! an eval forward unfolds every image of a band into the same slot, so
//! after the first call it allocates nothing but its output; a training
//! forward gives each image its own slot and leaves them for `backward`.
//!
//! In `forward`, [`mea_tensor::parallel`] decides whether the batch is cut
//! into bands of images. A batch of one, a one-core host, and a call from
//! inside another op's band all run as one straight-line loop on the calling
//! thread; the GEMM inside a band is always serial. Images are independent,
//! so the split never changes a result.
//!
//! `backward` runs on the calling thread, image after image, so its
//! gradients are the same bits on any number of cores. Every element of
//! `dW` sums its dot product over one image from zero and adds it to a
//! per-call accumulator, in image order, and the accumulator is then added
//! to the parameter's gradient once; `db` is summed the same way. The
//! accumulator is `dWᵀ` (`[patch, oc]`), because with the patch matrix as
//! the tall operand of `cols·dYᵀ` the tile stores contiguous rows; it is
//! transposed as it is added. A partial per band of images, added in band
//! order, would make the bits depend on how many cores cut the batch.

use crate::init;
use crate::layer::{Layer, Mode, Param};
use mea_tensor::conv::{col2im, im2col_into, ConvGeom};
use mea_tensor::{matmul, ops, parallel, Rng, Tensor};

/// A standard 2-D convolution over `[N, C, H, W]` tensors.
///
/// Weights are stored pre-flattened as `[out_c, in_c·kh·kw]` so forward and
/// backward are single matrix products per image.
#[derive(Debug)]
pub struct Conv2d {
    geom: ConvGeom,
    out_channels: usize,
    weight: Param,
    bias: Option<Param>,
    /// im2col patch matrices, `[in_c·kh·kw, oh·ow]` each: one per image
    /// after a training forward, otherwise one per band, reused every call.
    cols: Vec<f32>,
    /// Input height and width of the training batch `cols` holds, if any.
    cache: Option<(usize, usize)>,
}

impl Conv2d {
    /// Creates a convolution with a square `kernel`, given `stride` and
    /// `pad`, Kaiming-initialised. ResNet-style networks set `bias = false`
    /// because a BatchNorm follows.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let geom = ConvGeom::square(in_channels, kernel, stride, pad);
        let weight = Param::new(init::kaiming_conv(out_channels, geom.patch_len(), rng));
        let bias = bias.then(|| Param::new(Tensor::zeros([out_channels])));
        Conv2d { geom, out_channels, weight, bias, cols: Vec::new(), cache: None }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Convolution geometry (kernel/stride/pad).
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// The flattened `[out_c, in_c·kh·kw]` weight matrix.
    pub fn weight_value(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector, if the layer has one.
    pub fn bias_value(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|b| &b.value)
    }

    fn check_input(&self, x: &Tensor) -> (usize, usize, usize) {
        assert_eq!(x.shape().rank(), 4, "Conv2d expects NCHW, got {}", x.shape());
        assert_eq!(
            x.dims()[1],
            self.geom.in_channels,
            "Conv2d expects {} input channels, got {}",
            self.geom.in_channels,
            x.dims()[1]
        );
        (x.dims()[0], x.dims()[2], x.dims()[3])
    }
}

impl Layer for Conv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (n, h, w) = self.check_input(x);
        let (oh, ow) = self.geom.out_hw(h, w);
        let (oc, patch, ncols) = (self.out_channels, self.geom.patch_len(), oh * ow);
        let (chw, out_per_img, cols_len) = (self.geom.in_channels * h * w, oc * ncols, patch * ncols);
        let mut out = Tensor::zeros([n, oc, oh, ow]);

        let train = mode.is_train();
        if self.cache.take().is_some() && !train {
            self.cols = Vec::new(); // a training batch's patches: free them before serving
        }
        let band = parallel::band_len(n);
        // Patch-matrix slots per band: every image's in training, one to reuse in eval.
        let slots = if train { band } else { 1 };
        self.cols.resize(if train { n } else { n.div_ceil(band) } * cols_len, 0.0);
        let (geom, weight) = (self.geom, self.weight.value.as_slice());
        let parts = out
            .as_mut_slice()
            .chunks_mut(band * out_per_img)
            .zip(x.as_slice().chunks(band * chw))
            .zip(self.cols.chunks_mut(slots * cols_len));
        parallel::run(parts, |((out_band, x_band), cols_band)| {
            for (i, (y, img)) in out_band.chunks_exact_mut(out_per_img).zip(x_band.chunks_exact(chw)).enumerate() {
                let cols = &mut cols_band[(i % slots) * cols_len..][..cols_len];
                im2col_into(img, h, w, &geom, cols);
                matmul::gemm_into(weight, cols, y, oc, patch, ncols);
            }
        });

        if let Some(bias) = &self.bias {
            ops::add_bias_nchw(&mut out, &bias.value);
        }
        self.cache = train.then_some((h, w));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (h, w) = self.cache.expect("Conv2d::backward called without a training forward");
        let n = grad_out.dims()[0];
        let (oh, ow) = self.geom.out_hw(h, w);
        let (oc, patch, ncols) = (self.out_channels, self.geom.patch_len(), oh * ow);
        let (chw, out_per_img, cols_len) = (self.geom.in_channels * h * w, oc * ncols, patch * ncols);
        assert_eq!(n * cols_len, self.cols.len(), "batch size changed between forward and backward");
        let mut grad_in = Tensor::zeros([n, self.geom.in_channels, h, w]);

        // dWᵀ, `[patch, oc]`: with the patches as the tall operand of
        // `cols·dYᵀ`, each tile of dot products is stored as contiguous rows.
        let mut dw_t = vec![0.0; patch * oc];
        let mut db = Tensor::zeros([oc]);
        let mut grad_cols = Tensor::zeros([patch, ncols]);
        let (geom, weight) = (self.geom, self.weight.value.as_slice());
        let images =
            grad_in.as_mut_slice().chunks_exact_mut(chw).zip(grad_out.as_slice().chunks_exact(out_per_img));
        for ((gi, g), cols) in images.zip(self.cols.chunks_exact(cols_len)) {
            matmul::gemm_a_bt_into(cols, g, &mut dw_t, patch, ncols, oc);
            if self.bias.is_some() {
                for (b, row) in db.as_mut_slice().iter_mut().zip(g.chunks_exact(ncols)) {
                    *b += row.iter().sum::<f32>();
                }
            }
            grad_cols.fill(0.0);
            matmul::gemm_at_b_into(weight, g, grad_cols.as_mut_slice(), patch, oc, ncols);
            col2im(&grad_cols, h, w, &geom, gi);
        }

        for (o, dw_row) in self.weight.grad.as_mut_slice().chunks_exact_mut(patch).enumerate() {
            for (d, dw_t_row) in dw_row.iter_mut().zip(dw_t.chunks_exact(oc)) {
                *d += dw_t_row[o];
            }
        }
        if let Some(bias) = &mut self.bias {
            bias.grad.add_assign(&db);
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, Param::numel)
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        assert_eq!(in_shape.len(), 3, "Conv2d::macs expects [C, H, W]");
        let (oh, ow) = self.geom.out_hw(in_shape[1], in_shape[2]);
        let macs = (self.out_channels * self.geom.patch_len() * oh * ow) as u64;
        (macs, vec![self.out_channels, oh, ow])
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn clear_cache(&mut self) {
        self.cache = None;
        self.cols = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::zero_grads;

    /// Numerical-vs-analytic gradient check: the canonical correctness test
    /// for a hand-written backward pass.
    #[test]
    fn gradient_check_weight_and_input() {
        let mut rng = Rng::new(42);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn([2, 2, 5, 5], 1.0, &mut rng);

        // Scalar loss: sum of outputs weighted by a fixed random tensor.
        let wsum = Tensor::randn([2, 3, 5, 5], 1.0, &mut rng);
        let loss = |conv: &mut Conv2d, x: &Tensor| -> f64 {
            let y = conv.forward(x, Mode::Train);
            y.as_slice().iter().zip(wsum.as_slice()).map(|(&a, &b)| (a * b) as f64).sum()
        };

        let _ = loss(&mut conv, &x);
        zero_grads(&mut conv);
        let _ = conv.forward(&x, Mode::Train);
        let gx = conv.backward(&wsum);

        // Check dL/dx at a few coordinates.
        let eps = 1e-2f32;
        for &idx in &[0usize, 17, 49, 99] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps as f64);
            let ana = gx.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "input grad {idx}: {num} vs {ana}");
        }

        // Check dL/dW at a few coordinates.
        zero_grads(&mut conv);
        let _ = conv.forward(&x, Mode::Train);
        let _ = conv.backward(&wsum);
        let wgrad = conv.weight.grad.clone();
        for &idx in &[0usize, 5, 23, 53] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight.value.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = wgrad.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "weight grad {idx}: {num} vs {ana}");
        }

        // Bias gradient equals the sum of output grads per channel.
        let bgrad = conv.bias.as_ref().unwrap().grad.clone();
        for c in 0..3 {
            let mut expect = 0.0f64;
            for img in 0..2 {
                for p in 0..25 {
                    expect += wsum.as_slice()[(img * 3 + c) * 25 + p] as f64;
                }
            }
            assert!((bgrad.as_slice()[c] as f64 - expect).abs() < 1e-2, "bias grad channel {c}");
        }
    }

    #[test]
    fn stride_two_halves_spatial_dims() {
        let mut rng = Rng::new(0);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, false, &mut rng);
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn a_zero_stride_is_rejected_at_construction() {
        Conv2d::new(3, 8, 3, 0, 1, false, &mut Rng::new(0));
    }

    #[test]
    fn eval_forward_keeps_no_cache() {
        let mut rng = Rng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        let x = Tensor::randn([1, 1, 4, 4], 1.0, &mut rng);
        let _ = conv.forward(&x, Mode::Eval);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| conv.backward(&Tensor::zeros([1, 1, 4, 4]))));
        assert!(result.is_err(), "backward after eval forward must panic");
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.dims() == b.dims() && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A batch cut into bands (several cores, several images) and the same
    /// images one at a time (always inline) must agree bit for bit, in both
    /// modes: that is the contract the serve ≡ sweep verifier enforces.
    #[test]
    fn forward_is_deterministic_across_batch_split() {
        let mut rng = Rng::new(9);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, true, &mut rng);
        for mode in [Mode::Eval, Mode::Train] {
            for n in [1usize, 2, 3, 8] {
                let x = Tensor::randn([n, 2, 6, 6], 1.0, &mut rng);
                let y_batch = conv.forward(&x, mode);
                for i in 0..n {
                    let yi = conv.forward(&x.slice_axis0(i, i + 1), mode);
                    assert!(same_bits(&yi, &y_batch.slice_axis0(i, i + 1)), "{mode:?}, image {i} of {n}");
                }
            }
        }
    }

    /// A batch's `backward` and its images' `backward`s one at a time, each
    /// adding to the gradients of the one before, give the same bits: `dW`,
    /// `db` and every image's `grad_in`. The gradients start at zero, as an
    /// optimizer step leaves them. A batch cut into per-band partials, as
    /// `backward` once did on a host with several cores, fails this.
    #[test]
    fn batch_backward_is_its_images_backwards_in_order_bit_for_bit() {
        let mut rng = Rng::new(11);
        for (in_c, out_c, stride, bias) in [(3, 12, 1, true), (5, 8, 2, false), (4, 24, 1, false)] {
            let mut conv = Conv2d::new(in_c, out_c, 3, stride, 1, bias, &mut rng);
            for n in [2usize, 3, 8] {
                let x = Tensor::randn([n, in_c, 7, 6], 1.0, &mut rng);
                let (oh, ow) = conv.geom.out_hw(7, 6);
                let g = Tensor::randn([n, out_c, oh, ow], 1.0, &mut rng);

                zero_grads(&mut conv);
                let _ = conv.forward(&x, Mode::Train);
                let batch_in = conv.backward(&g);
                let batch_grads = grads(&mut conv);

                zero_grads(&mut conv);
                for i in 0..n {
                    let _ = conv.forward(&x.slice_axis0(i, i + 1), Mode::Train);
                    let image_in = conv.backward(&g.slice_axis0(i, i + 1));
                    assert!(same_bits(&image_in, &batch_in.slice_axis0(i, i + 1)), "grad_in of image {i} of {n}");
                }
                for (at, (one_by_one, batch)) in grads(&mut conv).iter().zip(&batch_grads).enumerate() {
                    assert!(
                        same_bits(one_by_one, batch),
                        "parameter {at}, {in_c}→{out_c}, stride {stride}, n={n}"
                    );
                }
            }
        }
    }

    fn grads(layer: &mut dyn Layer) -> Vec<Tensor> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| out.push(p.grad.clone()));
        out
    }

    /// The patch buffer outlives the call: a smaller input, a larger one
    /// again, and a training batch in between must each see a buffer that
    /// leaks nothing of the previous occupant into its padding taps.
    #[test]
    fn reused_patch_buffer_leaks_nothing_across_input_sizes_and_modes() {
        let mut rng = Rng::new(10);
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, false, &mut rng);
        let mut fresh = Conv2d::new(3, 5, 3, 1, 1, false, &mut Rng::new(0));
        let mut fresh_forward = |x: &Tensor, conv: &Conv2d| {
            fresh.weight.value = conv.weight.value.clone();
            fresh.clear_cache();
            fresh.forward(x, Mode::Eval)
        };
        let big = Tensor::randn([1, 3, 16, 16], 1.0, &mut rng);
        let small = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let batch = Tensor::randn([4, 3, 16, 16], 1.0, &mut rng);
        for x in [&big, &small, &big, &batch, &small] {
            assert!(same_bits(&conv.forward(x, Mode::Eval), &fresh_forward(x, &conv)), "eval {:?}", x.dims());
        }
        let trained = conv.forward(&batch, Mode::Train);
        assert!(same_bits(&trained, &fresh_forward(&batch, &conv)));
        assert_eq!(conv.cols.len(), 4 * 27 * 256, "a training forward keeps one patch matrix per image");
        assert!(same_bits(&conv.forward(&small, Mode::Eval), &fresh_forward(&small, &conv)));
        assert_eq!(conv.cols.len(), 27 * 64, "the next eval forward hands the training patches back");
        assert!(conv.cols.capacity() < 4 * 27 * 256);
    }

    #[test]
    fn macs_match_formula() {
        let mut rng = Rng::new(0);
        let conv = Conv2d::new(16, 32, 3, 1, 1, false, &mut rng);
        let (macs, out) = conv.macs(&[16, 32, 32]);
        assert_eq!(out, vec![32, 32, 32]);
        assert_eq!(macs, (32 * 16 * 9 * 32 * 32) as u64);
        assert_eq!(conv.param_count(), 32 * 16 * 9);
    }
}
