//! Dense 2-D convolution lowered to im2col + GEMM, one image at a time.
//!
//! An image is unfolded into its patch matrix and multiplied by the
//! flattened weights, the product accumulating straight into that image's
//! slice of the output. The patch matrix lives in one slot the layer owns,
//! which every image of every call, in either mode, is unfolded into, and
//! the unfold runs through an [`UnfoldPlan`] the layer keeps beside the
//! slot: the plan works the taps' row and column ranges out once (into a
//! block copy and padding positions per tap, or for a strided geometry each
//! patch element's source pixel) and is rebuilt only when the input's
//! height or width changes. After the first call a forward allocates
//! nothing but its output. A 1×1 convolution at stride 1 without padding has
//! the image itself as its patch matrix, so it multiplies the input slice
//! directly and keeps neither plan nor slot.
//!
//! A training forward keeps its input, not its patches (each about `kh·kw`
//! times the image), and `backward` unfolds each image into the slot again
//! just before that image's `dWᵀ` product, then computes the image's patch
//! gradient `Wᵀ·dY` in the same slot and folds it through the same plan. The
//! input stays cached until the next forward or `clear_cache`, so one
//! forward may be followed by several backwards.
//!
//! Both passes run on the calling thread, image after image, so their
//! results are the same bits on any number of cores. Every element of
//! `dW` sums its dot product over one image from zero and adds it to a
//! per-call accumulator, in image order, and the accumulator is then added
//! to the parameter's gradient once; `db` is summed the same way. The
//! accumulator is `dWᵀ` (`[patch, oc]`), because with the patch matrix as
//! the tall operand of `cols·dYᵀ` the tile stores contiguous rows; it is
//! transposed as it is added.

use crate::init;
use crate::layer::{Layer, Mode, Param};
use mea_tensor::conv::{ConvGeom, UnfoldPlan};
use mea_tensor::{matmul, ops, Rng, Tensor};

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
    /// The im2col patch matrix, `[in_c·kh·kw, oh·ow]`, filled on the
    /// calling thread for one image at a time in both passes; empty for a
    /// pointwise convolution.
    cols: Vec<f32>,
    /// How `cols` is unfolded from and folded into an image of the last
    /// input size; `None` before the first call and for a pointwise
    /// convolution.
    plan: Option<UnfoldPlan>,
    /// The input of the last training forward, for `backward`.
    cache: Option<Tensor>,
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
        Conv2d { geom, out_channels, weight, bias, cols: Vec::new(), plan: None, cache: None }
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

    /// A 1×1 convolution at stride 1 without padding, whose patch matrix is
    /// the image itself.
    fn is_pointwise(&self) -> bool {
        let g = &self.geom;
        g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0
    }

    /// Sizes the slot and the plan for `h × w` images, rebuilding the plan
    /// only if the size changed.
    fn prepare(&mut self, h: usize, w: usize) {
        if self.is_pointwise() {
            return;
        }
        if self.plan.as_ref().is_none_or(|p| p.input_hw() != (h, w)) {
            self.plan = Some(UnfoldPlan::new(&self.geom, h, w));
        }
        let (oh, ow) = self.geom.out_hw(h, w);
        self.cols.resize(self.geom.patch_len() * oh * ow, 0.0);
    }

    /// The patch matrix of `img`: the image itself for a pointwise
    /// convolution, otherwise `img` unfolded into the slot.
    fn patches<'a>(plan: Option<&UnfoldPlan>, cols: &'a mut [f32], img: &'a [f32]) -> &'a [f32] {
        match plan {
            Some(plan) => {
                plan.unfold(img, 0.0, cols);
                cols
            }
            None => img,
        }
    }

    /// The convolution of `x`, every image unfolded into the one slot.
    fn convolve(&mut self, x: &Tensor) -> Tensor {
        let (n, h, w) = self.check_input(x);
        let (oh, ow) = self.geom.out_hw(h, w);
        let (oc, patch, ncols) = (self.out_channels, self.geom.patch_len(), oh * ow);
        let (chw, out_per_img) = (self.geom.in_channels * h * w, oc * ncols);
        let mut out = Tensor::zeros([n, oc, oh, ow]);
        self.prepare(h, w);
        let weight = self.weight.value.as_slice();
        for (y, img) in out.as_mut_slice().chunks_exact_mut(out_per_img).zip(x.as_slice().chunks_exact(chw)) {
            let cols = Self::patches(self.plan.as_ref(), &mut self.cols, img);
            matmul::gemm_into(weight, cols, y, oc, patch, ncols);
        }
        if let Some(bias) = &self.bias {
            ops::add_bias_nchw(&mut out, &bias.value);
        }
        out
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
        self.cache = None;
        let out = self.convolve(x);
        self.cache = mode.is_train().then(|| x.clone());
        out
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        self.cache = None;
        let out = self.convolve(&x);
        self.cache = mode.is_train().then_some(x);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.as_ref().expect("Conv2d::backward called without a training forward");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        assert_eq!(grad_out.dims()[0], n, "batch size changed between forward and backward");
        self.prepare(h, w);
        let x = self.cache.as_ref().expect("the training input, checked above");
        let (oh, ow) = self.geom.out_hw(h, w);
        let (oc, patch, ncols) = (self.out_channels, self.geom.patch_len(), oh * ow);
        let (chw, out_per_img) = (self.geom.in_channels * h * w, oc * ncols);
        let mut grad_in = Tensor::zeros([n, self.geom.in_channels, h, w]);

        // dWᵀ, `[patch, oc]`: with the patches as the tall operand of
        // `cols·dYᵀ`, each tile of dot products is stored as contiguous rows.
        let mut dw_t = vec![0.0; patch * oc];
        let mut db = Tensor::zeros([oc]);
        let weight = self.weight.value.as_slice();
        let images = grad_in
            .as_mut_slice()
            .chunks_exact_mut(chw)
            .zip(grad_out.as_slice().chunks_exact(out_per_img))
            .zip(x.as_slice().chunks_exact(chw));
        for ((gi, g), img) in images {
            let cols = Self::patches(self.plan.as_ref(), &mut self.cols, img);
            matmul::gemm_a_bt_into(cols, g, &mut dw_t, patch, ncols, oc);
            if self.bias.is_some() {
                for (b, row) in db.as_mut_slice().iter_mut().zip(g.chunks_exact(ncols)) {
                    *b += row.iter().sum::<f32>();
                }
            }
            match &self.plan {
                // The image's patches are spent: the slot takes their gradient.
                Some(plan) => {
                    self.cols.fill(0.0);
                    matmul::gemm_at_b_into(weight, g, &mut self.cols, patch, oc, ncols);
                    plan.fold(&self.cols, gi);
                }
                // The patch gradient is the image gradient, and `gi` starts at zero.
                None => matmul::gemm_at_b_into(weight, g, gi, patch, oc, ncols),
            }
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
        self.plan = None;
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

    /// A batch and the same images one at a time must agree bit for bit, in
    /// both modes, whichever slot of `cols` an image is unfolded into: that
    /// is the contract the serve ≡ sweep verifier enforces.
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

    /// The patch slot and its plan outlive the call: a smaller input, a
    /// larger one again, and a training batch in between must each see a
    /// slot that leaks nothing of the previous occupant into its padding
    /// taps, through a plan rebuilt for each new input size. A training
    /// forward unfolds its images into the same one slot and keeps its input
    /// instead of their patches. A pointwise convolution keeps neither.
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
        let planned_for = |conv: &Conv2d| conv.plan.as_ref().map(UnfoldPlan::input_hw);
        let big = Tensor::randn([1, 3, 16, 16], 1.0, &mut rng);
        let small = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let batch = Tensor::randn([4, 3, 16, 16], 1.0, &mut rng);
        for x in [&big, &small, &big, &batch, &small] {
            assert!(same_bits(&conv.forward(x, Mode::Eval), &fresh_forward(x, &conv)), "eval {:?}", x.dims());
            assert_eq!(planned_for(&conv), Some((x.dims()[2], x.dims()[3])), "the plan follows the input size");
        }
        let trained = conv.forward(&batch, Mode::Train);
        assert!(same_bits(&trained, &fresh_forward(&batch, &conv)));
        assert_eq!(conv.cols.len(), 27 * 256, "a training forward keeps one 27 × 256 patch slot");
        assert_eq!(planned_for(&conv), Some((16, 16)));
        assert!(conv.cache.as_ref().is_some_and(|x| same_bits(x, &batch)), "and its input");
        let _ = conv.backward(&Tensor::randn([4, 5, 16, 16], 1.0, &mut rng));
        assert_eq!(conv.cols.len(), 27 * 256, "backward unfolds into the same slot");
        assert!(same_bits(&conv.forward(&small, Mode::Eval), &fresh_forward(&small, &conv)));
        assert_eq!(conv.cols.len(), 27 * 64);
        assert_eq!(planned_for(&conv), Some((8, 8)));
        assert!(conv.cache.is_none(), "the next eval forward drops the training input");

        let mut pointwise = Conv2d::new(3, 5, 1, 1, 0, false, &mut rng);
        let _ = pointwise.forward(&batch, Mode::Train);
        let _ = pointwise.backward(&Tensor::randn([4, 5, 16, 16], 1.0, &mut rng));
        let _ = pointwise.forward(&small, Mode::Eval);
        assert!(pointwise.cols.is_empty() && pointwise.plan.is_none(), "a 1×1 convolution keeps no slot");
    }

    /// A pointwise convolution multiplies its input where the others
    /// multiply their patch matrix, which for a 1×1 kernel at stride 1
    /// without padding holds the same values: its output, `grad_in` and
    /// gradients are the bits of the unfold-and-fold path.
    #[test]
    fn pointwise_convolution_matches_its_unfolded_form_bit_for_bit() {
        let mut rng = Rng::new(13);
        let mut conv = Conv2d::new(6, 4, 1, 1, 0, true, &mut rng);
        let (h, w) = (5, 7);
        let x = Tensor::randn([3, 6, h, w], 1.0, &mut rng);
        let g = Tensor::randn([3, 4, h, w], 1.0, &mut rng);
        zero_grads(&mut conv);
        let y = conv.forward(&x, Mode::Train);
        let gx = conv.backward(&g);

        let plan = UnfoldPlan::new(&conv.geom, h, w);
        let weight = conv.weight.value.as_slice();
        let (mut want_y, mut want_gx) = (Tensor::zeros([3, 4, h, w]), Tensor::zeros([3, 6, h, w]));
        let (mut cols, mut dw_t) = (vec![f32::NAN; 6 * h * w], vec![0.0; 6 * 4]);
        let images = want_y
            .as_mut_slice()
            .chunks_exact_mut(4 * h * w)
            .zip(want_gx.as_mut_slice().chunks_exact_mut(6 * h * w));
        for (i, (yi, gxi)) in images.enumerate() {
            let gi = &g.as_slice()[i * 4 * h * w..][..4 * h * w];
            plan.unfold(&x.as_slice()[i * 6 * h * w..][..6 * h * w], 0.0, &mut cols);
            matmul::gemm_into(weight, &cols, yi, 4, 6, h * w);
            matmul::gemm_a_bt_into(&cols, gi, &mut dw_t, 6, h * w, 4);
            cols.fill(0.0);
            matmul::gemm_at_b_into(weight, gi, &mut cols, 6, 4, h * w);
            plan.fold(&cols, gxi);
        }
        ops::add_bias_nchw(&mut want_y, &conv.bias.as_ref().expect("a bias").value);
        assert!(same_bits(&y, &want_y), "output");
        assert!(same_bits(&gx, &want_gx), "grad_in");
        let dw = conv.weight.grad.as_slice();
        let same_dw = (0..4).all(|o| (0..6).all(|p| dw[o * 6 + p].to_bits() == (0.0 + dw_t[p * 4 + o]).to_bits()));
        assert!(same_dw, "dW");
    }

    /// `train_edge_joint_weighted` backpropagates two losses through one
    /// training forward, so the cached input must survive a `backward`:
    /// the second returns the same bits as the first and adds the same
    /// gradients again.
    #[test]
    fn two_backwards_after_one_training_forward_agree_bit_for_bit() {
        let mut rng = Rng::new(12);
        for (stride, bias) in [(1, true), (2, false)] {
            let mut conv = Conv2d::new(3, 6, 3, stride, 1, bias, &mut rng);
            let x = Tensor::randn([3, 3, 9, 8], 1.0, &mut rng);
            let (oh, ow) = conv.geom.out_hw(9, 8);
            let g = Tensor::randn([3, 6, oh, ow], 1.0, &mut rng);
            let _ = conv.forward(&x, Mode::Train);
            zero_grads(&mut conv);
            let first = conv.backward(&g);
            let first_grads = grads(&mut conv);
            zero_grads(&mut conv);
            let second = conv.backward(&g);
            assert!(same_bits(&first, &second), "grad_in, stride {stride}");
            for (at, (a, b)) in first_grads.iter().zip(&grads(&mut conv)).enumerate() {
                assert!(same_bits(a, b), "parameter {at}, stride {stride}");
            }
        }
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
