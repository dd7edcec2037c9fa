//! Depthwise 2-D convolution (one filter per channel), the core of
//! MobileNetV2's inverted residual blocks.
//!
//! The forward pass is [`mea_tensor::conv::depthwise_into`], which sweeps
//! one output row per kernel tap. The bits depend only on each output
//! element's order of additions: it starts at `+0.0` and adds its in-image
//! taps in ascending `(ki, kj)` order, padding taps skipped. Any loop order
//! keeps them if the taps are the outermost loops, in ascending order; the
//! per-element loop it replaced is the tests' bit-for-bit reference.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::conv::{depthwise_into, ConvGeom};
use mea_tensor::{Rng, Tensor};

/// Depthwise convolution: each input channel is convolved with its own
/// `k × k` filter (`groups == channels`).
#[derive(Debug)]
pub struct DepthwiseConv2d {
    /// Kernel, stride and padding; `in_channels` is the channel count.
    geom: ConvGeom,
    /// `[channels, k·k]` filters.
    weight: Param,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    input: Tensor,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-style initialisation
    /// (fan-in is `k·k` per channel).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub(crate) fn new(channels: usize, kernel: usize, stride: usize, pad: usize, rng: &mut Rng) -> Self {
        let geom = ConvGeom::square(channels, kernel, stride, pad);
        let std = (2.0 / (kernel * kernel) as f32).sqrt();
        let weight = Param::new(Tensor::randn([channels, kernel * kernel], std, rng));
        DepthwiseConv2d { geom, weight, cache: None }
    }

    /// The `[channels, k·k]` per-channel filters.
    pub fn weight_value(&self) -> &Tensor {
        &self.weight.value
    }

    /// `(channels, kernel, stride, pad)` geometry.
    pub fn geometry(&self) -> (usize, usize, usize, usize) {
        (self.geom.in_channels, self.geom.kh, self.geom.stride, self.geom.pad)
    }
}

impl Layer for DepthwiseConv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "DepthwiseConv2d expects NCHW, got {}", x.shape());
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let channels = self.geom.in_channels;
        assert_eq!(c, channels, "DepthwiseConv2d expects {channels} channels, got {c}");
        let (oh, ow) = self.geom.out_hw(h, w);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        depthwise_into(x.as_slice(), h, w, &self.geom, self.weight.value.as_slice(), out.as_mut_slice());
        if mode.is_train() {
            self.cache = Some(Cache { input: x.clone() });
        } else {
            self.cache = None;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("DepthwiseConv2d::backward without training forward");
        let x = &cache.input;
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.geom.out_hw(h, w);
        assert_eq!(grad_out.dims(), &[n, c, oh, ow], "grad_out shape mismatch");
        let k = self.geom.kh;
        let (s, p) = (self.geom.stride, self.geom.pad as isize);
        let mut grad_in = Tensor::zeros([n, c, h, w]);
        let src = x.as_slice();
        let g = grad_out.as_slice();
        let wgt = self.weight.value.as_slice();
        let dwgt = self.weight.grad.as_mut_slice();
        let gi = grad_in.as_mut_slice();
        for img in 0..n {
            for ch in 0..c {
                let sbase = (img * c + ch) * h * w;
                let gbase = (img * c + ch) * oh * ow;
                let filt = &wgt[ch * k * k..(ch + 1) * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = g[gbase + oy * ow + ox];
                        if gv == 0.0 {
                            continue;
                        }
                        for ki in 0..k {
                            let iy = (oy * s + ki) as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kj in 0..k {
                                let ix = (ox * s + kj) as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let si = sbase + iy as usize * w + ix as usize;
                                dwgt[ch * k * k + ki * k + kj] += gv * src[si];
                                gi[si] += gv * filt[ki * k + kj];
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn param_count(&self) -> usize {
        self.weight.numel()
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        assert_eq!(in_shape.len(), 3, "DepthwiseConv2d::macs expects [C, H, W]");
        let (oh, ow) = self.geom.out_hw(in_shape[1], in_shape[2]);
        let macs = (self.geom.patch_len() * oh * ow) as u64;
        (macs, vec![self.geom.in_channels, oh, ow])
    }

    fn name(&self) -> &'static str {
        "DepthwiseConv2d"
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
    fn channels_do_not_mix() {
        let mut rng = Rng::new(0);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        // Zero out channel 1's filter: its output must be zero regardless of
        // channel 0's content.
        for v in &mut dw.weight.value.as_mut_slice()[9..18] {
            *v = 0.0;
        }
        let mut x = Tensor::zeros([1, 2, 4, 4]);
        for v in &mut x.as_mut_slice()[0..16] {
            *v = 5.0; // only channel 0 is non-zero
        }
        let y = dw.forward(&x, Mode::Eval);
        assert!(y.as_slice()[16..32].iter().all(|&v| v == 0.0));
        assert!(y.as_slice()[0..16].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::new(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 2, 1, &mut rng);
        let x = Tensor::randn([1, 2, 6, 6], 1.0, &mut rng);
        let wsum = Tensor::randn([1, 2, 3, 3], 1.0, &mut rng);
        let loss = |l: &mut DepthwiseConv2d, x: &Tensor| -> f64 {
            let y = l.forward(x, Mode::Train);
            y.as_slice().iter().zip(wsum.as_slice()).map(|(&a, &b)| (a * b) as f64).sum()
        };
        let _ = loss(&mut dw, &x);
        zero_grads(&mut dw);
        let _ = dw.forward(&x, Mode::Train);
        let gx = dw.backward(&wsum);
        let eps = 1e-2f32;
        for &idx in &[0usize, 11, 35, 71] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut dw, &xp) - loss(&mut dw, &xm)) / (2.0 * eps as f64);
            let ana = gx.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "input grad {idx}: {num} vs {ana}");
        }
        zero_grads(&mut dw);
        let _ = dw.forward(&x, Mode::Train);
        let _ = dw.backward(&wsum);
        let wg = dw.weight.grad.clone();
        for &idx in &[0usize, 8, 9, 17] {
            let orig = dw.weight.value.as_slice()[idx];
            dw.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut dw, &x);
            dw.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut dw, &x);
            dw.weight.value.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = wg.as_slice()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "weight grad {idx}: {num} vs {ana}");
        }
    }

    /// The loop [`DepthwiseConv2d::forward`] ran before
    /// [`depthwise_into`], kept as its reference: every tap of every output
    /// element, each tested against the border.
    fn forward_per_element(x: &[f32], h: usize, w: usize, geom: &ConvGeom, wgt: &[f32], dst: &mut [f32]) {
        let (c, k) = (geom.in_channels, geom.kh);
        let n = x.len() / (c * h * w);
        let (s, p) = (geom.stride, geom.pad as isize);
        let (oh, ow) = geom.out_hw(h, w);
        for img in 0..n {
            for ch in 0..c {
                let sbase = (img * c + ch) * h * w;
                let dbase = (img * c + ch) * oh * ow;
                let filt = &wgt[ch * k * k..(ch + 1) * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ki in 0..k {
                            let iy = (oy * s + ki) as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kj in 0..k {
                                let ix = (ox * s + kj) as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += filt[ki * k + kj] * x[sbase + iy as usize * w + ix as usize];
                            }
                        }
                        dst[dbase + oy * ow + ox] = acc;
                    }
                }
            }
        }
    }

    /// `depthwise_into` and the per-element loop agree bit for bit on every
    /// kernel/stride/padding and image size below where the kernel fits,
    /// into a buffer poisoned with NaN (so an element left unwritten shows),
    /// with inputs and filters that hold exact zeros and negative values.
    #[test]
    fn depthwise_into_matches_the_per_element_loop_bit_for_bit() {
        let mut rng = Rng::new(31);
        let sizes = [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 17];
        let c = 3;
        let mut cases = 0;
        for kernel in [1usize, 3, 5] {
            for stride in [1usize, 2, 3] {
                for pad in [0usize, 1, 2] {
                    let geom = ConvGeom::square(c, kernel, stride, pad);
                    let mut wgt = Tensor::randn([c, kernel * kernel], 1.0, &mut rng);
                    wgt.as_mut_slice()[0] = 0.0;
                    for n in [1usize, 3] {
                        for h in sizes {
                            for w in sizes {
                                if h + 2 * pad < kernel || w + 2 * pad < kernel {
                                    continue;
                                }
                                let mut x = Tensor::randn([n * c * h * w], 1.0, &mut rng);
                                for v in x.as_mut_slice().iter_mut().step_by(4) {
                                    *v = 0.0;
                                }
                                let (oh, ow) = geom.out_hw(h, w);
                                let mut got = vec![f32::NAN; n * c * oh * ow];
                                depthwise_into(x.as_slice(), h, w, &geom, wgt.as_slice(), &mut got);
                                let mut want = vec![f32::NAN; got.len()];
                                forward_per_element(x.as_slice(), h, w, &geom, wgt.as_slice(), &mut want);
                                let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                                assert!(same, "kernel {kernel}, stride {stride}, pad {pad}, n {n}, image {h}x{w}");
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 4000, "{cases} cases");
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn a_zero_stride_is_rejected_at_construction() {
        DepthwiseConv2d::new(2, 3, 0, 1, &mut Rng::new(0));
    }

    #[test]
    fn macs_are_per_channel() {
        let mut rng = Rng::new(0);
        let dw = DepthwiseConv2d::new(32, 3, 1, 1, &mut rng);
        let (macs, out) = dw.macs(&[32, 16, 16]);
        assert_eq!(out, vec![32, 16, 16]);
        assert_eq!(macs, (32 * 9 * 16 * 16) as u64);
    }
}
