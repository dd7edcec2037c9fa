//! Quantized layer implementations: fused int8 convolution, int8 linear
//! with f32 output, integer pooling, and the residual add.

use crate::kernels::{qgemm_i32, qim2col, requantize, row_sums_i32};
use crate::qparams::{QuantParams, QMAX, QMIN};
use crate::qtensor::QTensor;
use mea_tensor::conv::ConvGeom;
use mea_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A fused `conv (+ folded BN) (+ ReLU/ReLU6)` in int8.
///
/// Weights are symmetric per-output-channel; the bias absorbs the BN shift
/// and is stored in i32 at scale `s_x · s_w[m]`. The activation is fused
/// into the requantization clamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QConv2d {
    geom: ConvGeom,
    out_channels: usize,
    weight: Vec<i8>,
    weight_scales: Vec<f32>,
    /// `Σ_k w[m][k]` per output channel — the zp_x correction.
    weight_row_sums: Vec<i32>,
    /// Bias at scale `s_x · s_w[m]`, including the folded BN shift.
    bias_i32: Vec<i32>,
    in_params: QuantParams,
    out_params: QuantParams,
    /// Quantized clamp bounds implementing the fused activation.
    clamp_lo: i32,
    clamp_hi: i32,
}

impl QConv2d {
    /// Builds a fused quantized convolution.
    ///
    /// * `weight` — float `[out_c, in_c·kh·kw]`, already BN-folded;
    /// * `bias` — float per-channel bias (BN shift + conv bias), length
    ///   `out_c`;
    /// * `relu_clamp` — `None` (no activation), `Some(None)` (ReLU) or
    ///   `Some(Some(6.0))` (ReLU6).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub(crate) fn new(
        geom: ConvGeom,
        weight: &Tensor,
        bias: &[f32],
        in_params: QuantParams,
        out_params: QuantParams,
        relu_clamp: Option<Option<f32>>,
    ) -> Self {
        let out_channels = weight.dims()[0];
        assert_eq!(weight.dims()[1], geom.patch_len(), "weight patch length mismatch");
        assert_eq!(bias.len(), out_channels, "bias length mismatch");
        let w_params = QuantParams::symmetric_per_channel(&crate::observer::channel_absmax(weight));
        let wq = QTensor::quantize_per_channel(weight, w_params.clone());
        let weight_scales: Vec<f32> = (0..out_channels).map(|c| w_params.scale(c)).collect();
        let weight_row_sums = row_sums_i32(wq.as_slice(), out_channels, geom.patch_len());
        let s_x = in_params.scale(0);
        let bias_i32: Vec<i32> =
            bias.iter().zip(&weight_scales).map(|(&b, &sw)| (b / (s_x * sw)).round() as i32).collect();
        let (clamp_lo, clamp_hi) = fused_clamp(&out_params, relu_clamp);
        QConv2d {
            geom,
            out_channels,
            weight: wq.as_slice().to_vec(),
            weight_scales,
            weight_row_sums,
            bias_i32,
            in_params,
            out_params,
            clamp_lo,
            clamp_hi,
        }
    }

    /// Size of the stored weights and biases in bytes (1 per weight,
    /// 4 per bias) — the model-download advantage of int8 deployment.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.weight.len() as u64 + 4 * self.bias_i32.len() as u64
    }

    /// Runs the fused convolution on an int8 `[N, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the input geometry disagrees with the layer.
    pub(crate) fn forward(&self, x: &QTensor) -> QTensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "QConv2d expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.geom.in_channels, "QConv2d expects {} channels, got {c}", self.geom.in_channels);
        let (oh, ow) = self.geom.out_hw(h, w);
        let zp_x = x.params().zero_point(0);
        let s_x = x.params().scale(0);
        let s_y = self.out_params.scale(0);
        let zp_y = self.out_params.zero_point(0);
        let patch = self.geom.patch_len();
        let cols_n = oh * ow;
        let mut out = vec![0i8; n * self.out_channels * cols_n];
        for img in 0..n {
            let cols =
                qim2col(&x.as_slice()[img * c * h * w..(img + 1) * c * h * w], h, w, &self.geom, zp_x as i8);
            let acc = qgemm_i32(&self.weight, &cols, self.out_channels, patch, cols_n);
            for m in 0..self.out_channels {
                let multiplier = s_x * self.weight_scales[m] / s_y;
                let corr = zp_x * self.weight_row_sums[m] - self.bias_i32[m];
                let dst =
                    &mut out[(img * self.out_channels + m) * cols_n..(img * self.out_channels + m + 1) * cols_n];
                for (d, &a) in dst.iter_mut().zip(&acc[m * cols_n..(m + 1) * cols_n]) {
                    *d = requantize(a - corr, multiplier, zp_y, self.clamp_lo, self.clamp_hi);
                }
            }
        }
        QTensor::from_parts(out, vec![n, self.out_channels, oh, ow], self.out_params.clone())
    }
}

/// Computes the quantized clamp bounds for a fused activation.
fn fused_clamp(out_params: &QuantParams, relu_clamp: Option<Option<f32>>) -> (i32, i32) {
    match relu_clamp {
        None => (QMIN, QMAX),
        Some(upper) => {
            let lo = out_params.zero_point(0);
            let hi = match upper {
                None => QMAX,
                Some(v) => (out_params.quantize_value(v, 0)) as i32,
            };
            (lo, hi)
        }
    }
}

/// An int8 fully connected layer that **dequantizes its output**: logits
/// leave the quantized domain in f32, as in standard int8 deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QLinear {
    in_features: usize,
    out_features: usize,
    weight: Vec<i8>,
    weight_scales: Vec<f32>,
    weight_row_sums: Vec<i32>,
    bias_f32: Vec<f32>,
    in_params: QuantParams,
}

impl QLinear {
    /// Quantizes a float linear layer (`weight: [out, in]`, `bias: [out]`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub(crate) fn new(weight: &Tensor, bias: &Tensor, in_params: QuantParams) -> Self {
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        assert_eq!(bias.numel(), out_features, "bias length mismatch");
        let w_params = QuantParams::symmetric_per_channel(&crate::observer::channel_absmax(weight));
        let wq = QTensor::quantize_per_channel(weight, w_params.clone());
        let weight_scales = (0..out_features).map(|c| w_params.scale(c)).collect();
        let weight_row_sums = row_sums_i32(wq.as_slice(), out_features, in_features);
        QLinear {
            in_features,
            out_features,
            weight: wq.as_slice().to_vec(),
            weight_scales,
            weight_row_sums,
            bias_f32: bias.as_slice().to_vec(),
            in_params,
        }
    }

    /// Size of the stored weights and biases in bytes.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.weight.len() as u64 + 4 * self.bias_f32.len() as u64
    }

    /// Runs the layer on an int8 `[N, in_features]` tensor, producing f32
    /// logits `[N, out_features]`.
    ///
    /// # Panics
    ///
    /// Panics if the feature count disagrees.
    pub(crate) fn forward(&self, x: &QTensor) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 2, "QLinear expects [N, features]");
        let (n, f) = (dims[0], dims[1]);
        assert_eq!(f, self.in_features, "QLinear expects {} features, got {f}", self.in_features);
        let zp_x = x.params().zero_point(0);
        let s_x = x.params().scale(0);
        let mut out = Tensor::zeros([n, self.out_features]);
        let dst = out.as_mut_slice();
        for img in 0..n {
            let xrow = &x.as_slice()[img * f..(img + 1) * f];
            for m in 0..self.out_features {
                let wrow = &self.weight[m * f..(m + 1) * f];
                let mut acc = 0i32;
                for (&wv, &xv) in wrow.iter().zip(xrow) {
                    acc += wv as i32 * xv as i32;
                }
                acc -= zp_x * self.weight_row_sums[m];
                dst[img * self.out_features + m] = acc as f32 * s_x * self.weight_scales[m] + self.bias_f32[m];
            }
        }
        out
    }
}

/// A fused depthwise `conv (+ folded BN) (+ ReLU/ReLU6)` in int8 — the
/// MobileNetV2 building block. Each channel has its own `k × k` filter and
/// its own weight scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QDepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: Vec<i8>,
    weight_scales: Vec<f32>,
    weight_filter_sums: Vec<i32>,
    bias_i32: Vec<i32>,
    in_params: QuantParams,
    out_params: QuantParams,
    clamp_lo: i32,
    clamp_hi: i32,
}

impl QDepthwiseConv2d {
    /// Builds a fused quantized depthwise convolution from float
    /// `[channels, k·k]` filters (already BN-folded) and a per-channel bias.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    // Mirrors the float DepthwiseConv2d constructor plus the two quant
    // grids; bundling into a config struct would just move the argument
    // list one call site up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        weight: &Tensor,
        bias: &[f32],
        in_params: QuantParams,
        out_params: QuantParams,
        relu_clamp: Option<Option<f32>>,
    ) -> Self {
        assert_eq!(weight.dims(), &[channels, kernel * kernel], "depthwise weight shape mismatch");
        assert_eq!(bias.len(), channels, "bias length mismatch");
        let w_params = QuantParams::symmetric_per_channel(&crate::observer::channel_absmax(weight));
        let wq = QTensor::quantize_per_channel(weight, w_params.clone());
        let weight_scales: Vec<f32> = (0..channels).map(|c| w_params.scale(c)).collect();
        let weight_filter_sums = row_sums_i32(wq.as_slice(), channels, kernel * kernel);
        let s_x = in_params.scale(0);
        let bias_i32: Vec<i32> =
            bias.iter().zip(&weight_scales).map(|(&b, &sw)| (b / (s_x * sw)).round() as i32).collect();
        let (clamp_lo, clamp_hi) = fused_clamp(&out_params, relu_clamp);
        QDepthwiseConv2d {
            channels,
            kernel,
            stride,
            pad,
            weight: wq.as_slice().to_vec(),
            weight_scales,
            weight_filter_sums,
            bias_i32,
            in_params,
            out_params,
            clamp_lo,
            clamp_hi,
        }
    }

    /// Size of the stored weights and biases in bytes.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.weight.len() as u64 + 4 * self.bias_i32.len() as u64
    }

    /// Runs the fused depthwise convolution on an int8 `[N, C, H, W]`
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if the channel count disagrees.
    pub(crate) fn forward(&self, x: &QTensor) -> QTensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "QDepthwiseConv2d expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels, "QDepthwiseConv2d expects {} channels, got {c}", self.channels);
        let k = self.kernel;
        let (oh, ow) = ConvGeom::square(c, k, self.stride, self.pad).out_hw(h, w);
        let zp_x = x.params().zero_point(0);
        let s_x = x.params().scale(0);
        let s_y = self.out_params.scale(0);
        let zp_y = self.out_params.zero_point(0);
        let src = x.as_slice();
        let mut out = vec![0i8; n * c * oh * ow];
        for img in 0..n {
            for ch in 0..c {
                let plane = &src[(img * c + ch) * h * w..(img * c + ch + 1) * h * w];
                let filt = &self.weight[ch * k * k..(ch + 1) * k * k];
                let multiplier = s_x * self.weight_scales[ch] / s_y;
                let dst = &mut out[(img * c + ch) * oh * ow..(img * c + ch + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0i32;
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                let xv = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    plane[iy as usize * w + ix as usize] as i32
                                } else {
                                    zp_x
                                };
                                acc += filt[ky * k + kx] as i32 * xv;
                            }
                        }
                        acc -= zp_x * self.weight_filter_sums[ch];
                        acc += self.bias_i32[ch];
                        dst[oy * ow + ox] = requantize(acc, multiplier, zp_y, self.clamp_lo, self.clamp_hi);
                    }
                }
            }
        }
        QTensor::from_parts(out, vec![n, c, oh, ow], self.out_params.clone())
    }
}

/// Global average pooling in the integer domain: `[N, C, H, W] → [N, C]`,
/// quantization parameters preserved (an average of same-scale values stays
/// on the same grid up to rounding).
pub(crate) fn qglobal_avg_pool(x: &QTensor) -> QTensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "qglobal_avg_pool expects NCHW");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let plane = (h * w) as i32;
    let mut out = Vec::with_capacity(n * c);
    for chunk in x.as_slice().chunks(h * w) {
        let sum: i32 = chunk.iter().map(|&v| v as i32).sum();
        // Round-half-away-from-zero integer division.
        let avg = if sum >= 0 { (sum + plane / 2) / plane } else { (sum - plane / 2) / plane };
        out.push(avg.clamp(QMIN, QMAX) as i8);
    }
    QTensor::from_parts(out, vec![n, c], x.params().clone())
}

/// Average pooling with a square `k × k` window and stride `k`, parameters
/// preserved.
///
/// # Panics
///
/// Panics if the spatial size is not divisible by `k`.
pub(crate) fn qavg_pool(x: &QTensor, k: usize) -> QTensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "qavg_pool expects NCHW");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(h % k == 0 && w % k == 0, "pool window {k} does not tile {h}x{w}");
    let (oh, ow) = (h / k, w / k);
    let win = (k * k) as i32;
    let src = x.as_slice();
    let mut out = vec![0i8; n * c * oh * ow];
    for plane_idx in 0..n * c {
        let plane = &src[plane_idx * h * w..(plane_idx + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut sum = 0i32;
                for dy in 0..k {
                    for dx in 0..k {
                        sum += plane[(oy * k + dy) * w + ox * k + dx] as i32;
                    }
                }
                let avg = if sum >= 0 { (sum + win / 2) / win } else { (sum - win / 2) / win };
                out[plane_idx * oh * ow + oy * ow + ox] = avg.clamp(QMIN, QMAX) as i8;
            }
        }
    }
    QTensor::from_parts(out, vec![n, c, oh, ow], x.params().clone())
}

/// Max pooling with a square `k × k` window and stride `k` — exact in the
/// integer domain, parameters preserved.
///
/// # Panics
///
/// Panics if the spatial size is not divisible by `k`.
pub(crate) fn qmax_pool(x: &QTensor, k: usize) -> QTensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "qmax_pool expects NCHW");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(h % k == 0 && w % k == 0, "pool window {k} does not tile {h}x{w}");
    let (oh, ow) = (h / k, w / k);
    let src = x.as_slice();
    let mut out = vec![0i8; n * c * oh * ow];
    for plane_idx in 0..n * c {
        let plane = &src[plane_idx * h * w..(plane_idx + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i8::MIN;
                for dy in 0..k {
                    for dx in 0..k {
                        best = best.max(plane[(oy * k + dy) * w + ox * k + dx]);
                    }
                }
                out[plane_idx * oh * ow + oy * ow + ox] = best;
            }
        }
    }
    QTensor::from_parts(out, vec![n, c, oh, ow], x.params().clone())
}

/// Requantized elementwise add for residual connections:
/// both inputs are rescaled onto `out_params`' grid, summed in the real
/// domain, and clamped; `relu` additionally clamps below at real zero.
///
/// # Panics
///
/// Panics if the input shapes disagree.
pub(crate) fn qadd(a: &QTensor, b: &QTensor, out_params: &QuantParams, relu: bool) -> QTensor {
    assert_eq!(a.dims(), b.dims(), "qadd shape mismatch: {:?} vs {:?}", a.dims(), b.dims());
    let (sa, za) = (a.params().scale(0), a.params().zero_point(0));
    let (sb, zb) = (b.params().scale(0), b.params().zero_point(0));
    let (sy, zy) = (out_params.scale(0), out_params.zero_point(0));
    let lo = if relu { zy } else { QMIN };
    let out: Vec<i8> = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&qa, &qb)| {
            let real = sa * (qa as i32 - za) as f32 + sb * (qb as i32 - zb) as f32;
            let q = (real / sy).round() as i32 + zy;
            q.clamp(lo.max(QMIN), QMAX) as i8
        })
        .collect();
    QTensor::from_parts(out, a.dims().to_vec(), out_params.clone())
}

/// Standalone quantized ReLU: clamps below at the zero-point (real zero),
/// optionally above at a real-valued bound (ReLU6). Parameters preserved.
pub(crate) fn qrelu(x: &QTensor, clamp_max: Option<f32>) -> QTensor {
    let zp = x.params().zero_point(0) as i8;
    let hi: i8 = match clamp_max {
        None => QMAX as i8,
        Some(v) => x.params().quantize_value(v, 0),
    };
    let out: Vec<i8> = x.as_slice().iter().map(|&q| q.clamp(zp, hi)).collect();
    QTensor::from_parts(out, x.dims().to_vec(), x.params().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::Rng;

    fn quantize_act(t: &Tensor) -> QTensor {
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &v in t.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        QTensor::quantize(t, QuantParams::affine_from_range(lo, hi))
    }

    #[test]
    fn qconv_matches_float_conv_within_tolerance() {
        let mut rng = Rng::new(0);
        let geom = ConvGeom::square(3, 3, 1, 1);
        let weight = Tensor::randn([4, geom.patch_len()], 0.3, &mut rng);
        let bias = vec![0.1, -0.2, 0.0, 0.3];
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        // Float reference.
        let mut expect = vec![0.0f32; 2 * 4 * 36];
        for img in 0..2 {
            let cols = mea_tensor::conv::im2col(&x.as_slice()[img * 108..(img + 1) * 108], 6, 6, &geom);
            let y = mea_tensor::matmul::matmul(&weight, &cols);
            for m in 0..4 {
                for j in 0..36 {
                    expect[(img * 4 + m) * 36 + j] = y.as_slice()[m * 36 + j] + bias[m];
                }
            }
        }
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &v in &expect {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let xq = quantize_act(&x);
        let conv =
            QConv2d::new(geom, &weight, &bias, xq.params().clone(), QuantParams::affine_from_range(lo, hi), None);
        let yq = conv.forward(&xq);
        let back = yq.dequantize();
        let range = hi - lo;
        for (g, e) in back.as_slice().iter().zip(&expect) {
            assert!((g - e).abs() < range * 0.02 + 0.05, "{g} vs {e}");
        }
    }

    #[test]
    fn qconv_fused_relu_never_outputs_negative() {
        let mut rng = Rng::new(1);
        let geom = ConvGeom::square(2, 3, 1, 1);
        let weight = Tensor::randn([3, geom.patch_len()], 0.5, &mut rng);
        let x = Tensor::randn([1, 2, 5, 5], 1.0, &mut rng);
        let xq = quantize_act(&x);
        let conv = QConv2d::new(
            geom,
            &weight,
            &[0.0; 3],
            xq.params().clone(),
            QuantParams::affine_from_range(0.0, 3.0),
            Some(None),
        );
        let y = conv.forward(&xq).dequantize();
        assert!(y.as_slice().iter().all(|&v| v >= -1e-6), "fused ReLU leaked a negative value");
    }

    #[test]
    fn qlinear_matches_float_linear() {
        let mut rng = Rng::new(2);
        let weight = Tensor::randn([5, 8], 0.4, &mut rng);
        let bias = Tensor::randn([5], 0.2, &mut rng);
        let x = Tensor::randn([3, 8], 1.0, &mut rng);
        let xq = quantize_act(&x);
        let lin = QLinear::new(&weight, &bias, xq.params().clone());
        let got = lin.forward(&xq);
        let want = {
            let mut y = mea_tensor::matmul::matmul_a_bt(&x, &weight);
            mea_tensor::ops::add_bias_rows(&mut y, &bias);
            y
        };
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 0.15, "{g} vs {w}");
        }
    }

    #[test]
    fn qmax_pool_is_exact() {
        let t = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(0.0, 15.0));
        let p = qmax_pool(&q, 2);
        assert_eq!(p.dims(), &[1, 1, 2, 2]);
        let back = p.dequantize();
        // Max of each 2x2 block: 5, 7, 13, 15 (within one scale step).
        let scale = q.params().scale(0);
        for (g, w) in back.as_slice().iter().zip(&[5.0, 7.0, 13.0, 15.0]) {
            assert!((g - w).abs() <= scale, "{g} vs {w}");
        }
    }

    #[test]
    fn qglobal_avg_pool_shape_and_value() {
        let t = Tensor::ones([2, 3, 4, 4]);
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(0.0, 2.0));
        let p = qglobal_avg_pool(&q);
        assert_eq!(p.dims(), &[2, 3]);
        let back = p.dequantize();
        for &v in back.as_slice() {
            assert!((v - 1.0).abs() < 0.02, "average of ones must be one, got {v}");
        }
    }

    #[test]
    fn qadd_rescales_both_operands() {
        let a = Tensor::full([1, 1, 2, 2], 1.0);
        let b = Tensor::full([1, 1, 2, 2], 2.0);
        let qa = QTensor::quantize(&a, QuantParams::affine_from_range(0.0, 1.0));
        let qb = QTensor::quantize(&b, QuantParams::affine_from_range(0.0, 4.0));
        let out = qadd(&qa, &qb, &QuantParams::affine_from_range(0.0, 4.0), false);
        let back = out.dequantize();
        for &v in back.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "1 + 2 must be 3, got {v}");
        }
    }

    #[test]
    fn qadd_with_relu_clamps_negatives() {
        let a = Tensor::full([1, 1, 1, 1], -2.0);
        let b = Tensor::full([1, 1, 1, 1], 1.0);
        let qa = QTensor::quantize(&a, QuantParams::affine_from_range(-2.0, 0.0));
        let qb = QTensor::quantize(&b, QuantParams::affine_from_range(0.0, 1.0));
        let out = qadd(&qa, &qb, &QuantParams::affine_from_range(-2.0, 2.0), true);
        assert!(out.dequantize().as_slice()[0].abs() < 0.05, "ReLU(-1) must be 0");
    }

    #[test]
    fn qrelu_clamps_at_zero_point_and_bound() {
        let t = Tensor::from_vec(vec![-1.0, 0.5, 7.0], &[1, 3]).unwrap();
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(-1.0, 7.0));
        let r6 = qrelu(&q, Some(6.0)).dequantize();
        assert!(r6.as_slice()[0].abs() < 0.05);
        assert!((r6.as_slice()[1] - 0.5).abs() < 0.05);
        assert!((r6.as_slice()[2] - 6.0).abs() < 0.05);
    }
}
