//! Integer compute kernels: quantized im2col, int8 GEMM with i32
//! accumulation, and requantization.
//!
//! The kernels follow the standard int8 inference recipe: weights are
//! symmetric per-channel (zero-point 0), activations affine per-tensor.
//! For an output channel `m`,
//!
//! ```text
//! acc[m][j] = Σ_k w[m][k] · x[k][j]                        (i32)
//! real[m][j] = s_w[m] · s_x · (acc[m][j] − zp_x · Σ_k w[m][k]) + bias[m]
//! ```
//!
//! so the input zero-point correction is `zp_x ·` (precomputed weight row
//! sums), and the whole affair collapses back to int8 through a per-channel
//! multiplier `s_w[m]·s_x / s_y`. Production kernels use fixed-point
//! multipliers; this reproduction uses f32, which is bit-compatible for the
//! value ranges of the paper's models and considerably clearer.

use crate::qparams::{QMAX, QMIN};
use mea_tensor::conv::{unfold_into, ConvGeom};

/// Unfolds one int8 `[C, H, W]` image into a patch matrix of shape
/// `[C·kh·kw, oh·ow]`, filling padding taps with the activation
/// zero-point (the quantized representation of real 0).
///
/// # Panics
///
/// Panics if `image.len() != C·H·W`.
pub(crate) fn qim2col(image: &[i8], h: usize, w: usize, geom: &ConvGeom, zero_point: i8) -> Vec<i8> {
    let (oh, ow) = geom.out_hw(h, w);
    let mut cols = vec![0; geom.patch_len() * oh * ow];
    unfold_into(image, h, w, geom, zero_point, &mut cols);
    cols
}

/// `C[m][j] = Σ_k A[m][k] · B[k][j]` over int8 inputs with i32 accumulation.
/// `A` is `[m, k]` (weights), `B` is `[k, n]` (patches).
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn qgemm_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    let mut out = vec![0i32; m * n];
    for mi in 0..m {
        let arow = &a[mi * k..(mi + 1) * k];
        let orow = &mut out[mi * n..(mi + 1) * n];
        for (ki, &av) in arow.iter().enumerate() {
            if av == 0 {
                continue;
            }
            let av = av as i32;
            let brow = &b[ki * n..(ki + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv as i32;
            }
        }
    }
    out
}

/// Per-row sums of an int8 matrix `[m, k]` — the input-zero-point
/// correction term, precomputed once per layer.
pub(crate) fn row_sums_i32(a: &[i8], m: usize, k: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "matrix length mismatch");
    a.chunks(k).map(|row| row.iter().map(|&v| v as i32).sum()).collect()
}

/// Collapses an i32 accumulator back to int8:
/// `q = clamp(round(acc · multiplier) + zp_out)`, with the clamp range
/// optionally narrowed by a fused activation.
///
/// `clamp_lo`/`clamp_hi` are quantized bounds (e.g. `zp_out` for a fused
/// ReLU, `quantize(6.0)` for ReLU6).
pub fn requantize(acc: i32, multiplier: f32, zp_out: i32, clamp_lo: i32, clamp_hi: i32) -> i8 {
    let q = (acc as f32 * multiplier).round() as i32 + zp_out;
    q.clamp(clamp_lo.max(QMIN), clamp_hi.min(QMAX)) as i8
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::conv::im2col;
    use mea_tensor::{Rng, Tensor};

    #[test]
    fn qim2col_matches_float_im2col_at_zero_zp() {
        // With zero_point 0 and integer-valued floats, the two unfolds must
        // produce identical patch matrices.
        let mut rng = Rng::new(0);
        let (c, h, w) = (2, 5, 5);
        let img_f: Vec<f32> = (0..c * h * w).map(|_| (rng.uniform_range(-3.0, 3.0)).round()).collect();
        let img_q: Vec<i8> = img_f.iter().map(|&v| v as i8).collect();
        let geom = ConvGeom::square(c, 3, 2, 1);
        let cols_f = im2col(&img_f, h, w, &geom);
        let cols_q = qim2col(&img_q, h, w, &geom, 0);
        assert_eq!(cols_f.numel(), cols_q.len());
        for (a, &b) in cols_f.as_slice().iter().zip(&cols_q) {
            assert_eq!(*a as i32, b as i32);
        }
    }

    #[test]
    fn qim2col_pads_with_zero_point() {
        let geom = ConvGeom::square(1, 3, 1, 1);
        let img = vec![1i8; 4]; // 2x2 image, all ones
        let cols = qim2col(&img, 2, 2, &geom, -7);
        // Corner patch must contain the padding value.
        assert!(cols.contains(&-7));
        // And the real pixels survive.
        assert!(cols.contains(&1));
    }

    /// The loop [`qim2col`] ran before it shared the float unfold, kept as
    /// its reference: every tap of every output position tested against
    /// the border, over a buffer of zero-points.
    fn qim2col_per_element(image: &[i8], h: usize, w: usize, geom: &ConvGeom, zero_point: i8) -> Vec<i8> {
        let (oh, ow) = geom.out_hw(h, w);
        let mut cols = vec![zero_point; geom.patch_len() * oh * ow];
        let mut r = 0usize;
        for c in 0..geom.in_channels {
            let chan = &image[c * h * w..(c + 1) * h * w];
            for ky in 0..geom.kh {
                for kx in 0..geom.kw {
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                cols[r * oh * ow + oy * ow + ox] = chan[iy as usize * w + ix as usize];
                            }
                        }
                    }
                    r += 1;
                }
            }
        }
        cols
    }

    /// Every padding site of the shared unfold — rows above and below,
    /// columns left and right, taps that reach nothing — takes the
    /// zero-point, not zero.
    #[test]
    fn qim2col_matches_the_per_element_loop_at_a_nonzero_zero_point() {
        let mut rng = Rng::new(5);
        for (kernel, stride, pad) in [(3, 1, 1), (3, 2, 1), (5, 1, 2), (3, 3, 4), (1, 2, 2)] {
            for (h, w) in [(6, 5), (2, 7), (1, 1)] {
                let geom = ConvGeom::square(2, kernel, stride, pad);
                let img: Vec<i8> = (0..2 * h * w).map(|_| rng.uniform_range(-128.0, 127.0) as i8).collect();
                let got = qim2col(&img, h, w, &geom, -7);
                assert_eq!(got, qim2col_per_element(&img, h, w, &geom, -7), "{geom:?} on {h}x{w}");
                assert!(got.contains(&-7));
            }
        }
    }

    #[test]
    fn qgemm_matches_naive_reference() {
        let mut rng = Rng::new(1);
        let (m, k, n) = (3, 4, 5);
        let a: Vec<i8> = (0..m * k).map(|_| rng.uniform_range(-128.0, 127.0) as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.uniform_range(-128.0, 127.0) as i8).collect();
        let got = qgemm_i32(&a, &b, m, k, n);
        for mi in 0..m {
            for ni in 0..n {
                let mut want = 0i32;
                for ki in 0..k {
                    want += a[mi * k + ki] as i32 * b[ki * n + ni] as i32;
                }
                assert_eq!(got[mi * n + ni], want);
            }
        }
    }

    #[test]
    fn row_sums_reference() {
        let a: Vec<i8> = vec![1, -2, 3, 100, 100, 100];
        assert_eq!(row_sums_i32(&a, 2, 3), vec![2, 300]);
    }

    #[test]
    fn requantize_rounds_and_clamps() {
        // 10 * 0.1 = 1.0 -> 1 + zp
        assert_eq!(requantize(10, 0.1, 5, QMIN, QMAX), 6);
        // saturate high
        assert_eq!(requantize(1_000_000, 1.0, 0, QMIN, QMAX) as i32, QMAX);
        // fused relu: clamp_lo = zp
        assert_eq!(requantize(-100, 1.0, 3, 3, QMAX), 3);
    }

    #[test]
    fn fused_relu6_clamps_high() {
        // multiplier 1, zp 0, relu6 bound at q=60.
        assert_eq!(requantize(100, 1.0, 0, 0, 60), 60);
        assert_eq!(requantize(30, 1.0, 0, 0, 60), 30);
    }

    #[test]
    fn qgemm_against_float_path_with_scales() {
        // End-to-end miniature check: quantized conv output dequantizes to
        // within tolerance of the float conv for a 1x1 kernel (pure GEMM).
        let mut rng = Rng::new(2);
        // Values drawn inside the representable range so saturation cannot
        // inflate the comparison error.
        let x = Tensor::rand_uniform([4, 6], -1.0, 1.0, &mut rng); // [k=4, n=6] patches
        let w = Tensor::rand_uniform([2, 4], -1.0, 1.0, &mut rng); // [m=2, k=4]
        let s_x = 2.0 / 255.0;
        let s_w = 1.0 / 127.0;
        let xq: Vec<i8> =
            x.as_slice().iter().map(|&v| ((v / s_x).round() as i32).clamp(-128, 127) as i8).collect();
        let wq: Vec<i8> =
            w.as_slice().iter().map(|&v| ((v / s_w).round() as i32).clamp(-128, 127) as i8).collect();
        let acc = qgemm_i32(&wq, &xq, 2, 4, 6);
        for mi in 0..2 {
            for ni in 0..6 {
                let mut want = 0.0f32;
                for ki in 0..4 {
                    want += w.as_slice()[mi * 4 + ki] * x.as_slice()[ki * 6 + ni];
                }
                let got = acc[mi * 6 + ni] as f32 * s_x * s_w;
                assert!((got - want).abs() < 0.05, "{got} vs {want}");
            }
        }
    }
}
