//! Pointwise and broadcast kernels: softmax, bias addition, entropy.

use crate::tensor::Tensor;

/// Row-wise softmax of a `[N, K]` tensor (numerically stabilised by
/// max-subtraction), returned as a new tensor of probabilities.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "softmax_rows expects [N, K], got {}", logits.shape());
    let k = logits.dims()[1];
    let mut out = logits.clone();
    for row in out.as_mut_slice().chunks_exact_mut(k) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Row-wise log-softmax of a `[N, K]` tensor.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "log_softmax_rows expects [N, K], got {}", logits.shape());
    let k = logits.dims()[1];
    let mut out = logits.clone();
    for row in out.as_mut_slice().chunks_exact_mut(k) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

/// Shannon entropy (natural log, in *nats*) of one probability row.
///
/// The paper thresholds prediction entropy to route instances to the cloud;
/// entropy near zero means a confident prediction.
pub(crate) fn entropy(probs: &[f32]) -> f32 {
    let mut h = 0.0f32;
    for &p in probs {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// Entropy of every row of a `[N, K]` probability tensor.
///
/// # Panics
///
/// Panics if `probs` is not 2-D.
pub fn entropy_rows(probs: &Tensor) -> Vec<f32> {
    assert_eq!(probs.shape().rank(), 2, "entropy_rows expects [N, K], got {}", probs.shape());
    let k = probs.dims()[1];
    probs.as_slice().chunks_exact(k).map(entropy).collect()
}

/// Adds a length-`K` bias to every row of a `[N, K]` tensor.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn add_bias_rows(x: &mut Tensor, bias: &Tensor) {
    let k = x.dims()[x.shape().rank() - 1];
    assert_eq!(bias.numel(), k, "bias length {} != row width {k}", bias.numel());
    let b = bias.as_slice();
    for row in x.as_mut_slice().chunks_exact_mut(k) {
        for (v, &bb) in row.iter_mut().zip(b.iter()) {
            *v += bb;
        }
    }
}

/// Adds a per-channel bias to an `[N, C, H, W]` tensor.
///
/// # Panics
///
/// Panics if `x` is not 4-D or `bias.numel() != C`.
pub fn add_bias_nchw(x: &mut Tensor, bias: &Tensor) {
    assert_eq!(x.shape().rank(), 4, "add_bias_nchw expects NCHW, got {}", x.shape());
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    assert_eq!(bias.numel(), c, "bias length {} != channels {c}", bias.numel());
    let plane = h * w;
    let b = bias.as_slice();
    let data = x.as_mut_slice();
    for img in 0..n {
        for (ch, &bb) in b.iter().enumerate() {
            let base = (img * c + ch) * plane;
            for v in &mut data[base..base + plane] {
                *v += bb;
            }
        }
    }
}

/// Sums gradient rows into a length-`K` bias gradient (reverse of
/// [`add_bias_rows`]).
pub fn bias_grad_rows(grad: &Tensor) -> Tensor {
    let k = grad.dims()[grad.shape().rank() - 1];
    let mut out = Tensor::zeros([k]);
    let o = out.as_mut_slice();
    for row in grad.as_slice().chunks_exact(k) {
        for (ov, &gv) in o.iter_mut().zip(row.iter()) {
            *ov += gv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax_rows(&t);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(i).iter().all(|&v| v > 0.0));
        }
        // Softmax is monotone with logits.
        assert!(p.at(&[0, 2]) > p.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]).unwrap();
        let pa = softmax_rows(&a);
        let pb = softmax_rows(&b);
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -0.25, 2.0, 1.0], &[2, 2]).unwrap();
        let ls = log_softmax_rows(&t);
        let p = softmax_rows(&t);
        for (a, b) in ls.as_slice().iter().zip(p.as_slice()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn entropy_extremes() {
        assert!(entropy(&[1.0, 0.0, 0.0]) < 1e-6);
        let uniform = entropy(&[0.25; 4]);
        assert!((uniform - (4.0f32).ln()).abs() < 1e-5);
        // Uniform maximises entropy.
        assert!(entropy(&[0.7, 0.1, 0.1, 0.1]) < uniform);
    }

    #[test]
    fn bias_rows_round_trip() {
        let mut x = Tensor::zeros([3, 2]);
        let b = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        add_bias_rows(&mut x, &b);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let g = bias_grad_rows(&x);
        assert_eq!(g.as_slice(), &[3.0, -6.0]);
    }

    #[test]
    fn bias_nchw_broadcasts_per_channel() {
        let mut x = Tensor::zeros([2, 2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        add_bias_nchw(&mut x, &b);
        assert_eq!(x.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(x.at(&[1, 1, 0, 0]), 2.0);
    }
}
