//! Matrix products in `i-k-j` order, banded over output rows when large.
//!
//! Three variants cover everything the layer library needs without ever
//! materialising a transpose:
//!
//! * [`matmul`]      — `C = A·B`   (linear/conv forward),
//! * [`matmul_a_bt`] — `C = A·Bᵀ`  (weight gradients: `dW = dY·Xᵀ`),
//! * [`matmul_at_b`] — `C = Aᵀ·B`  (input gradients: `dX = Wᵀ·dY`).
//!
//! Each is a shape-checked wrapper that allocates a zeroed `C` around a
//! slice-level kernel — [`gemm_into`], [`gemm_a_bt_into`],
//! [`gemm_at_b_into`] — that accumulates `C += …` in place, so a caller that
//! already owns its output (a convolution writing one image of a batch, a
//! gradient summed over images) pays for neither a temporary nor a copy.
//!
//! The inner loops run over `j` so the compiler can vectorise them. A
//! product below 2²⁰ multiply-adds, on a one-core host, or called
//! from inside another op's band is one straight-line loop nest on the
//! calling thread; otherwise [`crate::parallel`] gives each core a
//! contiguous band of `C`'s rows. Either way every element of `C` sums its
//! `k` terms in ascending order, so the result does not depend on the split.

use crate::parallel;
use crate::tensor::Tensor;

/// Multiply-adds below which a product is never banded: a band costs a
/// thread spawn, which dominates on small matrices.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 20;

/// `C = A·B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if the operands are not matrices or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (k2, n) = mat_dims(b, "B");
    assert_eq!(k, k2, "matmul inner dimension mismatch: A is [{m}, {k}], B is [{k2}, {n}]");
    let mut out = Tensor::zeros([m, n]);
    gemm_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    out
}

/// `C = A·Bᵀ` for `A: [m, k]`, `B: [n, k]`.
///
/// # Panics
///
/// Panics if the operands are not matrices or the shared dimension disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (n, k2) = mat_dims(b, "B");
    assert_eq!(k, k2, "matmul_a_bt shared dimension mismatch: A is [{m}, {k}], B is [{n}, {k2}]");
    let mut out = Tensor::zeros([m, n]);
    gemm_a_bt_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    out
}

/// `C = Aᵀ·B` for `A: [k, m]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if the operands are not matrices or the shared dimension disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = mat_dims(a, "A");
    let (k2, n) = mat_dims(b, "B");
    assert_eq!(k, k2, "matmul_at_b shared dimension mismatch: A is [{k}, {m}], B is [{k2}, {n}]");
    let mut out = Tensor::zeros([m, n]);
    gemm_at_b_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    out
}

fn mat_dims(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{name} must be a matrix, got {}", t.shape());
    (t.dims()[0], t.dims()[1])
}

/// Checks the slice lengths and returns the rows of `C` per band — all `m`
/// of them, one band run inline, for a small product — or `None` when there
/// is nothing to add.
fn band_rows(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) -> Option<usize> {
    assert!(
        a.len() == m * k && b.len() == k * n && c.len() == m * n,
        "gemm operands of {}, {} and {} elements do not fit m={m}, k={k}, n={n}",
        a.len(),
        b.len(),
        c.len()
    );
    let flops = m * n * k;
    (flops > 0).then(|| if flops >= PARALLEL_FLOP_THRESHOLD { parallel::band_len(m) } else { m })
}

/// `C += A·B` on row-major slices, `A: [m, k]`, `B: [k, n]`, `C: [m, n]`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let Some(band) = band_rows(a, b, c, m, k, n) else { return };
    parallel::run(c.chunks_mut(band * n).zip(a.chunks(band * k)), |(c_band, a_band)| {
        for (crow, arow) in c_band.chunks_exact_mut(n).zip(a_band.chunks_exact(k)) {
            for (&aik, brow) in arow.iter().zip(b.chunks_exact(n)) {
                if aik == 0.0 {
                    continue;
                }
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
    });
}

/// `C += A·Bᵀ` on row-major slices, `A: [m, k]`, `B: [n, k]`, `C: [m, n]`
/// (dot-product formulation: each dot product is summed from zero, then
/// added to its element of `C`).
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let Some(band) = band_rows(a, b, c, m, k, n) else { return };
    parallel::run(c.chunks_mut(band * n).zip(a.chunks(band * k)), |(c_band, a_band)| {
        for (crow, arow) in c_band.chunks_exact_mut(n).zip(a_band.chunks_exact(k)) {
            for (cv, brow) in crow.iter_mut().zip(b.chunks_exact(k)) {
                let mut acc = 0.0f32;
                for (av, bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    });
}

/// `C += Aᵀ·B` on row-major slices, `A: [k, m]`, `B: [k, n]`, `C: [m, n]`.
///
/// Walking a row of `C` down a column of `A` would stride badly, so each
/// band instead takes the rows of `A` and `B` in order and accumulates into
/// its own rows of `C`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let Some(band) = band_rows(a, b, c, m, k, n) else { return };
    parallel::run(c.chunks_mut(band * n).enumerate(), |(band_idx, c_band)| {
        let i0 = band_idx * band;
        for (arow, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
            for (crow, &aik) in c_band.chunks_exact_mut(n).zip(&arow[i0..]) {
                if aik == 0.0 {
                    continue;
                }
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                c.set(&[i, j], acc);
            }
        }
        c
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(0);
        let a = Tensor::randn([5, 5], 1.0, &mut rng);
        assert_close(&matmul(&a, &Tensor::eye(5)), &a, 1e-6);
        assert_close(&matmul(&Tensor::eye(5), &a), &a, 1e-6);
    }

    #[test]
    fn matches_naive_on_random_rect() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([7, 13], 1.0, &mut rng);
        let b = Tensor::randn([13, 5], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough to cross PARALLEL_FLOP_THRESHOLD.
        let _alone = crate::parallel::probe::exclusive();
        let mut rng = Rng::new(2);
        let a = Tensor::randn([128, 96], 1.0, &mut rng);
        let b = Tensor::randn([96, 128], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([6, 9], 1.0, &mut rng);
        let b = Tensor::randn([4, 9], 1.0, &mut rng);
        assert_close(&matmul_a_bt(&a, &b), &matmul(&a, &b.transpose2d()), 1e-5);
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn([9, 6], 1.0, &mut rng);
        let b = Tensor::randn([9, 4], 1.0, &mut rng);
        assert_close(&matmul_at_b(&a, &b), &matmul(&a.transpose2d(), &b), 1e-5);
    }

    #[test]
    fn at_b_parallel_matches() {
        let _alone = crate::parallel::probe::exclusive();
        let mut rng = Rng::new(5);
        let a = Tensor::randn([96, 128], 1.0, &mut rng);
        let b = Tensor::randn([96, 100], 1.0, &mut rng);
        assert_close(&matmul_at_b(&a, &b), &matmul(&a.transpose2d(), &b), 1e-4);
    }

    /// The banded product (from a free thread, above the threshold) against
    /// the same product computed inside a band, where it must stay serial:
    /// the split is invisible in the bits, for all three kernels.
    #[test]
    fn banded_and_serial_products_agree_bit_for_bit() {
        let _alone = crate::parallel::probe::exclusive();
        let mut rng = Rng::new(6);
        let (m, k, n) = (96, 128, 100);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let a_t = a.transpose2d();
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let b_t = b.transpose2d();
        let products = || [matmul(&a, &b), matmul_a_bt(&a, &b_t), matmul_at_b(&a_t, &b)];
        let banded = products();
        let serial = parallel::run(0..2, |_| products()).swap_remove(0);
        for (x, y) in banded.iter().zip(&serial) {
            assert!(x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        assert_close(&banded[1], &banded[0], 1e-4);
        assert_close(&banded[2], &banded[0], 1e-4);
    }

    #[test]
    fn slice_kernels_accumulate_into_c() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [100.0f32; 4];
        gemm_into(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [119.0, 122.0, 143.0, 150.0]);
        let mut c = [100.0f32; 4];
        gemm_a_bt_into(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [117.0, 123.0, 139.0, 153.0]);
        let mut c = [100.0f32; 4];
        gemm_at_b_into(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [126.0, 130.0, 138.0, 144.0]);
        // Nothing to add: an empty inner dimension leaves C alone.
        gemm_into(&[], &[], &mut c, 2, 0, 2);
        assert_eq!(c, [126.0, 130.0, 138.0, 144.0]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn slice_kernel_rejects_wrong_lengths() {
        gemm_into(&[0.0; 6], &[0.0; 6], &mut [0.0; 5], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }
}
