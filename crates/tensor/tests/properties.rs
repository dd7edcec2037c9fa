//! Property-based tests for the tensor substrate invariants that the whole
//! training stack leans on: matmul algebra, softmax normalisation, and the
//! im2col/col2im adjoint pair.

use mea_tensor::conv::{col2im, im2col, ConvGeom};
use mea_tensor::ops;
use mea_tensor::{matmul, Rng, Tensor};
use proptest::prelude::*;

fn tensor_strategy(max_dim: usize) -> impl Strategy<Value = (usize, usize, u64)> {
    (1..=max_dim, 1..=max_dim, any::<u64>())
}

fn rand_tensor(m: usize, n: usize, seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    Tensor::randn([m, n], 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)·e_j column selection matches manual dot products.
    #[test]
    fn matmul_matches_naive((m, k, seed) in tensor_strategy(12), n in 1usize..12) {
        let a = rand_tensor(m, k, seed);
        let b = rand_tensor(k, n, seed.wrapping_add(1));
        let c = matmul::matmul(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                let got = c.at(&[i, j]);
                prop_assert!((got - acc).abs() <= 1e-4 * (1.0 + acc.abs()), "{got} vs {acc}");
            }
        }
    }

    /// A·(B + C) == A·B + A·C (distributivity / linearity).
    #[test]
    fn matmul_is_linear((m, k, seed) in tensor_strategy(10), n in 1usize..10) {
        let a = rand_tensor(m, k, seed);
        let b = rand_tensor(k, n, seed.wrapping_add(1));
        let c = rand_tensor(k, n, seed.wrapping_add(2));
        let lhs = matmul::matmul(&a, &b.add(&c));
        let rhs = matmul::matmul(&a, &b).add(&matmul::matmul(&a, &c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    /// The fused transpose kernels agree with explicit transposes.
    #[test]
    fn fused_transpose_kernels_agree((m, k, seed) in tensor_strategy(10), n in 1usize..10) {
        let a = rand_tensor(m, k, seed);
        let bt = rand_tensor(n, k, seed.wrapping_add(3));
        let lhs = matmul::matmul_a_bt(&a, &bt);
        let rhs = matmul::matmul(&a, &bt.transpose2d());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()));
        }
        let at = rand_tensor(k, m, seed.wrapping_add(4));
        let b = rand_tensor(k, n, seed.wrapping_add(5));
        let lhs = matmul::matmul_at_b(&at, &b);
        let rhs = matmul::matmul(&at.transpose2d(), &b);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()));
        }
    }

    /// Softmax rows are probability distributions and preserve argmax.
    #[test]
    fn softmax_is_a_distribution((m, k, seed) in tensor_strategy(16)) {
        let logits = rand_tensor(m, k, seed);
        let p = ops::softmax_rows(&logits);
        for i in 0..m {
            let row: f32 = p.row(i).iter().sum();
            prop_assert!((row - 1.0).abs() < 1e-5);
            prop_assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        prop_assert_eq!(p.argmax_rows(), logits.argmax_rows());
    }

    /// Entropy is bounded by ln(K) and zero only for one-hot rows.
    #[test]
    fn entropy_bounds((m, k, seed) in tensor_strategy(16)) {
        let p = ops::softmax_rows(&rand_tensor(m, k, seed));
        for h in ops::entropy_rows(&p) {
            prop_assert!(h >= -1e-6);
            prop_assert!(h <= (k as f32).ln() + 1e-5);
        }
    }

    /// <im2col(x), y> == <x, col2im(y)> for arbitrary geometry: the adjoint
    /// identity backprop requires.
    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..4,
        hw in 3usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw + 2 * pad >= kernel);
        let geom = ConvGeom::square(c, kernel, stride, pad);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn([c * hw * hw], 1.0, &mut rng);
        let cols = im2col(x.as_slice(), hw, hw, &geom);
        let y = Tensor::randn([cols.dims()[0], cols.dims()[1]], 1.0, &mut rng);
        let lhs: f64 = cols.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let mut xg = vec![0.0f32; x.numel()];
        col2im(y.as_slice(), hw, hw, &geom, &mut xg);
        let rhs: f64 = x.as_slice().iter().zip(xg.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// gather then concat round-trips slicing.
    #[test]
    fn gather_slice_consistency(n in 2usize..16, m in 1usize..8, seed in any::<u64>()) {
        let t = rand_tensor(n, m, seed);
        let idx: Vec<usize> = (0..n).collect();
        let g = t.gather_axis0(&idx);
        prop_assert_eq!(g.as_slice(), t.as_slice());
        let a = t.slice_axis0(0, 1);
        let b = t.slice_axis0(1, n);
        let joined = Tensor::concat_axis0(&[&a, &b]);
        prop_assert_eq!(joined.as_slice(), t.as_slice());
    }
}
