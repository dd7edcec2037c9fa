//! Matrix products that never materialise a transpose, banded over output
//! rows when large.
//!
//! * [`matmul`]      — `C = A·B`   (linear/conv forward),
//! * [`matmul_a_bt`] — `C = A·Bᵀ`  (linear forward, conv weight gradients `dW = dY·colsᵀ`),
//! * [`matmul_at_b`] — `C = Aᵀ·B`  (conv patch gradients `Wᵀ·dY`, linear weight gradients).
//!
//! Each is a shape-checked wrapper that allocates a zeroed `C` around a
//! slice-level kernel — [`gemm_into`], [`gemm_a_bt_into`],
//! [`gemm_at_b_into`] — that accumulates `C += …` in place, so a caller that
//! already owns its output (a convolution writing one image of a batch, a
//! gradient summed over images) pays for neither a temporary nor a copy.
//!
//! # One tile, three operand layouts
//!
//! All three kernels run on one register tile: `MR × NR` accumulators stay
//! in registers for all of `k` while each step takes `NR` contiguous
//! elements of one operand (the *wide* one) and `MR` strided elements of the
//! other (the *tall* one, read through strides so that `A` and `Aᵀ` are the
//! same code). Edges reuse the same body: half as wide, then one column at a
//! time, and one row at a time. A kernel is a choice of which operand is
//! tall, which is wide, and where the accumulators start and end up:
//!
//! * `A·B`, the product every served request runs: `A` is tall as it lies
//!   (a row is `k` apart, a term one apart), `B` is wide as it lies, and a
//!   tile of `C` is loaded, takes its `k` terms and is stored once.
//! * `Aᵀ·B` is the same with the strides of `A` exchanged.
//! * `A·Bᵀ` is `m·n` dot products, and one dot product is one chain of
//!   additions that cannot be vectorised without reordering it. So the
//!   operand with fewer rows is copied transposed (`1/rows-of-the-other` of
//!   the work; in a convolution's backward pass it is the upstream
//!   gradient, `1/patch`), which puts `NR` dot products side by side in one
//!   vector, each still its own accumulator. A single row is its own
//!   transpose: the exit head of a batch-1 request packs and allocates
//!   nothing.
//!
//! # What the bits depend on
//!
//! Nothing but the operands. Every element of `C` sums its `k` terms in
//! ascending order — `A·B` and `Aᵀ·B` onto the value `C` held, `A·Bᵀ` from
//! zero and then onto `C` — whichever tile, edge or band it falls in, and
//! no product is fused into its addition. A product below 2²⁰
//! multiply-adds, on a one-core host, or called from inside another op's
//! band runs on the calling thread; otherwise [`crate::parallel`] gives
//! each core a contiguous band of `C`'s rows.
//!
//! The tile has no zero-skip branch, which the row loops it replaced had.
//! For finite operands that changes no bit but one: a skipped term is `±0`,
//! `x + ±0 = x` for every `x` except that `−0 + +0 = +0`, and a sum that
//! starts at `+0` (every caller's `C` does) never becomes `−0`. A `C` that
//! holds `−0` on entry is the one case in which the branch could show — it
//! kept the `−0` where the tile may return `+0`. For a non-finite operand
//! the missing branch is the point: `0 · NaN` is `NaN`, and a branch that
//! skips it lets a `NaN` activation or a diverged upstream gradient reach
//! some rows of the result and not others, so that a broken forward or step
//! can look finite.

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

/// Rows and columns of the register tile. `MR × NR` accumulators are eight
/// four-lane vectors, which together with one row of the wide operand and
/// one broadcast of the tall one fill the sixteen vector registers every
/// x86-64 has; wider hardware only unrolls less.
const MR: usize = 4;
const NR: usize = 8;
/// Width of the one narrower tile between `NR` and single columns, so that
/// a 12-channel layer is a tile and a half, not a tile and four columns.
const HALF_NR: usize = NR / 2;

/// A matrix read through strides — element `(r, p)` is
/// `data[r·row + p·col]` — so a row-major matrix and its transpose are the
/// same code.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    row: usize,
    col: usize,
}

/// The one inner loop of the tiled kernels: `acc[r][w] += T(r, p)·wide[p][w]`
/// for `p` ascending over `k`, where `wide` is row-major with rows `ldw`
/// apart. The accumulators are a by-value array of constant size, so they
/// live in registers for all of `k`; each is its own chain, so the `w` loop
/// vectorises without reordering any sum.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    mut acc: [[f32; W]; R],
    tall: Strided,
    wide: &[f32],
    ldw: usize,
    k: usize,
) -> [[f32; W]; R] {
    for p in 0..k {
        let wrow = &wide[p * ldw..][..W];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let t = tall.data[r * tall.row + p * tall.col];
            for (av, &wv) in acc_row.iter_mut().zip(wrow) {
                *av += t * wv;
            }
        }
    }
    acc
}

/// Where a tile's accumulators start and where they end up; `(t, w)` is the
/// tile's first row of the tall operand and first column of the wide one.
trait Sink {
    fn seed<const R: usize, const W: usize>(&self, t: usize, w: usize) -> [[f32; W]; R];
    fn emit<const R: usize, const W: usize>(&mut self, t: usize, w: usize, acc: [[f32; W]; R]);
}

/// `C += …` term by term: a tile is loaded from row-major `C`, takes its `k`
/// terms and is stored once, so `(c + p₁) + p₂ + …` is unchanged.
struct Running<'a> {
    c: &'a mut [f32],
    n: usize,
}

impl Sink for Running<'_> {
    fn seed<const R: usize, const W: usize>(&self, t: usize, w: usize) -> [[f32; W]; R] {
        std::array::from_fn(|r| self.c[(t + r) * self.n + w..][..W].try_into().expect("W elements"))
    }

    fn emit<const R: usize, const W: usize>(&mut self, t: usize, w: usize, acc: [[f32; W]; R]) {
        for (r, acc_row) in acc.iter().enumerate() {
            self.c[(t + r) * self.n + w..][..W].copy_from_slice(acc_row);
        }
    }
}

/// `C += (p₁ + p₂ + …)`: a tile of dot products is summed from zero and then
/// added; tile element `(t, w)` is `c[t·row + w·col]`.
struct Dots<'a> {
    c: &'a mut [f32],
    row: usize,
    col: usize,
}

impl Sink for Dots<'_> {
    fn seed<const R: usize, const W: usize>(&self, _: usize, _: usize) -> [[f32; W]; R] {
        [[0.0; W]; R]
    }

    fn emit<const R: usize, const W: usize>(&mut self, t: usize, w: usize, acc: [[f32; W]; R]) {
        for (r, acc_row) in acc.iter().enumerate() {
            for (x, av) in acc_row.iter().enumerate() {
                self.c[(t + r) * self.row + (w + x) * self.col] += av;
            }
        }
    }
}

/// Covers `rows` of the tall operand by `cols` of the wide one (row-major,
/// `cols` wide) with tiles: `MR × NR` where they fit, and at the edges the
/// same body over single rows, half-width and single columns.
fn sweep<S: Sink>(tall: Strided, rows: usize, wide: &[f32], cols: usize, k: usize, sink: &mut S) {
    let mut t = 0;
    while t < rows {
        let from_t = Strided { data: &tall.data[t * tall.row..], ..tall };
        if t + MR <= rows {
            tile_row::<MR, S>(from_t, t, wide, cols, k, sink);
            t += MR;
        } else {
            tile_row::<1, S>(from_t, t, wide, cols, k, sink);
            t += 1;
        }
    }
}

fn tile_row<const R: usize, S: Sink>(tall: Strided, t: usize, wide: &[f32], cols: usize, k: usize, sink: &mut S) {
    let mut w = 0;
    while w < cols {
        let wide = &wide[w..];
        w += match cols - w {
            NR.. => tile_at::<R, NR, S>(tall, t, wide, cols, w, k, sink),
            HALF_NR.. => tile_at::<R, HALF_NR, S>(tall, t, wide, cols, w, k, sink),
            _ => tile_at::<R, 1, S>(tall, t, wide, cols, w, k, sink),
        };
    }
}

/// One tile from seed to sink; returns its width.
fn tile_at<const R: usize, const W: usize, S: Sink>(
    tall: Strided,
    t: usize,
    wide: &[f32],
    ldw: usize,
    w: usize,
    k: usize,
    sink: &mut S,
) -> usize {
    sink.emit(t, w, tile(sink.seed::<R, W>(t, w), tall, wide, ldw, k));
    W
}

/// `[k, rows]` from row-major `[rows, k]`.
fn transposed(matrix: &[f32], k: usize) -> Vec<f32> {
    let rows = matrix.len() / k;
    let mut out = vec![0.0; matrix.len()];
    for (j, row) in matrix.chunks_exact(k).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            out[p * rows + j] = v;
        }
    }
    out
}

/// `C += A·B` on row-major slices, `A: [m, k]`, `B: [k, n]`, `C: [m, n]`:
/// each element of `C` takes its `k` terms in ascending order, none skipped.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let Some(band) = band_rows(a, b, c, m, k, n) else { return };
    parallel::run(c.chunks_mut(band * n).zip(a.chunks(band * k)), |(c_band, a_band)| {
        let tall = Strided { data: a_band, row: k, col: 1 };
        sweep(tall, a_band.len() / k, b, n, k, &mut Running { c: c_band, n });
    });
}

/// `C += A·Bᵀ` on row-major slices, `A: [m, k]`, `B: [n, k]`, `C: [m, n]`:
/// each dot product is summed from zero in ascending `k`, then added to its
/// element of `C`. Allocates a transposed copy of whichever of `A` and `B`
/// has fewer rows, unless that is a single row.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let Some(band) = band_rows(a, b, c, m, k, n) else { return };
    parallel::run(c.chunks_mut(band * n).zip(a.chunks(band * k)), |(c_band, a_band)| {
        let rows = a_band.len() / k;
        let (tall, wide, mut sink) = if rows <= n {
            (b, a_band, Dots { c: c_band, row: 1, col: n })
        } else {
            (a_band, b, Dots { c: c_band, row: n, col: 1 })
        };
        let cols = wide.len() / k;
        let packed;
        let wide = if cols > 1 {
            packed = transposed(wide, k);
            &packed
        } else {
            wide // a single row is its own transpose
        };
        sweep(Strided { data: tall, row: k, col: 1 }, tall.len() / k, wide, cols, k, &mut sink);
    });
}

/// `C += Aᵀ·B` on row-major slices, `A: [k, m]`, `B: [k, n]`, `C: [m, n]`:
/// each element of `C` takes its `k` terms in ascending order, none skipped.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let Some(band) = band_rows(a, b, c, m, k, n) else { return };
    parallel::run(c.chunks_mut(band * n).enumerate(), |(band_idx, c_band)| {
        let tall = Strided { data: &a[band_idx * band..], row: 1, col: m };
        sweep(tall, c_band.len() / n, b, n, k, &mut Running { c: c_band, n });
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

    /// The order of additions, written out one element at a time:
    /// `C[i][j]` takes `a(i, p) · b(p, j)` for `p` ascending, either onto the
    /// value it holds or, for a dot product, onto zero and then onto it.
    fn reference(
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        c: &mut [f32],
        (m, k, n): (usize, usize, usize),
        dot: bool,
    ) {
        for i in 0..m {
            for j in 0..n {
                let held = c[i * n + j];
                let mut acc = if dot { 0.0 } else { held };
                for p in 0..k {
                    acc += a(i, p) * b(p, j);
                }
                c[i * n + j] = if dot { held + acc } else { acc };
            }
        }
    }

    /// `[A·B, A·Bᵀ, Aᵀ·B]` added into copies of `c`, each kernel reading its
    /// operand in the layout it expects of the same `A: [m, k]`, `B: [k, n]`.
    fn three_products(a: &Tensor, b: &Tensor, c: &[f32]) -> [Vec<f32>; 3] {
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let (a_t, b_t) = (a.transpose2d(), b.transpose2d());
        let mut out = [c.to_vec(), c.to_vec(), c.to_vec()];
        gemm_into(a.as_slice(), b.as_slice(), &mut out[0], m, k, n);
        gemm_a_bt_into(a.as_slice(), b_t.as_slice(), &mut out[1], m, k, n);
        gemm_at_b_into(a_t.as_slice(), b.as_slice(), &mut out[2], m, k, n);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn kernels_match_the_reference(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let c = Tensor::randn([m, n], 1.0, &mut rng); // not zero on entry
        let got = three_products(&a, &b, c.as_slice());
        for (kernel, dot) in [false, true, false].into_iter().enumerate() {
            let mut want = c.as_slice().to_vec();
            reference(|i, p| a.at(&[i, p]), |p, j| b.at(&[p, j]), &mut want, (m, k, n), dot);
            assert_eq!(bits(&got[kernel]), bits(&want), "kernel {kernel} at m={m}, k={k}, n={n}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn slice_kernels_match_the_scalar_reference_bit_for_bit(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            kernels_match_the_reference(m, k, n, seed);
        }
    }

    /// Every edge of the tile grid: fewer rows than `MR`, fewer columns than
    /// `NR`, the half-width column tile, a single row on either side of
    /// `A·Bᵀ` (nothing packed), the packed side being `A` and being `B`, and
    /// a single term.
    #[test]
    fn slice_kernels_match_the_reference_at_the_tile_edges() {
        let edges = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + HALF_NR, 2 * NR + 1];
        for (seed, &m) in edges.iter().enumerate() {
            for &n in &edges {
                for k in [1, 2, 19] {
                    kernels_match_the_reference(m, k, n, seed as u64);
                }
            }
        }
    }

    /// `A·Bᵀ` sums a dot product from zero and adds it to `C` afterwards.
    /// Summing onto `C` term by term is a different number, and the
    /// bit-for-bit comparison above is sharp enough to tell.
    #[test]
    fn a_bt_is_summed_from_zero_then_added() {
        let mut rng = Rng::new(11);
        let (m, k, n) = (9, 33, 13);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let c = Tensor::randn([m, n], 1.0, &mut rng);
        let got = &three_products(&a, &b, c.as_slice())[1];
        let mut running = c.as_slice().to_vec();
        reference(|i, p| a.at(&[i, p]), |p, j| b.at(&[p, j]), &mut running, (m, k, n), false);
        assert_ne!(bits(got), bits(&running), "(c + p₁) + p₂ must not pass for c + (p₁ + p₂)");
        for (x, y) in got.iter().zip(&running) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    /// The tile multiplies by a zero it could have skipped. For finite data
    /// that is bit-neutral — checked against a reference that does skip, on
    /// an `A` that is mostly `±0` — and for a non-finite `B[k][j]` it is the
    /// fix: the `NaN` reaches `C[i][j]` for every `i`, also through a zero
    /// `A[i][k]`, and no other column. `kernel` indexes [`three_products`].
    fn takes_every_term_zero_or_not(seed: u64, kernel: usize) {
        let mut rng = Rng::new(seed);
        let (m, k, n) = (10, 6, 11);
        let mut a = Tensor::randn([m, k], 1.0, &mut rng);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        let mut b = Tensor::randn([k, n], 1.0, &mut rng);
        for c_on_entry in [Tensor::zeros([m, n]), Tensor::randn([m, n], 1.0, &mut rng)] {
            let got = &three_products(&a, &b, c_on_entry.as_slice())[kernel];
            let mut skipping = c_on_entry.as_slice().to_vec();
            for (i, j, p) in (0..m).flat_map(|i| (0..n).flat_map(move |j| (0..k).map(move |p| (i, j, p)))) {
                if a.at(&[i, p]) != 0.0 {
                    skipping[i * n + j] += a.at(&[i, p]) * b.at(&[p, j]);
                }
            }
            assert_eq!(bits(got), bits(&skipping));
        }

        let (bad_k, bad_j) = (1, 4);
        assert!((0..m).any(|i| a.at(&[i, bad_k]) == 0.0), "some rows meet the NaN through a zero");
        b.set(&[bad_k, bad_j], f32::NAN);
        let c = &three_products(&a, &b, &vec![0.0; m * n])[kernel];
        for (at, v) in c.iter().enumerate() {
            assert_eq!(v.is_nan(), at % n == bad_j, "C[{}][{}]", at / n, at % n);
        }
    }

    #[test]
    fn at_b_takes_every_term_zero_or_not() {
        takes_every_term_zero_or_not(12, 2);
    }

    /// The forward's twin: a `NaN` activation behind a zero weight reaches
    /// every output channel of its pixel, not only those with a weight on it.
    #[test]
    fn a_b_takes_every_term_zero_or_not() {
        takes_every_term_zero_or_not(13, 0);
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
