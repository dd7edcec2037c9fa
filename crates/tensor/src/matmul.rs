//! Matrix products that never materialise a transpose, each on the calling
//! thread.
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
//! All three kernels run on one register tile: `R × W` accumulators stay in
//! registers for all of `k` while each step takes `W` contiguous elements of
//! one operand (the *wide* one) and `R` elements of the other (the *tall*
//! one). A kernel is a choice of which operand is tall, which is wide, and
//! where the accumulators start and end up:
//!
//! * `A·B`, the product every served request runs: `A` is tall as it lies
//!   (its rows contiguous), `B` is wide as it lies, and a tile of `C` is
//!   loaded, takes its `k` terms and is stored once.
//! * `Aᵀ·B` is the same with `A` read down its columns, which are
//!   contiguous in `Aᵀ`: the `R` elements of a step are one slice. The two
//!   layouts are two types, so each sweep is compiled for its own and its
//!   inner loop branches on none.
//! * `A·Bᵀ` is `m·n` dot products, and one dot product is one chain of
//!   additions that cannot be vectorised without reordering it. So the
//!   operand with fewer rows is copied transposed (`1/rows-of-the-other` of
//!   the work; in a convolution's backward pass it is the upstream
//!   gradient, `1/patch`), which puts `W` dot products side by side in one
//!   vector, each still its own accumulator. The copy is zero-padded to
//!   whole vectors of the build: a layer of 12 or 24 output channels is one
//!   16- or 32-wide tile on AVX-512F, not a 16-wide one plus a half-width or
//!   quarter-width one that does as many steps for half or a quarter of the
//!   products. The padding lanes multiply zeros and are never emitted. A
//!   single row is its own transpose: the exit head of a batch-1 request
//!   packs and allocates nothing.
//!
//! # What the bits depend on
//!
//! Nothing but the operands. Every element of `C` sums its `k` terms in
//! ascending order — `A·B` and `Aᵀ·B` onto the value `C` held, `A·Bᵀ` from
//! zero and then onto `C` — whichever tile or edge it falls in, and no
//! product is fused into its addition. Every product runs on the calling
//! thread, so neither the core count nor the size of `C` enters.
//!
//! Nor on the width of the vectors that run the tile, nor on its height.
//! One lane of an accumulator vector is one element of `C`: a step
//! multiplies the lane's own pair of operands and adds the product to that
//! lane alone, so a vector of 4, 8 or 16 lanes is 4, 8 or 16 of the chains
//! above side by side, each still adding its `k` terms in ascending order,
//! and a taller tile is more such chains. No lane is ever summed into
//! another (`A·Bᵀ` packs a transpose precisely so that it never has to
//! reduce across a vector), and a padding lane of `A·Bᵀ` is a chain of its
//! own whose sum is dropped. And no product is fused into its addition on
//! any build: Rust does not contract `a * b + c` into one rounding, even in
//! a function compiled for a CPU with fused multiply-add (AVX-512F implies
//! it), and this file has no `mul_add`. So every build below returns the
//! same bits, and the tests check each one against a scalar reference with
//! `to_bits`.
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
//!
//! # Which tile runs
//!
//! The sweep that covers `C` with tiles — `sweep` → `panel` → `tile_at`,
//! with the layout's inner loop inlined — has one source, the `tile_build!`
//! macro, compiled once per instruction set with that build's table of
//! tile shapes, `rows × columns`. The sweep cuts `C` into panels of
//! columns, each as wide as the widest shape that fits, and covers a panel
//! with tiles of that shape's height. Rows left below the last full tile
//! take 4-row tiles and then single rows; columns left right of the
//! narrowest shape take single columns, 4 rows at a time.
//!
//! | build      | tiles, rows × columns          | vector registers      |
//! |------------|--------------------------------|-----------------------|
//! | `baseline` | 4 × 8, 8 × 4                   | sixteen 4-lane (SSE2) |
//! | `avx2`     | 6 × 16, 8 × 8, 8 × 4           | sixteen 8-lane        |
//! | `avx512f`  | 8 × 32, 8 × 16, 8 × 8, 8 × 4   | thirty-two 16-lane    |
//!
//! A narrower shape is taller, because every accumulator vector is one
//! chain of dependent additions: a step must start enough of them to cover
//! an addition's latency, and a tile one vector wide and four rows tall
//! starts only four. The heights stop where the measurements did: on
//! AVX-512F, 12-row tiles made `Aᵀ·B` 7–10× slower (its accumulators no
//! longer stayed in registers), and 6 × 48 made the served `A·B` 1.1–1.2×
//! slower than 8 × 32.
//!
//! On first use the process picks the widest build its CPU supports, by
//! `is_x86_feature_detected!`, and keeps it; [`kernel`] names it. All three
//! kernels, so served forwards and training steps alike, go through that
//! one choice. A target other than x86-64 compiles the baseline only.
//!
//! The wide builds are `#[target_feature]` functions, which are safe to
//! write and unsafe to call from code compiled without the feature. The one
//! `unsafe` block of this crate is that call, in the private dispatcher
//! `sweep`, whose every wide arm is guarded by `is_x86_feature_detected!`;
//! the crate denies `unsafe_code` everywhere else.
//!
//! Why not a build flag such as `-C target-cpu=native`: it changes the
//! instructions, not the tile. At 4 × 8 AVX2 was only 1.2× faster than the
//! baseline, because the width has to grow with the registers before the
//! wider vectors pay. A flag would also recompile every crate that links
//! this one, benchmark harnesses and their reference loops included, and
//! the binary would stop running on CPUs without those features.

use crate::tensor::Tensor;
use std::sync::OnceLock;

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

/// Checks the slice lengths and says whether there is anything to add.
fn has_terms(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) -> bool {
    assert!(
        a.len() == m * k && b.len() == k * n && c.len() == m * n,
        "gemm operands of {}, {} and {} elements do not fit m={m}, k={k}, n={n}",
        a.len(),
        b.len(),
        c.len()
    );
    m * n * k > 0
}

/// The tall operand of a tile sweep, in one of the two layouts the kernels
/// meet it in. Each layout is its own type, so the inner loop of a sweep is
/// compiled for its layout and branches on none.
trait Tall: Copy {
    /// The operand from its row `t` on.
    fn skip_rows(self, t: usize) -> Self;

    /// The one inner loop of the tiled kernels:
    /// `acc[r][w] += T(r, p)·wide[p][w]` for `p` ascending over `k`, where
    /// `T` is this operand and `wide` is row-major with rows `ldw` apart. The
    /// accumulators are a by-value array of constant size, so they live in
    /// registers for all of `k`; each is its own chain, so the `w` loop
    /// vectorises without reordering any sum. Inlined into every build
    /// below, it is compiled for that build's instruction set.
    fn tile<const R: usize, const W: usize>(
        self,
        acc: [[f32; W]; R],
        wide: &[f32],
        ldw: usize,
        k: usize,
    ) -> [[f32; W]; R];
}

/// A row-major `[rows, k]` operand, `A` of `A·B` and of `A·Bᵀ`: element
/// `(r, p)` is `data[r·k + p]`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    data: &'a [f32],
    k: usize,
}

impl Tall for Rows<'_> {
    #[inline(always)]
    fn skip_rows(self, t: usize) -> Self {
        Rows { data: &self.data[t * self.k..], ..self }
    }

    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        mut acc: [[f32; W]; R],
        wide: &[f32],
        ldw: usize,
        k: usize,
    ) -> [[f32; W]; R] {
        for p in 0..k {
            acc = step(acc, |r| self.data[r * self.k + p], &wide[p * ldw..][..W]);
        }
        acc
    }
}

/// The transpose of a row-major `[k, rows]` matrix, `Aᵀ` of `Aᵀ·B`: element
/// `(r, p)` is `data[p·rows + r]`, so the `R` elements a tile takes per
/// term are one slice.
#[derive(Clone, Copy)]
struct Columns<'a> {
    data: &'a [f32],
    rows: usize,
}

impl Tall for Columns<'_> {
    #[inline(always)]
    fn skip_rows(self, t: usize) -> Self {
        Columns { data: &self.data[t..], ..self }
    }

    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        mut acc: [[f32; W]; R],
        wide: &[f32],
        ldw: usize,
        k: usize,
    ) -> [[f32; W]; R] {
        for (column, wrow) in self.data.chunks(self.rows).zip(wide.chunks(ldw)).take(k) {
            let column = &column[..R];
            acc = step(acc, |r| column[r], &wrow[..W]);
        }
        acc
    }
}

/// One term of [`Tall::tile`]: `acc[r][w] += t(r)·wrow[w]`.
#[inline(always)]
fn step<const R: usize, const W: usize>(
    mut acc: [[f32; W]; R],
    t: impl Fn(usize) -> f32,
    wrow: &[f32],
) -> [[f32; W]; R] {
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let t = t(r);
        for (av, &wv) in acc_row.iter_mut().zip(wrow) {
            *av += t * wv;
        }
    }
    acc
}

/// Where a tile's accumulators start and where they end up; `(t, w)` is the
/// tile's first row of the tall operand and first column of the wide one.
/// Every method is `#[inline(always)]`, as [`tile`] is: one called from
/// several builds would otherwise stay out of line as baseline code, and
/// the baseline's own sweep would change with it.
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
    #[inline(always)]
    fn seed<const R: usize, const W: usize>(&self, t: usize, w: usize) -> [[f32; W]; R] {
        std::array::from_fn(|r| self.c[(t + r) * self.n + w..][..W].try_into().expect("W elements"))
    }

    #[inline(always)]
    fn emit<const R: usize, const W: usize>(&mut self, t: usize, w: usize, acc: [[f32; W]; R]) {
        for (r, acc_row) in acc.iter().enumerate() {
            self.c[(t + r) * self.n + w..][..W].copy_from_slice(acc_row);
        }
    }
}

/// `C += (p₁ + p₂ + …)`: a tile of dot products is summed from zero and then
/// added; tile element `(t, w)` is `c[t·row + w·col]`. Columns from `cols`
/// on are the zero padding of the packed operand and are never emitted.
struct Dots<'a> {
    c: &'a mut [f32],
    row: usize,
    col: usize,
    cols: usize,
}

impl Sink for Dots<'_> {
    #[inline(always)]
    fn seed<const R: usize, const W: usize>(&self, _: usize, _: usize) -> [[f32; W]; R] {
        [[0.0; W]; R]
    }

    #[inline(always)]
    fn emit<const R: usize, const W: usize>(&mut self, t: usize, w: usize, acc: [[f32; W]; R]) {
        let real = W.min(self.cols - w);
        for (r, acc_row) in acc.iter().enumerate() {
            if self.col == 1 {
                let c_row = &mut self.c[(t + r) * self.row + w..][..real];
                for (cv, av) in c_row.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            } else {
                for (x, av) in acc_row[..real].iter().enumerate() {
                    self.c[(t + r) * self.row + (w + x) * self.col] += av;
                }
            }
        }
    }
}

/// Rows per tile at the bottom edge, below a full tile's height, before
/// single rows take the rest; also the height of the single-column tiles at
/// the right edge.
const EDGE_ROWS: usize = 4;

/// The one source of the tile sweep, compiled once per build: a module
/// holding `sweep` → `panel` → `tile_at`, each carrying the build's
/// attributes, for the build's table of tile shapes, widest first, each
/// `rows x columns`. The columns of the operand are covered by the widest
/// tile that fits, then the narrower ones, then single columns; each
/// panel of columns is covered by tiles of its shape's height, then
/// [`EDGE_ROWS`]-row tiles, then single rows.
macro_rules! tile_build {
    (
        $(#[$isa:meta])* mod $build:ident, lanes = $lanes:literal,
        tiles = [$($mr:literal x $nr:literal),+]
    ) => {
        mod $build {
            use super::{Sink, Tall, EDGE_ROWS};

            /// The instruction set and its tile shapes, as [`super::kernel`] names them.
            pub(super) const NAME: &str = concat!(stringify!($build) $(, " ", $mr, "x", $nr)+);
            /// `f32` lanes in one vector register of the build.
            pub(super) const LANES: usize = $lanes;

            /// Covers `rows` of the tall operand by `cols` of the wide one
            /// (row-major, `cols` wide) with tiles.
            $(#[$isa])*
            pub(super) fn sweep<T: Tall, S: Sink>(
                tall: T,
                rows: usize,
                wide: &[f32],
                cols: usize,
                k: usize,
                sink: &mut S,
            ) {
                let mut w = 0;
                while w < cols {
                    let wide = &wide[w..];
                    w += match cols - w {
                        $($nr.. => panel::<$mr, $nr, T, S>(tall, rows, wide, cols, w, k, sink),)+
                        _ => panel::<EDGE_ROWS, 1, T, S>(tall, rows, wide, cols, w, k, sink),
                    };
                }
            }

            /// Columns `w..w + W` of every row, `R` rows to a tile; returns `W`.
            $(#[$isa])*
            fn panel<const R: usize, const W: usize, T: Tall, S: Sink>(
                tall: T,
                rows: usize,
                wide: &[f32],
                ldw: usize,
                w: usize,
                k: usize,
                sink: &mut S,
            ) -> usize {
                let mut t = 0;
                while t < rows {
                    let from_t = tall.skip_rows(t);
                    t += match rows - t {
                        left if left >= R => tile_at::<R, W, T, S>(from_t, t, wide, ldw, w, k, sink),
                        left if left >= EDGE_ROWS => tile_at::<EDGE_ROWS, W, T, S>(from_t, t, wide, ldw, w, k, sink),
                        _ => tile_at::<1, W, T, S>(from_t, t, wide, ldw, w, k, sink),
                    };
                }
                W
            }

            /// One tile from seed to sink; returns its height.
            $(#[$isa])*
            fn tile_at<const R: usize, const W: usize, T: Tall, S: Sink>(
                tall: T,
                t: usize,
                wide: &[f32],
                ldw: usize,
                w: usize,
                k: usize,
                sink: &mut S,
            ) -> usize {
                sink.emit(t, w, tall.tile(sink.seed::<R, W>(t, w), wide, ldw, k));
                R
            }
        }
    };
}

// A shape's accumulators, one row of the wide operand and a broadcast of the
// tall one must fit the build's vector registers. The baseline's 4 × 8 and
// 8 × 4 are eight four-lane accumulators of the sixteen registers every
// x86-64 has; the half-width tile makes a 12-channel layer a tile and a half,
// not a tile and four columns.
tile_build!(mod baseline, lanes = 4, tiles = [4 x 8, 8 x 4]);
// AVX2 has sixteen eight-lane registers: twelve accumulators at 6 × 16, eight
// below. AVX-512F has thirty-two sixteen-lane ones: sixteen accumulators at
// 8 × 32, fewer below, all 8 rows tall. On the networks' convolutions `dW`
// took 0.55–0.57× as long as on 4-row tiles on AVX-512F and 0.67–0.70× on
// AVX2; the forward products took no longer.
#[cfg(target_arch = "x86_64")]
tile_build!(#[target_feature(enable = "avx2")] mod avx2, lanes = 8, tiles = [6 x 16, 8 x 8, 8 x 4]);
#[cfg(target_arch = "x86_64")]
tile_build!(#[target_feature(enable = "avx512f")] mod avx512f, lanes = 16, tiles = [8 x 32, 8 x 16, 8 x 8, 8 x 4]);

/// One compilation of the tile sweep. Only the baseline is compiled for a
/// target other than x86-64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Build {
    #[cfg(target_arch = "x86_64")]
    Avx512f,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Baseline,
}

impl Build {
    /// Every build in this binary, widest first.
    pub(crate) const ALL: &[Build] = &[
        #[cfg(target_arch = "x86_64")]
        Build::Avx512f,
        #[cfg(target_arch = "x86_64")]
        Build::Avx2,
        Build::Baseline,
    ];

    /// Whether this CPU has the instructions the build is compiled for.
    pub(crate) fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => is_x86_feature_detected!("avx2"),
            Build::Baseline => true,
        }
    }

    /// `f32` lanes in one of the build's vector registers.
    fn lanes(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512f => avx512f::LANES,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => avx2::LANES,
            Build::Baseline => baseline::LANES,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512f => avx512f::NAME,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => avx2::NAME,
            Build::Baseline => baseline::NAME,
        }
    }

    /// The widest build this CPU runs, picked on first use and kept for the
    /// life of the process.
    fn selected() -> Build {
        static SELECTED: OnceLock<Build> = OnceLock::new();
        *SELECTED.get_or_init(|| Build::ALL.iter().copied().find(|b| b.runs_here()).unwrap_or(Build::Baseline))
    }
}

/// The build of the register tile this process runs, as instruction set and
/// table of tile shapes (`"avx512f 8x32 8x16 8x8 8x4"`, `"avx2 6x16 8x8 8x4"`
/// or `"baseline 4x8 8x4"`): the widest this CPU supports, picked on first
/// use.
pub fn kernel() -> &'static str {
    Build::selected().name()
}

/// The dispatcher: runs `build`'s sweep, and is the one place that calls a
/// function compiled for instructions the baseline lacks.
///
/// # Panics
///
/// Panics if this CPU cannot run `build`.
#[allow(unsafe_code)]
fn sweep<T: Tall, S: Sink>(build: Build, tall: T, rows: usize, wide: &[f32], cols: usize, k: usize, sink: &mut S) {
    match build {
        #[cfg(target_arch = "x86_64")]
        Build::Avx512f if is_x86_feature_detected!("avx512f") => {
            // SAFETY: `avx512f::sweep` is compiled with
            // `target_feature(enable = "avx512f")`, and this arm runs only
            // when its `is_x86_feature_detected!("avx512f")` guard has found
            // that feature on this CPU.
            unsafe { avx512f::sweep(tall, rows, wide, cols, k, sink) }
        }
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 if is_x86_feature_detected!("avx2") => {
            // SAFETY: `avx2::sweep` is compiled with
            // `target_feature(enable = "avx2")`, and this arm runs only when
            // its `is_x86_feature_detected!("avx2")` guard has found that
            // feature on this CPU.
            unsafe { avx2::sweep(tall, rows, wide, cols, k, sink) }
        }
        Build::Baseline => baseline::sweep(tall, rows, wide, cols, k, sink),
        #[cfg(target_arch = "x86_64")]
        unsupported => panic!("the {} tile does not run on this CPU", unsupported.name()),
    }
}

/// `[k, padded]` from row-major `[rows, k]`: the transpose, each of its
/// rows zero-padded from `rows` to `padded` elements.
fn transposed(matrix: &[f32], k: usize, padded: usize) -> Vec<f32> {
    let mut out = vec![0.0; k * padded];
    for (j, row) in matrix.chunks_exact(k).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            out[p * padded + j] = v;
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
    Build::selected().gemm_into(a, b, c, m, k, n);
}

/// `C += A·Bᵀ` on row-major slices, `A: [m, k]`, `B: [n, k]`, `C: [m, n]`:
/// each dot product is summed from zero in ascending `k`, then added to its
/// element of `C`. Allocates a transposed copy of whichever of `A` and `B`
/// has fewer rows, zero-padded to whole vectors, unless that is a single
/// row. `C`'s rows are written contiguously when `A` has more rows than `B`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    Build::selected().gemm_a_bt_into(a, b, c, m, k, n);
}

/// `C += Aᵀ·B` on row-major slices, `A: [k, m]`, `B: [k, n]`, `C: [m, n]`:
/// each element of `C` takes its `k` terms in ascending order, none skipped.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    Build::selected().gemm_at_b_into(a, b, c, m, k, n);
}

/// The three kernels on one build's tile.
impl Build {
    pub(crate) fn gemm_into(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        if has_terms(a, b, c, m, k, n) {
            sweep(self, Rows { data: a, k }, m, b, n, k, &mut Running { c, n });
        }
    }

    pub(crate) fn gemm_a_bt_into(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        if !has_terms(a, b, c, m, k, n) {
            return;
        }
        let (tall, wide, mut sink) = if m <= n {
            (b, a, Dots { c, row: 1, col: n, cols: m })
        } else {
            (a, b, Dots { c, row: n, col: 1, cols: n })
        };
        let packed;
        let (wide, cols) = if sink.cols > 1 {
            let padded = sink.cols.next_multiple_of(self.lanes());
            packed = transposed(wide, k, padded);
            (&packed[..], padded)
        } else {
            (wide, 1) // a single row is its own transpose
        };
        sweep(self, Rows { data: tall, k }, tall.len() / k, wide, cols, k, &mut sink);
    }

    pub(crate) fn gemm_at_b_into(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        if has_terms(a, b, c, m, k, n) {
            sweep(self, Columns { data: a, rows: m }, m, b, n, k, &mut Running { c, n });
        }
    }
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
                c.as_mut_slice()[i * n + j] = acc;
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

    /// A product of many tile rows and panels, against the naive loop.
    #[test]
    fn large_product_spanning_many_tile_rows_matches_naive() {
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

    /// `Aᵀ·B` over many tile rows and panels, against the naive loop.
    #[test]
    fn large_at_b_spanning_many_tile_rows_matches_naive() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn([96, 128], 1.0, &mut rng);
        let b = Tensor::randn([96, 100], 1.0, &mut rng);
        assert_close(&matmul_at_b(&a, &b), &naive(&a.transpose2d(), &b), 1e-4);
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

    /// `[A·B, A·Bᵀ, Aᵀ·B]` added into copies of `c` on `build`'s tile, each
    /// kernel reading its operand in the layout it expects of the same
    /// `A: [m, k]`, `B: [k, n]`.
    fn products_on(build: Build, a: &Tensor, b: &Tensor, c: &[f32]) -> [Vec<f32>; 3] {
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let (a_t, b_t) = (a.transpose2d(), b.transpose2d());
        let mut out = [c.to_vec(), c.to_vec(), c.to_vec()];
        build.gemm_into(a.as_slice(), b.as_slice(), &mut out[0], m, k, n);
        build.gemm_a_bt_into(a.as_slice(), b_t.as_slice(), &mut out[1], m, k, n);
        build.gemm_at_b_into(a_t.as_slice(), b.as_slice(), &mut out[2], m, k, n);
        out
    }

    /// [`products_on`] on the tile the dispatcher picked.
    fn three_products(a: &Tensor, b: &Tensor, c: &[f32]) -> [Vec<f32>; 3] {
        products_on(Build::selected(), a, b, c)
    }

    /// The builds this CPU runs, straight from the table; the others are
    /// named on stderr as skipped.
    fn builds_here() -> Vec<Build> {
        let (here, skipped): (Vec<Build>, Vec<Build>) = Build::ALL.iter().partition(|b| b.runs_here());
        for build in skipped {
            eprintln!("skipped the {} tile: this CPU cannot run it", build.name());
        }
        here
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn kernels_match_the_reference(build: Build, m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let c = Tensor::randn([m, n], 1.0, &mut rng); // not zero on entry
        let got = products_on(build, &a, &b, c.as_slice());
        let (a, b) = (a.as_slice(), b.as_slice());
        let [running, dots] = [false, true].map(|dot| {
            let mut want = c.as_slice().to_vec();
            reference(|i, p| a[i * k + p], |p, j| b[p * n + j], &mut want, (m, k, n), dot);
            bits(&want)
        });
        for (kernel, want) in [&running, &dots, &running].into_iter().enumerate() {
            let tile = build.name();
            assert_eq!(&bits(&got[kernel]), want, "{tile} kernel {kernel} at m={m}, k={k}, n={n}");
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
            for build in builds_here() {
                kernels_match_the_reference(build, m, k, n, seed);
            }
        }
    }

    /// Every edge of every build's tile grid: fewer rows than a tile's 4, 6
    /// or 8, each of those heights and one row either side of it, a full
    /// tile plus the 4-row edge tile and one row more (12, 13), several full
    /// tiles and one row more (36, 37); fewer columns than the 8, 16 or 32
    /// of a tile, each narrower width of the tables (12 = 8 + 4, 24 = 16 + 8,
    /// 28 = 16 + 8 + 4, 48 = 32 + 16, 60 = 32 + 16 + 8 + 4), one column past
    /// a full tile and two; a single row on either side of `A·Bᵀ` (nothing
    /// packed), the packed side being `A` and being `B`, padded to whole
    /// vectors or not; and a single term, a few, and more than a tile has
    /// rows or columns.
    #[test]
    fn slice_kernels_match_the_reference_at_the_tile_edges() {
        let edges = [1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 24, 28, 31, 32, 33, 36, 37, 48, 60];
        for build in builds_here() {
            for (seed, &m) in edges.iter().enumerate() {
                for &n in &edges {
                    for k in [1, 2, 19, 70] {
                        kernels_match_the_reference(build, m, k, n, seed as u64);
                    }
                }
            }
            eprintln!(
                "the {} tile (rows x columns) matches the reference bit for bit at every edge",
                build.name()
            );
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
    /// `A[i][k]`, and no other column. `kernel` indexes [`products_on`].
    fn takes_every_term_zero_or_not(build: Build, seed: u64, kernel: usize) {
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
            let got = &products_on(build, &a, &b, c_on_entry.as_slice())[kernel];
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
        b.as_mut_slice()[bad_k * n + bad_j] = f32::NAN;
        let c = &products_on(build, &a, &b, &vec![0.0; m * n])[kernel];
        for (at, v) in c.iter().enumerate() {
            assert_eq!(v.is_nan(), at % n == bad_j, "C[{}][{}]", at / n, at % n);
        }
    }

    #[test]
    fn at_b_takes_every_term_zero_or_not() {
        for build in builds_here() {
            takes_every_term_zero_or_not(build, 12, 2);
        }
    }

    /// The forward's twin: a `NaN` activation behind a zero weight reaches
    /// every output channel of its pixel, not only those with a weight on it.
    #[test]
    fn a_b_takes_every_term_zero_or_not() {
        for build in builds_here() {
            takes_every_term_zero_or_not(build, 13, 0);
        }
    }

    /// The dispatcher picks the widest build this CPU runs, and names it.
    #[test]
    fn the_widest_build_that_runs_here_is_picked() {
        assert_eq!(Some(&Build::selected()), builds_here().first());
        assert_eq!(kernel(), Build::selected().name());
        assert_eq!(Build::ALL.last(), Some(&Build::Baseline), "the baseline runs everywhere, so it comes last");
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
