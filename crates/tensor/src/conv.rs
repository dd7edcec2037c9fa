//! Convolution geometry and im2col / col2im transforms.
//!
//! Convolutions are lowered to matrix products: for one image the patch
//! matrix `cols` has shape `[C·kh·kw, oh·ow]`, and the layer computes
//! `W · cols` with `W: [C_out, C·kh·kw]`. The backward pass uses
//! [`col2im`] to scatter patch gradients back onto the input image.
//!
//! Both transforms run through an [`UnfoldPlan`], built once per geometry
//! and input size. A tap `(c, ki, kj)`'s source pixel is inside the image for
//! a contiguous range of output rows and of output columns
//! (`ConvGeom::reaching`). The plan computes the `kh` row ranges and `kw`
//! column ranges once, not once per channel and tap, and turns them into one
//! of two forms:
//!
//! * **Block**, for stride 1 with an output row as long as an image row
//!   (every "same" convolution: `kw = 2·pad + 1`). Output element
//!   `(oy, ox)` of tap `(ki, kj)` then reads pixel
//!   `(oy + ki − pad, ox + kj − pad)`, which is `(ki − pad)·w + kj − pad`
//!   elements from its own index for every element of the tap. So one slice
//!   from the tap's first in-image element to its last puts each in-image
//!   element's pixel in place. Between two in-image runs it also writes the
//!   at most `pad` border columns at the end of one row and the start of the
//!   next, with pixels of the neighbouring image row. The plan lists those,
//!   and the rows and columns outside the slice, as the tap's padding
//!   positions, which are set to padding after the copy; so the tap ends up
//!   element for element what the per-element loop writes. The fold adds
//!   each output row's in-image run to its stretch of an image row, or the
//!   whole slice at once when no border column cuts it.
//! * **Gather**, for every other geometry (a larger stride, or output rows
//!   of another length than image rows). The plan stores, for each patch
//!   element of a channel, the index of the pixel it reads within the
//!   channel plane, or a padding sentinel; the unfold is then one straight
//!   gather per channel and the fold one scatter-add in the same order.
//!
//! No short run costs a library call: a copy under 32 elements moves as
//! 8-element arrays and padding is stored position by position, so
//! `memcpy` is left to long copies and `memset` to none. Every pixel of a
//! fold receives its taps in `(c, ki, kj, oy, ox)` order in both forms, so
//! its sum is the per-element loop's, bit for bit.
//!
//! A depthwise convolution has no patch matrix to multiply: [`depthwise_into`]
//! walks the same per-tap ranges and adds `weight · pixel` straight into the
//! output row. Its bits depend only on the order in which each output element
//! receives its taps: every element starts at `+0.0` and adds the products of
//! its in-image taps in ascending `(ki, kj)` order, one rounding per product
//! and one per addition (no fused multiply-add), padding taps skipped rather
//! than added as zero products (the same sum for finite weights, but
//! `∞ · 0` is NaN). Any loop order gives the per-element loop's sums exactly
//! as long as the taps are the outermost loops, taken in ascending order.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Geometry of a 2-D convolution (square stride/padding, no dilation —
/// sufficient for ResNet and MobileNetV2 family architectures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride applied in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every border.
    pub pad: usize,
}

impl ConvGeom {
    /// Square-kernel convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0, which no output size could be computed for.
    pub fn square(in_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(stride >= 1, "convolution stride must be at least 1, got stride {stride}");
        ConvGeom { in_channels, kh: kernel, kw: kernel, stride, pad }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.pad;
        let pw = w + 2 * self.pad;
        assert!(
            ph >= self.kh && pw >= self.kw,
            "kernel {}x{} larger than padded input {ph}x{pw}",
            self.kh,
            self.kw
        );
        ((ph - self.kh) / self.stride + 1, (pw - self.kw) / self.stride + 1)
    }

    /// Rows of the im2col patch matrix (`C·kh·kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kh * self.kw
    }

    /// The output positions `o < outs` whose kernel tap `k` reads a pixel of
    /// the image rather than padding — `o·stride + k − pad` falls in
    /// `0..size` — along one spatial dimension. Possibly empty, never
    /// inverted.
    pub(crate) fn reaching(&self, k: usize, size: usize, outs: usize) -> Range<usize> {
        let end = if size + self.pad > k { (size + self.pad - k - 1) / self.stride + 1 } else { 0 }.min(outs);
        self.pad.saturating_sub(k).div_ceil(self.stride).min(end)..end
    }
}

/// Unfolds one `[C, H, W]` image (given as a raw slice) into a patch matrix
/// of shape `[C·kh·kw, oh·ow]`. Out-of-bounds (padding) taps contribute
/// zeros.
///
/// # Panics
///
/// Panics if `image.len() != C·H·W`.
pub fn im2col(image: &[f32], h: usize, w: usize, geom: &ConvGeom) -> Tensor {
    let (oh, ow) = geom.out_hw(h, w);
    let mut cols = Tensor::zeros([geom.patch_len(), oh * ow]);
    im2col_into(image, h, w, geom, cols.as_mut_slice());
    cols
}

/// [`im2col`] into a caller-owned buffer of `C·kh·kw · oh·ow` elements,
/// which may hold anything on entry: every element is written, a tap inside
/// the image with its pixel and a padding tap with zero, so a buffer reused
/// across images and input sizes leaks nothing.
///
/// # Panics
///
/// Panics if `image.len() != C·H·W` or `cols` has the wrong length.
pub fn im2col_into(image: &[f32], h: usize, w: usize, geom: &ConvGeom, cols: &mut [f32]) {
    unfold_into(image, h, w, geom, 0.0, cols);
}

/// [`im2col_into`] for any element type, padding taps written as `padding`
/// (zero for floats, the activation zero-point for quantised images),
/// through an [`UnfoldPlan`] built for this one call.
///
/// # Panics
///
/// Panics if `image.len() != C·H·W` or `cols` has the wrong length.
pub fn unfold_into<T: Copy>(image: &[T], h: usize, w: usize, geom: &ConvGeom, padding: T, cols: &mut [T]) {
    UnfoldPlan::new(geom, h, w).unfold(image, padding, cols);
}

/// Folds a patch-matrix gradient back into an image gradient, accumulating
/// overlapping taps, through an [`UnfoldPlan`] built for this one call.
/// `cols` must hold a row-major `[C·kh·kw, oh·ow]` matrix; the result is
/// added into `image_grad` (length `C·H·W`).
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub fn col2im(cols: &[f32], h: usize, w: usize, geom: &ConvGeom, image_grad: &mut [f32]) {
    UnfoldPlan::new(geom, h, w).fold(cols, image_grad);
}

/// A patch element of a gather plan that reads padding.
const PAD: u32 = u32::MAX;

/// Runs at least this many elements long are copied by `memcpy`; shorter
/// ones, for which the call costs more than the copy, are moved in place.
const SHORT_RUN: usize = 32;

/// How one geometry unfolds and folds an `h × w` image, worked out once and
/// reused for every image of that size (module docs). A convolution layer
/// keeps one beside its patch slot and builds a new one only when its input
/// size changes; [`unfold_into`] and [`col2im`] build one per call.
#[derive(Debug)]
pub struct UnfoldPlan {
    geom: ConvGeom,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Block plans only: each tap's copy, in `(ki, kj)` order.
    blocks: Vec<BlockTap>,
    /// Gather plans only: for each patch element `(ki, kj, oy, ox)` of a
    /// channel, in patch-matrix order, the index of the pixel it reads
    /// within the channel plane, or `PAD`.
    gather: Vec<u32>,
}

/// One tap of a block plan: `len` elements from `first` on are copied from
/// the channel plane at `src` on, then every element at `padding` is set to
/// padding — the tap's elements outside the copy and the border columns
/// inside it. Every output row of the copy starts with `run` in-image
/// elements.
#[derive(Debug)]
struct BlockTap {
    first: usize,
    src: usize,
    len: usize,
    run: usize,
    padding: Vec<u32>,
}

impl UnfoldPlan {
    /// The plan of `geom` over `h × w` images.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input, or a channel
    /// plane or a tap has `u32::MAX` elements or more.
    pub fn new(geom: &ConvGeom, h: usize, w: usize) -> Self {
        let (oh, ow) = geom.out_hw(h, w);
        assert!(h * w < PAD as usize && oh * ow < PAD as usize, "a {h}x{w} image is too large to index with u32");
        let out_rows: Vec<_> = (0..geom.kh).map(|ki| geom.reaching(ki, h, oh)).collect();
        let out_cols: Vec<_> = (0..geom.kw).map(|kj| geom.reaching(kj, w, ow)).collect();
        let (stride, pad) = (geom.stride, geom.pad);
        let (mut blocks, mut gather) = (Vec::new(), Vec::new());
        let block = stride == 1 && ow == w;
        for (ki, oys) in out_rows.iter().enumerate() {
            for (kj, oxs) in out_cols.iter().enumerate() {
                let inside = |oy, ox| oys.contains(&oy) && oxs.contains(&ox);
                let source = |oy, ox| (oy * stride + ki - pad) * w + ox * stride + kj - pad;
                let outputs = (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox)));
                if !block {
                    gather
                        .extend(outputs.map(|(oy, ox)| if inside(oy, ox) { source(oy, ox) as u32 } else { PAD }));
                } else if oys.is_empty() || oxs.is_empty() {
                    blocks.push(BlockTap {
                        first: 0,
                        src: 0,
                        len: 0,
                        run: 0,
                        padding: (0..(oh * ow) as u32).collect(),
                    });
                } else {
                    let padding =
                        outputs.filter(|&(oy, ox)| !inside(oy, ox)).map(|(oy, ox)| (oy * ow + ox) as u32);
                    blocks.push(BlockTap {
                        first: oys.start * ow + oxs.start,
                        src: source(oys.start, oxs.start),
                        len: (oys.len() - 1) * ow + oxs.len(),
                        run: oxs.len(),
                        padding: padding.collect(),
                    });
                }
            }
        }
        UnfoldPlan { geom: *geom, h, w, oh, ow, blocks, gather }
    }

    /// The input height and width the plan was built for.
    pub fn input_hw(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Whether its taps are block copies: stride 1 with an output row as
    /// long as an image row. Any other geometry gathers.
    fn is_block(&self) -> bool {
        self.geom.stride == 1 && self.ow == self.w
    }

    /// Elements of one image, `C·H·W`.
    fn image_len(&self) -> usize {
        self.geom.in_channels * self.h * self.w
    }

    /// Elements of the patch matrix, `C·kh·kw · oh·ow`.
    fn cols_len(&self) -> usize {
        self.geom.patch_len() * self.oh * self.ow
    }

    /// Unfolds one `[C, H, W]` image into its `[C·kh·kw, oh·ow]` patch
    /// matrix `cols`, which may hold anything on entry: every element is
    /// written, a tap inside the image with its pixel and a padding tap with
    /// `padding`, so a buffer reused across images leaks nothing.
    ///
    /// # Panics
    ///
    /// Panics if `image` or `cols` has the wrong length for the plan.
    pub fn unfold<T: Copy>(&self, image: &[T], padding: T, cols: &mut [T]) {
        assert_eq!(image.len(), self.image_len(), "image length mismatch");
        assert_eq!(cols.len(), self.cols_len(), "patch matrix length mismatch");
        let (plane, ncols, channels) = (self.h * self.w, self.oh * self.ow, self.geom.in_channels);
        if self.is_block() {
            // A tap at a time across the channels.
            let taps = self.blocks.len();
            for (t, block) in self.blocks.iter().enumerate() {
                for c in 0..channels {
                    let tap = &mut cols[(c * taps + t) * ncols..][..ncols];
                    let img_plane = &image[c * plane..][..plane];
                    copy_run(&mut tap[block.first..][..block.len], &img_plane[block.src..][..block.len]);
                    for &at in &block.padding {
                        tap[at as usize] = padding;
                    }
                }
            }
            return;
        }
        let per_channel = self.gather.len();
        for c in 0..channels {
            let img_plane = &image[c * plane..][..plane];
            for (d, &i) in cols[c * per_channel..][..per_channel].iter_mut().zip(&self.gather) {
                *d = img_plane.get(i as usize).copied().unwrap_or(padding);
            }
        }
    }

    /// Adds a patch-matrix gradient `cols` (`[C·kh·kw, oh·ow]`) into the
    /// image gradient `image_grad` (`C·H·W`), overlapping taps accumulating:
    /// the adjoint of [`UnfoldPlan::unfold`]. Every pixel receives its taps
    /// in `(c, ki, kj, oy, ox)` order whatever the geometry, so the sum is
    /// the per-element loop's, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `image_grad` or `cols` has the wrong length for the plan.
    pub fn fold(&self, cols: &[f32], image_grad: &mut [f32]) {
        assert_eq!(cols.len(), self.cols_len(), "col2im shape mismatch");
        assert_eq!(image_grad.len(), self.image_len(), "image gradient length mismatch");
        let (plane, ow, ncols) = (self.h * self.w, self.ow, self.oh * self.ow);
        let channels = self.geom.in_channels;
        if !self.is_block() {
            let per_channel = self.gather.len();
            for c in 0..channels {
                let img_plane = &mut image_grad[c * plane..][..plane];
                for (&g, &i) in cols[c * per_channel..][..per_channel].iter().zip(&self.gather) {
                    if let Some(d) = img_plane.get_mut(i as usize) {
                        *d += g;
                    }
                }
            }
            return;
        }
        // A tap at a time across the channels: each output row's run of
        // in-image columns onto its stretch of an image row, or the whole
        // block as one run when no border column cuts it. Within a channel
        // the order is still `(ki, kj, oy, ox)`.
        for (t, block) in self.blocks.iter().enumerate() {
            for c in 0..channels {
                let tap = &cols[(c * self.blocks.len() + t) * ncols..][block.first..][..block.len];
                let img = &mut image_grad[c * plane..][block.src..][..block.len];
                if block.run == ow {
                    add_run(img, tap);
                } else {
                    for (d, g) in img.chunks_mut(ow).zip(tap.chunks(ow)) {
                        add_run(&mut d[..block.run], &g[..block.run]);
                    }
                }
            }
        }
    }
}

/// `dst += src`, element by element.
#[inline(always)]
fn add_run(dst: &mut [f32], src: &[f32]) {
    for (d, &g) in dst.iter_mut().zip(src) {
        *d += g;
    }
}

/// `dst.copy_from_slice(src)`. A run shorter than `SHORT_RUN` moves as
/// whole 8-element arrays, the last overlapping the one before, or element
/// by element below 8: no `memcpy` call.
#[inline(always)]
fn copy_run<T: Copy>(dst: &mut [T], src: &[T]) {
    const LANES: usize = 8;
    let n = dst.len();
    if n >= SHORT_RUN {
        dst.copy_from_slice(src);
    } else if n >= LANES {
        for at in (0..n - LANES).step_by(LANES).chain([n - LANES]) {
            let to: &mut [T; LANES] = (&mut dst[at..at + LANES]).try_into().expect("LANES elements");
            *to = src[at..at + LANES].try_into().expect("LANES elements");
        }
    } else {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s;
        }
    }
}

/// Depthwise convolution of a batch of `[C, H, W]` images (given as one raw
/// slice of `N·C·H·W`, `C = geom.in_channels`): channel `c` of each image is
/// convolved with its own `kh × kw` filter, row `c` of the `[C, kh·kw]`
/// `weight`, into `out` (`N·C·oh·ow`), which may hold anything on entry.
///
/// The output is zeroed, then per image each tap `(ki, kj)` in ascending
/// order adds `weight · pixel` over the output rows and columns it reaches
/// (`ConvGeom::reaching`, computed once per tap of an image rather than per
/// channel plane) in every channel: at stride 1 a run of an output row and
/// its stretch of an image row are two slices. Every output element thus
/// adds its in-image taps in the per-element loop's order (module docs).
///
/// # Panics
///
/// Panics if `images` is not a whole number of `C·H·W` images, or `weight`
/// or `out` has the wrong length.
pub fn depthwise_into(images: &[f32], h: usize, w: usize, geom: &ConvGeom, weight: &[f32], out: &mut [f32]) {
    let (oh, ow) = geom.out_hw(h, w);
    let chw = geom.in_channels * h * w;
    assert_eq!(images.len() % chw, 0, "image length mismatch");
    assert_eq!(weight.len(), geom.patch_len(), "depthwise weight length mismatch");
    assert_eq!(out.len(), images.len() / chw * geom.in_channels * oh * ow, "output length mismatch");
    let (stride, pad, taps) = (geom.stride, geom.pad, geom.kh * geom.kw);
    out.fill(0.0);
    for (image, out_image) in images.chunks_exact(chw).zip(out.chunks_exact_mut(geom.in_channels * oh * ow)) {
        for ki in 0..geom.kh {
            let oys = geom.reaching(ki, h, oh);
            for kj in 0..geom.kw {
                let oxs = geom.reaching(kj, w, ow);
                if oxs.is_empty() {
                    continue;
                }
                let (tap, ix0) = (ki * geom.kw + kj, oxs.start * stride + kj - pad);
                let planes = image.chunks_exact(h * w).zip(out_image.chunks_exact_mut(oh * ow));
                for ((img_plane, out_plane), filt) in planes.zip(weight.chunks_exact(taps)) {
                    let wv = filt[tap];
                    for oy in oys.clone() {
                        let dst = &mut out_plane[oy * ow..][oxs.clone()];
                        let src = &img_plane[(oy * stride + ki - pad) * w + ix0..];
                        if stride == 1 {
                            for (d, &x) in dst.iter_mut().zip(&src[..oxs.len()]) {
                                *d += wv * x;
                            }
                        } else {
                            for (d, &x) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                                *d += wv * x;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn out_hw_standard_cases() {
        // 3x3 stride-1 pad-1 preserves size ("same" conv).
        let g = ConvGeom::square(3, 3, 1, 1);
        assert_eq!(g.out_hw(8, 8), (8, 8));
        // 3x3 stride-2 pad-1 halves (ceil).
        let g = ConvGeom::square(3, 3, 2, 1);
        assert_eq!(g.out_hw(8, 8), (4, 4));
        // 1x1 stride-1 pad-0 preserves.
        let g = ConvGeom::square(3, 1, 1, 0);
        assert_eq!(g.out_hw(5, 7), (5, 7));
    }

    #[test]
    fn im2col_identity_kernel_is_copy() {
        // 1x1 kernel: the patch matrix is exactly the flattened image.
        let g = ConvGeom::square(2, 1, 1, 0);
        let img: Vec<f32> = (0..2 * 3 * 3).map(|x| x as f32).collect();
        let cols = im2col(&img, 3, 3, &g);
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_center_tap_matches_input() {
        // For a 3x3 same conv, the center tap row (ki=1, kj=1) equals the image.
        let g = ConvGeom::square(1, 3, 1, 1);
        let img: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let cols = im2col(&img, 4, 4, &g);
        let center_row = 3 + 1; // c=0, ki=1, kj=1
        assert_eq!(&cols.as_slice()[center_row * 16..(center_row + 1) * 16], img.as_slice());
    }

    #[test]
    fn im2col_padding_taps_are_zero() {
        let g = ConvGeom::square(1, 3, 1, 1);
        let img = vec![1.0f32; 9];
        let cols = im2col(&img, 3, 3, &g);
        // Top-left output position, top-left kernel tap (ki=0, kj=0) reads
        // the padded corner => zero.
        assert_eq!(cols.at(&[0, 0]), 0.0);
        // Center tap at the same position reads image(0,0) = 1.
        assert_eq!(cols.at(&[4, 0]), 1.0);
    }

    /// A reused buffer relies on `im2col_into` clearing every padding tap it
    /// does not fill from the image: poison it first and compare with a
    /// fresh `im2col`.
    #[test]
    fn im2col_into_overwrites_every_element_of_a_dirty_buffer() {
        let mut rng = Rng::new(3);
        for kernel in [1usize, 3] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1] {
                    let g = ConvGeom::square(2, kernel, stride, pad);
                    let (h, w) = (6, 5);
                    let x = Tensor::randn([2 * h * w], 1.0, &mut rng);
                    let fresh = im2col(x.as_slice(), h, w, &g);
                    let mut dirty = vec![f32::NAN; fresh.numel()];
                    im2col_into(x.as_slice(), h, w, &g, &mut dirty);
                    let same = dirty.iter().zip(fresh.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "kernel {kernel}, stride {stride}, pad {pad}");
                    if pad > 0 && kernel > 1 {
                        assert!(dirty.contains(&0.0), "padding taps exist in this geometry");
                    }
                }
            }
        }
    }

    /// The loop [`im2col_into`] replaced, kept as its reference: every tap
    /// of every output position, each tested against the border.
    fn unfold_per_element<T: Copy>(image: &[T], h: usize, w: usize, geom: &ConvGeom, padding: T, cols: &mut [T]) {
        let (oh, ow) = geom.out_hw(h, w);
        let ncols = oh * ow;
        for c in 0..geom.in_channels {
            let img_plane = &image[c * h * w..(c + 1) * h * w];
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    let row = (c * geom.kh + ki) * geom.kw + kj;
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ki) as isize - geom.pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kj) as isize - geom.pad as isize;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            cols[row * ncols + oy * ow + ox] =
                                if inside { img_plane[iy as usize * w + ix as usize] } else { padding };
                        }
                    }
                }
            }
        }
    }

    /// The plan's unfold and the per-element loop agree bit for bit on
    /// non-square images including ones smaller than the kernel and a
    /// single pixel, and with `pad ≥ kernel`, where some taps find nothing
    /// but padding along a whole row or column range. One plan per geometry
    /// unfolds three images in turn into one buffer, poisoned before the
    /// first, so an element a later image leaves unwritten shows the one
    /// before; [`im2col_into`], which builds its own plan, must agree too.
    /// Each geometry also unfolds `u8` images padded with a non-zero value,
    /// as an int8 activation is padded with its zero-point.
    #[test]
    fn im2col_into_matches_the_per_element_loop_bit_for_bit() {
        let mut rng = Rng::new(9);
        let (mut geometries, mut all_padding_taps, mut block_copies) = (0, 0, 0);
        for kernel in [1usize, 3, 5] {
            for stride in [1usize, 2, 3] {
                for pad in [0usize, 1, 2, 4] {
                    for (h, w) in [(7, 4), (5, 9), (2, 6), (3, 1), (1, 1)] {
                        if h + 2 * pad < kernel || w + 2 * pad < kernel {
                            continue;
                        }
                        let g = ConvGeom::square(2, kernel, stride, pad);
                        let (oh, ow) = g.out_hw(h, w);
                        let plan = UnfoldPlan::new(&g, h, w);
                        assert_eq!(plan.input_hw(), (h, w));
                        let mut got = vec![f32::NAN; g.patch_len() * oh * ow];
                        let mut got_bytes = vec![0xAA; got.len()];
                        for image in 0..3 {
                            let at =
                                format!("kernel {kernel}, stride {stride}, pad {pad}, image {image}, {h}x{w}");
                            let x = Tensor::randn([2 * h * w], 1.0, &mut rng);
                            plan.unfold(x.as_slice(), 0.0, &mut got);
                            let mut want = vec![f32::NAN; got.len()];
                            unfold_per_element(x.as_slice(), h, w, &g, 0.0, &mut want);
                            let same = |a: &[f32]| a.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                            assert!(same(&got), "{at}");
                            let mut fresh = vec![f32::NAN; got.len()];
                            im2col_into(x.as_slice(), h, w, &g, &mut fresh);
                            assert!(same(&fresh), "im2col_into: {at}");

                            let bytes: Vec<u8> =
                                (0..2 * h * w).map(|_| rng.uniform_range(1.0, 256.0) as u8).collect();
                            plan.unfold(&bytes, 128u8, &mut got_bytes);
                            let mut want_bytes = vec![0x55; want.len()];
                            unfold_per_element(&bytes, h, w, &g, 128u8, &mut want_bytes);
                            assert_eq!(got_bytes, want_bytes, "u8: {at}");
                            all_padding_taps +=
                                want.chunks_exact(oh * ow).filter(|tap| tap.iter().all(|&v| v == 0.0)).count();
                        }
                        geometries += 1;
                        block_copies += usize::from(plan.is_block());
                    }
                }
            }
        }
        // 1×1 at pad 0, 3×3 at pad 1 and 5×5 at pad 2 on each of the five
        // images: the geometries the stride-1 block copy takes.
        assert_eq!(block_copies, 15, "geometries unfolded by the stride-1 block copy");
        assert!(
            geometries > 100 && all_padding_taps > 0,
            "{geometries} geometries, {all_padding_taps} empty taps"
        );
    }

    #[test]
    #[should_panic(expected = "patch matrix length mismatch")]
    fn im2col_into_rejects_a_wrong_sized_buffer() {
        im2col_into(&[0.0; 16], 4, 4, &ConvGeom::square(1, 3, 1, 1), &mut [0.0; 9 * 16 - 1]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining property of the
        // adjoint, which is exactly what backprop relies on.
        let g = ConvGeom::square(2, 3, 2, 1);
        let (h, w) = (5, 5);
        let mut rng = Rng::new(7);
        let x = Tensor::randn([2 * h * w], 1.0, &mut rng);
        let cols = im2col(x.as_slice(), h, w, &g);
        let y = Tensor::randn([cols.dims()[0], cols.dims()[1]], 1.0, &mut rng);
        let lhs: f64 = cols.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let mut xgrad = vec![0.0f32; x.numel()];
        col2im(y.as_slice(), h, w, &g, &mut xgrad);
        let rhs: f64 = x.as_slice().iter().zip(xgrad.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The loop [`col2im`] replaced, kept as its reference: every tap of
    /// every output position, each tested against the border.
    fn col2im_per_element(cols: &Tensor, h: usize, w: usize, geom: &ConvGeom, image_grad: &mut [f32]) {
        let (oh, ow) = geom.out_hw(h, w);
        let ncols = oh * ow;
        let src = cols.as_slice();
        for c in 0..geom.in_channels {
            let img_plane = &mut image_grad[c * h * w..(c + 1) * h * w];
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    let row = (c * geom.kh + ki) * geom.kw + kj;
                    let s = &src[row * ncols..(row + 1) * ncols];
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ki) as isize - geom.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = &mut img_plane[iy as usize * w..(iy as usize + 1) * w];
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kj) as isize - geom.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst_row[ix as usize] += s[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// The plan's fold and the per-element loop agree bit for bit, into a
    /// gradient that is not zero on entry, on non-square images including
    /// ones smaller than the kernel (some taps then reach no pixel at all).
    /// One plan per geometry folds three patch gradients in turn into the
    /// same image gradient, and [`col2im`], which builds its own plan, folds
    /// the first.
    #[test]
    fn col2im_matches_the_per_element_loop_bit_for_bit() {
        let mut rng = Rng::new(8);
        for kernel in [1usize, 3, 5] {
            for stride in [1usize, 2, 3] {
                for pad in [0usize, 1, 2] {
                    for (h, w) in [(7, 4), (5, 9), (2, 6)] {
                        if h + 2 * pad < kernel || w + 2 * pad < kernel {
                            continue;
                        }
                        let g = ConvGeom::square(2, kernel, stride, pad);
                        let (oh, ow) = g.out_hw(h, w);
                        let plan = UnfoldPlan::new(&g, h, w);
                        let on_entry = Tensor::randn([2 * h * w], 1.0, &mut rng);
                        let mut got = on_entry.as_slice().to_vec();
                        let mut want = on_entry.as_slice().to_vec();
                        for image in 0..3 {
                            let at =
                                format!("kernel {kernel}, stride {stride}, pad {pad}, image {image}, {h}x{w}");
                            let cols = Tensor::randn([g.patch_len(), oh * ow], 1.0, &mut rng);
                            plan.fold(cols.as_slice(), &mut got);
                            if image == 0 {
                                let mut fresh = on_entry.as_slice().to_vec();
                                col2im(cols.as_slice(), h, w, &g, &mut fresh);
                                assert!(
                                    fresh.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
                                    "col2im: {at}"
                                );
                            }
                            col2im_per_element(&cols, h, w, &g, &mut want);
                            let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                            assert!(same, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // stride-1 3x3 over 3x3 input: center pixel is touched by all 9 taps.
        let g = ConvGeom::square(1, 3, 1, 1);
        let cols = Tensor::ones([9, 9]);
        let mut grad = vec![0.0f32; 9];
        col2im(cols.as_slice(), 3, 3, &g, &mut grad);
        assert_eq!(grad[4], 9.0); // center
        assert_eq!(grad[0], 4.0); // corner reached by 4 taps
    }
}
