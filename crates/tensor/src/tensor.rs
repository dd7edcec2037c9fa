//! The dense row-major `f32` tensor at the heart of the substrate.

use crate::error::TensorError;
use crate::rng::Rng;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// The reproduction trains small CNNs, so the design favours simplicity over
/// zero-copy views: slicing a batch copies data. All arithmetic helpers check
/// shapes and panic with a descriptive message on mismatch (a mismatch is a
/// bug in layer code, not a runtime condition to recover from).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { data: vec![value; shape.numel()], shape }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the shape's element count, or [`TensorError::InvalidShape`] for a
    /// degenerate shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch { expected: shape.numel(), got: data.len() });
        }
        Ok(Tensor { data, shape })
    }

    /// Tensor with i.i.d. normal entries `N(0, std²)`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.normal_with(0.0, std)).collect();
        Tensor { data, shape }
    }

    /// Tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.uniform_range(lo, hi)).collect();
        Tensor { data, shape }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    // -------------------------------------------------------------- reshape

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch { expected: shape.numel(), got: self.data.len() });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2d requires a matrix, got {}", self.shape);
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros([n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    // ------------------------------------------------------ batch utilities

    /// Copies rows `[start, end)` along axis 0 into a new tensor.
    ///
    /// For an `[N, ...]` tensor this extracts a sub-batch.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or `end > dims()[0]`.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Tensor {
        let n = self.shape.dim(0);
        assert!(start < end && end <= n, "invalid axis-0 slice [{start}, {end}) of {n}");
        let row = self.numel() / n;
        let data = self.data[start * row..end * row].to_vec();
        let mut dims = self.dims().to_vec();
        dims[0] = end - start;
        Tensor { data, shape: Shape::new(&dims).expect("valid slice shape") }
    }

    /// Gathers the given axis-0 indices into a new tensor (with repetition
    /// allowed). Used to materialise dataset subsets such as the hard-class
    /// training set.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn gather_axis0(&self, indices: &[usize]) -> Tensor {
        assert!(!indices.is_empty(), "gather_axis0 with no indices");
        let n = self.shape.dim(0);
        let row = self.numel() / n;
        let mut data = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            assert!(i < n, "gather index {i} out of bounds for axis of size {n}");
            data.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        let mut dims = self.dims().to_vec();
        dims[0] = indices.len();
        Tensor { data, shape: Shape::new(&dims).expect("valid gather shape") }
    }

    /// Concatenates tensors along axis 0. All shapes must agree on the other
    /// axes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing shapes disagree.
    pub fn concat_axis0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_axis0 with no inputs");
        let tail = &parts[0].dims()[1..];
        let mut total = 0;
        for p in parts {
            assert_eq!(&p.dims()[1..], tail, "concat_axis0 shape mismatch");
            total += p.dims()[0];
        }
        let mut data = Vec::with_capacity(total * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![total];
        dims.extend_from_slice(tail);
        Tensor { data, shape: Shape::new(&dims).expect("valid concat shape") }
    }

    /// Concatenates two `[N, C, H, W]` tensors along the channel axis.
    /// Used by the MEANet `Concat` feature-merge mode.
    ///
    /// # Panics
    ///
    /// Panics if the tensors are not 4-D or disagree on `N`, `H` or `W`.
    pub fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.shape.rank(), 4, "concat_channels expects NCHW, got {}", a.shape);
        assert_eq!(b.shape.rank(), 4, "concat_channels expects NCHW, got {}", b.shape);
        let (n, ca, h, w) = (a.dims()[0], a.dims()[1], a.dims()[2], a.dims()[3]);
        let cb = b.dims()[1];
        assert_eq!(
            (n, h, w),
            (b.dims()[0], b.dims()[2], b.dims()[3]),
            "concat_channels N/H/W mismatch: {} vs {}",
            a.shape,
            b.shape
        );
        let mut out = Tensor::zeros([n, ca + cb, h, w]);
        let plane = h * w;
        for i in 0..n {
            let dst = &mut out.data[i * (ca + cb) * plane..(i + 1) * (ca + cb) * plane];
            dst[..ca * plane].copy_from_slice(&a.data[i * ca * plane..(i + 1) * ca * plane]);
            dst[ca * plane..].copy_from_slice(&b.data[i * cb * plane..(i + 1) * cb * plane]);
        }
        out
    }

    // ------------------------------------------------------------ pointwise

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect::<Vec<_>>(), shape: self.shape.clone() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise sum, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch: {} vs {}", self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise combination of two equally shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, mut f: impl FnMut(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_with shape mismatch: {} vs {}", self.shape, other.shape);
        Tensor {
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.numel() as f64
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in each row of a 2-D tensor (ties go to
    /// the first occurrence).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a matrix, got {}", self.shape);
        let n = self.shape.dim(1);
        self.data
            .chunks_exact(n)
            .map(|row| {
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// The `i`-th row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a matrix, got {}", self.shape);
        let n = self.shape.dim(1);
        &self.data[i * n..(i + 1) * n]
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| format!("{x:.4}")).collect();
        write!(f, "{}", preview.join(", "))?;
        if self.numel() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
impl Tensor {
    /// Identity matrix of size `n × n`, the neutral operand the matmul
    /// tests multiply by.
    pub(crate) fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::LengthMismatch { expected: 6, got: 5 })
        ));
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 2]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.clone().reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose2d().transpose2d();
        assert_eq!(t, tt);
        assert_eq!(t.transpose2d().at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn slice_and_gather_axis0() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        let s = t.slice_axis0(1, 3);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.as_slice(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let g = t.gather_axis0(&[3, 0, 3]);
        assert_eq!(g.dims(), &[3, 3]);
        assert_eq!(g.row(0), &[9.0, 10.0, 11.0]);
        assert_eq!(g.row(1), &[0.0, 1.0, 2.0]);
        assert_eq!(g.row(2), &[9.0, 10.0, 11.0]);
    }

    #[test]
    fn concat_axis0_stacks() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = Tensor::concat_axis0(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_channels_interleaves_per_image() {
        // two images, 1 channel each side, 1x2 spatial
        let a = Tensor::from_vec(vec![1.0, 2.0, 5.0, 6.0], &[2, 1, 1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 7.0, 8.0], &[2, 1, 1, 2]).unwrap();
        let c = Tensor::concat_channels(&a, &b);
        assert_eq!(c.dims(), &[2, 2, 1, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn argmax_rows_ties_to_first() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.1, 0.2, 0.2], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 1]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut a = Tensor::full([2, 2], 2.0);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0; 4]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_panics_on_mismatch() {
        let mut a = Tensor::ones([2, 2]);
        let b = Tensor::ones([4]);
        a.add_assign(&b);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::new(10);
        let mut r2 = Rng::new(10);
        let a = Tensor::randn([3, 3], 1.0, &mut r1);
        let b = Tensor::randn([3, 3], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros([2, 2]);
        assert!(t.to_string().contains("Tensor"));
    }
}
