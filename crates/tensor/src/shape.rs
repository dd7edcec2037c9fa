//! Tensor shapes: dimension lists with element counting and stride helpers.

use crate::error::TensorError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a [`crate::Tensor`]: an ordered list of dimension sizes.
///
/// Shapes are cheap to clone and compare. Dimension sizes of zero are
/// rejected by `Shape::new` — empty tensors never appear in the MEANet
/// pipeline and permitting them would push degenerate-case handling into
/// every kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension sizes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `dims` is empty or any
    /// dimension is zero.
    pub(crate) fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.is_empty() {
            return Err(TensorError::InvalidShape { reason: "shape has no dimensions".into() });
        }
        if dims.contains(&0) {
            return Err(TensorError::InvalidShape { reason: format!("zero-sized dimension in {dims:?}") });
        }
        Ok(Shape(dims.to_vec()))
    }

    /// Dimension sizes as a slice.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub(crate) fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub(crate) fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides (in elements) for this shape.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub(crate) fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank {} != shape rank {}", index.len(), self.rank());
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &s)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(i < self.0[axis], "index {i} out of bounds for axis {axis} of size {}", self.0[axis]);
            off += i * s;
        }
        off
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims).expect("invalid shape")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims).expect("invalid shape")
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims).expect("invalid shape")
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(Shape::new(&[]).is_err());
        assert!(Shape::new(&[2, 0, 3]).is_err());
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_panics_out_of_bounds() {
        let s = Shape::new(&[2, 2]).unwrap();
        s.offset(&[2, 0]);
    }

    #[test]
    fn display_shows_dims() {
        let s = Shape::from([4, 5]);
        assert_eq!(s.to_string(), "[4, 5]");
    }
}
