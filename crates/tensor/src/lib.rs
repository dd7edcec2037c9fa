//! # mea-tensor
//!
//! A minimal, dependency-light `f32` N-dimensional tensor substrate used by
//! the MEANet reproduction (`meanet` crate and friends).
//!
//! The crate provides exactly the operations a from-scratch CNN training
//! stack needs, nothing more, each on the calling thread:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with shape checking;
//! * [`matmul`] — matrix products (`A·B`, `Aᵀ·B`, `A·Bᵀ`), as allocating
//!   wrappers and as in-place slice kernels, used by linear layers and
//!   im2col convolution, on the widest register tile the CPU runs — the
//!   one place in the crate with an `unsafe` block;
//! * [`conv`] — convolution geometry, the im2col / col2im transforms and
//!   the `UnfoldPlan` a layer caches for them, and the depthwise kernel;
//! * [`pool`] — average / max pooling forward and backward kernels;
//! * [`ops`] — softmax, bias broadcast and other pointwise kernels;
//! * [`reader`] — the bounds-checked cursor every wire decoder parses
//!   received bytes through;
//! * [`Rng`] — a seeded random source with normal/uniform fills so every
//!   experiment in the reproduction is deterministic.
//!
//! # Example
//!
//! ```
//! use mea_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let identity = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
//! let c = matmul::matmul(&a, &identity);
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), mea_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod conv;
mod error;
pub mod matmul;
pub mod ops;
pub mod pool;
pub mod reader;
mod rng;
mod shape;
mod tensor;

pub use error::TensorError;
pub use reader::{Reader, WireError};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
