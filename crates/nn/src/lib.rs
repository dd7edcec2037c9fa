//! # mea-nn
//!
//! A from-scratch CNN layer library with explicit forward/backward passes,
//! built on [`mea_tensor`]. It provides everything the MEANet reproduction
//! trains: convolution (dense and depthwise), batch normalisation, linear
//! classifiers, ResNet basic blocks and MobileNetV2 inverted residuals,
//! cross-entropy loss, SGD with momentum, and multi-step learning-rate
//! schedules.
//!
//! Design notes:
//!
//! * **No autograd tape.** Each [`Layer`] caches what its own backward pass
//!   needs during a *training-mode* forward. This mirrors the blockwise
//!   optimisation of the paper: frozen blocks run in
//!   [`Mode::Eval`] and keep no caches, which is precisely where the memory
//!   savings of Fig. 6 come from.
//! * **MAC accounting built in.** Every layer reports its multiply-adds and
//!   parameter count through [`Layer::macs`] / [`Layer::param_count`], which
//!   the `mea-metrics` crate aggregates to reproduce Table VI.
//!
//! # Example
//!
//! ```
//! use mea_nn::{Layer, Mode, Sequential};
//! use mea_nn::layers::{Activation, BatchNorm2d, Conv2d};
//! use mea_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng)),
//!     Box::new(BatchNorm2d::new(8)),
//!     Box::new(Activation::relu()),
//! ]);
//! let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
//! let y = net.forward(&x, Mode::Eval);
//! assert_eq!(y.dims(), &[2, 8, 8, 8]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blocks;
mod init;
pub mod layer;
pub mod layers;
mod loss;
pub mod models;
mod optim;
mod sequential;
mod serialize;

pub use layer::{Layer, Mode, Param};
pub use loss::CrossEntropyLoss;
pub use optim::{MultiStepLr, Sgd};
pub use sequential::Sequential;
pub use serialize::{StateDict, StateDictError};
