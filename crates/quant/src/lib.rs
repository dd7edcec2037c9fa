//! # mea-quant
//!
//! Post-training int8 quantization for the MEANet reproduction's edge
//! networks.
//!
//! The paper's related work (§II-A) motivates quantized edge inference, and
//! its companion work (Long et al., *Conditionally deep hybrid neural
//! networks across edge and cloud*, reference \[43\]) builds exactly the
//! hybrid this crate enables: **low-precision layers at the edge, full
//! precision at the cloud**. This crate turns a trained `mea-nn` float
//! network into an int8 [`QNetwork`]:
//!
//! * [`qparams`] — scale/zero-point grids (affine per-tensor for
//!   activations, symmetric per-channel for weights);
//! * [`qtensor`] — the int8 tensor;
//! * [`observer`] — min-max and moving-average range calibration;
//! * [`kernels`] — integer im2col, int8 GEMM with i32 accumulation,
//!   requantization;
//! * [`qlayers`] — fused `conv+BN+ReLU`, depthwise conv, linear, pools,
//!   residual add;
//! * [`convert`] — the graph walker that fuses, calibrates and emits the
//!   quantized network;
//! * [`wire`] — the little-endian int8 byte codec quantized feature
//!   payloads travel in on the edge→cloud link.
//!
//! ```
//! use mea_nn::layers::{Activation, BatchNorm2d, Conv2d, GlobalAvgPool, Linear};
//! use mea_nn::{Layer, Mode, Sequential};
//! use mea_quant::quantize_sequential;
//! use mea_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), mea_quant::QuantError> {
//! let mut rng = Rng::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng)) as Box<dyn Layer>,
//!     Box::new(BatchNorm2d::new(8)),
//!     Box::new(Activation::relu()),
//!     Box::new(GlobalAvgPool::new()),
//!     Box::new(Linear::new(8, 10, &mut rng)),
//! ]);
//! let calibration = vec![Tensor::randn([4, 3, 8, 8], 1.0, &mut rng)];
//! let qnet = quantize_sequential(&mut net, &calibration)?;
//! let logits = qnet.forward(&Tensor::randn([1, 3, 8, 8], 1.0, &mut rng));
//! assert_eq!(logits.dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod convert;
mod entropy;
pub mod error;
pub mod kernels;
pub mod observer;
pub mod qlayers;
pub mod qparams;
pub mod qtensor;
pub mod wire;

pub use convert::{quantize_segmented, quantize_sequential, QNetwork, QOp, QResidual};
pub use error::QuantError;
pub use observer::{MinMaxObserver, MovingAverageObserver};
pub use qparams::{QScheme, QuantParams};
pub use qtensor::QTensor;
