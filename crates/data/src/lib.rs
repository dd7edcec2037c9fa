//! # mea-data
//!
//! Procedural synthetic vision datasets for the MEANet reproduction.
//!
//! The paper's mechanisms rely on two properties of real datasets:
//!
//! 1. **Class-wise complexity** — some classes are systematically harder
//!    (CIFAR confusion matrices are far from uniform, paper Fig. 2). Here,
//!    class prototypes are grouped into *clusters* whose internal spread
//!    varies: classes in tight clusters are nearly identical and therefore
//!    confusable (hard); classes in loose clusters are easy.
//! 2. **Instance-wise complexity** — some instances are noisy/atypical and
//!    produce high-entropy predictions (the paper's "complex" instances,
//!    routed to the cloud). Here, every instance draws its own noise level
//!    from a long-tailed distribution.
//!
//! Both knobs are explicit in [`SynthConfig`], so the reproduction can dial
//! the same phenomena the paper measured on CIFAR-100/ImageNet.
//!
//! # Example
//!
//! ```
//! use mea_data::presets;
//!
//! let bundle = presets::tiny(7);
//! assert_eq!(bundle.train.num_classes, 6);
//! assert_eq!(&bundle.train.images.dims()[1..], &[3, 8, 8]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dataset;
mod patterns;
pub mod presets;
mod remap;
pub mod synth;

pub use dataset::{Batches, Dataset};
pub use remap::ClassDict;
pub use synth::{DatasetBundle, SynthConfig};
