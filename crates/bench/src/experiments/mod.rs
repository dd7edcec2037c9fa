//! One runner per table/figure of the paper, plus the beyond-paper
//! ablations. Each runner returns printable output and structured numbers.

pub mod ablations;
pub mod extensions;
pub mod figures;
mod helpers;
pub mod serving;
pub mod tables;

pub use helpers::TrainedSystem;
