//! Multiply-add and parameter counting (the paper's ptflops substitute),
//! with the fixed-vs-trained split of Table VI.

use mea_nn::Layer;
use serde::{Deserialize, Serialize};

/// Cost of a single layer or block for one image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LayerCost {
    /// Layer name (from [`Layer::name`]).
    pub name: String,
    /// Learnable parameter count.
    pub params: u64,
    /// Multiply-adds for one image.
    pub macs: u64,
    /// Output shape `[C, H, W]` or `[F]`.
    pub out_shape: Vec<usize>,
}

/// Computes the cost of one layer given its input shape.
pub(crate) fn cost_of(layer: &dyn Layer, in_shape: &[usize]) -> LayerCost {
    let (macs, out_shape) = layer.macs(in_shape);
    LayerCost { name: layer.name().to_string(), params: layer.param_count() as u64, macs, out_shape }
}

/// Accumulator splitting cost between *fixed* (frozen, forward-only) and
/// *trained* parts — exactly the two columns of paper Table VI.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostSplit {
    /// Parameters of frozen parts.
    pub fixed_params: u64,
    /// Parameters of trained parts.
    pub trained_params: u64,
    /// Per-image MACs through frozen parts.
    pub fixed_macs: u64,
    /// Per-image MACs through trained parts.
    pub trained_macs: u64,
}

impl CostSplit {
    /// Creates an empty split.
    pub fn new() -> Self {
        CostSplit::default()
    }

    /// Adds a layer's cost to the `frozen` or trained side, returning the
    /// layer's output shape for chaining.
    pub fn add(&mut self, layer: &dyn Layer, in_shape: &[usize], frozen: bool) -> Vec<usize> {
        let cost = cost_of(layer, in_shape);
        if frozen {
            self.fixed_params += cost.params;
            self.fixed_macs += cost.macs;
        } else {
            self.trained_params += cost.params;
            self.trained_macs += cost.macs;
        }
        cost.out_shape
    }
}

/// Formats a count in millions with two decimals (Table VI's unit).
pub fn millions(x: u64) -> String {
    format!("{:.2}", x as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_nn::layers::{Conv2d, Linear};
    use mea_tensor::Rng;

    #[test]
    fn cost_of_conv_matches_formula() {
        let mut rng = Rng::new(0);
        let conv = Conv2d::new(3, 16, 3, 1, 1, false, &mut rng);
        let c = cost_of(&conv, &[3, 32, 32]);
        assert_eq!(c.params, 16 * 27);
        assert_eq!(c.macs, 16 * 27 * 32 * 32);
        assert_eq!(c.out_shape, vec![16, 32, 32]);
        assert_eq!(c.name, "Conv2d");
    }

    #[test]
    fn split_routes_frozen_and_trained() {
        let mut rng = Rng::new(1);
        let conv = Conv2d::new(3, 8, 3, 1, 1, false, &mut rng);
        let lin = Linear::new(8, 4, &mut rng);
        let mut split = CostSplit::new();
        let mid = split.add(&conv, &[3, 8, 8], true);
        assert_eq!(mid, vec![8, 8, 8]);
        let _ = split.add(&lin, &[8], false);
        assert_eq!(split.fixed_params, 8 * 27);
        assert_eq!(split.trained_params, 8 * 4 + 4);
        assert!(split.fixed_macs > 0 && split.trained_macs > 0);
    }

    #[test]
    fn millions_formatting() {
        assert_eq!(millions(370_000), "0.37");
        assert_eq!(millions(11_160_000), "11.16");
    }
}
