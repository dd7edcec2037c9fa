//! Analytic GPU training-memory model (paper Fig. 6).
//!
//! The paper's claim: blockwise optimisation with a frozen main block needs
//! no gradient or activation storage for the frozen part, cutting training
//! memory by ~60% for ResNets and ~30% for MobileNets versus joint
//! optimisation at the same batch size.
//!
//! The model (all quantities `f32`, 4 bytes):
//!
//! * weights of every part are resident: `P_total`;
//! * each *trained* parameter additionally needs a gradient and an SGD
//!   momentum slot: `2 · P_trained`;
//! * backprop stores the forward activations of trained parts only:
//!   `batch · A_trained` (frozen parts run in eval mode and keep nothing
//!   but their output, counted as the boundary term `batch · boundary`).
//!
//! Measured against the heap, the activation term holds. One training step
//! (forward, loss, backward) of a freshly built repro-scale ResNet peaks at
//! 1.34× `4 · batch · A` for the cloud network (12/24/48, two blocks per
//! stage, batch 6) and 1.26× for the edge one (8/16/32, batch 10);
//! `mea-nn`'s `alloc_budget` test prints the ratio and bounds it at 1.5×.
//! Backward keeps each convolution's input, each batch norm's normalised
//! input and each ReLU's one-bit pass mask. The excess is one patch slot
//! per convolution and the gradients in flight. Per-image patch matrices
//! and float ReLU caches once made it 3.36× and 3.18×.

use mea_nn::Layer;
use serde::{Deserialize, Serialize};

/// Memory-relevant cost of one network part.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartCost {
    /// Learnable parameters in the part.
    pub params: u64,
    /// Activation elements produced per image inside the part.
    pub activation_elems: u64,
    /// Elements of the part's final output per image (the boundary tensor
    /// that must exist even when the part is frozen).
    pub boundary_elems: u64,
}

/// Measures a part (any [`Layer`], typically a `Sequential` block).
pub fn part_cost(layer: &dyn Layer, in_shape: &[usize]) -> PartCost {
    let (_, out_shape) = layer.macs(in_shape);
    PartCost {
        params: layer.param_count() as u64,
        activation_elems: layer.activation_elems(in_shape),
        boundary_elems: out_shape.iter().product::<usize>() as u64,
    }
}

/// Training-memory estimate in bytes for the paper's blockwise scheme:
/// frozen parts keep weights + boundary output only; trained parts keep
/// weights, gradients, momentum and forward activations.
pub fn blockwise_bytes(frozen: &[PartCost], trained: &[PartCost], batch: usize) -> u64 {
    let p_frozen: u64 = frozen.iter().map(|p| p.params).sum();
    let p_trained: u64 = trained.iter().map(|p| p.params).sum();
    let a_trained: u64 = trained.iter().map(|p| p.activation_elems).sum();
    let boundary: u64 = frozen.iter().map(|p| p.boundary_elems).sum();
    4 * (p_frozen + 3 * p_trained + batch as u64 * (a_trained + boundary))
}

/// Training-memory estimate in bytes for joint optimisation: every part is
/// trained, so all activations, gradients and momenta are resident.
pub fn joint_bytes(parts: &[PartCost], batch: usize) -> u64 {
    let p: u64 = parts.iter().map(|c| c.params).sum();
    let a: u64 = parts.iter().map(|c| c.activation_elems).sum();
    4 * (3 * p + batch as u64 * a)
}

/// Bytes → MiB for reporting.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_nn::layers::{Activation, BatchNorm2d, Conv2d};
    use mea_nn::Sequential;
    use mea_tensor::Rng;

    fn stage(in_c: usize, out_c: usize, rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Conv2d::new(in_c, out_c, 3, 1, 1, false, rng)),
            Box::new(BatchNorm2d::new(out_c)),
            Box::new(Activation::relu()),
        ])
    }

    #[test]
    fn freezing_a_part_saves_memory() {
        let mut rng = Rng::new(0);
        let a = stage(3, 16, &mut rng);
        let b = stage(16, 32, &mut rng);
        let ca = part_cost(&a, &[3, 16, 16]);
        let cb = part_cost(&b, &[16, 16, 16]);
        let blockwise = blockwise_bytes(&[ca], &[cb], 128);
        let joint = joint_bytes(&[ca, cb], 128);
        assert!(blockwise < joint, "blockwise {blockwise} >= joint {joint}");
    }

    #[test]
    fn batch_size_scales_activations_only() {
        let mut rng = Rng::new(1);
        let a = stage(3, 8, &mut rng);
        let c = part_cost(&a, &[3, 8, 8]);
        let m1 = joint_bytes(&[c], 1);
        let m2 = joint_bytes(&[c], 2);
        // Doubling the batch adds exactly one batch worth of activations.
        assert_eq!(m2 - m1, 4 * c.activation_elems);
    }

    #[test]
    fn part_cost_counts_boundary() {
        let mut rng = Rng::new(2);
        let a = stage(3, 8, &mut rng);
        let c = part_cost(&a, &[3, 8, 8]);
        assert_eq!(c.boundary_elems, 8 * 8 * 8);
        assert!(c.activation_elems >= c.boundary_elems);
        assert_eq!(c.params, (8 * 27 + 16) as u64);
    }

    #[test]
    fn mib_conversion() {
        assert!((mib(1024 * 1024) - 1.0).abs() < 1e-12);
    }
}
