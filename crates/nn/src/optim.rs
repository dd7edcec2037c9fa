//! SGD with momentum and the multi-step learning-rate schedule used by the
//! paper (LR × 0.1 at fixed epochs).

use crate::layer::{Layer, Param};
use mea_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and L2 weight decay.
///
/// Velocity buffers are keyed positionally by the deterministic parameter
/// visitation order of the model, so one optimiser must stay paired with one
/// model (the usual contract).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum ∉ [0, 1)` or `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1), got {momentum}");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative, got {weight_decay}");
        Sgd { lr, momentum, weight_decay, velocities: Vec::new() }
    }

    /// Updates the learning rate (driven by [`MultiStepLr`]).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        self.lr = lr;
    }

    /// Applies one update step to every parameter of `model`, consuming the
    /// accumulated gradients (they are left untouched; call
    /// [`crate::layer::zero_grads`] before the next backward pass).
    pub fn step(&mut self, model: &mut dyn Layer) {
        self.step_with(&mut |f| model.visit_params(f));
    }

    /// Like [`Sgd::step`] but over an arbitrary parameter group expressed as
    /// a visitation function — how MEANet trains only its edge blocks while
    /// the main block stays frozen.
    // The nested-FnMut shape is the `visit_params` contract used across the
    // workspace; a type alias here would only obscure it.
    #[allow(clippy::type_complexity)]
    pub fn step_with(&mut self, visit: &mut dyn FnMut(&mut dyn FnMut(&mut Param))) {
        let mut idx = 0usize;
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocities = &mut self.velocities;
        visit(&mut |p| {
            if velocities.len() == idx {
                velocities.push(Tensor::zeros(p.value.shape().clone()));
            }
            let v = &mut velocities[idx];
            assert_eq!(
                v.shape(),
                p.value.shape(),
                "parameter order changed between optimiser steps (velocity {idx})"
            );
            let vs = v.as_mut_slice();
            let ps = p.value.as_mut_slice();
            let gs = p.grad.as_slice();
            for ((vi, pi), &gi) in vs.iter_mut().zip(ps.iter_mut()).zip(gs.iter()) {
                let g = gi + wd * *pi;
                *vi = mu * *vi + g;
                *pi -= lr * *vi;
            }
            idx += 1;
        });
    }
}

/// Multi-step learning-rate schedule: the base rate is multiplied by
/// `gamma` at every listed epoch (matching the paper's CIFAR schedule of
/// ×0.1 at epochs 60/120/160 and ImageNet schedule at 30/100).
#[derive(Debug, Clone)]
pub struct MultiStepLr {
    base_lr: f32,
    milestones: Vec<usize>,
    gamma: f32,
}

impl MultiStepLr {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `base_lr <= 0` or `gamma <= 0`.
    pub fn new(base_lr: f32, milestones: Vec<usize>, gamma: f32) -> Self {
        assert!(base_lr > 0.0, "base learning rate must be positive");
        assert!(gamma > 0.0, "gamma must be positive");
        MultiStepLr { base_lr, milestones, gamma }
    }

    /// Learning rate in force during `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let decays = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.base_lr * self.gamma.powi(decays as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{zero_grads, Mode};
    use crate::layers::Linear;
    use crate::loss::CrossEntropyLoss;
    use mea_tensor::{Rng, Tensor};

    #[test]
    fn sgd_decreases_loss_on_toy_problem() {
        let mut rng = Rng::new(0);
        let mut model = Linear::new(4, 3, &mut rng);
        // Class-separable toy data: feature `i % 3` carries a +2 mean shift,
        // so a linear model can always drive the loss well down. (A purely
        // random [16, 4] draw is only fittable for lucky RNG streams.)
        let mut x = Tensor::randn([16, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        for (i, &label) in labels.iter().enumerate() {
            x.as_mut_slice()[i * 4 + label] += 2.0;
        }
        let loss_fn = CrossEntropyLoss::new();
        let mut opt = Sgd::new(0.5, 0.9, 0.0);

        let y0 = model.forward(&x, Mode::Train);
        let first = loss_fn.forward(&y0, &labels).loss;
        let mut last = first;
        for _ in 0..50 {
            zero_grads(&mut model);
            let y = model.forward(&x, Mode::Train);
            let out = loss_fn.forward(&y, &labels);
            last = out.loss;
            let _ = model.backward(&out.grad);
            opt.step(&mut model);
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = Rng::new(1);
        let mut model = Linear::new(2, 2, &mut rng);
        let before = model.param_count();
        let norm_before: f64 = {
            let mut acc = 0.0;
            model.visit_params(&mut |p| acc += p.value.sq_norm());
            acc
        };
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        for _ in 0..10 {
            zero_grads(&mut model); // zero gradient: only decay acts
            opt.step(&mut model);
        }
        let norm_after: f64 = {
            let mut acc = 0.0;
            model.visit_params(&mut |p| acc += p.value.sq_norm());
            acc
        };
        assert_eq!(model.param_count(), before);
        assert!(norm_after < norm_before * 0.95, "{norm_before} -> {norm_after}");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut rng = Rng::new(2);
        let mut model = Linear::new(1, 1, &mut rng);
        // Constant gradient of 1.0 on every parameter.
        let mut opt_plain = Sgd::new(0.1, 0.0, 0.0);
        let mut opt_momentum = Sgd::new(0.1, 0.9, 0.0);
        let mut m2 = Linear::new(1, 1, &mut rng);
        let start1 = model.param_count();
        let _ = start1;
        for _ in 0..5 {
            model.visit_params(&mut |p| p.grad.fill(1.0));
            m2.visit_params(&mut |p| p.grad.fill(1.0));
            opt_plain.step(&mut model);
            opt_momentum.step(&mut m2);
        }
        // With momentum the total displacement is strictly larger.
        let mut d_plain = 0.0;
        model.visit_params(&mut |p| d_plain += p.value.sum());
        let mut d_mom = 0.0;
        m2.visit_params(&mut |p| d_mom += p.value.sum());
        assert!(d_mom < d_plain, "momentum should have moved further: {d_mom} vs {d_plain}");
    }

    #[test]
    fn multistep_schedule_decays_at_milestones() {
        let sched = MultiStepLr::new(0.1, vec![60, 120, 160], 0.1);
        assert!((sched.lr_at(0) - 0.1).abs() < 1e-9);
        assert!((sched.lr_at(59) - 0.1).abs() < 1e-9);
        assert!((sched.lr_at(60) - 0.01).abs() < 1e-9);
        assert!((sched.lr_at(130) - 0.001).abs() < 1e-9);
        assert!((sched.lr_at(200) - 0.0001).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.9, 0.0);
    }
}
