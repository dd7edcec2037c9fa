//! Runtime adaptation of the offload threshold.
//!
//! The paper picks its entropy threshold *offline* from the validation
//! range `(µ_correct, µ_wrong)` and keeps it fixed. SPINN (Laskaridis et
//! al., MobiCom'20 — the paper's reference \[42\]) argues the policy
//! should instead be co-optimised *at runtime* "in order to adapt to
//! dynamic conditions": input difficulty drifts, and with it the offload
//! fraction β, the communication bill and the cloud load.
//!
//! [`ThresholdController`] is that mechanism in its simplest robust form:
//! an integral controller on the achieved offload fraction. After each
//! inference window it nudges the entropy threshold so the *observed* β
//! tracks a target β, whatever the current input distribution looks like.

use serde::{Deserialize, Serialize};

/// An integral controller steering the entropy threshold toward a target
/// offload fraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdController {
    threshold: f32,
    target_beta: f64,
    gain: f32,
    min_threshold: f32,
    max_threshold: f32,
}

impl ThresholdController {
    /// Creates a controller.
    ///
    /// * `initial_threshold` — starting entropy threshold (e.g. the
    ///   paper's offline pick);
    /// * `target_beta` — desired fraction of instances offloaded;
    /// * `gain` — threshold change (in entropy units) per unit of β
    ///   error per window; 0.5–2.0 works for window sizes ≥ 32;
    /// * `bounds` — threshold clamp, typically `(0, ln C)`.
    ///
    /// # Panics
    ///
    /// Panics if `target_beta` leaves `[0, 1]`, `gain` is non-positive,
    /// or the bounds are inverted.
    pub fn new(initial_threshold: f32, target_beta: f64, gain: f32, bounds: (f32, f32)) -> Self {
        assert!((0.0..=1.0).contains(&target_beta), "target beta must be in [0,1], got {target_beta}");
        assert!(gain > 0.0, "gain must be positive");
        assert!(bounds.0 <= bounds.1, "inverted threshold bounds");
        ThresholdController {
            threshold: initial_threshold.clamp(bounds.0, bounds.1),
            target_beta,
            gain,
            min_threshold: bounds.0,
            max_threshold: bounds.1,
        }
    }

    /// The current threshold to use for the next window.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The target offload fraction.
    pub fn target_beta(&self) -> f64 {
        self.target_beta
    }

    /// Changes the target at runtime (e.g. when the cloud signals
    /// congestion, lower β; when accuracy matters more, raise it).
    ///
    /// # Panics
    ///
    /// Panics if `target_beta` leaves `[0, 1]`.
    pub fn set_target_beta(&mut self, target_beta: f64) {
        assert!((0.0..=1.0).contains(&target_beta), "target beta must be in [0,1], got {target_beta}");
        self.target_beta = target_beta;
    }

    /// Feeds back one window's outcome and returns the updated threshold.
    ///
    /// Offloading *more* than the target raises the threshold (fewer
    /// future offloads) and vice versa.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or `offloaded > total`.
    pub fn observe_window(&mut self, offloaded: usize, total: usize) -> f32 {
        assert!(total > 0, "empty window");
        assert!(offloaded <= total, "offloaded {offloaded} exceeds window {total}");
        let achieved = offloaded as f64 / total as f64;
        let error = (achieved - self.target_beta) as f32;
        self.threshold = (self.threshold + self.gain * error).clamp(self.min_threshold, self.max_threshold);
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::Rng;

    /// A synthetic entropy stream: mixture of confident (near 0) and
    /// uncertain (near `hi`) predictions.
    fn entropy_window(rng: &mut Rng, n: usize, uncertain_frac: f32, hi: f32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if rng.uniform() < uncertain_frac {
                    rng.uniform_range(0.5 * hi, hi)
                } else {
                    rng.uniform_range(0.0, 0.2)
                }
            })
            .collect()
    }

    fn achieved_beta(ctrl: &mut ThresholdController, rng: &mut Rng, windows: usize, frac: f32, hi: f32) -> f64 {
        let mut offloaded = 0usize;
        let mut total = 0usize;
        for _ in 0..windows {
            let window = entropy_window(rng, 64, frac, hi);
            let t = ctrl.threshold();
            let sent = window.iter().filter(|&&e| e > t).count();
            ctrl.observe_window(sent, window.len());
            offloaded += sent;
            total += window.len();
        }
        offloaded as f64 / total as f64
    }

    #[test]
    fn converges_to_target_on_stationary_input() {
        let mut rng = Rng::new(0);
        let mut ctrl = ThresholdController::new(1.0, 0.3, 1.0, (0.0, 3.0));
        // Warm-up, then measure.
        let _ = achieved_beta(&mut ctrl, &mut rng, 40, 0.5, 2.0);
        let beta = achieved_beta(&mut ctrl, &mut rng, 40, 0.5, 2.0);
        assert!((beta - 0.3).abs() < 0.08, "controller settled at beta {beta}, wanted 0.3");
    }

    #[test]
    fn re_converges_after_distribution_shift() {
        let mut rng = Rng::new(1);
        let mut ctrl = ThresholdController::new(1.0, 0.25, 1.0, (0.0, 3.0));
        let _ = achieved_beta(&mut ctrl, &mut rng, 40, 0.4, 2.0);
        // The environment gets harder: far more uncertain instances. A
        // fixed threshold would now offload ~0.7 of traffic.
        let _ = achieved_beta(&mut ctrl, &mut rng, 60, 0.7, 2.5);
        let beta = achieved_beta(&mut ctrl, &mut rng, 40, 0.7, 2.5);
        assert!((beta - 0.25).abs() < 0.08, "controller did not re-converge: beta {beta}");
    }

    #[test]
    fn fixed_threshold_drifts_where_controller_holds() {
        let mut rng = Rng::new(2);
        // Fixed threshold tuned for the easy regime.
        let fixed = 1.0f32;
        let easy: Vec<f32> = entropy_window(&mut rng, 2000, 0.3, 2.0);
        let beta_easy = easy.iter().filter(|&&e| e > fixed).count() as f64 / easy.len() as f64;
        let hard: Vec<f32> = entropy_window(&mut rng, 2000, 0.8, 2.0);
        let beta_hard = hard.iter().filter(|&&e| e > fixed).count() as f64 / hard.len() as f64;
        assert!(beta_hard > beta_easy + 0.3, "shift should blow up the fixed policy's beta");

        let mut ctrl = ThresholdController::new(fixed, beta_easy, 1.0, (0.0, 3.0));
        let _ = achieved_beta(&mut ctrl, &mut rng, 60, 0.8, 2.0);
        let beta_ctrl = achieved_beta(&mut ctrl, &mut rng, 40, 0.8, 2.0);
        assert!(
            (beta_ctrl - beta_easy).abs() < 0.1,
            "controller held beta at {beta_ctrl} (target {beta_easy}) under the shift"
        );
    }

    #[test]
    fn direction_of_updates_is_correct() {
        let mut ctrl = ThresholdController::new(1.0, 0.5, 1.0, (0.0, 3.0));
        // Offloaded everything: threshold must rise.
        let t1 = ctrl.observe_window(10, 10);
        assert!(t1 > 1.0);
        // Offloaded nothing: threshold must fall back.
        let t2 = ctrl.observe_window(0, 10);
        assert!(t2 < t1);
    }

    #[test]
    fn threshold_respects_bounds() {
        let mut ctrl = ThresholdController::new(1.0, 0.0, 10.0, (0.2, 2.0));
        for _ in 0..100 {
            ctrl.observe_window(10, 10); // always over target 0
        }
        assert_eq!(ctrl.threshold(), 2.0);
        ctrl.set_target_beta(1.0);
        for _ in 0..100 {
            ctrl.observe_window(0, 10); // always under target 1
        }
        assert_eq!(ctrl.threshold(), 0.2);
    }

    #[test]
    fn retarget_moves_the_operating_point() {
        let mut rng = Rng::new(3);
        let mut ctrl = ThresholdController::new(1.0, 0.15, 1.0, (0.0, 3.0));
        let _ = achieved_beta(&mut ctrl, &mut rng, 40, 0.5, 2.0);
        let low = achieved_beta(&mut ctrl, &mut rng, 40, 0.5, 2.0);
        ctrl.set_target_beta(0.45);
        let _ = achieved_beta(&mut ctrl, &mut rng, 40, 0.5, 2.0);
        let high = achieved_beta(&mut ctrl, &mut rng, 40, 0.5, 2.0);
        assert!(high > low + 0.15, "raising the target must raise achieved beta: {low} -> {high}");
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_rejected() {
        let mut ctrl = ThresholdController::new(1.0, 0.5, 1.0, (0.0, 3.0));
        let _ = ctrl.observe_window(0, 0);
    }
}
