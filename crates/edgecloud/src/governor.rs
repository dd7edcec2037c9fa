//! The SLA governor: joint (β, cut, wire) control under a latency SLA
//! and an accuracy floor.
//!
//! The paper's three serving knobs are each steered by a separate
//! mechanism — the `ThresholdController` tracks a target offload
//! fraction β, the [`crate::partition::CutPlanner`] picks the partition
//! cut, and the wire format is fixed up front. Nobody optimises them
//! *together* against an explicit objective. The governor closes that
//! gap: given a p95 latency SLA and a Table-III detection-accuracy
//! floor, it watches the live latency window (a
//! [`mea_metrics::StreamingHistogram`] replaced each epoch) per device
//! class and, whenever a window violates the SLA, escalates one rung up
//! a deterministic ladder that trades progressively more for throughput:
//!
//! ```text
//!        live window p95 > SLA?
//!              │ yes (one rung per violating window, per class)
//!              ▼
//!  1. SLA-constrained replan     placement moves to the fewest-upload-
//!     (CutPlanner::               bytes candidate that fits the p95
//!      plan_placement_for_sla)    budget
//!  2. wire → per-tensor int8    4× smaller uploads, per-frame params
//!  3. wire → per-channel int8   smaller still: the calibrated grid
//!     (grid-indexed frames)      travels out of band, frames carry
//!                                only a cut index
//!  4. β → max(β − step,          offload less; bounded so predicted
//!       min_beta(accuracy floor)) accuracy never crosses the floor
//! ```
//!
//! Rungs never unwind (strong hysteresis): a degraded channel that
//! recovers briefly must not make the control loop oscillate, and a
//! monotone ladder makes the decision trajectory — and with it the
//! regression bench — deterministic. Accuracy only enters at rung 4:
//! cut and wire moves are (near-)lossless, so the governor spends the
//! free knobs first and the accuracy budget last.

use crate::partition::{Objective, PlacementPlan, SlaObjective};
use crate::serve::FeatureWire;
use serde::{Deserialize, Serialize};

/// The service-level agreement a [`Governor`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaTarget {
    /// The p95 end-to-end latency budget, in milliseconds.
    pub p95_ms: f64,
    /// The Table-III detection-accuracy floor the governor may not trade
    /// away when it lowers β.
    pub accuracy_floor: f64,
}

impl SlaTarget {
    /// Creates an SLA target.
    ///
    /// # Panics
    ///
    /// Panics if `p95_ms` is non-positive or non-finite, or if
    /// `accuracy_floor` leaves `[0, 1]`.
    pub fn new(p95_ms: f64, accuracy_floor: f64) -> Self {
        assert!(p95_ms.is_finite() && p95_ms > 0.0, "p95 SLA must be positive and finite, got {p95_ms} ms");
        assert!((0.0..=1.0).contains(&accuracy_floor), "accuracy floor must be in [0,1], got {accuracy_floor}");
        SlaTarget { p95_ms, accuracy_floor }
    }

    /// The p95 budget in seconds (latencies are measured in seconds
    /// everywhere inside the runtime).
    pub(crate) fn p95_s(&self) -> f64 {
        self.p95_ms / 1e3
    }
}

/// A linear accuracy model over the offload fraction β: serving accuracy
/// is `edge_accuracy` at β = 0 (everything settles at the edge) and
/// `cloud_accuracy` at β = 1 (everything escalates), interpolated
/// linearly in between — the first-order shape of the paper's Table III:
/// offloaded hard instances gain the cloud model's accuracy, the easy
/// rest keep the edge's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyModel {
    /// Detection accuracy with every instance settling at the edge.
    pub edge_accuracy: f64,
    /// Detection accuracy with every instance escalated to the cloud.
    pub cloud_accuracy: f64,
}

impl Default for AccuracyModel {
    /// Table-III-shaped defaults: the cloud model clearly ahead of the
    /// edge-only exit, both in the paper's CIFAR detection-accuracy
    /// range.
    fn default() -> Self {
        AccuracyModel { edge_accuracy: 0.88, cloud_accuracy: 0.94 }
    }
}

impl AccuracyModel {
    /// Predicted serving accuracy at offload fraction `beta`.
    pub fn predicted(&self, beta: f64) -> f64 {
        self.edge_accuracy + beta.clamp(0.0, 1.0) * (self.cloud_accuracy - self.edge_accuracy)
    }

    /// The lowest β whose predicted accuracy still meets `floor` — the
    /// hard lower bound of the governor's β rung. Clamped to `[0, 1]`:
    /// a floor below the edge accuracy frees β entirely, a floor above
    /// the cloud accuracy pins β at 1 (the governor can then only
    /// *refuse* to lower it; it never raises accuracy above the model).
    pub fn min_beta(&self, floor: f64) -> f64 {
        if self.cloud_accuracy <= self.edge_accuracy {
            // A cloud no better than the edge: β buys no accuracy, so
            // the floor never binds it.
            return 0.0;
        }
        ((floor - self.edge_accuracy) / (self.cloud_accuracy - self.edge_accuracy)).clamp(0.0, 1.0)
    }
}

/// Tuning knobs of a [`Governor`] around its [`SlaTarget`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// The SLA being enforced.
    pub target: SlaTarget,
    /// The accuracy model bounding the β rung.
    pub accuracy: AccuracyModel,
    /// How much one β-rung escalation lowers the target offload fraction.
    pub beta_step: f64,
    /// Minimum completions a live window needs before its p95 counts as
    /// evidence — a near-empty window's quantile is noise, not a
    /// violation.
    pub min_window: u64,
}

impl GovernorConfig {
    /// A governor configuration with default tuning around `target`.
    pub(crate) fn new(target: SlaTarget) -> Self {
        GovernorConfig { target, accuracy: AccuracyModel::default(), beta_step: 0.1, min_window: 4 }
    }
}

/// One point of the governor's per-class control trajectory: the joint
/// (β, placement, wire) operating point after a decision epoch, recorded
/// only when the point actually moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlPoint {
    /// Cloud batches completed when this operating point was adopted.
    pub after_batches: u64,
    /// The target offload fraction in force (`None` until the governor
    /// first touches the β rung — routing then still follows the
    /// configured static policy).
    pub beta_target: Option<f64>,
    /// The planned placement per device class (the full stage list; a
    /// two-stage plan is a scalar cut, and [`PlacementPlan::final_cut`] is
    /// the layer whose activation crosses the WAN).
    pub placements: Vec<PlacementPlan>,
    /// The feature wire per device class.
    pub wires: Vec<FeatureWire>,
}

/// Escalation rungs above which the wire axis is exhausted and further
/// violations spend the β rung.
const WIRE_RUNGS: u8 = 3;

/// The SLA governor's decision core: a per-class escalation ladder over
/// (cut objective, wire format) plus one global β target, advanced one
/// rung per violating window. Pure state-machine logic — the serving
/// runtime feeds it live window quantiles and reads back the per-class
/// wire, the cut objective, and the β target; nothing here touches
/// threads or clocks, so the ladder is unit-testable and its trajectory
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Governor {
    config: GovernorConfig,
    /// Escalation rung per device class (0 = open-loop behaviour).
    rungs: Vec<u8>,
    /// The governed target offload fraction; `None` until the first
    /// β-rung escalation (the configured routing policy rules until
    /// then).
    beta_target: Option<f64>,
    sla_violations: u64,
}

impl Governor {
    /// A governor over `classes` device classes, starting at rung 0
    /// (open-loop behaviour) for every class.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub(crate) fn new(config: GovernorConfig, classes: usize) -> Self {
        assert!(classes > 0, "need at least one device class to govern");
        Governor { config, rungs: vec![0; classes], beta_target: None, sla_violations: 0 }
    }

    /// Judges one decision window for `class`: the live window's p95
    /// (`None` while the window holds fewer than
    /// [`GovernorConfig::min_window`] completions) against the SLA.
    /// Returns whether the window violated — and if it did, the class
    /// has already been escalated one rung.
    ///
    /// `achieved_beta` is the offload fraction observed so far; it seeds
    /// the β target when a violation first reaches the β rung (the
    /// governor lowers β *from where the system actually operates*, not
    /// from an assumed 1.0).
    pub(crate) fn observe_window(
        &mut self,
        class: usize,
        live_p95_s: Option<f64>,
        window_count: u64,
        achieved_beta: f64,
    ) -> bool {
        let p95 = match live_p95_s {
            Some(p) if window_count >= self.config.min_window => p,
            _ => return false,
        };
        if p95 <= self.config.target.p95_s() {
            return false;
        }
        self.sla_violations += 1;
        self.escalate(class, achieved_beta);
        true
    }

    fn escalate(&mut self, class: usize, achieved_beta: f64) {
        if self.rungs[class] < WIRE_RUNGS {
            self.rungs[class] += 1;
            return;
        }
        let floor = self.config.accuracy.min_beta(self.config.target.accuracy_floor);
        let current = self.beta_target.unwrap_or_else(|| achieved_beta.clamp(0.0, 1.0));
        self.beta_target = Some((current - self.config.beta_step).max(floor));
    }

    /// Whether `class`'s cuts should be planned against the
    /// SLA-constrained objective (any rung above 0) instead of the base
    /// objective.
    pub(crate) fn sla_constrained(&self, class: usize) -> bool {
        self.rungs[class] >= 1
    }

    /// The feature wire `class` currently ships offloads on: lossless f32
    /// until the wire rungs are reached, then per-tensor int8, then the
    /// grid-indexed per-channel int8.
    pub(crate) fn wire(&self, class: usize) -> FeatureWire {
        match self.rungs[class] {
            0 | 1 => FeatureWire::F32,
            2 => FeatureWire::Int8,
            _ => FeatureWire::PerChannelInt8,
        }
    }

    /// The governed target offload fraction, once the β rung has been
    /// spent. Never below the accuracy floor's
    /// [`AccuracyModel::min_beta`] bound.
    pub(crate) fn beta_target(&self) -> Option<f64> {
        self.beta_target
    }

    /// The SLA-constrained cut objective built around `base` — what the
    /// planner scores cuts with for an [`Governor::sla_constrained`]
    /// class.
    pub(crate) fn sla_objective(&self, base: Objective) -> SlaObjective {
        SlaObjective {
            base,
            p95_budget_s: self.config.target.p95_s(),
            accuracy_floor: self.config.target.accuracy_floor,
        }
    }

    /// Windows that violated the SLA so far.
    pub(crate) fn sla_violations(&self) -> u64 {
        self.sla_violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(p95_ms: f64) -> Governor {
        Governor::new(GovernorConfig::new(SlaTarget::new(p95_ms, 0.90)), 2)
    }

    #[test]
    fn accuracy_model_bounds_beta_by_the_floor() {
        let m = AccuracyModel { edge_accuracy: 0.88, cloud_accuracy: 0.94 };
        assert_eq!(m.min_beta(0.88), 0.0, "floor at edge accuracy frees beta");
        assert_eq!(m.min_beta(0.94), 1.0, "floor at cloud accuracy pins beta");
        let b = m.min_beta(0.91);
        assert!((m.predicted(b) - 0.91).abs() < 1e-12, "min_beta inverts the linear model");
        assert_eq!(m.min_beta(0.5), 0.0);
        assert_eq!(m.min_beta(0.99), 1.0);
        // A cloud no better than the edge never binds beta.
        let flat = AccuracyModel { edge_accuracy: 0.9, cloud_accuracy: 0.9 };
        assert_eq!(flat.min_beta(0.95), 0.0);
    }

    #[test]
    fn meeting_the_sla_never_escalates() {
        let mut g = governor(100.0);
        for _ in 0..20 {
            assert!(!g.observe_window(0, Some(0.050), 64, 0.4));
        }
        assert_eq!(g.sla_violations(), 0);
        assert!(!g.sla_constrained(0));
        assert_eq!(g.wire(0), FeatureWire::F32);
        assert_eq!(g.beta_target(), None);
    }

    #[test]
    fn thin_windows_are_not_evidence() {
        let mut g = governor(10.0);
        // Over the SLA, but fewer completions than min_window: no verdict.
        assert!(!g.observe_window(0, Some(5.0), 3, 0.4));
        assert!(!g.observe_window(0, None, 0, 0.4));
        assert_eq!(g.sla_violations(), 0);
    }

    #[test]
    fn ladder_escalates_one_rung_per_violating_window() {
        // Floor at the edge accuracy so min_beta is 0 and the β step is
        // visible unclamped.
        let mut g = Governor::new(GovernorConfig::new(SlaTarget::new(10.0, 0.88)), 2);
        // Rung 1: SLA-constrained replan, wire still lossless.
        assert!(g.observe_window(0, Some(0.5), 64, 0.4));
        assert!(g.sla_constrained(0));
        assert_eq!(g.wire(0), FeatureWire::F32);
        // Rung 2: per-tensor int8.
        g.observe_window(0, Some(0.5), 64, 0.4);
        assert_eq!(g.wire(0), FeatureWire::Int8);
        // Rung 3: grid-indexed per-channel int8.
        g.observe_window(0, Some(0.5), 64, 0.4);
        assert_eq!(g.wire(0), FeatureWire::PerChannelInt8);
        assert_eq!(g.beta_target(), None, "beta untouched while wire rungs remain");
        // Rung 4+: beta leaves the achieved operating point downward.
        g.observe_window(0, Some(0.5), 64, 0.4);
        let t = g.beta_target().unwrap();
        assert!((t - 0.3).abs() < 1e-12, "beta steps down from achieved 0.4, got {t}");
        assert_eq!(g.sla_violations(), 4);
    }

    #[test]
    fn beta_never_crosses_the_accuracy_floor_bound() {
        let mut g = governor(10.0);
        let floor_beta = g.config.accuracy.min_beta(0.90);
        assert!(floor_beta > 0.0, "a 0.90 floor must bind beta under the default model");
        for _ in 0..100 {
            g.observe_window(0, Some(0.5), 64, 0.9);
        }
        let t = g.beta_target().unwrap();
        assert!((t - floor_beta).abs() < 1e-12, "beta must stop at the floor bound: {t} vs {floor_beta}");
        assert!(g.config.accuracy.predicted(t) >= 0.90 - 1e-12);
    }

    #[test]
    fn classes_escalate_independently_but_share_beta() {
        let mut g = governor(10.0);
        g.observe_window(1, Some(0.5), 64, 0.4);
        g.observe_window(1, Some(0.5), 64, 0.4);
        assert!(!g.sla_constrained(0), "class 0 saw no violation");
        assert_eq!(g.wire(0), FeatureWire::F32);
        assert_eq!(g.wire(1), FeatureWire::Int8);
        // Class 1 exhausts its wire rungs; the beta move is global.
        g.observe_window(1, Some(0.5), 64, 0.4);
        g.observe_window(1, Some(0.5), 64, 0.4);
        assert!(g.beta_target().is_some());
    }

    #[test]
    fn rungs_never_unwind() {
        let mut g = governor(10.0);
        g.observe_window(0, Some(0.5), 64, 0.4);
        g.observe_window(0, Some(0.5), 64, 0.4);
        assert_eq!(g.wire(0), FeatureWire::Int8);
        // A long healthy stretch must not relax the ladder.
        for _ in 0..50 {
            assert!(!g.observe_window(0, Some(0.001), 64, 0.4));
        }
        assert_eq!(g.wire(0), FeatureWire::Int8);
        assert!(g.sla_constrained(0));
    }

    #[test]
    fn sla_objective_carries_the_budget_in_seconds() {
        let g = governor(250.0);
        let o = g.sla_objective(Objective::Latency);
        assert!((o.p95_budget_s - 0.250).abs() < 1e-15);
        assert_eq!(o.accuracy_floor, 0.90);
        assert_eq!(o.base, Objective::Latency);
    }

    #[test]
    #[should_panic(expected = "p95 SLA must be positive")]
    fn zero_sla_rejected() {
        let _ = SlaTarget::new(0.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "accuracy floor must be in [0,1]")]
    fn bad_floor_rejected() {
        let _ = SlaTarget::new(100.0, 1.5);
    }
}
