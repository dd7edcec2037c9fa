//! The closed-form cost estimation of paper Table I.
//!
//! | strategy | edge compute | cloud compute | communication |
//! |---|---|---|---|
//! | edge only            | `N·x`      | –              | –             |
//! | cloud only           | –          | `N·x_cl`       | `N·x_cu`      |
//! | edge-cloud, raw data | `N·x`      | `β·N·x_cl`     | `β·N·x_cu`    |
//! | edge-cloud, features | `N·(q·x)`  | `β·N·(1−q)·x_cl` | `β·N·x'_cu` |
//!
//! `x` terms may be energy (J) or latency (s) — the formulas are agnostic.

use serde::{Deserialize, Serialize};

/// The four deployment strategies of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// All inference on the edge device.
    EdgeOnly,
    /// Everything shipped to the cloud.
    CloudOnly,
    /// Edge inference with conditional offload of raw data.
    EdgeCloudRaw,
    /// Partitioned network: edge runs a prefix, features offloaded.
    EdgeCloudFeatures,
}

/// Inputs to the Table I formulas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Total number of instances `N`.
    pub n: u64,
    /// Per-instance edge cost `x` (energy J or latency s).
    pub edge_unit: f64,
    /// Per-instance cloud compute cost `x_cl`.
    pub cloud_unit: f64,
    /// Per-instance communication cost for raw data `x_cu`.
    pub comm_raw_unit: f64,
    /// Per-instance communication cost for features `x'_cu`.
    pub comm_feat_unit: f64,
    /// Fraction `β ∈ [0, 1]` of instances sent to the cloud.
    pub beta: f64,
    /// Fraction `q ∈ [0, 1]` of layers executed at the edge (the paper:
    /// typically in `[1/3, 2/3]`).
    pub q: f64,
}

impl CostParams {
    /// Validates the fractional parameters.
    ///
    /// # Panics
    ///
    /// Panics if `beta` or `q` leave `[0, 1]` or any unit cost is negative.
    pub(crate) fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.beta), "beta must be in [0,1], got {}", self.beta);
        assert!((0.0..=1.0).contains(&self.q), "q must be in [0,1], got {}", self.q);
        assert!(
            self.edge_unit >= 0.0
                && self.cloud_unit >= 0.0
                && self.comm_raw_unit >= 0.0
                && self.comm_feat_unit >= 0.0,
            "unit costs must be non-negative"
        );
    }
}

/// One row of Table I, evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Total edge computation cost.
    pub edge_compute: f64,
    /// Total cloud computation cost.
    pub cloud_compute: f64,
    /// Total communication cost.
    pub communication: f64,
}

impl CostBreakdown {
    /// Edge-side total (compute + communication) — what Fig. 8 plots,
    /// since the paper ignores cloud compute energy.
    pub fn edge_total(&self) -> f64 {
        self.edge_compute + self.communication
    }
}

/// Evaluates a Table I row.
///
/// # Panics
///
/// Panics on invalid [`CostParams`].
pub fn estimate(strategy: Strategy, p: &CostParams) -> CostBreakdown {
    p.validate();
    let n = p.n as f64;
    match strategy {
        Strategy::EdgeOnly => {
            CostBreakdown { edge_compute: n * p.edge_unit, cloud_compute: 0.0, communication: 0.0 }
        }
        Strategy::CloudOnly => CostBreakdown {
            edge_compute: 0.0,
            cloud_compute: n * p.cloud_unit,
            communication: n * p.comm_raw_unit,
        },
        Strategy::EdgeCloudRaw => CostBreakdown {
            edge_compute: n * p.edge_unit,
            cloud_compute: p.beta * n * p.cloud_unit,
            communication: p.beta * n * p.comm_raw_unit,
        },
        Strategy::EdgeCloudFeatures => CostBreakdown {
            edge_compute: n * p.q * p.edge_unit,
            cloud_compute: p.beta * n * (1.0 - p.q) * p.cloud_unit,
            communication: p.beta * n * p.comm_feat_unit,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams {
            n: 1000,
            edge_unit: 2.0,
            cloud_unit: 10.0,
            comm_raw_unit: 5.0,
            comm_feat_unit: 8.0,
            beta: 0.2,
            q: 0.5,
        }
    }

    #[test]
    fn edge_only_row() {
        let c = estimate(Strategy::EdgeOnly, &params());
        assert_eq!(c.edge_compute, 2000.0);
        assert_eq!(c.cloud_compute, 0.0);
        assert_eq!(c.communication, 0.0);
    }

    #[test]
    fn cloud_only_row() {
        let c = estimate(Strategy::CloudOnly, &params());
        assert_eq!(c.edge_compute, 0.0);
        assert_eq!(c.cloud_compute, 10_000.0);
        assert_eq!(c.communication, 5000.0);
        assert_eq!(c.edge_total(), 5000.0); // only communication hits the edge
    }

    #[test]
    fn edge_cloud_raw_scales_with_beta() {
        let c = estimate(Strategy::EdgeCloudRaw, &params());
        assert_eq!(c.edge_compute, 2000.0);
        assert_eq!(c.cloud_compute, 2000.0); // 0.2 · 1000 · 10
        assert_eq!(c.communication, 1000.0); // 0.2 · 1000 · 5
    }

    #[test]
    fn edge_cloud_features_uses_q() {
        let c = estimate(Strategy::EdgeCloudFeatures, &params());
        assert_eq!(c.edge_compute, 1000.0); // q = 0.5
        assert_eq!(c.cloud_compute, 1000.0); // β·N·(1−q)·x_cl
        assert_eq!(c.communication, 1600.0); // β·N·x'_cu
    }

    #[test]
    fn beta_zero_degenerates_to_edge_only() {
        let mut p = params();
        p.beta = 0.0;
        let raw = estimate(Strategy::EdgeCloudRaw, &p);
        let edge = estimate(Strategy::EdgeOnly, &p);
        assert_eq!(raw.edge_compute, edge.edge_compute);
        let total = |c: &CostBreakdown| c.edge_compute + c.cloud_compute + c.communication;
        assert_eq!(total(&raw), total(&edge));
    }

    #[test]
    fn beta_one_raw_equals_cloud_plus_edge_compute() {
        let mut p = params();
        p.beta = 1.0;
        let raw = estimate(Strategy::EdgeCloudRaw, &p);
        let cloud = estimate(Strategy::CloudOnly, &p);
        assert_eq!(raw.communication, cloud.communication);
        assert_eq!(raw.cloud_compute, cloud.cloud_compute);
        assert!(raw.edge_compute > cloud.edge_compute);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_rejected() {
        let mut p = params();
        p.beta = 1.5;
        let _ = estimate(Strategy::EdgeOnly, &p);
    }
}
