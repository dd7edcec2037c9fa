//! Confidence calibration: reliability bins and expected calibration
//! error (ECE).
//!
//! Algorithm 2 routes on the main exit's softmax confidence (via entropy
//! and the max-score arbitration), so how well those confidences track
//! actual correctness determines how well the offload policy separates
//! complex instances. ECE quantifies that: partition predictions into
//! confidence bins and average the |accuracy − confidence| gap, weighted
//! by bin occupancy.

use serde::{Deserialize, Serialize};

/// One confidence bin of a reliability diagram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ReliabilityBin {
    /// Inclusive lower edge of the bin.
    pub lo: f32,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f32,
    /// Predictions landing in the bin.
    pub count: usize,
    /// Mean confidence of those predictions.
    pub mean_confidence: f64,
    /// Fraction of those predictions that were correct.
    pub accuracy: f64,
}

impl ReliabilityBin {
    /// Signed miscalibration of the bin (`accuracy − confidence`;
    /// negative = overconfident).
    pub(crate) fn gap(&self) -> f64 {
        self.accuracy - self.mean_confidence
    }
}

/// A reliability diagram over equal-width confidence bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Reliability {
    bins: Vec<ReliabilityBin>,
    total: usize,
}

impl Reliability {
    /// Bins `(confidence, correct)` pairs into `num_bins` equal-width
    /// bins over `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ, `num_bins` is zero, or any
    /// confidence leaves `[0, 1]`.
    pub(crate) fn from_predictions(confidences: &[f32], correct: &[bool], num_bins: usize) -> Self {
        assert_eq!(confidences.len(), correct.len(), "confidence/correct length mismatch");
        assert!(num_bins > 0, "need at least one bin");
        let mut conf_sum = vec![0.0f64; num_bins];
        let mut hits = vec![0usize; num_bins];
        let mut count = vec![0usize; num_bins];
        for (&c, &ok) in confidences.iter().zip(correct) {
            assert!((0.0..=1.0).contains(&c), "confidence {c} outside [0, 1]");
            let b = ((c * num_bins as f32) as usize).min(num_bins - 1);
            conf_sum[b] += c as f64;
            hits[b] += usize::from(ok);
            count[b] += 1;
        }
        let width = 1.0 / num_bins as f32;
        let bins = (0..num_bins)
            .map(|b| ReliabilityBin {
                lo: b as f32 * width,
                hi: (b + 1) as f32 * width,
                count: count[b],
                mean_confidence: if count[b] == 0 { 0.0 } else { conf_sum[b] / count[b] as f64 },
                accuracy: if count[b] == 0 { 0.0 } else { hits[b] as f64 / count[b] as f64 },
            })
            .collect();
        Reliability { bins, total: confidences.len() }
    }

    /// Expected calibration error: occupancy-weighted mean |gap|.
    pub(crate) fn ece(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.bins.iter().map(|b| (b.count as f64 / self.total as f64) * b.gap().abs()).sum()
    }
}

/// Convenience: ECE straight from prediction pairs.
pub fn ece(confidences: &[f32], correct: &[bool], num_bins: usize) -> f64 {
    Reliability::from_predictions(confidences, correct, num_bins).ece()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_calibrated_predictor_has_near_zero_ece() {
        // Confidence c ⇒ correct with probability c, constructed
        // deterministically: for each confidence level, the exact fraction
        // of correct flags equals the confidence.
        let mut confidences = Vec::new();
        let mut correct = Vec::new();
        for level in [0.25f32, 0.55, 0.85] {
            let n = 400;
            let hits = (level * n as f32).round() as usize;
            for i in 0..n {
                confidences.push(level);
                correct.push(i < hits);
            }
        }
        let e = ece(&confidences, &correct, 10);
        assert!(e < 0.01, "calibrated predictor scored ECE {e}");
    }

    #[test]
    fn overconfident_predictor_has_large_ece() {
        // Claims 95% confidence, is right half the time.
        let confidences = vec![0.95f32; 200];
        let correct: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let e = ece(&confidences, &correct, 10);
        assert!((e - 0.45).abs() < 0.01, "expected ~0.45, got {e}");
    }

    #[test]
    fn underconfident_predictor_has_positive_gap() {
        let confidences = vec![0.3f32; 100];
        let correct = vec![true; 100];
        let r = Reliability::from_predictions(&confidences, &correct, 5);
        let bin = r.bins.iter().find(|b| b.count > 0).unwrap();
        assert!(bin.gap() > 0.6, "underconfidence should show a positive gap, got {}", bin.gap());
    }

    #[test]
    fn bins_partition_all_predictions() {
        let confidences: Vec<f32> = (0..101).map(|i| i as f32 / 100.0).collect();
        let correct = vec![true; 101];
        let r = Reliability::from_predictions(&confidences, &correct, 7);
        assert_eq!(r.bins.iter().map(|b| b.count).sum::<usize>(), 101);
        assert_eq!(r.total, 101);
        // Confidence 1.0 lands in the last bin, not out of range.
        assert!(r.bins.last().unwrap().count >= 1);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(ece(&[], &[], 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_confidence_rejected() {
        let _ = ece(&[1.5], &[true], 10);
    }
}
