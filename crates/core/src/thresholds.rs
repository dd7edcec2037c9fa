//! Entropy-threshold calibration (paper §III-C): the offload threshold is
//! picked from the interval `(µ_correct, µ_wrong)` measured on the
//! validation set.

use crate::stats::MainEval;
use mea_metrics::EntropyStats;

/// Computes `µ_correct` / `µ_wrong` entropy statistics from a main-exit
/// evaluation.
pub fn entropy_stats(eval: &MainEval) -> EntropyStats {
    EntropyStats::from_predictions(&eval.entropies, &eval.correct_flags())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_metrics::ConfusionMatrix;

    #[test]
    fn stats_reflect_separation() {
        let eval = MainEval {
            confusion: ConfusionMatrix::from_predictions(2, &[0, 1, 0, 1], &[0, 1, 1, 0]),
            entropies: vec![0.05, 0.1, 1.2, 1.4],
            predictions: vec![0, 1, 1, 0],
            truth: vec![0, 1, 0, 1],
        };
        let s = entropy_stats(&eval);
        assert!(s.mean_correct < 0.2);
        assert!(s.mean_wrong > 1.0);
    }
}
