//! Confusion matrices and the per-class precision / false discovery rate
//! that drives hard-class selection (paper Figs. 2–3, Algorithm 1 step 2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A `K × K` confusion matrix; rows are true classes, columns predictions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes > 0, "confusion matrix needs at least one class");
        ConfusionMatrix { k: num_classes, counts: vec![0; num_classes * num_classes] }
    }

    /// Builds a matrix from parallel true/predicted label slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or contain out-of-range labels.
    pub fn from_predictions(num_classes: usize, truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "truth/prediction length mismatch");
        let mut m = ConfusionMatrix::new(num_classes);
        for (&t, &p) in truth.iter().zip(predicted) {
            m.record(t, p);
        }
        m
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.k && predicted < self.k,
            "label out of range ({truth}, {predicted}) for {} classes",
            self.k
        );
        self.counts[truth * self.k + predicted] += 1;
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.k
    }

    /// Count of instances of true class `t` predicted as `p`.
    pub(crate) fn count(&self, t: usize, p: usize) -> u64 {
        self.counts[t * self.k + p]
    }

    /// Total recorded instances.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass). Returns 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.k).map(|i| self.count(i, i)).sum();
        diag as f64 / total as f64
    }

    /// Precision of class `c`: `TP / (TP + FP)` over predictions of `c`.
    /// Classes never predicted get precision 0 (maximally suspect, matching
    /// the paper's "rank by precision ascending" selection).
    pub(crate) fn precision(&self, c: usize) -> f64 {
        let tp = self.count(c, c);
        let predicted: u64 = (0..self.k).map(|t| self.count(t, c)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// False discovery rate: `1 − precision` — the paper's class-wise
    /// complexity measure (Fig. 3).
    pub fn fdr(&self, c: usize) -> f64 {
        1.0 - self.precision(c)
    }

    /// Per-class precision vector.
    pub fn per_class_precision(&self) -> Vec<f64> {
        (0..self.k).map(|c| self.precision(c)).collect()
    }

    /// Classes sorted by ascending precision (hardest first) — Algorithm 1's
    /// ranking. Ties break by class index for determinism.
    pub fn classes_by_ascending_precision(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.k).collect();
        let prec = self.per_class_precision();
        order.sort_by(|&a, &b| prec[a].partial_cmp(&prec[b]).expect("precision is finite").then(a.cmp(&b)));
        order
    }
}

impl fmt::Display for ConfusionMatrix {
    /// Renders a compact ASCII matrix (row = truth), usable for the Fig. 2
    /// reproduction on ≤ ~20 classes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truth\\pred")?;
        for p in 0..self.k {
            write!(f, "{p:>6}")?;
        }
        writeln!(f)?;
        for t in 0..self.k {
            write!(f, "{t:>10}")?;
            for p in 0..self.k {
                write!(f, "{:>6}", self.count(t, p))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_precision_basic() {
        let m = ConfusionMatrix::from_predictions(3, &[0, 0, 1, 1, 2, 2], &[0, 1, 1, 1, 2, 0]);
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        // Class 1 predicted 3 times, 2 correct.
        assert!((m.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.fdr(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_puts_lowest_precision_first() {
        // class 0: precision 1.0, class 1: 0.5, class 2: 0.0 (never right)
        let m = ConfusionMatrix::from_predictions(3, &[0, 1, 1, 2, 2], &[0, 1, 2, 1, 1]);
        let order = m.classes_by_ascending_precision();
        assert_eq!(order[0], 2);
        assert_eq!(order[2], 0);
    }

    #[test]
    fn never_predicted_class_has_zero_precision() {
        let m = ConfusionMatrix::from_predictions(3, &[0, 1, 2], &[0, 0, 0]);
        assert_eq!(m.precision(1), 0.0);
        assert_eq!(m.precision(2), 0.0);
        assert_eq!(m.fdr(1), 1.0);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn display_contains_counts() {
        let m = ConfusionMatrix::from_predictions(2, &[0, 1], &[0, 0]);
        let s = m.to_string();
        assert!(s.contains("truth"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 2);
    }
}
