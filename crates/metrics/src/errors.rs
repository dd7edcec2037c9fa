//! The four-way misclassification taxonomy of paper Fig. 5.
//!
//! Given a partition of classes into easy and hard, every *error* falls
//! into one of four types: (I) easy mistaken as hard, (II) hard mistaken as
//! easy, (III) easy as another easy, (IV) hard as another hard. The paper's
//! argument: type IV dominates (~45–54%), and the extension block — trained
//! only on hard classes — specifically attacks type IV.

use serde::{Deserialize, Serialize};

/// One of the four error types of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ErrorType {
    /// (I) A sample of an easy class predicted as a hard class.
    EasyAsHard,
    /// (II) A sample of a hard class predicted as an easy class.
    HardAsEasy,
    /// (III) A sample of an easy class predicted as another easy class.
    EasyAsEasy,
    /// (IV) A sample of a hard class predicted as another hard class.
    HardAsHard,
}

impl ErrorType {
    /// Classifies one misclassification.
    ///
    /// # Panics
    ///
    /// Panics if `truth == predicted` (not an error).
    pub(crate) fn classify(truth_is_hard: bool, predicted_is_hard: bool, truth: usize, predicted: usize) -> Self {
        assert_ne!(truth, predicted, "correct predictions have no error type");
        match (truth_is_hard, predicted_is_hard) {
            (false, true) => ErrorType::EasyAsHard,
            (true, false) => ErrorType::HardAsEasy,
            (false, false) => ErrorType::EasyAsEasy,
            (true, true) => ErrorType::HardAsHard,
        }
    }
}

/// Counts of the four error types over an evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBreakdown {
    /// Count of type I (easy as hard).
    pub easy_as_hard: u64,
    /// Count of type II (hard as easy).
    pub hard_as_easy: u64,
    /// Count of type III (easy as easy).
    pub easy_as_easy: u64,
    /// Count of type IV (hard as hard).
    pub hard_as_hard: u64,
}

impl ErrorBreakdown {
    /// Tallies errors from parallel truth/prediction slices and a hard-class
    /// predicate.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_predictions(truth: &[usize], predicted: &[usize], is_hard: impl Fn(usize) -> bool) -> Self {
        assert_eq!(truth.len(), predicted.len(), "truth/prediction length mismatch");
        let mut b = ErrorBreakdown::default();
        for (&t, &p) in truth.iter().zip(predicted) {
            if t == p {
                continue;
            }
            match ErrorType::classify(is_hard(t), is_hard(p), t, p) {
                ErrorType::EasyAsHard => b.easy_as_hard += 1,
                ErrorType::HardAsEasy => b.hard_as_easy += 1,
                ErrorType::EasyAsEasy => b.easy_as_easy += 1,
                ErrorType::HardAsHard => b.hard_as_hard += 1,
            }
        }
        b
    }

    /// Total number of errors.
    pub(crate) fn total(&self) -> u64 {
        self.easy_as_hard + self.hard_as_easy + self.easy_as_easy + self.hard_as_hard
    }

    /// Proportions `(I, II, III, IV)` summing to 1 (zeros when error-free).
    pub fn proportions(&self) -> (f64, f64, f64, f64) {
        let total = self.total();
        if total == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.easy_as_hard as f64 / t,
            self.hard_as_easy as f64 / t,
            self.easy_as_easy as f64 / t,
            self.hard_as_hard as f64 / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_quadrants() {
        assert_eq!(ErrorType::classify(false, true, 0, 1), ErrorType::EasyAsHard);
        assert_eq!(ErrorType::classify(true, false, 1, 0), ErrorType::HardAsEasy);
        assert_eq!(ErrorType::classify(false, false, 0, 2), ErrorType::EasyAsEasy);
        assert_eq!(ErrorType::classify(true, true, 1, 3), ErrorType::HardAsHard);
    }

    #[test]
    fn breakdown_counts_and_proportions() {
        // classes 0,1 easy; 2,3 hard
        let truth = [0, 0, 2, 2, 1, 3, 0];
        let pred_ = [1, 2, 3, 0, 1, 2, 0];
        let b = ErrorBreakdown::from_predictions(&truth, &pred_, |c| c >= 2);
        assert_eq!(b.easy_as_easy, 1); // 0→1
        assert_eq!(b.easy_as_hard, 1); // 0→2
        assert_eq!(b.hard_as_hard, 2); // 2→3, 3→2
        assert_eq!(b.hard_as_easy, 1); // 2→0
        assert_eq!(b.total(), 5);
        let (p1, p2, p3, p4) = b.proportions();
        assert!((p1 + p2 + p3 + p4 - 1.0).abs() < 1e-12);
        assert!((p4 - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no error type")]
    fn correct_prediction_rejected() {
        ErrorType::classify(true, true, 2, 2);
    }
}
