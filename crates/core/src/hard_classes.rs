//! Hard-class selection (Algorithm 1, step 2): rank classes by validation
//! precision and take the bottom `N_hard`, or pick randomly as the ablation
//! baseline of Tables IV–V.

use mea_data::ClassDict;
use mea_metrics::ConfusionMatrix;
use mea_tensor::Rng;

/// A class-selection strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// The `n` classes with the lowest validation precision (highest FDR) —
    /// the paper's complexity-aware choice.
    HardestByPrecision {
        /// Number of classes to select.
        n: usize,
    },
    /// `n` classes chosen uniformly at random — the Table IV/V baseline.
    Random {
        /// Number of classes to select.
        n: usize,
        /// Seed of the random draw.
        seed: u64,
    },
    /// Every class (the "100 selected" row of Table V).
    All,
}

impl Selection {
    /// Applies the strategy to a validation confusion matrix, returning the
    /// selected class labels (hardest first for precision ranking).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the class count.
    pub(crate) fn select(&self, confusion: &ConfusionMatrix) -> Vec<usize> {
        let k = confusion.num_classes();
        match self {
            Selection::HardestByPrecision { n } => {
                assert!(*n >= 1 && *n <= k, "cannot select {n} of {k} classes");
                confusion.classes_by_ascending_precision().into_iter().take(*n).collect()
            }
            Selection::Random { n, seed } => {
                assert!(*n >= 1 && *n <= k, "cannot select {n} of {k} classes");
                let mut rng = Rng::new(*seed);
                rng.sample_indices(k, *n)
            }
            Selection::All => (0..k).collect(),
        }
    }

    /// Convenience: select and wrap into a [`ClassDict`].
    pub fn select_dict(&self, confusion: &ConfusionMatrix) -> ClassDict {
        ClassDict::new(&self.select(confusion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn confusion_with_known_hardness() -> ConfusionMatrix {
        // class 0 perfect, class 1 mediocre, class 2 terrible.
        ConfusionMatrix::from_predictions(3, &[0, 0, 0, 1, 1, 1, 2, 2, 2], &[0, 0, 0, 1, 1, 2, 1, 1, 2])
    }

    #[test]
    fn hardest_selection_matches_precision_order() {
        let m = confusion_with_known_hardness();
        // precisions: class0 = 1.0; class1 = 2/4; class2 = 1/2... check order
        let sel = Selection::HardestByPrecision { n: 2 }.select(&m);
        assert_eq!(sel.len(), 2);
        assert!(sel.contains(&1) || sel.contains(&2));
        assert!(!sel.contains(&0), "the perfect class must not be selected as hard");
    }

    #[test]
    fn random_selection_is_seeded() {
        let m = confusion_with_known_hardness();
        let a = Selection::Random { n: 2, seed: 1 }.select(&m);
        let b = Selection::Random { n: 2, seed: 1 }.select(&m);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&c| c < 3));
    }

    #[test]
    fn all_selects_everything() {
        let m = confusion_with_known_hardness();
        assert_eq!(Selection::All.select(&m), vec![0, 1, 2]);
    }

    #[test]
    fn select_dict_round_trips() {
        let m = confusion_with_known_hardness();
        let dict = Selection::HardestByPrecision { n: 2 }.select_dict(&m);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversized_selection_panics() {
        let m = confusion_with_known_hardness();
        let _ = Selection::HardestByPrecision { n: 4 }.select(&m);
    }
}
