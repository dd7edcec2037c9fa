//! `ClassDict` — the hard-class label remapping of Algorithm 1 (step 3).
//!
//! The paper: *"Because the labels of hard classes are not likely to be
//! consecutive in the set of all classes C, we generate a new set of labels
//! exclusively for hard classes"*. The extension block is trained and
//! evaluated in this compact label space.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bidirectional mapping between original labels and compact hard-class
/// labels `0..n_hard`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassDict {
    orig_to_hard: HashMap<usize, usize>,
    hard_to_orig: Vec<usize>,
}

impl ClassDict {
    /// Builds the dictionary exactly as Algorithm 1 does: iterate the hard
    /// classes in the given order, assigning consecutive new labels.
    ///
    /// # Panics
    ///
    /// Panics if `hard_classes` is empty or contains duplicates.
    pub fn new(hard_classes: &[usize]) -> Self {
        assert!(!hard_classes.is_empty(), "ClassDict needs at least one hard class");
        let mut orig_to_hard = HashMap::with_capacity(hard_classes.len());
        let mut hard_to_orig = Vec::with_capacity(hard_classes.len());
        for (new_label, &orig) in hard_classes.iter().enumerate() {
            let prev = orig_to_hard.insert(orig, new_label);
            assert!(prev.is_none(), "duplicate hard class {orig}");
            hard_to_orig.push(orig);
        }
        ClassDict { orig_to_hard, hard_to_orig }
    }

    /// Number of hard classes.
    pub fn len(&self) -> usize {
        self.hard_to_orig.len()
    }

    /// True if the dictionary is empty (never true for constructed dicts).
    pub fn is_empty(&self) -> bool {
        self.hard_to_orig.is_empty()
    }

    /// Compact label for an original label, or `None` if the class is easy.
    pub(crate) fn remap(&self, original: usize) -> Option<usize> {
        self.orig_to_hard.get(&original).copied()
    }

    /// True if `original` is one of the hard classes.
    pub fn contains(&self, original: usize) -> bool {
        self.orig_to_hard.contains_key(&original)
    }

    /// Original label for a compact hard label.
    ///
    /// # Panics
    ///
    /// Panics if `hard >= self.len()`.
    pub fn to_original(&self, hard: usize) -> usize {
        self.hard_to_orig[hard]
    }

    /// The hard classes in compact-label order.
    pub fn hard_classes(&self) -> &[usize] {
        &self.hard_to_orig
    }

    /// Remaps a label slice, keeping only hard-class instances; returns the
    /// kept indices and their new labels (Algorithm 1, step 5).
    pub fn select_and_remap(&self, labels: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut indices = Vec::new();
        let mut remapped = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            if let Some(new) = self.remap(l) {
                indices.push(i);
                remapped.push(new);
            }
        }
        (indices, remapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_round_trips() {
        let dict = ClassDict::new(&[7, 2, 9]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.remap(7), Some(0));
        assert_eq!(dict.remap(2), Some(1));
        assert_eq!(dict.remap(9), Some(2));
        assert_eq!(dict.remap(3), None);
        for hard in 0..3 {
            assert_eq!(dict.remap(dict.to_original(hard)), Some(hard));
        }
    }

    #[test]
    fn select_and_remap_filters() {
        let dict = ClassDict::new(&[1, 3]);
        let labels = vec![0, 1, 2, 3, 1, 0];
        let (idx, new) = dict.select_and_remap(&labels);
        assert_eq!(idx, vec![1, 3, 4]);
        assert_eq!(new, vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate hard class")]
    fn duplicates_rejected() {
        ClassDict::new(&[1, 1]);
    }

    #[test]
    fn contains_matches_remap() {
        let dict = ClassDict::new(&[4, 8]);
        for c in 0..10 {
            assert_eq!(dict.contains(c), dict.remap(c).is_some());
        }
    }
}
