//! Labelled image datasets: splits, shuffling, class filtering and
//! mini-batch iteration.

use mea_tensor::{Rng, Tensor};

/// A labelled image dataset held in memory as one `[N, C, H, W]` tensor.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Images, `[N, C, H, W]`.
    pub images: Tensor,
    /// Integer labels, length `N`, each `< num_classes`.
    pub labels: Vec<usize>,
    /// Total number of classes in the label space (not necessarily all
    /// present after filtering).
    pub num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating label range and count.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the image count or any label
    /// is out of range.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.dims()[0], labels.len(), "images/labels count mismatch");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        Dataset { images, labels, num_classes }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset holds no instances (never true for constructed
    /// datasets, but required by clippy convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Creates a new dataset from the given instance indices (repetition
    /// allowed).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range index.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let images = self.images.gather_axis0(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset { images, labels, num_classes: self.num_classes }
    }

    /// Returns a shuffled copy.
    pub fn shuffled(&self, rng: &mut Rng) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        self.subset(&idx)
    }

    /// Splits into `(first, second)` where `first` holds `fraction` of the
    /// data, sampled uniformly at random. Used for the paper's 90/10
    /// train/validation split.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1` leaves both halves non-empty.
    pub fn split_fraction(&self, fraction: f64, rng: &mut Rng) -> (Dataset, Dataset) {
        let n_first = ((self.len() as f64) * fraction).round() as usize;
        assert!(n_first > 0 && n_first < self.len(), "split fraction {fraction} leaves an empty half");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        (self.subset(&idx[..n_first]), self.subset(&idx[n_first..]))
    }

    /// Keeps only the instances whose label is in `classes` (labels are
    /// *not* remapped; combine with [`crate::ClassDict`] for that).
    ///
    /// # Panics
    ///
    /// Panics if no instance matches.
    pub fn filter_classes(&self, classes: &[usize]) -> Dataset {
        let keep: Vec<usize> = (0..self.len()).filter(|&i| classes.contains(&self.labels[i])).collect();
        assert!(!keep.is_empty(), "no instance belongs to the requested classes");
        self.subset(&keep)
    }

    /// Iterates over mini-batches of at most `batch_size` instances, in
    /// order (shuffle first for SGD).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        Batches { dataset: self, batch_size, cursor: 0 }
    }
}

/// Iterator over `(images, labels)` mini-batches of a [`Dataset`].
#[derive(Debug)]
pub struct Batches<'a> {
    dataset: &'a Dataset,
    batch_size: usize,
    cursor: usize,
}

impl<'a> Iterator for Batches<'a> {
    type Item = (Tensor, &'a [usize]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.dataset.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.dataset.len());
        let images = self.dataset.images.slice_axis0(self.cursor, end);
        let labels = &self.dataset.labels[self.cursor..end];
        self.cursor = end;
        Some((images, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, classes: usize) -> Dataset {
        let images = Tensor::from_vec((0..n * 3 * 2 * 2).map(|v| v as f32).collect(), &[n, 3, 2, 2]).unwrap();
        let labels = (0..n).map(|i| i % classes).collect();
        Dataset::new(images, labels, classes)
    }

    #[test]
    fn batches_cover_everything_once() {
        let ds = toy(10, 3);
        let mut seen = 0;
        for (imgs, labels) in ds.batches(4) {
            assert_eq!(imgs.dims()[0], labels.len());
            seen += labels.len();
        }
        assert_eq!(seen, 10);
        // Last batch is the remainder.
        let sizes: Vec<usize> = ds.batches(4).map(|(_, l)| l.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn split_fraction_partitions() {
        let ds = toy(20, 4);
        let mut rng = Rng::new(0);
        let (a, b) = ds.split_fraction(0.25, &mut rng);
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 15);
        // Together they hold every original image exactly once (checked via
        // the first pixel, which is unique per image in `toy`).
        let mut firsts: Vec<i64> =
            a.images.as_slice().chunks(12).chain(b.images.as_slice().chunks(12)).map(|c| c[0] as i64).collect();
        firsts.sort_unstable();
        assert_eq!(firsts, (0..20).map(|i| i * 12).collect::<Vec<i64>>());
    }

    #[test]
    fn filter_classes_keeps_only_requested() {
        let ds = toy(12, 4);
        let hard = ds.filter_classes(&[1, 3]);
        assert_eq!(hard.len(), 6);
        assert!(hard.labels.iter().all(|&l| l == 1 || l == 3));
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let ds = toy(8, 2);
        let mut rng = Rng::new(1);
        let sh = ds.shuffled(&mut rng);
        assert_eq!(sh.len(), ds.len());
        let mut a: Vec<i64> = sh.images.as_slice().chunks(12).map(|c| c[0] as i64).collect();
        a.sort_unstable();
        assert_eq!(a, (0..8).map(|i| i * 12).collect::<Vec<i64>>());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let images = Tensor::zeros([2, 1, 2, 2]);
        Dataset::new(images, vec![0, 5], 3);
    }
}
