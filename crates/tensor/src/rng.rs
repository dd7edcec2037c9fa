//! Seeded random source used across the reproduction.
//!
//! Every experiment in the paper harness is driven by an explicit seed so
//! tables and figures are reproducible run-to-run. [`Rng`] wraps
//! [`rand::rngs::StdRng`] and adds the normal-distribution sampling the
//! `rand` core crate does not provide (Box–Muller transform).

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Deterministic random number generator for weights, data and shuffling.
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
    /// Cached second output of the Box–Muller pair.
    spare_normal: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Rng { inner: StdRng::seed_from_u64(seed), spare_normal: None }
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform_range requires lo < hi, got [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample (mean 0, standard deviation 1) via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to keep ln() finite.
        let u1 = 1.0 - self.inner.gen::<f32>();
        let u2 = self.inner.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub(crate) fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.inner.gen::<f32>() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (a random subset, order
    /// randomized).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = Rng::new(42);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(3);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::new(5);
        let idx = rng.sample_indices(20, 10);
        assert_eq!(idx.len(), 10);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(idx.iter().all(|&i| i < 20));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::new(11);
        assert!(!(0..64).any(|_| rng.bernoulli(0.0)));
        assert!((0..64).all(|_| rng.bernoulli(1.0)));
    }
}
