//! Fixed-bin histograms for entropy distributions (paper §III-C's
//! correct-vs-wrong entropy separation).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A histogram with uniform bins over `[lo, hi)`; values outside the range
/// clamp into the first/last bin so tails stay visible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub(crate) fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty, got [{lo}, {hi})");
        Histogram { lo, hi, counts: vec![0; bins] }
    }

    /// Builds a finely binned histogram over non-negative samples (e.g.
    /// latencies), spanning `[0, max·1.001)` so the largest observation
    /// stays inside the last bin — the shared recipe behind the pipeline
    /// simulator's and the serving runtime's tail quantiles.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, any sample is negative, or
    /// `bins == 0`.
    pub fn of_nonnegative(values: &[f64], bins: usize) -> Histogram {
        assert!(!values.is_empty(), "histogram needs at least one sample");
        let max = values.iter().fold(0.0f64, |acc, &v| {
            assert!(v >= 0.0, "of_nonnegative got a negative sample: {v}");
            acc.max(v)
        });
        let mut h = Histogram::new(0.0, (max * 1.001).max(1e-12), bins);
        h.extend(values.iter().copied());
        h
    }

    /// Adds a value (clamped into range).
    pub(crate) fn add(&mut self, v: f64) {
        let bins = self.counts.len();
        let t = ((v - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        let idx = (t.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
    }

    /// Adds many values.
    pub(crate) fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.add(v);
        }
    }

    /// Total observations.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Centre of bin `i`.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// The `q`-quantile of the recorded (clamped) values, approximated by
    /// linear interpolation inside the bin where the cumulative count
    /// crosses `q · total`. Exact to within one bin width, which makes a
    /// finely binned histogram a compact streaming substitute for sorting
    /// every observation (the serving runtime's latency tails).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        let total = self.total();
        assert!(total > 0, "quantile of an empty histogram");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let need = q * total as f64;
        let mut cum = 0.0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= need && c > 0 {
                // Interpolate inside bin i: fraction of its mass below q.
                let frac = ((need - cum) / c as f64).clamp(0.0, 1.0);
                return self.lo + (i as f64 + frac) * w;
            }
            cum = next;
        }
        self.hi
    }

    /// Median (the 0.5-quantile).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c * 40 / max) as usize);
            writeln!(f, "{:>7.3} | {bar} {c}", self.bin_center(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([0.1, 0.3, 0.6, 0.9, 0.95]);
        assert_eq!(h.counts, &[1, 1, 1, 2]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(7.0);
        assert_eq!(h.counts, &[1, 1]);
    }

    #[test]
    fn quantiles_of_uniform_data_are_linear() {
        let mut h = Histogram::new(0.0, 1.0, 1000);
        h.extend((0..10_000).map(|i| i as f64 / 10_000.0));
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            assert!((h.quantile(q) - q).abs() < 2e-3, "q={q}: got {}", h.quantile(q));
        }
        assert!((h.p50() - 0.5).abs() < 2e-3);
        assert!((h.p95() - 0.95).abs() < 2e-3);
        assert!((h.p99() - 0.99).abs() < 2e-3);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new(0.0, 10.0, 64);
        h.extend([0.5, 0.7, 1.2, 3.3, 3.4, 9.1, 9.9, 12.0]);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile must be non-decreasing in q");
            assert!((0.0..=10.0).contains(&v), "quantile {v} left the range");
            last = v;
        }
        // q = 0 resolves to the lower edge of the first occupied bin.
        assert!(h.quantile(0.0) <= 0.5);
    }

    #[test]
    fn single_value_quantiles_collapse_to_its_bin() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        h.add(0.42);
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile(q);
            assert!((0.42 - v).abs() <= 0.01 + 1e-12, "q={q}: {v}");
        }
    }

    #[test]
    fn quantile_matches_sorted_index_on_fine_bins() {
        // The use case that replaced the ad-hoc sorted-index p95 in the
        // pipeline simulator: with fine bins the histogram quantile agrees
        // with the order-statistic estimate to a bin width.
        let values: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64 / 50.0).collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = sorted[(sorted.len() as f64 * 0.95) as usize];
        let mut h = Histogram::new(0.0, 10.0, 2000);
        h.extend(values);
        // Agreement to one bin width plus one order-statistic step (the
        // sorted-index estimator rounds up, interpolation doesn't).
        assert!((h.p95() - exact).abs() < 10.0 / 2000.0 + 0.02 + 1e-9, "{} vs {exact}", h.p95());
    }

    #[test]
    fn of_nonnegative_spans_the_samples() {
        let h = Histogram::of_nonnegative(&[0.5, 1.0, 2.0], 100);
        assert_eq!(h.total(), 3);
        // The maximum lands inside the last bin, not clamped from above.
        assert!(h.counts.last().copied().unwrap_or(0) >= 1);
        assert!(h.quantile(1.0) >= 2.0 && h.quantile(1.0) <= 2.0 * 1.001 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative sample")]
    fn of_nonnegative_rejects_negative_samples() {
        let _ = Histogram::of_nonnegative(&[0.5, -0.1], 10);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn quantile_of_empty_histogram_panics() {
        let h = Histogram::new(0.0, 1.0, 4);
        let _ = h.quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(0.5);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn display_renders_bars() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend([0.1, 0.2, 0.8]);
        let s = h.to_string();
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 2);
    }
}
