//! Bounded streaming histogram for high-volume latency telemetry.
//!
//! [`Histogram`](crate::Histogram) needs every sample up front (or a
//! range chosen in advance); the serving runtime's per-class latency
//! breakdown used to buffer every observation to get one. At 10k-device
//! scale that buffer grows with the trace. [`StreamingHistogram`] records
//! one sample at a time into a fixed set of log-spaced buckets, so memory
//! stays flat (`O(buckets)`) no matter how many samples arrive, while
//! quantiles stay within the bucket resolution (≤5% relative error at the
//! default 512 buckets over twelve decades).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-memory histogram with logarithmically spaced buckets.
///
/// Values below `lo` (zero and negative ones included) clamp into the
/// first bucket and values at or above `hi` clamp into the last, so tails
/// never disappear; the observed
/// minimum and maximum are tracked exactly and bound every quantile
/// estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
}

/// Default bucket count: 512 buckets over [`StreamingHistogram::LO`],
/// [`StreamingHistogram::HI`]) keep the per-bucket growth factor at
/// ~1.055, i.e. ≤5.5% relative quantile error.
pub(crate) const DEFAULT_BUCKETS: usize = 512;

impl StreamingHistogram {
    /// Default lower edge: 1 µs, well under any modelled service time.
    pub(crate) const LO: f64 = 1e-6;
    /// Default upper edge: 10 000 s, far above any sane latency.
    pub const HI: f64 = 1e4;

    /// A histogram over `[lo, hi)` with `buckets` log-spaced buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `0 < lo < hi` does not hold.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo > 0.0 && lo < hi, "need 0 < lo < hi, got [{lo}, {hi})");
        StreamingHistogram {
            lo,
            hi,
            counts: vec![0; buckets],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default latency histogram: `DEFAULT_BUCKETS` log-spaced
    /// buckets over `[1 µs, 10 000 s)`.
    pub fn for_latency() -> Self {
        StreamingHistogram::new(Self::LO, Self::HI, DEFAULT_BUCKETS)
    }

    /// Records one sample in `O(1)` time and `O(1)` extra memory. A
    /// negative sample (a signed delay that came out early) lands in the
    /// first bucket and shows in [`StreamingHistogram::min`].
    ///
    /// # Panics
    ///
    /// Panics on a non-finite sample.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "streaming histogram got an invalid sample: {v}");
        let buckets = self.counts.len();
        let idx = if v < self.lo {
            0
        } else {
            let t = (v / self.lo).ln() / (self.hi / self.lo).ln() * buckets as f64;
            (t as usize).min(buckets - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile of the recorded samples, estimated as the
    /// geometric midpoint of the bucket where the cumulative count
    /// crosses `q · total` and clamped to the exactly-tracked observed
    /// `[min, max]` — so the estimate is within one bucket's growth
    /// factor of the true order statistic.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        assert!(self.total > 0, "quantile of an empty histogram");
        let need = q * self.total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum as f64 >= need && c > 0 {
                let ratio = self.hi / self.lo;
                let buckets = self.counts.len() as f64;
                let mid = self.lo * ratio.powf((i as f64 + 0.5) / buckets);
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
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

impl fmt::Display for StreamingHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total == 0 {
            return write!(f, "streaming histogram: empty");
        }
        write!(
            f,
            "streaming histogram: n={} min={:.6} p50={:.6} p95={:.6} p99={:.6} max={:.6}",
            self.total,
            self.min,
            self.p50(),
            self.p95(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile of a sorted slice (nearest-rank).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    #[test]
    fn quantiles_stay_within_bucket_resolution() {
        // Samples spanning four decades — exactly the shape of mixed
        // local/cloud latencies. The streaming estimate must stay within
        // the documented relative error of the exact order statistic.
        let mut h = StreamingHistogram::for_latency();
        let mut values = Vec::new();
        let mut x = 1.3e-4f64;
        for i in 0..5000 {
            // Deterministic spread: a few decades with uneven density.
            let v = x * (1.0 + 0.5 * ((i * 37 % 100) as f64 / 100.0));
            values.push(v);
            h.record(v);
            x *= 1.002;
        }
        values.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q);
            assert!((est - exact).abs() <= exact * 0.06, "q={q}: streaming {est} vs exact {exact}");
        }
    }

    #[test]
    fn memory_is_flat_and_extremes_exact() {
        let mut h = StreamingHistogram::for_latency();
        let buckets = 512;
        for i in 0..100_000u64 {
            h.record(1e-3 * (1.0 + (i % 1000) as f64));
        }
        assert_eq!(h.count(), 100_000);
        // The struct never grows: counts stay at the configured size.
        assert_eq!(h.counts.len(), buckets);
        assert_eq!(h.min(), 1e-3);
        assert_eq!(h.max(), 1.0);
        // Quantiles are ordered and bounded by the exact extremes.
        assert!(h.min() <= h.p50() && h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.max());
    }

    #[test]
    fn clamps_zero_and_huge_samples_instead_of_losing_them() {
        let mut h = StreamingHistogram::for_latency();
        h.record(0.0); // below lo: clamps into the first bucket
        h.record(1e9); // above hi: clamps into the last bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e9);
        // Quantile estimates still bracket the clamped extremes.
        assert!(h.quantile(0.0) >= 0.0);
        // A negative sample clamps too, and the exact minimum keeps it.
        h.record(-2e-6);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -2e-6);
        assert!(h.quantile(0.0) >= -2e-6);
        assert!(h.quantile(1.0) <= 1e9);
    }

    #[test]
    #[should_panic(expected = "invalid sample")]
    fn rejects_nan_samples() {
        StreamingHistogram::for_latency().record(f64::NAN);
    }
}
