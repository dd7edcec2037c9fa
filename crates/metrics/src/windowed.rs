//! A windowed quantile view over a [`StreamingHistogram`] pair.
//!
//! Closed-loop controllers (the serving governor) need *recent* latency
//! quantiles, not lifetime ones: a p95 dominated by the first thousand
//! fast requests hides a link degradation for thousands more. This type
//! keeps two histograms — one cumulative for end-of-run reporting, one
//! covering only the observations since the last [`WindowedQuantiles::roll`]
//! — so a control loop can read the live window each decision epoch and
//! still report lifetime quantiles at the end.

use crate::streaming::StreamingHistogram;

/// A cumulative + current-window histogram pair with identical bucket
/// layouts. Every [`WindowedQuantiles::record`] lands in both; `roll()`
/// hands the finished window out and starts a fresh one.
#[derive(Debug, Clone)]
pub struct WindowedQuantiles {
    cumulative: StreamingHistogram,
    window: StreamingHistogram,
}

impl Default for WindowedQuantiles {
    fn default() -> Self {
        Self::for_latency()
    }
}

impl WindowedQuantiles {
    /// A pair of latency-ranged histograms ([`StreamingHistogram::for_latency`]).
    pub fn for_latency() -> Self {
        WindowedQuantiles {
            cumulative: StreamingHistogram::for_latency(),
            window: StreamingHistogram::for_latency(),
        }
    }

    /// Records one observation into both the cumulative view and the
    /// current window.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value (the histograms' own
    /// contract).
    pub fn record(&mut self, value: f64) {
        self.cumulative.record(value);
        self.window.record(value);
    }

    /// Observations in the current (un-rolled) window.
    pub fn window_count(&self) -> u64 {
        self.window.count()
    }

    /// The window's `q`-quantile without closing it, or `None` while the
    /// window is empty.
    pub fn window_quantile(&self, q: f64) -> Option<f64> {
        (self.window.count() > 0).then(|| self.window.quantile(q))
    }

    /// Closes the current window: returns it and starts an empty one. The
    /// cumulative view is untouched.
    pub fn roll(&mut self) -> StreamingHistogram {
        std::mem::replace(&mut self.window, StreamingHistogram::for_latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lands_in_both_views() {
        let mut w = WindowedQuantiles::for_latency();
        for i in 1..=100 {
            w.record(i as f64 * 1e-3);
        }
        assert_eq!(w.cumulative.count(), 100);
        assert_eq!(w.window_count(), 100);
        // Same data → same quantile from both views.
        assert_eq!(Some(w.cumulative.quantile(0.95)), w.window_quantile(0.95));
    }

    #[test]
    fn roll_resets_the_window_but_not_the_cumulative_view() {
        let mut w = WindowedQuantiles::for_latency();
        for _ in 0..10 {
            w.record(0.010);
        }
        let closed = w.roll();
        assert_eq!(closed.count(), 10);
        assert_eq!(w.window_count(), 0);
        assert_eq!(w.cumulative.count(), 10);
        assert_eq!(w.window_quantile(0.95), None);
        // A degradation shows up in the fresh window immediately, while
        // the cumulative view blends both regimes.
        for _ in 0..10 {
            w.record(1.0);
        }
        let live = w.window_quantile(0.5).unwrap();
        let lifetime = w.cumulative.quantile(0.5);
        assert!(live > 0.5, "live window sees only the slow regime, got {live}");
        assert!(lifetime < live, "cumulative median blends the fast prefix");
    }

    #[test]
    fn empty_quantiles_are_none_not_panics() {
        let w = WindowedQuantiles::for_latency();
        assert_eq!(w.cumulative.count(), 0);
        assert_eq!(w.window_quantile(0.95), None);
    }
}
