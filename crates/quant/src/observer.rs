//! Range observers that watch float activations during calibration and
//! emit quantization parameters.

use crate::qparams::QuantParams;
use mea_tensor::Tensor;

/// Tracks the global minimum and maximum of everything it observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxObserver {
    min: f32,
    max: f32,
    observed: bool,
}

impl MinMaxObserver {
    /// A fresh observer that has seen nothing.
    pub fn new() -> Self {
        MinMaxObserver { min: f32::MAX, max: f32::MIN, observed: false }
    }

    /// Folds a tensor's values into the running range.
    pub fn observe(&mut self, t: &Tensor) {
        for &v in t.as_slice() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.observed = self.observed || t.numel() > 0;
    }

    /// The observed `(min, max)` range.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    pub fn range(&self) -> (f32, f32) {
        assert!(self.observed, "observer saw no data");
        (self.min, self.max)
    }

    /// Affine per-tensor parameters covering the observed range.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    pub fn to_affine_params(&self) -> QuantParams {
        let (lo, hi) = self.range();
        QuantParams::affine_from_range(lo, hi)
    }
}

impl Default for MinMaxObserver {
    fn default() -> Self {
        MinMaxObserver::new()
    }
}

/// Exponential-moving-average range observer: each batch's min/max is
/// blended into the running estimate. More robust against a single
/// outlier batch than [`MinMaxObserver`] when calibration data is noisy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingAverageObserver {
    min: f32,
    max: f32,
    momentum: f32,
    observed: bool,
}

impl MovingAverageObserver {
    /// Creates an EMA observer. `momentum` is the weight of the *old*
    /// estimate, typically 0.9–0.99.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1`.
    pub fn new(momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1), got {momentum}");
        MovingAverageObserver { min: 0.0, max: 0.0, momentum, observed: false }
    }

    /// Blends a batch's min/max into the running estimate.
    pub fn observe(&mut self, t: &Tensor) {
        if t.numel() == 0 {
            return;
        }
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &v in t.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if self.observed {
            self.min = self.momentum * self.min + (1.0 - self.momentum) * lo;
            self.max = self.momentum * self.max + (1.0 - self.momentum) * hi;
        } else {
            self.min = lo;
            self.max = hi;
            self.observed = true;
        }
    }

    /// The smoothed `(min, max)` range.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    pub fn range(&self) -> (f32, f32) {
        assert!(self.observed, "observer saw no data");
        (self.min, self.max)
    }

    /// Affine per-tensor parameters covering the smoothed range.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    pub fn to_affine_params(&self) -> QuantParams {
        let (lo, hi) = self.range();
        QuantParams::affine_from_range(lo.min(hi), hi.max(lo))
    }
}

/// Per-output-channel absolute maxima of a weight tensor `[out_c, ...]` —
/// the input to symmetric per-channel weight parameters.
pub fn channel_absmax(weights: &Tensor) -> Vec<f32> {
    let out_c = weights.dims()[0];
    let row = weights.numel() / out_c;
    weights.as_slice().chunks(row).map(|chunk| chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qparams::QMAX;

    #[test]
    fn minmax_tracks_extremes_across_batches() {
        let mut obs = MinMaxObserver::new();
        obs.observe(&Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
        obs.observe(&Tensor::from_vec(vec![5.0, 0.0], &[2]).unwrap());
        assert_eq!(obs.range(), (-2.0, 5.0));
    }

    #[test]
    fn minmax_params_cover_range() {
        let mut obs = MinMaxObserver::new();
        obs.observe(&Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap());
        let p = obs.to_affine_params();
        assert_eq!(p.quantize_value(3.0, 0) as i32, QMAX);
        assert!(p.dequantize_value(p.quantize_value(-1.0, 0), 0) <= -0.95);
    }

    #[test]
    fn ema_converges_toward_stationary_range() {
        let mut obs = MovingAverageObserver::new(0.5);
        for _ in 0..20 {
            obs.observe(&Tensor::from_vec(vec![-1.0, 1.0], &[2]).unwrap());
        }
        let (lo, hi) = obs.range();
        assert!((lo + 1.0).abs() < 1e-3 && (hi - 1.0).abs() < 1e-3);
    }

    #[test]
    fn ema_discounts_outlier_batch() {
        let mut strict = MinMaxObserver::new();
        let mut ema = MovingAverageObserver::new(0.9);
        for i in 0..50 {
            let v = if i == 25 { 100.0 } else { 1.0 };
            let t = Tensor::from_vec(vec![-v, v], &[2]).unwrap();
            strict.observe(&t);
            ema.observe(&t);
        }
        assert_eq!(strict.range().1, 100.0);
        assert!(ema.range().1 < 20.0, "EMA range should forget the outlier, got {:?}", ema.range());
    }

    #[test]
    fn channel_absmax_per_row() {
        let w = Tensor::from_vec(vec![0.5, -1.5, 2.0, -0.1], &[2, 2]).unwrap();
        assert_eq!(channel_absmax(&w), vec![1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "observer saw no data")]
    fn unobserved_range_panics() {
        let _ = MinMaxObserver::new().range();
    }
}
