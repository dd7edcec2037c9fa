//! Range observers that watch float activations during calibration and
//! emit quantization parameters.

use crate::qparams::QuantParams;
use mea_tensor::Tensor;

/// Tracks the global minimum and maximum of everything it observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MinMaxObserver {
    min: f32,
    max: f32,
    observed: bool,
}

impl MinMaxObserver {
    /// A fresh observer that has seen nothing.
    pub(crate) fn new() -> Self {
        MinMaxObserver { min: f32::MAX, max: f32::MIN, observed: false }
    }

    /// Folds a tensor's values into the running range.
    pub(crate) fn observe(&mut self, t: &Tensor) {
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
    pub(crate) fn range(&self) -> (f32, f32) {
        assert!(self.observed, "observer saw no data");
        (self.min, self.max)
    }

    /// Affine per-tensor parameters covering the observed range.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    pub(crate) fn to_affine_params(self) -> QuantParams {
        let (lo, hi) = self.range();
        QuantParams::affine_from_range(lo, hi)
    }
}

/// Per-output-channel absolute maxima of a weight tensor `[out_c, ...]` —
/// the input to symmetric per-channel weight parameters.
pub(crate) fn channel_absmax(weights: &Tensor) -> Vec<f32> {
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
