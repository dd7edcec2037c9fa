//! Quantization parameters: scale/zero-point pairs mapping f32 values onto
//! the signed 8-bit grid.
//!
//! Two schemes are used, matching standard deployment practice:
//!
//! * **Affine per-tensor** for activations — one `(scale, zero_point)` pair
//!   chosen from an observed `[min, max]` range;
//! * **Symmetric per-channel** for weights — one scale per output channel,
//!   zero-point fixed at 0, chosen from the channel's absolute maximum.

use mea_tensor::WireError;
use serde::{Deserialize, Serialize};

/// The representable int8 range.
pub const QMIN: i32 = -128;
/// The representable int8 range.
pub const QMAX: i32 = 127;

/// How values are mapped onto the int8 grid. The discriminant is the
/// scheme's tag on the wire ([`crate::wire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QScheme {
    /// One `(scale, zero_point)` for the whole tensor; zero-point may be
    /// non-zero. Used for activations.
    AffinePerTensor = 0,
    /// One scale for the whole tensor, zero-point fixed at 0.
    SymmetricPerTensor = 1,
    /// One scale per leading-axis slice (output channel), zero-points fixed
    /// at 0. Used for convolution and linear weights.
    SymmetricPerChannel = 2,
}

/// Scale/zero-point parameters for quantizing a tensor.
///
/// For per-tensor schemes `scales`/`zero_points` hold exactly one entry;
/// for per-channel schemes, one entry per output channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    scheme: QScheme,
    scales: Vec<f32>,
    zero_points: Vec<i32>,
}

/// The smallest scale ever produced, guarding against degenerate
/// (constant-zero) observed ranges.
const MIN_SCALE: f32 = 1e-8;

impl QuantParams {
    /// Affine per-tensor parameters covering the observed `[min, max]`
    /// range. The range is widened to include zero so that padding and
    /// ReLU thresholds are exactly representable.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is non-finite.
    pub fn affine_from_range(min: f32, max: f32) -> Self {
        assert!(min.is_finite() && max.is_finite(), "non-finite quantization range [{min}, {max}]");
        assert!(min <= max, "inverted quantization range [{min}, {max}]");
        let lo = min.min(0.0);
        let hi = max.max(0.0);
        let scale = ((hi - lo) / (QMAX - QMIN) as f32).max(MIN_SCALE);
        let zp = (QMIN as f32 - lo / scale).round() as i32;
        QuantParams {
            scheme: QScheme::AffinePerTensor,
            scales: vec![scale],
            zero_points: vec![zp.clamp(QMIN, QMAX)],
        }
    }

    /// Symmetric per-tensor parameters from an absolute maximum.
    ///
    /// # Panics
    ///
    /// Panics if `absmax` is negative or non-finite.
    pub fn symmetric_from_absmax(absmax: f32) -> Self {
        assert!(absmax.is_finite() && absmax >= 0.0, "invalid absmax {absmax}");
        let scale = (absmax / QMAX as f32).max(MIN_SCALE);
        QuantParams { scheme: QScheme::SymmetricPerTensor, scales: vec![scale], zero_points: vec![0] }
    }

    /// Symmetric per-channel parameters, one scale per output channel.
    ///
    /// # Panics
    ///
    /// Panics if `absmax` is empty or contains a negative/non-finite entry.
    pub fn symmetric_per_channel(absmax: &[f32]) -> Self {
        assert!(!absmax.is_empty(), "per-channel parameters need at least one channel");
        let scales = absmax
            .iter()
            .map(|&a| {
                assert!(a.is_finite() && a >= 0.0, "invalid channel absmax {a}");
                (a / QMAX as f32).max(MIN_SCALE)
            })
            .collect::<Vec<_>>();
        let zero_points = vec![0; absmax.len()];
        QuantParams { scheme: QScheme::SymmetricPerChannel, scales, zero_points }
    }

    /// Reassembles parameters from their raw parts — the decode side of
    /// the wire codec ([`crate::wire`]).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadParams`] on inconsistent parts: empty or
    /// length-mismatched vectors, a per-tensor scheme with more than one
    /// channel, non-positive or non-finite scales, a zero-point off the
    /// int8 grid, or a non-zero zero-point under a symmetric scheme.
    pub fn from_parts(scheme: QScheme, scales: Vec<f32>, zero_points: Vec<i32>) -> Result<Self, WireError> {
        let n = scales.len();
        let counts = n > 0 && n == zero_points.len() && (scheme == QScheme::SymmetricPerChannel || n == 1);
        let affine = scheme == QScheme::AffinePerTensor;
        let zps = zero_points.iter().all(|&z| (QMIN..=QMAX).contains(&z) && (affine || z == 0));
        let ok = counts && zps && scales.iter().all(|&s| s.is_finite() && s > 0.0);
        ok.then_some(QuantParams { scheme, scales, zero_points }).ok_or(WireError::BadParams)
    }

    /// The scheme these parameters follow.
    pub fn scheme(&self) -> QScheme {
        self.scheme
    }

    /// Number of channels (1 for per-tensor schemes).
    pub fn channels(&self) -> usize {
        self.scales.len()
    }

    /// Scale of channel `ch` (use 0 for per-tensor parameters).
    pub fn scale(&self, ch: usize) -> f32 {
        self.scales[ch]
    }

    /// Zero-point of channel `ch` (use 0 for per-tensor parameters).
    pub fn zero_point(&self, ch: usize) -> i32 {
        self.zero_points[ch]
    }

    /// Quantizes one value in channel `ch` with round-to-nearest and
    /// saturation.
    pub fn quantize_value(&self, x: f32, ch: usize) -> i8 {
        let q = (x / self.scales[ch]).round() as i32 + self.zero_points[ch];
        q.clamp(QMIN, QMAX) as i8
    }

    /// Dequantizes one value in channel `ch`.
    pub fn dequantize_value(&self, q: i8, ch: usize) -> f32 {
        (q as i32 - self.zero_points[ch]) as f32 * self.scales[ch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_range_covers_zero_exactly() {
        let p = QuantParams::affine_from_range(0.5, 6.0); // widened to [0, 6]
        let q0 = p.quantize_value(0.0, 0);
        assert!((p.dequantize_value(q0, 0)).abs() < 1e-6, "zero must be exactly representable");
        assert_eq!(q0 as i32, p.zero_point(0));
    }

    #[test]
    fn affine_round_trip_error_bounded_by_half_scale() {
        let p = QuantParams::affine_from_range(-2.0, 3.0);
        for i in 0..100 {
            let x = -2.0 + 5.0 * (i as f32) / 99.0;
            let err = (p.dequantize_value(p.quantize_value(x, 0), 0) - x).abs();
            assert!(err <= p.scale(0) / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn symmetric_keeps_zero_point_zero() {
        let p = QuantParams::symmetric_from_absmax(4.0);
        assert_eq!(p.zero_point(0), 0);
        assert_eq!(p.quantize_value(0.0, 0), 0);
        // absmax maps close to QMAX
        assert_eq!(p.quantize_value(4.0, 0), QMAX as i8);
        assert_eq!(p.quantize_value(-4.0, 0), -127);
    }

    #[test]
    fn per_channel_scales_are_independent() {
        let p = QuantParams::symmetric_per_channel(&[1.0, 10.0]);
        assert_eq!(p.channels(), 2);
        assert_eq!(p.quantize_value(1.0, 0), QMAX as i8);
        assert_eq!(p.quantize_value(1.0, 1), 13); // 1/ (10/127) = 12.7 -> 13
    }

    #[test]
    fn saturation_clamps_out_of_range() {
        let p = QuantParams::affine_from_range(-1.0, 1.0);
        assert_eq!(p.quantize_value(100.0, 0) as i32, QMAX);
        assert_eq!(p.quantize_value(-100.0, 0) as i32, QMIN);
    }

    #[test]
    fn degenerate_range_still_valid() {
        let p = QuantParams::affine_from_range(0.0, 0.0);
        assert!(p.scale(0) > 0.0);
        assert_eq!(p.dequantize_value(p.quantize_value(0.0, 0), 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted quantization range")]
    fn inverted_range_rejected() {
        let _ = QuantParams::affine_from_range(1.0, -1.0);
    }
}
