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
pub(crate) enum QScheme {
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
    pub(crate) fn from_parts(scheme: QScheme, scales: Vec<f32>, zero_points: Vec<i32>) -> Result<Self, WireError> {
        let n = scales.len();
        let counts = n > 0 && n == zero_points.len() && (scheme == QScheme::SymmetricPerChannel || n == 1);
        let affine = scheme == QScheme::AffinePerTensor;
        let zps = zero_points.iter().all(|&z| (QMIN..=QMAX).contains(&z) && (affine || z == 0));
        let ok = counts && zps && scales.iter().all(|&s| s.is_finite() && s > 0.0);
        ok.then_some(QuantParams { scheme, scales, zero_points }).ok_or(WireError::BadParams)
    }

    /// The scheme these parameters follow.
    pub(crate) fn scheme(&self) -> QScheme {
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
    pub(crate) fn zero_point(&self, ch: usize) -> i32 {
        self.zero_points[ch]
    }

    /// Quantizes one value in channel `ch` with round-to-nearest (ties
    /// away from zero, as [`f32::round`]) and saturation; NaN goes to the
    /// zero point.
    pub fn quantize_value(&self, x: f32, ch: usize) -> i8 {
        onto_grid(x / self.scales[ch], self.zero_points[ch])
    }

    /// Quantizes `xs`, all in channel `ch`, appending to `out`: for each
    /// value what [`QuantParams::quantize_value`] gives, with the channel's
    /// scale and zero point read once, so that the loop vectorises.
    pub fn quantize_into(&self, xs: &[f32], ch: usize, out: &mut Vec<i8>) {
        let (scale, zero_point) = (self.scales[ch], self.zero_points[ch]);
        out.extend(xs.iter().map(|&x| onto_grid(x / scale, zero_point)));
    }

    /// Dequantizes one value in channel `ch`.
    pub fn dequantize_value(&self, q: i8, ch: usize) -> f32 {
        (q as i32 - self.zero_points[ch]) as f32 * self.scales[ch]
    }

    /// Dequantizes `qs`, all in channel `ch`, appending to `out`: for each
    /// value what [`QuantParams::dequantize_value`] gives, with the
    /// channel's grid read once.
    pub(crate) fn dequantize_into(&self, qs: &[i8], ch: usize, out: &mut Vec<f32>) {
        let (scale, zero_point) = (self.scales[ch], self.zero_points[ch]);
        out.extend(qs.iter().map(|&q| (q as i32 - zero_point) as f32 * scale));
    }
}

/// Rounds the quotient `v` to the nearest integer, ties away from zero,
/// and saturates `v + zero_point` onto the int8 grid.
///
/// The rounding is inline, so a quantizing loop calls no `roundf`: `v` is
/// first saturated to ±256, where every value already lands on the grid's
/// edge whatever the zero point, then truncated, and the exact fraction
/// `v − trunc(v)` picks the neighbour. NaN truncates to 0.
#[inline]
fn onto_grid(v: f32, zero_point: i32) -> i8 {
    let v = v.clamp(-256.0, 256.0);
    let t = v as i32;
    let frac = v - t as f32;
    let q = t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32 + zero_point;
    q.clamp(QMIN, QMAX) as i8
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
        let p = QuantParams::symmetric_per_channel(&[4.0]);
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

    /// The reference: [`f32::round`], then a saturating add of the zero
    /// point (a plain `+` overflows on a quotient beyond `i32` and a
    /// positive zero point: a panic in debug, −128 for +∞ in release).
    fn quantize_with_round(p: &QuantParams, x: f32, ch: usize) -> i8 {
        ((x / p.scales[ch]).round() as i32).saturating_add(p.zero_points[ch]).clamp(QMIN, QMAX) as i8
    }

    #[test]
    fn inline_rounding_equals_f32_round_at_every_edge() {
        let grids = [
            QuantParams::affine_from_range(-3.0, 1.0), // zero point 63
            QuantParams::affine_from_range(-0.5, 4.0), // zero point -114
            // scale 1: quotients are the values
            QuantParams::from_parts(QScheme::SymmetricPerTensor, vec![1.0], vec![0]).unwrap(),
            QuantParams::symmetric_per_channel(&[127.0, 0.3, 1e-9]),
        ];
        let mut xs = vec![0.0, -0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45, 1e-40];
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, f32::MIN, 3e9, -3e9, 2.2e9, 1e20]);
        for k in -300..=300 {
            for tie in [k as f32 + 0.5, k as f32 - 0.5] {
                xs.extend([tie, f32::from_bits(tie.to_bits() + 1), f32::from_bits(tie.to_bits() - 1)]);
            }
            xs.push(k as f32);
        }
        for p in &grids {
            for ch in 0..p.channels() {
                // `base` itself, and `base` steps of the channel's scale,
                // whose quotient lands on or next to the tie.
                let values: Vec<f32> = xs.iter().flat_map(|&base| [base, base * p.scale(ch)]).collect();
                let mut slice = Vec::new();
                p.quantize_into(&values, ch, &mut slice);
                for (&x, &sliced) in values.iter().zip(&slice) {
                    let old = quantize_with_round(p, x, ch);
                    assert_eq!(
                        p.quantize_value(x, ch),
                        old,
                        "x = {x:e} ({:#x}), channel {ch} of {p:?}",
                        x.to_bits()
                    );
                    assert_eq!(sliced, old, "quantize_into, x = {x:e}, channel {ch}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverted quantization range")]
    fn inverted_range_rejected() {
        let _ = QuantParams::affine_from_range(1.0, -1.0);
    }
}
