//! Property-based tests on the quantization grid and integer kernels.

use mea_quant::qparams::{QMAX, QMIN};
use mea_quant::{wire, QTensor, QuantParams};
use mea_tensor::{Rng, Tensor};
use proptest::prelude::*;

proptest! {
    /// Quantize→dequantize error is at most half a scale step for any value
    /// inside the observed range.
    #[test]
    fn round_trip_error_half_scale(
        lo in -100.0f32..0.0,
        span in 0.01f32..200.0,
        frac in 0.0f32..1.0,
    ) {
        let hi = lo + span;
        let p = QuantParams::affine_from_range(lo, hi);
        let x = lo + frac * span;
        let err = (p.dequantize_value(p.quantize_value(x, 0), 0) - x).abs();
        prop_assert!(err <= p.scale(0) / 2.0 + 1e-5, "err {err} scale {}", p.scale(0));
    }

    /// Every quantized value stays inside the int8 grid, no matter the input.
    #[test]
    fn quantization_saturates(x in -1e6f32..1e6, lo in -10.0f32..0.0, hi in 0.01f32..10.0) {
        let p = QuantParams::affine_from_range(lo, hi);
        let q = p.quantize_value(x, 0) as i32;
        prop_assert!((QMIN..=QMAX).contains(&q));
    }

    /// Real zero is always exactly representable (required for zero-point
    /// padding to be lossless).
    #[test]
    fn zero_is_exact(lo in -50.0f32..0.0, hi in 0.0f32..50.0) {
        let p = QuantParams::affine_from_range(lo, hi);
        let z = p.quantize_value(0.0, 0);
        prop_assert_eq!(p.dequantize_value(z, 0), 0.0);
    }

    /// Dequantization is monotone in the quantized value.
    #[test]
    fn dequantize_is_monotone(lo in -10.0f32..0.0, hi in 0.1f32..10.0, a in -128i32..127, b in -128i32..127) {
        let p = QuantParams::affine_from_range(lo, hi);
        let (qa, qb) = (a.min(b) as i8, a.max(b) as i8);
        prop_assert!(p.dequantize_value(qa, 0) <= p.dequantize_value(qb, 0));
    }

    /// Symmetric per-channel parameters round-trip channel extremes to
    /// within one scale step of the true value.
    #[test]
    fn per_channel_extremes_accurate(absmax in proptest::collection::vec(0.01f32..100.0, 1..8)) {
        let p = QuantParams::symmetric_per_channel(&absmax);
        for (c, &m) in absmax.iter().enumerate() {
            let err = (p.dequantize_value(p.quantize_value(m, c), c) - m).abs();
            prop_assert!(err <= p.scale(c), "channel {c}: err {err} scale {}", p.scale(c));
        }
    }

    /// Tensor-level round trip never exceeds half a scale step on any
    /// element inside the range.
    #[test]
    fn qtensor_round_trip(values in proptest::collection::vec(-5.0f32..5.0, 4..64)) {
        let n = values.len();
        let t = Tensor::from_vec(values.clone(), &[n]).unwrap();
        let (lo, hi) = values.iter().fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(lo, hi));
        let back = q.dequantize();
        let bound = q.params().scale(0) / 2.0 + 1e-5;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= bound);
        }
    }

    /// qgemm with arbitrary int8 operands equals the i64 reference (no
    /// overflow in i32 for realistic patch sizes).
    #[test]
    fn qgemm_matches_wide_reference(
        a in proptest::collection::vec(-128i8..=127, 12),
        b in proptest::collection::vec(-128i8..=127, 20),
    ) {
        // [3, 4] x [4, 5]
        let got = mea_quant::kernels::qgemm_i32(&a, &b, 3, 4, 5);
        for m in 0..3 {
            for n in 0..5 {
                let mut want = 0i64;
                for k in 0..4 {
                    want += a[m * 4 + k] as i64 * b[k * 5 + n] as i64;
                }
                prop_assert_eq!(got[m * 5 + n] as i64, want);
            }
        }
    }

    /// Every int8 frame decodes to the tensor it encodes, bit for bit, and
    /// is at most its mode byte longer than its raw elements. Kinds: 0
    /// all-zero and 1 single-value (coded in one bit per element, so raw
    /// wins exactly when that cannot pay for the 128-byte length table),
    /// 2 uniform-random bytes (raw always wins), 3 a ReLU activation on its
    /// affine grid, and 4 a per-channel grid through the indexed frame.
    #[test]
    fn wire_frames_round_trip_and_never_grow(
        kind in 0u8..5,
        shape in (1usize..9, 1usize..9, 1usize..80),
        seed in any::<u64>(),
    ) {
        let (c, h, w) = shape;
        let numel = c * h * w;
        let mut rng = Rng::new(seed);
        let normal = Tensor::randn([c, h, w], 1.0, &mut rng);
        let affine = QuantParams::affine_from_range(-1.5, 2.5);
        let q = match kind {
            0 => QTensor::from_parts(vec![0; numel], vec![c, h, w], affine),
            1 => QTensor::from_parts(vec![rng.below(256) as u8 as i8; numel], vec![c, h, w], affine),
            2 => QTensor::from_parts((0..numel).map(|_| rng.below(256) as u8 as i8).collect(), vec![c, h, w], affine),
            3 => {
                let relu = normal.as_slice().iter().map(|v| v.max(0.0)).collect();
                let t = Tensor::from_vec(relu, &[c, h, w]).unwrap();
                QTensor::quantize(&t, QuantParams::affine_from_range(t.min(), t.max()))
            }
            _ => {
                let absmax: Vec<f32> =
                    normal.as_slice().chunks(h * w).map(|ch| ch.iter().fold(0.0f32, |m, v| m.max(v.abs()))).collect();
                QTensor::quantize_per_channel(&normal, QuantParams::symmetric_per_channel(&absmax))
            }
        };
        let buf = wire::encode(&q);
        prop_assert_eq!(buf.len() as u64, wire::encoded_len(&q));
        prop_assert_eq!(wire::try_decode(&buf), Ok((q.clone(), buf.len())));
        let mut indexed = Vec::new();
        wire::encode_indexed_into(&q, &mut indexed);
        prop_assert_eq!(indexed.len() as u64, wire::indexed_encoded_len(&q));
        prop_assert_eq!(wire::decode_indexed(&indexed, q.params().clone()), Ok((q.clone(), indexed.len())));
        let raw = 1 + 4 * 3 + numel as u64;
        prop_assert!(indexed.len() as u64 <= raw + 1, "{} bytes for {numel} elements", indexed.len());
        let coded = indexed[1 + 4 * 3] == 1;
        match kind {
            0 | 1 => prop_assert_eq!(coded, 128 + numel.div_ceil(8) < numel),
            2 => prop_assert!(!coded, "uniform bytes took the code"),
            _ => {}
        }
        if coded {
            prop_assert!(indexed.len() as u64 <= raw, "a coded body longer than the raw one");
        }
    }

    /// Requantization respects its clamp bounds for any accumulator.
    #[test]
    fn requantize_is_clamped(acc in -1_000_000i32..1_000_000, mult in 0.0001f32..10.0) {
        let q = mea_quant::kernels::requantize(acc, mult, 3, -20, 90) as i32;
        prop_assert!((-20..=90).contains(&q));
    }
}
