//! Wire codec for quantized tensors: the 8-bit feature format offloaded
//! activations travel in.
//!
//! The paper flags that f32 feature maps are often *larger* than the raw
//! image for small inputs — the reason it ships pixels. Quantizing the
//! activation to int8 removes that 4× penalty, and a lossless entropy code
//! over the int8 elements takes off what their skew leaves (a ReLU
//! activation sits at its zero point a third of the time), so a deep
//! partition cut can beat the raw-image upload on bytes *and* spare the
//! cloud the prefix recompute. This module fixes the byte layout
//! (everything little-endian):
//!
//! | field       | size                         | meaning                              |
//! |-------------|------------------------------|--------------------------------------|
//! | scheme      | 1 byte                       | 0 affine, 1 symmetric, 2 per-channel |
//! | channels    | 4 bytes (u32)                | parameter channel count `n`          |
//! | scales      | 4·`n` bytes (f32)            | one per channel                      |
//! | zero points | 4·`n` bytes (i32)            | one per channel                      |
//! | rank        | 1 byte                       | tensor rank `r`                      |
//! | dims        | 4·`r` bytes (u32)            | dimension sizes                      |
//! | mode        | 1 byte                       | 0 raw, 1 Huffman-coded               |
//! | data, raw   | `numel` bytes (i8)           | the quantized elements               |
//! | data, coded | 128 bytes                    | 256 four-bit code lengths            |
//! |             | ⌈bits/8⌉ bytes               | one code per element                 |
//!
//! A coded body gives each element the canonical Huffman code of its
//! offset from the channel-0 zero point (the zero point is symbol 0):
//! lengths of at most 15 bits, the even symbol's in a byte's low nibble,
//! 0 for an absent symbol, and the codes most significant bit first, the
//! last byte padded with zero bits. The encoder writes whichever body is
//! shorter for the frame at hand (raw on a tie), so no frame is more than
//! the mode byte longer than its raw elements, and the decoded tensor is
//! the encoded one bit for bit. The decoder rejects an unknown mode, a
//! length table that is not a complete prefix code, a stream that ends
//! early and padding that is not zero.
//!
//! For a per-tensor activation the header is 15 + 4·`r` bytes (one more
//! for the payload tag when framed inside `mea_edgecloud`'s `Payload`).
//! At the end-to-end benchmark's split cut, a `[1, 48, 8, 8]` ReLU
//! activation, a payload would take 3,104 bytes raw and takes 2,325 on
//! average coded (`mea-edgecloud`'s `wire_sizes` test prints the table).

use crate::entropy::{self, Body};
use crate::qparams::{QScheme, QuantParams};
use crate::qtensor::QTensor;
use mea_tensor::reader::put_dims;
use mea_tensor::{Reader, Tensor, WireError};

/// Ships one f32 activation across the int8 wire end-to-end: quantize on
/// the affine per-tensor grid (parameters from the tensor's own range),
/// encode the frame, decode it back, and dequantize — returning exactly
/// the tensor the receiving side computes on, plus the frame's length in
/// bytes.
///
/// This is the single primitive both offload paths share: the serving
/// runtime's `Payload::QuantFeatures` and the offline sweep's
/// quantized-feature mode produce bitwise-identical activations because
/// they both reduce to this round trip (the codec is exact, so the only
/// loss is the quantization grid itself).
pub fn ship_affine(t: &Tensor) -> (Tensor, u64) {
    let q = QTensor::quantize(t, QuantParams::affine_from_range(t.min(), t.max()));
    let buf = encode(&q);
    let (back, consumed) = try_decode(&buf).expect("a frame encoded just above decodes");
    debug_assert_eq!(consumed, buf.len(), "wire frame decoded short");
    (back.dequantize(), buf.len() as u64)
}

/// Bytes [`encode`] produces for `t`: the parameter block — scheme (1),
/// channel count (4), scales and zero-points (8 per channel) — followed
/// by the indexed frame ([`indexed_encoded_len`]).
pub fn encoded_len(t: &QTensor) -> u64 {
    5 + 8 * t.params().channels() as u64 + indexed_encoded_len(t)
}

/// Encodes a quantized tensor, appending to `out`: its parameter block,
/// then the indexed frame of [`encode_indexed_into`].
pub fn encode_into(t: &QTensor, out: &mut Vec<u8>) {
    let params = t.params();
    out.push(params.scheme() as u8);
    out.extend_from_slice(&(params.channels() as u32).to_le_bytes());
    out.extend((0..params.channels()).flat_map(|c| params.scale(c).to_le_bytes()));
    out.extend((0..params.channels()).flat_map(|c| params.zero_point(c).to_le_bytes()));
    encode_indexed_into(t, out);
}

/// Encodes a quantized tensor into a fresh buffer.
pub fn encode(t: &QTensor) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(t, &mut out);
    out
}

/// [`try_decode`], panicking on a malformed buffer. Kept only because the
/// benchmark crate calls it by this name.
pub fn decode(buf: &[u8]) -> (QTensor, usize) {
    try_decode(buf).expect("malformed quantized-tensor wire frame")
}

/// Decodes a buffer produced by [`encode`], returning the tensor and the
/// number of bytes consumed (so the codec can be embedded in a larger
/// frame).
///
/// # Errors
///
/// Returns a [`WireError`] on a truncated buffer, an unknown scheme tag,
/// parameters [`QuantParams::from_parts`] rejects, or an indexed frame
/// [`decode_indexed`] rejects against them.
pub fn try_decode(buf: &[u8]) -> Result<(QTensor, usize), WireError> {
    let mut r = Reader::new(buf);
    let scheme = match r.u8()? {
        0 => QScheme::AffinePerTensor,
        1 => QScheme::SymmetricPerTensor,
        2 => QScheme::SymmetricPerChannel,
        t => return Err(WireError::UnknownTag(t)),
    };
    let n = r.u32()? as usize;
    let scales = r.f32s(n)?.collect();
    let zero_points = (0..n).map(|_| r.u32().map(|z| z as i32)).collect::<Result<_, _>>()?;
    let params = QuantParams::from_parts(scheme, scales, zero_points)?;
    let (t, used) = decode_indexed(r.rest(), params)?;
    Ok((t, r.position() + used))
}

/// Bytes [`encode_indexed_into`] produces for `t`: rank (1), dims (4·r),
/// mode (1) and data (at most numel). No parameter block — the grid
/// travels out of band.
pub fn indexed_encoded_len(t: &QTensor) -> u64 {
    1 + 4 * t.dims().len() as u64 + body(t).len()
}

/// The shorter body for `t`'s elements.
fn body(t: &QTensor) -> Body<'_> {
    Body::plan(t.as_slice(), t.params().zero_point(0) as i8)
}

/// Encodes a quantized tensor **without its parameters**, appending to
/// `out`. The receiving side must already hold the same [`QuantParams`]
/// (a calibrated grid shared out of band) and pass them to
/// [`decode_indexed`]. This is what makes a per-channel activation frame
/// *smaller* than a per-tensor one: the per-channel scale table — 8 bytes
/// per channel on the self-describing wire — is hoisted out of every
/// frame entirely.
pub fn encode_indexed_into(t: &QTensor, out: &mut Vec<u8>) {
    let body = body(t);
    out.reserve(1 + 4 * t.dims().len() + body.len() as usize);
    put_dims(out, t.dims());
    body.write(out);
}

/// Decodes a buffer produced by [`encode_indexed_into`] against the
/// out-of-band grid `params`, which the tensor takes over, returning the
/// tensor and the bytes consumed. The result is bitwise-identical to the
/// [`QTensor`] that was encoded, provided `params` is the sender's grid.
///
/// # Errors
///
/// Returns a [`WireError`] on a truncated buffer, an invalid shape or a
/// malformed body (see the module docs), or if `params` is per-channel
/// and its channel count differs from the frame's leading dimension.
pub fn decode_indexed(buf: &[u8], params: QuantParams) -> Result<(QTensor, usize), WireError> {
    let mut r = Reader::new(buf);
    let rank = r.u8()? as usize;
    let (dims, numel) = r.dims(rank)?;
    let frame = dims.first().copied().unwrap_or_default();
    if params.scheme() == QScheme::SymmetricPerChannel && frame != params.channels() {
        return Err(WireError::GridMismatch(params.channels(), frame));
    }
    let mut data = Vec::new();
    entropy::read(&mut r, numel, params.zero_point(0) as i8, &mut data)?;
    Ok((QTensor::from_parts(data, dims, params), r.position()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::{Rng, Tensor};

    fn sample(seed: u64) -> QTensor {
        let mut rng = Rng::new(seed);
        let t = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        QTensor::quantize(&t, QuantParams::affine_from_range(t.min(), t.max()))
    }

    #[test]
    fn round_trip_is_lossless() {
        let q = sample(0);
        let buf = encode(&q);
        assert_eq!(buf.len() as u64, encoded_len(&q));
        let (back, consumed) = decode(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(back, q, "int8 wire round trip must be exact");
        assert_eq!(back.dequantize(), q.dequantize());
    }

    #[test]
    fn per_channel_round_trips() {
        let t = Tensor::from_vec(vec![0.01, -0.02, 10.0, -8.0], &[2, 2]).unwrap();
        let q = QTensor::quantize_per_channel(&t, QuantParams::symmetric_per_channel(&[0.02, 10.0]));
        let (back, _) = decode(&encode(&q));
        assert_eq!(back, q);
    }

    #[test]
    fn embedded_decode_reports_consumed_bytes() {
        let q = sample(1);
        let mut framed = encode(&q);
        framed.extend_from_slice(&[0xAB; 7]); // trailing frame bytes
        let (back, consumed) = decode(&framed);
        assert_eq!(back, q);
        assert_eq!(consumed, framed.len() - 7);
    }

    #[test]
    fn wire_is_4x_smaller_than_f32_plus_header() {
        let q = sample(2);
        let f32_bytes = 4 * q.numel() as u64;
        assert!(encoded_len(&q) < f32_bytes / 2, "int8 wire should crush the f32 encoding");
    }

    #[test]
    fn ship_affine_matches_manual_round_trip() {
        let mut rng = Rng::new(4);
        let t = Tensor::randn([1, 3, 5, 5], 1.0, &mut rng);
        let (shipped, bytes) = ship_affine(&t);
        // Same grid, same frame: shipping is exactly quantize → dequantize.
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(t.min(), t.max()));
        assert_eq!(shipped, q.dequantize());
        assert_eq!(bytes, encoded_len(&q));
        assert_eq!(shipped.dims(), t.dims());
    }

    #[test]
    fn indexed_round_trip_is_exact_per_channel() {
        let mut rng = Rng::new(5);
        let t = Tensor::randn([6, 3, 4], 1.0, &mut rng);
        let absmax: Vec<f32> =
            t.as_slice().chunks(12).map(|c| c.iter().fold(0.0f32, |m, &x| m.max(x.abs()))).collect();
        let params = QuantParams::symmetric_per_channel(&absmax);
        let q = QTensor::quantize_per_channel(&t, params.clone());
        let mut buf = Vec::new();
        encode_indexed_into(&q, &mut buf);
        assert_eq!(buf.len() as u64, indexed_encoded_len(&q));
        let (back, consumed) = decode_indexed(&buf, params).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(back, q, "indexed wire round trip must be exact");
    }

    /// A ReLU activation on its affine grid: half the elements at the zero
    /// point, the rest skewed toward it — the shape a cut ships.
    fn relu_activation(numel: usize, seed: u64) -> QTensor {
        let mut rng = Rng::new(seed);
        let t = Tensor::from_vec((0..numel).map(|_| rng.normal().max(0.0)).collect(), &[1, numel]).unwrap();
        QTensor::quantize(&t, QuantParams::affine_from_range(t.min(), t.max()))
    }

    /// Where the mode byte of `q`'s self-describing frame sits.
    fn mode_at(q: &QTensor) -> usize {
        5 + 8 * q.params().channels() + 1 + 4 * q.dims().len()
    }

    #[test]
    fn skewed_activations_travel_coded_and_decode_bit_for_bit() {
        let q = relu_activation(3072, 7);
        let buf = encode(&q);
        assert_eq!(buf[mode_at(&q)], 1, "a skewed activation should travel Huffman-coded");
        assert_eq!(buf.len() as u64, encoded_len(&q));
        assert!(buf.len() < mode_at(&q) + 1 + q.numel() * 7 / 8, "{} bytes", buf.len());
        assert_eq!(try_decode(&buf), Ok((q, buf.len())));
    }

    #[test]
    fn a_frame_the_code_cannot_shorten_travels_raw() {
        // A tiny tensor cannot pay for the 128-byte length table.
        let q = relu_activation(100, 8);
        let buf = encode(&q);
        assert_eq!(buf[mode_at(&q)], 0);
        assert_eq!(&buf[mode_at(&q) + 1..], q.as_slice().iter().map(|&e| e as u8).collect::<Vec<_>>());
    }

    /// A coded frame with its parts at hand, for the hostile cases below.
    fn coded_frame() -> (QTensor, Vec<u8>, usize) {
        let q = relu_activation(3072, 9);
        let buf = encode(&q);
        assert_eq!(buf[mode_at(&q)], 1);
        let mode = mode_at(&q);
        (q, buf, mode)
    }

    #[test]
    fn hostile_coded_bodies_are_rejected_not_panicked_on() {
        let (q, good, mode) = coded_frame();
        let table = mode + 1..mode + 129;
        let patched = |at: usize, byte: u8| {
            let mut b = good.clone();
            b[at] = byte;
            b
        };
        let mut all_eights = good.clone();
        all_eights[table.clone()].fill(0x88); // 256 codes of 8 bits: complete
        let mut over = all_eights.clone();
        over[table.start] = 0x87; // one 7-bit code too many
        let mut under = all_eights.clone();
        under[table.start] = 0x89; // one code short of complete
        let mut empty = good.clone();
        empty[table.clone()].fill(0);
        // The last byte's low bits are padding: the codes' lengths, read
        // off the table, leave some.
        let lens: Vec<usize> =
            good[table.clone()].iter().flat_map(|&b| [b & 0xF, b >> 4]).map(usize::from).collect();
        let zp = q.params().zero_point(0) as i8;
        let bits: usize = q.as_slice().iter().map(|&e| lens[e.wrapping_sub(zp) as u8 as usize]).sum();
        assert_ne!(bits % 8, 0, "this frame's stream fills its last byte; pick another seed");
        let mut padded = good.clone();
        *padded.last_mut().unwrap() |= 1;
        let cases: [(&str, Vec<u8>, WireError); 7] = [
            ("unknown mode byte", patched(mode, 2), WireError::UnknownTag(2)),
            ("over-subscribed length table", over, WireError::BadCode),
            ("incomplete length table", under, WireError::BadCode),
            ("no code at all", empty, WireError::BadCode),
            ("table cut short", good[..table.end - 1].to_vec(), WireError::Truncated),
            ("stream cut short", good[..good.len() - 1].to_vec(), WireError::Truncated),
            ("non-zero padding bits", padded, WireError::BadCode),
        ];
        for (name, bytes, expected) in cases {
            assert_eq!(try_decode(&bytes).err(), Some(expected), "{name}");
        }
    }

    #[test]
    fn a_symbol_count_other_than_numel_never_decodes_whole() {
        // Each code is 1 to 15 bits, so 8 symbols more than the stream
        // holds run past its end, and 8 fewer leave code bits where the
        // padding should be zero, or a whole byte unread (which a payload,
        // exactly one frame, rejects).
        let (q, good, mode) = coded_frame();
        assert_eq!(q.dims(), &[1, 3072]);
        let with_numel = |numel: u32| {
            let mut b = good.clone();
            let at = mode - 4;
            b[at..mode].copy_from_slice(&numel.to_le_bytes());
            try_decode(&b)
        };
        assert_eq!(with_numel(3072 + 8).err(), Some(WireError::Truncated));
        match with_numel(3072 - 8) {
            Err(e) => assert_eq!(e, WireError::BadCode),
            Ok((_, used)) => assert!(used < good.len(), "8 symbols fewer decoded the whole frame"),
        }
    }

    #[test]
    fn indexed_frame_is_smaller_than_self_describing_frame() {
        // The whole point of the out-of-band grid: a per-channel frame
        // drops 5 + 8n header bytes relative to the self-describing wire.
        let t = Tensor::from_vec(vec![0.01, -0.02, 10.0, -8.0], &[2, 2]).unwrap();
        let q = QTensor::quantize_per_channel(&t, QuantParams::symmetric_per_channel(&[0.02, 10.0]));
        assert_eq!(indexed_encoded_len(&q) + 5 + 8 * 2, encoded_len(&q));
    }
}
