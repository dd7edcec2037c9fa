//! Offload payloads: what actually crosses the edge→cloud link.
//!
//! The paper compares sending **raw images** (pixels, 1 byte per channel
//! sample — how it sizes CIFAR at 32·32·3 bytes) against sending
//! **intermediate features** (f32 maps, which for small images are *larger*
//! than the raw data — the paper's argument for sending raw CIFAR images).
//!
//! A compact binary codec (length-prefixed shape + little-endian payload)
//! over [`bytes`] makes the transfer concrete for the threaded simulator.

use bytes::{BufMut, Bytes};
use mea_quant::{wire, QTensor, QuantParams};
use mea_tensor::reader::put_dims;
use mea_tensor::{Reader, Tensor, WireError};

/// Calibrated per-channel int8 activation grids, one per partition cut.
///
/// The self-describing `mea_quant::wire` frame pays 8 bytes per channel of
/// scale/zero-point header, which makes a naive per-channel activation
/// frame *larger* than its per-tensor cousin. The grids fix that: edge and
/// cloud agree on the quantization parameters for every cut **once, at
/// serve setup** (calibrated from a sample activation), and the frames on
/// the wire carry only a cut index — the parameter table never travels
/// with the data. A grid-indexed frame (payload tag 3) therefore has a
/// header 16 bytes shorter than the per-tensor int8 frame (tag 2) at the
/// same cut, while keeping per-channel scale resolution at deep cuts.
///
/// Entries are indexed by cut layer; `None` marks cuts that were never
/// calibrated (offloads at those cuts must use a self-describing wire).
/// The default table is empty: no cut is calibrated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActivationGrids {
    per_cut: Vec<Option<QuantParams>>,
}

impl ActivationGrids {
    /// Builds a grid table from per-cut channel absolute maxima, producing
    /// symmetric per-channel parameters ([`QuantParams::symmetric_per_channel`]).
    pub(crate) fn from_absmax(per_cut: Vec<Option<Vec<f32>>>) -> Self {
        let per_cut = per_cut.into_iter().map(|a| a.map(|m| QuantParams::symmetric_per_channel(&m))).collect();
        ActivationGrids { per_cut }
    }

    /// The calibrated parameters at `cut`, if any.
    pub(crate) fn params(&self, cut: usize) -> Option<&QuantParams> {
        self.per_cut.get(cut).and_then(|p| p.as_ref())
    }
}

/// Per-channel absolute maxima of a single-instance activation `[1, C, ...]`
/// — the calibration statistic `ActivationGrids::from_absmax` consumes.
///
/// # Panics
///
/// Panics if the tensor is not single-instance with a channel axis.
pub fn channel_absmax(features: &Tensor) -> Vec<f32> {
    let dims = features.dims();
    assert!(dims.len() >= 2 && dims[0] == 1, "calibration activations are single-instance [1, C, ...]");
    let ch = dims[1];
    let row = features.numel() / ch;
    features.as_slice().chunks(row).map(|c| c.iter().fold(0.0f32, |m, &x| m.max(x.abs()))).collect()
}

/// A payload travelling from the edge to the cloud.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A raw image, quantised to 1 byte per sample (as captured by the
    /// sensor; this is how the paper sizes communication).
    RawImage {
        /// Image tensor `[C, H, W]` (or a batch `[N, C, H, W]`).
        image: Tensor,
    },
    /// Intermediate feature maps in `f32`.
    Features {
        /// Feature tensor.
        features: Tensor,
    },
    /// Intermediate feature maps quantised to int8 through the `mea-quant`
    /// wire codec: at most 1 byte per element plus a parameter header, so a
    /// deep cut undercuts even the raw-image upload — the answer to the
    /// paper's "f32 features are bigger than small images" objection.
    QuantFeatures {
        /// Quantised feature tensor.
        features: QTensor,
    },
}

impl Payload {
    /// Quantises an f32 feature tensor onto the int8 wire grid (affine
    /// per-tensor parameters from the tensor's own range).
    pub fn quantize_features(features: &Tensor) -> Payload {
        let params = QuantParams::affine_from_range(features.min(), features.max());
        Payload::QuantFeatures { features: QTensor::quantize(features, params) }
    }

    /// Size on the wire in bytes: 1 byte/sample for raw images, 4 for f32
    /// features, plus the shape header; quantised features carry the
    /// `mea_quant::wire` frame (≤ 1 byte/element plus parameter header).
    pub fn wire_size_bytes(&self) -> u64 {
        match self {
            Payload::RawImage { image } => 2 + 4 * image.shape().rank() as u64 + image.numel() as u64,
            Payload::Features { features } => 2 + 4 * features.shape().rank() as u64 + 4 * features.numel() as u64,
            Payload::QuantFeatures { features } => 1 + wire::encoded_len(features),
        }
    }

    /// Encodes into a byte buffer (tag, rank, dims, data). Allocates the
    /// exact wire size once and hands it over without a copy.
    pub fn encode(&self) -> Bytes {
        match self {
            Payload::RawImage { image } => Self::encode_raw_image(image),
            Payload::Features { features } => Self::encode_features(features),
            Payload::QuantFeatures { features } => Self::encode_quant(features),
        }
    }

    /// Encodes a raw-image payload straight from a borrowed tensor — same
    /// bytes as `Payload::RawImage { .. }.encode()` without constructing
    /// (and cloning into) the enum first.
    pub fn encode_raw_image(image: &Tensor) -> Bytes {
        let mut buf = Vec::with_capacity(2 + 4 * image.shape().rank() + image.numel());
        buf.put_u8(0);
        put_dims(&mut buf, image.dims());
        // Quantise [-2, 2] → u8, mirroring a sensor's 8-bit output.
        buf.extend(image.as_slice().iter().map(|&v| ((v + 2.0) / 4.0 * 255.0).clamp(0.0, 255.0) as u8));
        Bytes::from(buf)
    }

    /// Encodes an f32 feature payload straight from a borrowed tensor.
    pub fn encode_features(features: &Tensor) -> Bytes {
        let mut buf = Vec::with_capacity(2 + 4 * features.shape().rank() + 4 * features.numel());
        buf.put_u8(1);
        put_dims(&mut buf, features.dims());
        for &v in features.as_slice() {
            buf.put_f32_le(v);
        }
        Bytes::from(buf)
    }

    /// Encodes an int8 feature payload straight from a borrowed tensor:
    /// the `mea_quant::wire` frame is written directly into the output
    /// buffer (no intermediate frame allocation).
    pub(crate) fn encode_quant(features: &QTensor) -> Bytes {
        let raw_len = 8 + 8 * features.params().channels() + 4 * features.dims().len() + features.numel();
        let mut buf = Vec::with_capacity(raw_len);
        buf.put_u8(2);
        wire::encode_into(features, &mut buf);
        Bytes::from(buf)
    }

    /// Quantises and encodes in one step: the same bytes as
    /// `Payload::quantize_features(t).encode()` without keeping the
    /// intermediate [`QTensor`] around past the call.
    pub fn encode_quantized_features(features: &Tensor) -> Bytes {
        let params = QuantParams::affine_from_range(features.min(), features.max());
        Self::encode_quant(&QTensor::quantize(features, params))
    }

    /// Quantises a single-instance activation `[1, C, ...]` onto the
    /// calibrated per-channel grid for `cut` and encodes a **grid-indexed
    /// frame** (payload tag 3): tag, cut index, and the params-less
    /// `mea_quant::wire` indexed frame. The channel axis on the wire is
    /// the leading axis of the squeezed `[C, ...]` shape; the decode side
    /// ([`Payload::decode_into_with_grids`]) reinstates the batch axis.
    ///
    /// # Panics
    ///
    /// Panics if no grid is calibrated at `cut`, the activation is not
    /// single-instance, or its channel count differs from the grid's.
    pub(crate) fn encode_grid_features(features: &Tensor, cut: usize, grids: &ActivationGrids) -> Bytes {
        let params = grids.params(cut).unwrap_or_else(|| panic!("no activation grid calibrated for cut {cut}"));
        let dims = features.dims();
        assert!(dims.len() >= 2 && dims[0] == 1, "grid-indexed frames ship single-instance activations");
        assert!(cut <= u8::MAX as usize, "cut index {cut} exceeds the one-byte frame field");
        let ch = dims[1];
        assert_eq!(params.channels(), ch, "grid covers {} channels, activation has {ch}", params.channels());
        // [1, C, ...] is laid out exactly as [C, ...]: quantize per leading
        // chunk and frame the squeezed shape, whose leading axis is the
        // channel axis the per-channel QTensor machinery expects.
        let row = features.numel() / ch;
        let mut data = Vec::with_capacity(features.numel());
        for (c, chunk) in features.as_slice().chunks(row).enumerate() {
            params.quantize_into(chunk, c, &mut data);
        }
        let q = QTensor::from_parts(data, dims[1..].to_vec(), params.clone());
        let mut buf = Vec::with_capacity(4 + 4 * q.dims().len() + q.numel());
        buf.put_u8(3);
        buf.put_u8(cut as u8);
        wire::encode_indexed_into(&q, &mut buf);
        Bytes::from(buf)
    }

    /// Decodes a payload produced by [`Payload::encode`]; a grid-indexed
    /// frame (tag 3) decodes only through `Payload::decode_into_with_grids`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed or overlong buffer, and on tag 3.
    pub fn decode(buf: Bytes) -> Result<Payload, WireError> {
        if let Some((&2, frame)) = buf.split_first() {
            let (features, used) = wire::try_decode(frame)?;
            return whole(&buf, 1 + used).map(|()| Payload::QuantFeatures { features });
        }
        let raw = buf.first() == Some(&0);
        let mut data = Vec::new();
        let dims = Self::decode_into_with_grids(buf, &ActivationGrids::default(), &mut data)?;
        let t = Tensor::from_vec(data, &dims).map_err(|_| WireError::BadShape)?;
        Ok(if raw { Payload::RawImage { image: t } } else { Payload::Features { features: t } })
    }

    /// `Payload::decode_into_with_grids` with no grid table, panicking
    /// on a malformed buffer. Kept only because the benchmark crate calls
    /// it by this name.
    pub fn decode_into(buf: Bytes, out: &mut Vec<f32>) -> Vec<usize> {
        Self::decode_into_with_grids(buf, &ActivationGrids::default(), out).expect("malformed payload frame")
    }

    /// Decodes the payload's f32 tensor data straight into `out`
    /// (appending; bit-identical values to
    /// `Payload::decode(buf)?.into_tensor()`), returning the tensor dims.
    /// This is the cloud worker's batch-assembly path: consecutive
    /// payloads decode into one reused scratch arena, so stacking a batch
    /// needs no per-frame tensor allocation and no concat pass. A
    /// grid-indexed frame (tag 3) decodes against the `grids` entry
    /// (possibly none) for its cut, and its dims regain the batch axis.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed or overlong buffer or a cut
    /// with no calibrated grid; `out` may then hold a partial append.
    pub(crate) fn decode_into_with_grids(
        buf: Bytes,
        grids: &ActivationGrids,
        out: &mut Vec<f32>,
    ) -> Result<Vec<usize>, WireError> {
        let mut r = Reader::new(&buf);
        let tag = r.u8()?;
        let ((q, used), batch_axis) = match tag {
            0 | 1 => {
                let rank = r.u8()? as usize;
                let (dims, numel) = r.dims(rank)?;
                if tag == 0 {
                    out.extend(r.take(numel)?.iter().map(|&b| (b as f32 / 255.0) * 4.0 - 2.0));
                } else {
                    out.extend(r.f32s(numel)?);
                }
                return whole(&buf, r.position()).map(|()| dims);
            }
            2 => (wire::try_decode(r.rest())?, None),
            3 => {
                let cut = r.u8()? as usize;
                let params = grids.params(cut).ok_or(WireError::NoGrid(cut))?;
                (wire::decode_indexed(r.rest(), params.clone())?, Some(1))
            }
            t => return Err(WireError::UnknownTag(t)),
        };
        whole(&buf, r.position() + used)?;
        q.dequantize_into(out);
        Ok(batch_axis.into_iter().chain(q.dims().iter().copied()).collect())
    }

    /// The f32 tensor the cloud computes on, consuming the payload —
    /// dequantises int8 features, hands f32 variants over without a copy
    /// (the serving runtime's cloud workers decode every offloaded
    /// payload on the hot path).
    pub fn into_tensor(self) -> Tensor {
        match self {
            Payload::RawImage { image } => image,
            Payload::Features { features } => features,
            Payload::QuantFeatures { features } => features.dequantize(),
        }
    }
}

/// A payload is exactly its frame: bytes past the `used` ones are an error.
fn whole(buf: &[u8], used: usize) -> Result<(), WireError> {
    if used == buf.len() {
        Ok(())
    } else {
        Err(WireError::FrameLength(buf.len()))
    }
}

/// Wire size of a raw image with the paper's 1-byte-per-sample accounting
/// and *no* header — the exact quantity in Table VII (`32·32·3` bytes for
/// CIFAR, `224·224·3` for ImageNet).
pub fn paper_raw_image_bytes(c: usize, h: usize, w: usize) -> u64 {
    (c * h * w) as u64
}

/// Wire size of an f32 feature map without header (`4` bytes per element).
pub fn paper_feature_bytes(elems: usize) -> u64 {
    4 * elems as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::Rng;

    #[test]
    fn encode_decode_features_round_trips() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let p = Payload::Features { features: t.clone() };
        let decoded = Payload::decode(p.encode()).unwrap();
        match decoded {
            Payload::Features { features } => assert_eq!(features, t),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn raw_image_round_trip_is_lossy_but_close() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn([3, 8, 8], 0.5, &mut rng);
        let p = Payload::RawImage { image: t.clone() };
        let d = Payload::decode(p.encode()).unwrap().into_tensor();
        assert_eq!(d.dims(), t.dims());
        for (a, b) in d.as_slice().iter().zip(t.as_slice()) {
            assert!((a - b).abs() < 4.0 / 255.0 + 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quantised_features_round_trip_exactly_and_dequantise_close() {
        let mut rng = Rng::new(5);
        let t = Tensor::randn([1, 4, 4, 4], 1.0, &mut rng);
        let p = Payload::quantize_features(&t);
        let decoded = Payload::decode(p.encode()).unwrap();
        assert_eq!(decoded, p, "int8 wire round trip must be bit-exact");
        let d = decoded.into_tensor();
        assert_eq!(d.dims(), t.dims());
        let half_scale = match &p {
            Payload::QuantFeatures { features } => features.params().scale(0) / 2.0 + 1e-6,
            _ => unreachable!(),
        };
        for (a, b) in d.as_slice().iter().zip(t.as_slice()) {
            assert!((a - b).abs() <= half_scale, "{a} vs {b}");
        }
    }

    #[test]
    fn quantised_features_undercut_raw_image_at_a_bottleneck() {
        // The whole point of the int8 feature wire: a deep activation with
        // fewer elements than the image beats the 1-byte-per-pixel upload.
        let image = Tensor::zeros([3, 8, 8]); // 192 pixels
        let deep = Tensor::rand_uniform([32, 2, 2], -1.0, 1.0, &mut Rng::new(6)); // 128 elements
        let raw = Payload::RawImage { image };
        let q = Payload::quantize_features(&deep);
        assert!(
            q.wire_size_bytes() < raw.wire_size_bytes(),
            "{} vs {}",
            q.wire_size_bytes(),
            raw.wire_size_bytes()
        );
        // While the f32 encoding of the same activation is far bigger.
        let f = Payload::Features { features: deep };
        assert!(f.wire_size_bytes() > 2 * raw.wire_size_bytes());
    }

    #[test]
    fn cifar_features_larger_than_raw_but_imagenet_opposite() {
        // The paper's observation: for CIFAR-sized images the features are
        // usually bigger than the raw image; for ImageNet the raw image can
        // be bigger.
        let cifar_raw = paper_raw_image_bytes(3, 32, 32); // 3072
        let cifar_feat = paper_feature_bytes(64 * 8 * 8); // f32 64ch 8x8 = 16384
        assert!(cifar_feat > cifar_raw);
        let inet_raw = paper_raw_image_bytes(3, 224, 224); // 150528
        let inet_feat = paper_feature_bytes(512 * 7 * 7); // 100352
        assert!(inet_raw > inet_feat);
    }

    #[test]
    fn wire_size_matches_encoding_length() {
        let t = Tensor::ones([3, 4, 4]);
        for p in [
            Payload::RawImage { image: t.clone() },
            Payload::Features { features: t.clone() },
            Payload::quantize_features(&t),
        ] {
            assert_eq!(p.encode().len() as u64, p.wire_size_bytes());
        }
    }

    #[test]
    fn decode_into_appends_exactly_the_decoded_tensor() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        let b = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        for payloads in [
            vec![Payload::Features { features: a.clone() }, Payload::Features { features: b.clone() }],
            vec![Payload::RawImage { image: a.clone() }, Payload::RawImage { image: b.clone() }],
            vec![Payload::quantize_features(&a), Payload::quantize_features(&b)],
        ] {
            // Arena path: both payloads decode into one buffer…
            let mut arena = Vec::new();
            let dims_a = Payload::decode_into(payloads[0].encode(), &mut arena);
            let dims_b = Payload::decode_into(payloads[1].encode(), &mut arena);
            assert_eq!(dims_a, dims_b);
            // …and the arena holds exactly the concatenation of the
            // per-payload decodes, bit for bit.
            let ta = Payload::decode(payloads[0].encode()).unwrap().into_tensor();
            let tb = Payload::decode(payloads[1].encode()).unwrap().into_tensor();
            let expect: Vec<f32> = ta.as_slice().iter().chain(tb.as_slice()).copied().collect();
            assert_eq!(arena, expect);
        }
    }

    #[test]
    fn grid_indexed_frame_round_trips_bit_exactly() {
        let mut rng = Rng::new(11);
        let t = Tensor::randn([1, 8, 3, 3], 1.0, &mut rng);
        let grids = ActivationGrids::from_absmax(vec![None, Some(channel_absmax(&t))]);
        let buf = Payload::encode_grid_features(&t, 1, &grids);
        let mut arena = Vec::new();
        let dims = Payload::decode_into_with_grids(buf.clone(), &grids, &mut arena).unwrap();
        assert_eq!(dims, vec![1, 8, 3, 3]);
        // The decode is exactly quantize → dequantize on the shared grid.
        let params = grids.params(1).unwrap();
        let expect: Vec<f32> = t
            .as_slice()
            .chunks(9)
            .enumerate()
            .flat_map(|(c, chunk)| {
                chunk.iter().map(move |&x| params.dequantize_value(params.quantize_value(x, c), c))
            })
            .collect();
        assert_eq!(arena, expect);
    }

    #[test]
    fn grid_indexed_frame_is_smaller_than_per_tensor_int8() {
        // The acceptance-criterion inequality, at frame granularity: the
        // grid-indexed per-channel frame beats the self-describing
        // per-tensor frame because the parameter block travels out of band.
        let mut rng = Rng::new(12);
        let t = Tensor::randn([1, 16, 2, 2], 1.0, &mut rng);
        let grids = ActivationGrids::from_absmax(vec![Some(channel_absmax(&t))]);
        let grid_frame = Payload::encode_grid_features(&t, 0, &grids);
        let per_tensor_frame = Payload::encode_quantized_features(&t);
        assert!(grid_frame.len() < per_tensor_frame.len(), "{} vs {}", grid_frame.len(), per_tensor_frame.len());
    }

    #[test]
    fn decode_into_with_grids_falls_through_on_other_tags() {
        let mut rng = Rng::new(13);
        let t = Tensor::randn([1, 4, 3, 3], 1.0, &mut rng);
        let grids = ActivationGrids::default();
        for buf in [Payload::encode_features(&t), Payload::encode_quantized_features(&t)] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let da = Payload::decode_into_with_grids(buf.clone(), &grids, &mut a).unwrap();
            let db = Payload::decode_into(buf, &mut b);
            assert_eq!(da, db);
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "no activation grid calibrated")]
    fn grid_encode_rejects_uncalibrated_cut() {
        let t = Tensor::ones([1, 4, 2, 2]);
        let grids = ActivationGrids::from_absmax(vec![None, None]);
        let _ = Payload::encode_grid_features(&t, 1, &grids);
    }

    #[test]
    fn borrowing_encoders_match_the_enum_encoders() {
        let mut rng = Rng::new(8);
        let t = Tensor::randn([4, 2, 2], 1.0, &mut rng);
        assert_eq!(Payload::encode_raw_image(&t), Payload::RawImage { image: t.clone() }.encode());
        assert_eq!(Payload::encode_features(&t), Payload::Features { features: t.clone() }.encode());
        let q = match Payload::quantize_features(&t) {
            Payload::QuantFeatures { features } => features,
            _ => unreachable!(),
        };
        assert_eq!(Payload::encode_quant(&q), Payload::QuantFeatures { features: q.clone() }.encode());
        assert_eq!(Payload::encode_quantized_features(&t), Payload::quantize_features(&t).encode());
    }
}
