//! The int8 tensor produced and consumed by quantized layers.

use crate::qparams::{QScheme, QuantParams};
use mea_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A dense row-major int8 tensor together with the parameters that map it
/// back onto real values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTensor {
    data: Vec<i8>,
    dims: Vec<usize>,
    params: QuantParams,
}

impl QTensor {
    /// Quantizes a float tensor with **per-tensor** parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` is per-channel (use [`QTensor::quantize_per_channel`]).
    pub fn quantize(t: &Tensor, params: QuantParams) -> Self {
        assert!(
            params.scheme() != QScheme::SymmetricPerChannel,
            "per-channel quantization requires quantize_per_channel"
        );
        let mut data = Vec::with_capacity(t.numel());
        params.quantize_into(t.as_slice(), 0, &mut data);
        QTensor { data, dims: t.dims().to_vec(), params }
    }

    /// Quantizes a float tensor whose **leading axis** is the channel axis
    /// (weight matrices `[out_c, ...]`), one scale per channel.
    ///
    /// # Panics
    ///
    /// Panics if the parameter channel count differs from `dims[0]`.
    pub fn quantize_per_channel(t: &Tensor, params: QuantParams) -> Self {
        let out_c = t.dims()[0];
        assert_eq!(params.channels(), out_c, "params cover {} channels, tensor has {out_c}", params.channels());
        let row = t.numel() / out_c;
        let mut data = Vec::with_capacity(t.numel());
        for (c, chunk) in t.as_slice().chunks(row).enumerate() {
            params.quantize_into(chunk, c, &mut data);
        }
        QTensor { data, dims: t.dims().to_vec(), params }
    }

    /// Builds a quantized tensor from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the dims product.
    pub fn from_parts(data: Vec<i8>, dims: Vec<usize>, params: QuantParams) -> Self {
        assert_eq!(data.len(), dims.iter().product::<usize>(), "data/dims mismatch");
        QTensor { data, dims, params }
    }

    /// Dequantizes back to f32.
    pub fn dequantize(&self) -> Tensor {
        let mut values = Vec::with_capacity(self.data.len());
        self.dequantize_into(&mut values);
        Tensor::from_vec(values, &self.dims).expect("dims consistent by construction")
    }

    /// Appends the dequantized f32 values to `out` (same element order and
    /// bit-identical values as [`QTensor::dequantize`]). Lets callers
    /// assemble batches in a reused scratch arena instead of allocating a
    /// tensor per payload.
    pub fn dequantize_into(&self, out: &mut Vec<f32>) {
        out.reserve(self.data.len());
        match self.params.scheme() {
            QScheme::SymmetricPerChannel => {
                let out_c = self.dims[0];
                let row = self.data.len() / out_c;
                for (c, chunk) in self.data.chunks(row).enumerate() {
                    self.params.dequantize_into(chunk, c, out);
                }
            }
            _ => self.params.dequantize_into(&self.data, 0, out),
        }
    }

    /// The raw int8 data.
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The quantization parameters.
    pub fn params(&self) -> &QuantParams {
        &self.params
    }

    /// Returns the same data viewed under new dims (flatten/reshape).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, dims: Vec<usize>) -> Self {
        assert_eq!(self.data.len(), dims.iter().product::<usize>(), "reshape changes element count");
        self.dims = dims;
        self
    }

    /// Wire size of the tensor payload in bytes (1 byte per element) —
    /// the communication advantage of offloading quantized features.
    pub fn wire_size_bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_tensor::Rng;

    #[test]
    fn round_trip_error_bounded() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &v in t.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(lo, hi));
        let back = q.dequantize();
        let half_scale = q.params().scale(0) / 2.0 + 1e-6;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= half_scale, "{a} vs {b}");
        }
    }

    #[test]
    fn per_channel_round_trip_uses_channel_scales() {
        // Channel 0 small values, channel 1 large: per-channel keeps both
        // accurate while per-tensor would crush channel 0.
        let t = Tensor::from_vec(vec![0.01, -0.02, 10.0, -8.0], &[2, 2]).unwrap();
        let params = QuantParams::symmetric_per_channel(&[0.02, 10.0]);
        let q = QTensor::quantize_per_channel(&t, params);
        let back = q.dequantize();
        assert!((back.as_slice()[0] - 0.01).abs() < 0.001);
        assert!((back.as_slice()[2] - 10.0).abs() < 0.1);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(0.0, 4.0));
        let r = q.clone().reshaped(vec![2, 2]);
        assert_eq!(r.as_slice(), q.as_slice());
        assert_eq!(r.dims(), &[2, 2]);
    }

    #[test]
    fn wire_size_is_one_byte_per_element() {
        let t = Tensor::zeros([3, 5]);
        let q = QTensor::quantize(&t, QuantParams::affine_from_range(0.0, 1.0));
        assert_eq!(q.wire_size_bytes(), 15);
    }
}
