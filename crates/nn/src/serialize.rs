//! Model state capture and a versioned binary wire format — the
//! deployment path of Algorithm 1, step 4: *"Download the main block and
//! ClassDict to the edge."*
//!
//! A [`StateDict`] snapshots a model's learnable parameters and its
//! non-learnable buffers (batch-norm running statistics) in the
//! deterministic `visit_params`/`visit_buffers` order, and restores them
//! into an identically shaped model. The binary codec lets the snapshot
//! travel over the same kind of channel as inference payloads, so the
//! cloud→edge model download can be exercised end to end.

use crate::layer::Layer;
use crate::models::SegmentedCnn;
use bytes::{BufMut, Bytes, BytesMut};
use mea_tensor::{Reader, Tensor, WireError};
use std::error::Error;
use std::fmt;

/// File-format magic: `MEAW` ("MEANet weights").
const MAGIC: [u8; 4] = *b"MEAW";
/// Current format version.
const VERSION: u32 = 1;

/// Failure modes of state-dict application and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateDictError {
    /// The byte stream does not start with the `MEAW` magic.
    BadMagic,
    /// The byte stream uses an unknown format version.
    UnsupportedVersion(u32),
    /// The byte stream ended before the declared content.
    Truncated,
    /// The model has a different number of parameter tensors than the dict.
    ParamCountMismatch {
        /// Tensors in the dict.
        expected: usize,
        /// Tensors the model visited.
        got: usize,
    },
    /// The model has a different number of buffers than the dict.
    BufferCountMismatch {
        /// Buffers in the dict.
        expected: usize,
        /// Buffers the model visited.
        got: usize,
    },
    /// A tensor's shape disagrees with the model's parameter.
    ShapeMismatch {
        /// Index in visitation order.
        index: usize,
        /// Shape stored in the dict.
        expected: Vec<usize>,
        /// Shape the model expects.
        got: Vec<usize>,
    },
}

impl fmt::Display for StateDictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateDictError::BadMagic => write!(f, "not a MEAW state dict (bad magic)"),
            StateDictError::UnsupportedVersion(v) => write!(f, "unsupported state-dict version {v}"),
            StateDictError::Truncated => write!(f, "state dict ends before its declared content"),
            StateDictError::ParamCountMismatch { expected, got } => {
                write!(f, "state dict holds {expected} parameter tensors, model visits {got}")
            }
            StateDictError::BufferCountMismatch { expected, got } => {
                write!(f, "state dict holds {expected} buffers, model visits {got}")
            }
            StateDictError::ShapeMismatch { index, expected, got } => {
                write!(f, "parameter {index}: state dict shape {expected:?} vs model shape {got:?}")
            }
        }
    }
}

impl Error for StateDictError {}

impl From<WireError> for StateDictError {
    fn from(_: WireError) -> Self {
        StateDictError::Truncated
    }
}

/// The layers of `net` in state-dict order: segments, then head.
fn cnn_layers(net: &mut SegmentedCnn) -> Vec<&mut dyn Layer> {
    let segments = net.segments.iter_mut().map(|s| s as &mut dyn Layer);
    segments.chain([&mut net.head as &mut dyn Layer]).collect()
}

/// A positional snapshot of a model's parameters and buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDict {
    params: Vec<Tensor>,
    buffers: Vec<Vec<f32>>,
}

impl StateDict {
    /// Captures the state of any [`Layer`] (typically a
    /// [`crate::Sequential`]).
    pub fn from_layer(layer: &mut dyn Layer) -> StateDict {
        Self::capture(&mut [layer])
    }

    /// Captures the state of a full [`SegmentedCnn`] (segments, then head).
    pub fn from_cnn(net: &mut SegmentedCnn) -> StateDict {
        Self::capture(&mut cnn_layers(net))
    }

    fn capture(layers: &mut [&mut dyn Layer]) -> StateDict {
        let (mut params, mut buffers) = (Vec::new(), Vec::new());
        for layer in layers {
            layer.visit_params(&mut |p| params.push(p.value.clone()));
            layer.visit_buffers(&mut |b| buffers.push(b.clone()));
        }
        StateDict { params, buffers }
    }

    /// Restores this state into a [`Layer`] of identical architecture.
    ///
    /// # Errors
    ///
    /// Returns a [`StateDictError`] if tensor counts or shapes disagree;
    /// the model is left partially updated only if shapes matched up to the
    /// failure point (counts are verified first, shapes before any write).
    pub fn apply_to_layer(&self, layer: &mut dyn Layer) -> Result<(), StateDictError> {
        self.apply(&mut [layer])
    }

    /// Restores this state into a [`SegmentedCnn`] of identical
    /// architecture.
    ///
    /// # Errors
    ///
    /// Same contract as [`StateDict::apply_to_layer`].
    pub fn apply_to_cnn(&self, net: &mut SegmentedCnn) -> Result<(), StateDictError> {
        self.apply(&mut cnn_layers(net))
    }

    fn apply(&self, layers: &mut [&mut dyn Layer]) -> Result<(), StateDictError> {
        // Dry-run: count and shape-check before mutating anything.
        let (mut shapes, mut buf_count) = (Vec::new(), 0usize);
        for layer in layers.iter_mut() {
            layer.visit_params(&mut |p| shapes.push(p.value.dims().to_vec()));
            layer.visit_buffers(&mut |_| buf_count += 1);
        }
        self.check_shapes(&shapes)?;
        if buf_count != self.buffers.len() {
            return Err(StateDictError::BufferCountMismatch { expected: self.buffers.len(), got: buf_count });
        }
        let (mut params, mut buffers) = (self.params.iter(), self.buffers.iter());
        for layer in layers {
            layer.visit_params(&mut |p| p.value.clone_from(params.next().expect("counts checked above")));
            layer.visit_buffers(&mut |b| b.clone_from(buffers.next().expect("counts checked above")));
        }
        Ok(())
    }

    fn check_shapes(&self, model_shapes: &[Vec<usize>]) -> Result<(), StateDictError> {
        if model_shapes.len() != self.params.len() {
            return Err(StateDictError::ParamCountMismatch {
                expected: self.params.len(),
                got: model_shapes.len(),
            });
        }
        for (index, (t, s)) in self.params.iter().zip(model_shapes).enumerate() {
            if t.dims() != s.as_slice() {
                return Err(StateDictError::ShapeMismatch { index, expected: t.dims().to_vec(), got: s.clone() });
            }
        }
        Ok(())
    }

    /// Number of parameter tensors.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Total scalar parameters across all tensors.
    pub fn total_scalars(&self) -> usize {
        self.params.iter().map(Tensor::numel).sum::<usize>() + self.buffers.iter().map(Vec::len).sum::<usize>()
    }

    /// Serializes to the versioned `MEAW` binary format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.total_scalars() * 4);
        buf.put_slice(&MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(self.params.len() as u32);
        buf.put_u32_le(self.buffers.len() as u32);
        for t in &self.params {
            buf.put_u32_le(t.dims().len() as u32);
            for &d in t.dims() {
                buf.put_u32_le(d as u32);
            }
            for &v in t.as_slice() {
                buf.put_f32_le(v);
            }
        }
        for b in &self.buffers {
            buf.put_u32_le(b.len() as u32);
            for &v in b {
                buf.put_f32_le(v);
            }
        }
        buf.freeze()
    }

    /// Parses the `MEAW` binary format.
    ///
    /// # Errors
    ///
    /// Returns [`StateDictError::BadMagic`], `UnsupportedVersion`, or
    /// `Truncated` for any count or shape the bytes cannot back.
    pub fn decode(buf: Bytes) -> Result<StateDict, StateDictError> {
        let mut r = Reader::new(&buf);
        if r.take(4)? != MAGIC {
            return Err(StateDictError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(StateDictError::UnsupportedVersion(version));
        }
        let (n_params, n_buffers) = (r.u32()? as usize, r.u32()? as usize);
        // Every tensor holds at least a rank, one dim and one value; every
        // buffer at least its length.
        let mut params = Vec::with_capacity(r.count(n_params, 12)?);
        for _ in 0..n_params {
            let rank = r.u32()? as usize;
            let (dims, numel) = r.dims(rank)?;
            params.push(Tensor::from_vec(r.f32s(numel)?.collect(), &dims).map_err(|_| StateDictError::Truncated)?);
        }
        let mut buffers = Vec::with_capacity(r.count(n_buffers, 4)?);
        for _ in 0..n_buffers {
            let len = r.u32()? as usize;
            buffers.push(r.f32s(len)?.collect());
        }
        Ok(StateDict { params, buffers })
    }

    /// Wire size of the encoded snapshot in bytes.
    pub fn wire_size_bytes(&self) -> u64 {
        self.encode().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::layers::{Activation, BatchNorm2d, Conv2d, GlobalAvgPool, Linear};
    use crate::models::{resnet_cifar, CifarResNetConfig};
    use crate::Sequential;
    use mea_tensor::Rng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Activation::relu()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(4, 2, &mut rng)),
        ])
    }

    #[test]
    fn round_trip_restores_exact_outputs() {
        let mut rng = Rng::new(0);
        let mut src = small_net(1);
        // Drift the BN running stats away from their defaults.
        let x = Tensor::randn([8, 3, 6, 6], 1.0, &mut rng);
        let _ = src.forward(&x, Mode::Train);
        let dict = StateDict::from_layer(&mut src);
        let decoded = StateDict::decode(dict.encode()).unwrap();
        assert_eq!(decoded, dict);

        let mut dst = small_net(99); // different init
        decoded.apply_to_layer(&mut dst).unwrap();
        let probe = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let a = src.forward(&probe, Mode::Eval);
        let b = dst.forward(&probe, Mode::Eval);
        assert_eq!(a, b, "restored model must be bit-identical in eval mode");
    }

    #[test]
    fn buffers_carry_running_stats() {
        let mut src = small_net(2);
        let mut rng = Rng::new(3);
        let x = Tensor::randn([8, 3, 6, 6], 2.0, &mut rng);
        let _ = src.forward(&x, Mode::Train);
        let dict = StateDict::from_layer(&mut src);
        // A fresh net has default stats; after apply they must match src's.
        let mut dst = small_net(2);
        dict.apply_to_layer(&mut dst).unwrap();
        let mut src_bufs = Vec::new();
        src.visit_buffers(&mut |b| src_bufs.push(b.clone()));
        assert_eq!(src_bufs.len(), 2, "BN contributes running mean and var");
        let mut dst_bufs = Vec::new();
        dst.visit_buffers(&mut |b| dst_bufs.push(b.clone()));
        assert_eq!(src_bufs, dst_bufs);
    }

    #[test]
    fn segmented_cnn_round_trip() {
        let mut rng = Rng::new(4);
        let mut cfg = CifarResNetConfig::repro_scale(4);
        cfg.input_hw = 8;
        let mut src = resnet_cifar(&cfg, &mut rng);
        let x = Tensor::randn([4, 3, 8, 8], 1.0, &mut rng);
        let _ = src.forward(&x, Mode::Train);
        src.clear_caches();
        let dict = StateDict::from_cnn(&mut src);
        let mut dst = resnet_cifar(&cfg, &mut Rng::new(77));
        dict.apply_to_cnn(&mut dst).unwrap();
        let probe = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        assert_eq!(src.forward(&probe, Mode::Eval), dst.forward(&probe, Mode::Eval));
    }

    #[test]
    fn shape_mismatch_is_detected_before_mutation() {
        let mut src = small_net(5);
        let dict = StateDict::from_layer(&mut src);
        let mut rng = Rng::new(6);
        let mut other = Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng)) as Box<dyn Layer>,
            Box::new(BatchNorm2d::new(8)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        let mut before = Vec::new();
        other.visit_params(&mut |p| before.push(p.value.clone()));
        let err = dict.apply_to_layer(&mut other).unwrap_err();
        assert!(matches!(err, StateDictError::ShapeMismatch { .. }), "got {err:?}");
        let mut after = Vec::new();
        other.visit_params(&mut |p| after.push(p.value.clone()));
        assert_eq!(before, after, "failed apply must not mutate the target");
    }

    #[test]
    fn corrupted_streams_are_rejected() {
        let mut src = small_net(7);
        let dict = StateDict::from_layer(&mut src);
        let good = dict.encode();

        let mut bad_magic = good.to_vec();
        bad_magic[0] = b'X';
        assert_eq!(StateDict::decode(Bytes::from(bad_magic)).unwrap_err(), StateDictError::BadMagic);

        let mut bad_version = good.to_vec();
        bad_version[4] = 0xFF;
        assert!(matches!(
            StateDict::decode(Bytes::from(bad_version)).unwrap_err(),
            StateDictError::UnsupportedVersion(_)
        ));

        let truncated = good.slice(..good.len() - 5);
        assert_eq!(StateDict::decode(truncated).unwrap_err(), StateDictError::Truncated);

        assert_eq!(StateDict::decode(Bytes::from_static(b"ME")).unwrap_err(), StateDictError::Truncated);

        // A valid header promising more tensors than any stream could
        // back: the count must fail before a `Vec` is sized from it (the
        // allocation would abort the process, not panic).
        let header =
            |n_params: u32| [&MAGIC[..], &VERSION.to_le_bytes(), &n_params.to_le_bytes(), &[0; 4]].concat();
        assert_eq!(StateDict::decode(Bytes::from(header(u32::MAX))).unwrap_err(), StateDictError::Truncated);

        // One tensor of rank 4 whose dims multiply to 2^64: no shape. An
        // unchecked product panics in debug and wraps to 0 in release.
        let mut overflow = header(1);
        overflow.extend(4u32.to_le_bytes());
        overflow.extend([65536u32; 4].iter().flat_map(|d| d.to_le_bytes()));
        assert_eq!(StateDict::decode(Bytes::from(overflow)).unwrap_err(), StateDictError::Truncated);
    }

    #[test]
    fn wire_size_tracks_parameter_count() {
        let mut src = small_net(8);
        let dict = StateDict::from_layer(&mut src);
        // 4 bytes per scalar plus bounded header overhead.
        let scalars = dict.total_scalars() as u64;
        let size = dict.wire_size_bytes();
        assert!(size >= scalars * 4);
        assert!(size <= scalars * 4 + 256);
    }

    #[test]
    fn param_count_mismatch_reported() {
        let mut src = small_net(9);
        let dict = StateDict::from_layer(&mut src);
        let mut rng = Rng::new(10);
        let mut tiny = Sequential::new(vec![Box::new(Linear::new(4, 2, &mut rng)) as Box<dyn Layer>]);
        let err = dict.apply_to_layer(&mut tiny).unwrap_err();
        assert!(matches!(err, StateDictError::ParamCountMismatch { .. }));
    }
}
