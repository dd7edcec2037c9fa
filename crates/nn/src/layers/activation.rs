//! Pointwise activations: ReLU and ReLU6 (MobileNetV2).
//!
//! Backward needs one fact per element of the training input: whether the
//! activation passed its gradient (`v > 0` for ReLU, `0 < v < 6` for
//! ReLU6; NaN passes neither). A training forward keeps that as a packed
//! pass mask, one bit per element, built in the same pass as the clamp —
//! a thirty-second of the float copy of the input it replaces. Both
//! directions go through a 64-element block of byte flags on the stack, so
//! the compare and the select are loops over plain slices, and one
//! multiply packs or spreads eight flags. A loop that set or tested one
//! bit at a time took about three times as long.

use crate::layer::{Layer, Mode, Param};
use mea_tensor::Tensor;

/// Elements per mask word.
const WORD: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Relu,
    Relu6,
}

/// A pointwise activation layer.
#[derive(Debug)]
pub struct Activation {
    kind: Kind,
    /// The pass mask of the last training forward: bit `i % 64` of word
    /// `i / 64` is set where element `i` passes its gradient.
    cache: Option<Vec<u64>>,
}

impl Activation {
    /// Standard rectified linear unit.
    pub fn relu() -> Self {
        Activation { kind: Kind::Relu, cache: None }
    }

    /// ReLU clamped at 6, as used throughout MobileNetV2.
    pub fn relu6() -> Self {
        Activation { kind: Kind::Relu6, cache: None }
    }

    /// The upper clamp of this activation: `None` for plain ReLU,
    /// `Some(6.0)` for ReLU6. (Both clamp below at zero.)
    pub fn clamp_max(&self) -> Option<f32> {
        match self.kind {
            Kind::Relu => None,
            Kind::Relu6 => Some(6.0),
        }
    }
}

impl Layer for Activation {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.clone(), mode)
    }

    fn forward_owned(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        let (xs, train) = (x.as_mut_slice(), mode.is_train());
        self.cache = match self.kind {
            Kind::Relu => activate(xs, train, |v| v.max(0.0), |v| v > 0.0),
            Kind::Relu6 => activate(xs, train, |v| v.clamp(0.0, 6.0), |v| v > 0.0 && v < 6.0),
        };
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.cache.as_ref().expect("Activation::backward without training forward");
        assert_eq!(grad_out.numel().div_ceil(WORD), mask.len(), "batch size changed between forward and backward");
        let mut grad = grad_out.clone();
        for (block, &word) in grad.as_mut_slice().chunks_mut(WORD).zip(mask) {
            for (g, &pass) in block.iter_mut().zip(&unpack(word)) {
                *g = if pass != 0 { *g } else { 0.0 };
            }
        }
        grad
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (0, in_shape.to_vec())
    }

    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Relu => "ReLU",
            Kind::Relu6 => "ReLU6",
        }
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Applies `f` to `xs` in place and, for training, returns the pass mask:
/// `pass` of each element as it was before.
fn activate(xs: &mut [f32], train: bool, f: impl Fn(f32) -> f32, pass: impl Fn(f32) -> bool) -> Option<Vec<u64>> {
    if !train {
        xs.iter_mut().for_each(|v| *v = f(*v));
        return None;
    }
    let mut mask = Vec::with_capacity(xs.len().div_ceil(WORD));
    for block in xs.chunks_mut(WORD) {
        let mut flags = [0u8; WORD];
        for (flag, v) in flags.iter_mut().zip(block.iter_mut()) {
            *flag = u8::from(pass(*v));
            *v = f(*v);
        }
        mask.push(pack(&flags));
    }
    Some(mask)
}

/// Packs 64 flags of 0 or 1 into a word, flag `j` into bit `j`. The
/// multiply moves flag `j` of each group of eight to bit `56 + j`, and no
/// other product reaches those bits.
fn pack(flags: &[u8; WORD]) -> u64 {
    flags.chunks_exact(8).enumerate().fold(0, |word, (k, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().expect("a group of eight flags"));
        word | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
    })
}

/// Spreads a word into 64 flags, bit `j` into flag `j`: zero where the bit
/// is clear, nonzero where it is set. The multiply copies each byte of the
/// word to all eight lanes, the mask keeps bit `j` in lane `j`, and adding
/// `0x7f` carries a set bit into bit 7 of its lane without leaving it.
fn unpack(word: u64) -> [u8; WORD] {
    let mut flags = [0u8; WORD];
    for (k, eight) in flags.chunks_exact_mut(8).enumerate() {
        let lanes = ((word >> (8 * k)) & 0xff).wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
        eight.copy_from_slice(&((lanes + 0x7f7f_7f7f_7f7f_7f7f) & 0x8080_8080_8080_8080).to_le_bytes());
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut act = Activation::relu();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0, 3.0], &[2, 2]).unwrap();
        let y = act.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = act.backward(&Tensor::ones([2, 2]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu6_clamps_and_gates_gradient() {
        let mut act = Activation::relu6();
        let x = Tensor::from_vec(vec![-1.0, 3.0, 7.0, 6.0], &[2, 2]).unwrap();
        let y = act.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 3.0, 6.0, 6.0]);
        let g = act.backward(&Tensor::ones([2, 2]));
        // Gradient flows only strictly inside (0, 6).
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    /// The forward and backward a float copy of the input gave, before
    /// the pass mask replaced it.
    fn float_cache_rule(kind: Kind, x: &[f32], g: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let forward = |v: f32| match kind {
            Kind::Relu => v.max(0.0),
            Kind::Relu6 => v.clamp(0.0, 6.0),
        };
        let backward = |g: f32, v: f32| match kind {
            Kind::Relu => {
                if v > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            Kind::Relu6 => {
                if v > 0.0 && v < 6.0 {
                    g
                } else {
                    0.0
                }
            }
        };
        (x.iter().map(|&v| forward(v)).collect(), g.iter().zip(x).map(|(&g, &v)| backward(g, v)).collect())
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn mask_backward_matches_the_float_cache_rule_bit_for_bit() {
        let subnormal = f32::MIN_POSITIVE / 4.0;
        let specials = [
            0.0,
            -0.0,
            6.0,
            -6.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            subnormal,
            -subnormal,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            6.0f32.next_down(),
            6.0f32.next_up(),
            3.0,
            -1.5,
        ];
        let mut rng = mea_tensor::Rng::new(7);
        for len in [1usize, 5, 63, 64, 65, 127, 128, 200, 1000] {
            let noise = Tensor::randn([2 * len], 4.0, &mut rng);
            let x: Vec<f32> = (0..len)
                .map(|i| if i % 3 == 0 { specials[i / 3 % specials.len()] } else { noise.as_slice()[i] })
                .collect();
            // Gradients with signed zeros and a NaN, which a select must pass through untouched.
            let mut g = noise.as_slice()[len..].to_vec();
            g[0] = -0.0;
            g[len / 2] = f32::NAN;
            for (kind, mut act) in [(Kind::Relu, Activation::relu()), (Kind::Relu6, Activation::relu6())] {
                let (want_y, want_g) = float_cache_rule(kind, &x, &g);
                let y = act.forward(&Tensor::from_vec(x.clone(), &[len]).unwrap(), Mode::Train);
                assert_eq!(bits(y.as_slice()), bits(&want_y), "{kind:?} forward, length {len}");
                let grad = Tensor::from_vec(g.clone(), &[len]).unwrap();
                for pass in 0..2 {
                    let back = act.backward(&grad);
                    assert_eq!(bits(back.as_slice()), bits(&want_g), "{kind:?} backward {pass}, length {len}");
                }
            }
        }
    }

    #[test]
    fn unpack_inverts_pack() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let flags = unpack(state);
            assert!(flags.iter().enumerate().all(|(j, &f)| (f != 0) == (state >> j & 1 == 1)));
            assert_eq!(pack(&flags.map(|f| u8::from(f != 0))), state);
        }
    }
}
