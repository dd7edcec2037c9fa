//! Property-based tests for layer invariants: shape algebra, parameter
//! accounting, and train/eval consistency.

use mea_nn::layer::{zero_grads, Mode};
use mea_nn::layers::{Activation, BatchNorm2d, Conv2d, Linear};
use mea_nn::{CrossEntropyLoss, Layer, Sequential, Sgd};
use mea_tensor::{Rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conv2d output shape follows the standard formula for any geometry.
    #[test]
    fn conv_shape_formula(
        in_c in 1usize..4,
        out_c in 1usize..6,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        hw in 4usize..10,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let mut rng = Rng::new(seed);
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, false, &mut rng);
        let x = Tensor::randn([2, in_c, hw, hw], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Eval);
        let expect = (hw + 2 * pad - k) / stride + 1;
        prop_assert_eq!(y.dims(), &[2, out_c, expect, expect]);
        // macs() agrees with the realised output shape.
        let (_, out_shape) = conv.macs(&[in_c, hw, hw]);
        prop_assert_eq!(out_shape, vec![out_c, expect, expect]);
    }

    /// param_count always equals the total seen via visit_params.
    #[test]
    fn param_count_matches_visitation(
        c1 in 1usize..5,
        c2 in 1usize..5,
        classes in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::new(seed);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(3, c1, 3, 1, 1, true, &mut rng)),
            Box::new(BatchNorm2d::new(c1)),
            Box::new(Activation::relu()),
            Box::new(Conv2d::new(c1, c2, 3, 2, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(c2)),
            Box::new(mea_nn::layers::GlobalAvgPool::new()),
            Box::new(Linear::new(c2, classes, &mut rng)),
        ]);
        let mut visited = 0;
        net.visit_params(&mut |p| visited += p.numel());
        prop_assert_eq!(net.param_count(), visited);
    }

    /// Gradients accumulate additively: two backward passes double them.
    #[test]
    fn gradients_accumulate(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        let g = Tensor::randn([4, 2], 1.0, &mut rng);
        zero_grads(&mut lin);
        let _ = lin.forward(&x, Mode::Train);
        let _ = lin.backward(&g);
        let mut once = Vec::new();
        lin.visit_params(&mut |p| once.push(p.grad.clone()));
        let _ = lin.forward(&x, Mode::Train);
        let _ = lin.backward(&g);
        let mut twice = Vec::new();
        lin.visit_params(&mut |p| twice.push(p.grad.clone()));
        for (a, b) in once.iter().zip(twice.iter()) {
            for (x1, x2) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert!((x2 - 2.0 * x1).abs() < 1e-4 * (1.0 + x1.abs()));
            }
        }
    }

    /// Eval-mode forwards are pure: same input, same output, twice.
    #[test]
    fn eval_forward_is_pure(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(2, 3, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(3)),
            Box::new(Activation::relu()),
        ]);
        let x = Tensor::randn([2, 2, 5, 5], 1.0, &mut rng);
        let y1 = net.forward(&x, Mode::Eval);
        let y2 = net.forward(&x, Mode::Eval);
        prop_assert_eq!(y1, y2);
    }
}

/// End-to-end training sanity: a small conv net learns a linearly separable
/// two-class problem far beyond chance.
#[test]
fn tiny_cnn_learns_separable_classes() {
    let mut rng = Rng::new(7);
    let mut net = Sequential::new(vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 1, false, &mut rng)),
        Box::new(BatchNorm2d::new(4)),
        Box::new(Activation::relu()),
        Box::new(mea_nn::layers::GlobalAvgPool::new()),
        Box::new(Linear::new(4, 2, &mut rng)),
    ]);
    // Class 0: bright top half; class 1: bright bottom half.
    let n = 32;
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let label = i % 2;
        let mut img = vec![0.0f32; 36];
        for y in 0..6 {
            for x in 0..6 {
                let bright = if label == 0 { y < 3 } else { y >= 3 };
                img[y * 6 + x] = if bright { 1.0 } else { -1.0 } + 0.3 * rng.normal();
            }
        }
        data.extend(img);
        labels.push(label);
    }
    let x = Tensor::from_vec(data, &[n, 1, 6, 6]).unwrap();
    let loss_fn = CrossEntropyLoss::new();
    let mut opt = Sgd::new(0.2, 0.9, 1e-4);
    for _ in 0..60 {
        zero_grads(&mut net);
        let y = net.forward(&x, Mode::Train);
        let out = loss_fn.forward(&y, &labels);
        let _ = net.backward(&out.grad);
        opt.step(&mut net);
    }
    let y = net.forward(&x, Mode::Eval);
    let preds = y.argmax_rows();
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    assert!(correct as f64 / n as f64 > 0.9, "accuracy {correct}/{n}");
}

/// `forward_owned` is `forward` for a caller that is done with its input:
/// the same output and, after a training forward, the same input gradient,
/// bit for bit — for the layers that work in place, the containers that
/// hand activations on by value, and a whole segmented network.
#[test]
fn forward_owned_matches_forward_bit_for_bit() {
    use mea_nn::blocks::{separable_stack, BasicBlock, InvertedResidual};
    use mea_nn::layers::{Dropout, Flatten, GlobalAvgPool};

    let build = |rng: &mut Rng| -> Vec<Box<dyn Layer>> {
        vec![
            Box::new(BatchNorm2d::new(4)),
            Box::new(Activation::relu()),
            Box::new(Activation::relu6()),
            Box::new(Dropout::new(0.3, 5)),
            Box::new(Flatten::new()),
            Box::new(Conv2d::new(4, 4, 3, 1, 1, true, rng)),
            Box::new(BasicBlock::new(4, 4, 1, rng)),
            Box::new(BasicBlock::new(4, 8, 2, rng)),
            Box::new(InvertedResidual::new(4, 4, 1, 2, rng)),
            Box::new(separable_stack(4, 6, 2, rng)),
            Box::new(Sequential::empty()),
            Box::new(Sequential::new(vec![
                Box::new(Conv2d::new(4, 3, 1, 1, 0, false, rng)),
                Box::new(BatchNorm2d::new(3)),
                Box::new(Activation::relu()),
                Box::new(GlobalAvgPool::new()),
                Box::new(Flatten::new()),
                Box::new(Dropout::new(0.5, 9)),
                Box::new(Linear::new(3, 2, rng)),
            ])),
        ]
    };
    let bits = |t: &Tensor| (t.dims().to_vec(), t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>());

    // Twin copies: dropout draws from its own stream and batch norm moves
    // its running statistics, so each path gets an identically built layer.
    let borrowed = build(&mut Rng::new(21));
    let owned = build(&mut Rng::new(21));
    let x = Tensor::randn([3, 4, 6, 6], 2.0, &mut Rng::new(22));
    for (mut a, mut b) in borrowed.into_iter().zip(owned) {
        for mode in [Mode::Eval, Mode::Train, Mode::Eval] {
            let ya = a.forward(&x, mode);
            let yb = b.forward_owned(x.clone(), mode);
            assert_eq!(bits(&ya), bits(&yb), "{} forward, {mode:?}", a.name());
            if mode.is_train() {
                let g = Tensor::randn(ya.shape().clone(), 1.0, &mut Rng::new(23));
                assert_eq!(bits(&a.backward(&g)), bits(&b.backward(&g)), "{} backward", a.name());
            }
        }
    }
}
