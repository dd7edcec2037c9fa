//! The serving regime's allocator budget: after one warm-up call, an eval
//! forward of the repro-scale edge ResNet at batch 1 allocates a small,
//! fixed number of times — its activations, not its scratch.
//!
//! This test binary installs a counting `#[global_allocator]`. It counts
//! per thread, so the test harness's other threads do not show up, and a
//! batch of one never leaves the calling thread.

use mea_nn::layer::zero_grads;
use mea_nn::layers::{Conv2d, Linear};
use mea_nn::models::{resnet_cifar, CifarResNetConfig};
use mea_nn::{Layer, Mode};
use mea_tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`; the only added
// work is a bump of a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocator_calls(f: impl FnOnce()) -> u64 {
    let before = CALLS.get();
    f();
    CALLS.get() - before
}

/// Measured on this commit: 22 calls — data and shape of the eleven tensors
/// that nine convolutions, the pool and the classifier produce; every
/// pointwise layer and shortcut works in place. The parent commit made 183
/// for the same forward: a patch matrix, a product and a scope's `Vec`s per
/// convolution, and a clone per container, shortcut and pointwise layer. The
/// budget leaves room for a layer or two and is a sixth of the parent's.
const EVAL_FORWARD_BUDGET: u64 = 30;

#[test]
fn warm_batch1_eval_forward_stays_within_its_allocator_budget() {
    let mut net = resnet_cifar(&CifarResNetConfig::repro_scale(10), &mut Rng::new(1));
    let x = Tensor::randn([1, 3, 16, 16], 1.0, &mut Rng::new(2));
    let warm = net.forward(&x, Mode::Eval);
    let mut again = None;
    let calls = allocator_calls(|| again = Some(net.forward(&x, Mode::Eval)));
    assert_eq!(again.as_ref(), Some(&warm), "the reused scratch must not change the answer");
    assert!(calls <= EVAL_FORWARD_BUDGET, "{calls} allocator calls in one warm batch-1 eval forward");
    let steady = allocator_calls(|| drop(net.forward(&x, Mode::Eval)));
    assert_eq!(steady, calls, "the count is a property of the network, not of the call");
}

/// The exit head every request runs: a batch-1 `Linear::forward` is a
/// one-row `A·Bᵀ`, which must allocate its output tensor and nothing else —
/// the transposed copy that kernel makes of a many-row operand belongs to
/// training and must never show up on the serving path.
#[test]
fn batch1_linear_forward_allocates_only_its_output() {
    let mut rng = Rng::new(3);
    let mut head = Linear::new(32, 10, &mut rng);
    let output_only = allocator_calls(|| drop(Tensor::zeros([1, 10])));
    let x = Tensor::randn([1, 32], 1.0, &mut rng);
    let _warm = head.forward(&x, Mode::Eval);
    assert_eq!(allocator_calls(|| drop(head.forward(&x, Mode::Eval))), output_only);
    // The count can tell: a batch of two is packed, and that is seen.
    let x2 = Tensor::randn([2, 32], 1.0, &mut rng);
    assert!(allocator_calls(|| drop(head.forward(&x2, Mode::Eval))) > output_only);
}

/// A layer that has been serving (its patch buffer sized for eval and full
/// of the last image) is then trained: forward in `Mode::Train` plus
/// `backward` must still pass the numerical gradient check.
#[test]
fn training_after_serving_still_passes_the_gradient_check() {
    let mut rng = Rng::new(42);
    let mut conv = Conv2d::new(2, 3, 3, 2, 1, true, &mut rng);
    let x = Tensor::randn([3, 2, 6, 6], 1.0, &mut rng);
    let wsum = Tensor::randn([3, 3, 3, 3], 1.0, &mut rng);
    let loss = |conv: &mut Conv2d, x: &Tensor, mode: Mode| -> f64 {
        let y = conv.forward(x, mode);
        y.as_slice().iter().zip(wsum.as_slice()).map(|(&a, &b)| (a * b) as f64).sum()
    };

    let served = loss(&mut conv, &x, Mode::Eval);
    let _ = conv.forward(&Tensor::randn([1, 2, 9, 9], 1.0, &mut rng), Mode::Eval);
    zero_grads(&mut conv);
    assert_eq!(loss(&mut conv, &x, Mode::Train), served, "a convolution computes the same in both modes");
    let gx = conv.backward(&wsum);

    let eps = 1e-2f32;
    for idx in [0usize, 17, 71, 100, 215] {
        let (mut xp, mut xm) = (x.clone(), x.clone());
        xp.as_mut_slice()[idx] += eps;
        xm.as_mut_slice()[idx] -= eps;
        let num = (loss(&mut conv, &xp, Mode::Eval) - loss(&mut conv, &xm, Mode::Eval)) / (2.0 * eps as f64);
        let ana = gx.as_slice()[idx] as f64;
        assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "input grad {idx}: {num} vs {ana}");
    }

    let mut wgrad = Vec::new();
    conv.visit_params(&mut |p| wgrad.push(p.grad.clone()));
    for idx in [0usize, 5, 23, 53] {
        let nudge = |conv: &mut Conv2d, by: f32| {
            let mut first = true;
            conv.visit_params(&mut |p| {
                if std::mem::take(&mut first) {
                    p.value.as_mut_slice()[idx] += by;
                }
            });
        };
        nudge(&mut conv, eps);
        let lp = loss(&mut conv, &x, Mode::Eval);
        nudge(&mut conv, -2.0 * eps);
        let lm = loss(&mut conv, &x, Mode::Eval);
        nudge(&mut conv, eps);
        let num = (lp - lm) / (2.0 * eps as f64);
        let ana = wgrad[0].as_slice()[idx] as f64;
        assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "weight grad {idx}: {num} vs {ana}");
    }
}
