//! What a batch costs the cloud: one batch-8 forward against eight batch-1
//! forwards of the end-to-end benchmark's cloud network (`e2e/src/system.rs`:
//! a two-blocks-per-stage CIFAR ResNet on 16 × 16 images), for the full
//! network and for the suffix from the split cut, plus `gemm_into`'s cost
//! per multiply-accumulate by column count.
//!
//! ```sh
//! cargo run --release -p mea-bench --example batch_cost
//! ```
//!
//! Pinned to one CPU, the batched and single forms are timed in turns, and
//! each row reports the fastest of its runs, so the two sides share the
//! host's speed phases. Weights are untrained: eval-mode cost does not
//! depend on their values.

use mea_nn::Mode;
use mea_tensor::{matmul::gemm_into, Rng, Tensor};
use meanet::pipeline::{BackboneChoice, PipelineConfig};
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 8;
const CUT: usize = 5;
const ROUNDS: usize = 300;

fn micros(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

fn main() {
    println!("[batch_cost] {}", mea_bench::pin::pin_for_timing());
    let mut recipe = PipelineConfig::repro_resnet_b(6, 4, 7);
    if let Some(BackboneChoice::CifarResNet(cloud)) = &mut recipe.cloud {
        cloud.blocks_per_stage = 2;
    }
    let mut rng = Rng::new(7);
    let mut cloud = recipe.cloud.as_ref().expect("the recipe configures a cloud").build(&mut rng);
    let batch = Tensor::randn([BATCH, 3, 16, 16], 1.0, &mut rng);
    let singles: Vec<Tensor> = (0..BATCH).map(|i| batch.slice_axis0(i, i + 1)).collect();
    let act = cloud.forward_prefix(&batch, CUT, Mode::Eval);
    let act_singles: Vec<Tensor> = (0..BATCH).map(|i| act.slice_axis0(i, i + 1)).collect();

    // [full batched, full singles, suffix batched, suffix singles]
    let mut best = [f64::MAX; 4];
    for _ in 0..ROUNDS {
        let times = [
            micros(|| drop(black_box(cloud.forward(&batch, Mode::Eval)))),
            micros(|| singles.iter().for_each(|x| drop(black_box(cloud.forward(x, Mode::Eval))))),
            micros(|| drop(black_box(cloud.forward_from(&act, CUT, Mode::Eval)))),
            micros(|| act_singles.iter().for_each(|x| drop(black_box(cloud.forward_from(x, CUT, Mode::Eval))))),
        ];
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(t);
        }
    }
    println!("fastest of {ROUNDS} interleaved runs, µs:");
    println!("| forward            | batch of {BATCH} | {BATCH} × batch 1 | batched / singles |");
    println!("|--------------------|------------|-------------|-------------------|");
    for (name, pair) in [("full network", &best[..2]), (&*format!("suffix from cut {CUT}"), &best[2..])] {
        println!("| {name:<18} | {:>10.0} | {:>11.0} | {:>17.2} |", pair[0], pair[1], pair[0] / pair[1]);
    }

    // One 3 × 3 convolution's GEMM at the last stage's width: the column
    // count is the image's output positions, times the batch when a batch
    // is unfolded side by side.
    let (m, k) = (64, 64 * 9);
    let a = Tensor::randn([m, k], 1.0, &mut rng);
    println!("gemm_into [{m} × {k}] · [{k} × n], ns per multiply-accumulate:");
    for n in [16, 32, 64, 128] {
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let mut c = vec![0.0; m * n];
        let fastest = (0..ROUNDS)
            .map(|_| micros(|| gemm_into(a.as_slice(), b.as_slice(), black_box(&mut c), m, k, n)))
            .fold(f64::MAX, f64::min);
        println!("  n = {n:>3}: {:.3}", fastest * 1e3 / (m * k * n) as f64);
    }
}
