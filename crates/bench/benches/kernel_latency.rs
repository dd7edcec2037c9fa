//! Criterion micro-benchmarks: per-image inference latency of the repro
//! edge/cloud models and the core matmul/conv kernels — the measured side
//! of Table VII.

use criterion::{BatchSize, Criterion};
use mea_bench::regression::Reporter;
use mea_nn::layer::Mode;
use mea_nn::models::{resnet_cifar, CifarResNetConfig};
use mea_tensor::{matmul, Rng, Tensor};

/// Batch 8 is the training/sweep regime; batch 1 is the serving regime,
/// where per-call overhead (a spawn, a system call, an allocation per
/// layer) is not amortised over images and shows at full size.
fn bench_forward(c: &mut Criterion, name: &str, cfg: &CifarResNetConfig, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut net = resnet_cifar(cfg, &mut rng);
    let x = Tensor::randn([8, 3, 16, 16], 1.0, &mut rng);
    c.bench_function(&format!("{name}_resnet_forward_batch8"), |b| b.iter(|| net.forward(&x, Mode::Eval)));
    let x1 = x.slice_axis0(0, 1);
    c.bench_function(&format!("{name}_resnet_forward_batch1"), |b| b.iter(|| net.forward(&x1, Mode::Eval)));
}

fn bench_edge_inference(c: &mut Criterion) {
    bench_forward(c, "edge", &CifarResNetConfig::repro_scale(100), 0);
}

fn bench_cloud_inference(c: &mut Criterion) {
    let mut cfg = CifarResNetConfig::repro_scale(100);
    cfg.blocks_per_stage = 3;
    cfg.channels = [12, 24, 48];
    bench_forward(c, "cloud", &cfg, 1);
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let a = Tensor::randn([128, 128], 1.0, &mut rng);
    let b2 = Tensor::randn([128, 128], 1.0, &mut rng);
    c.bench_function("matmul_128", |b| {
        b.iter_batched(|| (a.clone(), b2.clone()), |(a, b2)| matmul::matmul(&a, &b2), BatchSize::SmallInput)
    });
}

fn bench_int8_inference(c: &mut Criterion) {
    // Float vs int8 forward of the same trained-geometry edge model — the
    // latency side of the hybrid-deployment story.
    let mut rng = Rng::new(3);
    let mut net = resnet_cifar(&CifarResNetConfig::repro_scale(100), &mut rng);
    let calib = vec![Tensor::randn([8, 3, 16, 16], 1.0, &mut rng)];
    let qnet = mea_quant::quantize_segmented(&mut net, &calib).expect("supported graph");
    let x = Tensor::randn([8, 3, 16, 16], 1.0, &mut rng);
    c.bench_function("edge_resnet_int8_forward_batch8", |b| b.iter(|| qnet.forward(&x)));
}

fn bench_qgemm(c: &mut Criterion) {
    let mut rng = Rng::new(4);
    let a: Vec<i8> = (0..128 * 128).map(|_| rng.uniform_range(-128.0, 127.0) as i8).collect();
    let b2: Vec<i8> = (0..128 * 128).map(|_| rng.uniform_range(-128.0, 127.0) as i8).collect();
    c.bench_function("qgemm_i8_128", |b| b.iter(|| mea_quant::kernels::qgemm_i32(&a, &b2, 128, 128, 128)));
}

// Explicit main instead of `criterion_main!`: the per-kernel mean times
// feed the CI regression gate as `_ms` metrics.
//
// The gate sees the per-kernel **median of three** full in-process
// repeats: a single repeat's mean is at the mercy of transient background
// load (a concurrent compile once pushed one kernel over the 20%
// threshold), while a median tolerates one bad repeat without loosening
// the gate itself.
fn main() {
    let mut rep = Reporter::start("kernel_latency");
    let mut repeats: Vec<Vec<(String, f64)>> = Vec::new();
    for _ in 0..3 {
        let mut c = Criterion::default().sample_size(10);
        bench_edge_inference(&mut c);
        bench_cloud_inference(&mut c);
        bench_matmul(&mut c);
        bench_int8_inference(&mut c);
        bench_qgemm(&mut c);
        repeats.push(c.mean_times_ms().to_vec());
    }
    for (k, (id, _)) in repeats[0].iter().enumerate() {
        let mut samples: Vec<f64> = repeats
            .iter()
            .map(|r| {
                assert_eq!(r[k].0, *id, "repeats must run the same kernels in the same order");
                r[k].1
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        rep.metric(&format!("{id}_ms"), samples[1]);
    }
    rep.finish();
}
