//! Criterion micro-benchmarks: per-image inference latency and per-step
//! training latency of the repro edge/cloud models, and the core
//! matmul/conv kernels — the measured side of Table VII.

use criterion::{BatchSize, Criterion};
use mea_bench::regression::Reporter;
use mea_nn::layer::Mode;
use mea_nn::models::{resnet_cifar, CifarResNetConfig};
use mea_tensor::conv::{depthwise_into, ConvGeom, UnfoldPlan};
use mea_tensor::{matmul, Rng, Tensor};
use std::time::Instant;

/// Batch 8 is the sweep regime; batch 1 is the serving regime, where
/// per-call overhead (a spawn, a system call, an allocation per layer) is
/// not amortised over images and shows at full size; a training step is a
/// `Mode::Train` forward plus `backward` at the batch size the end-to-end
/// benchmark's recipe trains that network with.
fn bench_network(c: &mut Criterion, name: &str, cfg: &CifarResNetConfig, train_batch: usize, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut net = resnet_cifar(cfg, &mut rng);
    let x = Tensor::randn([8, 3, 16, 16], 1.0, &mut rng);
    c.bench_function(&format!("{name}_resnet_forward_batch8"), |b| b.iter(|| net.forward(&x, Mode::Eval)));
    let x1 = x.slice_axis0(0, 1);
    c.bench_function(&format!("{name}_resnet_forward_batch1"), |b| b.iter(|| net.forward(&x1, Mode::Eval)));
    let xt = Tensor::randn([train_batch, 3, 16, 16], 1.0, &mut rng);
    let grad = Tensor::randn([train_batch, cfg.num_classes], 1.0, &mut rng);
    c.bench_function(&format!("{name}_resnet_train_step_batch{train_batch}"), |b| {
        b.iter(|| {
            net.visit_params(&mut |p| p.zero_grad());
            let logits = net.forward(&xt, Mode::Train);
            net.backward(&grad);
            logits
        })
    });
}

fn cloud_config() -> CifarResNetConfig {
    let mut cfg = CifarResNetConfig::repro_scale(100);
    cfg.blocks_per_stage = 3;
    cfg.channels = [12, 24, 48];
    cfg
}

fn bench_edge(c: &mut Criterion) {
    bench_network(c, "edge", &CifarResNetConfig::repro_scale(100), 10, 0);
}

fn bench_cloud(c: &mut Criterion) {
    bench_network(c, "cloud", &cloud_config(), 6, 1);
}

/// The twelve distinct 3×3 convolutions of the two networks above, as
/// `(geometry, input height = width, output channels)`.
fn conv_shapes() -> Vec<(ConvGeom, usize, usize)> {
    let mut shapes = Vec::new();
    for [c1, c2, c3] in [CifarResNetConfig::repro_scale(100).channels, cloud_config().channels] {
        for (in_c, out_c, hw, stride) in
            [(3, c1, 16, 1), (c1, c1, 16, 1), (c1, c2, 16, 2), (c2, c2, 8, 1), (c2, c3, 8, 2), (c3, c3, 4, 1)]
        {
            shapes.push((ConvGeom::square(in_c, 3, stride, 1), hw, out_c));
        }
    }
    shapes
}

/// One of [`conv_shapes`] as `Conv2d::forward` runs it per image: its
/// unfold plan, built once as the layer builds it, and buffers kept across
/// calls as the layer keeps them across images.
struct ForwardConv {
    geom: ConvGeom,
    hw: usize,
    plan: UnfoldPlan,
    weight: Tensor,
    image: Tensor,
    cols: Tensor,
    out: Tensor,
}

impl ForwardConv {
    fn all(rng: &mut Rng) -> Vec<ForwardConv> {
        conv_shapes()
            .into_iter()
            .map(|(geom, hw, out_c)| {
                let (oh, ow) = geom.out_hw(hw, hw);
                let (patch, ncols) = (geom.patch_len(), oh * ow);
                ForwardConv {
                    geom,
                    hw,
                    plan: UnfoldPlan::new(&geom, hw, hw),
                    weight: Tensor::randn([out_c, patch], 1.0, rng),
                    image: Tensor::randn([geom.in_channels, hw, hw], 1.0, rng),
                    cols: Tensor::zeros([patch, ncols]),
                    out: Tensor::zeros([out_c, ncols]),
                }
            })
            .collect()
    }

    fn unfold(&mut self) {
        self.plan.unfold(self.image.as_slice(), 0.0, self.cols.as_mut_slice());
    }

    /// The zeroed `W·cols`.
    fn multiply(&mut self) {
        let (oc, patch, ncols) = (self.weight.dims()[0], self.cols.dims()[0], self.cols.dims()[1]);
        self.out.fill(0.0);
        matmul::gemm_into(self.weight.as_slice(), self.cols.as_slice(), self.out.as_mut_slice(), oc, patch, ncols);
    }
}

/// What `Conv2d::forward` runs per image — the plan's unfold and a zeroed
/// `W·cols` — once over each of [`conv_shapes`].
fn bench_conv_forward_kernels(c: &mut Criterion) {
    let mut convs = ForwardConv::all(&mut Rng::new(6));
    c.bench_function("conv_forward_kernels", |b| {
        b.iter(|| {
            for conv in &mut convs {
                conv.unfold();
                conv.multiply();
            }
        })
    });
}

/// The forward of each of [`conv_shapes`] split into its unfold and its
/// product, one line per shape and one for their sums, so the unfold's
/// share of a dense convolution shows. Each time is the median of five
/// batches of 200 calls, per call.
fn print_conv_forward_split() {
    fn per_call_us(mut f: impl FnMut()) -> f64 {
        let mut batches: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..200 {
                    f();
                }
                start.elapsed().as_secs_f64() * 1e6 / 200.0
            })
            .collect();
        batches.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        batches[2]
    }
    let (mut unfold_total, mut gemm_total) = (0.0, 0.0);
    for mut conv in ForwardConv::all(&mut Rng::new(6)) {
        let unfold = per_call_us(|| conv.unfold());
        let gemm = per_call_us(|| conv.multiply());
        let (g, out_c) = (conv.geom, conv.weight.dims()[0]);
        println!(
            "[kernel_latency] conv {:>2}→{out_c:<2} {hw:>2}×{hw:<2} stride {}: unfold {unfold:6.2} µs, GEMM {gemm:6.2} µs",
            g.in_channels,
            g.stride,
            hw = conv.hw
        );
        unfold_total += unfold;
        gemm_total += gemm;
    }
    println!(
        "[kernel_latency] conv forward, {} shapes: unfold {unfold_total:.1} µs, GEMM {gemm_total:.1} µs, unfold/GEMM {:.2}",
        conv_shapes().len(),
        unfold_total / gemm_total
    );
}

/// What `Conv2d::backward` runs for a batch of one image after its unfold —
/// `dWᵀ = cols·dYᵀ` into a zeroed accumulator, a zeroed `Wᵀ·dY` folded
/// through the plan, then `dWᵀ` added to `dW` transposed — once over each of
/// [`conv_shapes`], into buffers and a plan kept across calls.
fn bench_conv_backward_kernels(c: &mut Criterion) {
    struct Conv {
        plan: UnfoldPlan,
        weight: Tensor,
        grad_out: Tensor,
        cols: Tensor,
        dw: Vec<f32>,
        dw_t: Vec<f32>,
        grad_cols: Tensor,
        grad_in: Vec<f32>,
    }
    let mut rng = Rng::new(5);
    let mut convs: Vec<Conv> = conv_shapes()
        .into_iter()
        .map(|(geom, hw, out_c)| {
            let (oh, ow) = geom.out_hw(hw, hw);
            let (patch, ncols) = (geom.patch_len(), oh * ow);
            Conv {
                plan: UnfoldPlan::new(&geom, hw, hw),
                weight: Tensor::randn([out_c, patch], 1.0, &mut rng),
                grad_out: Tensor::randn([out_c, ncols], 1.0, &mut rng),
                cols: Tensor::randn([patch, ncols], 1.0, &mut rng),
                dw: vec![0.0; out_c * patch],
                dw_t: vec![0.0; patch * out_c],
                grad_cols: Tensor::zeros([patch, ncols]),
                grad_in: vec![0.0; geom.in_channels * hw * hw],
            }
        })
        .collect();
    c.bench_function("conv_backward_kernels", |b| {
        b.iter(|| {
            for conv in &mut convs {
                let (oc, patch, ncols) = (conv.weight.dims()[0], conv.cols.dims()[0], conv.cols.dims()[1]);
                let g = conv.grad_out.as_slice();
                conv.dw_t.fill(0.0);
                matmul::gemm_a_bt_into(conv.cols.as_slice(), g, &mut conv.dw_t, patch, ncols, oc);
                conv.grad_cols.fill(0.0);
                matmul::gemm_at_b_into(conv.weight.as_slice(), g, conv.grad_cols.as_mut_slice(), patch, oc, ncols);
                conv.plan.fold(conv.grad_cols.as_slice(), &mut conv.grad_in);
                for (o, dw_row) in conv.dw.chunks_exact_mut(patch).enumerate() {
                    for (d, dw_t_row) in dw_row.iter_mut().zip(conv.dw_t.chunks_exact(oc)) {
                        *d += dw_t_row[o];
                    }
                }
            }
        })
    });
}

/// What `DepthwiseConv2d::forward` runs — `depthwise_into` at batch 1, as
/// a request that exits at the extension runs it — once over each of the
/// extension's five 3×3 depthwise convolutions, `(channels, input height =
/// width, stride)`, into buffers kept across calls.
fn bench_depthwise_forward_kernels(c: &mut Criterion) {
    struct Depthwise {
        geom: ConvGeom,
        hw: usize,
        weight: Tensor,
        image: Tensor,
        out: Vec<f32>,
    }
    let mut rng = Rng::new(7);
    let mut convs: Vec<Depthwise> = [(3, 16, 1), (8, 16, 1), (8, 16, 2), (16, 8, 2), (32, 4, 1)]
        .into_iter()
        .map(|(channels, hw, stride)| {
            let geom = ConvGeom::square(channels, 3, stride, 1);
            let (oh, ow) = geom.out_hw(hw, hw);
            Depthwise {
                geom,
                hw,
                weight: Tensor::randn([channels, 9], 1.0, &mut rng),
                image: Tensor::randn([channels, hw, hw], 1.0, &mut rng),
                out: vec![0.0; channels * oh * ow],
            }
        })
        .collect();
    c.bench_function("depthwise_forward_kernels", |b| {
        b.iter(|| {
            for dw in &mut convs {
                depthwise_into(dw.image.as_slice(), dw.hw, dw.hw, &dw.geom, dw.weight.as_slice(), &mut dw.out);
            }
        })
    });
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
//
// Pinned to one CPU before the first forward, only so that timings repeat:
// across the two vCPUs of the reference host the same kernel spreads by 1.5×
// between runs minutes apart, which no 20 % gate survives.
//
// Every row depends on the host and on the register tile the process picked
// for its CPU (`matmul::kernel`), so both are printed first.
fn main() {
    let tile = matmul::kernel();
    println!("[kernel_latency] {}, {tile} tile", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("kernel_latency");
    let mut repeats: Vec<Vec<(String, f64)>> = Vec::new();
    for _ in 0..3 {
        let mut c = Criterion::default().sample_size(10);
        bench_edge(&mut c);
        bench_cloud(&mut c);
        bench_conv_forward_kernels(&mut c);
        bench_conv_backward_kernels(&mut c);
        bench_depthwise_forward_kernels(&mut c);
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
    print_conv_forward_split();
    rep.finish();
}
