//! Per-layer numbers of a traced run, all taken from outside: timed calls
//! into each layer's public functions, and a serial replay of request
//! paths under spans. Nothing here runs during an end-to-end measurement
//! except the host reference loop.

use crate::measure::{exit_index, Measured};
use crate::report::Values;
use crate::spans::{self_time_by_name, Recorder, Span};
use crate::stats::{median, percentile};
use crate::system::System;
use crate::traffic::Traffic;
use crate::workload::{planner_cloud, planner_edge, wifi_link, Path, Workload, DEVICES, SPLIT_CUT};
use bytes::Bytes;
use mea_edgecloud::network::LinkEstimator;
use mea_edgecloud::partition::{profile_network, CutPlanner, Objective, PartitionEnv};
use mea_edgecloud::payload::Payload;
use mea_edgecloud::serve::{EdgeReplica, RESPONSE_WIRE_BYTES};
use mea_edgecloud::transport::{
    DownlinkReceiver, ModelledTransport, RecvOutcome, RequestFrame, ResponseFrame, Transport, UplinkReceiver,
};
use mea_edgecloud::{TransportKind, UdsTransport};
use mea_metrics::StreamingHistogram;
use mea_nn::layer::Mode;
use mea_nn::models::SegmentedCnn;
use mea_quant::{wire, QTensor, QuantParams};
use mea_tensor::matmul::matmul;
use mea_tensor::{Rng, Tensor};
use meanet::infer::ExitPoint;
use meanet::{OffloadPolicy, RoutingEngine};
use std::hint::black_box;
use std::time::Instant;

/// Requests replayed, each once untraced and once traced.
const REPLAY_REQUESTS: usize = 192;
/// Frames pushed through one lane for `transport.stream_mb_s`.
const STREAM_FRAMES: usize = 1500;

/// A fixed dependent `f32` loop in the benchmark's own code: it moves only
/// when the machine does, which tells a slow host from a slow program.
pub fn host_ref_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0.5f32);
    for i in 0..1_500_000u32 {
        x = x * 0.999_99 + (i & 7) as f32 * 1e-7;
    }
    black_box(x);
    1e3 * t0.elapsed().as_secs_f64()
}

/// Median over five batches of the mean time of `iters` calls, in µs.
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            1e6 * t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&batches)
}

/// The offload payload of one request as the workload's edge encodes it.
fn encode_payload(workload: &Workload, activation: &Tensor) -> Bytes {
    match workload.path {
        Path::SplitInt8Uds => Payload::encode_quantized_features(activation),
        Path::Image | Path::WifiClosedLoop => Payload::encode_features(activation),
    }
}

fn decode_payload(payload: Bytes, scratch: &mut Vec<f32>) -> Tensor {
    scratch.clear();
    let dims = Payload::decode_into(payload, scratch);
    Tensor::from_vec(std::mem::take(scratch), &dims).expect("decoded payload matches its header")
}

fn request_frame(req_id: u64, resume_layer: usize, payload: Bytes) -> RequestFrame {
    RequestFrame { req_id, device: 0, seq: req_id, resume_layer: resume_layer as u32, payload }
}

/// Replayed requests that took one exit and the time their paths took.
#[derive(Debug, Default, Clone, Copy)]
struct ExitPath {
    requests: u64,
    total_s: f64,
}

/// What a replay needs besides the request: the models, the routing
/// engine and one lane of the workload's transport.
struct ReplayRig<'a, T: Transport> {
    workload: &'a Workload,
    engine: RoutingEngine,
    cut: usize,
    edge: EdgeReplica,
    cloud: SegmentedCnn,
    transport: &'a T,
    uplink: T::Uplink,
    downlink: T::Downlink,
    scratch: Vec<f32>,
}

impl<T: Transport> ReplayRig<'_, T> {
    /// Serially replays one request's path through the layers' public
    /// functions, one span per call, and returns the exit it took. A
    /// disabled `rec` gives the untraced baseline.
    fn replay(&mut self, rec: &mut Recorder, req: u32, image: &Tensor) -> ExitPoint {
        let ReplayRig { workload, engine, cut, edge, cloud, transport, uplink, downlink, scratch } = self;
        let EdgeReplica { net, cloud_prefix } = edge;
        let cut = *cut;
        rec.span(req, "request", |rec| {
            let main = rec.span(req, "meanet.main_exit", |_| RoutingEngine::evaluate_main(net, image));
            let route = rec.span(req, "meanet.plan", |_| engine.plan(net, &main).routes[0]);
            match route {
                ExitPoint::Main => {}
                ExitPoint::Extension => {
                    rec.span(req, "meanet.extension", |_| {
                        black_box(RoutingEngine::finish_extension(net, image, &main, &[0]));
                    });
                }
                ExitPoint::Cloud => rec.span(req, "offload", |rec| {
                    let activation = match cloud_prefix.as_mut() {
                        Some(prefix) if cut > 0 => {
                            rec.span(req, "nn.prefix", |_| prefix.forward_prefix(image, cut, Mode::Eval))
                        }
                        _ => image.clone(),
                    };
                    let payload = rec.span(req, "payload.encode", |_| encode_payload(workload, &activation));
                    let inbound = rec.span(req, "transport.up", |_| {
                        transport.send_request(0, request_frame(u64::from(req), cut, payload)).expect("lane open");
                        match uplink.recv(None) {
                            RecvOutcome::Frame(f) => f,
                            other => panic!("uplink returned {other:?} with a frame in flight"),
                        }
                    });
                    let stacked =
                        rec.span(req, "payload.decode", |_| decode_payload(inbound.frame.payload, scratch));
                    let name = if cut > 0 { "nn.suffix" } else { "nn.cloud_forward" };
                    let prediction =
                        rec.span(req, name, |_| RoutingEngine::classify_cloud_from(cloud, &stacked, cut)[0]);
                    *scratch = stacked.into_vec();
                    rec.span(req, "transport.down", |_| {
                        let frame = ResponseFrame { req_id: u64::from(req), prediction: prediction as u32 };
                        transport.send_response(0, frame).expect("lane open");
                        match downlink.recv() {
                            RecvOutcome::Frame(f) => black_box(f.frame.prediction),
                            other => panic!("downlink returned {other:?} with a frame in flight"),
                        };
                    });
                }),
            }
            route
        })
    }
}

/// Bulk frames through one lane: MB of payload per second with the sender
/// and the receiver on their own threads.
fn stream_mb_s<T: Transport>(transport: &T, uplink: &mut T::Uplink, payload: &Bytes) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            for i in 0..STREAM_FRAMES {
                transport.send_request(0, request_frame(i as u64, 0, payload.clone())).expect("lane open");
            }
        });
        for _ in 0..STREAM_FRAMES {
            match uplink.recv(None) {
                RecvOutcome::Frame(f) => black_box(f.frame.payload.len()),
                other => panic!("uplink returned {other:?} mid-stream"),
            };
        }
        sender.join().expect("stream sender");
    });
    (STREAM_FRAMES * payload.len()) as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

/// Mean |measured time share − MAC share| over the cloud network's cut
/// layers: how far the planner's MAC-proportional cost model is from the
/// time each layer takes on this host.
fn cost_model_err_share(cloud: &mut SegmentedCnn, image: &Tensor) -> f64 {
    let profiles = profile_network(cloud);
    let mut inputs = vec![image.clone()];
    for k in 0..profiles.len() - 1 {
        let next = cloud.forward_range(&inputs[k], k, k + 1, Mode::Eval);
        inputs.push(next);
    }
    let times: Vec<f64> = inputs
        .iter()
        .enumerate()
        .map(|(k, x)| time_us(8, || drop(black_box(cloud.forward_range(x, k, k + 1, Mode::Eval)))))
        .collect();
    let time_total: f64 = times.iter().sum();
    let mac_total: f64 = profiles.iter().map(|p| p.macs as f64).sum();
    let err: f64 =
        times.iter().zip(&profiles).map(|(t, p)| (t / time_total - p.macs as f64 / mac_total).abs()).sum();
    err / profiles.len() as f64
}

/// Everything a traced run adds: the per-layer values and the spans.
pub fn profile(
    workload: &Workload,
    system: &mut System,
    measured: &mut Measured,
    rss_before_mib: f64,
    seed: u64,
) -> (Values, Vec<Span>) {
    match workload.transport() {
        TransportKind::Modelled => {
            profile_over(&ModelledTransport::new(1, 8), workload, system, measured, rss_before_mib, seed)
        }
        TransportKind::Uds(cfg) => {
            profile_over(&UdsTransport::new(1, cfg), workload, system, measured, rss_before_mib, seed)
        }
        other => unreachable!("no frozen workload uses {other:?}"),
    }
}

fn profile_over<T: Transport>(
    transport: &T,
    workload: &Workload,
    system: &mut System,
    measured: &mut Measured,
    rss_before_mib: f64,
    seed: u64,
) -> (Values, Vec<Span>) {
    let mut v = Values::default();
    let mut rig = ReplayRig {
        workload,
        engine: RoutingEngine::new(OffloadPolicy::EntropyThreshold(system.threshold(workload.beta)), true),
        // The cut the workload's offloads resume at: frozen for the static
        // split, whatever the planner ended on for the closed loop, none
        // for image payloads.
        cut: match workload.path {
            Path::Image => 0,
            Path::SplitInt8Uds => SPLIT_CUT,
            Path::WifiClosedLoop => measured.final_cut,
        },
        edge: system.edge_replica(true),
        cloud: system.cloud_replica(),
        transport,
        uplink: transport.take_uplink(0),
        downlink: transport.take_downlink(0),
        scratch: Vec::new(),
    };
    let image = system.pool.images.slice_axis0(0, 1);
    let batch8 = system.pool.images.slice_axis0(0, 8);

    time_kernels(&mut v);
    time_models(&mut v, &mut rig, &image, &batch8);
    let payload = time_wire(&mut v, &mut rig, &image);
    let link_model_s = workload.link().map_or(0.0, |l| l.round_trip_s(payload.len() as u64, RESPONSE_WIRE_BYTES));
    v.set("network.link_model_ms", 1e3 * link_model_s);
    time_planning(&mut v, &mut rig.cloud, &image);

    // Replay: every request once untraced and once traced, back to back
    // and in alternating order, so host drift and cache warmth hit both
    // alike.
    let mut traffic = Traffic::new(seed, system.pool.len());
    let instances = traffic.saturated(&system.pool, REPLAY_REQUESTS).instance_of;
    let mut traced = Recorder::new(true);
    let mut untraced = Recorder::new(false);
    let mut paths = [ExitPath::default(); 3];
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (k, &instance) in instances.iter().enumerate() {
        let image = system.pool.images.slice_axis0(instance, instance + 1);
        let mut passes = [(&mut untraced, &mut untraced_s), (&mut traced, &mut traced_s)];
        if k % 2 == 1 {
            passes.reverse();
        }
        for (rec, total_s) in passes {
            let t0 = Instant::now();
            let exit = rig.replay(rec, k as u32, &image);
            let dt = t0.elapsed().as_secs_f64();
            *total_s += dt;
            let path = &mut paths[exit_index(exit)];
            path.requests += 1;
            path.total_s += dt;
        }
    }
    let replay_us_per_req = 1e6 * untraced_s / instances.len() as f64;
    v.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    v.set("trace.spans", traced.spans().len() as f64);
    v.set("trace.replay_us_per_req", replay_us_per_req);

    // Replayed path time over the latency the runtime took for the same
    // exits (the modelled link is paid by sleeping, so it is added to the
    // replayed cloud path rather than slept through).
    let p50 = [
        measured.main.percentile_ms(0.50, "main"),
        measured.extension.percentile_ms(0.50, "extension"),
        measured.cloud.percentile_ms(0.50, "cloud"),
    ];
    let (mut replayed_ms, mut served_ms) = (0.0, 0.0);
    for (i, p) in paths.iter().enumerate() {
        let link_ms = if i == 2 { 1e3 * link_model_s } else { 0.0 };
        replayed_ms += 1e3 * p.total_s + p.requests as f64 * link_ms;
        served_ms += p.requests as f64 * p50[i];
    }
    v.set("serve.attributed_share", replayed_ms / served_ms);
    v.set("serve.runtime_overhead_share", 1.0 - replay_us_per_req / 1e3 / measured.paced_cpu_ms_per_req);
    v.set("serve.rss_before_mib", rss_before_mib);
    serve_counters(&mut v, measured);

    let spans = traced.spans().to_vec();
    print_span_summary(&spans);
    (v, spans)
}

/// `tensor` and `quant` kernels at a fixed 128x128x128.
fn time_kernels(v: &mut Values) {
    let mut rng = Rng::new(1);
    let a = Tensor::randn([128, 128], 1.0, &mut rng);
    let b = Tensor::randn([128, 128], 1.0, &mut rng);
    v.set("tensor.matmul_128_us", time_us(16, || drop(black_box(matmul(&a, &b)))));
    let qa: Vec<i8> = (0..128 * 128).map(|i| (i % 251) as i8).collect();
    let qb: Vec<i8> = (0..128 * 128).map(|i| (i % 241) as i8).collect();
    v.set(
        "quant.qgemm_128_us",
        time_us(8, || drop(black_box(mea_quant::kernels::qgemm_i32(&qa, &qb, 128, 128, 128)))),
    );
}

/// `meanet` batch-1 legs and the cloud network whole and split at the
/// frozen cut — the same definitions on every workload.
fn time_models<T: Transport>(v: &mut Values, rig: &mut ReplayRig<'_, T>, image: &Tensor, batch8: &Tensor) {
    let net = &mut rig.edge.net;
    v.set("meanet.main_exit_us", time_us(10, || drop(black_box(RoutingEngine::evaluate_main(net, image)))));
    let main = RoutingEngine::evaluate_main(net, image);
    v.set(
        "meanet.extension_us",
        time_us(10, || drop(black_box(RoutingEngine::finish_extension(net, image, &main, &[0])))),
    );
    v.set("meanet.plan_us", time_us(2000, || drop(black_box(rig.engine.plan(net, &main)))));

    let cloud = &mut rig.cloud;
    v.set("nn.cloud_forward_b1_us", time_us(5, || drop(black_box(cloud.forward(image, Mode::Eval)))));
    v.set("nn.cloud_forward_b8_us", time_us(3, || drop(black_box(cloud.forward(batch8, Mode::Eval)))));
    v.set("nn.prefix_us", time_us(8, || drop(black_box(cloud.forward_prefix(image, SPLIT_CUT, Mode::Eval)))));
    let act1 = cloud.forward_prefix(image, SPLIT_CUT, Mode::Eval);
    let act8 = cloud.forward_prefix(batch8, SPLIT_CUT, Mode::Eval);
    v.set("nn.suffix_b1_us", time_us(8, || drop(black_box(cloud.forward_from(&act1, SPLIT_CUT, Mode::Eval)))));
    v.set("nn.suffix_b8_us", time_us(3, || drop(black_box(cloud.forward_from(&act8, SPLIT_CUT, Mode::Eval)))));

    // The quant wire codec on the split activation: the edge's and the
    // cloud's half of `ship_affine`.
    let quantize = |t: &Tensor| QTensor::quantize(t, QuantParams::affine_from_range(t.min(), t.max()));
    v.set("quant.wire_encode_us", time_us(100, || drop(black_box(wire::encode(&quantize(&act1))))));
    let frame = wire::encode(&quantize(&act1));
    v.set("quant.wire_decode_us", time_us(100, || drop(black_box(wire::decode(&frame).0.dequantize()))));
}

/// The workload's own offload encoding at its own cut, then that payload
/// through one lane of the workload's transport: one frame in flight, and
/// in bulk. Returns the payload.
fn time_wire<T: Transport>(v: &mut Values, rig: &mut ReplayRig<'_, T>, image: &Tensor) -> Bytes {
    let (workload, cut) = (rig.workload, rig.cut);
    let activation = if cut > 0 { rig.cloud.forward_prefix(image, cut, Mode::Eval) } else { image.clone() };
    v.set("payload.encode_us", time_us(100, || drop(black_box(encode_payload(workload, &activation)))));
    let payload = encode_payload(workload, &activation);
    let scratch = &mut rig.scratch;
    v.set(
        "payload.decode_us",
        time_us(100, || *scratch = black_box(decode_payload(payload.clone(), scratch)).into_vec()),
    );

    let frame = request_frame(1, cut, payload.clone());
    v.set("transport.frame_encode_us", time_us(200, || drop(black_box(frame.encode()))));
    v.set(
        "transport.up_us",
        time_us(200, || {
            rig.transport.send_request(0, frame.clone()).expect("lane open");
            black_box(rig.uplink.recv(None));
        }),
    );
    v.set(
        "transport.down_us",
        time_us(200, || {
            rig.transport.send_response(0, ResponseFrame { req_id: 1, prediction: 2 }).expect("lane open");
            black_box(rig.downlink.recv());
        }),
    );
    v.set("transport.stream_mb_s", stream_mb_s(rig.transport, &mut rig.uplink, &payload));
    payload
}

/// `network::LinkEstimator` and the `partition` planner, as the closed
/// loop calls them under the policy lock.
fn time_planning(v: &mut Values, cloud: &mut SegmentedCnn, image: &Tensor) {
    let mut estimator = LinkEstimator::new(1, 0.3);
    v.set(
        "network.estimator_observe_ns",
        1e3 * time_us(10_000, || estimator.observe(0, 3072, 1.3e-3, RESPONSE_WIRE_BYTES, 7e-6, 0.01)),
    );
    black_box(estimator.estimate(0));
    v.set("partition.profile_us", time_us(200, || drop(black_box(profile_network(cloud)))));
    let classes = [planner_edge()];
    let env = PartitionEnv {
        edge: planner_edge(),
        cloud: planner_cloud(),
        link: wifi_link(),
        bytes_per_elem: 4,
        raw_input_bytes: 4 * image.numel() as u64,
        response_bytes: RESPONSE_WIRE_BYTES,
    };
    let planner = CutPlanner::from_network(cloud, env, Objective::Latency, DEVICES);
    v.set(
        "partition.plan_us",
        time_us(200, || drop(black_box(planner.plan_placements_with_links(&classes, &[None], &[None])))),
    );
    v.set("partition.cost_model_err_share", cost_model_err_share(cloud, image));
}

/// Counters of the measured rounds, tails of the paced windows, and the
/// streaming histogram held against the exact order statistic.
fn serve_counters(v: &mut Values, measured: &mut Measured) {
    let (sat, paced) = (measured.sat_stats, measured.paced_stats);
    let exits = measured.exits.map(|n| n as f64);
    let served: f64 = exits.iter().sum();
    v.set("meanet.exit_main_share", exits[0] / served);
    v.set("meanet.exit_extension_share", exits[1] / served);
    v.set("meanet.exit_cloud_share", exits[2] / served);
    v.set("payload.bytes_per_offload", (sat.bytes_to_cloud + paced.bytes_to_cloud) as f64 / exits[2].max(1.0));
    v.set("serve.sat_mean_batch", sat.mean_batch());
    v.set("serve.paced_mean_batch", paced.mean_batch());
    v.set("serve.cloud_batches", (sat.cloud_batches + paced.cloud_batches) as f64);
    v.set("serve.steals", (sat.steals + paced.steals) as f64);
    v.set("serve.max_queue_depth", sat.max_queue_depth.max(paced.max_queue_depth) as f64);
    v.set("serve.cut_replans", (sat.cut_replans + paced.cut_replans) as f64);
    v.set("serve.cloud_macs_per_req", (sat.cloud_macs + paced.cloud_macs) as f64 / served);
    v.set("serve.paced_drain_ms", median(&measured.round_drain_ms));
    v.set("serve.sys_cpu_share", measured.sys_cpu_share());
    let sat_requests = measured.saturated.attempted as f64;
    v.set("alloc.calls_per_req", measured.alloc_calls as f64 / sat_requests);
    v.set("alloc.bytes_per_req", measured.alloc_bytes as f64 / sat_requests);
    v.set("host.ref_loop_ms", median(&measured.round_ref_loop_ms));

    let mut local = measured.main.samples().to_vec();
    local.extend_from_slice(measured.extension.samples());
    v.set("serve.local_p99_ms", percentile(&mut local, 0.99));
    v.set("serve.cloud_p99_ms", measured.cloud.percentile_ms(0.99, "cloud"));
    println!(
        "serve.local_p99_ms: {} samples, serve.cloud_p99_ms: {} samples",
        local.len(),
        measured.cloud.count()
    );
    let mut all = local;
    all.extend_from_slice(measured.cloud.samples());
    v.set("serve.latency_max_ms", percentile(&mut all, 1.0));
    let mut hist = StreamingHistogram::for_latency();
    let t0 = Instant::now();
    for &ms in &all {
        hist.record(f64::from(ms) * 1e-3);
    }
    v.set("metrics.hist_record_ns", 1e9 * t0.elapsed().as_secs_f64() / all.len() as f64);
    let exact_p99_s = percentile(&mut all, 0.99) * 1e-3;
    v.set("metrics.hist_p99_rel_err", (hist.p99() - exact_p99_s).abs() / exact_p99_s);
}

/// Prints self time per span name and the share of replayed time the
/// codec and transport layers took.
fn print_span_summary(spans: &[Span]) {
    let by_name = self_time_by_name(spans);
    let total: u64 = by_name.values().map(|v| v.1).sum();
    println!("replayed spans (self time):");
    for (name, (calls, self_ns)) in &by_name {
        println!(
            "  {:<22} {:>6} calls {:>10.1} us/call {:>6.2} % of replayed time",
            name,
            calls,
            *self_ns as f64 / 1e3 / *calls as f64,
            100.0 * *self_ns as f64 / total as f64
        );
    }
    let wire_ns: u64 = by_name
        .iter()
        .filter(|(n, _)| n.starts_with("payload.") || n.starts_with("quant.") || n.starts_with("transport."))
        .map(|(_, v)| v.1)
        .sum();
    println!(
        "  payload.* + quant.* + transport.* = {:.2} % of replayed time",
        100.0 * wire_ns as f64 / total as f64
    );
}
