//! The distributed-systems view: run Algorithm 2, then feed its routing
//! decisions into (a) the energy model, (b) the virtual-clock pipeline
//! simulator, and (c) a real two-thread edge→cloud pipeline with encoded
//! payloads.
//!
//! ```bash
//! cargo run --release --example edge_cloud_sim
//! ```

use mea_data::presets;
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::energy::energy_from_records;
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::payload::Payload;
use mea_edgecloud::serve::run_payload_pipeline;
use mea_edgecloud::sim::{simulate, SimConfig};
use mea_edgecloud::transport::TransportKind;
use mea_nn::layer::Mode;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use parking_lot::Mutex;
use std::time::Duration;

fn main() {
    // Train a small distributed system.
    let bundle = presets::tiny(3);
    let mut cfg = PipelineConfig::repro_resnet_b(6, 8, 3);
    if let BackboneChoice::CifarResNet(ref mut c) = cfg.backbone {
        c.input_hw = 8;
    }
    if let Some(BackboneChoice::CifarResNet(ref mut c)) = cfg.cloud {
        c.input_hw = 8;
    }
    let mut pipe = Pipeline::run(&cfg, &bundle.train);
    let records = pipe.infer_distributed(&bundle.test, 0.3, 8);
    let routes: Vec<_> = records.iter().map(|r| r.exit).collect();
    println!(
        "routing: {} instances, {} offloaded to the cloud",
        routes.len(),
        routes.iter().filter(|e| matches!(e, meanet::ExitPoint::Cloud)).count()
    );

    // (a) Energy accounting with the paper's device/link models.
    let device = DeviceProfile::edge_gpu_cifar();
    let link = NetworkLink::wifi_18_88();
    let split = pipe.net.cost_split();
    let energy = energy_from_records(&records, &device, &link, split.fixed_macs, split.trained_macs, 3 * 8 * 8);
    println!(
        "energy at the edge: compute {:.3} mJ + communication {:.3} mJ = {:.3} mJ",
        1e3 * energy.compute_j,
        1e3 * energy.communication_j,
        1e3 * energy.total_j()
    );

    // (b) Virtual-clock latency simulation: frames at 5 ms intervals.
    let sim_cfg = SimConfig {
        edge: device,
        cloud: DeviceProfile::cloud_accelerator(),
        link: link.with_rtt(0.02),
        macs_main: split.fixed_macs,
        macs_extension_extra: split.trained_macs,
        macs_cloud: pipe.cloud.as_ref().map(|c| c.total_macs()).unwrap_or(0),
        payload_bytes: 3 * 8 * 8,
        arrival_interval_s: 0.005,
        coop: None,
    };
    let report = simulate(&sim_cfg, &routes);
    println!(
        "virtual clock: mean latency {:.2} ms, p95 {:.2} ms, makespan {:.1} ms",
        1e3 * report.mean_latency_s,
        1e3 * report.p95_latency_s,
        1e3 * report.makespan_s
    );

    // (c) A real two-thread pipeline: raw images cross a channel as encoded
    // payloads; the cloud thread decodes and classifies with the trained
    // cloud model.
    let cloud_net = Mutex::new(pipe.cloud.take().expect("pipeline has a cloud"));
    let offload: Vec<Payload> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.exit, meanet::ExitPoint::Cloud))
        .map(|(i, _)| Payload::RawImage { image: bundle.test.images.slice_axis0(i, i + 1) })
        .collect();
    if offload.is_empty() {
        println!("threaded pipeline: nothing offloaded at this threshold");
        return;
    }
    let n = offload.len();
    // One cloud worker, no batching: the plain two-node pipeline.
    let (preds, stats) =
        run_payload_pipeline(&TransportKind::Modelled, offload, 1, 1, Duration::ZERO, 4, |payload| {
            let logits = cloud_net.lock().forward(&payload.as_tensor(), Mode::Eval);
            logits.argmax_rows()[0]
        });
    println!(
        "threaded pipeline: {} payloads, {} bytes on the wire, predictions {:?}",
        stats.payloads,
        stats.bytes_sent,
        &preds[..n.min(8)]
    );
}
