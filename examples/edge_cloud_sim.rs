//! The distributed-systems view: run Algorithm 2, feed its routing
//! decisions into (a) the energy model and (b) the virtual-clock
//! simulator, then (c) serve the same test set through the threaded
//! runtime's `Fleet` — one edge worker, one cloud worker, offloads
//! crossing the wire as encoded payloads.
//!
//! ```bash
//! cargo run --release --example edge_cloud_sim
//! ```

use mea_data::presets;
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::energy::energy_from_records;
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::serve::{trace_requests, ControlPlan, EdgeReplica, Fleet, ServeConfig, WireFormat};
use mea_edgecloud::traces::ArrivalModel;
use mea_edgecloud::{simulate_fleet, ComputeTier, DeviceClass, FleetConfig, FleetSpec};
use mea_tensor::Rng;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::OffloadPolicy;

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

    // (b) Virtual-clock latency simulation: one device, frames at 5 ms
    // intervals.
    let spec = FleetSpec::uniform(DeviceClass::new("edge", device, ComputeTier::High));
    let sim_cfg = FleetConfig {
        cloud: DeviceProfile::cloud_accelerator(),
        link: link.with_rtt(0.02),
        cloud_servers: 1,
        macs_main: split.fixed_macs,
        macs_extension_extra: split.trained_macs,
        macs_cloud: pipe.cloud.as_ref().map(|c| c.total_macs()).unwrap_or(0),
        payload_bytes: 3 * 8 * 8,
        macs_peer: 0,
        peer_payload_bytes: 0,
    };
    let frames = ArrivalModel::Uniform { interval_s: 0.005 }.generate(routes.len(), &mut Rng::new(0));
    let report = simulate_fleet(&spec, &sim_cfg, &[routes], &[frames]);
    println!(
        "virtual clock: mean latency {:.2} ms, p95 {:.2} ms, makespan {:.1} ms",
        1e3 * report.mean_latency_s,
        1e3 * report.p95_latency_s,
        1e3 * report.makespan_s
    );

    // (c) The threaded runtime: one edge worker routes every test image
    // with the same Algorithm-2 threshold, and one cloud worker classifies
    // the offloads, which cross the wire as 8-bit raw images (the payload
    // size the simulation above charges). Quantisation can flip a
    // borderline cloud prediction, so agreement with the offline sweep is
    // counted rather than assumed.
    let Pipeline { net, cloud, .. } = pipe;
    let edges = vec![EdgeReplica::new(net)];
    let clouds = vec![cloud.expect("pipeline has a cloud")];
    let serve_cfg = ServeConfig::builder(OffloadPolicy::EntropyThreshold(0.3))
        .edge_workers(1)
        .cloud_workers(1)
        .max_batch(1)
        .control(ControlPlan::Image { wire: WireFormat::Quantised8Bit, controller: None })
        .build()
        .expect("valid configuration");
    let requests = trace_requests(&bundle.test, 1, &ArrivalModel::Uniform { interval_s: 0.0 }, &mut Rng::new(0));
    let served = Fleet::new(serve_cfg, edges, clouds)
        .expect("replicas match the configuration")
        .serve(&requests)
        .expect("a valid one-by-one deployment");
    let agree = served.records.iter().zip(&records).filter(|(s, r)| s.prediction == r.prediction).count();
    println!(
        "threaded runtime: {} payloads, {} bytes on the wire, {agree}/{} predictions as in the offline sweep",
        served.stats.offloaded,
        served.stats.bytes_to_cloud,
        records.len()
    );
}
