//! Consistency between the three cost views: the Table I closed forms, the
//! per-record energy accounting, and the virtual-clock simulator must agree
//! wherever their assumptions coincide.

use mea_edgecloud::cost::{estimate, CostParams, Strategy};
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::energy::{cloud_only_energy, energy_from_records};
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::{simulate_fleet, ArrivalModel, ComputeTier, DeviceClass, FleetConfig, FleetReport, FleetSpec};
use mea_tensor::Rng;
use meanet::{ExitPoint, InstanceRecord};

fn record(exit: ExitPoint) -> InstanceRecord {
    InstanceRecord {
        truth: 0,
        prediction: 0,
        exit,
        entropy: 0.0,
        main_prediction: 0,
        detected_hard: false,
        correct: true,
    }
}

/// One `edge` device at full speed on the virtual clock, a frame every
/// 10 ms.
fn simulate_one(edge: &DeviceProfile, cfg: &FleetConfig, routes: &[ExitPoint]) -> FleetReport {
    let spec = FleetSpec::uniform(DeviceClass::new("edge", edge.clone(), ComputeTier::High));
    let arrivals = ArrivalModel::Uniform { interval_s: 0.01 }.generate(routes.len(), &mut Rng::new(0));
    simulate_fleet(&spec, cfg, &[routes.to_vec()], &[arrivals])
}

#[test]
fn closed_form_matches_per_record_accounting() {
    let device = DeviceProfile::new("edge", 20.0, 2e9);
    let link = NetworkLink::wifi_18_88();
    let macs_main = 4_000_000u64;
    let bytes = 3072u64;
    // 100 instances, 25 offloaded (beta = 0.25), no extension exits so the
    // closed form's uniform edge cost applies exactly.
    let mut records = Vec::new();
    for i in 0..100 {
        records.push(record(if i % 4 == 0 { ExitPoint::Cloud } else { ExitPoint::Main }));
    }
    let fine = energy_from_records(&records, &device, &link, macs_main, 0, bytes);

    let params = CostParams {
        n: 100,
        edge_unit: device.compute_energy_j(macs_main),
        cloud_unit: 0.0,
        comm_raw_unit: link.upload_energy_j(bytes),
        comm_feat_unit: 0.0,
        beta: 0.25,
        q: 1.0,
    };
    let coarse = estimate(Strategy::EdgeCloudRaw, &params);
    assert!((fine.compute_j - coarse.edge_compute).abs() < 1e-9, "{} vs {}", fine.compute_j, coarse.edge_compute);
    assert!(
        (fine.communication_j - coarse.communication).abs() < 1e-9,
        "{} vs {}",
        fine.communication_j,
        coarse.communication
    );
}

#[test]
fn simulator_energy_matches_record_accounting() {
    let device = DeviceProfile::new("edge", 15.0, 1e9);
    let link = NetworkLink::wifi(10.0);
    let routes = vec![ExitPoint::Main, ExitPoint::Extension, ExitPoint::Cloud, ExitPoint::Main, ExitPoint::Cloud];
    let records: Vec<InstanceRecord> = routes.iter().map(|&e| record(e)).collect();

    let cfg = FleetConfig {
        cloud: DeviceProfile::cloud_accelerator(),
        link,
        cloud_servers: 1,
        macs_main: 2_000_000,
        macs_extension_extra: 1_000_000,
        macs_cloud: 50_000_000,
        payload_bytes: 2048,
        macs_peer: 0,
        peer_payload_bytes: 0,
    };
    let report = simulate_one(&device, &cfg, &routes);
    let fine = energy_from_records(&records, &device, &link, 2_000_000, 1_000_000, 2048);
    assert!((report.energy.compute_j - fine.compute_j).abs() < 1e-9);
    assert!((report.energy.communication_j - fine.communication_j).abs() < 1e-9);
}

#[test]
fn cloud_only_closed_form_matches_helper() {
    let link = NetworkLink::wifi_18_88();
    let bytes = 150_528u64; // ImageNet raw image
    let params = CostParams {
        n: 500,
        edge_unit: 0.0,
        cloud_unit: 0.0,
        comm_raw_unit: link.upload_energy_j(bytes),
        comm_feat_unit: 0.0,
        beta: 1.0,
        q: 1.0,
    };
    let coarse = estimate(Strategy::CloudOnly, &params);
    let helper = cloud_only_energy(500, &link, bytes);
    assert!((coarse.communication - helper.communication_j).abs() < 1e-9);
}

#[test]
fn latency_beats_cloud_only_when_most_exit_early() {
    // The §IV-B latency claim: with >50% early exits, distributed inference
    // has lower mean latency than sending everything to the cloud.
    let edge = DeviceProfile::new("edge", 10.0, 1e9);
    let cfg = FleetConfig {
        cloud: DeviceProfile::cloud_accelerator(),
        link: NetworkLink::wifi(18.88).with_rtt(0.04),
        cloud_servers: 1,
        macs_main: 1_000_000,
        macs_extension_extra: 500_000,
        macs_cloud: 100_000_000,
        payload_bytes: 3072,
        macs_peer: 0,
        peer_payload_bytes: 0,
    };
    let mixed: Vec<ExitPoint> =
        (0..40).map(|i| if i % 4 == 0 { ExitPoint::Cloud } else { ExitPoint::Main }).collect();
    let all_cloud = vec![ExitPoint::Cloud; 40];
    let distributed = simulate_one(&edge, &cfg, &mixed);
    let cloud_only = simulate_one(&edge, &cfg, &all_cloud);
    assert!(
        distributed.mean_latency_s < cloud_only.mean_latency_s,
        "distributed {:.4}s should beat cloud-only {:.4}s",
        distributed.mean_latency_s,
        cloud_only.mean_latency_s
    );
}
