//! Cross-crate integration: Algorithm-2 routing decisions from a trained
//! MEANet feed the multi-device fleet simulator, and early exits
//! measurably relieve the shared cloud.

use mea_data::presets;
use mea_edgecloud::{
    simulate_fleet, ArrivalModel, ComputeTier, DeviceClass, DeviceProfile, FleetConfig, FleetReport, FleetSpec,
    NetworkLink,
};
use mea_tensor::Rng;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::ExitPoint;

fn trained_routes() -> Vec<ExitPoint> {
    let bundle = presets::tiny(90);
    let mut cfg = PipelineConfig::repro_resnet_b(6, 6, 90);
    if let BackboneChoice::CifarResNet(ref mut c) = cfg.backbone {
        c.input_hw = 8;
    }
    if let Some(BackboneChoice::CifarResNet(ref mut c)) = cfg.cloud {
        c.input_hw = 8;
    }
    let mut pipe = Pipeline::run(&cfg, &bundle.train);
    let threshold = pipe.entropy.suggested_threshold() as f32;
    pipe.infer_distributed(&bundle.test, threshold, 8).iter().map(|r| r.exit).collect()
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        cloud: DeviceProfile::cloud_accelerator(),
        link: NetworkLink::wifi_18_88(),
        cloud_servers: 1,
        macs_main: 50_000_000,
        macs_extension_extra: 25_000_000,
        macs_cloud: 1_500_000_000,
        payload_bytes: 3 * 8 * 8,
        macs_peer: 0,
        peer_payload_bytes: 0,
    }
}

/// Jetson-class devices at full speed, one frame every 2 ms each.
fn simulate(cfg: &FleetConfig, routes: &[Vec<ExitPoint>]) -> FleetReport {
    let spec = FleetSpec::uniform(DeviceClass::new("edge", DeviceProfile::edge_jetson_like(), ComputeTier::High));
    let mut rng = Rng::new(0);
    let arrivals: Vec<Vec<f64>> =
        routes.iter().map(|r| ArrivalModel::Uniform { interval_s: 0.002 }.generate(r.len(), &mut rng)).collect();
    simulate_fleet(&spec, cfg, routes, &arrivals)
}

#[test]
fn trained_routes_through_the_fleet_are_deterministic() {
    let routes = trained_routes();
    assert!(!routes.is_empty());
    let fleet: Vec<Vec<ExitPoint>> = (0..4).map(|_| routes.clone()).collect();
    let a = simulate(&fleet_cfg(), &fleet);
    let b = simulate(&fleet_cfg(), &fleet);
    assert_eq!(a, b, "same routes and config must reproduce identical reports");
    assert_eq!(a.instances, 4 * routes.len());
}

#[test]
fn meanet_routing_relieves_the_cloud_against_all_offload() {
    let routes = trained_routes();
    let devices = 8;
    let meanet_fleet: Vec<Vec<ExitPoint>> = (0..devices).map(|_| routes.clone()).collect();
    let cloud_fleet: Vec<Vec<ExitPoint>> = (0..devices).map(|_| vec![ExitPoint::Cloud; routes.len()]).collect();
    let cfg = fleet_cfg();
    let ours = simulate(&cfg, &meanet_fleet);
    let all_cloud = simulate(&cfg, &cloud_fleet);
    assert!(ours.cloud_utilization <= all_cloud.cloud_utilization);
    assert!(
        ours.cloud_wait_mean_s <= all_cloud.cloud_wait_mean_s + 1e-9,
        "early exits must not increase cloud queueing: {} vs {}",
        ours.cloud_wait_mean_s,
        all_cloud.cloud_wait_mean_s
    );
    assert!(
        ours.energy.communication_j < all_cloud.energy.communication_j,
        "early exits must reduce fleet radio energy"
    );
}
