//! Fleet simulation: many edge devices sharing a small cloud — the
//! congestion the paper's introduction argues early exits relieve.
//!
//! Compares an all-offload fleet against a MEANet-style fleet (most
//! inference exits at the edge) as the number of devices grows.
//!
//! ```bash
//! cargo run --release --example fleet_simulation
//! ```

use mea_edgecloud::{
    simulate_fleet, ArrivalModel, ComputeTier, DeviceClass, DeviceProfile, FleetConfig, FleetSpec, NetworkLink,
};
use mea_tensor::Rng;
use meanet::ExitPoint;

fn routes(n: usize, meanet: bool) -> Vec<ExitPoint> {
    (0..n)
        .map(|i| {
            if meanet {
                // MEANet routing shape: ~60% main exits, ~25% extension,
                // ~15% offloaded (the paper's CIFAR operating point).
                match i % 20 {
                    0..=11 => ExitPoint::Main,
                    12..=16 => ExitPoint::Extension,
                    _ => ExitPoint::Cloud,
                }
            } else {
                ExitPoint::Cloud
            }
        })
        .collect()
}

/// One frame every 5 ms on every device.
fn paced(fleet: &[Vec<ExitPoint>]) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(0);
    fleet.iter().map(|r| ArrivalModel::Uniform { interval_s: 0.005 }.generate(r.len(), &mut rng)).collect()
}

fn main() {
    let jetson =
        FleetSpec::uniform(DeviceClass::new("edge", DeviceProfile::edge_jetson_like(), ComputeTier::High));
    let cfg = FleetConfig {
        cloud: DeviceProfile::cloud_accelerator(),
        link: NetworkLink::wifi_18_88(),
        cloud_servers: 2,
        macs_main: 70_000_000,
        macs_extension_extra: 30_000_000,
        macs_cloud: 2_000_000_000,
        payload_bytes: 3 * 32 * 32,
        macs_peer: 0,
        peer_payload_bytes: 0,
    };
    println!(
        "{:<9} {:>14} {:>14} {:>16} {:>14}",
        "devices", "policy", "mean lat (ms)", "p95 lat (ms)", "cloud wait (ms)"
    );
    for devices in [1usize, 4, 16, 64] {
        for (label, meanet) in [("all-cloud", false), ("MEANet", true)] {
            let fleet: Vec<Vec<ExitPoint>> = (0..devices).map(|d| routes(40 + d % 3, meanet)).collect();
            let r = simulate_fleet(&jetson, &cfg, &fleet, &paced(&fleet));
            println!(
                "{:<9} {:>14} {:>14.2} {:>16.2} {:>14.3}",
                devices,
                label,
                r.mean_latency_s * 1e3,
                r.p95_latency_s * 1e3,
                r.cloud_wait_mean_s * 1e3
            );
        }
    }
    println!("\nEarly exits keep fleet latency flat while the all-cloud fleet queues up.");

    // The same fleet, heterogeneous: the devices split round-robin across
    // three compute tiers of the Jetson-class profile, and the Low tier
    // additionally sits behind a 4x slower uplink. The virtual clock
    // prices exactly what the serving runtime's FleetSpec schedules.
    let spec = FleetSpec::round_robin(vec![
        DeviceClass::new("high", DeviceProfile::edge_jetson_like(), ComputeTier::High),
        DeviceClass::new("medium", DeviceProfile::edge_jetson_like(), ComputeTier::Medium),
        DeviceClass::new("low", DeviceProfile::edge_jetson_like(), ComputeTier::Low)
            .with_link_prior(NetworkLink::wifi(4.7)),
    ]);
    println!("\nheterogeneous tiers (High / Medium / Low, Low on a 4x slower uplink):");
    for devices in [4usize, 16, 64] {
        for (label, meanet) in [("all-cloud", false), ("MEANet", true)] {
            let fleet: Vec<Vec<ExitPoint>> = (0..devices).map(|d| routes(40 + d % 3, meanet)).collect();
            let r = simulate_fleet(&spec, &cfg, &fleet, &paced(&fleet));
            println!(
                "{:<9} {:>14} {:>14.2} {:>16.2} {:>14.3}",
                devices,
                label,
                r.mean_latency_s * 1e3,
                r.p95_latency_s * 1e3,
                r.cloud_wait_mean_s * 1e3
            );
        }
    }
    println!("\nSlower tiers stretch the tail: the Low class pays both the 0.4x compute scale and its link.");

    // Cooperative edge splitting on the same virtual clock: one Low-tier
    // device behind a congested 2 Mbps uplink, offloading everything.
    // Solo, it ships the full activation and the cloud runs the whole
    // network. In a cooperative group — the simulator's multi-stage
    // `PlacementPlan` shape — three pooled same-class peers behind a
    // fast local wire absorb half the cloud MACs first, so the WAN
    // upload shrinks to the deeper cut's activation.
    let low = DeviceClass::new("low", DeviceProfile::edge_jetson_like(), ComputeTier::Low);
    let solo = FleetConfig {
        link: NetworkLink::wifi(2.0),
        cloud_servers: 1,
        payload_bytes: 3072, // full activation over the WAN
        ..cfg.clone()
    };
    let coop = FleetConfig {
        macs_cloud: cfg.macs_cloud / 2,
        payload_bytes: 512, // the deeper cut's activation over the WAN
        macs_peer: cfg.macs_cloud / 2,
        peer_payload_bytes: 4096, // lossless f32 over the local wire
        ..solo.clone()
    };
    let grouped = FleetSpec::uniform(low.clone().coop_group(3, NetworkLink::wifi(400.0)));
    let routes = vec![vec![ExitPoint::Cloud; 40]];
    let r_solo = simulate_fleet(&FleetSpec::uniform(low), &solo, &routes, &paced(&routes));
    let r_coop = simulate_fleet(&grouped, &coop, &routes, &paced(&routes));
    println!(
        "\ncooperative splitting on a 2 Mbps uplink (all-offload, one Low-tier device):\n\
         {:<9} mean {:>7.2} ms   p95 {:>7.2} ms\n\
         {:<9} mean {:>7.2} ms   p95 {:>7.2} ms",
        "solo",
        r_solo.mean_latency_s * 1e3,
        r_solo.p95_latency_s * 1e3,
        "coop x3",
        r_coop.mean_latency_s * 1e3,
        r_coop.p95_latency_s * 1e3,
    );
    println!("The cheap local hop buys a 6x smaller WAN upload: the peer stage pays for itself.");
}
