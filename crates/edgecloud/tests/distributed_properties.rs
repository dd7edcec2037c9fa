//! Property-based tests on the partitioner, the fleet simulator and the
//! arrival-trace generators.

use mea_edgecloud::{
    simulate_fleet, sweep_cuts, ArrivalModel, ComputeTier, DeviceClass, DeviceProfile, FleetConfig, FleetReport,
    FleetSpec, LayerProfile, NetworkLink, PartitionEnv,
};
use mea_tensor::Rng;
use meanet::ExitPoint;
use proptest::prelude::*;

fn arb_profiles() -> impl Strategy<Value = Vec<LayerProfile>> {
    proptest::collection::vec((1_000u64..10_000_000, 16u64..100_000), 1..12).prop_map(|layers| {
        layers
            .into_iter()
            .enumerate()
            .map(|(i, (macs, out_elems))| LayerProfile { name: format!("l{i}"), macs, out_elems })
            .collect()
    })
}

fn env(throughput_mbps: f64) -> PartitionEnv {
    PartitionEnv {
        edge: DeviceProfile::new("edge", 10.0, 1e9),
        cloud: DeviceProfile::new("cloud", 200.0, 1e11),
        link: NetworkLink::wifi(throughput_mbps).with_rtt(0.005),
        bytes_per_elem: 4,
        raw_input_bytes: 3072,
        response_bytes: 8,
    }
}

proptest! {
    /// q rises monotonically from 0 to 1 across the sweep, and every cost
    /// is finite and non-negative.
    #[test]
    fn partition_sweep_invariants(profiles in arb_profiles(), mbps in 0.1f64..1000.0) {
        let costs = sweep_cuts(&profiles, &env(mbps));
        prop_assert_eq!(costs.len(), profiles.len() + 1);
        prop_assert_eq!(costs[0].q, 0.0);
        prop_assert_eq!(costs.last().unwrap().q, 1.0);
        for pair in costs.windows(2) {
            prop_assert!(pair[1].q >= pair[0].q);
        }
        for c in &costs {
            prop_assert!(c.latency_s.is_finite() && c.latency_s >= 0.0);
            prop_assert!(c.edge_energy_j.is_finite() && c.edge_energy_j >= 0.0);
        }
        // Edge-only pays no upload; cloud-only uploads the raw image.
        prop_assert_eq!(costs.last().unwrap().upload_bytes, 0);
        prop_assert_eq!(costs[0].upload_bytes, 3072);
    }

    /// The edge-only cut's latency equals the device's closed-form
    /// latency over all MACs, independent of the link.
    #[test]
    fn edge_only_cut_ignores_the_network(profiles in arb_profiles(), mbps in 0.1f64..1000.0) {
        let e = env(mbps);
        let costs = sweep_cuts(&profiles, &e);
        let total: u64 = profiles.iter().map(|p| p.macs).sum();
        let last = costs.last().unwrap();
        prop_assert!((last.latency_s - e.edge.latency_s(total)).abs() < 1e-12);
        prop_assert_eq!(last.edge_energy_j, e.edge.compute_energy_j(total));
    }
}

fn arb_routes() -> impl Strategy<Value = Vec<Vec<ExitPoint>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..3, 1..20), 1..6).prop_map(|devs| {
        devs.into_iter()
            .map(|routes| {
                routes
                    .into_iter()
                    .map(|r| match r {
                        0 => ExitPoint::Main,
                        1 => ExitPoint::Extension,
                        _ => ExitPoint::Cloud,
                    })
                    .collect()
            })
            .collect()
    })
}

fn fleet_cfg(servers: usize) -> FleetConfig {
    FleetConfig {
        cloud: DeviceProfile::new("cloud", 100.0, 1e10),
        link: NetworkLink::wifi(8.0).with_rtt(0.01),
        cloud_servers: servers,
        macs_main: 1_000_000,
        macs_extension_extra: 500_000,
        macs_cloud: 10_000_000,
        payload_bytes: 1000,
        macs_peer: 0,
        peer_payload_bytes: 0,
    }
}

fn edge() -> DeviceProfile {
    DeviceProfile::new("edge", 10.0, 1e9)
}

/// A homogeneous fleet of `edge()` devices, one frame every 2 ms each.
fn simulate(cfg: &FleetConfig, routes: &[Vec<ExitPoint>]) -> FleetReport {
    let spec = FleetSpec::uniform(DeviceClass::new("edge", edge(), ComputeTier::High));
    let mut rng = Rng::new(0);
    let arrivals: Vec<Vec<f64>> =
        routes.iter().map(|r| ArrivalModel::Uniform { interval_s: 0.002 }.generate(r.len(), &mut rng)).collect();
    simulate_fleet(&spec, cfg, routes, &arrivals)
}

proptest! {
    /// Every latency is at least the main-block service time; counts and
    /// percentiles are internally consistent; re-running is bit-identical.
    #[test]
    fn fleet_simulation_invariants(routes in arb_routes(), servers in 1usize..4) {
        let cfg = fleet_cfg(servers);
        let a = simulate(&cfg, &routes);
        let b = simulate(&cfg, &routes);
        prop_assert_eq!(&a, &b);
        let expected: usize = routes.iter().map(Vec::len).sum();
        prop_assert_eq!(a.instances, expected);
        let t_main = edge().latency_s(cfg.macs_main);
        prop_assert!(a.p50_latency_s >= t_main - 1e-12);
        prop_assert!(a.p50_latency_s <= a.p95_latency_s + 1e-12);
        prop_assert!(a.p95_latency_s <= a.p99_latency_s + 1e-12);
        prop_assert!(a.mean_latency_s <= a.makespan_s + 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&a.cloud_utilization));
        let n_cloud: usize =
            routes.iter().flatten().filter(|r| **r == ExitPoint::Cloud).count();
        if n_cloud == 0 {
            prop_assert_eq!(a.energy.communication_j, 0.0);
            prop_assert_eq!(a.cloud_utilization, 0.0);
        } else {
            prop_assert!(a.energy.communication_j > 0.0);
        }
    }

    /// Adding cloud servers never makes any latency statistic worse.
    #[test]
    fn more_servers_never_hurt(routes in arb_routes()) {
        let one = simulate(&fleet_cfg(1), &routes);
        let four = simulate(&fleet_cfg(4), &routes);
        prop_assert!(four.mean_latency_s <= one.mean_latency_s + 1e-12);
        prop_assert!(four.cloud_wait_mean_s <= one.cloud_wait_mean_s + 1e-12);
        prop_assert!(four.makespan_s <= one.makespan_s + 1e-12);
    }

    /// Arrival traces are non-decreasing and reproducible for any model.
    #[test]
    fn traces_are_sorted_and_seeded(
        n in 1usize..200,
        rate in 1.0f64..10_000.0,
        burst in 1usize..10,
        seed in 0u64..1000,
    ) {
        for model in [
            ArrivalModel::Uniform { interval_s: 1.0 / rate },
            ArrivalModel::Poisson { rate_hz: rate },
            ArrivalModel::Bursty { burst_len: burst, intra_s: 0.1 / rate, gap_s: 1.0 / rate },
        ] {
            let a = model.generate(n, &mut Rng::new(seed));
            let b = model.generate(n, &mut Rng::new(seed));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.len(), n);
            prop_assert_eq!(a[0], 0.0);
            for w in a.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
        }
    }
}
