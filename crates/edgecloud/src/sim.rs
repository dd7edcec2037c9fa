//! Edge-cloud pipeline simulation.
//!
//! [`simulate`] is a deterministic **virtual-clock** model of the paper's
//! deployment: frames arrive at a fixed interval, the edge GPU is a FIFO
//! server, the radio is a FIFO channel, the cloud is a FIFO server. It
//! produces per-instance end-to-end latency, the makespan, and the edge
//! energy split. This is what backs the latency claims of §IV-B ("since
//! more than 50% of data inference have terminated at the edge, edge-cloud
//! distributed inference still has the advantage in latency"). The real
//! threaded pipeline is [`crate::serve::run_payload_pipeline`].

use crate::device::DeviceProfile;
use crate::energy::EnergyReport;
use crate::network::NetworkLink;
use mea_metrics::Histogram;
use meanet::ExitPoint;
use serde::{Deserialize, Serialize};

/// Static parameters of a virtual-clock simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Edge device profile.
    pub edge: DeviceProfile,
    /// Cloud device profile.
    pub cloud: DeviceProfile,
    /// Uplink model.
    pub link: NetworkLink,
    /// MACs of the main block (every instance pays this).
    pub macs_main: u64,
    /// Extra MACs of the adaptive + extension path.
    pub macs_extension_extra: u64,
    /// MACs of the cloud network.
    pub macs_cloud: u64,
    /// Upload payload size in bytes for offloaded instances.
    pub payload_bytes: u64,
    /// Inter-arrival time of frames at the edge (s); 0 = all available at
    /// time zero (batch processing).
    pub arrival_interval_s: f64,
    /// Optional cooperative edge stage ahead of the radio (the
    /// virtual-clock counterpart of a multi-stage
    /// [`crate::partition::PlacementPlan`]): offloaded instances first
    /// ship a lossless activation over the intra-edge coop wire and run
    /// the peer stage on the pooled peer group, then enter the WAN radio
    /// queue as usual. `None` is the classic two-stage pipeline.
    pub coop: Option<CoopStage>,
}

/// The cooperative peer stage of a simulated multi-stage placement: one
/// intra-edge hop to a pooled peer group that executes part of the cloud
/// network's prefix before the WAN upload (see
/// [`crate::fleet::DeviceClass::coop_group`] for the serving-side
/// counterpart).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoopStage {
    /// Intra-edge wire to the peer group (FIFO, like the WAN radio).
    pub link: NetworkLink,
    /// Pooled profile of the cooperating peer group (FIFO server).
    pub pooled: DeviceProfile,
    /// MACs the peer stage executes per offloaded instance.
    pub macs_peer: u64,
    /// Activation bytes shipped to the peer (always the lossless f32
    /// codec, whatever the WAN wire carries).
    pub peer_payload_bytes: u64,
}

/// Per-instance timing from the virtual-clock simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceTiming {
    /// Arrival time (s).
    pub arrival_s: f64,
    /// Completion time — when the final label is available at the edge (s).
    pub completion_s: f64,
}

impl InstanceTiming {
    /// End-to-end latency (s).
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// Aggregate simulation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-instance timings in arrival order.
    pub timings: Vec<InstanceTiming>,
    /// Completion time of the last instance (s).
    pub makespan_s: f64,
    /// Mean end-to-end latency (s).
    pub mean_latency_s: f64,
    /// 95th-percentile end-to-end latency (s).
    pub p95_latency_s: f64,
    /// Edge energy split (compute + communication).
    pub energy: EnergyReport,
}

/// Runs the virtual-clock simulation for a route sequence (one
/// [`ExitPoint`] per instance, e.g. from Algorithm-2 records).
///
/// # Panics
///
/// Panics if `routes` is empty.
pub fn simulate(cfg: &SimConfig, routes: &[ExitPoint]) -> SimReport {
    assert!(!routes.is_empty(), "nothing to simulate");
    let mut edge_free = 0.0f64;
    let mut peer_radio_free = 0.0f64;
    let mut peer_free = 0.0f64;
    let mut radio_free = 0.0f64;
    let mut cloud_free = 0.0f64;
    let mut energy = EnergyReport::default();
    let mut timings = Vec::with_capacity(routes.len());

    let t_main = cfg.edge.latency_s(cfg.macs_main);
    let t_ext = cfg.edge.latency_s(cfg.macs_extension_extra);
    let t_up = cfg.link.upload_time_s(cfg.payload_bytes);
    let t_cloud = cfg.cloud.latency_s(cfg.macs_cloud);

    for (i, route) in routes.iter().enumerate() {
        let arrival = i as f64 * cfg.arrival_interval_s;
        // Main block on the edge GPU (FIFO).
        let start_edge = edge_free.max(arrival);
        let mut done = start_edge + t_main;
        energy.compute_j += cfg.edge.compute_energy_j(cfg.macs_main);
        match route {
            ExitPoint::Main => {
                edge_free = done;
            }
            ExitPoint::Extension => {
                done += t_ext;
                energy.compute_j += cfg.edge.compute_energy_j(cfg.macs_extension_extra);
                edge_free = done;
            }
            ExitPoint::Cloud => {
                // The edge GPU is released after the main block; the radio
                // and cloud pipelines run in parallel with later frames.
                // Propagation follows the repo-wide convention (rtt/2 per
                // leg, `NetworkLink::{uplink_leg_s, downlink_leg_s}`): the
                // radio is busy only for the serialisation time, the
                // payload arrives at the cloud after the uplink leg, and
                // the label is back at the edge after the downlink leg
                // (the simulator ships no response payload bytes).
                edge_free = done;
                // Optional cooperative peer stage: the activation crosses
                // the intra-edge coop wire (FIFO) and the pooled peer
                // group (FIFO) runs its share of the prefix before the
                // WAN radio sees the instance. The coop wire is paid like
                // the WAN (serialisation occupies the wire, rtt/2 for
                // propagation) and its upload energy is the edge's.
                if let Some(coop) = &cfg.coop {
                    let start_peer_up = peer_radio_free.max(done);
                    peer_radio_free = start_peer_up + coop.link.upload_time_s(coop.peer_payload_bytes);
                    energy.communication_j += coop.link.upload_energy_j(coop.peer_payload_bytes);
                    let at_peer = start_peer_up + coop.link.uplink_leg_s(coop.peer_payload_bytes);
                    let start_peer = peer_free.max(at_peer);
                    done = start_peer + coop.pooled.latency_s(coop.macs_peer);
                    peer_free = done;
                }
                let start_up = radio_free.max(done);
                radio_free = start_up + t_up;
                energy.communication_j += cfg.link.upload_energy_j(cfg.payload_bytes);
                let arrives = start_up + cfg.link.uplink_leg_s(cfg.payload_bytes);
                let start_cloud = cloud_free.max(arrives);
                let classified = start_cloud + t_cloud;
                cloud_free = classified;
                done = classified + cfg.link.downlink_leg_s(0);
            }
        }
        timings.push(InstanceTiming { arrival_s: arrival, completion_s: done });
    }

    let latencies: Vec<f64> = timings.iter().map(InstanceTiming::latency_s).collect();
    let makespan_s = timings.iter().map(|t| t.completion_s).fold(0.0, f64::max);
    let mean_latency_s = latencies.iter().sum::<f64>() / latencies.len() as f64;
    // Tail latency via the shared finely-binned histogram quantile (the
    // same estimator the serving runtime reports).
    let p95_latency_s = Histogram::of_nonnegative(&latencies, 4096).p95();
    SimReport { timings, makespan_s, mean_latency_s, p95_latency_s, energy }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            edge: DeviceProfile::new("edge", 10.0, 1e9),
            cloud: DeviceProfile::new("cloud", 100.0, 1e10),
            link: NetworkLink::wifi(8.0).with_rtt(0.01),
            macs_main: 1_000_000,          // 1 ms on edge
            macs_extension_extra: 500_000, // 0.5 ms
            macs_cloud: 10_000_000,        // 1 ms on cloud
            payload_bytes: 1000,           // 1 ms on the 1 MB/s link
            arrival_interval_s: 0.002,
            coop: None,
        }
    }

    #[test]
    fn main_exits_have_main_latency() {
        let report = simulate(&cfg(), &[ExitPoint::Main; 5]);
        // Interval (2 ms) exceeds service (1 ms): no queueing.
        for t in &report.timings {
            assert!((t.latency_s() - 0.001).abs() < 1e-9, "latency {}", t.latency_s());
        }
        assert_eq!(report.energy.communication_j, 0.0);
    }

    #[test]
    fn cloud_exits_pay_upload_and_rtt() {
        let report = simulate(&cfg(), &[ExitPoint::Cloud]);
        // 1 ms edge + 1 ms upload + 5 ms half-rtt + 1 ms cloud + 5 ms back.
        let expect = 0.001 + 0.001 + 0.005 + 0.001 + 0.005;
        assert!((report.timings[0].latency_s() - expect).abs() < 1e-9);
        assert!(report.energy.communication_j > 0.0);
    }

    #[test]
    fn rtt_convention_is_shared_across_paths() {
        // Cross-path check of the one documented RTT convention: an
        // uncontended cloud exit's simulated latency is exactly the edge
        // compute plus the two `NetworkLink` legs plus the cloud compute —
        // the same leg helpers the closed-form `round_trip_s` sums and the
        // serving runtime sleeps, so all three charge identically.
        let c = cfg();
        let report = simulate(&c, &[ExitPoint::Cloud]);
        let legs = c.link.uplink_leg_s(c.payload_bytes) + c.link.downlink_leg_s(0);
        let expect = c.edge.latency_s(c.macs_main) + legs + c.cloud.latency_s(c.macs_cloud);
        assert!((report.timings[0].latency_s() - expect).abs() < 1e-12);
        // The closed form agrees with the legs it is built from.
        assert!((c.link.round_trip_s(c.payload_bytes, 0) - legs).abs() < 1e-15);
    }

    #[test]
    fn queueing_appears_when_arrivals_outpace_service() {
        let mut c = cfg();
        c.arrival_interval_s = 0.0005; // 0.5 ms arrivals vs 1 ms service
        let report = simulate(&c, &[ExitPoint::Main; 10]);
        let first = report.timings.first().unwrap().latency_s();
        let last = report.timings.last().unwrap().latency_s();
        assert!(last > first * 3.0, "queueing should build up: {first} vs {last}");
    }

    #[test]
    fn extension_exits_occupy_edge_longer() {
        let base = simulate(&cfg(), &[ExitPoint::Main; 4]);
        let ext = simulate(&cfg(), &[ExitPoint::Extension; 4]);
        assert!(ext.mean_latency_s > base.mean_latency_s);
        assert!(ext.energy.compute_j > base.energy.compute_j);
    }

    #[test]
    fn cloud_offload_overlaps_with_edge_work() {
        // While instance 0 is in flight to the cloud, instance 1 should
        // complete at the edge: pipeline parallelism.
        let report = simulate(&cfg(), &[ExitPoint::Cloud, ExitPoint::Main]);
        let t_cloud = report.timings[0].completion_s;
        let t_main = report.timings[1].completion_s;
        assert!(t_main < t_cloud, "edge work should overlap offload");
    }

    #[test]
    fn coop_stage_prices_peer_hop_before_radio() {
        let mut c = cfg();
        c.coop = Some(CoopStage {
            link: NetworkLink::wifi(80.0).with_rtt(0.002),
            pooled: DeviceProfile::new("pooled", 10.0, 3e9),
            macs_peer: 3_000_000, // 1 ms on the 3× pool
            peer_payload_bytes: 10_000,
        });
        let coop = c.coop.as_ref().unwrap().clone();
        let report = simulate(&c, &[ExitPoint::Cloud]);
        // Edge main + coop leg + peer compute + WAN upload leg + cloud +
        // downlink leg, each from the same helpers the closed form uses.
        let expect = c.edge.latency_s(c.macs_main)
            + coop.link.uplink_leg_s(coop.peer_payload_bytes)
            + coop.pooled.latency_s(coop.macs_peer)
            + c.link.uplink_leg_s(c.payload_bytes)
            + c.cloud.latency_s(c.macs_cloud)
            + c.link.downlink_leg_s(0);
        assert!((report.timings[0].latency_s() - expect).abs() < 1e-9, "got {}", report.timings[0].latency_s());
        // The coop wire's energy lands in the communication bucket.
        let solo = simulate(&cfg(), &[ExitPoint::Cloud]);
        assert!(report.energy.communication_j > solo.energy.communication_j);
    }

    #[test]
    fn coop_stage_only_affects_cloud_exits() {
        let mut c = cfg();
        c.coop = Some(CoopStage {
            link: NetworkLink::wifi(80.0).with_rtt(0.002),
            pooled: DeviceProfile::new("pooled", 10.0, 3e9),
            macs_peer: 3_000_000,
            peer_payload_bytes: 10_000,
        });
        let with = simulate(&c, &[ExitPoint::Main, ExitPoint::Extension]);
        let without = simulate(&cfg(), &[ExitPoint::Main, ExitPoint::Extension]);
        assert_eq!(with.timings, without.timings, "local exits never touch the coop stage");
    }
}
