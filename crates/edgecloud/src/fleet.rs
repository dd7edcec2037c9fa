//! Heterogeneous device fleets: class registry and multi-device simulation.
//!
//! The paper's introduction motivates early exits with exactly this
//! pressure: *"the large amount of IoT devices would put significant
//! pressure on the cloud server to respond"*. This module quantifies that
//! claim — and models the fleet as it really is: **unequal**. A
//! [`FleetSpec`] names the device classes (per-class compute profile with
//! a high/medium/low [`ComputeTier`], optional per-class link prior) and
//! maps device ids onto them, either round-robin (the legacy
//! `device % classes` convention, preserved bit-for-bit by
//! [`FleetSpec::round_robin`]) or by explicit assignment, so sparse and
//! skewed device populations are first-class.
//!
//! Two consumers share the spec: the serving runtime
//! ([`crate::serve::Fleet`]) plans per-class cuts and reports per-class
//! stats from it, and the virtual-clock simulator here
//! ([`simulate_fleet`]) prices the same fleet analytically. Skew is
//! also why the runtime's cloud workers all read one lane instead of each
//! draining its own: a population whose devices collapse onto a few
//! lanes, exactly the regime a lopsided [`FleetSpec`] produces, would
//! otherwise idle every other cloud worker. In the
//! simulator each device runs its own FIFO pipeline
//! (edge compute, an optional cooperative peer hop, radio), while the
//! cloud is a shared pool of `cloud_servers` FIFO execution slots.
//! Offloaded jobs queue when all slots are busy, so cloud latency
//! degrades as the fleet grows or the offload fraction β rises — and
//! recovers when MEANet keeps more inference at the edge. This is what
//! backs the latency claims of §IV-B ("since more than 50% of data
//! inference have terminated at the edge, edge-cloud distributed
//! inference still has the advantage in latency"); a one-device fleet
//! is the paper's single edge-cloud pipeline.
//!
//! The simulation is a deterministic virtual-clock model: identical inputs
//! produce identical reports.

use crate::device::DeviceProfile;
use crate::energy::EnergyReport;
use crate::network::NetworkLink;
use crate::partition::PeerPool;
use meanet::ExitPoint;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

/// Relative compute capability of a device class.
///
/// Modelled on the high/medium/low node profiles of the adaptive-edge
/// exemplar (CPU shares 1.0 / 0.6 / 0.4): the tier scales the class's
/// base profile *throughput* by [`ComputeTier::throughput_factor`], so
/// every kernel latency scales by the inverse factor. `High` is the
/// identity tier — a `High`-tier class runs its base profile unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputeTier {
    /// Full-speed device (factor 1.0) — the base profile as written.
    High,
    /// Mid-range device at 0.6× the base throughput.
    Medium,
    /// Constrained device at 0.4× the base throughput.
    Low,
}

impl ComputeTier {
    /// Fraction of the base profile's `macs_per_sec` this tier sustains.
    pub fn throughput_factor(self) -> f64 {
        match self {
            ComputeTier::High => 1.0,
            ComputeTier::Medium => 0.6,
            ComputeTier::Low => 0.4,
        }
    }
}

/// One named class of devices in a heterogeneous fleet.
///
/// The class pairs a base [`DeviceProfile`] with a [`ComputeTier`] that
/// scales its throughput, and optionally a per-class [`NetworkLink`]
/// prior for fleets where classes sit on different radios (e.g. Wi-Fi
/// gateways next to LTE sensors). [`DeviceClass::effective_profile`] is
/// the profile consumers should plan and simulate with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceClass {
    /// Human-readable class name (reported in per-class stats).
    pub name: String,
    /// Base compute profile at the `High` tier.
    pub profile: DeviceProfile,
    /// Compute tier scaling the base profile's throughput.
    pub tier: ComputeTier,
    /// Link prior for this class, overriding the fleet-shared link in
    /// planning and simulation when set. `None` means the class uses the
    /// shared link model.
    pub link_prior: Option<NetworkLink>,
    /// Cooperative-group membership: `Some` when idle same-class
    /// neighbours pool compute behind a dedicated local wire, making a
    /// `Peer` placement stage available to this class (DistrEdge-style
    /// cooperative edge splitting). `None` means the class serves solo.
    pub coop: Option<CoopGroup>,
}

/// A cooperative group of same-class edge devices: `members` devices
/// pooling their tier-scaled throughput, reachable over a dedicated local
/// `link` (never the shared WAN uplink). A single-member group is legal
/// and structurally equivalent to serving solo — neither the placement
/// planner nor [`simulate_fleet`] prices a peer hop across one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoopGroup {
    /// Devices in the group (>= 1).
    pub members: usize,
    /// The dedicated local wire to the group.
    pub link: NetworkLink,
}

impl DeviceClass {
    /// A class running `profile` at `tier`, on the fleet-shared link.
    pub fn new(name: impl Into<String>, profile: DeviceProfile, tier: ComputeTier) -> Self {
        DeviceClass { name: name.into(), profile, tier, link_prior: None, coop: None }
    }

    /// Sets a per-class link prior (builder style).
    pub fn with_link_prior(mut self, link: NetworkLink) -> Self {
        self.link_prior = Some(link);
        self
    }

    /// Joins this class's devices into a cooperative group of `members`
    /// peers behind the dedicated local `link` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `members == 0`.
    pub fn coop_group(mut self, members: usize, link: NetworkLink) -> Self {
        assert!(members > 0, "a cooperative group needs at least one member");
        self.coop = Some(CoopGroup { members, link });
        self
    }

    /// The tier-scaled compute profile: base profile throughput times
    /// [`ComputeTier::throughput_factor`]. A `High`-tier class returns
    /// the base profile bit-for-bit.
    pub fn effective_profile(&self) -> DeviceProfile {
        self.profile.scaled_throughput(self.tier.throughput_factor())
    }

    /// The pooled peer resource of this class's cooperative group for the
    /// placement planner, stamped with this class's index: the group's
    /// tier-scaled throughput times its member count behind its local
    /// wire. `None` when the class serves solo.
    pub(crate) fn peer_pool(&self, class: usize) -> Option<PeerPool> {
        self.coop.map(|g| PeerPool {
            class,
            members: g.members,
            pooled: self.effective_profile().scaled_throughput(g.members as f64),
            link: g.link,
        })
    }
}

/// The device-class registry of a heterogeneous fleet: which classes
/// exist and which class each device id belongs to.
///
/// Devices not explicitly assigned fall back to round-robin over the
/// class list (`device % class_count`), so [`FleetSpec::round_robin`]
/// reproduces the legacy implicit convention exactly; explicit
/// [`FleetSpec::assign`] entries take precedence, which makes sparse or
/// skewed populations (ten `low` sensors per `high` gateway, device ids
/// with gaps) expressible without renumbering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    classes: Vec<DeviceClass>,
    assignment: BTreeMap<usize, usize>,
}

impl FleetSpec {
    /// A fleet assigning device `d` to class `d % classes.len()` — the
    /// exact legacy convention, kept as the compatibility anchor.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn round_robin(classes: Vec<DeviceClass>) -> Self {
        assert!(!classes.is_empty(), "a fleet needs at least one device class");
        FleetSpec { classes, assignment: BTreeMap::new() }
    }

    /// A homogeneous fleet: every device belongs to the one class.
    pub fn uniform(class: DeviceClass) -> Self {
        FleetSpec::round_robin(vec![class])
    }

    /// Pins device `device` to `class` (builder style), overriding the
    /// round-robin fallback for that id only.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not an index into the class list.
    pub fn assign(mut self, device: usize, class: usize) -> Self {
        assert!(class < self.classes.len(), "class {class} out of range ({} classes)", self.classes.len());
        self.assignment.insert(device, class);
        self
    }

    /// The registered device classes, in index order.
    pub(crate) fn classes(&self) -> &[DeviceClass] {
        &self.classes
    }

    /// Number of registered classes (always ≥ 1).
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The class index device `device` belongs to: its explicit
    /// assignment if pinned, else `device % class_count`.
    pub(crate) fn class_of(&self, device: usize) -> usize {
        self.assignment.get(&device).copied().unwrap_or(device % self.classes.len())
    }

    /// The class record device `device` belongs to.
    pub(crate) fn device_class(&self, device: usize) -> &DeviceClass {
        &self.classes[self.class_of(device)]
    }

    /// Tier-scaled compute profiles, one per class in index order — what
    /// the cut planner and the fleet simulator consume.
    pub(crate) fn effective_profiles(&self) -> Vec<DeviceProfile> {
        self.classes.iter().map(DeviceClass::effective_profile).collect()
    }

    /// Per-class link priors in index order (`None` = shared link).
    pub(crate) fn link_priors(&self) -> Vec<Option<NetworkLink>> {
        self.classes.iter().map(|c| c.link_prior).collect()
    }

    /// Per-class cooperative peer pools in index order (`None` = the
    /// class serves solo) — what
    /// [`crate::partition::CutPlanner::plan_placements_with_links`]
    /// consumes.
    pub fn peer_pools(&self) -> Vec<Option<PeerPool>> {
        self.classes.iter().enumerate().map(|(c, dc)| dc.peer_pool(c)).collect()
    }

    /// Device-sticky slot selection: maps a device id onto one of `n`
    /// serving resources (the edge workers' queues) such that
    /// one device always lands on the same slot. This is the single
    /// definition of the serving runtime's `device → slot` mapping.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn sticky_index(&self, device: usize, n: usize) -> usize {
        assert!(n > 0, "cannot pick among zero slots");
        device % n
    }
}

/// Static parameters of a fleet simulation. Who the devices are (their
/// compute, radio and cooperative group) comes from the [`FleetSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Cloud device profile (per server slot).
    pub cloud: DeviceProfile,
    /// Radio link per device (independent radios). Classes with a
    /// [`DeviceClass::link_prior`] override it.
    pub link: NetworkLink,
    /// Parallel execution slots at the cloud.
    pub cloud_servers: usize,
    /// MACs of the main block (every instance pays this at its device).
    pub macs_main: u64,
    /// Extra MACs of the adaptive + extension path.
    pub macs_extension_extra: u64,
    /// MACs of the cloud network per offloaded instance.
    pub macs_cloud: u64,
    /// Upload payload bytes per offloaded instance.
    pub payload_bytes: u64,
    /// MACs the cooperative peer stage runs per offloaded instance of a
    /// device whose class has a [`CoopGroup`] of two or more members.
    pub macs_peer: u64,
    /// Activation bytes such a device ships over its group's local wire
    /// (always the lossless f32 codec, whatever the WAN wire carries).
    pub peer_payload_bytes: u64,
}

/// Aggregate results of a fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Number of devices simulated.
    pub devices: usize,
    /// Total instances across the fleet.
    pub instances: usize,
    /// Mean end-to-end latency across all instances (s).
    pub mean_latency_s: f64,
    /// Median latency (s).
    pub p50_latency_s: f64,
    /// 95th-percentile latency (s).
    pub p95_latency_s: f64,
    /// 99th-percentile latency (s).
    pub p99_latency_s: f64,
    /// Completion time of the last instance (s).
    pub makespan_s: f64,
    /// Mean time offloaded jobs spent waiting for a free cloud slot (s).
    pub cloud_wait_mean_s: f64,
    /// Worst-case cloud queueing delay (s).
    pub cloud_wait_max_s: f64,
    /// Busy time across slots divided by `servers × makespan`.
    pub cloud_utilization: f64,
    /// Fleet-wide edge energy (compute + communication).
    pub energy: EnergyReport,
}

/// A job that reached the cloud ingress queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CloudJob {
    device: usize,
    index: usize,
    ready_s: f64,
}

/// Runs the fleet simulation. `routes[d]` is the per-instance exit
/// sequence of device `d` (e.g. from Algorithm-2 records) and
/// `arrivals[d][i]` is when instance `i` reaches device `d` (e.g. from
/// [`crate::traces::ArrivalModel`]); devices may have different instance
/// counts.
///
/// Device `d` computes with its class's tier-scaled profile and uploads
/// over its class's link prior (falling back to `cfg.link`), so the
/// virtual clock prices the same fleet the serving runtime schedules.
/// Each device's edge compute and radio are FIFO servers; an offload
/// crosses the radio, then half the RTT, queues FIFO for one of the
/// shared `cloud_servers` slots, and is back at the edge half an RTT
/// after the cloud finishes (no response payload bytes). A device whose
/// class has a [`CoopGroup`] of two or more members first pays the peer
/// hop of a multi-stage [`crate::partition::PlacementPlan`]: its own
/// FIFO local wire (serialisation, then half that wire's RTT, with the
/// upload energy charged to the edge) and its own FIFO pooled peer
/// (`DeviceClass::peer_pool`) running `cfg.macs_peer`. A one-member
/// group serves solo, as the placement planner treats it.
///
/// # Panics
///
/// Panics if `routes` is empty, any device has no instances,
/// `cfg.cloud_servers == 0`, or any arrival sequence has the wrong length
/// or decreases.
pub fn simulate_fleet(
    spec: &FleetSpec,
    cfg: &FleetConfig,
    routes: &[Vec<ExitPoint>],
    arrivals: &[Vec<f64>],
) -> FleetReport {
    assert!(!routes.is_empty(), "no devices to simulate");
    assert!(routes.iter().all(|r| !r.is_empty()), "every device needs at least one instance");
    assert!(cfg.cloud_servers > 0, "need at least one cloud server");
    assert_eq!(routes.len(), arrivals.len(), "one arrival trace per device");
    for (d, (r, a)) in routes.iter().zip(arrivals).enumerate() {
        assert_eq!(r.len(), a.len(), "device {d}: {} routes but {} arrivals", r.len(), a.len());
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "device {d}: arrival times must be non-decreasing");
    }

    let link_of = |d: usize| spec.device_class(d).link_prior.unwrap_or(cfg.link);
    let t_cloud = cfg.cloud.latency_s(cfg.macs_cloud);

    let mut energy = EnergyReport::default();
    // completion[d][i]: set for edge exits now, cloud exits after queueing.
    let mut completion: Vec<Vec<f64>> = routes.iter().map(|r| vec![0.0; r.len()]).collect();
    let mut cloud_jobs: Vec<CloudJob> = Vec::new();

    for (d, dev_routes) in routes.iter().enumerate() {
        let class = spec.class_of(d);
        let dc = &spec.classes()[class];
        let edge = dc.effective_profile();
        let link = link_of(d);
        let peer = dc.peer_pool(class).filter(|p| p.members >= 2);
        let t_main = edge.latency_s(cfg.macs_main);
        let t_ext = edge.latency_s(cfg.macs_extension_extra);
        let t_up = link.upload_time_s(cfg.payload_bytes);
        let half_rtt = link.rtt_s / 2.0;
        let mut edge_free = 0.0f64;
        let mut wire_free = 0.0f64;
        let mut peer_free = 0.0f64;
        let mut radio_free = 0.0f64;
        for (i, route) in dev_routes.iter().enumerate() {
            let arrival = arrivals[d][i];
            let start_edge = edge_free.max(arrival);
            let done_main = start_edge + t_main;
            energy.compute_j += edge.compute_energy_j(cfg.macs_main);
            match route {
                ExitPoint::Main => {
                    edge_free = done_main;
                    completion[d][i] = done_main;
                }
                ExitPoint::Extension => {
                    let done = done_main + t_ext;
                    energy.compute_j += edge.compute_energy_j(cfg.macs_extension_extra);
                    edge_free = done;
                    completion[d][i] = done;
                }
                ExitPoint::Cloud => {
                    edge_free = done_main;
                    let mut to_radio = done_main;
                    if let Some(pool) = &peer {
                        let start_wire = wire_free.max(done_main);
                        wire_free = start_wire + pool.link.upload_time_s(cfg.peer_payload_bytes);
                        energy.communication_j += pool.link.upload_energy_j(cfg.peer_payload_bytes);
                        let start_peer = peer_free.max(wire_free + pool.link.rtt_s / 2.0);
                        peer_free = start_peer + pool.pooled.latency_s(cfg.macs_peer);
                        to_radio = peer_free;
                    }
                    let start_up = radio_free.max(to_radio);
                    let uploaded = start_up + t_up;
                    radio_free = uploaded;
                    energy.communication_j += link.upload_energy_j(cfg.payload_bytes);
                    cloud_jobs.push(CloudJob { device: d, index: i, ready_s: uploaded + half_rtt });
                }
            }
        }
    }

    // Shared cloud: jobs are served FIFO in ready order across the fleet.
    cloud_jobs.sort_by(|a, b| {
        a.ready_s
            .partial_cmp(&b.ready_s)
            .expect("finite times")
            .then(a.device.cmp(&b.device))
            .then(a.index.cmp(&b.index))
    });
    let mut servers: BinaryHeap<Reverse<OrderedF64>> =
        (0..cfg.cloud_servers).map(|_| Reverse(OrderedF64(0.0))).collect();
    let mut wait_sum = 0.0f64;
    let mut wait_max = 0.0f64;
    let mut busy = 0.0f64;
    let n_cloud = cloud_jobs.len();
    for job in &cloud_jobs {
        let Reverse(OrderedF64(free)) = servers.pop().expect("non-empty server pool");
        let start = free.max(job.ready_s);
        let wait = start - job.ready_s;
        wait_sum += wait;
        wait_max = wait_max.max(wait);
        let finish = start + t_cloud;
        busy += t_cloud;
        servers.push(Reverse(OrderedF64(finish)));
        completion[job.device][job.index] = finish + link_of(job.device).rtt_s / 2.0;
    }

    let mut latencies: Vec<f64> = Vec::new();
    let mut makespan = 0.0f64;
    for d in 0..routes.len() {
        for i in 0..routes[d].len() {
            latencies.push(completion[d][i] - arrivals[d][i]);
            makespan = makespan.max(completion[d][i]);
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let pct = |p: f64| latencies[((latencies.len() as f64 * p) as usize).min(latencies.len() - 1)];
    let instances = latencies.len();

    FleetReport {
        devices: routes.len(),
        instances,
        mean_latency_s: latencies.iter().sum::<f64>() / instances as f64,
        p50_latency_s: pct(0.50),
        p95_latency_s: pct(0.95),
        p99_latency_s: pct(0.99),
        makespan_s: makespan,
        cloud_wait_mean_s: if n_cloud == 0 { 0.0 } else { wait_sum / n_cloud as f64 },
        cloud_wait_max_s: wait_max,
        cloud_utilization: if makespan > 0.0 { busy / (cfg.cloud_servers as f64 * makespan) } else { 0.0 },
        energy,
    }
}

/// Total-order wrapper for finite f64 times in the server heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite simulation times")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::ArrivalModel;
    use mea_tensor::Rng;

    fn edge() -> DeviceProfile {
        DeviceProfile::new("edge", 10.0, 1e9)
    }

    fn cfg(servers: usize) -> FleetConfig {
        FleetConfig {
            cloud: DeviceProfile::new("cloud", 100.0, 1e10),
            link: NetworkLink::wifi(8.0).with_rtt(0.01),
            cloud_servers: servers,
            macs_main: 1_000_000,          // 1 ms on edge
            macs_extension_extra: 500_000, // 0.5 ms
            macs_cloud: 10_000_000,        // 1 ms on cloud
            payload_bytes: 1000,           // 1 ms on the 1 MB/s link
            macs_peer: 0,
            peer_payload_bytes: 0,
        }
    }

    /// Every device is `edge()` at full speed on the shared link.
    fn uniform() -> FleetSpec {
        FleetSpec::uniform(DeviceClass::new("edge", edge(), ComputeTier::High))
    }

    /// One frame every `interval_s` on every device.
    fn paced_at(routes: &[Vec<ExitPoint>], interval_s: f64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(0);
        routes.iter().map(|r| ArrivalModel::Uniform { interval_s }.generate(r.len(), &mut rng)).collect()
    }

    fn paced(routes: &[Vec<ExitPoint>]) -> Vec<Vec<f64>> {
        paced_at(routes, 0.002)
    }

    /// The homogeneous fleet of `uniform()` devices, frames every 2 ms.
    fn run(f: &FleetConfig, routes: &[Vec<ExitPoint>]) -> FleetReport {
        simulate_fleet(&uniform(), f, routes, &paced(routes))
    }

    /// One `uniform()` device, frames every 2 ms.
    fn run_one(f: &FleetConfig, routes: &[ExitPoint]) -> FleetReport {
        run(f, &[routes.to_vec()])
    }

    fn mixed_routes(n: usize) -> Vec<ExitPoint> {
        (0..n)
            .map(|i| match i % 3 {
                0 => ExitPoint::Main,
                1 => ExitPoint::Extension,
                _ => ExitPoint::Cloud,
            })
            .collect()
    }

    fn tiered_spec() -> FleetSpec {
        FleetSpec::round_robin(vec![
            DeviceClass::new("high", edge(), ComputeTier::High),
            DeviceClass::new("medium", edge(), ComputeTier::Medium),
            DeviceClass::new("low", edge(), ComputeTier::Low),
        ])
    }

    /// `uniform()` devices in a cooperative group of three behind a fast
    /// local wire, the pool running 1 ms of peer work per offload.
    fn coop() -> (FleetSpec, FleetConfig) {
        let class = DeviceClass::new("edge", edge(), ComputeTier::High)
            .coop_group(3, NetworkLink::wifi(80.0).with_rtt(0.002));
        let f = FleetConfig { macs_peer: 3_000_000, peer_payload_bytes: 10_000, ..cfg(1) };
        (FleetSpec::uniform(class), f)
    }

    #[test]
    fn main_exits_have_main_latency() {
        let report = run_one(&cfg(1), &[ExitPoint::Main; 5]);
        // Interval (2 ms) exceeds service (1 ms): no queueing. No latency
        // is below the service time, so a mean and a maximum (the p99 of
        // five) of 1 ms mean every instance took 1 ms.
        assert!((report.mean_latency_s - 0.001).abs() < 1e-9, "mean {}", report.mean_latency_s);
        assert!((report.p99_latency_s - 0.001).abs() < 1e-9, "max {}", report.p99_latency_s);
        assert!((report.makespan_s - 0.009).abs() < 1e-9, "makespan {}", report.makespan_s);
        assert_eq!(report.energy.communication_j, 0.0);
    }

    #[test]
    fn cloud_exits_pay_upload_and_rtt() {
        let report = run_one(&cfg(1), &[ExitPoint::Cloud]);
        // 1 ms edge + 1 ms upload + 5 ms half-rtt + 1 ms cloud + 5 ms back.
        let expect = 0.001 + 0.001 + 0.005 + 0.001 + 0.005;
        assert!((report.mean_latency_s - expect).abs() < 1e-9);
        assert!(report.energy.communication_j > 0.0);
    }

    #[test]
    fn rtt_convention_is_shared_across_paths() {
        // Cross-path check of the one documented RTT convention: an
        // uncontended cloud exit's simulated latency is exactly the edge
        // compute plus the two `NetworkLink` legs plus the cloud compute.
        // The simulator charges rtt/2 per leg inline; the closed-form
        // `round_trip_s` and the serving runtime use the leg helpers, so
        // all three charge the same convention.
        let c = cfg(1);
        let report = run_one(&c, &[ExitPoint::Cloud]);
        let legs = c.link.uplink_leg_s(c.payload_bytes) + c.link.downlink_leg_s(0);
        let expect = edge().latency_s(c.macs_main) + legs + c.cloud.latency_s(c.macs_cloud);
        assert!((report.mean_latency_s - expect).abs() < 1e-12);
        // The closed form agrees with the legs it is built from.
        assert!((c.link.round_trip_s(c.payload_bytes, 0) - legs).abs() < 1e-15);
    }

    #[test]
    fn queueing_appears_when_arrivals_outpace_service() {
        // 0.5 ms arrivals vs 1 ms service: the last of ten instances (the
        // p99 of ten) waits behind the others; the first waits for none.
        let routes = vec![vec![ExitPoint::Main; 10]];
        let report = simulate_fleet(&uniform(), &cfg(1), &routes, &paced_at(&routes, 0.0005));
        let first = run_one(&cfg(1), &[ExitPoint::Main]).mean_latency_s;
        let last = report.p99_latency_s;
        assert!(last > first * 3.0, "queueing should build up: {first} vs {last}");
    }

    #[test]
    fn extension_exits_occupy_edge_longer() {
        let base = run_one(&cfg(1), &[ExitPoint::Main; 4]);
        let ext = run_one(&cfg(1), &[ExitPoint::Extension; 4]);
        assert!(ext.mean_latency_s > base.mean_latency_s);
        assert!(ext.energy.compute_j > base.energy.compute_j);
    }

    #[test]
    fn cloud_offload_overlaps_with_edge_work() {
        // While instance 0 is in flight to the cloud, instance 1 should
        // complete at the edge: pipeline parallelism. The pair ends when
        // the offload alone ends, and the main exit pays only its own
        // service time.
        let c = cfg(1);
        let pair = run_one(&c, &[ExitPoint::Cloud, ExitPoint::Main]);
        let offload = run_one(&c, &[ExitPoint::Cloud]);
        assert_eq!(pair.makespan_s, offload.makespan_s, "edge work should overlap offload");
        let t_main = edge().latency_s(c.macs_main);
        assert!((2.0 * pair.mean_latency_s - offload.mean_latency_s - t_main).abs() < 1e-12);
        assert!(0.002 + t_main < offload.makespan_s, "the main exit completes first");
    }

    #[test]
    fn coop_stage_prices_peer_hop_before_radio() {
        let (spec, c) = coop();
        let pool = spec.classes()[0].peer_pool(0).expect("grouped class");
        let report = simulate_fleet(&spec, &c, &[vec![ExitPoint::Cloud]], &[vec![0.0]]);
        // Edge main + coop leg + peer compute + WAN upload leg + cloud +
        // downlink leg, each from the same helpers the closed form uses.
        let expect = edge().latency_s(c.macs_main)
            + pool.link.uplink_leg_s(c.peer_payload_bytes)
            + pool.pooled.latency_s(c.macs_peer)
            + c.link.uplink_leg_s(c.payload_bytes)
            + c.cloud.latency_s(c.macs_cloud)
            + c.link.downlink_leg_s(0);
        assert!((report.mean_latency_s - expect).abs() < 1e-9, "got {}", report.mean_latency_s);
        // The coop wire's energy lands in the communication bucket.
        let solo = run_one(&c, &[ExitPoint::Cloud]);
        assert!(report.energy.communication_j > solo.energy.communication_j);
    }

    #[test]
    fn coop_stage_only_affects_cloud_exits() {
        let (spec, c) = coop();
        let routes = vec![vec![ExitPoint::Main, ExitPoint::Extension]];
        let with = simulate_fleet(&spec, &c, &routes, &paced(&routes));
        let without = run(&cfg(1), &routes);
        assert_eq!(with, without, "local exits never touch the coop stage");
    }

    #[test]
    fn one_member_coop_group_is_solo() {
        // A one-member group is no group: the planner never scores a peer
        // hop across one device, and the simulator charges none.
        let (_, c) = coop();
        let alone = FleetSpec::uniform(
            DeviceClass::new("edge", edge(), ComputeTier::High).coop_group(1, NetworkLink::wifi(80.0)),
        );
        let routes: Vec<Vec<ExitPoint>> = (0..3).map(|d| mixed_routes(9 + d)).collect();
        let arrivals = paced(&routes);
        assert_eq!(
            simulate_fleet(&alone, &c, &routes, &arrivals),
            simulate_fleet(&uniform(), &c, &routes, &arrivals)
        );
    }

    #[test]
    fn single_device_matches_pipeline_simulator() {
        // Regression anchor for folding the single-pipeline simulator into
        // this one: these literals are what that simulator (FIFO edge,
        // radio, optional coop wire and pooled peer, and cloud) gave for
        // the same inputs, so a one-device fleet still prices them.
        let close = |got: f64, want: f64| ((got - want) / want).abs() < 1e-12;
        let check = |r: &FleetReport, mean: f64, makespan: f64, energy: f64| {
            assert!(close(r.mean_latency_s, mean), "mean {:?} vs {mean:?}", r.mean_latency_s);
            assert!(close(r.makespan_s, makespan), "makespan {:?} vs {makespan:?}", r.makespan_s);
            assert!(close(r.energy.total_j(), energy), "energy {:?} vs {energy:?}", r.energy.total_j());
        };
        check(
            &run_one(&cfg(1), &mixed_routes(12)),
            0.0051666666666666675,
            0.034999999999999996,
            0.14959287999999998,
        );

        // `examples/fleet_simulation.rs`'s cooperative comparison: one
        // Low-tier device on a 2 Mbps uplink, offloading everything.
        let low = DeviceClass::new("low", DeviceProfile::edge_jetson_like(), ComputeTier::Low);
        let solo = FleetConfig {
            cloud: DeviceProfile::cloud_accelerator(),
            link: NetworkLink::wifi(2.0),
            cloud_servers: 1,
            macs_main: 70_000_000,
            macs_extension_extra: 30_000_000,
            macs_cloud: 2_000_000_000,
            payload_bytes: 3072,
            macs_peer: 0,
            peer_payload_bytes: 0,
        };
        let coop = FleetConfig {
            macs_cloud: 1_000_000_000,
            payload_bytes: 512,
            macs_peer: 1_000_000_000,
            peer_payload_bytes: 4096,
            ..solo.clone()
        };
        let routes = vec![vec![ExitPoint::Cloud; 40]];
        let arrivals = paced_at(&routes, 0.005);
        let r_solo = simulate_fleet(&FleetSpec::uniform(low.clone()), &solo, &routes, &arrivals);
        check(&r_solo, 0.15625400000000006, 0.4933700000000003, 1.043670784);
        let grouped = FleetSpec::uniform(low.coop_group(3, NetworkLink::wifi(400.0)));
        let r_coop = simulate_fleet(&grouped, &coop, &routes, &arrivals);
        check(&r_coop, 0.07726325333333335, 0.33726325333333357, 1.1288704020479994);
    }

    #[test]
    fn growing_the_fleet_congests_the_cloud() {
        let f = cfg(1);
        let routes_small: Vec<Vec<ExitPoint>> = (0..2).map(|_| vec![ExitPoint::Cloud; 10]).collect();
        let routes_big: Vec<Vec<ExitPoint>> = (0..16).map(|_| vec![ExitPoint::Cloud; 10]).collect();
        let small = run(&f, &routes_small);
        let big = run(&f, &routes_big);
        assert!(
            big.cloud_wait_mean_s > small.cloud_wait_mean_s,
            "16 devices must queue more than 2: {} vs {}",
            big.cloud_wait_mean_s,
            small.cloud_wait_mean_s
        );
        assert!(big.p95_latency_s > small.p95_latency_s);
    }

    #[test]
    fn more_servers_relieve_contention() {
        let routes: Vec<Vec<ExitPoint>> = (0..12).map(|_| vec![ExitPoint::Cloud; 8]).collect();
        let one = run(&cfg(1), &routes);
        let eight = run(&cfg(8), &routes);
        assert!(eight.cloud_wait_mean_s < one.cloud_wait_mean_s);
        assert!(eight.mean_latency_s < one.mean_latency_s);
    }

    #[test]
    fn edge_exits_are_immune_to_fleet_size() {
        let routes_a: Vec<Vec<ExitPoint>> = (0..1).map(|_| vec![ExitPoint::Main; 10]).collect();
        let routes_b: Vec<Vec<ExitPoint>> = (0..32).map(|_| vec![ExitPoint::Main; 10]).collect();
        let a = run(&cfg(1), &routes_a);
        let b = run(&cfg(1), &routes_b);
        assert!(
            (a.mean_latency_s - b.mean_latency_s).abs() < 1e-12,
            "edge-only latency must not depend on fleet size"
        );
        assert_eq!(b.cloud_utilization, 0.0);
        assert_eq!(b.cloud_wait_max_s, 0.0);
    }

    #[test]
    fn early_exits_relieve_the_cloud() {
        // Same fleet, two policies: offload everything vs offload a third.
        let all_cloud: Vec<Vec<ExitPoint>> = (0..8).map(|_| vec![ExitPoint::Cloud; 9]).collect();
        let meanet: Vec<Vec<ExitPoint>> = (0..8).map(|_| mixed_routes(9)).collect();
        let heavy = run(&cfg(1), &all_cloud);
        let light = run(&cfg(1), &meanet);
        assert!(light.cloud_wait_mean_s < heavy.cloud_wait_mean_s);
        assert!(light.mean_latency_s < heavy.mean_latency_s);
        assert!(light.energy.communication_j < heavy.energy.communication_j);
    }

    #[test]
    fn deterministic_across_runs() {
        let routes: Vec<Vec<ExitPoint>> = (0..5).map(|d| mixed_routes(7 + d)).collect();
        let a = run(&cfg(2), &routes);
        let b = run(&cfg(2), &routes);
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_are_ordered() {
        let routes: Vec<Vec<ExitPoint>> = (0..6).map(|_| mixed_routes(20)).collect();
        let r = run(&cfg(2), &routes);
        assert!(r.p50_latency_s <= r.p95_latency_s);
        assert!(r.p95_latency_s <= r.p99_latency_s);
        assert!(r.p99_latency_s <= r.makespan_s + 1e-12);
        assert!(r.cloud_utilization > 0.0 && r.cloud_utilization <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one cloud server")]
    fn zero_servers_rejected() {
        let mut f = cfg(1);
        f.cloud_servers = 0;
        let _ = run(&f, &[vec![ExitPoint::Main]]);
    }

    #[test]
    fn bursty_arrivals_inflate_tail_latency_at_equal_mean_rate() {
        let f = cfg(1);
        let n = 60;
        let routes: Vec<Vec<ExitPoint>> = (0..4).map(|_| vec![ExitPoint::Cloud; n]).collect();
        let uniform_model = ArrivalModel::Uniform { interval_s: 0.004 };
        // Same mean interval (3·0 + 0.016)/4 = 0.004 s, but 4-deep bursts.
        let bursty = ArrivalModel::Bursty { burst_len: 4, intra_s: 0.0, gap_s: 0.016 };
        assert!((uniform_model.mean_interval_s() - bursty.mean_interval_s()).abs() < 1e-12);
        let mut rng = Rng::new(0);
        let ua: Vec<Vec<f64>> = (0..4).map(|_| uniform_model.generate(n, &mut rng)).collect();
        let ba: Vec<Vec<f64>> = (0..4).map(|_| bursty.generate(n, &mut rng)).collect();
        let u = simulate_fleet(&uniform(), &f, &routes, &ua);
        let b = simulate_fleet(&uniform(), &f, &routes, &ba);
        assert!(
            b.p95_latency_s > u.p95_latency_s,
            "bursts must hurt the tail: {} vs {}",
            b.p95_latency_s,
            u.p95_latency_s
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_arrivals_rejected() {
        let f = cfg(1);
        let _ = simulate_fleet(&uniform(), &f, &[vec![ExitPoint::Main; 2]], &[vec![1.0, 0.5]]);
    }

    #[test]
    fn tier_factors_are_reciprocal() {
        // A tier's kernel-latency multiplier is the reciprocal of its
        // throughput factor.
        let base = DeviceProfile::new("edge", 10.0, 1e9);
        for tier in [ComputeTier::High, ComputeTier::Medium, ComputeTier::Low] {
            let scaled = DeviceClass::new("c", base.clone(), tier).effective_profile();
            let latency_factor = scaled.latency_s(1_000_000) / base.latency_s(1_000_000);
            assert!((tier.throughput_factor() * latency_factor - 1.0).abs() < 1e-12);
        }
        assert_eq!(ComputeTier::High.throughput_factor(), 1.0);
        assert!(ComputeTier::Medium.throughput_factor() > ComputeTier::Low.throughput_factor());
    }

    #[test]
    fn effective_profile_scales_latency_by_the_tier() {
        let base = DeviceProfile::new("edge", 10.0, 1e9);
        let low = DeviceClass::new("low", base.clone(), ComputeTier::Low).effective_profile();
        let high = DeviceClass::new("high", base.clone(), ComputeTier::High).effective_profile();
        assert_eq!(high, base, "High tier is the identity");
        let macs = 1_000_000u64;
        let ratio = low.latency_s(macs) / base.latency_s(macs);
        assert!((ratio - 2.5).abs() < 1e-9, "Low runs 2.5x slower: {ratio}");
    }

    #[test]
    fn round_robin_matches_the_legacy_modulo_convention() {
        let spec = tiered_spec();
        for d in 0..30 {
            assert_eq!(spec.class_of(d), d % 3);
        }
    }

    #[test]
    fn explicit_assignment_overrides_round_robin() {
        // A skewed population: one gateway, everything else pinned low —
        // including a sparse id far past the class count.
        let spec = tiered_spec().assign(0, 0).assign(1, 2).assign(2, 2).assign(1000, 2);
        assert_eq!(spec.class_of(0), 0);
        assert_eq!(spec.class_of(1), 2);
        assert_eq!(spec.class_of(2), 2);
        assert_eq!(spec.class_of(1000), 2);
        // Unpinned ids still fall back to round-robin.
        assert_eq!(spec.class_of(4), 1);
        assert_eq!(spec.device_class(1000).name, "low");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignment_to_unknown_class_rejected() {
        let _ = tiered_spec().assign(0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one device class")]
    fn empty_class_list_rejected() {
        let _ = FleetSpec::round_robin(Vec::new());
    }

    #[test]
    fn identity_spec_reproduces_the_homogeneous_fleet_exactly() {
        // The regression anchor for the simulator port: a spec whose every
        // class is the shared profile at High tier with no link prior must
        // be bit-identical to the one-class fleet.
        let f = cfg(2);
        let spec = FleetSpec::round_robin(vec![
            DeviceClass::new("a", edge(), ComputeTier::High),
            DeviceClass::new("b", edge(), ComputeTier::High),
        ]);
        let routes: Vec<Vec<ExitPoint>> = (0..5).map(|d| mixed_routes(7 + d)).collect();
        let homogeneous = run(&f, &routes);
        let spec_report = simulate_fleet(&spec, &f, &routes, &paced(&routes));
        assert_eq!(spec_report, homogeneous);
    }

    #[test]
    fn slower_tiers_raise_fleet_latency() {
        let f = cfg(2);
        let routes: Vec<Vec<ExitPoint>> = (0..6).map(|_| mixed_routes(12)).collect();
        let arrivals = paced(&routes);
        let high = simulate_fleet(&uniform(), &f, &routes, &arrivals);
        let low = simulate_fleet(
            &FleetSpec::uniform(DeviceClass::new("low", edge(), ComputeTier::Low)),
            &f,
            &routes,
            &arrivals,
        );
        assert!(
            low.mean_latency_s > high.mean_latency_s,
            "a 0.4x fleet must be slower: {} vs {}",
            low.mean_latency_s,
            high.mean_latency_s
        );
        // Compute energy rises too: the same MACs on a slower device draw
        // power for longer.
        assert!(low.energy.compute_j > high.energy.compute_j);
    }

    #[test]
    fn per_class_link_prior_overrides_the_shared_link() {
        let f = cfg(2);
        let slow_radio = NetworkLink::wifi(0.5).with_rtt(0.05);
        let routes: Vec<Vec<ExitPoint>> = (0..4).map(|_| vec![ExitPoint::Cloud; 8]).collect();
        let arrivals = paced(&routes);
        let shared = simulate_fleet(&uniform(), &f, &routes, &arrivals);
        let throttled = simulate_fleet(
            &FleetSpec::uniform(DeviceClass::new("edge", edge(), ComputeTier::High).with_link_prior(slow_radio)),
            &f,
            &routes,
            &arrivals,
        );
        assert!(
            throttled.mean_latency_s > shared.mean_latency_s,
            "a 0.5 Mbps class radio must hurt: {} vs {}",
            throttled.mean_latency_s,
            shared.mean_latency_s
        );
    }

    #[test]
    fn coop_group_pools_tier_scaled_throughput() {
        let base = DeviceProfile::new("low", 10.0, 1e9);
        let wire = NetworkLink::wifi(400.0);
        let class = DeviceClass::new("low", base.clone(), ComputeTier::Low).coop_group(3, wire);
        let pool = class.peer_pool(2).expect("grouped class exposes a pool");
        assert_eq!(pool.class, 2);
        assert_eq!(pool.members, 3);
        assert_eq!(pool.link, wire);
        // Pooled throughput = tier-scaled base times the member count.
        let expect = base.macs_per_sec * ComputeTier::Low.throughput_factor() * 3.0;
        assert!((pool.pooled.macs_per_sec - expect).abs() < 1e-6, "pooled rate {}", pool.pooled.macs_per_sec);
        // An ungrouped class has no pool.
        assert!(DeviceClass::new("solo", base, ComputeTier::Low).peer_pool(0).is_none());
    }

    #[test]
    fn fleet_spec_peer_pools_index_by_class() {
        let p = DeviceProfile::new("e", 10.0, 1e9);
        let spec = FleetSpec::round_robin(vec![
            DeviceClass::new("solo", p.clone(), ComputeTier::High),
            DeviceClass::new("grouped", p, ComputeTier::Medium).coop_group(2, NetworkLink::wifi(100.0)),
        ]);
        let pools = spec.peer_pools();
        assert_eq!(pools.len(), 2);
        assert!(pools[0].is_none());
        let pool = pools[1].as_ref().expect("class 1 is grouped");
        assert_eq!(pool.class, 1);
        assert_eq!(pool.members, 2);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_coop_group_rejected() {
        let _ = DeviceClass::new("e", DeviceProfile::new("e", 10.0, 1e9), ComputeTier::High)
            .coop_group(0, NetworkLink::wifi(100.0));
    }
}
