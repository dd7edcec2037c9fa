//! The four frozen workloads: what each stresses, its offload share, its
//! load shape and its latency limits, and the serving configuration each
//! runs under.
//!
//! Every number here is frozen: it was measured once on the commit that
//! introduced the benchmark (the calibration sittings of `README.md`) and
//! is never recomputed at run time, so a slower program gets the same offered
//! load and the same limits. Every run prints its saturated throughput as
//! a share of `frozen_rps`, and `paced_hz` as a share of that throughput.

use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::partition::Objective;
use mea_edgecloud::serve::{
    ControlPlan, ControllerConfig, CutPlannerConfig, FeatureWire, LinkFeedback, ServeConfig, ServeConfigError,
};
use mea_edgecloud::{TransportKind, UdsConfig};
use meanet::{OffloadPolicy, SweepPayload, ThresholdController};

/// Devices the requests of every workload come from.
pub const DEVICES: usize = 8;
/// Rounds of (saturated chunk, paced window) measured per run.
pub const ROUNDS: usize = 12;
/// Cloud-network cut layer of the static split: the edge runs the stem and
/// the first stage, the cloud resumes at the first down-sampling stage.
pub const SPLIT_CUT: usize = 5;
/// Share of `--seconds` one saturated chunk is sized for.
const SATURATED_SHARE: f64 = 0.03;
/// Share of `--seconds` one paced window lasts.
const PACED_SHARE: f64 = 0.05;

/// How offloads cross to the cloud, and who steers the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// f32 image payloads over the modelled transport, no link model.
    Image,
    /// Static cut, int8 activations over a real Unix-socket transport.
    SplitInt8Uds,
    /// Closed-loop planned cuts and a threshold controller over a
    /// modelled WiFi link.
    WifiClosedLoop,
}

/// One frozen workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Share of the request pool the calibrated threshold offloads.
    pub beta: f64,
    /// The offload path.
    pub path: Path,
    /// Cloud worker threads.
    pub cloud_workers: usize,
    /// Saturated throughput of the calibration sittings (the mean of their
    /// three medians, rounded to 10; 1/s): sizes the saturated chunk so it
    /// lasts `SATURATED_SHARE` of the run.
    pub frozen_rps: f64,
    /// Open-loop arrival rate of the paced windows (1/s): 30 % of
    /// `frozen_rps`, rounded to 10, so that latency is service time, not
    /// queueing. `wifi_closedloop` is paced at 25 %: its two cloud workers
    /// sleep a 15 ms modelled round trip per batch, and 230 Hz already
    /// keeps them half busy.
    pub paced_hz: f64,
    /// Latency limit of main- and extension-exit completions (ms), about
    /// 3.5 times the calibration sittings' extension-exit p50 (the slower
    /// of the two).
    pub local_limit_ms: f64,
    /// Latency limit of cloud completions (ms), about 3.5 times the
    /// calibration sittings' p50 (3 times on `wifi_closedloop`, where
    /// 15 ms of it is the modelled link and does not vary).
    pub cloud_limit_ms: f64,
}

/// The modelled WiFi link of `wifi_closedloop`: the paper's 18.88 Mb/s
/// uplink with a 14 ms round trip, which keeps cloud exits link-bound
/// (over 70 % of their p50) even in this host's slow spells.
pub fn wifi_link() -> NetworkLink {
    NetworkLink::wifi(18.88).with_rtt(0.014)
}

/// The edge device the closed-loop planner scores cuts for: a quarter of
/// the cloud's rate. No layer of the cloud network before its head is
/// smaller than the 16x16 input, so with any edge slower than the cloud
/// the planner keeps cut 0 and ships the image; what `wifi_closedloop`
/// exercises is the loop around that decision, not a moving cut.
pub fn planner_edge() -> DeviceProfile {
    DeviceProfile::new("edge cpu", 5.0, 1e9)
}

/// The cloud device the closed-loop planner scores cuts for.
pub fn planner_cloud() -> DeviceProfile {
    DeviceProfile::new("cloud cpu", 100.0, 4e9)
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edge_local",
        why: "10% offload, image payload, no link: batch-1 edge forwards and runtime hand-off are nearly all \
              the work; bypass workload for cloud, codec and transport changes",
        beta: 0.10,
        path: Path::Image,
        cloud_workers: 1,
        frozen_rps: 1090.0,
        paced_hz: 330.0,
        local_limit_ms: 4.5,
        cloud_limit_ms: 10.0,
    },
    Workload {
        name: "cloud_batch",
        why: "75% offload, image payload, max_batch 8: cloud forward and dynamic batching dominate; batches \
              form when saturated and are 1 when paced",
        beta: 0.75,
        path: Path::Image,
        cloud_workers: 1,
        frozen_rps: 620.0,
        paced_hz: 190.0,
        local_limit_ms: 4.5,
        cloud_limit_ms: 10.0,
    },
    Workload {
        name: "split_int8_uds",
        why: "50% offload, static cut, int8 activations over Unix sockets: prefix+suffix forwards, quant wire \
              codec, framing and real socket syscalls carry weight only here",
        beta: 0.50,
        path: Path::SplitInt8Uds,
        cloud_workers: 1,
        frozen_rps: 680.0,
        paced_hz: 200.0,
        local_limit_ms: 4.5,
        cloud_limit_ms: 10.0,
    },
    Workload {
        name: "wifi_closedloop",
        why: "30% offload steered by a threshold controller, closed-loop planner (it keeps cut 0), modelled \
              WiFi link, 2 cloud workers: cloud exits are link-bound; estimator, planner and policy lock run \
              per batch",
        beta: 0.30,
        path: Path::WifiClosedLoop,
        cloud_workers: 2,
        frozen_rps: 920.0,
        paced_hz: 230.0,
        local_limit_ms: 4.5,
        cloud_limit_ms: 60.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Requests in one saturated chunk of a `seconds`-long run. A pure
    /// function of the frozen rate, so it is identical on every commit.
    pub fn saturated_requests(&self, seconds: f64) -> usize {
        ((self.frozen_rps * SATURATED_SHARE * seconds).round() as usize).max(DEVICES)
    }

    /// Requests in one paced window of a `seconds`-long run.
    pub fn paced_requests(&self, seconds: f64) -> usize {
        ((self.paced_hz * PACED_SHARE * seconds).round() as usize).max(DEVICES)
    }

    /// Whether edge replicas must carry a cloud-prefix replica.
    pub fn ships_features(&self) -> bool {
        self.path != Path::Image
    }

    /// The offline sweep whose cloud leg matches this workload's wire.
    /// Lossless f32 payloads — pixels, or activations at whichever cut the
    /// planner picks — all reduce to the cloud's full forward.
    pub fn sweep_payload(&self) -> SweepPayload {
        match self.path {
            Path::Image | Path::WifiClosedLoop => SweepPayload::Pixels,
            Path::SplitInt8Uds => SweepPayload::QuantFeatures { cut: SPLIT_CUT },
        }
    }

    /// The transport offloads cross.
    pub fn transport(&self) -> TransportKind {
        match self.path {
            Path::SplitInt8Uds => TransportKind::Uds(UdsConfig::default()),
            Path::Image | Path::WifiClosedLoop => TransportKind::Modelled,
        }
    }

    /// The modelled link offloads pay, if any.
    pub fn link(&self) -> Option<NetworkLink> {
        (self.path == Path::WifiClosedLoop).then(wifi_link)
    }

    /// The serving configuration at entropy `threshold` (calibrated to
    /// offload `beta` of the pool; where a controller steers, its start).
    pub fn serve_config(&self, threshold: f32) -> Result<ServeConfig, ServeConfigError> {
        let builder = ServeConfig::builder(OffloadPolicy::EntropyThreshold(threshold))
            .edge_workers(1)
            .cloud_workers(self.cloud_workers)
            .max_batch(8)
            .queue_depth(8)
            .transport(self.transport());
        match self.path {
            Path::Image => builder,
            Path::SplitInt8Uds => {
                builder.control(ControlPlan::Static { cut: SPLIT_CUT, wire: FeatureWire::Int8, controller: None })
            }
            Path::WifiClosedLoop => builder.link(wifi_link()).control(ControlPlan::ClosedLoop {
                planner: CutPlannerConfig {
                    classes: vec![planner_edge()],
                    cloud: planner_cloud(),
                    objective: Objective::Latency,
                    feedback: None,
                },
                feedback: LinkFeedback::default(),
                wire: FeatureWire::F32,
                controller: Some(ControllerConfig {
                    controller: ThresholdController::new(threshold, self.beta, 1.0, (0.0, 2.0)),
                    window: 32,
                }),
            }),
        }
        .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_works() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(Workload::by_name(w.name), Some(w));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why must be one line of <= 200 chars",
                w.name
            );
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn paced_rate_is_frozen_near_thirty_percent_and_rounded_to_ten() {
        for w in &WORKLOADS {
            let share = w.paced_hz / w.frozen_rps;
            assert!((0.25..=0.32).contains(&share), "{}: paced at {share:.2} of saturation", w.name);
            assert_eq!(w.paced_hz % 10.0, 0.0, "{}: paced_hz rounded to 10", w.name);
            assert_eq!(w.frozen_rps % 10.0, 0.0, "{}: frozen_rps rounded to 10", w.name);
        }
    }

    #[test]
    fn chunk_sizes_scale_with_seconds_only() {
        let w = &WORKLOADS[0];
        assert_eq!(w.saturated_requests(40.0), 2 * w.saturated_requests(20.0));
        assert_eq!(w.paced_requests(40.0), 2 * w.paced_requests(20.0));
        assert!(w.saturated_requests(0.001) >= DEVICES);
    }

    #[test]
    fn every_configuration_passes_the_builder() {
        for w in &WORKLOADS {
            let cfg = w.serve_config(0.5);
            assert!(cfg.is_ok(), "{}: {:?}", w.name, cfg.err());
        }
    }
}
