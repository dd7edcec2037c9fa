//! The wireless uplink model (paper §IV-B, after Huang et al., MobiSys'12
//! and Eshratifar & Pedram): `P_upload = 283.17 mW/Mbps · s + 132.86 mW`.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Linear throughput→power model of the uplink radio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UploadPowerModel {
    /// Milliwatts per Mbps of throughput.
    pub mw_per_mbps: f64,
    /// Baseline milliwatts while transmitting.
    pub base_mw: f64,
}

impl UploadPowerModel {
    /// The paper's WiFi coefficients.
    pub(crate) fn wifi() -> Self {
        UploadPowerModel { mw_per_mbps: 283.17, base_mw: 132.86 }
    }

    /// LTE uplink coefficients from the same measurement study the paper
    /// takes its WiFi model from (Huang et al., MobiSys'12, Table 4:
    /// `α_u = 438.39 mW/Mbps`, `β = 1288.04 mW`). LTE burns ~10× the idle
    /// baseline of WiFi, which is why cellular deployments want even
    /// fewer offloads.
    pub(crate) fn lte() -> Self {
        UploadPowerModel { mw_per_mbps: 438.39, base_mw: 1288.04 }
    }

    /// Upload power in watts at the given throughput.
    pub(crate) fn power_w(&self, throughput_mbps: f64) -> f64 {
        (self.mw_per_mbps * throughput_mbps + self.base_mw) / 1e3
    }
}

/// A link: uplink/downlink throughput plus the power model, with optional
/// propagation delay for the latency simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkLink {
    /// Sustained uplink throughput in Mbps.
    pub throughput_mbps: f64,
    /// Sustained downlink throughput in Mbps — what the cloud's response
    /// (prediction, logits) comes back over. Defaults to the uplink rate;
    /// real access links are usually downlink-heavier, so override with
    /// [`NetworkLink::with_download`].
    pub download_mbps: f64,
    /// Radio power model.
    pub power: UploadPowerModel,
    /// Round-trip propagation delay in seconds (0 in the paper's energy
    /// accounting; used by the latency simulators — the virtual clock
    /// charges half in each direction, [`NetworkLink::round_trip_s`]
    /// charges it once for the full out-and-back).
    pub rtt_s: f64,
}

impl NetworkLink {
    /// The paper's WiFi link: 18.88 Mb/s average upload speed.
    pub fn wifi_18_88() -> Self {
        NetworkLink::wifi(18.88)
    }

    /// A WiFi link with a given throughput (symmetric until
    /// [`NetworkLink::with_download`] says otherwise).
    pub fn wifi(throughput_mbps: f64) -> Self {
        NetworkLink {
            throughput_mbps,
            download_mbps: throughput_mbps,
            power: UploadPowerModel::wifi(),
            rtt_s: 0.0,
        }
    }

    /// An LTE link with a given throughput (Huang et al.'s measured
    /// average LTE uplink was ~5.6 Mb/s).
    pub(crate) fn lte(throughput_mbps: f64) -> Self {
        NetworkLink { throughput_mbps, download_mbps: throughput_mbps, power: UploadPowerModel::lte(), rtt_s: 0.0 }
    }

    /// The MobiSys'12 average LTE uplink: 5.64 Mb/s.
    pub fn lte_5_64() -> Self {
        NetworkLink::lte(5.64)
    }

    /// Whether both rates are finite and positive, the RTT finite and
    /// non-negative, and each leg carrying `max_bytes` short enough for
    /// the clock to hold as a deadline: a link the runtime can sleep on
    /// and plan with.
    pub(crate) fn is_valid(&self, max_bytes: u64) -> bool {
        let rate_ok = |mbps: f64| mbps.is_finite() && mbps > 0.0;
        let now = Instant::now();
        let leg_ok = |secs: f64| crate::clock::after(now, secs).is_some();
        rate_ok(self.throughput_mbps)
            && rate_ok(self.download_mbps)
            && self.rtt_s >= 0.0
            && leg_ok(self.rtt_s / 2.0)
            && leg_ok(self.uplink_leg_s(max_bytes))
            && leg_ok(self.downlink_leg_s(max_bytes))
    }

    /// Adds a propagation delay (builder style).
    pub fn with_rtt(mut self, rtt_s: f64) -> Self {
        self.rtt_s = rtt_s;
        self
    }

    /// Sets an asymmetric downlink rate (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the rate is non-positive.
    pub fn with_download(mut self, download_mbps: f64) -> Self {
        assert!(download_mbps > 0.0, "downlink throughput must be positive");
        self.download_mbps = download_mbps;
        self
    }

    /// Upload power in watts.
    pub fn upload_power_w(&self) -> f64 {
        self.power.power_w(self.throughput_mbps)
    }

    /// Seconds to push `bytes` up the link (serialisation time only).
    pub fn upload_time_s(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / (self.throughput_mbps * 1e6)
    }

    /// Joules spent by the edge radio to upload `bytes`.
    pub fn upload_energy_j(&self, bytes: u64) -> f64 {
        self.upload_power_w() * self.upload_time_s(bytes)
    }

    /// Seconds to pull `bytes` down the link (serialisation time of the
    /// cloud's response).
    pub fn download_time_s(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / (self.download_mbps * 1e6)
    }

    /// Time of the **uplink leg** of one offload: serialise `bytes` up the
    /// link, then cross half the propagation delay.
    ///
    /// This is the repo-wide RTT convention: each direction of a round
    /// trip carries `rtt_s / 2`. The closed-form
    /// [`NetworkLink::round_trip_s`] and the serving runtime
    /// (`crate::serve`) charge propagation through this pair of leg
    /// helpers; the virtual-clock simulator
    /// ([`crate::fleet::simulate_fleet`]) charges the same convention
    /// inline.
    pub(crate) fn uplink_leg_s(&self, bytes: u64) -> f64 {
        self.upload_time_s(bytes) + self.rtt_s / 2.0
    }

    /// Time of the **downlink leg** of one offload: cross half the
    /// propagation delay, then serialise `bytes` down the link (see
    /// [`NetworkLink::uplink_leg_s`] for the shared convention).
    pub(crate) fn downlink_leg_s(&self, bytes: u64) -> f64 {
        self.rtt_s / 2.0 + self.download_time_s(bytes)
    }

    /// End-to-end communication time of one offload round trip: the
    /// uplink leg (payload serialisation + half the RTT) plus the downlink
    /// leg (half the RTT + response serialisation). The original model
    /// charged upload + RTT only, which silently favoured strategies with
    /// chatty responses (e.g. full logit vectors) when comparing feature-
    /// against image-payload offloading.
    pub fn round_trip_s(&self, upload_bytes: u64, response_bytes: u64) -> f64 {
        self.uplink_leg_s(upload_bytes) + self.downlink_leg_s(response_bytes)
    }
}

/// A snapshot of measured link behaviour for one edge device class — what
/// [`LinkEstimator::estimate`] hands the `CutPlanner` so it can replan
/// from *observed* rates instead of its static contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkEstimate {
    /// Observed effective uplink throughput (Mbps), EWMA-smoothed.
    pub up_mbps: f64,
    /// Observed effective downlink throughput (Mbps), EWMA-smoothed.
    pub down_mbps: f64,
    /// Observed round-trip propagation delay (s), EWMA-smoothed.
    pub rtt_s: f64,
    /// Number of batch observations behind this estimate (drives the
    /// prior/measurement blend in the planner).
    pub samples: u64,
}

/// EWMA state of one device class's observed link behaviour. Tracked in
/// seconds *per byte* so payload size cancels out: a batch of any size
/// contributes one rate observation. Each leg seeds its EWMA from its
/// own first byte-bearing observation (a zero-byte leg carries no rate
/// information and must not leave a 0.0 seed behind for later samples
/// to blend against).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct ClassTelemetry {
    up_s_per_byte: f64,
    up_samples: u64,
    down_s_per_byte: f64,
    down_samples: u64,
    rtt_s: f64,
    samples: u64,
}

/// Measured-link telemetry: per edge device class, an exponentially
/// weighted moving average of the per-byte link time each served cloud
/// batch actually paid.
///
/// The serving runtime's cloud workers feed one observation per coalesced
/// batch (upload bytes + seconds, response bytes + seconds, propagation
/// delay); the planner asks for [`LinkEstimate`]s and blends them with its
/// static contention prior by sample count. Neurosurgeon-style measured
/// link profiles, kept live instead of collected offline — the telemetry
/// never sees the link *model*, only `(bytes, seconds)` pairs, which is
/// exactly what a real deployment can measure from timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEstimator {
    alpha: f64,
    classes: Vec<ClassTelemetry>,
}

impl LinkEstimator {
    /// Creates an estimator for `classes` device classes with EWMA
    /// coefficient `alpha` (weight of the newest observation).
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `alpha` leaves `(0, 1]`.
    pub fn new(classes: usize, alpha: f64) -> Self {
        assert!(classes > 0, "need at least one device class");
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA coefficient must be in (0, 1], got {alpha}");
        LinkEstimator { alpha, classes: vec![ClassTelemetry::default(); classes] }
    }

    /// Number of device classes tracked.
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Feeds one observed batch round trip for device class `class`:
    /// `up_bytes` crossed the uplink in `up_s` seconds, `down_bytes` came
    /// back in `down_s` seconds, and the propagation delay was `rtt_s`.
    /// Legs with zero bytes are skipped (no rate information).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or a time is negative.
    pub fn observe(&mut self, class: usize, up_bytes: u64, up_s: f64, down_bytes: u64, down_s: f64, rtt_s: f64) {
        assert!(up_s >= 0.0 && down_s >= 0.0 && rtt_s >= 0.0, "negative observed time");
        let alpha = self.alpha;
        let t = &mut self.classes[class];
        let blend = |old: f64, obs: f64, first: bool| if first { obs } else { alpha * obs + (1.0 - alpha) * old };
        if up_bytes > 0 {
            t.up_s_per_byte = blend(t.up_s_per_byte, up_s / up_bytes as f64, t.up_samples == 0);
            t.up_samples += 1;
        }
        if down_bytes > 0 {
            t.down_s_per_byte = blend(t.down_s_per_byte, down_s / down_bytes as f64, t.down_samples == 0);
            t.down_samples += 1;
        }
        t.rtt_s = blend(t.rtt_s, rtt_s, t.samples == 0);
        t.samples += 1;
    }

    /// The current estimate for `class`, or `None` before the first
    /// observation (cold start: the planner stays on its static prior).
    ///
    /// A leg that has never carried bytes (or whose observed time was 0)
    /// reports an *infinite* rate;
    /// [`crate::partition::CutPlanner::plan_placement_for_measured`]
    /// ignores non-finite legs and stays on its prior for them.
    pub fn estimate(&self, class: usize) -> Option<LinkEstimate> {
        let t = &self.classes[class];
        if t.samples == 0 {
            return None;
        }
        let to_mbps = |s_per_byte: f64, leg_samples: u64| {
            if leg_samples > 0 && s_per_byte > 0.0 {
                8.0 / (s_per_byte * 1e6)
            } else {
                f64::INFINITY
            }
        };
        Some(LinkEstimate {
            up_mbps: to_mbps(t.up_s_per_byte, t.up_samples),
            down_mbps: to_mbps(t.down_s_per_byte, t.down_samples),
            rtt_s: t.rtt_s,
            samples: t.samples,
        })
    }

    /// Estimates for every class, in class order (see
    /// [`LinkEstimator::estimate`]).
    pub(crate) fn estimates(&self) -> Vec<Option<LinkEstimate>> {
        (0..self.classes.len()).map(|c| self.estimate(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_wifi_power_is_5_48w() {
        let link = NetworkLink::wifi_18_88();
        assert!((link.upload_power_w() - 5.479).abs() < 0.01, "power {}", link.upload_power_w());
    }

    #[test]
    fn cifar_image_upload_matches_table_vii() {
        // 32×32×3 bytes ⇒ 1.3 ms and 7.12 mJ.
        let link = NetworkLink::wifi_18_88();
        let t = link.upload_time_s(32 * 32 * 3);
        assert!((t * 1e3 - 1.302).abs() < 0.01, "time {} ms", t * 1e3);
        let e = link.upload_energy_j(32 * 32 * 3);
        assert!((e * 1e3 - 7.13).abs() < 0.05, "energy {} mJ", e * 1e3);
    }

    #[test]
    fn imagenet_image_upload_matches_table_vii() {
        // 224×224×3 bytes ⇒ 63.7 ms and ~349 mJ.
        let link = NetworkLink::wifi_18_88();
        let t = link.upload_time_s(224 * 224 * 3);
        assert!((t * 1e3 - 63.78).abs() < 0.2, "time {} ms", t * 1e3);
        let e = link.upload_energy_j(224 * 224 * 3);
        assert!((e * 1e3 - 349.0).abs() < 2.0, "energy {} mJ", e * 1e3);
    }

    #[test]
    fn energy_is_linear_in_bytes() {
        let link = NetworkLink::wifi(10.0);
        let e1 = link.upload_energy_j(1000);
        let e2 = link.upload_energy_j(2000);
        assert!((e2 - 2.0 * e1).abs() < 1e-12);
    }

    #[test]
    fn faster_link_uses_more_power_but_less_energy() {
        let slow = NetworkLink::wifi(5.0);
        let fast = NetworkLink::wifi(50.0);
        assert!(fast.upload_power_w() > slow.upload_power_w());
        assert!(fast.upload_energy_j(10_000) < slow.upload_energy_j(10_000));
    }

    #[test]
    fn download_defaults_symmetric_and_overrides() {
        let link = NetworkLink::wifi(10.0);
        assert!((link.download_time_s(1000) - link.upload_time_s(1000)).abs() < 1e-15);
        let fat_down = link.with_download(100.0);
        assert!(fat_down.download_time_s(1000) < link.download_time_s(1000) / 5.0);
        // The upload leg is untouched by the downlink override.
        assert!((fat_down.upload_time_s(1000) - link.upload_time_s(1000)).abs() < 1e-15);
    }

    #[test]
    fn legs_split_the_rtt_and_compose_the_round_trip() {
        // The documented convention: each leg carries rtt/2, and the
        // closed-form round trip is exactly the two legs' sum — the same
        // helpers the virtual-clock simulator and the serving runtime
        // charge, so all three paths agree by construction.
        let link = NetworkLink::wifi(8.0).with_rtt(0.01).with_download(80.0);
        assert!((link.uplink_leg_s(4000) - (link.upload_time_s(4000) + 0.005)).abs() < 1e-15);
        assert!((link.downlink_leg_s(400) - (0.005 + link.download_time_s(400))).abs() < 1e-15);
        assert!(
            (link.round_trip_s(4000, 400) - (link.uplink_leg_s(4000) + link.downlink_leg_s(400))).abs() < 1e-15
        );
    }

    #[test]
    fn link_estimator_recovers_a_stationary_link() {
        // Feeding the estimator the exact per-batch times of a fixed link
        // must converge to that link's rates (first sample initialises, so
        // a stationary signal is recovered immediately and stays put).
        let link = NetworkLink::wifi(20.0).with_rtt(0.006).with_download(40.0);
        let mut est = LinkEstimator::new(2, 0.3);
        assert!(est.estimate(0).is_none(), "cold start has no estimate");
        for i in 0..10u64 {
            let up_bytes = 1000 + i * 137; // payload size varies; the rate does not
            let down_bytes = 8 * (i + 1);
            est.observe(
                0,
                up_bytes,
                link.upload_time_s(up_bytes),
                down_bytes,
                link.download_time_s(down_bytes),
                link.rtt_s,
            );
        }
        let e = est.estimate(0).expect("observed");
        assert_eq!(e.samples, 10);
        assert!((e.up_mbps - 20.0).abs() < 1e-9, "up {}", e.up_mbps);
        assert!((e.down_mbps - 40.0).abs() < 1e-9, "down {}", e.down_mbps);
        assert!((e.rtt_s - 0.006).abs() < 1e-12);
        // The untouched class is still cold.
        assert!(est.estimate(1).is_none());
    }

    #[test]
    fn link_estimator_seeds_each_leg_from_its_own_first_observation() {
        // A leg whose first byte-bearing observation arrives late must
        // seed from that observation, not blend it against a 0.0 default
        // left by earlier zero-byte batches — and a leg that never
        // carries bytes reports an infinite rate (the planner keeps its
        // prior for non-finite legs).
        let link = NetworkLink::wifi(10.0).with_download(40.0);
        let mut est = LinkEstimator::new(1, 0.3);
        // Two ack-only batches first: no payload on the downlink.
        for _ in 0..2 {
            est.observe(0, 1000, link.upload_time_s(1000), 0, 0.0, 0.0);
        }
        let e = est.estimate(0).expect("observed");
        assert!((e.up_mbps - 10.0).abs() < 1e-9);
        assert!(e.down_mbps.is_infinite(), "never-observed leg must not report a finite rate");
        // The first real response seeds the downlink EWMA exactly.
        est.observe(0, 1000, link.upload_time_s(1000), 64, link.download_time_s(64), 0.0);
        let e = est.estimate(0).expect("observed");
        assert!((e.down_mbps - 40.0).abs() < 1e-9, "late first leg sample must seed, not blend: {}", e.down_mbps);
    }

    #[test]
    fn link_estimator_tracks_a_degradation() {
        let fast = NetworkLink::wifi(50.0);
        let slow = NetworkLink::wifi(25.0);
        let mut est = LinkEstimator::new(1, 0.5);
        for _ in 0..4 {
            est.observe(0, 2000, fast.upload_time_s(2000), 8, fast.download_time_s(8), 0.0);
        }
        let before = est.estimate(0).unwrap().up_mbps;
        assert!((before - 50.0).abs() < 1e-9);
        for _ in 0..12 {
            est.observe(0, 2000, slow.upload_time_s(2000), 8, slow.download_time_s(8), 0.0);
        }
        let after = est.estimate(0).unwrap().up_mbps;
        // EWMA on s/byte: after 12 half-weight steps the estimate is
        // within a fraction of a percent of the degraded rate.
        assert!(after < before * 0.55, "estimate failed to track the degradation: {before} -> {after}");
        assert!((after - 25.0).abs() / 25.0 < 0.01, "after {after}");
    }

    #[test]
    fn round_trip_charges_both_legs_and_the_rtt() {
        let link = NetworkLink::wifi(8.0).with_rtt(0.01).with_download(80.0);
        let up = link.upload_time_s(4000);
        let down = link.download_time_s(400);
        assert!((link.round_trip_s(4000, 400) - (up + 0.01 + down)).abs() < 1e-15);
        // A response 10x the size costs real time: chatty responses are no
        // longer free.
        assert!(link.round_trip_s(4000, 4000) > link.round_trip_s(4000, 400));
    }

    #[test]
    fn lte_coefficients_match_mobisys12() {
        // 438.39 mW/Mbps · 5.64 Mbps + 1288.04 mW ≈ 3.76 W.
        let link = NetworkLink::lte_5_64();
        assert!((link.upload_power_w() - 3.761).abs() < 0.01, "power {}", link.upload_power_w());
    }

    #[test]
    fn lte_costs_more_energy_per_byte_than_wifi() {
        // Same picture the paper's source measured: at their respective
        // average throughputs, LTE's higher baseline power and lower
        // throughput make each uploaded byte more expensive.
        let wifi = NetworkLink::wifi_18_88();
        let lte = NetworkLink::lte_5_64();
        let bytes = 32 * 32 * 3;
        assert!(
            lte.upload_energy_j(bytes) > 2.0 * wifi.upload_energy_j(bytes),
            "lte {} vs wifi {}",
            lte.upload_energy_j(bytes),
            wifi.upload_energy_j(bytes)
        );
    }
}
