//! Layer-granularity DNN partitioning between the edge and the cloud —
//! the "sending features" collaboration mode of paper §III-C and Table I.
//!
//! The paper cites Neurosurgeon (Kang et al., ASPLOS'17) and chooses *not*
//! to partition (it sends raw images so the cloud model stays independent).
//! This module implements the alternative it argues against, so the two
//! modes can be compared quantitatively: every boundary between top-level
//! layers is a candidate cut; the edge runs the prefix, uploads the
//! intermediate activation, and the cloud runs the suffix. The optimizer
//! scores every cut in closed form against a device/link model and returns
//! the best, for either end-to-end latency or edge energy.

use crate::device::DeviceProfile;
use crate::network::{LinkEstimate, NetworkLink};
use mea_nn::layer::Layer;
use mea_nn::models::SegmentedCnn;
use serde::{Deserialize, Serialize};

/// Default pseudo-sample weight of the static contention prior when
/// blending with measured [`LinkEstimate`]s: a measurement with this many
/// batch observations behind it counts as much as the prior (see
/// [`CutPlanner::plan_placement_for_measured`]).
pub const MEASURED_PRIOR_SAMPLES: f64 = 8.0;

/// Compute/output profile of one top-level layer (one candidate slice of
/// the partition).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Human-readable layer name.
    pub name: String,
    /// Multiply-adds of this layer for one image.
    pub macs: u64,
    /// Elements of this layer's output for one image (what a cut *after*
    /// this layer would transmit).
    pub out_elems: u64,
}

/// Profiles every top-level layer of a [`SegmentedCnn`] (all segments in
/// order, then the head as one opaque unit), yielding the candidate cut
/// points of the partition search.
pub fn profile_network(net: &SegmentedCnn) -> Vec<LayerProfile> {
    let mut shape: Vec<usize> = net.in_shape.to_vec();
    let mut profiles = Vec::new();
    for seg in &net.segments {
        for layer in seg.layers() {
            let (macs, out) = layer.macs(&shape);
            profiles.push(LayerProfile {
                name: layer.name().to_string(),
                macs,
                out_elems: out.iter().product::<usize>() as u64,
            });
            shape = out;
        }
    }
    let (head_macs, head_out) = net.head.macs(&shape);
    profiles.push(LayerProfile {
        name: "Head".to_string(),
        macs: head_macs,
        out_elems: head_out.iter().product::<usize>() as u64,
    });
    profiles
}

/// What the partition search minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// End-to-end per-image latency (edge compute + upload + RTT + cloud
    /// compute).
    Latency,
    /// Energy drawn from the edge device (compute + radio), the quantity
    /// the paper's Fig. 8 cares about.
    EdgeEnergy,
}

/// An SLA-constrained refinement of [`Objective`] for the serving
/// governor: instead of minimising one scalar cost, the planner first
/// restricts the candidate cuts to those whose *predicted* per-image
/// latency fits inside the p95 budget, then maximises sustained
/// throughput over the feasible set by minimising the bytes each offload
/// holds the shared uplink for. The accuracy floor rides along for the
/// governor's β bound — cut choice itself is accuracy-neutral (split
/// execution is bitwise-identical at every cut), so the floor constrains
/// how far the offload fraction may drop, not which layer to cut at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaObjective {
    /// Tie-break score inside the feasible set (and the fallback score
    /// when no cut fits the budget).
    pub base: Objective,
    /// The p95 latency budget one served image must fit in (seconds).
    pub p95_budget_s: f64,
    /// The Table-III detection-accuracy floor the governor may not trade
    /// away when it lowers β (carried here so one struct describes the
    /// whole SLA; unused by cut scoring itself).
    pub accuracy_floor: f64,
}

/// Scored evaluation of one cut point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CutCost {
    /// Number of leading layers executed at the edge (`0` = cloud-only
    /// with raw upload, `L` = edge-only).
    pub cut: usize,
    /// Fraction `q` of total MACs executed at the edge (Table I's `q`).
    pub q: f64,
    /// Bytes uploaded per image at this cut.
    pub upload_bytes: u64,
    /// Per-image end-to-end latency (s).
    pub latency_s: f64,
    /// Per-image energy at the edge (J).
    pub edge_energy_j: f64,
}

/// Who executes one stage of a [`PlacementPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageExecutor {
    /// The originating edge device itself.
    Local,
    /// The cooperative peer group of the given device class (see
    /// [`crate::fleet::DeviceClass::coop_group`]): idle same-class
    /// neighbours pooling their tier-scaled throughput over a dedicated
    /// local wire.
    Peer(usize),
    /// The cloud tier (always the final stage of a serving placement —
    /// the cloud produces the prediction).
    Cloud,
}

/// One contiguous slice of the network assigned to one executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    /// Who runs this slice.
    pub executor: StageExecutor,
    /// Half-open layer range `[from, to)` this executor runs. An empty
    /// range is legal (the executor is a pass-through for this plan).
    pub layer_range: (usize, usize),
}

/// An ordered list of execution stages covering the whole network — the
/// N-stage generalisation of the scalar cut. The legacy two-tier split is
/// exactly `PlacementPlan::two_stage`: `Local [0, cut)` then
/// `Cloud [cut, L)`. Cooperative edge splitting inserts a `Peer` stage
/// between them, so one forward crosses *two* wires: the dedicated local
/// hop to the pooled peers, then the shared WAN hop to the cloud.
///
/// Stages are contiguous (`stage[i]` ends where `stage[i+1]` starts), the
/// first starts at layer 0, and the last stage is always `Cloud` — every
/// serving placement ends at the tier that produces the prediction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPlan {
    stages: Vec<Stage>,
}

impl PlacementPlan {
    /// Builds a plan from explicit stages, validating the invariants.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, the ranges are not contiguous from
    /// layer 0, or the final stage is not [`StageExecutor::Cloud`].
    pub(crate) fn from_stages(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "a placement needs at least one stage");
        let mut at = 0usize;
        for s in &stages {
            let (from, to) = s.layer_range;
            assert!(from == at, "placement stages must be contiguous: stage starts at {from}, expected {at}");
            assert!(to >= from, "placement stage range [{from}, {to}) is inverted");
            at = to;
        }
        assert!(
            stages.last().map(|s| s.executor) == Some(StageExecutor::Cloud),
            "a serving placement must end at the cloud"
        );
        PlacementPlan { stages }
    }

    /// The legacy two-tier split: `Local [0, cut)` then
    /// `Cloud [cut, total_layers)`.
    ///
    /// # Panics
    ///
    /// Panics if `cut > total_layers`.
    pub(crate) fn two_stage(cut: usize, total_layers: usize) -> Self {
        assert!(cut <= total_layers, "cut {cut} beyond the {total_layers}-layer network");
        PlacementPlan::from_stages(vec![
            Stage { executor: StageExecutor::Local, layer_range: (0, cut) },
            Stage { executor: StageExecutor::Cloud, layer_range: (cut, total_layers) },
        ])
    }

    /// A cooperative three-tier split: `Local [0, local_end)`, then the
    /// peer group of `peer_class` runs `[local_end, peer_end)`, then
    /// `Cloud [peer_end, total_layers)`.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not monotone within the network.
    pub(crate) fn three_stage(local_end: usize, peer_end: usize, peer_class: usize, total_layers: usize) -> Self {
        assert!(
            local_end <= peer_end && peer_end <= total_layers,
            "placement boundaries must be monotone: {local_end} <= {peer_end} <= {total_layers}"
        );
        PlacementPlan::from_stages(vec![
            Stage { executor: StageExecutor::Local, layer_range: (0, local_end) },
            Stage { executor: StageExecutor::Peer(peer_class), layer_range: (local_end, peer_end) },
            Stage { executor: StageExecutor::Cloud, layer_range: (peer_end, total_layers) },
        ])
    }

    /// The stages in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Where the cloud takes over — the layer index the *final* upload
    /// resumes at (the generalisation of the scalar cut; equal to it for
    /// a two-stage plan).
    pub fn final_cut(&self) -> usize {
        self.stages.last().expect("validated non-empty").layer_range.0
    }

    /// The first peer stage, if the plan splits across cooperating edge
    /// devices.
    pub fn peer_stage(&self) -> Option<&Stage> {
        self.stages.iter().find(|s| matches!(s.executor, StageExecutor::Peer(_)))
    }
}

/// Scored evaluation of one [`PlacementPlan`] — the placement analogue of
/// [`CutCost`]. For a two-stage plan the latency/energy/upload fields are
/// bit-identical to the [`CutCost`] of the same cut under the same
/// environment (asserted in tests): the placement search *contains* the
/// scalar sweep as its degenerate case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementCost {
    /// The scored plan.
    pub plan: PlacementPlan,
    /// Bytes shipped per image over the dedicated peer wire (0 for a
    /// two-stage plan). Peer hops always carry lossless f32 activations —
    /// the wire format knob applies to the WAN hop only, so the cloud
    /// wire can never change what the peers compute.
    pub peer_bytes: u64,
    /// Bytes uploaded per image over the shared WAN link at the final
    /// cut.
    pub upload_bytes: u64,
    /// Per-image end-to-end latency (s) across every stage and hop.
    pub latency_s: f64,
    /// Per-image energy drawn at the edge tier (J): local compute, the
    /// peer-wire radio, pooled peer compute, and the WAN radio.
    pub edge_energy_j: f64,
}

/// The pooled execution resource of one device class's cooperative group
/// — what a `Peer` stage runs on. Built by
/// [`crate::fleet::FleetSpec::peer_pools`] from
/// [`crate::fleet::DeviceClass::coop_group`] membership: `members` idle
/// same-class devices pool their tier-scaled throughput behind a
/// dedicated local wire (never contention-scaled by the WAN model — the
/// peer hop does not share the uplink the cloud hop congests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerPool {
    /// The device class this pool belongs to (stamped into
    /// [`StageExecutor::Peer`]).
    pub class: usize,
    /// Cooperating devices in the group.
    pub members: usize,
    /// The group's pooled compute profile (tier-scaled throughput times
    /// `members`).
    pub pooled: DeviceProfile,
    /// The dedicated local wire to the group.
    pub link: NetworkLink,
}

/// Device/link context of a partition search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionEnv {
    /// The edge device.
    pub edge: DeviceProfile,
    /// The cloud device.
    pub cloud: DeviceProfile,
    /// The uplink.
    pub link: NetworkLink,
    /// Bytes per transmitted activation element (4 for f32 features, 1
    /// for int8-quantized features). Int8 is priced at its raw body's
    /// bound (`crate::serve::FeatureWire::bytes_per_elem`): a
    /// Huffman-coded frame can be shorter, so the int8 upload of a cut is
    /// an upper bound.
    pub bytes_per_elem: u64,
    /// Bytes of one raw input image (the cut-at-0 upload).
    pub raw_input_bytes: u64,
    /// Bytes of the cloud's response per image (a bare class id, or a
    /// full logit vector for calibration-hungry clients). Charged on the
    /// downlink for every cut that reaches the cloud, so payload
    /// comparisons are not biased toward chatty responses.
    pub response_bytes: u64,
}

/// Scores every cut of the profiled network.
///
/// Cut `k` means layers `[0, k)` run at the edge and `[k, L)` at the
/// cloud. `k = L` is edge-only (no upload, no cloud compute); `k = 0`
/// uploads the raw image.
///
/// # Panics
///
/// Panics if `profiles` is empty.
pub fn sweep_cuts(profiles: &[LayerProfile], env: &PartitionEnv) -> Vec<CutCost> {
    assert!(!profiles.is_empty(), "nothing to partition");
    let total_macs: u64 = profiles.iter().map(|p| p.macs).sum();
    let l = profiles.len();
    let mut out = Vec::with_capacity(l + 1);
    let mut edge_macs = 0u64;
    for cut in 0..=l {
        if cut > 0 {
            edge_macs += profiles[cut - 1].macs;
        }
        let cloud_macs = total_macs - edge_macs;
        let upload_bytes = if cut == l {
            0
        } else if cut == 0 {
            env.raw_input_bytes
        } else {
            profiles[cut - 1].out_elems * env.bytes_per_elem
        };
        let edge_lat = env.edge.latency_s(edge_macs);
        let (comm_lat, cloud_lat, comm_energy) = if cut == l {
            (0.0, 0.0, 0.0)
        } else {
            (
                env.link.round_trip_s(upload_bytes, env.response_bytes),
                env.cloud.latency_s(cloud_macs),
                env.link.upload_energy_j(upload_bytes),
            )
        };
        out.push(CutCost {
            cut,
            q: if total_macs == 0 { 1.0 } else { edge_macs as f64 / total_macs as f64 },
            upload_bytes,
            latency_s: edge_lat + comm_lat + cloud_lat,
            edge_energy_j: env.edge.compute_energy_j(edge_macs) + comm_energy,
        });
    }
    out
}

/// The best cut under an objective, breaking ties toward more edge layers
/// (the paper's preference: keep data local).
///
/// # Panics
///
/// Panics if `profiles` is empty.
pub fn best_cut(profiles: &[LayerProfile], env: &PartitionEnv, objective: Objective) -> CutCost {
    let costs = sweep_cuts(profiles, env);
    let score = |c: &CutCost| match objective {
        Objective::Latency => c.latency_s,
        Objective::EdgeEnergy => c.edge_energy_j,
    };
    costs
        .into_iter()
        .rev() // later cuts (more edge) win ties
        .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite costs"))
        .expect("at least the two trivial cuts exist")
}

/// Online cut-point selection for the feature-payload serving path.
///
/// The offline search above scores a *static* environment once; a serving
/// runtime faces conditions that move while it runs: the
/// `ThresholdController` retunes the offload fraction β, and the link
/// model can be swapped when the radio degrades. `CutPlanner` keeps the
/// layer profiles and the environment together and re-derives the
/// cost-minimal cut whenever either changes, per edge device class.
///
/// Congestion model: the uplink is shared by the offloading device
/// streams, so the effective per-transfer throughput is the nominal rate
/// divided by the expected number of concurrent offload streams,
/// `max(1, β · streams)`. A higher β therefore slows the effective link
/// and pushes the optimum toward deeper (smaller-upload) cuts — partition
/// choice as a load-adaptive throughput knob.
///
/// The static model is only a *prior*: when measured link telemetry is
/// available (a [`LinkEstimate`] from the serving runtime's
/// [`crate::network::LinkEstimator`]), the planner blends the observed
/// effective rates with the prior by sample count
/// ([`CutPlanner::plan_placement_for_measured`]) — the Neurosurgeon-style
/// closed loop: real congestion reaches the plan instead of an assumed
/// divisor.
///
/// A *serving* cut must end at the cloud (the cloud produces the
/// prediction), so the edge-only endpoint `cut == L` is excluded from the
/// plan; ties still break toward more edge layers.
#[derive(Debug, Clone, PartialEq)]
pub struct CutPlanner {
    profiles: Vec<LayerProfile>,
    env: PartitionEnv,
    objective: Objective,
    streams: f64,
    beta: f64,
    prior_samples: f64,
}

impl CutPlanner {
    /// Creates a planner over pre-computed layer profiles.
    ///
    /// `streams` is the number of device streams sharing the uplink
    /// (drives the congestion model; use the device count of the trace).
    /// β starts at 1 (worst-case contention) until
    /// [`CutPlanner::set_beta`] feeds back an observed fraction.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `streams == 0`.
    pub(crate) fn new(
        profiles: Vec<LayerProfile>,
        env: PartitionEnv,
        objective: Objective,
        streams: usize,
    ) -> Self {
        assert!(!profiles.is_empty(), "nothing to partition");
        assert!(streams > 0, "need at least one device stream");
        CutPlanner {
            profiles,
            env,
            objective,
            streams: streams as f64,
            beta: 1.0,
            prior_samples: MEASURED_PRIOR_SAMPLES,
        }
    }

    /// Profiles `net` and creates a planner over it.
    pub fn from_network(net: &SegmentedCnn, env: PartitionEnv, objective: Objective, streams: usize) -> Self {
        CutPlanner::new(profile_network(net), env, objective, streams)
    }

    /// Feeds back an observed offload fraction (e.g. a
    /// `ThresholdController` window outcome).
    ///
    /// # Panics
    ///
    /// Panics if `beta` leaves `[0, 1]`.
    pub(crate) fn set_beta(&mut self, beta: f64) {
        assert!((0.0..=1.0).contains(&beta), "offload fraction must be in [0,1], got {beta}");
        self.beta = beta;
    }

    /// Sets the pseudo-sample weight of the static contention prior in
    /// the measured-link blend (default [`MEASURED_PRIOR_SAMPLES`]): a
    /// [`LinkEstimate`] with `n` samples gets weight `n / (n + prior)`.
    /// `0` trusts measurements completely from the first sample.
    ///
    /// # Panics
    ///
    /// Panics if `prior_samples` is negative or non-finite.
    pub fn set_prior_samples(&mut self, prior_samples: f64) {
        assert!(prior_samples >= 0.0 && prior_samples.is_finite(), "prior weight must be finite and >= 0");
        self.prior_samples = prior_samples;
    }

    /// The environment the planner scores cuts against: the static
    /// contention model (nominal link rates divided by the expected
    /// concurrent offload streams), with `link` (if `Some`) replacing the
    /// shared link model first, blended with `measured` telemetry as
    /// described on [`CutPlanner::plan_placement_for_measured`].
    fn blended_env(&self, link: Option<&NetworkLink>, measured: Option<&LinkEstimate>) -> PartitionEnv {
        let share = (self.beta * self.streams).max(1.0);
        let mut env = self.env.clone();
        if let Some(l) = link {
            env.link = *l;
        }
        env.link.throughput_mbps /= share;
        env.link.download_mbps /= share;
        if let Some(m) = measured {
            if m.samples > 0 {
                let w = m.samples as f64 / (m.samples as f64 + self.prior_samples);
                if m.up_mbps.is_finite() {
                    env.link.throughput_mbps = w * m.up_mbps + (1.0 - w) * env.link.throughput_mbps;
                }
                if m.down_mbps.is_finite() {
                    env.link.download_mbps = w * m.down_mbps + (1.0 - w) * env.link.download_mbps;
                }
                env.link.rtt_s = w * m.rtt_s + (1.0 - w) * env.link.rtt_s;
            }
        }
        env
    }

    /// Every candidate placement for one edge class, scored, in canonical
    /// search order: final cuts deepest-first (ties break toward more edge
    /// layers), and within each final cut the two-stage plan before any
    /// cooperative split (a peer hop must *strictly* improve the objective
    /// to be chosen). Two-stage candidates are the [`sweep_cuts`] costs of
    /// the serving cuts verbatim (the edge-only endpoint excluded), so
    /// without a pool — or with a single-member pool, where "splitting"
    /// across one device is the unsplit plan by construction — the
    /// candidate set is exactly the scalar sweep.
    fn placement_candidates(
        &self,
        edge: &DeviceProfile,
        link: Option<&NetworkLink>,
        measured: Option<&LinkEstimate>,
        pool: Option<&PeerPool>,
    ) -> Vec<PlacementCost> {
        let l = self.profiles.len();
        let mut env = self.blended_env(link, measured);
        env.edge = edge.clone();
        let costs = sweep_cuts(&self.profiles, &env);
        let mut prefix_macs = vec![0u64; l + 1];
        for k in 0..l {
            prefix_macs[k + 1] = prefix_macs[k] + self.profiles[k].macs;
        }
        let total_macs = prefix_macs[l];
        let pool = pool.filter(|p| p.members >= 2);
        let mut out = Vec::with_capacity(if pool.is_some() { l * (l + 1) / 2 } else { l });
        for k2 in (0..l).rev() {
            let c = costs[k2];
            out.push(PlacementCost {
                plan: PlacementPlan::two_stage(c.cut, l),
                peer_bytes: 0,
                upload_bytes: c.upload_bytes,
                latency_s: c.latency_s,
                edge_energy_j: c.edge_energy_j,
            });
            let Some(pool) = pool else { continue };
            // The local device runs at least one layer before handing off
            // (a device that computes nothing has nothing to split), so
            // cooperative candidates exist only for final cuts >= 2.
            for k1 in (1..k2).rev() {
                // Peer hops ship lossless f32 regardless of the WAN wire.
                let peer_bytes = self.profiles[k1 - 1].out_elems * 4;
                let m1 = prefix_macs[k1];
                let m2 = prefix_macs[k2] - prefix_macs[k1];
                let cloud_macs = total_macs - prefix_macs[k2];
                let latency_s = env.edge.latency_s(m1)
                    + pool.link.uplink_leg_s(peer_bytes)
                    + pool.pooled.latency_s(m2)
                    + env.link.round_trip_s(c.upload_bytes, env.response_bytes)
                    + env.cloud.latency_s(cloud_macs);
                let edge_energy_j = env.edge.compute_energy_j(m1)
                    + pool.link.upload_energy_j(peer_bytes)
                    + pool.pooled.compute_energy_j(m2)
                    + env.link.upload_energy_j(c.upload_bytes);
                out.push(PlacementCost {
                    plan: PlacementPlan::three_stage(k1, k2, pool.class, l),
                    peer_bytes,
                    upload_bytes: c.upload_bytes,
                    latency_s,
                    edge_energy_j,
                });
            }
        }
        out
    }

    /// The cost-minimal [`PlacementPlan`] for one edge class under
    /// current conditions, scoring intra-edge peer hops with the same
    /// objective as the cloud hop. `link` is the class's own WAN link
    /// prior (`None` plans on the shared link; the peer wire is never
    /// touched — it is not the shared uplink). Without a pool (or with a
    /// single-member pool) the plan is two-stage and its cost is the
    /// [`sweep_cuts`] cost of its final cut, bit for bit.
    ///
    /// `measured` is the class's link estimate. The link is first
    /// scaled by the static contention model (the cold-start prior), then
    /// blended with the observed rates by sample count —
    /// `w = samples / (samples + prior_samples)` on the measurement side.
    /// A class radio (`link`) is congested by the same fleet and
    /// corrected by the same telemetry as the shared wire would be.
    /// `None` (or zero samples) plans on the prior exactly, and a
    /// non-finite leg rate (a leg the estimator never saw carry bytes)
    /// keeps that leg on the prior instead of planning against a free
    /// wire.
    pub fn plan_placement_for_measured(
        &self,
        edge: &DeviceProfile,
        link: Option<&NetworkLink>,
        measured: Option<&LinkEstimate>,
        pool: Option<&PeerPool>,
    ) -> PlacementCost {
        let score = |c: &PlacementCost| match self.objective {
            Objective::Latency => c.latency_s,
            Objective::EdgeEnergy => c.edge_energy_j,
        };
        self.placement_candidates(edge, link, measured, pool)
            .into_iter()
            .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite costs"))
            .expect("at least the raw-upload cut exists")
    }

    /// SLA-constrained placement: among the candidates whose predicted
    /// per-image latency fits inside `sla.p95_budget_s`, ship the fewest
    /// bytes over the *shared* WAN uplink (the sustained-throughput
    /// maximiser; peer bytes ride a dedicated wire and do not occupy it),
    /// breaking ties by the base objective, then toward deeper final
    /// cuts, then toward the plan without a peer hop. Returns the chosen
    /// placement and whether the budget was satisfiable at all — when
    /// nothing fits, the fallback is the unconstrained optimum (latency
    /// can only be *reduced* by ignoring an unmeetable budget, never
    /// traded away) flagged `false` so the governor can count the SLA as
    /// unreachable instead of pretending.
    pub(crate) fn plan_placement_for_sla(
        &self,
        edge: &DeviceProfile,
        link: Option<&NetworkLink>,
        measured: Option<&LinkEstimate>,
        sla: &SlaObjective,
        pool: Option<&PeerPool>,
    ) -> (PlacementCost, bool) {
        let base = |c: &PlacementCost| match sla.base {
            Objective::Latency => c.latency_s,
            Objective::EdgeEnergy => c.edge_energy_j,
        };
        let feasible = self
            .placement_candidates(edge, link, measured, pool)
            .into_iter()
            .filter(|c| c.latency_s <= sla.p95_budget_s)
            .min_by(|a, b| {
                (a.upload_bytes, base(a)).partial_cmp(&(b.upload_bytes, base(b))).expect("finite costs")
            });
        match feasible {
            Some(c) => (c, true),
            None => (self.plan_placement_for_measured(edge, link, measured, pool), false),
        }
    }

    /// One cost-minimal placement per device class under the static
    /// contention model, each with its own optional WAN link prior and
    /// cooperative peer pool — the heterogeneous-fleet placement entry
    /// point (`crate::fleet::FleetSpec::link_priors` supplies `links`,
    /// [`crate::fleet::FleetSpec::peer_pools`] supplies `pools`).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or the slices' lengths differ.
    pub fn plan_placements_with_links(
        &self,
        classes: &[DeviceProfile],
        links: &[Option<NetworkLink>],
        pools: &[Option<PeerPool>],
    ) -> Vec<PlacementCost> {
        assert!(!classes.is_empty(), "need at least one device class");
        assert_eq!(classes.len(), links.len(), "one (optional) link prior per device class");
        assert_eq!(classes.len(), pools.len(), "one (optional) peer pool per device class");
        classes
            .iter()
            .zip(links)
            .zip(pools)
            .map(|((c, l), p)| self.plan_placement_for_measured(c, l.as_ref(), None, p.as_ref()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};
    use mea_tensor::Rng;

    fn toy_profiles() -> Vec<LayerProfile> {
        vec![
            LayerProfile { name: "conv1".into(), macs: 1_000_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 2_000_000, out_elems: 1024 },
            LayerProfile { name: "head".into(), macs: 100_000, out_elems: 10 },
        ]
    }

    fn env() -> PartitionEnv {
        PartitionEnv {
            edge: DeviceProfile::new("edge", 10.0, 1e9),
            cloud: DeviceProfile::new("cloud", 200.0, 1e11),
            link: NetworkLink::wifi(8.0).with_rtt(0.01),
            bytes_per_elem: 4,
            raw_input_bytes: 3 * 32 * 32,
            response_bytes: 0,
        }
    }

    /// The plan for the planner's configured edge device on the shared
    /// link, no telemetry, no pool.
    fn plan(planner: &CutPlanner) -> PlacementCost {
        planner.plan_placement_for_measured(&planner.env.edge, None, None, None)
    }

    /// One solo plan per class on per-class link priors and estimates.
    fn plan_classes(
        planner: &CutPlanner,
        classes: &[DeviceProfile],
        links: &[Option<NetworkLink>],
        estimates: &[Option<LinkEstimate>],
    ) -> Vec<PlacementCost> {
        classes
            .iter()
            .zip(links)
            .zip(estimates)
            .map(|((c, l), m)| planner.plan_placement_for_measured(c, l.as_ref(), m.as_ref(), None))
            .collect()
    }

    /// Every serving cut's [`sweep_cuts`] cost for `edge` under the
    /// planner's blended environment — the scalar sweep the placement
    /// search must contain.
    fn serving_costs(planner: &CutPlanner, edge: &DeviceProfile, measured: Option<&LinkEstimate>) -> Vec<CutCost> {
        let mut env = planner.blended_env(None, measured);
        env.edge = edge.clone();
        let mut costs = sweep_cuts(&planner.profiles, &env);
        costs.truncate(planner.profiles.len()); // exclude the edge-only endpoint
        costs
    }

    #[test]
    fn endpoints_match_closed_forms() {
        let profiles = toy_profiles();
        let e = env();
        let costs = sweep_cuts(&profiles, &e);
        assert_eq!(costs.len(), 4);
        // Cut 0 = cloud-only: edge pays only the raw upload.
        let c0 = costs[0];
        assert_eq!(c0.upload_bytes, e.raw_input_bytes);
        assert!((c0.edge_energy_j - e.link.upload_energy_j(e.raw_input_bytes)).abs() < 1e-12);
        assert_eq!(c0.q, 0.0);
        // Cut L = edge-only: no communication at all.
        let cl = costs[3];
        assert_eq!(cl.upload_bytes, 0);
        assert_eq!(cl.q, 1.0);
        assert!((cl.latency_s - e.edge.latency_s(3_100_000)).abs() < 1e-12);
    }

    #[test]
    fn q_is_monotone_in_cut() {
        let costs = sweep_cuts(&toy_profiles(), &env());
        for pair in costs.windows(2) {
            assert!(pair[1].q >= pair[0].q);
        }
    }

    #[test]
    fn best_cut_beats_or_equals_endpoints() {
        let profiles = toy_profiles();
        let e = env();
        let costs = sweep_cuts(&profiles, &e);
        for obj in [Objective::Latency, Objective::EdgeEnergy] {
            let best = best_cut(&profiles, &e, obj);
            let score = |c: &CutCost| match obj {
                Objective::Latency => c.latency_s,
                Objective::EdgeEnergy => c.edge_energy_j,
            };
            assert!(score(&best) <= score(&costs[0]) + 1e-12);
            assert!(score(&best) <= score(costs.last().unwrap()) + 1e-12);
        }
    }

    #[test]
    fn slow_link_pushes_partition_to_the_edge() {
        let profiles = toy_profiles();
        let mut e = env();
        e.link = NetworkLink::wifi(0.001).with_rtt(0.5); // ~1 kB/s
        let best = best_cut(&profiles, &e, Objective::Latency);
        assert_eq!(best.cut, profiles.len(), "with a dead link, run everything at the edge");
    }

    #[test]
    fn fast_cloud_and_fat_link_pull_partition_to_the_cloud() {
        let profiles = toy_profiles();
        let mut e = env();
        e.link = NetworkLink::wifi(100_000.0).with_rtt(0.0); // effectively free uplink
        e.cloud = DeviceProfile::new("dc", 500.0, 1e14);
        let best = best_cut(&profiles, &e, Objective::Latency);
        assert_eq!(best.cut, 0, "free uplink + huge cloud: offload immediately");
    }

    #[test]
    fn bottleneck_cut_wins_when_features_shrink() {
        // A Neurosurgeon-shaped network: conv2 produces a bottleneck
        // activation (1 KiB) far smaller than the raw input (12 KiB), and a
        // heavy head follows. Cutting after the bottleneck then strictly
        // beats both endpoints: upload is cheap *and* the expensive suffix
        // runs on the fast cloud.
        let profiles = vec![
            LayerProfile { name: "conv1".into(), macs: 1_000_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 2_000_000, out_elems: 256 },
            LayerProfile { name: "head".into(), macs: 5_000_000, out_elems: 10 },
        ];
        let e = PartitionEnv {
            edge: DeviceProfile::new("edge", 10.0, 1e9),
            cloud: DeviceProfile::new("dc", 500.0, 1e11),
            link: NetworkLink::wifi(10.0).with_rtt(0.0),
            bytes_per_elem: 4,
            raw_input_bytes: 12288,
            response_bytes: 0,
        };
        let best = best_cut(&profiles, &e, Objective::Latency);
        assert_eq!(best.cut, 2, "cut after the bottleneck layer, got {best:?}");
    }

    #[test]
    fn quantized_features_shift_optimum_cloudward() {
        // 1-byte features make feature upload 4x cheaper, so the optimal
        // energy cut can only move toward (or stay at) less edge compute.
        let profiles = toy_profiles();
        let mut e = env();
        e.link = NetworkLink::wifi(2.0).with_rtt(0.0);
        let f32_best = best_cut(&profiles, &e, Objective::EdgeEnergy);
        e.bytes_per_elem = 1;
        let int8_best = best_cut(&profiles, &e, Objective::EdgeEnergy);
        assert!(int8_best.edge_energy_j <= f32_best.edge_energy_j + 1e-12);
    }

    #[test]
    fn chatty_responses_penalise_every_cloud_cut_but_not_edge_only() {
        let profiles = toy_profiles();
        let mut e = env();
        let lean = sweep_cuts(&profiles, &e);
        e.response_bytes = 100_000; // a fat logit/calibration response
        let chatty = sweep_cuts(&profiles, &e);
        let l = profiles.len();
        for k in 0..l {
            let extra = e.link.download_time_s(e.response_bytes);
            assert!(
                (chatty[k].latency_s - lean[k].latency_s - extra).abs() < 1e-12,
                "cut {k}: download leg not charged"
            );
        }
        // Edge-only never talks to the cloud: no response to download.
        assert!((chatty[l].latency_s - lean[l].latency_s).abs() < 1e-15);
    }

    #[test]
    fn chatty_responses_can_flip_the_optimum_to_edge_only() {
        // With upload-only accounting the fast cloud wins; once the bulky
        // response is charged on a slow downlink, staying at the edge wins.
        let profiles = toy_profiles();
        let mut e = env();
        e.cloud = DeviceProfile::new("dc", 500.0, 1e14);
        e.link = NetworkLink::wifi(50.0).with_rtt(0.0).with_download(0.5);
        e.response_bytes = 0;
        let lean = best_cut(&profiles, &e, Objective::Latency);
        assert!(lean.cut < profiles.len(), "with a free response the cloud should win");
        e.response_bytes = 50_000;
        let chatty = best_cut(&profiles, &e, Objective::Latency);
        assert_eq!(chatty.cut, profiles.len(), "bulky responses over a thin downlink favour edge-only");
    }

    #[test]
    fn planner_tracks_beta_contention_monotonically() {
        // More offload traffic -> slower effective link -> the planned cut
        // uploads no more bytes than before (it can only move toward
        // cheaper uploads).
        let mut planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 16);
        planner.set_beta(0.05);
        let quiet = plan(&planner);
        planner.set_beta(1.0);
        let busy = plan(&planner);
        assert!(
            busy.upload_bytes <= quiet.upload_bytes,
            "congestion should shrink uploads: {quiet:?} -> {busy:?}"
        );
        // And the effective environment really is slower.
        let eff = planner.blended_env(None, None);
        assert!((eff.link.throughput_mbps - env().link.throughput_mbps / 16.0).abs() < 1e-12);
    }

    #[test]
    fn measured_blend_interpolates_between_prior_and_measurement() {
        let mut planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 4);
        planner.set_beta(1.0); // static share = 4 -> prior rate = nominal / 4
        let prior = planner.blended_env(None, None).link;
        let measured = LinkEstimate { up_mbps: 100.0, down_mbps: 100.0, rtt_s: 0.0, samples: 8 };
        // Default prior weight is 8 pseudo-samples: 8 real samples = 50/50.
        let blended = planner.blended_env(None, Some(&measured)).link;
        assert!((blended.throughput_mbps - 0.5 * (100.0 + prior.throughput_mbps)).abs() < 1e-12);
        assert!((blended.rtt_s - 0.5 * prior.rtt_s).abs() < 1e-12);
        // Zero samples is exactly the static prior.
        let cold = LinkEstimate { samples: 0, ..measured };
        assert_eq!(planner.blended_env(None, Some(&cold)), planner.blended_env(None, None));
        // With the prior weight at zero, measurements win outright.
        planner.set_prior_samples(0.0);
        let pure = planner.blended_env(None, Some(&measured)).link;
        assert!((pure.throughput_mbps - 100.0).abs() < 1e-12);
        // And as samples grow, the blend converges to the measurement.
        planner.set_prior_samples(8.0);
        let heavy = LinkEstimate { samples: 10_000, ..measured };
        let near = planner.blended_env(None, Some(&heavy)).link;
        assert!((near.throughput_mbps - 100.0).abs() < 0.1);
    }

    #[test]
    fn measured_degradation_moves_the_plan_edge_heavier() {
        // The closed loop in one assertion: a planner whose static prior
        // says the link is fine, but whose telemetry reports a halved
        // effective rate, must plan a cut that uploads no more bytes (and
        // typically strictly fewer) than the open-loop plan.
        let profiles = vec![
            LayerProfile { name: "conv1".into(), macs: 1_000_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 2_000_000, out_elems: 256 },
            LayerProfile { name: "head".into(), macs: 5_000_000, out_elems: 10 },
        ];
        let mut e = env();
        e.link = NetworkLink::wifi(1000.0).with_rtt(0.0);
        e.cloud = DeviceProfile::new("dc", 500.0, 1e14);
        e.raw_input_bytes = 12288;
        let mut planner = CutPlanner::new(profiles, e, Objective::Latency, 1);
        planner.set_prior_samples(0.0); // trust telemetry outright
        let open_loop = plan(&planner);
        assert_eq!(open_loop.plan.final_cut(), 0, "with a fat prior link and a huge cloud, ship pixels");
        let degraded = LinkEstimate { up_mbps: 0.5, down_mbps: 0.5, rtt_s: 0.0, samples: 32 };
        let edge = planner.blended_env(None, None).edge;
        let closed_loop = planner.plan_placement_for_measured(&edge, None, Some(&degraded), None);
        assert!(
            closed_loop.upload_bytes < open_loop.upload_bytes,
            "measured congestion should shrink uploads: {open_loop:?} -> {closed_loop:?}"
        );
        assert!(
            closed_loop.plan.final_cut() > open_loop.plan.final_cut(),
            "degraded link should push layers to the edge"
        );
    }

    #[test]
    fn plan_classes_measured_blends_per_class() {
        let profiles = toy_profiles();
        let mut e = env();
        e.cloud = DeviceProfile::new("dc", 500.0, 1e14);
        e.link = NetworkLink::wifi(0.5).with_rtt(0.0);
        e.bytes_per_elem = 1; // int8 feature wire
        let mut planner = CutPlanner::new(profiles, e, Objective::Latency, 1);
        planner.set_prior_samples(0.0);
        let edge = DeviceProfile::new("edge", 10.0, 1e9);
        let classes = vec![edge.clone(), edge];
        // Class 0 measures a fat pipe, class 1 has no telemetry: only
        // class 0's plan may move cloudward relative to the static prior.
        let fat = LinkEstimate { up_mbps: 100_000.0, down_mbps: 100_000.0, rtt_s: 0.0, samples: 64 };
        let static_cuts = plan_classes(&planner, &classes, &[None, None], &[None, None]);
        assert!(static_cuts[0].plan.final_cut() > 0, "the slow static prior should keep layers at the edge");
        let cuts = plan_classes(&planner, &classes, &[None, None], &[Some(fat), None]);
        assert_eq!(cuts[1], static_cuts[1], "class without telemetry stays on the prior");
        assert_eq!(cuts[0].plan.final_cut(), 0, "a free measured uplink ships pixels immediately");
    }

    #[test]
    fn planner_never_picks_the_edge_only_endpoint() {
        // Even with a dead link (where the offline search would keep
        // everything at the edge), a *serving* cut must reach the cloud.
        let profiles = toy_profiles();
        let mut e = env();
        e.link = NetworkLink::wifi(0.001).with_rtt(0.5);
        assert_eq!(best_cut(&profiles, &e, Objective::Latency).cut, profiles.len());
        let planner = CutPlanner::new(profiles.clone(), e, Objective::Latency, 1);
        let cut = plan(&planner);
        assert!(cut.plan.final_cut() < profiles.len(), "serving cut may not be edge-only");
    }

    #[test]
    fn planner_differentiates_device_classes() {
        // A starved edge class should run no more layers locally than a
        // fast edge class under the same link.
        let profiles = vec![
            LayerProfile { name: "conv1".into(), macs: 1_000_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 2_000_000, out_elems: 256 },
            LayerProfile { name: "head".into(), macs: 5_000_000, out_elems: 10 },
        ];
        let mut e = env();
        e.link = NetworkLink::wifi(10.0).with_rtt(0.0);
        e.raw_input_bytes = 12288;
        let planner = CutPlanner::new(profiles, e, Objective::Latency, 1);
        let fast = DeviceProfile::new("fast edge", 10.0, 1e12);
        let slow = DeviceProfile::new("slow edge", 10.0, 1e6);
        let cuts = plan_classes(&planner, &[fast, slow], &[None, None], &[None, None]);
        assert!(
            cuts[1].plan.final_cut() <= cuts[0].plan.final_cut(),
            "slow edge should offload earlier: {cuts:?}"
        );
        assert_eq!(cuts.len(), 2);
    }

    #[test]
    fn per_class_link_priors_plan_per_radio() {
        // Two identical compute classes on very different radios: the
        // throttled class must not upload more bytes than the one on the
        // shared fast wire, and a class without a prior must plan exactly
        // as it does alone on the shared link.
        let profiles = vec![
            LayerProfile { name: "conv1".into(), macs: 1_000_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 2_000_000, out_elems: 256 },
            LayerProfile { name: "head".into(), macs: 100_000, out_elems: 10 },
        ];
        let mut e = env();
        e.link = NetworkLink::wifi(1000.0).with_rtt(0.0);
        e.raw_input_bytes = 12288;
        let planner = CutPlanner::new(profiles, e.clone(), Objective::Latency, 2);
        let edge = DeviceProfile::new("edge", 10.0, 1e9);
        let classes = vec![edge.clone(), edge];
        let slow = NetworkLink::wifi(0.01).with_rtt(0.0);

        let cuts = planner.plan_placements_with_links(&classes, &[None, Some(slow)], &[None, None]);
        let shared = planner.plan_placement_for_measured(&classes[0], None, None, None);
        assert_eq!(cuts[0], shared, "a class without a prior plans on the shared link");
        assert!(cuts[1].upload_bytes <= cuts[0].upload_bytes, "the throttled class must not ship more: {cuts:?}");
        assert_ne!(cuts[1].plan.final_cut(), cuts[0].plan.final_cut(), "a 100000x slower radio must move the cut");

        let none = planner.plan_placements_with_links(&classes, &[None, None], &[None, None]);
        assert_eq!(none, vec![shared.clone(), shared], "all-None priors must be the shared-link plan exactly");
    }

    #[test]
    fn per_class_link_prior_composes_with_measured_blend() {
        // The measured estimate corrects the class link exactly as it
        // corrects the shared link: planning with a prior equal to the
        // shared link and any estimate matches planning without a prior.
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 3);
        let edge = DeviceProfile::new("edge", 10.0, 1e9);
        let est = LinkEstimate { up_mbps: 0.5, down_mbps: 0.5, rtt_s: 0.02, samples: 16 };
        let shared_link = env().link;
        let with_prior = planner.plan_placement_for_measured(&edge, Some(&shared_link), Some(&est), None);
        let without = planner.plan_placement_for_measured(&edge, None, Some(&est), None);
        assert_eq!(with_prior, without);
    }

    #[test]
    fn sla_plan_minimises_bytes_over_the_feasible_set() {
        // All cuts fit a generous budget: the SLA plan ships the fewest
        // bytes per offload (sustained-throughput maximiser), which is
        // not necessarily the latency optimum.
        let profiles = vec![
            LayerProfile { name: "conv1".into(), macs: 1_000_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 2_000_000, out_elems: 256 },
            LayerProfile { name: "head".into(), macs: 5_000_000, out_elems: 10 },
        ];
        let mut e = env();
        e.link = NetworkLink::wifi(100_000.0).with_rtt(0.0);
        e.cloud = DeviceProfile::new("dc", 500.0, 1e14);
        e.raw_input_bytes = 12288;
        let planner = CutPlanner::new(profiles, e, Objective::Latency, 1);
        let edge = planner.blended_env(None, None).edge;
        let latency_best = planner.plan_placement_for_measured(&edge, None, None, None);
        assert_eq!(latency_best.plan.final_cut(), 0, "free uplink + huge cloud: latency ships pixels");
        let sla = SlaObjective { base: Objective::Latency, p95_budget_s: 10.0, accuracy_floor: 0.9 };
        let (cut, feasible) = planner.plan_placement_for_sla(&edge, None, None, &sla, None);
        assert!(feasible);
        assert_eq!(cut.plan.final_cut(), 2, "throughput wants the bottleneck cut: {cut:?}");
        assert!(cut.upload_bytes < latency_best.upload_bytes);
    }

    #[test]
    fn sla_plan_excludes_cuts_over_budget() {
        // A budget between the slowest and fastest cut prunes the
        // infeasible ones; the returned cut must fit it.
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 1);
        let edge = planner.blended_env(None, None).edge;
        let all: Vec<CutCost> = serving_costs(&planner, &edge, None);
        let (lo, hi) =
            all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), c| (lo.min(c.latency_s), hi.max(c.latency_s)));
        assert!(lo < hi, "toy cuts must differ in latency");
        let budget = (lo + hi) / 2.0;
        let sla = SlaObjective { base: Objective::Latency, p95_budget_s: budget, accuracy_floor: 0.9 };
        let (cut, feasible) = planner.plan_placement_for_sla(&edge, None, None, &sla, None);
        assert!(feasible);
        assert!(cut.latency_s <= budget, "{cut:?} over budget {budget}");
        let fewest_feasible = all.iter().filter(|c| c.latency_s <= budget).map(|c| c.upload_bytes).min().unwrap();
        assert_eq!(cut.upload_bytes, fewest_feasible);
    }

    #[test]
    fn unreachable_sla_falls_back_to_the_base_optimum() {
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 1);
        let edge = planner.blended_env(None, None).edge;
        let sla = SlaObjective { base: Objective::Latency, p95_budget_s: 1e-12, accuracy_floor: 0.9 };
        let (cut, feasible) = planner.plan_placement_for_sla(&edge, None, None, &sla, None);
        assert!(!feasible, "a picosecond budget is unreachable");
        assert_eq!(
            cut,
            planner.plan_placement_for_measured(&edge, None, None, None),
            "fallback is the unconstrained optimum"
        );
    }

    #[test]
    fn sla_plan_with_link_matches_shared_link_when_prior_is_shared() {
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 3);
        let edge = DeviceProfile::new("edge", 10.0, 1e9);
        let est = LinkEstimate { up_mbps: 0.5, down_mbps: 0.5, rtt_s: 0.02, samples: 16 };
        let sla = SlaObjective { base: Objective::Latency, p95_budget_s: 0.5, accuracy_floor: 0.9 };
        let shared_link = env().link;
        let with_prior = planner.plan_placement_for_sla(&edge, Some(&shared_link), Some(&est), &sla, None);
        let without = planner.plan_placement_for_sla(&edge, None, Some(&est), &sla, None);
        assert_eq!(with_prior, without);
    }

    fn coop_pool(members: usize, link_mbps: f64) -> PeerPool {
        PeerPool {
            class: 0,
            members,
            pooled: DeviceProfile::new("pool", 10.0, 1e9).scaled_throughput(members as f64),
            link: NetworkLink::wifi(link_mbps).with_rtt(0.0),
        }
    }

    #[test]
    fn placement_plan_accessors_cover_the_shapes() {
        let two = PlacementPlan::two_stage(2, 5);
        assert_eq!(two.final_cut(), 2);
        assert_eq!(two.stages()[1].layer_range, (2, 5));
        assert!(two.peer_stage().is_none());
        assert_eq!(two.stages().len(), 2);
        let three = PlacementPlan::three_stage(1, 3, 7, 5);
        assert!(three.peer_stage().is_some());
        assert_eq!(three.final_cut(), 3);
        assert_eq!(three.stages()[2].layer_range, (3, 5));
        let peer = three.peer_stage().expect("has a peer stage");
        assert_eq!(peer.executor, StageExecutor::Peer(7));
        assert_eq!(peer.layer_range, (1, 3));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn placement_plan_rejects_gaps() {
        PlacementPlan::from_stages(vec![
            Stage { executor: StageExecutor::Local, layer_range: (0, 1) },
            Stage { executor: StageExecutor::Cloud, layer_range: (2, 3) },
        ]);
    }

    #[test]
    #[should_panic(expected = "end at the cloud")]
    fn placement_plan_rejects_non_cloud_tail() {
        PlacementPlan::from_stages(vec![Stage { executor: StageExecutor::Local, layer_range: (0, 3) }]);
    }

    #[test]
    fn placement_without_a_pool_is_the_scalar_plan_exactly() {
        // No cooperative group means the placement search *is* the scalar
        // sweep over the serving cuts, later cuts winning ties — same
        // final cut, bit-identical latency/energy/bytes, a two-stage plan.
        for objective in [Objective::Latency, Objective::EdgeEnergy] {
            let planner = CutPlanner::new(toy_profiles(), env(), objective, 4);
            let edge = DeviceProfile::new("edge", 10.0, 1e9);
            let est = LinkEstimate { up_mbps: 2.0, down_mbps: 2.0, rtt_s: 0.005, samples: 6 };
            let score = |c: &CutCost| match objective {
                Objective::Latency => c.latency_s,
                Objective::EdgeEnergy => c.edge_energy_j,
            };
            for measured in [None, Some(est)] {
                let scalar = serving_costs(&planner, &edge, measured.as_ref())
                    .into_iter()
                    .rev() // later cuts (more edge) win ties
                    .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite costs"))
                    .expect("at least the raw-upload cut exists");
                let placed = planner.plan_placement_for_measured(&edge, None, measured.as_ref(), None);
                assert!(placed.plan.peer_stage().is_none());
                assert_eq!(placed.plan, PlacementPlan::two_stage(scalar.cut, 3));
                assert_eq!(placed.upload_bytes, scalar.upload_bytes);
                assert_eq!(placed.peer_bytes, 0);
                assert!(placed.latency_s == scalar.latency_s, "latency must be bit-identical");
                assert!(placed.edge_energy_j == scalar.edge_energy_j, "energy must be bit-identical");
            }
        }
    }

    #[test]
    fn single_member_pool_is_structurally_two_stage() {
        // A one-device "group" cannot split anything: the planner never
        // even scores a peer hop, so the plan is the no-pool plan
        // verbatim (not merely equal-cost — structurally identical).
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 4);
        let edge = DeviceProfile::new("edge", 10.0, 1e9);
        let solo = planner.plan_placement_for_measured(&edge, None, None, None);
        let lone = planner.plan_placement_for_measured(&edge, None, None, Some(&coop_pool(1, 1000.0)));
        assert_eq!(solo, lone);
    }

    #[test]
    fn pooled_peers_justify_a_deeper_final_cut() {
        // A weak edge on a thin WAN: solo it cannot afford the heavy
        // bottleneck layer locally, so it ships a fat early activation.
        // Three pooled peers on a fast local wire absorb that layer, the
        // WAN upload shrinks to the bottleneck, and latency drops.
        let profiles = vec![
            LayerProfile { name: "conv1".into(), macs: 200_000, out_elems: 4096 },
            LayerProfile { name: "conv2".into(), macs: 60_000_000, out_elems: 256 },
            LayerProfile { name: "head".into(), macs: 5_000_000, out_elems: 10 },
        ];
        let e = PartitionEnv {
            edge: DeviceProfile::new("edge", 10.0, 1e9),
            cloud: DeviceProfile::new("dc", 500.0, 1e11),
            link: NetworkLink::wifi(2.0).with_rtt(0.0),
            bytes_per_elem: 4,
            raw_input_bytes: 12288,
            response_bytes: 0,
        };
        let planner = CutPlanner::new(profiles, e.clone(), Objective::Latency, 1);
        let solo = planner.plan_placement_for_measured(&e.edge, None, None, None);
        assert!(solo.plan.peer_stage().is_none());
        assert!(solo.plan.final_cut() < 2, "solo cannot afford the bottleneck layer: {solo:?}");
        let pool = PeerPool {
            class: 0,
            members: 3,
            pooled: e.edge.scaled_throughput(3.0),
            link: NetworkLink::wifi(400.0).with_rtt(0.0),
        };
        let coop = planner.plan_placement_for_measured(&e.edge, None, None, Some(&pool));
        let peer = coop.plan.peer_stage().expect("the pool should win a stage");
        assert_eq!(peer.executor, StageExecutor::Peer(0));
        assert_eq!(coop.plan.final_cut(), 2, "the pooled split should reach the bottleneck: {coop:?}");
        assert_eq!(coop.upload_bytes, 256 * 4);
        assert_eq!(coop.peer_bytes, 4096 * 4, "peer hops always ship lossless f32");
        assert!(coop.latency_s < solo.latency_s, "cooperation must strictly improve: {solo:?} -> {coop:?}");
    }

    #[test]
    fn sla_placement_degenerates_to_the_scalar_sla_plan() {
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 1);
        let edge = planner.blended_env(None, None).edge;
        // Without a pool the SLA placement is a serving cut of the scalar
        // sweep: two-stage, costed bit-identically, the fewest-bytes cut
        // among those inside the budget — or, when none fits, the
        // unconstrained optimum flagged infeasible.
        let costs = serving_costs(&planner, &edge, None);
        for budget in [1e-12, 0.5, 10.0] {
            let sla = SlaObjective { base: Objective::Latency, p95_budget_s: budget, accuracy_floor: 0.9 };
            let (placed, placed_ok) = planner.plan_placement_for_sla(&edge, None, None, &sla, None);
            let scalar = costs[placed.plan.final_cut()];
            assert_eq!(placed.plan, PlacementPlan::two_stage(scalar.cut, 3));
            assert_eq!(placed.upload_bytes, scalar.upload_bytes);
            assert!(placed.latency_s == scalar.latency_s);
            let fewest_feasible = costs.iter().filter(|c| c.latency_s <= budget).map(|c| c.upload_bytes).min();
            assert_eq!(placed_ok, fewest_feasible.is_some());
            match fewest_feasible {
                Some(bytes) => assert_eq!(placed.upload_bytes, bytes),
                None => assert_eq!(placed, planner.plan_placement_for_measured(&edge, None, None, None)),
            }
        }
    }

    #[test]
    fn placements_per_class_mix_pools_and_priors() {
        // Class 0 plans solo on the shared link; class 1 carries both a
        // link prior and a pool. The solo class must match its own
        // single-class plan on final cut and cost.
        let planner = CutPlanner::new(toy_profiles(), env(), Objective::Latency, 2);
        let edge = DeviceProfile::new("edge", 10.0, 1e9);
        let classes = vec![edge.clone(), edge];
        let slow = NetworkLink::wifi(0.01).with_rtt(0.0);
        let pool = coop_pool(3, 1000.0);
        let placements = planner.plan_placements_with_links(
            &classes,
            &[None, Some(slow)],
            &[None, Some(PeerPool { class: 1, ..pool })],
        );
        let scalar = plan_classes(&planner, &classes, &[None, Some(slow)], &[None, None]);
        assert_eq!(placements.len(), 2);
        assert_eq!(placements[0].plan.final_cut(), scalar[0].plan.final_cut());
        assert!(placements[0].latency_s == scalar[0].latency_s);
        if let Some(peer) = placements[1].plan.peer_stage() {
            assert_eq!(peer.executor, StageExecutor::Peer(1));
        }
        assert!(placements[1].latency_s <= scalar[1].latency_s, "a pool can only help");
    }

    #[test]
    fn profile_network_covers_all_macs() {
        let mut rng = Rng::new(0);
        let mut cfg = CifarResNetConfig::repro_scale(6);
        cfg.input_hw = 8;
        let net = resnet_cifar(&cfg, &mut rng);
        let profiles = profile_network(&net);
        let total: u64 = profiles.iter().map(|p| p.macs).sum();
        assert_eq!(total, net.total_macs(), "profiled MACs must equal the model's total");
        // One profile per top-level segment layer, in order, then the head,
        // which outputs one logit per class.
        let layers: Vec<&str> =
            net.segments.iter().flat_map(|seg| seg.layers().iter().map(|l| l.name())).collect();
        assert_eq!(profiles.len(), layers.len() + 1);
        assert!(profiles.iter().zip(&layers).all(|(p, &name)| p.name == name));
        let head = profiles.last().unwrap();
        assert_eq!(head.name, "Head");
        assert_eq!(head.out_elems, 6);
    }
}
