//! Request/trace construction and the serving run's observable output:
//! [`Completion`]s, [`ServeStats`] and [`ServeReport`].

use super::*;

/// One request to the serving runtime: an image from a device, due at a
/// trace-determined arrival time.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Originating device (drives device-sticky worker routing).
    pub device: usize,
    /// Per-device sequence number (0, 1, 2, … in arrival order).
    pub seq: usize,
    /// Arrival offset from the start of serving (s).
    pub arrival_s: f64,
    /// The image, `[1, C, H, W]`.
    pub image: Tensor,
    /// True class (carried for record keeping, never used for routing).
    pub truth: usize,
}

/// Builds a request trace over a dataset: instance `i` becomes device
/// `i % devices`' `i / devices`-th frame, with per-device arrival times
/// drawn from `model`. The result is sorted by arrival time (stably, so
/// simultaneous arrivals keep dataset order).
///
/// # Panics
///
/// Panics if `devices == 0`, the dataset is empty, or the arrival model
/// produces a non-finite arrival time (the error names the offending
/// request).
pub fn trace_requests(data: &Dataset, devices: usize, model: &ArrivalModel, rng: &mut Rng) -> Vec<ServeRequest> {
    assert!(devices > 0, "need at least one device");
    let n = data.len();
    assert!(n > 0, "nothing to serve");
    let per_device: Vec<usize> = (0..devices).map(|d| n / devices + usize::from(d < n % devices)).collect();
    let times: Vec<Vec<f64>> =
        per_device.iter().map(|&c| if c == 0 { Vec::new() } else { model.generate(c, rng) }).collect();
    let mut requests: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let (device, seq) = (i % devices, i / devices);
            let arrival_s = times[device][seq];
            assert!(
                arrival_s.is_finite(),
                "non-finite arrival time {arrival_s} for request {i} (device {device}, seq {seq})"
            );
            ServeRequest {
                device,
                seq,
                arrival_s,
                image: data.images.slice_axis0(i, i + 1),
                truth: data.labels[i],
            }
        })
        .collect();
    requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    requests
}

/// One served instance, in completion order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Index of the request in the input vector.
    pub req_id: usize,
    /// Originating device.
    pub device: usize,
    /// Per-device sequence number.
    pub seq: usize,
    /// The finished Algorithm-2 record.
    pub record: InstanceRecord,
    /// End-to-end latency from (trace) arrival to completion (s).
    pub latency_s: f64,
}

/// One fleet device class's share of a run, folded one completion at a
/// time as requests settle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Requests of the class served.
    pub served: usize,
    /// Requests of the class classified by the cloud.
    pub offloaded: usize,
    /// End-to-end latency distribution (None until the class serves its
    /// first request): a bounded [`StreamingHistogram`], so it stays the
    /// same size at any trace length.
    pub latency: Option<StreamingHistogram>,
}

impl ClassStats {
    /// Folds one settled completion of the class in.
    pub(crate) fn observe(&mut self, c: &Completion) {
        self.served += 1;
        self.offloaded += usize::from(c.record.exit == ExitPoint::Cloud);
        self.latency.get_or_insert_with(StreamingHistogram::for_latency).record(c.latency_s);
    }
}

/// Aggregate serving statistics: counters the workers keep, and
/// ([`ServeStats::total`], [`ServeStats::offloaded`],
/// [`ServeStats::per_class`]) a fold over completions as they settle. No
/// field is built from a buffer of the trace, so they cost the same
/// memory at any trace length.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests served.
    pub total: usize,
    /// Requests classified by the cloud tier.
    pub offloaded: usize,
    /// Wall-clock time from start of dispatch to last completion (s).
    pub wall_s: f64,
    /// `total / wall_s`.
    pub throughput_hz: f64,
    /// Coalesced batches formed by the cloud tier (a batch holding mixed
    /// cut points runs one forward per cut).
    pub cloud_batches: u64,
    /// Batched forwards executed by the cloud tier (≥ `cloud_batches`).
    pub cloud_forwards: u64,
    /// Largest coalesced batch observed.
    pub max_batch_seen: usize,
    /// Bytes received by the cloud tier.
    pub bytes_to_cloud: u64,
    /// Response bytes sent back down the link
    /// ([`RESPONSE_WIRE_BYTES`] per offloaded instance).
    pub bytes_from_cloud: u64,
    /// Multiply-adds the cloud tier actually executed (suffix MACs per
    /// offloaded instance; the full network in image-payload mode).
    pub cloud_macs: u64,
    /// Multiply-adds the cloud tier did *not* recompute because the edge
    /// shipped cut-layer activations — equivalently, the prefix MACs the
    /// edge executed on behalf of the cloud. Zero in image-payload mode.
    pub cloud_macs_saved: u64,
    /// Times the cut planner re-planned mid-run and actually changed a
    /// cut (controller-driven β moves and measured-link feedback; 0 for
    /// fixed cuts or image payloads).
    pub cut_replans: u64,
    /// The final cut each device class ended on — the layer whose
    /// activation crosses the WAN, [`PlacementPlan::final_cut`] of the
    /// class's entry in [`ServeStats::placements`] (None in image-payload
    /// mode). Derived; it survives because the frozen benchmark crate
    /// reads it.
    pub final_cuts: Option<Vec<usize>>,
    /// The [`PlacementPlan`] each device class ended on (None in
    /// image-payload mode). A two-stage plan is a scalar cut;
    /// plans with a peer stage split the prefix across cooperating edge
    /// devices before the WAN hop.
    pub placements: Option<Vec<PlacementPlan>>,
    /// Activation bytes shipped between cooperating edge devices on peer
    /// stages (always the lossless f32 feature codec; 0 without
    /// multi-stage placements).
    pub peer_bytes: u64,
    /// Peer-stage hops executed (one per offload whose placement has a
    /// peer stage; 0 without multi-stage placements).
    pub peer_hops: u64,
    /// Final measured-link estimate per device class (None unless the
    /// [`ControlPlan`] carries [`LinkFeedback`]; a class entry is None
    /// until its first observed batch).
    pub link_estimates: Option<Vec<Option<LinkEstimate>>>,
    /// The entropy threshold after the last controller window (None
    /// without a controller).
    pub final_threshold: Option<f32>,
    /// Requests whose main exit was never evaluated because the
    /// difficulty predictor pre-committed them to the cloud (0 without
    /// [`ServeConfigBuilder::difficulty`]): the main-exit forwards
    /// difficulty-aware routing saved.
    pub skipped_main_exits: usize,
    /// Served and offloaded counts and the latency distribution per
    /// fleet device class (Some exactly when [`ServeConfigBuilder::fleet`]
    /// is set; indexed by class).
    pub per_class: Option<Vec<ClassStats>>,
    /// How late each request left the dispatcher: `now − due` in seconds,
    /// taken just before the send to its edge worker, one sample per
    /// dispatched request. A paced request waits on a clock that sleeps
    /// short of its due time and spins the rest, so its sample is 0 to a
    /// few µs; a request due while the dispatcher was still busy (a
    /// saturated trace) reads how far dispatch ran behind. Never
    /// negative: nothing leaves before it is due. Its buckets start at
    /// 1 ns, so quantiles resolve sub-µs lateness.
    pub dispatch_lateness: StreamingHistogram,
    /// Always 0: a run has one transport lane, which every cloud worker
    /// reads, so no batch holds a frame of "another worker's lane". How a
    /// backlog spread over the workers is [`ServeStats::per_worker_batches`].
    pub steals: u64,
    /// Coalesced batches per cloud worker (length `cloud_workers`). Sums
    /// to [`ServeStats::cloud_batches`].
    pub per_worker_batches: Vec<u64>,
    /// High-water mark of frames on their way to the cloud tier (counting
    /// a frame from just before an edge worker sends it until a cloud
    /// worker's batch takes it).
    pub max_queue_depth: usize,
    /// Decision windows whose live p95 latency violated the governed SLA
    /// (always 0 without [`ControlPlan::Governed`]). Each violation
    /// advanced the violating class one rung up the governor's ladder.
    pub sla_violations: u64,
    /// Times the governor actually *moved* the joint (β, cut, wire)
    /// operating point (0 without [`ControlPlan::Governed`]; epochs that
    /// re-derived the same point do not count).
    pub governor_decisions: u64,
    /// The governed control trajectory: the initial operating point plus
    /// one [`ControlPoint`] per decision that moved it, so
    /// `control_trajectory.as_ref().unwrap().last()` is always the final
    /// (β, cut, wire) per class. `Some` exactly when
    /// [`ControlPlan::Governed`] is configured.
    pub control_trajectory: Option<Vec<ControlPoint>>,
}

/// Everything the serving runtime produces.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One record per request, in *input vector order* — directly
    /// comparable against the offline sweep on the same instances.
    pub records: Vec<InstanceRecord>,
    /// Per-instance completions in completion order (the stream an
    /// operator would observe).
    pub completions: Vec<Completion>,
    /// Aggregate statistics.
    pub stats: ServeStats,
}

impl ServeReport {
    /// Fraction of requests classified by the cloud.
    pub fn achieved_beta(&self) -> f64 {
        if self.stats.total == 0 {
            0.0
        } else {
            self.stats.offloaded as f64 / self.stats.total as f64
        }
    }

    /// End-to-end latency distribution over `bins` uniform bins spanning
    /// the observed range — quantiles come from
    /// [`Histogram::quantile`].
    ///
    /// # Panics
    ///
    /// Panics if there are no completions or `bins == 0`.
    pub fn latency_histogram(&self, bins: usize) -> Histogram {
        let latencies: Vec<f64> = self.completions.iter().map(|c| c.latency_s).collect();
        Histogram::of_nonnegative(&latencies, bins)
    }
}
