//! Serving entry points and orchestration: [`try_serve`], the [`Fleet`]
//! API, the core worker scaffold and the payload pipelines.

use super::*;

/// Runs the serving runtime to completion over a request trace.
///
/// `edges` and `clouds` are per-worker model replicas (`edges[w]` serves
/// edge worker `w`); replicate a trained system onto them with
/// `MeaNet::replicate_into` / `mea_nn::StateDict::from_cnn` so every
/// worker answers identically. In feature-payload mode every
/// [`EdgeReplica`] must also carry a bitwise replica of the cloud network
/// (its prefix runs at the edge). Requests must be sorted by `arrival_s`
/// (see [`trace_requests`]); the dispatcher paces them in real time.
///
/// Prefer [`Fleet`], which owns its replicas and validates once at
/// construction; `try_serve` is the borrowing form underneath it.
///
/// # Errors
///
/// Every inconsistency is rejected up front, before any thread spawns:
/// [`ServeError::Config`] wraps the static [`ServeConfigError`]s
/// (zero workers or batch, schedules without links, planner
/// misconfiguration, fleet/class conflicts), and the remaining variants
/// cover replica-count mismatches, malformed traces (non-finite,
/// unsorted or negative arrivals, multi-instance images) and
/// feature-payload plans whose replicas lack or disagree on cloud
/// prefixes or whose fixed cut is out of range.
pub fn try_serve(
    cfg: &ServeConfig,
    edges: &mut [EdgeReplica],
    clouds: &mut [SegmentedCnn],
    requests: &[ServeRequest],
) -> Result<ServeReport, ServeError> {
    validate_serve(cfg, edges, clouds, requests)?;
    let (lanes, depth) = (cfg.cloud_workers, cfg.queue_depth);
    Ok(match &cfg.transport {
        TransportKind::Modelled => serve_core(cfg, edges, clouds, requests, ModelledTransport::new(lanes, depth)),
        TransportKind::Pipe(pc) => serve_core(cfg, edges, clouds, requests, PipeTransport::new(lanes, pc.clone())),
        #[cfg(unix)]
        TransportKind::Uds(uc) => serve_core(cfg, edges, clouds, requests, UdsTransport::new(lanes, uc.clone())),
    })
}

/// A serving deployment behind one validated entry point: the
/// configuration plus the edge/cloud replicas it owns.
///
/// [`Fleet::new`] runs every request-independent check once —
/// configuration invariants *and* replica consistency (counts, cloud
/// prefixes, layer enumeration, cut range) — so a `Fleet` in hand is
/// known-servable and [`Fleet::serve`] can only fail on a malformed
/// trace: misconfiguration is a value ([`ServeError`]), not a crash.
#[derive(Debug)]
pub struct Fleet {
    config: ServeConfig,
    edges: Vec<EdgeReplica>,
    clouds: Vec<SegmentedCnn>,
}

impl Fleet {
    /// Validates the configuration against the replicas and bundles them.
    ///
    /// # Errors
    ///
    /// Everything [`try_serve`] rejects except trace errors: wrapped
    /// [`ServeConfigError`]s, replica-count mismatches, and
    /// feature-payload prefix/cut inconsistencies.
    pub fn new(
        config: ServeConfig,
        edges: Vec<EdgeReplica>,
        clouds: Vec<SegmentedCnn>,
    ) -> Result<Fleet, ServeError> {
        validate_serve(&config, &edges, &clouds, &[])?;
        Ok(Fleet { config, edges, clouds })
    }

    /// Serves a request trace to completion (see [`try_serve`]).
    ///
    /// # Errors
    ///
    /// Only trace errors remain possible after [`Fleet::new`]: non-finite,
    /// unsorted or negative arrival times, or multi-instance images.
    pub fn serve(&mut self, requests: &[ServeRequest]) -> Result<ServeReport, ServeError> {
        try_serve(&self.config, &mut self.edges, &mut self.clouds, requests)
    }

    /// The validated configuration this fleet serves under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The heterogeneous device registry, if one is configured.
    pub fn spec(&self) -> Option<&FleetSpec> {
        self.config.fleet.as_ref()
    }

    /// Releases the configuration and replicas (e.g. to retrain the
    /// models or rebuild with a different configuration).
    pub fn into_parts(self) -> (ServeConfig, Vec<EdgeReplica>, Vec<SegmentedCnn>) {
        (self.config, self.edges, self.clouds)
    }
}

/// Renders a joined worker's panic payload so the original message
/// survives propagation out of the serving runtime.
pub(crate) fn panic_note(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Closes a lane's response direction when its cloud worker exits —
/// normally or mid-unwind — so the lane's response collector always sees
/// end-of-stream instead of blocking forever behind a dead worker.
pub(crate) struct LaneCloser<'a, T: Transport> {
    pub(crate) transport: &'a T,
    pub(crate) lane: usize,
}

impl<T: Transport> Drop for LaneCloser<'_, T> {
    fn drop(&mut self) {
        self.transport.close_responses(self.lane);
    }
}

/// Everything the serving workers of one run share, built once in
/// [`serve_core`]: the configuration and resolved fleet spec, the wire,
/// the mutexed policy state and the run's counters.
pub(crate) struct WorkerCtx<'a, T: Transport> {
    pub(crate) cfg: &'a ServeConfig,
    /// The spec serving runs under (see [`implicit_spec`]).
    pub(crate) spec: FleetSpec,
    pub(crate) transport: T,
    pub(crate) policy: Mutex<PolicyState>,
    /// Calibrated per-channel activation grids, shared by edge encoders
    /// and cloud decoders out of band (empty when no wire needs them).
    pub(crate) grids: ActivationGrids,
    /// Offloaded requests park here until their response frame returns
    /// (the wire carries only the request id and the prediction back).
    pub(crate) pending: Mutex<Vec<Option<PendingEntry>>>,
    pub(crate) counters: Mutex<CloudCounters>,
    /// Suffix MACs per resume layer (`suffix_macs[k]` = MACs of layers
    /// `[k, L)`): what the cloud pays per instance resumed at `k`, and
    /// the basis of the recompute-saved accounting.
    pub(crate) suffix_macs: Vec<u64>,
    pub(crate) skipped_main_exits: AtomicUsize,
    /// Peer-stage byte/hop counters, fed by every multi-stage offload.
    pub(crate) peer: PeerTelemetry,
}

/// The serving runtime over a concrete [`Transport`]. A measured wire
/// ([`TransportKind::is_measured`]) feeds the [`LinkEstimator`]
/// `Instant::now()` deltas around the actual transfers and skips the
/// modelled sleeps — the wire's own time is the latency; the modelled
/// one feeds it the link model's own times (deterministic).
pub(crate) fn serve_core<T: Transport>(
    cfg: &ServeConfig,
    edges: &mut [EdgeReplica],
    clouds: &mut [SegmentedCnn],
    requests: &[ServeRequest],
    transport: T,
) -> ServeReport {
    let n = requests.len();
    let cloud_available = cfg.cloud_workers > 0;
    let spec = implicit_spec(cfg);
    let cut_table = build_cut_table(cfg, edges, requests, &spec);
    let governed = matches!(cfg.control, ControlPlan::Governed(_));
    // Grids are needed whenever offloads may ship grid-indexed
    // per-channel int8 frames — the configured wire, or any governed run
    // (per-channel int8 is the governor's deepest wire rung). Calibrated
    // once from the first request's activations at every cut, with
    // headroom for hotter inputs.
    let wants_grids = governed || cfg.control.feature_wire() == Some(FeatureWire::PerChannelInt8);
    let grids = match (wants_grids, requests.first()) {
        (true, Some(first)) => {
            let prefix = edges[0].cloud_prefix.as_mut().expect("validated in try_serve()");
            let per_cut = (0..prefix.cut_layer_count())
                .map(|k| {
                    let act = prefix.forward_prefix(&first.image, k, Mode::Eval);
                    Some(channel_absmax(&act).iter().map(|a| (a * GRID_HEADROOM).max(1e-6)).collect())
                })
                .collect();
            ActivationGrids::from_absmax(per_cut)
        }
        _ => ActivationGrids::default(),
    };
    // Completions of offloaded requests pass a per-device reorder gate,
    // so work stealing cannot reorder a device's cloud responses.
    let reorder = Mutex::new(ReorderGate::default());
    // The sharded work-stealing ingress (None under SingleQueue, where
    // each cloud worker drains its own transport lane directly).
    let ingress = match cfg.ingress {
        CloudIngress::Sharded if cloud_available => Some(ShardedIngress::new(cfg.cloud_workers, cfg.queue_depth)),
        _ => None,
    };
    let suffix_macs: Vec<u64> = match clouds.first() {
        Some(cloud) => {
            let profiles = profile_network(cloud);
            let mut acc = vec![0u64; profiles.len() + 1];
            for k in (0..profiles.len()).rev() {
                acc[k] = acc[k + 1] + profiles[k].macs;
            }
            acc
        }
        None => Vec::new(),
    };
    let run = WorkerCtx {
        cfg,
        policy: Mutex::new(PolicyState::new(cfg, cloud_available, cut_table)),
        spec,
        transport,
        grids,
        pending: Mutex::new((0..n).map(|_| None).collect()),
        counters: Mutex::new(CloudCounters { per_shard: vec![0; cfg.cloud_workers], ..CloudCounters::default() }),
        suffix_macs,
        skipped_main_exits: AtomicUsize::new(0),
        peer: PeerTelemetry::default(),
    };
    let (ctx, transport, spec) = (&run, &run.transport, &run.spec);

    let (done_tx, done_rx) = unbounded::<Completion>();
    let mut edge_txs: Vec<Sender<EdgeJob<'_>>> = Vec::with_capacity(cfg.edge_workers);
    let mut edge_rxs: Vec<Receiver<EdgeJob<'_>>> = Vec::with_capacity(cfg.edge_workers);
    for _ in 0..cfg.edge_workers {
        let (tx, rx) = bounded(cfg.queue_depth);
        edge_txs.push(tx);
        edge_rxs.push(rx);
    }

    let t0 = Instant::now();
    let mut worker_panics: Vec<String> = Vec::new();
    let completions = crossbeam::thread::scope(|scope| {
        // Sharded mode: one pump per lane drains arrived frames into its
        // bounded shard (the workers below coalesce from the shards and
        // steal across them). SingleQueue mode: the workers own the
        // uplinks directly.
        let mut pump_handles = Vec::new();
        if let Some(ing) = ingress.as_ref() {
            for lane in 0..cfg.cloud_workers {
                let mut uplink = transport.take_uplink(lane);
                pump_handles.push(scope.spawn(move |_| {
                    let _guard = IngressAbortGuard { ingress: ing };
                    loop {
                        match uplink.recv(None) {
                            RecvOutcome::Frame(f) => {
                                if ing.push(lane, f).is_err() {
                                    return;
                                }
                            }
                            RecvOutcome::Closed => {
                                ing.close_shard(lane);
                                return;
                            }
                            RecvOutcome::TimedOut => unreachable!("recv without a timeout cannot time out"),
                        }
                    }
                }));
            }
        }
        let mut cloud_handles = Vec::with_capacity(cfg.cloud_workers);
        for (lane, cloud) in clouds.iter_mut().enumerate() {
            let source = match ingress.as_ref() {
                Some(ing) => BatchSource::Shard(ing),
                None => BatchSource::Lane(transport.take_uplink(lane)),
            };
            cloud_handles.push(scope.spawn(move |_| cloud_worker(ctx, cloud, lane, source)));
        }
        let mut collector_handles = Vec::with_capacity(cfg.cloud_workers);
        for lane in 0..cfg.cloud_workers {
            let mut downlink = transport.take_downlink(lane);
            let dtx = done_tx.clone();
            let gate = &reorder;
            collector_handles.push(scope.spawn(move |_| {
                while let RecvOutcome::Frame(resp) = downlink.recv() {
                    let entry = ctx.pending.lock()[resp.frame.req_id as usize]
                        .take()
                        .expect("one pending entry per response frame");
                    let completion = Completion {
                        req_id: resp.frame.req_id as usize,
                        device: entry.device,
                        seq: entry.seq,
                        record: entry.pending.complete(resp.frame.prediction as usize),
                        latency_s: entry.due.elapsed().as_secs_f64(),
                    };
                    // The governor's live evidence: every cloud
                    // completion's end-to-end latency, recorded as it
                    // lands (release order is irrelevant to quantiles).
                    if governed {
                        ctx.policy.lock().record_latency(spec.class_of(entry.device), completion.latency_s);
                    }
                    // Latency is measured at arrival; only the *release*
                    // into the completion stream is deferred until every
                    // earlier offload of the device has come back.
                    gate.lock().release(entry.device, entry.cloud_idx, completion, &dtx);
                }
            }));
        }
        let mut edge_handles = Vec::with_capacity(cfg.edge_workers);
        for (rx, replica) in edge_rxs.into_iter().zip(edges.iter_mut()) {
            let dtx = done_tx.clone();
            edge_handles.push(scope.spawn(move |_| edge_worker(ctx, replica, rx, dtx)));
        }
        drop(done_tx);

        // Dispatch: pace the trace in real time, device-sticky routing
        // through the spec's canonical mapping. A dead edge worker
        // (closed queue) stops dispatch; the joins below surface its
        // panic.
        for (req_id, req) in requests.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(req.arrival_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if edge_txs[spec.sticky_index(req.device, cfg.edge_workers)]
                .send(EdgeJob { req_id, req, due })
                .is_err()
            {
                break;
            }
        }
        drop(edge_txs);

        // Shutdown cascade: edge workers drain their closed queues and
        // exit; the request stream then closes, cloud workers drain and
        // exit (each closing its response lane via LaneCloser), and the
        // collectors follow. Joining — instead of blocking on a
        // completion count — means a panicked worker is *detected*: its
        // payload is collected and re-raised with context, rather than
        // wedging the runtime on completions that will never arrive.
        for (w, h) in edge_handles.into_iter().enumerate() {
            if let Err(p) = h.join() {
                worker_panics.push(format!("edge worker {w} panicked: {}", panic_note(&p)));
            }
        }
        transport.close_requests();
        for (lane, h) in pump_handles.into_iter().enumerate() {
            if let Err(p) = h.join() {
                worker_panics.push(format!("ingress pump {lane} panicked: {}", panic_note(&p)));
            }
        }
        for (w, h) in cloud_handles.into_iter().enumerate() {
            if let Err(p) = h.join() {
                worker_panics.push(format!("cloud worker {w} panicked: {}", panic_note(&p)));
            }
        }
        for (lane, h) in collector_handles.into_iter().enumerate() {
            if let Err(p) = h.join() {
                worker_panics.push(format!("response collector {lane} panicked: {}", panic_note(&p)));
            }
        }

        let mut completions = Vec::with_capacity(n);
        while let Ok(c) = done_rx.try_recv() {
            completions.push(c);
        }
        completions
    })
    .expect("serving scope");
    if !worker_panics.is_empty() {
        panic!("serving runtime worker panicked — {}", worker_panics.join("; "));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut records: Vec<Option<InstanceRecord>> = vec![None; n];
    for c in &completions {
        assert!(records[c.req_id].is_none(), "request {} completed twice", c.req_id);
        records[c.req_id] = Some(c.record);
    }
    let records: Vec<InstanceRecord> = records.into_iter().map(|r| r.expect("every request served")).collect();

    let offloaded = records.iter().filter(|r| r.exit == ExitPoint::Cloud).count();
    let WorkerCtx { policy, counters, skipped_main_exits, peer: peer_telemetry, .. } = run;
    let counters = counters.into_inner();
    let (final_threshold, cut_replans, final_cuts, placements, link_estimates, governor_outcome) = {
        let st = policy.into_inner();
        let replans = st.cuts.as_ref().map_or(0, |t| t.replans);
        let estimates = st.cuts.as_ref().and_then(|t| t.estimator.as_ref()).map(LinkEstimator::estimates);
        let placements = st.cuts.map(|t| t.placements);
        let cuts = placements.as_ref().map(|ps| ps.iter().map(PlacementPlan::final_cut).collect::<Vec<_>>());
        let outcome = st.governor.map(|g| (g.governor.sla_violations(), g.decisions, g.trajectory));
        (st.controller.map(|c| c.threshold()), replans, cuts, placements, estimates, outcome)
    };
    let (sla_violations, governor_decisions, control_trajectory) = match governor_outcome {
        Some((violations, decisions, trajectory)) => (violations, decisions, Some(trajectory)),
        None => (0, 0, None),
    };
    // Per-class breakdowns only when a fleet is explicitly configured:
    // the implicit spec would report classes nobody named.
    let per_class = cfg.fleet.as_ref().map(|fleet| {
        let k = fleet.class_count();
        let mut served = vec![0usize; k];
        let mut offload = vec![0usize; k];
        // Bounded streaming histograms, fed one completion at a time: no
        // per-class latency buffer scaling with the trace length.
        let mut hists: Vec<Option<StreamingHistogram>> = vec![None; k];
        for c in &completions {
            let class = fleet.class_of(c.device);
            served[class] += 1;
            offload[class] += usize::from(c.record.exit == ExitPoint::Cloud);
            hists[class].get_or_insert_with(StreamingHistogram::for_latency).record(c.latency_s);
        }
        (served, offload, hists)
    });
    let (per_class_served, per_class_offload, per_class_latency) = match per_class {
        Some((s, o, h)) => (Some(s), Some(o), Some(h)),
        None => (None, None, None),
    };
    let stats = ServeStats {
        total: n,
        offloaded,
        wall_s,
        throughput_hz: if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 },
        cloud_batches: counters.batches,
        cloud_forwards: counters.forwards,
        max_batch_seen: counters.max_batch,
        bytes_to_cloud: counters.bytes,
        bytes_from_cloud: counters.bytes_down,
        cloud_macs: counters.macs,
        cloud_macs_saved: counters.macs_saved,
        cut_replans,
        final_cuts,
        placements,
        peer_bytes: peer_telemetry.bytes.load(Ordering::Relaxed),
        peer_hops: peer_telemetry.hops.load(Ordering::Relaxed),
        link_estimates,
        final_threshold,
        skipped_main_exits: skipped_main_exits.into_inner(),
        per_class_served,
        per_class_offload,
        per_class_latency,
        steals: counters.steals,
        per_shard_batches: counters.per_shard,
        max_queue_depth: ingress.as_ref().map_or(0, ShardedIngress::max_depth),
        sla_violations,
        governor_decisions,
        control_trajectory,
    };
    ServeReport { records, completions, stats }
}

/// Statistics gathered by [`run_payload_pipeline`].
#[derive(Debug, Default)]
pub struct ThreadedStats {
    /// Total bytes that crossed the edge→cloud channel.
    pub bytes_sent: u64,
    /// Number of payloads processed by the cloud workers.
    pub payloads: u64,
}

/// Generic payload pipeline: round-robins encoded payloads across
/// `workers` dynamic-batching consumers over the chosen wire and returns
/// the classifications in request order — the transport skeleton of the
/// cloud tier. [`TransportKind::Modelled`] uses in-memory channels,
/// [`TransportKind::Pipe`] a real byte pipe; both yield identical results
/// and byte accounting, only the wall-clock differs. `workers: 1,
/// max_batch: 1` is a plain two-node edge→cloud pipeline.
///
/// `classify` runs on the worker threads.
///
/// # Panics
///
/// Panics if `workers == 0` or `max_batch == 0`, or when a worker thread
/// panics.
pub fn run_payload_pipeline(
    kind: &TransportKind,
    payloads: Vec<Payload>,
    workers: usize,
    max_batch: usize,
    max_wait: Duration,
    queue_depth: usize,
    classify: impl Fn(&Payload) -> usize + Send + Sync,
) -> (Vec<usize>, ThreadedStats) {
    assert!(workers > 0, "need at least one worker");
    assert!(max_batch > 0, "max_batch must be at least 1");
    match kind {
        TransportKind::Modelled => pipeline_core(
            ModelledTransport::new(workers, queue_depth),
            payloads,
            workers,
            max_batch,
            max_wait,
            classify,
        ),
        TransportKind::Pipe(pc) => pipeline_core(
            PipeTransport::new(workers, pc.clone()),
            payloads,
            workers,
            max_batch,
            max_wait,
            classify,
        ),
        #[cfg(unix)]
        TransportKind::Uds(uc) => {
            pipeline_core(UdsTransport::new(workers, uc.clone()), payloads, workers, max_batch, max_wait, classify)
        }
    }
}

/// The payload pipeline over a concrete [`Transport`]: per-lane dynamic
/// batching workers decode and classify, per-lane collectors funnel the
/// response frames back, the caller's thread dispatches round-robin.
fn pipeline_core<T: Transport>(
    transport: T,
    payloads: Vec<Payload>,
    workers: usize,
    max_batch: usize,
    max_wait: Duration,
    classify: impl Fn(&Payload) -> usize + Send + Sync,
) -> (Vec<usize>, ThreadedStats) {
    let n = payloads.len();
    let stats = Mutex::new(ThreadedStats::default());
    let (resp_tx, resp_rx) = unbounded::<(usize, usize)>();
    let mut results = vec![0usize; n];
    let transport = &transport;
    crossbeam::thread::scope(|scope| {
        for lane in 0..workers {
            let mut uplink = transport.take_uplink(lane);
            let stats_ref = &stats;
            let classify_ref = &classify;
            scope.spawn(move |_| {
                let _closer = LaneCloser { transport, lane };
                while let Some(batch) = coalesce_frames(&mut uplink, max_batch, max_wait) {
                    {
                        let mut guard = stats_ref.lock();
                        for b in &batch {
                            guard.bytes_sent += b.frame.payload.len() as u64;
                            guard.payloads += 1;
                        }
                    }
                    for b in batch {
                        let req_id = b.frame.req_id;
                        let payload = Payload::decode(b.frame.payload).expect("the edge ships well-formed frames");
                        let resp = ResponseFrame { req_id, prediction: classify_ref(&payload) as u32 };
                        if transport.send_response(lane, resp).is_err() {
                            return;
                        }
                    }
                }
            });
        }
        for lane in 0..workers {
            let mut downlink = transport.take_downlink(lane);
            let tx = resp_tx.clone();
            scope.spawn(move |_| {
                while let RecvOutcome::Frame(resp) = downlink.recv() {
                    if tx.send((resp.frame.req_id as usize, resp.frame.prediction as usize)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(resp_tx);
        for (id, p) in payloads.iter().enumerate() {
            let frame = RequestFrame {
                req_id: id as u64,
                device: (id % workers) as u32,
                seq: id as u64,
                resume_layer: 0,
                payload: p.encode(),
            };
            if transport.send_request(id % workers, frame).is_err() {
                break;
            }
        }
        transport.close_requests();
        for _ in 0..n {
            match resp_rx.recv() {
                Ok((id, pred)) => results[id] = pred,
                // A worker died mid-run: stop collecting; the scope join
                // re-raises its panic.
                Err(_) => break,
            }
        }
    })
    .expect("payload pipeline panicked");

    (results, stats.into_inner())
}
