//! The serving entry point and orchestration: [`Fleet`], and the one
//! worker scaffold (`serve_core`) every transport runs.

use super::*;

/// A serving deployment behind one validated entry point: the
/// configuration plus the edge/cloud replicas it owns.
///
/// `edges` and `clouds` are per-worker model replicas (`edges[w]` serves
/// edge worker `w`); replicate a trained system onto them with
/// `MeaNet::replicate_into` / `mea_nn::StateDict::from_cnn` so every
/// worker answers identically. In feature-payload mode every
/// [`EdgeReplica`] must also carry a bitwise replica of the cloud network
/// (its prefix runs at the edge).
///
/// A [`ServeConfig`] is valid by construction, and [`Fleet::new`] checks
/// the replicas against it once — counts, cloud prefixes, layer
/// enumeration, cut range — so a `Fleet` in hand is known-servable and
/// [`Fleet::serve`] can only fail on a malformed trace: misconfiguration
/// is a value ([`ServeError`]), not a crash.
#[derive(Debug)]
pub struct Fleet {
    config: ServeConfig,
    edges: Vec<EdgeReplica>,
    clouds: Vec<SegmentedCnn>,
}

impl Fleet {
    /// Checks the replicas against the configuration and bundles them.
    ///
    /// # Errors
    ///
    /// Replica-count mismatches, and feature-payload plans whose replicas
    /// lack or disagree on cloud prefixes or whose fixed cut does not fit
    /// them.
    pub fn new(
        config: ServeConfig,
        edges: Vec<EdgeReplica>,
        clouds: Vec<SegmentedCnn>,
    ) -> Result<Fleet, ServeError> {
        validate_replicas(&config, &edges, &clouds)?;
        Ok(Fleet { config, edges, clouds })
    }

    /// Serves a request trace to completion: [`Fleet::serve_with`] with a
    /// sink that keeps every record (in input order) and every completion
    /// (in the order they landed).
    ///
    /// # Errors
    ///
    /// As [`Fleet::serve_with`].
    pub fn serve(&mut self, requests: &[ServeRequest]) -> Result<ServeReport, ServeError> {
        let mut records: Vec<Option<InstanceRecord>> = vec![None; requests.len()];
        let mut completions = Vec::with_capacity(requests.len());
        let stats = self.serve_with(requests, |c| {
            let earlier = records[c.req_id].replace(c.record);
            assert!(earlier.is_none(), "request {} completed twice", c.req_id);
            completions.push(c);
        })?;
        let records = records.into_iter().map(|r| r.expect("every request served")).collect();
        Ok(ServeReport { records, completions, stats })
    }

    /// Serves a request trace (sorted by `arrival_s`, see
    /// [`trace_requests`]) in real time, handing each [`Completion`] to
    /// `sink` as it settles: on the calling (dispatching) thread, between
    /// arrivals and after the joins, in completion order. A settled request
    /// is folded into the returned [`ServeStats`] and forgotten, so memory
    /// is bounded by the requests in flight, not by the trace. A panic in
    /// the sink shuts the run down and is re-raised.
    ///
    /// # Errors
    ///
    /// Only trace errors, before any thread spawns: non-finite, unsorted,
    /// negative or unschedulably late arrivals, or an image that is not
    /// one `[1, C, H, W]` instance of the edge network's input.
    pub fn serve_with(
        &mut self,
        requests: &[ServeRequest],
        sink: impl FnMut(Completion),
    ) -> Result<ServeStats, ServeError> {
        validate_trace(requests, self.edges[0].net.in_shape())?;
        let Fleet { config: cfg, edges, clouds } = self;
        // One lane per run, whatever the cloud worker count.
        Ok(match &cfg.transport {
            TransportKind::Modelled => {
                let lane = ModelledTransport::new(1, ingress_depth(cfg));
                serve_core(cfg, edges, clouds, requests, lane, sink)
            }
            #[cfg(unix)]
            TransportKind::Uds(uc) => {
                let lane = crate::transport::UdsTransport::new(1, uc.clone());
                serve_core(cfg, edges, clouds, requests, lane, sink)
            }
        })
    }
}

/// `later − earlier` in seconds: negative when `later` is the earlier one.
fn signed_secs_since(later: Instant, earlier: Instant) -> f64 {
    match later.checked_duration_since(earlier) {
        Some(d) => d.as_secs_f64(),
        None => -earlier.duration_since(later).as_secs_f64(),
    }
}

/// The histogram behind [`ServeStats::dispatch_lateness`]. Punctual
/// dispatch is sub-µs late, below [`StreamingHistogram::for_latency`]'s
/// 1 µs floor, so this one starts at 1 ns: 1,024 log-spaced buckets up to
/// [`StreamingHistogram::HI`], ≤ 3 % relative quantile error.
pub(super) fn lateness_histogram() -> StreamingHistogram {
    StreamingHistogram::new(1e-9, StreamingHistogram::HI, 1024)
}

/// Joins one kind of worker, noting each panic as "`what` `i` panicked:
/// …" with its original message, so the message survives propagation out
/// of the serving runtime.
fn join_noting(what: &str, handles: Vec<crossbeam::thread::ScopedJoinHandle<'_, ()>>, panics: &mut Vec<String>) {
    for (i, h) in handles.into_iter().enumerate() {
        let Err(p) = h.join() else { continue };
        let note = match (p.downcast_ref::<&'static str>(), p.downcast_ref::<String>()) {
            (Some(s), _) => s,
            (_, Some(s)) => s.as_str(),
            _ => "non-string panic payload",
        };
        panics.push(format!("{what} {i} panicked: {note}"));
    }
}

/// Frames the cloud ingress holds: `queue_depth` per cloud worker, and
/// one slot when there is none, so an edge-only run still builds its lane.
fn ingress_depth(cfg: &ServeConfig) -> usize {
    (cfg.queue_depth * cfg.cloud_workers).max(1)
}

/// Owns the edge queues on the dispatching thread. If that thread
/// unwinds — a panicking sink, or any other panic on the dispatch side —
/// it drops the queues and closes the transport's request lanes, so every
/// worker drains and exits and the scope re-raises the panic instead of
/// joining workers that wait forever.
struct DispatchCloser<'a, 'j, T: Transport> {
    edge_txs: Vec<Sender<EdgeJob<'j>>>,
    transport: &'a T,
}

impl<T: Transport> Drop for DispatchCloser<'_, '_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.edge_txs.clear();
            self.transport.close_requests();
        }
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
    /// Offloaded requests park here, keyed by request id, until their
    /// response frame returns (the wire carries only the request id and
    /// the prediction back): it holds only the offloads in flight.
    pub(crate) pending: Mutex<HashMap<usize, PendingEntry>>,
    pub(crate) counters: Mutex<CloudCounters>,
    /// Suffix MACs per resume layer (`suffix_macs[k]` = MACs of layers
    /// `[k, L)`): what the cloud pays per instance resumed at `k`, and
    /// the basis of the recompute-saved accounting.
    pub(crate) suffix_macs: Vec<u64>,
    pub(crate) skipped_main_exits: AtomicUsize,
    /// Peer-stage byte/hop counters, fed by every multi-stage offload.
    pub(crate) peer: PeerTelemetry,
    /// Frames on their way to the cloud tier (counted up by an edge worker
    /// before each send, down by the cloud workers per batch taken), and
    /// its high-water.
    pub(crate) queued: AtomicUsize,
    pub(crate) max_queued: AtomicUsize,
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
    mut sink: impl FnMut(Completion),
) -> ServeStats {
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
            let prefix = edges[0].cloud_prefix.as_mut().expect("validated in Fleet::new()");
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
    let suffix_macs: Vec<u64> = clouds.first().map_or_else(Vec::new, |cloud| {
        let profiles = profile_network(cloud);
        (0..=profiles.len()).map(|k| profiles[k..].iter().map(|p| p.macs).sum()).collect()
    });
    let run = WorkerCtx {
        cfg,
        policy: Mutex::new(PolicyState::new(cfg, cloud_available, cut_table)),
        spec,
        transport,
        grids,
        pending: Mutex::new(HashMap::new()),
        counters: Mutex::new(CloudCounters { per_worker: vec![0; cfg.cloud_workers], ..CloudCounters::default() }),
        suffix_macs,
        skipped_main_exits: AtomicUsize::new(0),
        peer: PeerTelemetry::default(),
        queued: AtomicUsize::new(0),
        max_queued: AtomicUsize::new(0),
    };
    let (ctx, transport, spec) = (&run, &run.transport, &run.spec);

    let (done_tx, done_rx) = unbounded::<Completion>();
    let (edge_txs, edge_rxs): (Vec<Sender<EdgeJob<'_>>>, Vec<Receiver<EdgeJob<'_>>>) =
        (0..cfg.edge_workers).map(|_| bounded(cfg.queue_depth)).unzip();

    // The settle step: every completion is folded into the statistics and
    // handed to the sink on this thread, in the order it landed — before
    // each dispatch and once more after the joins — so nothing about a
    // settled request outlives it.
    let fleet = cfg.fleet.as_ref();
    let (mut total, mut offloaded) = (0, 0);
    // Per-class breakdowns only when a fleet is explicitly configured:
    // the implicit spec would report classes nobody named.
    let mut per_class = fleet.map(|f| vec![ClassStats::default(); f.class_count()]);
    let mut settle = |c: Completion| {
        total += 1;
        offloaded += usize::from(c.record.exit == ExitPoint::Cloud);
        if let (Some(fleet), Some(classes)) = (fleet, per_class.as_mut()) {
            classes[fleet.class_of(c.device)].observe(&c);
        }
        sink(c);
    };

    // How late each request left the dispatcher, stamped just before its send.
    let mut dispatch_lateness = lateness_histogram();
    let mut worker_panics: Vec<String> = Vec::new();
    let t0 = crossbeam::thread::scope(|scope| {
        // The cloud workers read the run's one lane together. On the
        // modelled wire its uplink channel is the ingress itself. A byte
        // wire keeps one reader, which stamps `received_at` as each frame
        // reassembles and feeds a queue of the same bound.
        let mut uplink = transport.take_uplink(0);
        let mut reader_handle = Vec::new();
        let ingress: Box<dyn UplinkReceiver + Send> = if cfg.transport.is_measured() {
            let (tx, rx) = bounded(ingress_depth(cfg));
            reader_handle.push(scope.spawn(move |_| {
                while let RecvOutcome::Frame(f) = uplink.recv(None) {
                    if tx.send(f).is_err() {
                        return;
                    }
                }
            }));
            Box::new(ReaderQueue(rx))
        } else {
            Box::new(uplink)
        };
        // This scope keeps no share of the lane, so the workers own the
        // shutdown (see `SharedLane`).
        let lane = Arc::new(SharedLane { ingress: Mutex::new(ingress), transport });
        let mut cloud_handles = Vec::with_capacity(cfg.cloud_workers);
        for (worker, cloud) in clouds.iter_mut().enumerate() {
            let lane = Arc::clone(&lane);
            cloud_handles.push(scope.spawn(move |_| cloud_worker(ctx, cloud, worker, lane)));
        }
        drop(lane);
        // One collector reads the downlink and owns the per-device reorder
        // gate, so concurrent cloud batches cannot reorder a device's
        // responses.
        let mut downlink = transport.take_downlink(0);
        let dtx = done_tx.clone();
        let collector_handle = scope.spawn(move |_| {
            let mut gate = ReorderGate::default();
            while let RecvOutcome::Frame(resp) = downlink.recv() {
                let req_id = resp.frame.req_id as usize;
                let entry = ctx.pending.lock().remove(&req_id).expect("one pending entry per response frame");
                let completion = Completion {
                    req_id,
                    device: entry.device,
                    seq: entry.seq,
                    record: entry.pending.complete(resp.frame.prediction as usize),
                    latency_s: entry.due.elapsed().as_secs_f64(),
                };
                // The governor's live evidence: every cloud completion's
                // end-to-end latency, recorded as it lands (release order
                // is irrelevant to quantiles).
                if governed {
                    ctx.policy.lock().record_latency(spec.class_of(entry.device), completion.latency_s);
                }
                // Latency is measured at arrival; only the *release* into
                // the completion stream is deferred until every earlier
                // offload of the device has come back.
                gate.release(entry.device, entry.cloud_idx, completion, &dtx);
            }
        });
        let mut edge_handles = Vec::with_capacity(cfg.edge_workers);
        for (rx, replica) in edge_rxs.into_iter().zip(edges.iter_mut()) {
            let dtx = done_tx.clone();
            edge_handles.push(scope.spawn(move |_| edge_worker(ctx, replica, rx, dtx)));
        }
        drop(done_tx);

        // Dispatch: pace the trace in real time, device-sticky routing
        // through the spec's canonical mapping, settling whatever has
        // completed before each request waits for its due time, so the
        // sink never delays a send. A dead edge worker
        // (closed queue) stops dispatch; the joins below surface its
        // panic.
        let mut dispatch = DispatchCloser { edge_txs, transport };
        // Every due time counts from here, after the last spawn, so the
        // first request does not pay for thread start-up.
        let t0 = Instant::now();
        for (req_id, req) in requests.iter().enumerate() {
            let due = clock::after(t0, req.arrival_s).expect("validate_trace bounds every arrival");
            while let Ok(c) = done_rx.try_recv() {
                settle(c);
            }
            clock::sleep_until(due);
            dispatch_lateness.record(signed_secs_since(Instant::now(), due));
            if dispatch.edge_txs[spec.sticky_index(req.device, cfg.edge_workers)]
                .send(EdgeJob { req_id, req, due })
                .is_err()
            {
                break;
            }
        }
        dispatch.edge_txs.clear();

        // Shutdown cascade: edge workers drain their closed queues and
        // exit; the request lane then closes (a byte wire's reader drains
        // it and closes its queue), cloud workers drain the ingress and
        // exit, the last one closing the response lane, and the collector
        // follows. Joining — instead of blocking on a completion count —
        // means a panicked worker is *detected*: its payload is collected
        // and re-raised with context, rather than wedging the runtime on
        // completions that will never arrive.
        join_noting("edge worker", edge_handles, &mut worker_panics);
        transport.close_requests();
        join_noting("lane reader", reader_handle, &mut worker_panics);
        join_noting("cloud worker", cloud_handles, &mut worker_panics);
        join_noting("response collector", vec![collector_handle], &mut worker_panics);
        while let Ok(c) = done_rx.try_recv() {
            settle(c);
        }
        t0
    })
    .expect("serving scope");
    if !worker_panics.is_empty() {
        panic!("serving runtime worker panicked — {}", worker_panics.join("; "));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let WorkerCtx { policy, counters, skipped_main_exits, peer, max_queued, .. } = run;
    let (counters, st) = (counters.into_inner(), policy.into_inner());
    let (cut_replans, link_estimates) = match &st.cuts {
        Some(t) => (t.replans, t.estimator.as_ref().map(LinkEstimator::estimates)),
        None => (0, None),
    };
    let placements = st.cuts.map(|t| t.placements);
    ServeStats {
        total,
        offloaded,
        wall_s,
        throughput_hz: if wall_s > 0.0 { total as f64 / wall_s } else { 0.0 },
        cloud_batches: counters.batches,
        cloud_forwards: counters.forwards,
        max_batch_seen: counters.max_batch,
        bytes_to_cloud: counters.bytes,
        bytes_from_cloud: counters.bytes_down,
        cloud_macs: counters.macs,
        cloud_macs_saved: counters.macs_saved,
        cut_replans,
        final_cuts: placements.as_ref().map(|ps| ps.iter().map(PlacementPlan::final_cut).collect()),
        placements,
        peer_bytes: peer.bytes.into_inner(),
        peer_hops: peer.hops.into_inner(),
        link_estimates,
        final_threshold: st.controller.map(|c| c.threshold()),
        skipped_main_exits: skipped_main_exits.into_inner(),
        per_class,
        dispatch_lateness,
        steals: 0,
        per_worker_batches: counters.per_worker,
        max_queue_depth: max_queued.into_inner(),
        sla_violations: st.governor.as_ref().map_or(0, |g| g.governor.sla_violations()),
        governor_decisions: st.governor.as_ref().map_or(0, |g| g.decisions),
        control_trajectory: st.governor.map(|g| g.trajectory),
    }
}
