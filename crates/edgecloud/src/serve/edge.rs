//! Edge-tier execution: the per-class cut/placement table, policy state,
//! the edge worker loop and the offload path to the cloud tier.

use super::*;

/// An instance travelling from the dispatcher to an edge worker.
#[derive(Debug)]
pub(crate) struct EdgeJob<'a> {
    pub(crate) req_id: usize,
    pub(crate) req: &'a ServeRequest,
    pub(crate) due: Instant,
}

/// An offloaded request parked on the edge side of the transport until
/// its [`ResponseFrame`] returns: everything needed to finish the record
/// that does not cross the wire.
#[derive(Debug)]
pub(crate) struct PendingEntry {
    pub(crate) pending: PendingCloud,
    pub(crate) device: usize,
    pub(crate) seq: usize,
    pub(crate) due: Instant,
    /// Per-device offload index assigned by the (single) edge worker that
    /// owns the device's stream — the key the [`ReorderGate`] releases
    /// completions in, so per-device FIFO survives concurrent cloud
    /// batches.
    pub(crate) cloud_idx: u64,
}

/// Bytes and hops shipped between cooperating edge devices, counted by
/// every peer stage an edge worker executes. Lives next to the cloud
/// byte counters in `serve_core` and surfaces as
/// [`ServeStats::peer_bytes`] / [`ServeStats::peer_hops`].
#[derive(Debug, Default)]
pub(crate) struct PeerTelemetry {
    pub(crate) bytes: AtomicU64,
    pub(crate) hops: AtomicU64,
}

/// The live placement table of feature-payload serving: the current
/// [`PlacementPlan`] per device class, plus the planner that re-derives
/// it when β moves or the measured-link telemetry says the wire changed.
/// A scalar cut is the two-stage special case
/// ([`PlacementPlan::two_stage`]).
#[derive(Debug)]
pub(crate) struct CutTable {
    /// None for [`ControlPlan::Static`] (the table never changes).
    pub(crate) planner: Option<(CutPlanner, Vec<DeviceProfile>)>,
    /// The fleet spec the table is indexed by (the configured one, or the
    /// implicit round-robin spec).
    pub(crate) spec: FleetSpec,
    /// Per-class static radio priors.
    pub(crate) links: Vec<Option<NetworkLink>>,
    pub(crate) placements: Vec<PlacementPlan>,
    /// Per-class cooperative peer pools — held so every replan rescores
    /// peer hops too.
    pub(crate) pools: Vec<Option<PeerPool>>,
    /// The feature wire each class currently ships offloads on: the
    /// configured wire everywhere until a governor moves a class up its
    /// ladder.
    pub(crate) wires: Vec<FeatureWire>,
    /// What the planner minimises (the governor wraps this base objective
    /// in its SLA constraint for escalated classes).
    pub(crate) objective: Objective,
    pub(crate) replans: u64,
    /// The closed-loop configuration; None plans open-loop.
    pub(crate) feedback: Option<LinkFeedback>,
    /// Per-class EWMA link telemetry (present exactly when `feedback` is).
    pub(crate) estimator: Option<LinkEstimator>,
    /// Cloud batches observed by the feedback loop so far.
    pub(crate) observed_batches: u64,
}

impl CutTable {
    /// A table serving `placements[class]` on `wire` with no planner
    /// attached: nothing ever replans it.
    pub(crate) fn new(spec: &FleetSpec, placements: Vec<PlacementPlan>, wire: FeatureWire) -> CutTable {
        let classes = placements.len();
        CutTable {
            planner: None,
            spec: spec.clone(),
            links: vec![None; classes],
            placements,
            pools: vec![None; classes],
            wires: vec![wire; classes],
            objective: Objective::Latency,
            replans: 0,
            feedback: None,
            estimator: None,
            observed_batches: 0,
        }
    }

    /// The placement and wire of `device`'s class.
    pub(crate) fn placement_for(&self, device: usize) -> (PlacementPlan, FeatureWire) {
        let class = self.spec.class_of(device);
        (self.placements[class].clone(), self.wires[class])
    }

    /// Re-derives the per-class placements under the planner's current β
    /// and whatever telemetry has accumulated; counts a replan only when
    /// a plan actually changes (two-stage plans compare equal exactly
    /// when their final cuts do). Under a governor, `sla` carries its
    /// SLA objective and the classes it has escalated (`constrained[k]`):
    /// those plan against [`CutPlanner::plan_placement_for_sla`] — fewest
    /// WAN upload bytes among the placements that fit the p95 budget —
    /// while every other class keeps the base objective, so a healthy
    /// class is planned bit-identically to the open-loop path.
    pub(crate) fn replan(&mut self, sla: Option<(&SlaObjective, &[bool])>) {
        let Some((planner, classes)) = &self.planner else { return };
        let estimates = self.estimator.as_ref().map(LinkEstimator::estimates);
        let new_placements: Vec<PlacementPlan> = classes
            .iter()
            .enumerate()
            .map(|(k, edge)| {
                let link = self.links[k].as_ref();
                let measured = estimates.as_ref().and_then(|e| e[k].as_ref());
                let pool = self.pools[k].as_ref();
                match sla {
                    Some((sla, constrained)) if constrained[k] => {
                        planner.plan_placement_for_sla(edge, link, measured, sla, pool).0.plan
                    }
                    _ => planner.plan_placement_for_measured(edge, link, measured, pool).plan,
                }
            })
            .collect();
        if new_placements != self.placements {
            self.placements = new_placements;
            self.replans += 1;
        }
    }
}

/// The fleet spec serving actually runs under: the configured one, or —
/// for `ServeConfigBuilder::fleet: None` — an implicit spec round-robining
/// devices over the planner's device classes at [`ComputeTier::High`]
/// (which scales nothing, so each class's effective profile *is* the
/// configured one); one default edge class when no planner config is
/// given.
pub(crate) fn implicit_spec(cfg: &ServeConfig) -> FleetSpec {
    if let Some(spec) = &cfg.fleet {
        return spec.clone();
    }
    let class = |p: &DeviceProfile| DeviceClass::new(p.name.clone(), p.clone(), ComputeTier::High);
    match cfg.control.planner() {
        Some(pc) => FleetSpec::round_robin(pc.classes.iter().map(class).collect()),
        None => FleetSpec::uniform(class(&DeviceProfile::edge_gpu_cifar())),
    }
}

/// Window size of the β controller the governor synthesises when its β
/// rung first fires without a configured [`ControllerConfig`] (governed
/// plans never configure one — β belongs to the governor).
pub(crate) const GOVERNOR_CONTROLLER_WINDOW: usize = 32;

/// The governor's live state inside [`PolicyState`]: the decision core
/// plus the per-class latency windows the collectors feed and the
/// decision trajectory the stats report.
pub(crate) struct GovernorState {
    pub(crate) governor: Governor,
    /// Per-class end-to-end latency since the last decision epoch, fed
    /// by every completion (local and cloud).
    pub(crate) latency: Vec<StreamingHistogram>,
    /// Epochs that actually moved the (β, cut, wire) operating point.
    pub(crate) decisions: u64,
    /// The initial operating point plus one entry per decision.
    pub(crate) trajectory: Vec<ControlPoint>,
}

/// Shared (mutexed) routing policy state: the engine all edge workers
/// consult, plus the controller feedback loop, the live cut table and —
/// under [`ControlPlan::Governed`] — the SLA governor.
pub(crate) struct PolicyState {
    pub(crate) engine: RoutingEngine,
    pub(crate) controller: Option<ThresholdController>,
    pub(crate) window: usize,
    pub(crate) seen: usize,
    pub(crate) offloaded: usize,
    /// Lifetime routing counts (never reset): the achieved offload
    /// fraction the governor seeds its β rung from.
    pub(crate) seen_total: u64,
    pub(crate) offloaded_total: u64,
    /// The configured routing policy — what the governor synthesises a β
    /// controller from when its β rung first fires.
    pub(crate) base_policy: OffloadPolicy,
    pub(crate) cuts: Option<CutTable>,
    pub(crate) governor: Option<GovernorState>,
}

impl PolicyState {
    pub(crate) fn new(cfg: &ServeConfig, cloud_available: bool, cuts: Option<CutTable>) -> PolicyState {
        let (policy, controller, window) = match cfg.control.controller() {
            Some(cc) => {
                (OffloadPolicy::EntropyThreshold(cc.controller.threshold()), Some(cc.controller), cc.window)
            }
            None => (cfg.policy, None, 0),
        };
        let governor = match (&cfg.control, &cuts) {
            (ControlPlan::Governed(target), Some(table)) => {
                let classes = table.placements.len();
                Some(GovernorState {
                    governor: Governor::new(GovernorConfig::new(*target), classes),
                    latency: vec![StreamingHistogram::for_latency(); classes],
                    decisions: 0,
                    // Seed the trajectory with the initial operating point
                    // so `last()` is always the final (β, placement, wire)
                    // per class.
                    trajectory: vec![ControlPoint {
                        after_batches: 0,
                        beta_target: None,
                        placements: table.placements.clone(),
                        wires: table.wires.clone(),
                    }],
                })
            }
            _ => None,
        };
        PolicyState {
            engine: RoutingEngine::new(policy, cloud_available),
            controller,
            window,
            seen: 0,
            offloaded: 0,
            seen_total: 0,
            offloaded_total: 0,
            base_policy: cfg.policy,
            cuts,
            governor,
        }
    }

    /// Feeds one routing decision back into the controller; when a window
    /// fills, the threshold (and the engine's policy) is retuned and —
    /// since the offload fraction just moved — the cut planner re-plans
    /// the per-class cuts under the new contention (and whatever link
    /// telemetry has accumulated).
    pub(crate) fn observe(&mut self, offloaded: bool) {
        self.seen_total += 1;
        self.offloaded_total += u64::from(offloaded);
        let Some(ctrl) = &mut self.controller else { return };
        self.seen += 1;
        self.offloaded += usize::from(offloaded);
        if self.seen == self.window {
            let achieved = self.offloaded as f64 / self.seen as f64;
            let t = ctrl.observe_window(self.offloaded, self.seen);
            self.engine.set_policy(OffloadPolicy::EntropyThreshold(t));
            self.seen = 0;
            self.offloaded = 0;
            if let Some(table) = &mut self.cuts {
                if let Some((planner, _)) = &mut table.planner {
                    planner.set_beta(achieved);
                    // A governed cut table replans only at the governor's
                    // own epochs, with its per-class constraints.
                    if self.governor.is_none() {
                        table.replan(None);
                    }
                }
            }
        }
    }

    /// Records one completion's end-to-end latency into `class`'s live
    /// quantile window. No-op without a governor.
    pub(crate) fn record_latency(&mut self, class: usize, latency_s: f64) {
        if let Some(gv) = &mut self.governor {
            gv.latency[class].record(latency_s);
        }
    }

    /// Feeds one served cloud batch's link telemetry into the estimator
    /// (one observation per device class present in the batch) and, every
    /// [`LinkFeedback::replan_every`] batches, replans the cuts from the
    /// measured rates — through the governor's decision epoch when one is
    /// configured. No-op without a closed-loop cut table.
    pub(crate) fn observe_link(
        &mut self,
        devices: &[usize],
        up_bytes: u64,
        up_s: f64,
        down_bytes: u64,
        down_s: f64,
        rtt_s: f64,
    ) {
        let due = {
            let Some(table) = &mut self.cuts else { return };
            let Some(fb) = table.feedback else { return };
            let spec = &table.spec;
            let Some(est) = &mut table.estimator else { return };
            let mut seen = vec![false; est.class_count()];
            for &d in devices {
                let class = spec.class_of(d);
                if !seen[class] {
                    seen[class] = true;
                    est.observe(class, up_bytes, up_s, down_bytes, down_s, rtt_s);
                }
            }
            table.observed_batches += 1;
            table.observed_batches % fb.replan_every.get() == 0
        };
        if !due {
            return;
        }
        if self.governor.is_some() {
            self.governor_epoch();
        } else if let Some(table) = &mut self.cuts {
            table.replan(None);
        }
    }

    /// One governor decision epoch (every [`LinkFeedback::replan_every`]
    /// cloud batches): judge each class's live latency window against the
    /// SLA (escalating violators one ladder rung), roll the windows, then
    /// apply the ladder — per-class wires, an SLA-constrained replan for
    /// escalated classes, and the β target through a (synthesised)
    /// threshold controller. Counts a decision only when the joint
    /// (β, cut, wire) point actually moved.
    pub(crate) fn governor_epoch(&mut self) {
        let (Some(gv), Some(table)) = (self.governor.as_mut(), self.cuts.as_mut()) else { return };
        let achieved =
            if self.seen_total == 0 { 0.0 } else { self.offloaded_total as f64 / self.seen_total as f64 };
        let classes = table.placements.len();
        for class in 0..classes {
            // Each epoch judges only the evidence gathered since the
            // last one: close the window either way.
            let w = std::mem::replace(&mut gv.latency[class], StreamingHistogram::for_latency());
            gv.governor.observe_window(class, (w.count() > 0).then(|| w.p95()), w.count(), achieved);
        }
        for class in 0..classes {
            table.wires[class] = gv.governor.wire(class);
        }
        // Unescalated classes plan exactly like the open-loop path, so a
        // generous SLA serves record-identically to it.
        let constrained: Vec<bool> = (0..classes).map(|c| gv.governor.sla_constrained(c)).collect();
        let sla = gv.governor.sla_objective(table.objective);
        table.replan(Some((&sla, &constrained)));
        if let Some(beta) = gv.governor.beta_target() {
            match &mut self.controller {
                Some(ctrl) => ctrl.set_target_beta(beta),
                // The β rung binds entropy-threshold routing only: the
                // governor synthesises an integral controller steering
                // the configured threshold toward the lowered target.
                // Other policies leave routing untouched (the rung is
                // inert, never a panic).
                None => {
                    if let OffloadPolicy::EntropyThreshold(t0) = self.base_policy {
                        self.controller = Some(ThresholdController::new(t0, beta, 2.0, (0.0, 3.0)));
                        self.window = GOVERNOR_CONTROLLER_WINDOW;
                        self.seen = 0;
                        self.offloaded = 0;
                    }
                }
            }
        }
        let point = ControlPoint {
            after_batches: table.observed_batches,
            beta_target: gv.governor.beta_target(),
            placements: table.placements.clone(),
            wires: table.wires.clone(),
        };
        let last = gv.trajectory.last().expect("trajectory seeded with the initial operating point");
        let moved = last.beta_target != point.beta_target
            || last.placements != point.placements
            || last.wires != point.wires;
        if moved {
            gv.decisions += 1;
            gv.trajectory.push(point);
        }
    }
}

/// Derives the initial cut table (and its planner) from the control plan
/// and the resolved fleet spec. `None` for image payloads.
pub(crate) fn build_cut_table(
    cfg: &ServeConfig,
    edges: &[EdgeReplica],
    requests: &[ServeRequest],
    spec: &FleetSpec,
) -> Option<CutTable> {
    let wire = cfg.control.feature_wire()?;
    let prefix = edges
        .first()
        .and_then(|e| e.cloud_prefix.as_ref())
        .expect("feature-payload serving requires cloud-prefix replicas on every edge worker");
    let (cloud, objective, feedback) = match &cfg.control {
        // Unreachable past `feature_wire()?`; the arm keeps the match
        // exhaustive without a wildcard.
        ControlPlan::Image { .. } => return None,
        // The cut range is checked in `validate_replicas`; the forced cut
        // applies to every class.
        ControlPlan::Static { cut, .. } => {
            let plan = PlacementPlan::two_stage(*cut, prefix.cut_layer_count());
            return Some(CutTable::new(spec, vec![plan; spec.class_count()], wire));
        }
        ControlPlan::OpenLoop { planner, .. } => (planner.cloud.clone(), planner.objective, None),
        ControlPlan::ClosedLoop { planner, feedback, .. } => {
            (planner.cloud.clone(), planner.objective, Some(*feedback))
        }
        // The governor starts at the open-loop operating point — lossless
        // f32 on latency-planned cuts against the default cloud, the
        // configured routing policy untouched — and only moves away from
        // it when live windows violate the SLA.
        ControlPlan::Governed(_) => {
            (DeviceProfile::cloud_accelerator(), Objective::Latency, Some(LinkFeedback::default()))
        }
    };
    // The planner's classes are the spec's effective (tier-scaled)
    // profiles, per-class radio priors and cooperative peer pools; the
    // implicit spec carries the configured classes unscaled, on the
    // shared link, solo.
    let (classes, links, pools) = (spec.effective_profiles(), spec.link_priors(), spec.peer_pools());
    let link = cfg.link.expect("planned cut selection requires a link model (ServeConfigBuilder::link)");
    let in_elems: u64 = prefix.in_shape.iter().map(|&d| d as u64).product();
    let env = PartitionEnv {
        edge: classes[0].clone(),
        cloud,
        link,
        bytes_per_elem: wire.bytes_per_elem(),
        raw_input_bytes: wire.bytes_per_elem() * in_elems,
        response_bytes: RESPONSE_WIRE_BYTES,
    };
    // Contention counts the *distinct* devices sharing the uplink: a
    // trace from devices {0, 7} is two streams, not eight (ids may be
    // sparse — device numbering is opaque).
    let streams = requests.iter().map(|r| r.device).collect::<std::collections::BTreeSet<_>>().len();
    let mut planner = CutPlanner::from_network(prefix, env, objective, streams.max(1));
    if let Some(cc) = cfg.control.controller() {
        planner.set_beta(cc.controller.target_beta());
    }
    let estimator = feedback.map(|fb| {
        planner.set_prior_samples(fb.prior_samples);
        LinkEstimator::new(classes.len(), fb.alpha)
    });
    let placements =
        planner.plan_placements_with_links(&classes, &links, &pools).into_iter().map(|c| c.plan).collect();
    Some(CutTable {
        planner: Some((planner, classes)),
        links,
        pools,
        objective,
        feedback,
        estimator,
        ..CutTable::new(spec, placements, wire)
    })
}

/// Ships one request toward the cloud tier: executes the device class's
/// [`PlacementPlan`] stage by stage — local prefix layers on this
/// replica, peer stages shipped to a cooperating edge device over the
/// lossless f32 peer wire (paying the modelled coop link in real wall
/// time; the peer runs a bitwise-identical prefix replica, so the hop
/// cannot change a value) — then encodes the final-cut activation (or
/// the raw image, when there is no `placement`) straight from the
/// borrowed tensor, parks the pending record, and puts the frame on the
/// run's one lane. `cloud_idx` is the device's offload sequence
/// number, the key the [`ReorderGate`] releases the completion in.
/// Returns `false` when the cloud tier is gone (uplink dropped) — the
/// caller stops quietly and the join in `serve_core` surfaces whatever
/// panic killed it.
pub(crate) fn offload_to_cloud<T: Transport>(
    ctx: &WorkerCtx<'_, T>,
    cloud_prefix: &mut Option<SegmentedCnn>,
    job: &EdgeJob<'_>,
    placement: Option<(PlacementPlan, FeatureWire)>,
    parked: PendingCloud,
    cloud_idx: u64,
) -> bool {
    let req = job.req;
    // No placement means no cut table: image payloads.
    let (payload, resume) = match (&ctx.cfg.control, placement) {
        (ControlPlan::Image { wire: WireFormat::Quantised8Bit, .. }, _) => {
            (Payload::encode_raw_image(&req.image), 0)
        }
        (_, None) => (Payload::encode_features(&req.image), 0),
        (_, Some((plan, wire))) => {
            let prefix = cloud_prefix.as_mut().expect("validated in Fleet::new()");
            let mut act = req.image.clone();
            let mut resume = 0;
            for stage in plan.stages() {
                let (from, to) = stage.layer_range;
                match stage.executor {
                    StageExecutor::Cloud => {
                        resume = from;
                        break;
                    }
                    StageExecutor::Local => {
                        if to > from {
                            act = prefix.forward_range(&act, from, to, Mode::Eval);
                        }
                    }
                    StageExecutor::Peer(class) => {
                        if to > from {
                            // The peer hop is always the lossless f32
                            // feature codec, whatever the WAN wire: a
                            // lossy intra-edge hop would compound with
                            // the cloud hop's quantiser and break the
                            // cut-is-a-pure-cost-knob invariant.
                            let bytes = Payload::encode_features(&act);
                            ctx.peer.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                            ctx.peer.hops.fetch_add(1, Ordering::Relaxed);
                            // Pay the coop link (upload + half RTT) in
                            // real wall time, like the modelled WAN. A
                            // forced placement naming a class without a
                            // coop group ships on a free wire rather
                            // than panicking mid-serve.
                            if let Some(group) = ctx.spec.classes()[class].coop {
                                clock::sleep_until(leg_deadline(group.link.uplink_leg_s(bytes.len() as u64)));
                            }
                            act = Payload::decode(bytes)
                                .expect("a peer hop ships a well-formed frame")
                                .into_tensor();
                            act = prefix.forward_range(&act, from, to, Mode::Eval);
                        }
                    }
                }
            }
            let payload = match wire {
                FeatureWire::F32 => Payload::encode_features(&act),
                FeatureWire::Int8 => Payload::encode_quantized_features(&act),
                FeatureWire::PerChannelInt8 => Payload::encode_grid_features(&act, resume, &ctx.grids),
            };
            (payload, resume)
        }
    };
    let frame = RequestFrame {
        req_id: job.req_id as u64,
        device: req.device as u32,
        seq: req.seq as u64,
        resume_layer: resume as u32,
        payload,
    };
    // Park the pending record BEFORE the frame leaves: the response can
    // race back on another thread.
    let entry = PendingEntry {
        pending: parked.resume_at(resume),
        device: req.device,
        seq: req.seq,
        due: job.due,
        cloud_idx,
    };
    ctx.pending.lock().insert(job.req_id, entry);
    // Counted in before it leaves, so a cloud worker's count down never passes zero.
    ctx.max_queued.fetch_max(ctx.queued.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
    ctx.transport.send_request(0, frame).is_ok()
}

/// Edge worker loop: route each request through the shared engine,
/// finish main/extension exits locally, ship cloud exits as
/// [`RequestFrame`]s up the run's one transport lane — as images, or as
/// cut-layer activations of the local cloud-prefix replica in
/// feature-payload mode.
///
/// With a [`DifficultyPredictor`] configured the engine is consulted
/// difficulty-first: predicted-hard inputs pre-commit to the cloud
/// without evaluating the main exit (counted in `skipped_main_exits`),
/// and predicted-easy inputs settle locally without the offload policy
/// ever seeing them.
pub(crate) fn edge_worker<T: Transport>(
    ctx: &WorkerCtx<'_, T>,
    replica: &mut EdgeReplica,
    rx: Receiver<EdgeJob<'_>>,
    done_tx: Sender<Completion>,
) {
    let EdgeReplica { net, cloud_prefix } = replica;
    let (cfg, spec, shared) = (ctx.cfg, &ctx.spec, &ctx.policy);
    let governed = matches!(cfg.control, ControlPlan::Governed(_));
    // Per-device offload sequence numbers. Exactly one edge worker owns
    // each device's stream (device-sticky dispatch), so a thread-local
    // counter is the authoritative offload order the [`ReorderGate`]
    // releases completions in.
    let mut cloud_seq: HashMap<usize, u64> = HashMap::new();
    let mut next_cloud_idx = |device: usize| {
        let slot = cloud_seq.entry(device).or_insert(0);
        *slot += 1;
        *slot - 1
    };
    while let Ok(job) = rx.recv() {
        let req = job.req;
        let difficulty = cfg.difficulty.as_ref().map(|p| (p, p.predict(&req.image)));
        // Pre-commit: a predicted-hard input ships to the cloud without
        // the main exit ever running. The parked record carries the
        // predictor's entropy estimate and the PRECOMMITTED sentinel
        // instead of main-exit values.
        if let Some((predictor, Difficulty::Hard)) = difficulty {
            let placement = {
                let mut st = shared.lock();
                st.engine.wants_precommit(Difficulty::Hard).then(|| {
                    st.observe(true);
                    st.cuts.as_ref().map(|t| t.placement_for(req.device))
                })
            };
            if let Some(placement) = placement {
                ctx.skipped_main_exits.fetch_add(1, Ordering::Relaxed);
                let parked = PendingCloud::precommit(req.truth, predictor.predict_entropy(&req.image));
                let idx = next_cloud_idx(req.device);
                if !offload_to_cloud(ctx, cloud_prefix, &job, placement, parked, idx) {
                    return;
                }
                continue;
            }
        }
        let main = RoutingEngine::evaluate_main(net, &req.image);
        // A predicted-easy input settles locally: the plan picks main or
        // extension exit, never the cloud.
        let local_only = matches!(difficulty, Some((_, Difficulty::Easy)));
        // One look at the live policy state per decision: the current
        // threshold, cuts and wires, with the routed instance fed back to
        // the controller window.
        let (route, placement) = {
            let mut st = shared.lock();
            let plan = if local_only { st.engine.plan_local(net, &main) } else { st.engine.plan(net, &main) };
            let route = plan.routes[0];
            let offload = route == ExitPoint::Cloud;
            st.observe(offload);
            (route, st.cuts.as_ref().filter(|_| offload).map(|t| t.placement_for(req.device)))
        };
        match route {
            ExitPoint::Cloud => {
                let parked = PendingCloud::from_main(net, &main, 0, req.truth);
                let idx = next_cloud_idx(req.device);
                if !offload_to_cloud(ctx, cloud_prefix, &job, placement, parked, idx) {
                    return;
                }
            }
            exit => {
                let prediction = match exit {
                    ExitPoint::Extension => RoutingEngine::finish_extension(net, &req.image, &main, &[0])[0],
                    _ => main.preds[0],
                };
                let record = RoutingEngine::local_record(net, &main, 0, exit, prediction, req.truth);
                let completion = Completion {
                    req_id: job.req_id,
                    device: req.device,
                    seq: req.seq,
                    record,
                    latency_s: job.due.elapsed().as_secs_f64(),
                };
                // Local completions count toward the governor's live
                // latency windows too — the SLA covers every request,
                // not just offloads.
                if governed {
                    shared.lock().record_latency(spec.class_of(req.device), completion.latency_s);
                }
                done_tx.send(completion).expect("collector alive");
            }
        }
    }
}
