//! Cloud-tier execution: ingress sharding/work stealing, batch
//! coalescing, the cloud worker loop and batched suffix execution.

use super::*;

/// Cloud-tier counters, merged under a mutex by the cloud workers.
#[derive(Debug, Default)]
pub(crate) struct CloudCounters {
    pub(crate) batches: u64,
    pub(crate) forwards: u64,
    pub(crate) max_batch: usize,
    pub(crate) bytes: u64,
    pub(crate) bytes_down: u64,
    pub(crate) macs: u64,
    pub(crate) macs_saved: u64,
    pub(crate) steals: u64,
    /// Coalesced batches per ingress shard / lane (sized `cloud_workers`).
    pub(crate) per_shard: Vec<u64>,
}

/// Coalesces queued request frames into a batch: blocks for the first
/// frame, then drains greedily up to `max_batch`, waiting at most
/// `max_wait` for stragglers. Returns `None` once the uplink is closed
/// and drained.
pub(crate) fn coalesce_frames<U: UplinkReceiver>(
    up: &mut U,
    max_batch: usize,
    max_wait: Duration,
) -> Option<Vec<InboundRequest>> {
    let first = match up.recv(None) {
        RecvOutcome::Frame(f) => f,
        RecvOutcome::Closed => return None,
        RecvOutcome::TimedOut => unreachable!("recv without a timeout cannot time out"),
    };
    let mut batch = vec![first];
    let deadline = Instant::now() + max_wait;
    while batch.len() < max_batch {
        match up.recv(Some(deadline.saturating_duration_since(Instant::now()))) {
            RecvOutcome::Frame(f) => batch.push(f),
            RecvOutcome::TimedOut | RecvOutcome::Closed => break,
        }
    }
    Some(batch)
}

/// One bounded shard of the [`ShardedIngress`]: the frames pumped off one
/// transport lane that have not yet been coalesced into a batch.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) queue: VecDeque<InboundRequest>,
    /// False once the lane's pump saw the uplink close and drained it.
    pub(crate) open: bool,
}

/// Shared state behind the [`ShardedIngress`] lock.
#[derive(Debug)]
pub(crate) struct IngressState {
    pub(crate) shards: Vec<ShardState>,
    /// Set by [`ShardedIngress::abort`] when any cloud worker unwinds, so
    /// pumps and peers blocked on the condvars wake and exit instead of
    /// deadlocking the join cascade.
    pub(crate) aborted: bool,
    /// High-water mark of frames queued across all shards at any instant.
    pub(crate) max_depth: usize,
}

/// The sharded work-stealing cloud ingress ([`CloudIngress::Sharded`]).
///
/// One pump thread per transport lane drains arrived frames into that
/// lane's bounded shard; each cloud worker coalesces batches from its own
/// shard first and, when its shard is empty, *steals* from the deepest
/// backlogged peer instead of sleeping. A steal takes a **FIFO prefix**
/// of the victim shard — whole device-sticky runs, in arrival order, up
/// to a full batch — so a device's frames are never reordered (relative
/// to each other) on their way into a batch, and stolen batches coalesce
/// as fully as owned ones; the
/// [`ReorderGate`] then restores per-device completion order across
/// concurrently running batches.
///
/// Built on `std::sync` primitives (the vendored `parking_lot` carries no
/// `Condvar`), like the framed lanes' budget in [`crate::transport`].
#[derive(Debug)]
pub(crate) struct ShardedIngress {
    pub(crate) state: StdMutex<IngressState>,
    /// Signalled on frame arrival, shard close, or abort.
    pub(crate) arrived: Condvar,
    /// Signalled when frames leave a full shard (and on abort).
    pub(crate) space: Condvar,
    /// Per-shard frame capacity ([`ServeConfigBuilder::queue_depth`]).
    pub(crate) depth_cap: usize,
}

impl ShardedIngress {
    pub(crate) fn new(shards: usize, depth_cap: usize) -> Self {
        let shards = (0..shards).map(|_| ShardState { queue: VecDeque::new(), open: true }).collect();
        ShardedIngress {
            state: StdMutex::new(IngressState { shards, aborted: false, max_depth: 0 }),
            arrived: Condvar::new(),
            space: Condvar::new(),
            depth_cap,
        }
    }

    /// Pump side: enqueues one frame on `shard`, blocking while the shard
    /// is at capacity (backpressure reaches the transport and from there
    /// the edge workers). `Err(())` once the ingress aborted.
    pub(crate) fn push(&self, shard: usize, req: InboundRequest) -> Result<(), ()> {
        let mut st = self.state.lock().expect("ingress lock poisoned");
        while !st.aborted && st.shards[shard].queue.len() >= self.depth_cap {
            st = self.space.wait(st).expect("ingress lock poisoned");
        }
        if st.aborted {
            return Err(());
        }
        st.shards[shard].queue.push_back(req);
        let depth: usize = st.shards.iter().map(|s| s.queue.len()).sum();
        st.max_depth = st.max_depth.max(depth);
        self.arrived.notify_all();
        Ok(())
    }

    /// Pump side: marks `shard`'s lane as closed and drained.
    pub(crate) fn close_shard(&self, shard: usize) {
        self.state.lock().expect("ingress lock poisoned").shards[shard].open = false;
        self.arrived.notify_all();
    }

    /// Unblocks every thread parked on the ingress; pushes fail and
    /// `next_batch` returns `None` from here on. Idempotent.
    pub(crate) fn abort(&self) {
        self.state.lock().expect("ingress lock poisoned").aborted = true;
        self.arrived.notify_all();
        self.space.notify_all();
    }

    pub(crate) fn max_depth(&self) -> usize {
        self.state.lock().expect("ingress lock poisoned").max_depth
    }

    /// Worker side: the next coalesced batch for `shard`'s owner, and
    /// whether it was stolen. Own-shard batches block for the first frame,
    /// drain greedily to `max_batch` and wait up to `max_wait` for
    /// stragglers — the same contract as [`coalesce_frames`]. When the own
    /// shard is empty but a peer's is not, a FIFO prefix — whole
    /// device-sticky runs, in arrival order, up to `max_batch` — is stolen
    /// from the deepest victim and returned immediately (no straggler
    /// wait: the point of stealing is to soak backlog now, and taking a
    /// prefix keeps every device's frames in order while still filling
    /// the batch). `None` once every shard is closed and drained, or on
    /// abort.
    pub(crate) fn next_batch(
        &self,
        shard: usize,
        max_batch: usize,
        max_wait: Duration,
    ) -> Option<(Vec<InboundRequest>, bool)> {
        let mut st = self.state.lock().expect("ingress lock poisoned");
        loop {
            if st.aborted {
                return None;
            }
            if let Some(first) = st.shards[shard].queue.pop_front() {
                let mut batch = vec![first];
                let deadline = Instant::now() + max_wait;
                loop {
                    let queue = &mut st.shards[shard].queue;
                    batch.extend(queue.drain(..queue.len().min(max_batch - batch.len())));
                    // A partial batch is returned (never dropped) on
                    // abort, lane close, or deadline — mirroring how
                    // `coalesce_frames` gives up on stragglers.
                    if batch.len() >= max_batch || st.aborted {
                        break;
                    }
                    if st.shards[shard].queue.is_empty() && !st.shards[shard].open {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = self.arrived.wait_timeout(st, deadline - now).expect("ingress lock poisoned");
                    st = guard;
                }
                self.space.notify_all();
                return Some((batch, false));
            }
            let victim = st
                .shards
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != shard && !s.queue.is_empty())
                .max_by_key(|(_, s)| s.queue.len())
                .map(|(i, _)| i);
            if let Some(v) = victim {
                let take = st.shards[v].queue.len().min(max_batch);
                let batch: Vec<InboundRequest> = st.shards[v].queue.drain(..take).collect();
                self.space.notify_all();
                return Some((batch, true));
            }
            if st.shards.iter().all(|s| s.queue.is_empty() && !s.open) {
                return None;
            }
            st = self.arrived.wait(st).expect("ingress lock poisoned");
        }
    }
}

/// Aborts the ingress if its holder unwinds. Held by every pump and
/// sharded cloud worker: if one panics mid-operation, the abort unwedges
/// every thread blocked on the ingress condvars so the join cascade can
/// collect the panic instead of deadlocking. A clean exit leaves the
/// ingress alone — peers may still be draining their shards.
pub(crate) struct IngressAbortGuard<'a> {
    pub(crate) ingress: &'a ShardedIngress,
}

impl Drop for IngressAbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ingress.abort();
        }
    }
}

/// Per-device release state of the [`ReorderGate`].
#[derive(Debug, Default)]
pub(crate) struct DeviceGate {
    /// The offload index the device's next released completion must have.
    pub(crate) next: u64,
    /// Completions that arrived early, parked until their turn.
    pub(crate) parked: BTreeMap<u64, Completion>,
}

/// Releases offload completions in per-device offload order
/// ([`PendingEntry::cloud_idx`]), regardless of which cloud worker — own
/// shard or thief — classified each batch. This is what keeps the
/// per-device FIFO guarantee of the single-queue path intact under work
/// stealing: a stolen batch can *finish* before an earlier in-flight
/// batch of the same device, but its completions wait here.
#[derive(Debug, Default)]
pub(crate) struct ReorderGate {
    pub(crate) devices: HashMap<usize, DeviceGate>,
}

impl ReorderGate {
    /// Emits `c` if `idx` is `device`'s next expected offload index (plus
    /// any parked successors it unblocks); parks it otherwise.
    pub(crate) fn release(&mut self, device: usize, idx: u64, c: Completion, tx: &Sender<Completion>) {
        let gate = self.devices.entry(device).or_default();
        if idx != gate.next {
            gate.parked.insert(idx, c);
            return;
        }
        let _ = tx.send(c);
        gate.next += 1;
        while let Some(ready) = gate.parked.remove(&gate.next) {
            let _ = tx.send(ready);
            gate.next += 1;
        }
    }
}

/// Where a cloud worker's coalesced batches come from.
pub(crate) enum BatchSource<'a, U: UplinkReceiver> {
    /// [`CloudIngress::SingleQueue`]: the worker owns its transport lane
    /// and blocks on it alone — the record-identity reference path.
    Lane(U),
    /// [`CloudIngress::Sharded`]: the worker's own ingress shard, stealing
    /// FIFO prefixes (whole device-sticky runs) from backlogged peers when
    /// idle.
    Shard(&'a ShardedIngress),
}

impl<'a, U: UplinkReceiver> BatchSource<'a, U> {
    /// The next coalesced batch for `lane`'s worker and whether it was
    /// stolen; `None` once the source is closed and drained.
    fn next_batch(&mut self, lane: usize, cfg: &ServeConfig) -> Option<(Vec<InboundRequest>, bool)> {
        match self {
            BatchSource::Lane(uplink) => coalesce_frames(uplink, cfg.max_batch, cfg.max_wait).map(|b| (b, false)),
            BatchSource::Shard(ingress) => ingress.next_batch(lane, cfg.max_batch, cfg.max_wait),
        }
    }

    fn ingress(&self) -> Option<&'a ShardedIngress> {
        match self {
            BatchSource::Lane(_) => None,
            BatchSource::Shard(ingress) => Some(ingress),
        }
    }
}

/// Cloud worker loop: classify each coalesced batch of `source`.
pub(crate) fn cloud_worker<T: Transport>(
    ctx: &WorkerCtx<'_, T>,
    cloud: &mut SegmentedCnn,
    lane: usize,
    mut source: BatchSource<'_, T::Uplink>,
) {
    // However this worker exits — drained source or a panic mid-batch —
    // its response lane closes behind it (collector shutdown).
    let _closer = LaneCloser { transport: &ctx.transport, lane };
    let _guard = source.ingress().map(|ingress| IngressAbortGuard { ingress });
    let mut scratch = Vec::new();
    while let Some((batch, stolen)) = source.next_batch(lane, ctx.cfg) {
        if !process_cloud_batch(ctx, cloud, lane, stolen, batch, &mut scratch) {
            // The collector died; unwedge pumps and peers so the join
            // cascade can surface its panic instead of deadlocking.
            if let Some(ingress) = source.ingress() {
                ingress.abort();
            }
            return;
        }
    }
}

/// Classifies one coalesced batch on the cloud tier: pay the (modelled)
/// link delay on both legs (rtt/2 each — the shared `NetworkLink` leg
/// convention), decode every frame into the worker's reusable `scratch`
/// arena (one contiguous batch tensor, no per-frame tensor allocations),
/// resume one batched forward per distinct cut point, ship the
/// predictions back as [`ResponseFrame`]s, and report the link time the
/// batch paid — model time on the modelled transport, genuine
/// `Instant::now()` deltas on a real one — to the measured-link feedback
/// loop. Returns `false` when the response lane's collector is gone.
pub(crate) fn process_cloud_batch<T: Transport>(
    ctx: &WorkerCtx<'_, T>,
    cloud: &mut SegmentedCnn,
    lane: usize,
    stolen: bool,
    batch: Vec<InboundRequest>,
    scratch: &mut Vec<f32>,
) -> bool {
    let (cfg, transport, counters, shared) = (ctx.cfg, &ctx.transport, &ctx.counters, &ctx.policy);
    let (suffix_macs, grids) = (&ctx.suffix_macs, &ctx.grids);
    let measured = cfg.transport.is_measured();
    let payload_bytes: u64 = batch.iter().map(|b| b.frame.payload.len() as u64).sum();
    let response_bytes = RESPONSE_WIRE_BYTES * batch.len() as u64;
    // Real-wire telemetry: total frame bytes (headers included) and
    // the span from the first frame's send to the last frame's full
    // reassembly — queueing, pacing and scheduling noise included.
    let wire_bytes: u64 = batch.iter().map(|b| b.frame.wire_bytes()).sum();
    let up_span_s = if measured {
        let first_sent = batch.iter().map(|b| b.sent_at).min().expect("non-empty batch");
        let last_received = batch.iter().map(|b| b.received_at).max().expect("non-empty batch");
        last_received.duration_since(first_sent).as_secs_f64()
    } else {
        0.0
    };
    let total_macs = suffix_macs[0];
    let batches_before = {
        let mut c = counters.lock();
        c.batches += 1;
        c.max_batch = c.max_batch.max(batch.len());
        c.bytes += payload_bytes;
        c.bytes_down += response_bytes;
        if stolen {
            c.steals += 1;
        }
        c.per_shard[lane] += 1;
        for b in &batch {
            let resume = b.frame.resume_layer as usize;
            c.macs += suffix_macs[resume];
            c.macs_saved += total_macs - suffix_macs[resume];
        }
        c.batches - 1
    };
    // The modelled wire this batch rides: the configured link with any
    // due schedule changes applied. The telemetry below observes THIS
    // link's per-byte behaviour; the planner's static model still
    // assumes the nominal one — measured feedback is the only path by
    // which a degradation reaches the cut decision. On a real
    // transport the frames already paid their wire time crossing the
    // pipe, so no modelled sleep is charged.
    let link = if measured { None } else { scheduled_link(cfg, batches_before) };
    if let Some(link) = &link {
        std::thread::sleep(Duration::from_secs_f64(link.uplink_leg_s(payload_bytes)));
    }
    // A coalesced batch may mix cut points (the planner re-planned
    // mid-flight, or device classes cut differently): group by resume
    // layer — activations at different cuts have different shapes —
    // and run one batched forward per group. Per-sample independence
    // makes the grouping invisible in the predictions.
    let mut groups: BTreeMap<u32, Vec<RequestFrame>> = BTreeMap::new();
    for b in batch {
        groups.entry(b.frame.resume_layer).or_default().push(b.frame);
    }
    counters.lock().forwards += groups.len() as u64;
    let mut classified: Vec<(RequestFrame, usize)> = Vec::new();
    for (resume, group) in groups {
        // Zero-copy batch assembly: every frame decodes straight into
        // the worker's scratch arena, which then *becomes* the batch
        // tensor — no per-frame Tensor allocations, no concat copy.
        // Served tensors are single-instance, so appending each
        // frame's data is bitwise identical to `concat_axis0` of the
        // per-frame tensors.
        scratch.clear();
        let mut frame_dims: Option<Vec<usize>> = None;
        for f in &group {
            // Every in-process wire carries frames this process encoded, so
            // an undecodable payload is a bug here, not a fault on the wire.
            let dims = Payload::decode_into_with_grids(f.payload.clone(), grids, scratch)
                .unwrap_or_else(|e| panic!("request {}: undecodable payload: {e}", f.req_id));
            match &frame_dims {
                Some(prev) => assert_eq!(prev, &dims, "coalesced group mixes tensor shapes"),
                None => frame_dims = Some(dims),
            }
        }
        let mut batch_dims = frame_dims.expect("coalesced groups are non-empty");
        batch_dims[0] *= group.len();
        let stacked = Tensor::from_vec(std::mem::take(scratch), &batch_dims).expect("group frames share a shape");
        let preds = RoutingEngine::classify_cloud_from(cloud, &stacked, resume as usize);
        // Hand the arena's allocation back for the next group/batch.
        *scratch = stacked.into_vec();
        classified.extend(group.into_iter().zip(preds));
    }
    // Grouping by cut may interleave devices; restore per-device
    // sequence order so the device-FIFO guarantee survives a mid-batch
    // replan boundary.
    classified.sort_by_key(|(f, _)| (f.device, f.seq));
    // The responses ride the downlink back before anyone observes a
    // completion: the modelled leg as a sleep, the real one as the
    // pipe's own transfer time.
    if let Some(link) = &link {
        std::thread::sleep(Duration::from_secs_f64(link.downlink_leg_s(response_bytes)));
    }
    let down_t0 = Instant::now();
    let mut lane_open = true;
    for (frame, pred) in &classified {
        let resp = ResponseFrame { req_id: frame.req_id, prediction: *pred as u32 };
        if transport.send_response(lane, resp).is_err() {
            // The collector is gone; its panic surfaces at join.
            lane_open = false;
            break;
        }
    }
    // Close the telemetry loop: record what this round trip cost per
    // leg — (bytes, seconds) pairs and the propagation delay — for
    // every device class in the batch. The modelled transport reports
    // the model's own times (bit-reproducible trajectories); a real
    // transport reports what the clock genuinely saw.
    let devices: Vec<usize> = classified.iter().map(|(f, _)| f.device as usize).collect();
    if measured {
        let down_s = down_t0.elapsed().as_secs_f64();
        shared.lock().observe_link(&devices, wire_bytes, up_span_s, response_bytes, down_s, 0.0);
    } else if let Some(link) = &link {
        shared.lock().observe_link(
            &devices,
            payload_bytes,
            link.upload_time_s(payload_bytes),
            response_bytes,
            link.download_time_s(response_bytes),
            link.rtt_s,
        );
    }
    lane_open
}
