//! Cloud-tier execution: the run's one lane as the cloud workers share
//! it, batch coalescing, the cloud worker loop and batched suffix
//! execution.

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
    /// Coalesced batches per cloud worker (sized `cloud_workers`).
    pub(crate) per_worker: Vec<u64>,
}

/// The cloud end of the run's one lane, owned by the cloud workers
/// together: the ingress they take turns at and the response direction.
/// The last worker to exit, normally or by unwinding, drops it: edge sends
/// then fail instead of blocking, and the collector drains and stops.
pub(crate) struct SharedLane<'a, T: Transport> {
    /// The modelled wire's uplink itself, or a byte wire's [`ReaderQueue`].
    pub(crate) ingress: Mutex<Box<dyn UplinkReceiver + Send + 'a>>,
    pub(crate) transport: &'a T,
}

impl<T: Transport> Drop for SharedLane<'_, T> {
    fn drop(&mut self) {
        self.transport.close_responses(0);
    }
}

/// A byte wire's ingress: the bounded queue the lane's reader fills. The
/// reader stamps `received_at` as each frame reassembles, so measured
/// uplink time excludes the wait behind a busy cloud worker.
pub(crate) struct ReaderQueue(pub(crate) Receiver<InboundRequest>);

impl UplinkReceiver for ReaderQueue {
    fn recv(&mut self, timeout: Option<Duration>) -> RecvOutcome<InboundRequest> {
        recv_channel(&self.0, timeout, |frame| frame)
    }
}

/// Coalesces arrived frames into a batch: blocks for the first frame,
/// then drains greedily up to `max_batch`, waiting at most `max_wait` for
/// stragglers. A `max_wait` too long for the clock to hold as a deadline
/// sets none: the batch then waits until it is full or the ingress
/// closes. Returns `None` once the ingress is closed and drained.
pub(crate) fn coalesce_frames(ingress: &mut dyn UplinkReceiver, cfg: &ServeConfig) -> Option<Vec<InboundRequest>> {
    let RecvOutcome::Frame(first) = ingress.recv(None) else { return None };
    let mut batch = vec![first];
    let deadline = Instant::now().checked_add(cfg.max_wait);
    while batch.len() < cfg.max_batch {
        let wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let RecvOutcome::Frame(frame) = ingress.recv(wait) else { break };
        batch.push(frame);
    }
    Some(batch)
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
/// ([`PendingEntry::cloud_idx`]), whichever cloud worker classified each
/// batch. Two workers can run batches of one device at the same time, and
/// the later batch can *finish* first; its completions wait here.
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

/// When a modelled leg of `secs` seconds, starting now, ends.
/// [`ServeConfigBuilder::build`] rejects every link whose leg for the
/// largest batch the run can ship has no such instant.
pub(crate) fn leg_deadline(secs: f64) -> Instant {
    clock::after(Instant::now(), secs).expect("build() bounds every modelled leg")
}

/// Cloud worker loop: take the next coalesced batch off the shared
/// ingress — holding its lock only while the batch assembles — and
/// classify it.
pub(crate) fn cloud_worker<T: Transport>(
    ctx: &WorkerCtx<'_, T>,
    cloud: &mut SegmentedCnn,
    worker: usize,
    lane: Arc<SharedLane<'_, T>>,
) {
    let mut scratch = Vec::new();
    loop {
        let Some(batch) = coalesce_frames(&mut **lane.ingress.lock(), ctx.cfg) else { return };
        ctx.queued.fetch_sub(batch.len(), Ordering::Relaxed);
        if !process_cloud_batch(ctx, cloud, worker, batch, &mut scratch) {
            // The collector died; its panic surfaces at join.
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
    worker: usize,
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
        c.per_worker[worker] += 1;
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
    // socket, so no modelled sleep is charged.
    let link = if measured { None } else { scheduled_link(cfg, batches_before) };
    if let Some(link) = &link {
        clock::sleep_until(leg_deadline(link.uplink_leg_s(payload_bytes)));
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
    // socket's own transfer time.
    if let Some(link) = &link {
        clock::sleep_until(leg_deadline(link.downlink_leg_s(response_bytes)));
    }
    let down_t0 = Instant::now();
    let mut lane_open = true;
    for (frame, pred) in &classified {
        let resp = ResponseFrame { req_id: frame.req_id, prediction: *pred as u32 };
        if transport.send_response(0, resp).is_err() {
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
