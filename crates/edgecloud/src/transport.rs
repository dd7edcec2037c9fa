//! The edge→cloud wire: a [`Transport`] trait with a deterministic
//! modelled implementation and a real in-process duplex pipe.
//!
//! The serving runtime ([`mod@crate::serve`]) ships offloaded instances as
//! length-prefixed frames of the existing [`crate::payload::Payload`]
//! codecs. *How* those frames cross from the edge workers to the cloud
//! tier is this module's concern, behind one trait:
//!
//! * [`ModelledTransport`] — frames pass through bounded in-memory
//!   channels instantly; the [`crate::network::NetworkLink`] model is
//!   charged as wall-clock sleeps by the cloud workers, exactly as the
//!   virtual-clock simulator and the closed-form costs charge it. This is
//!   the deterministic CI path: telemetry observes the model's own times,
//!   so every feedback trajectory is reproducible bit for bit.
//! * [`PipeTransport`] — a real byte-stream transport: frames are
//!   serialised into a bounded per-lane byte buffer (an in-process
//!   surrogate for a loopback socket) that blocks the sender when full,
//!   with a frame-granular write lock multiplexing concurrent senders
//!   onto one lane and an optional token-bucket pacer modelling the
//!   shared radio's serialisation rate. Receivers reassemble frames from
//!   the byte stream; per-frame send timestamps ride alongside (the
//!   in-process stand-in for NIC timestamping), so the serving runtime's
//!   [`crate::network::LinkEstimator`] feedback comes from genuine
//!   `Instant::now()` deltas around the transfer — queueing, scheduling
//!   noise and mid-run throttles included, none of which the static link
//!   model can see.
//! * [`UdsTransport`] (unix only) — the same byte-stream contract over a
//!   real kernel socket: one `UnixStream` pair per lane and direction, so
//!   framing, backpressure and shutdown exercise genuine `read`/`write`
//!   syscalls and EOF semantics, with a deterministic application-level
//!   in-flight byte budget layered over the kernel's opaque buffering.
//!
//! One **lane** connects the edge tier to one cloud worker: requests flow
//! up the lane, responses flow back down it. Both directions carry
//! little-endian length-prefixed frames ([`RequestFrame`],
//! [`ResponseFrame`]); the response frame's exact encoded size is what
//! the serving stats and the partition planner charge on the downlink
//! ([`ResponseFrame::WIRE_BYTES`]).
//!
//! Shutdown is ownership-driven so a panicking worker can never wedge its
//! peers: the cloud worker *owns* its lane's [`Transport::Uplink`]
//! (dropping it — normally or during unwind — refuses further sends), the
//! edge side owns the [`Transport::Downlink`], and the explicit
//! [`Transport::close_requests`]/[`Transport::close_responses`] calls let
//! receivers drain in-flight frames before seeing end-of-stream.

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

/// Which wire the serving runtime's offloaded payloads cross — the knob
/// threaded through `ServeConfig`, `sim`, the benches and the examples.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TransportKind {
    /// [`ModelledTransport`]: deterministic; the
    /// [`crate::network::NetworkLink`] model is the only clock, and link
    /// telemetry observes the model's own times (the CI/record-identity
    /// path).
    #[default]
    Modelled,
    /// [`PipeTransport`] under the given config: payloads genuinely cross
    /// a bounded byte stream and link telemetry comes from
    /// `Instant::now()` deltas around the transfer.
    Pipe(PipeConfig),
    /// [`UdsTransport`] under the given config: payloads cross a real
    /// kernel socket (a `UnixStream` pair per lane and direction), so
    /// framing, backpressure and shutdown exercise genuine OS I/O and
    /// link telemetry comes from `Instant::now()` deltas around the
    /// transfer.
    #[cfg(unix)]
    Uds(UdsConfig),
}

impl TransportKind {
    /// Whether payloads pay real wall-clock wire time: link telemetry
    /// then comes from `Instant::now()` deltas and the runtime charges
    /// no modelled sleeps (nor applies a modelled link schedule).
    pub(crate) fn is_measured(&self) -> bool {
        !matches!(self, TransportKind::Modelled)
    }
}

/// One offloaded instance on the uplink: the request identity, the cut
/// layer the cloud resumes at, and the encoded [`crate::payload::Payload`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Index of the request in the serving trace (unique per run).
    pub req_id: u64,
    /// Originating device (drives lane stickiness and class telemetry).
    pub device: u32,
    /// Per-device sequence number.
    pub seq: u64,
    /// Cut layer the cloud resumes the forward at (0 = from the input).
    pub resume_layer: u32,
    /// The encoded payload ([`crate::payload::Payload::encode`]).
    pub payload: Bytes,
}

impl RequestFrame {
    /// Frame overhead on the byte wire: the length prefix (4) plus the
    /// `req_id`/`device`/`seq`/`resume_layer` header (24).
    pub const HEADER_BYTES: u64 = 28;

    /// Total bytes this frame occupies on the byte wire.
    pub fn wire_bytes(&self) -> u64 {
        Self::HEADER_BYTES + self.payload.len() as u64
    }

    /// Serialises the frame (length-prefixed, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let body = 24 + self.payload.len();
        let mut out = Vec::with_capacity(4 + body);
        out.extend((body as u32).to_le_bytes());
        out.extend(self.req_id.to_le_bytes());
        out.extend(self.device.to_le_bytes());
        out.extend(self.seq.to_le_bytes());
        out.extend(self.resume_layer.to_le_bytes());
        out.extend(self.payload.as_ref());
        out
    }
}

/// The cloud's answer riding the downlink: a prediction for one request.
///
/// This is a *real* frame with a fixed encoded size — what
/// [`crate::serve::ServeStats::bytes_from_cloud`] counts and the downlink
/// charge pays, identically over both transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request this answers.
    pub req_id: u64,
    /// The cloud's predicted class.
    pub prediction: u32,
}

impl ResponseFrame {
    /// Exact encoded size: length prefix (4) + `req_id` (8) +
    /// `prediction` (4).
    pub const WIRE_BYTES: u64 = 16;

    /// Serialises the frame (length-prefixed, little-endian).
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&12u32.to_le_bytes());
        out[4..12].copy_from_slice(&self.req_id.to_le_bytes());
        out[12..16].copy_from_slice(&self.prediction.to_le_bytes());
        out
    }
}

/// A received request frame plus its transfer timestamps: `sent_at` is
/// stamped when the sender initiated the send (before any pacing or
/// backpressure wait), `received_at` when the frame was fully
/// reassembled — so `received_at - sent_at` is the time the transfer
/// genuinely took, queueing included.
#[derive(Debug)]
pub struct InboundRequest {
    /// The frame.
    pub frame: RequestFrame,
    /// When the sender initiated the send.
    pub sent_at: Instant,
    /// When the receiver held the complete frame.
    pub received_at: Instant,
}

/// A received response frame plus its transfer timestamps (same
/// convention as [`InboundRequest`]).
#[derive(Debug)]
pub struct InboundResponse {
    /// The frame.
    pub frame: ResponseFrame,
    /// When the sender initiated the send.
    pub sent_at: Instant,
    /// When the receiver held the complete frame.
    pub received_at: Instant,
}

/// Error returned by sends once the other end of a lane is gone (receiver
/// dropped) or the direction was explicitly closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

impl std::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport lane closed")
    }
}

/// Outcome of a receive on a transport lane.
#[derive(Debug)]
pub enum RecvOutcome<T> {
    /// A complete frame arrived.
    Frame(T),
    /// The deadline passed with no complete frame (partial bytes, if any,
    /// are retained for the next call).
    TimedOut,
    /// The direction is closed and fully drained.
    Closed,
}

/// The cloud worker's owned receiving end of one lane's uplink. Dropping
/// it (normally or during a panic unwind) closes the lane: blocked and
/// future senders get [`TransportClosed`] instead of waiting forever.
pub trait UplinkReceiver {
    /// The next inbound request frame; blocks up to `timeout`
    /// (`None` = until a frame arrives or the uplink closes).
    fn recv(&mut self, timeout: Option<Duration>) -> RecvOutcome<InboundRequest>;
}

/// The edge side's owned receiving end of one lane's downlink.
pub trait DownlinkReceiver {
    /// The next inbound response frame; blocks until a frame arrives or
    /// the downlink closes.
    fn recv(&mut self) -> RecvOutcome<InboundResponse>;
}

/// A duplex frame conduit between the edge tier and the cloud tier, one
/// lane per cloud worker. Senders share the transport by reference;
/// receivers are taken out once per lane and owned by the consuming
/// thread (so a dead consumer closes its lane instead of wedging it).
pub trait Transport: Sync {
    /// The owned uplink receiving endpoint (cloud worker side).
    type Uplink: UplinkReceiver + Send;
    /// The owned downlink receiving endpoint (edge side).
    type Downlink: DownlinkReceiver + Send;

    /// Number of lanes (one per cloud worker).
    fn lanes(&self) -> usize;

    /// Takes ownership of lane `lane`'s uplink receiving end.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range or its uplink was already taken.
    fn take_uplink(&self, lane: usize) -> Self::Uplink;

    /// Takes ownership of lane `lane`'s downlink receiving end.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range or its downlink was already
    /// taken.
    fn take_downlink(&self, lane: usize) -> Self::Downlink;

    /// Ships a request frame up lane `lane`, blocking under backpressure
    /// (bounded lane buffers). Concurrent senders multiplex onto the lane
    /// at frame granularity.
    fn send_request(&self, lane: usize, frame: RequestFrame) -> Result<(), TransportClosed>;

    /// Ships a response frame down lane `lane`.
    fn send_response(&self, lane: usize, frame: ResponseFrame) -> Result<(), TransportClosed>;

    /// Declares the request stream finished (dispatcher drained and every
    /// edge worker joined): uplink receivers drain what is queued, then
    /// see [`RecvOutcome::Closed`]; later sends fail.
    fn close_requests(&self);

    /// Declares lane `lane`'s response stream finished: its downlink
    /// receiver drains, then sees [`RecvOutcome::Closed`].
    fn close_responses(&self, lane: usize);
}

// ---------------------------------------------------------------------------
// Modelled transport: bounded channels, zero wire time.
// ---------------------------------------------------------------------------

/// The deterministic transport: frames cross bounded in-memory channels
/// with no wire time of their own — the [`crate::network::NetworkLink`]
/// model (slept on by the cloud workers) is the *only* clock, which keeps
/// the CI/record-identity path and every telemetry trajectory exactly
/// reproducible. Backpressure is the channel bound (`queue_depth` frames
/// per lane), the same end-to-end blocking the serving runtime always had.
pub struct ModelledTransport {
    lanes: Vec<ModelledLane>,
}

struct ModelledLane {
    req_tx: Mutex<Option<Sender<(RequestFrame, Instant)>>>,
    req_rx: Mutex<Option<Receiver<(RequestFrame, Instant)>>>,
    resp_tx: Mutex<Option<Sender<(ResponseFrame, Instant)>>>,
    resp_rx: Mutex<Option<Receiver<(ResponseFrame, Instant)>>>,
}

impl ModelledTransport {
    /// A modelled transport with `lanes` lanes holding at most
    /// `queue_depth` request frames (and as many response frames) each.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth == 0`.
    pub fn new(lanes: usize, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "lane buffers need capacity");
        let lanes = (0..lanes)
            .map(|_| {
                let (req_tx, req_rx) = bounded(queue_depth);
                let (resp_tx, resp_rx) = bounded(queue_depth);
                ModelledLane {
                    req_tx: Mutex::new(Some(req_tx)),
                    req_rx: Mutex::new(Some(req_rx)),
                    resp_tx: Mutex::new(Some(resp_tx)),
                    resp_rx: Mutex::new(Some(resp_rx)),
                }
            })
            .collect();
        ModelledTransport { lanes }
    }
}

/// [`ModelledTransport`]'s owned uplink endpoint.
pub struct ModelledUplink {
    rx: Receiver<(RequestFrame, Instant)>,
}

/// [`ModelledTransport`]'s owned downlink endpoint.
pub struct ModelledDownlink {
    rx: Receiver<(ResponseFrame, Instant)>,
}

impl UplinkReceiver for ModelledUplink {
    fn recv(&mut self, timeout: Option<Duration>) -> RecvOutcome<InboundRequest> {
        let got = match timeout {
            None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => self.rx.recv_timeout(t),
        };
        match got {
            Ok((frame, sent_at)) => {
                RecvOutcome::Frame(InboundRequest { frame, sent_at, received_at: Instant::now() })
            }
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }
}

impl DownlinkReceiver for ModelledDownlink {
    fn recv(&mut self) -> RecvOutcome<InboundResponse> {
        match self.rx.recv() {
            Ok((frame, sent_at)) => {
                RecvOutcome::Frame(InboundResponse { frame, sent_at, received_at: Instant::now() })
            }
            Err(_) => RecvOutcome::Closed,
        }
    }
}

impl Transport for ModelledTransport {
    type Uplink = ModelledUplink;
    type Downlink = ModelledDownlink;

    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn take_uplink(&self, lane: usize) -> ModelledUplink {
        ModelledUplink { rx: self.lanes[lane].req_rx.lock().take().expect("uplink taken once") }
    }

    fn take_downlink(&self, lane: usize) -> ModelledDownlink {
        ModelledDownlink { rx: self.lanes[lane].resp_rx.lock().take().expect("downlink taken once") }
    }

    fn send_request(&self, lane: usize, frame: RequestFrame) -> Result<(), TransportClosed> {
        // Clone the sender under the lock, send outside it: a full lane
        // must block only the sender, never the whole transport.
        let tx = self.lanes[lane].req_tx.lock().clone().ok_or(TransportClosed)?;
        tx.send((frame, Instant::now())).map_err(|_| TransportClosed)
    }

    fn send_response(&self, lane: usize, frame: ResponseFrame) -> Result<(), TransportClosed> {
        let tx = self.lanes[lane].resp_tx.lock().clone().ok_or(TransportClosed)?;
        tx.send((frame, Instant::now())).map_err(|_| TransportClosed)
    }

    fn close_requests(&self) {
        for lane in &self.lanes {
            lane.req_tx.lock().take();
        }
    }

    fn close_responses(&self, lane: usize) {
        self.lanes[lane].resp_tx.lock().take();
    }
}

// ---------------------------------------------------------------------------
// Pipe transport: a real in-process duplex byte stream.
// ---------------------------------------------------------------------------

/// Configuration of the [`PipeTransport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipeConfig {
    /// Capacity of each direction's byte buffer per lane. Frames larger
    /// than the buffer still pass (writes are chunked); smaller buffers
    /// just mean tighter backpressure.
    pub buffer_bytes: usize,
    /// Uplink serialisation rate in Mbps, shared across lanes like a
    /// radio; `None` transfers at memcpy speed.
    pub up_mbps: Option<f64>,
    /// Downlink serialisation rate in Mbps; `None` transfers at memcpy
    /// speed.
    pub down_mbps: Option<f64>,
    /// Mid-run uplink throttles applied by the transport itself, keyed on
    /// how many request frames have entered the (shared) uplink pacer.
    /// The serving runtime and the planner's static model are
    /// deliberately *not* told — only measured telemetry can see these.
    pub throttle: Vec<PaceChange>,
}

impl Default for PipeConfig {
    /// 64 KiB buffers, unpaced, no throttle.
    fn default() -> Self {
        PipeConfig { buffer_bytes: 64 * 1024, up_mbps: None, down_mbps: None, throttle: Vec::new() }
    }
}

/// One scheduled uplink throttle of a [`PipeTransport`] (see
/// [`PipeConfig::throttle`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceChange {
    /// The change applies once this many request frames have entered the
    /// uplink pacer (counted across all lanes, in pacing order).
    pub after_frames: u64,
    /// The uplink rate from then on (Mbps).
    pub up_mbps: f64,
}

/// Recovers a poisoned std mutex guard: the pipe's state stays consistent
/// across a panicking holder (every critical section is a few field
/// updates), so the poison flag carries no information here.
fn lk<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A token-bucket pacer serialising byte transfers at a target rate —
/// the in-process model of a shared radio: concurrent frames queue
/// behind each other, so a sender's wall-clock wait includes contention.
struct Pacer {
    /// Target rate in bits/s (`f64` bits; `0.0` = unpaced).
    rate_bits_per_s: AtomicU64,
    /// When the wire frees up next.
    next_free: StdMutex<Option<Instant>>,
    /// Frames paced so far (drives the throttle schedule).
    frames: AtomicU64,
    throttle: Vec<PaceChange>,
}

impl Pacer {
    fn new(mbps: Option<f64>, throttle: Vec<PaceChange>) -> Pacer {
        Pacer {
            rate_bits_per_s: AtomicU64::new(f64::to_bits(mbps.map_or(0.0, |m| m * 1e6))),
            next_free: StdMutex::new(None),
            frames: AtomicU64::new(0),
            throttle,
        }
    }

    fn set_rate_mbps(&self, mbps: f64) {
        self.rate_bits_per_s.store(f64::to_bits(mbps * 1e6), Ordering::SeqCst);
    }

    /// Blocks until `bytes` have "serialised" at the current rate; frames
    /// queue FIFO behind each other on the shared wire.
    fn pace(&self, bytes: usize) {
        let frame = self.frames.fetch_add(1, Ordering::SeqCst);
        for change in &self.throttle {
            if frame >= change.after_frames {
                self.set_rate_mbps(change.up_mbps);
            }
        }
        let rate = f64::from_bits(self.rate_bits_per_s.load(Ordering::SeqCst));
        if rate <= 0.0 {
            return;
        }
        let transfer = Duration::from_secs_f64(bytes as f64 * 8.0 / rate);
        let until = {
            let mut free = lk(&self.next_free);
            let start = free.map_or_else(Instant::now, |t| t.max(Instant::now()));
            let until = start + transfer;
            *free = Some(until);
            until
        };
        let now = Instant::now();
        if until > now {
            std::thread::sleep(until - now);
        }
    }
}

/// What a [`BytePipe::read_some`] produced.
enum ReadSome {
    /// At least one byte was moved into the caller's buffer.
    Data,
    /// The deadline passed with nothing buffered.
    TimedOut,
    /// Writes are closed and the buffer is drained.
    Closed,
}

/// A bounded in-process byte stream: condvar-blocking chunked writes
/// (backpressure), a frame-granular write lock (multiplexing), and a
/// FIFO side-queue of per-frame send timestamps (the in-process surrogate
/// for NIC timestamping — valid because frames enter the buffer and the
/// stamp queue under the same serialising lock).
struct BytePipe {
    cap: usize,
    /// Serialises whole-frame writes so concurrent senders interleave at
    /// frame granularity, never mid-frame.
    write_serial: StdMutex<()>,
    state: StdMutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    stamps: VecDeque<Instant>,
    write_closed: bool,
    read_closed: bool,
}

impl BytePipe {
    fn new(cap: usize) -> Arc<BytePipe> {
        assert!(cap > 0, "pipe buffers need capacity");
        Arc::new(BytePipe {
            cap,
            write_serial: StdMutex::new(()),
            state: StdMutex::new(PipeState {
                buf: VecDeque::new(),
                stamps: VecDeque::new(),
                write_closed: false,
                read_closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }

    /// Writes one whole frame, blocking chunk by chunk while the buffer
    /// is full. Fails once the reader is gone or writes were closed.
    fn write_frame(&self, frame: &[u8], sent_at: Instant) -> Result<(), TransportClosed> {
        let _serial = lk(&self.write_serial);
        let mut st = lk(&self.state);
        if st.write_closed || st.read_closed {
            return Err(TransportClosed);
        }
        st.stamps.push_back(sent_at);
        let mut offset = 0;
        while offset < frame.len() {
            if st.read_closed {
                return Err(TransportClosed);
            }
            let space = self.cap.saturating_sub(st.buf.len());
            if space == 0 {
                st = self.writable.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            let take = space.min(frame.len() - offset);
            st.buf.extend(&frame[offset..offset + take]);
            offset += take;
            self.readable.notify_all();
        }
        Ok(())
    }

    /// Moves whatever is buffered into `out`; blocks (up to `deadline`)
    /// while the buffer is empty and writes are still open.
    fn read_some(&self, out: &mut Vec<u8>, deadline: Option<Instant>) -> ReadSome {
        let mut st = lk(&self.state);
        loop {
            if !st.buf.is_empty() {
                out.extend(st.buf.drain(..));
                self.writable.notify_all();
                return ReadSome::Data;
            }
            if st.write_closed {
                return ReadSome::Closed;
            }
            match deadline {
                None => st = self.readable.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return ReadSome::TimedOut;
                    }
                    st = self
                        .readable
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// The send timestamp of the oldest fully-buffered-or-read frame.
    fn pop_stamp(&self) -> Instant {
        lk(&self.state).stamps.pop_front().expect("one stamp per framed write")
    }

    fn close_write(&self) {
        lk(&self.state).write_closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }

    fn close_read(&self) {
        lk(&self.state).read_closed = true;
        self.writable.notify_all();
    }
}

struct PipeLane {
    up: Arc<BytePipe>,
    down: Arc<BytePipe>,
    up_taken: AtomicBool,
    down_taken: AtomicBool,
}

/// The real transport: an in-process duplex byte-stream pipe per lane
/// (see the module docs). Construct with [`PipeTransport::new`]; throttle
/// mid-run with [`PipeConfig::throttle`] or
/// [`PipeTransport::set_up_rate_mbps`].
pub struct PipeTransport {
    lanes: Vec<PipeLane>,
    up_pacer: Pacer,
    down_pacer: Pacer,
}

impl PipeTransport {
    /// A pipe transport with `lanes` lanes under `cfg`.
    pub fn new(lanes: usize, cfg: PipeConfig) -> Self {
        let lanes = (0..lanes)
            .map(|_| PipeLane {
                up: BytePipe::new(cfg.buffer_bytes),
                down: BytePipe::new(cfg.buffer_bytes),
                up_taken: AtomicBool::new(false),
                down_taken: AtomicBool::new(false),
            })
            .collect();
        PipeTransport {
            lanes,
            up_pacer: Pacer::new(cfg.up_mbps, cfg.throttle),
            down_pacer: Pacer::new(cfg.down_mbps, Vec::new()),
        }
    }

    /// Changes the uplink pacing rate at runtime — the "radio got
    /// throttled" knob. The serving runtime is not told; only measured
    /// telemetry can notice.
    pub fn set_up_rate_mbps(&self, mbps: f64) {
        self.up_pacer.set_rate_mbps(mbps);
    }
}

/// [`PipeTransport`]'s owned uplink endpoint: reassembles request frames
/// from the byte stream. Dropping it closes the lane for senders.
pub struct PipeUplink {
    pipe: Arc<BytePipe>,
    acc: Vec<u8>,
}

impl Drop for PipeUplink {
    fn drop(&mut self) {
        self.pipe.close_read();
    }
}

/// [`PipeTransport`]'s owned downlink endpoint.
pub struct PipeDownlink {
    pipe: Arc<BytePipe>,
    acc: Vec<u8>,
}

impl Drop for PipeDownlink {
    fn drop(&mut self) {
        self.pipe.close_read();
    }
}

/// Pops one complete length-prefixed frame body off `acc`, if present.
/// The body leaves the reassembly buffer with a single copy and is handed
/// out as shared [`Bytes`], so the payload below is a zero-copy slice of
/// it rather than a second allocation.
fn split_frame(acc: &mut Vec<u8>) -> Option<Bytes> {
    if acc.len() < 4 {
        return None;
    }
    let body = u32::from_le_bytes([acc[0], acc[1], acc[2], acc[3]]) as usize;
    if acc.len() < 4 + body {
        return None;
    }
    let frame: Vec<u8> = acc.drain(..4 + body).collect();
    Some(Bytes::from(frame).slice(4..))
}

fn decode_request(acc: &mut Vec<u8>) -> Option<RequestFrame> {
    let body = split_frame(acc)?;
    assert!(body.len() >= 24, "request frame shorter than its header");
    Some(RequestFrame {
        req_id: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
        device: u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")),
        seq: u64::from_le_bytes(body[12..20].try_into().expect("8 bytes")),
        resume_layer: u32::from_le_bytes(body[20..24].try_into().expect("4 bytes")),
        payload: body.slice(24..),
    })
}

fn decode_response(acc: &mut Vec<u8>) -> Option<ResponseFrame> {
    let body = split_frame(acc)?;
    assert_eq!(body.len(), 12, "response frame has a fixed 12-byte body");
    Some(ResponseFrame {
        req_id: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
        prediction: u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")),
    })
}

impl UplinkReceiver for PipeUplink {
    fn recv(&mut self, timeout: Option<Duration>) -> RecvOutcome<InboundRequest> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(frame) = decode_request(&mut self.acc) {
                let sent_at = self.pipe.pop_stamp();
                return RecvOutcome::Frame(InboundRequest { frame, sent_at, received_at: Instant::now() });
            }
            match self.pipe.read_some(&mut self.acc, deadline) {
                ReadSome::Data => continue,
                ReadSome::TimedOut => return RecvOutcome::TimedOut,
                ReadSome::Closed => return RecvOutcome::Closed,
            }
        }
    }
}

impl DownlinkReceiver for PipeDownlink {
    fn recv(&mut self) -> RecvOutcome<InboundResponse> {
        loop {
            if let Some(frame) = decode_response(&mut self.acc) {
                let sent_at = self.pipe.pop_stamp();
                return RecvOutcome::Frame(InboundResponse { frame, sent_at, received_at: Instant::now() });
            }
            match self.pipe.read_some(&mut self.acc, None) {
                ReadSome::Data => continue,
                ReadSome::TimedOut => unreachable!("no deadline was set"),
                ReadSome::Closed => return RecvOutcome::Closed,
            }
        }
    }
}

impl Transport for PipeTransport {
    type Uplink = PipeUplink;
    type Downlink = PipeDownlink;

    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn take_uplink(&self, lane: usize) -> PipeUplink {
        assert!(!self.lanes[lane].up_taken.swap(true, Ordering::SeqCst), "uplink taken once");
        PipeUplink { pipe: Arc::clone(&self.lanes[lane].up), acc: Vec::new() }
    }

    fn take_downlink(&self, lane: usize) -> PipeDownlink {
        assert!(!self.lanes[lane].down_taken.swap(true, Ordering::SeqCst), "downlink taken once");
        PipeDownlink { pipe: Arc::clone(&self.lanes[lane].down), acc: Vec::new() }
    }

    fn send_request(&self, lane: usize, frame: RequestFrame) -> Result<(), TransportClosed> {
        // Stamp before pacing: the serialisation wait is part of the
        // transfer time a real sender would observe.
        let sent_at = Instant::now();
        let encoded = frame.encode();
        self.up_pacer.pace(encoded.len());
        self.lanes[lane].up.write_frame(&encoded, sent_at)
    }

    fn send_response(&self, lane: usize, frame: ResponseFrame) -> Result<(), TransportClosed> {
        let sent_at = Instant::now();
        let encoded = frame.encode();
        self.down_pacer.pace(encoded.len());
        self.lanes[lane].down.write_frame(&encoded, sent_at)
    }

    fn close_requests(&self) {
        for lane in &self.lanes {
            lane.up.close_write();
        }
    }

    fn close_responses(&self, lane: usize) {
        self.lanes[lane].down.close_write();
    }
}

// ---------------------------------------------------------------------------
// UDS transport: a real kernel socket per lane and direction.
// ---------------------------------------------------------------------------

/// Configuration of the [`UdsTransport`].
#[cfg(unix)]
#[derive(Debug, Clone, PartialEq)]
pub struct UdsConfig {
    /// Application-level in-flight byte budget per lane direction: bytes
    /// written but not yet decoded by the receiver. A frame is admitted
    /// when the direction is idle *or* when it fits under the budget, so
    /// one oversized frame still passes and a budget smaller than any
    /// frame degenerates to exactly one frame in flight at a time —
    /// deterministic backpressure layered over the kernel's own opaque
    /// socket buffering.
    pub window_bytes: usize,
}

#[cfg(unix)]
impl Default for UdsConfig {
    /// 256 KiB in-flight budget per direction.
    fn default() -> Self {
        UdsConfig { window_bytes: 256 * 1024 }
    }
}

/// Bookkeeping shared between a [`UdsPipe`]'s sender and receiver sides:
/// the in-flight budget and the FIFO send-timestamp side-queue. The
/// socket carries only bytes; stamps and credits ride here, kept in frame
/// order because stamps are pushed under the same lock that serialises
/// whole-frame writes into the socket.
#[cfg(unix)]
struct UdsShared {
    cap: usize,
    state: StdMutex<UdsState>,
    writable: Condvar,
}

#[cfg(unix)]
struct UdsState {
    in_flight: usize,
    stamps: VecDeque<Instant>,
    write_closed: bool,
    read_closed: bool,
}

/// One direction of a UDS lane: a connected `UnixStream` pair plus the
/// shared budget/stamp bookkeeping.
#[cfg(unix)]
struct UdsPipe {
    /// The sending socket end. The mutex serialises whole-frame writes so
    /// concurrent senders multiplex at frame granularity, never mid-frame
    /// — and keeps the stamp queue aligned with the byte stream.
    writer: StdMutex<std::os::unix::net::UnixStream>,
    /// The receiving socket end, taken out once by the owning thread.
    reader: StdMutex<Option<std::os::unix::net::UnixStream>>,
    shared: Arc<UdsShared>,
}

#[cfg(unix)]
impl UdsPipe {
    fn new(window: usize) -> UdsPipe {
        assert!(window > 0, "the in-flight budget needs capacity");
        let (writer, reader) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        UdsPipe {
            writer: StdMutex::new(writer),
            reader: StdMutex::new(Some(reader)),
            shared: Arc::new(UdsShared {
                cap: window,
                state: StdMutex::new(UdsState {
                    in_flight: 0,
                    stamps: VecDeque::new(),
                    write_closed: false,
                    read_closed: false,
                }),
                writable: Condvar::new(),
            }),
        }
    }

    /// Writes one whole frame, blocking while the in-flight budget is
    /// exhausted. Fails once the receiver is gone or writes were closed.
    fn write_frame(&self, encoded: &[u8], sent_at: Instant) -> Result<(), TransportClosed> {
        use std::io::Write;
        let mut sock = lk(&self.writer);
        {
            let mut st = lk(&self.shared.state);
            loop {
                if st.write_closed || st.read_closed {
                    return Err(TransportClosed);
                }
                if st.in_flight == 0 || st.in_flight + encoded.len() <= self.shared.cap {
                    break;
                }
                st = self.shared.writable.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.in_flight += encoded.len();
            st.stamps.push_back(sent_at);
        }
        match sock.write_all(encoded) {
            Ok(()) => Ok(()),
            Err(_) => {
                // The kernel saw the receiver's end closed (EPIPE): mark
                // the direction dead so later and blocked senders fail
                // instead of waiting for credits that will never come.
                lk(&self.shared.state).read_closed = true;
                self.shared.writable.notify_all();
                Err(TransportClosed)
            }
        }
    }

    fn close_write(&self) {
        // Flag first and wake budget-blocked senders (they hold the
        // writer lock while waiting, so taking it before flagging would
        // deadlock); then EOF the stream so the receiver drains and sees
        // `Closed`.
        lk(&self.shared.state).write_closed = true;
        self.shared.writable.notify_all();
        let sock = lk(&self.writer);
        let _ = sock.shutdown(std::net::Shutdown::Write);
    }

    fn take_reader(&self) -> std::os::unix::net::UnixStream {
        lk(&self.reader).take().expect("receiver taken once")
    }
}

/// Reads whatever the socket has buffered into `acc`; blocks (up to
/// `deadline`) while the stream is empty and open. The UDS counterpart of
/// [`BytePipe::read_some`], with the kernel's read timeout standing in
/// for the condvar wait.
#[cfg(unix)]
fn uds_read_some(sock: &std::os::unix::net::UnixStream, acc: &mut Vec<u8>, deadline: Option<Instant>) -> ReadSome {
    use std::io::Read;
    let mut sock = sock;
    let mut buf = [0u8; 8192];
    loop {
        let timeout = match deadline {
            None => None,
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return ReadSome::TimedOut;
                }
                Some(d - now)
            }
        };
        sock.set_read_timeout(timeout).expect("socket read timeout");
        match sock.read(&mut buf) {
            Ok(0) => return ReadSome::Closed,
            Ok(n) => {
                acc.extend_from_slice(&buf[..n]);
                return ReadSome::Data;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                return ReadSome::TimedOut
            }
            Err(_) => return ReadSome::Closed,
        }
    }
}

/// Credits `bytes` back to the sender's budget and pops the matching send
/// timestamp — called once per fully decoded frame.
#[cfg(unix)]
fn uds_credit(shared: &UdsShared, bytes: usize) -> Instant {
    let sent_at = {
        let mut st = lk(&shared.state);
        st.in_flight = st.in_flight.saturating_sub(bytes);
        st.stamps.pop_front().expect("one stamp per framed write")
    };
    shared.writable.notify_all();
    sent_at
}

/// Closes a receiver's end of a UDS direction: blocked and future senders
/// get [`TransportClosed`] (budget waiters via the flag + wakeup, kernel
/// writes via EPIPE after the socket shutdown).
#[cfg(unix)]
fn uds_close_read(shared: &UdsShared, sock: &std::os::unix::net::UnixStream) {
    lk(&shared.state).read_closed = true;
    shared.writable.notify_all();
    let _ = sock.shutdown(std::net::Shutdown::Both);
}

/// [`UdsTransport`]'s owned uplink endpoint: reassembles request frames
/// from the socket's byte stream. Dropping it closes the lane for
/// senders.
#[cfg(unix)]
pub struct UdsUplink {
    sock: std::os::unix::net::UnixStream,
    shared: Arc<UdsShared>,
    acc: Vec<u8>,
}

#[cfg(unix)]
impl Drop for UdsUplink {
    fn drop(&mut self) {
        uds_close_read(&self.shared, &self.sock);
    }
}

/// [`UdsTransport`]'s owned downlink endpoint.
#[cfg(unix)]
pub struct UdsDownlink {
    sock: std::os::unix::net::UnixStream,
    shared: Arc<UdsShared>,
    acc: Vec<u8>,
}

#[cfg(unix)]
impl Drop for UdsDownlink {
    fn drop(&mut self) {
        uds_close_read(&self.shared, &self.sock);
    }
}

#[cfg(unix)]
impl UplinkReceiver for UdsUplink {
    fn recv(&mut self, timeout: Option<Duration>) -> RecvOutcome<InboundRequest> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(frame) = decode_request(&mut self.acc) {
                let received_at = Instant::now();
                let sent_at = uds_credit(&self.shared, frame.wire_bytes() as usize);
                return RecvOutcome::Frame(InboundRequest { frame, sent_at, received_at });
            }
            match uds_read_some(&self.sock, &mut self.acc, deadline) {
                ReadSome::Data => continue,
                ReadSome::TimedOut => return RecvOutcome::TimedOut,
                ReadSome::Closed => return RecvOutcome::Closed,
            }
        }
    }
}

#[cfg(unix)]
impl DownlinkReceiver for UdsDownlink {
    fn recv(&mut self) -> RecvOutcome<InboundResponse> {
        loop {
            if let Some(frame) = decode_response(&mut self.acc) {
                let received_at = Instant::now();
                let sent_at = uds_credit(&self.shared, ResponseFrame::WIRE_BYTES as usize);
                return RecvOutcome::Frame(InboundResponse { frame, sent_at, received_at });
            }
            match uds_read_some(&self.sock, &mut self.acc, None) {
                ReadSome::Data => continue,
                ReadSome::TimedOut => unreachable!("no deadline was set"),
                ReadSome::Closed => return RecvOutcome::Closed,
            }
        }
    }
}

#[cfg(unix)]
struct UdsLane {
    up: UdsPipe,
    down: UdsPipe,
}

/// The loopback-socket transport: one `UnixStream` pair per lane and
/// direction, so frames cross genuine kernel I/O — real `read`/`write`
/// syscalls, kernel socket buffering, EOF-driven shutdown — while
/// [`UdsConfig::window_bytes`] adds a deterministic application-level
/// in-flight budget on top. Send timestamps ride a side-queue pushed
/// under the frame-serialising write lock (the same NIC-timestamping
/// surrogate as [`PipeTransport`]), so measured link telemetry comes from
/// genuine `Instant::now()` deltas around the socket transfer.
#[cfg(unix)]
pub struct UdsTransport {
    lanes: Vec<UdsLane>,
}

#[cfg(unix)]
impl UdsTransport {
    /// A UDS transport with `lanes` lanes under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window_bytes == 0` or the process is out of file
    /// descriptors for the socket pairs.
    pub fn new(lanes: usize, cfg: UdsConfig) -> Self {
        let lanes = (0..lanes)
            .map(|_| UdsLane { up: UdsPipe::new(cfg.window_bytes), down: UdsPipe::new(cfg.window_bytes) })
            .collect();
        UdsTransport { lanes }
    }
}

#[cfg(unix)]
impl Transport for UdsTransport {
    type Uplink = UdsUplink;
    type Downlink = UdsDownlink;

    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn take_uplink(&self, lane: usize) -> UdsUplink {
        let pipe = &self.lanes[lane].up;
        UdsUplink { sock: pipe.take_reader(), shared: Arc::clone(&pipe.shared), acc: Vec::new() }
    }

    fn take_downlink(&self, lane: usize) -> UdsDownlink {
        let pipe = &self.lanes[lane].down;
        UdsDownlink { sock: pipe.take_reader(), shared: Arc::clone(&pipe.shared), acc: Vec::new() }
    }

    fn send_request(&self, lane: usize, frame: RequestFrame) -> Result<(), TransportClosed> {
        // Stamp before the budget wait: queueing for the window is part
        // of the transfer time a real sender would observe.
        let sent_at = Instant::now();
        let encoded = frame.encode();
        self.lanes[lane].up.write_frame(&encoded, sent_at)
    }

    fn send_response(&self, lane: usize, frame: ResponseFrame) -> Result<(), TransportClosed> {
        let sent_at = Instant::now();
        let encoded = frame.encode();
        self.lanes[lane].down.write_frame(&encoded, sent_at)
    }

    fn close_requests(&self) {
        for lane in &self.lanes {
            lane.up.close_write();
        }
    }

    fn close_responses(&self, lane: usize) {
        self.lanes[lane].down.close_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u64, payload: Vec<u8>) -> RequestFrame {
        RequestFrame {
            req_id: id,
            device: id as u32 % 3,
            seq: id * 2,
            resume_layer: 1,
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn request_frame_encode_matches_wire_bytes() {
        let f = frame(7, vec![1, 2, 3, 4, 5]);
        assert_eq!(f.encode().len() as u64, f.wire_bytes());
        assert_eq!(RequestFrame::HEADER_BYTES, 28);
    }

    #[test]
    fn response_frame_has_its_documented_wire_size() {
        let f = ResponseFrame { req_id: 9, prediction: 3 };
        assert_eq!(f.encode().len() as u64, ResponseFrame::WIRE_BYTES);
    }

    #[test]
    fn frames_survive_a_fragmented_byte_stream() {
        // Feed the decoder one byte at a time: frames must reassemble
        // exactly, whatever the fragmentation.
        let frames = vec![frame(0, vec![9; 40]), frame(1, Vec::new()), frame(2, (0..255).collect())];
        let stream: Vec<u8> = frames.iter().flat_map(RequestFrame::encode).collect();
        let mut acc = Vec::new();
        let mut out = Vec::new();
        for b in stream {
            acc.push(b);
            while let Some(f) = decode_request(&mut acc) {
                out.push(f);
            }
        }
        assert!(acc.is_empty());
        assert_eq!(out, frames);
    }

    #[test]
    fn pipe_chunked_write_passes_frames_larger_than_the_buffer() {
        let pipe = BytePipe::new(16);
        let payload: Vec<u8> = (0..200u8).collect();
        let f = frame(5, payload);
        let encoded = f.encode();
        crossbeam::thread::scope(|scope| {
            let pipe_ref = &pipe;
            let enc = &encoded;
            scope.spawn(move |_| {
                pipe_ref.write_frame(enc, Instant::now()).expect("reader alive");
                pipe_ref.close_write();
            });
            let mut up = PipeUplink { pipe: Arc::clone(&pipe), acc: Vec::new() };
            match up.recv(None) {
                RecvOutcome::Frame(got) => assert_eq!(got.frame, f),
                _ => panic!("expected a frame"),
            }
            assert!(matches!(up.recv(None), RecvOutcome::Closed));
        })
        .expect("scope");
    }

    #[test]
    fn pacer_sleeps_roughly_the_serialisation_time() {
        // 8 Mbps = 1 byte/µs: 20 kB should take ~20 ms, clearly above an
        // unpaced memcpy; the upper bound is loose for slow CI hosts.
        let pacer = Pacer::new(Some(8.0), Vec::new());
        let t0 = Instant::now();
        pacer.pace(20_000);
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(15), "paced transfer finished too fast: {dt:?}");
        assert!(dt < Duration::from_secs(5), "paced transfer took unreasonably long: {dt:?}");
    }

    #[test]
    fn pacer_throttle_schedule_kicks_in_after_frames() {
        let pacer = Pacer::new(Some(8000.0), vec![PaceChange { after_frames: 2, up_mbps: 8.0 }]);
        let before = {
            let t0 = Instant::now();
            pacer.pace(20_000); // frame 0: fast
            t0.elapsed()
        };
        pacer.pace(10); // frame 1: fast
        let after = {
            let t0 = Instant::now();
            pacer.pace(20_000); // frame 2: throttled to 8 Mbps
            t0.elapsed()
        };
        assert!(
            after >= Duration::from_millis(15) && after > 4 * before,
            "throttle did not slow the wire: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn modelled_send_after_close_or_receiver_drop_fails() {
        let t = ModelledTransport::new(1, 2);
        let up = t.take_uplink(0);
        drop(up);
        assert_eq!(t.send_request(0, frame(0, vec![1])), Err(TransportClosed));
        let t = ModelledTransport::new(1, 2);
        t.close_requests();
        assert_eq!(t.send_request(0, frame(0, vec![1])), Err(TransportClosed));
    }

    #[test]
    fn pipe_send_after_close_or_receiver_drop_fails() {
        let t = PipeTransport::new(1, PipeConfig::default());
        let up = t.take_uplink(0);
        drop(up);
        assert_eq!(t.send_request(0, frame(0, vec![1])), Err(TransportClosed));
        let t = PipeTransport::new(1, PipeConfig::default());
        t.close_requests();
        assert_eq!(t.send_request(0, frame(0, vec![1])), Err(TransportClosed));
    }

    #[cfg(unix)]
    #[test]
    fn uds_send_after_close_or_receiver_drop_fails() {
        let t = UdsTransport::new(1, UdsConfig::default());
        let up = t.take_uplink(0);
        drop(up);
        assert_eq!(t.send_request(0, frame(0, vec![1])), Err(TransportClosed));
        let t = UdsTransport::new(1, UdsConfig::default());
        t.close_requests();
        assert_eq!(t.send_request(0, frame(0, vec![1])), Err(TransportClosed));
    }

    #[cfg(unix)]
    #[test]
    fn uds_receiver_drains_then_sees_closed() {
        let t = UdsTransport::new(2, UdsConfig::default());
        let sent = vec![frame(0, vec![9; 40]), frame(1, Vec::new()), frame(2, (0..255).collect())];
        for f in &sent {
            t.send_request(1, f.clone()).expect("receiver alive");
        }
        t.close_requests();
        let mut up = t.take_uplink(1);
        for f in &sent {
            match up.recv(None) {
                RecvOutcome::Frame(got) => {
                    assert_eq!(&got.frame, f);
                    assert!(got.received_at >= got.sent_at);
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert!(matches!(up.recv(None), RecvOutcome::Closed));
    }

    #[cfg(unix)]
    #[test]
    fn uds_budget_admits_one_oversized_frame_at_a_time() {
        // Budget far below any frame: the idle-direction rule admits one
        // frame, then the next sender must wait for the receiver to
        // decode it — deterministically one frame in flight.
        let t = UdsTransport::new(1, UdsConfig { window_bytes: 1 });
        let sent = Arc::new(AtomicU64::new(0));
        crossbeam::thread::scope(|scope| {
            let t_ref = &t;
            let sent_ref = Arc::clone(&sent);
            scope.spawn(move |_| {
                for id in 0..3u64 {
                    t_ref.send_request(0, frame(id, vec![7; 64])).expect("receiver alive");
                    sent_ref.fetch_add(1, Ordering::SeqCst);
                }
            });
            // The first frame is admitted; the second blocks on the
            // budget until we decode the first.
            let mut up = t.take_uplink(0);
            while sent.load(Ordering::SeqCst) < 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(sent.load(Ordering::SeqCst), 1, "second frame should stall on the budget");
            for id in 0..3u64 {
                match up.recv(None) {
                    RecvOutcome::Frame(got) => assert_eq!(got.frame.req_id, id),
                    other => panic!("expected frame {id}, got {other:?}"),
                }
            }
        })
        .expect("scope");
    }

    #[cfg(unix)]
    #[test]
    fn uds_receiver_drop_unblocks_a_budget_waiter() {
        let t = UdsTransport::new(1, UdsConfig { window_bytes: 1 });
        let up = t.take_uplink(0);
        crossbeam::thread::scope(|scope| {
            let t_ref = &t;
            let waiter = scope.spawn(move |_| {
                let first = t_ref.send_request(0, frame(0, vec![7; 64]));
                let second = t_ref.send_request(0, frame(1, vec![7; 64]));
                (first, second)
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(up);
            let (first, second) = waiter.join().expect("sender thread");
            assert_eq!(first, Ok(()));
            assert_eq!(second, Err(TransportClosed));
        })
        .expect("scope");
    }

    #[cfg(unix)]
    #[test]
    fn uds_uplink_timeout_preserves_partial_frames() {
        use std::io::Write;
        let t = UdsTransport::new(1, UdsConfig::default());
        let mut up = t.take_uplink(0);
        assert!(matches!(up.recv(Some(Duration::from_millis(1))), RecvOutcome::TimedOut));
        // Write half a frame directly into the socket, then the rest: the
        // receiver must time out without losing the prefix and deliver
        // the whole frame once it completes.
        let f = frame(3, vec![7; 64]);
        let encoded = f.encode();
        let (head, tail) = encoded.split_at(10);
        let pipe = &t.lanes[0].up;
        lk(&pipe.shared.state).stamps.push_back(Instant::now());
        lk(&pipe.writer).write_all(head).expect("receiver alive");
        assert!(matches!(up.recv(Some(Duration::from_millis(5))), RecvOutcome::TimedOut));
        lk(&pipe.writer).write_all(tail).expect("receiver alive");
        match up.recv(Some(Duration::from_millis(1000))) {
            RecvOutcome::Frame(got) => assert_eq!(got.frame, f),
            other => panic!("expected the completed frame, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn uds_responses_round_trip_with_close() {
        let t = UdsTransport::new(1, UdsConfig::default());
        t.send_response(0, ResponseFrame { req_id: 11, prediction: 4 }).expect("receiver alive");
        t.close_responses(0);
        let mut down = t.take_downlink(0);
        match down.recv() {
            RecvOutcome::Frame(got) => {
                assert_eq!(got.frame, ResponseFrame { req_id: 11, prediction: 4 });
                assert!(got.received_at >= got.sent_at);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        assert!(matches!(down.recv(), RecvOutcome::Closed));
    }

    #[test]
    fn pipe_uplink_timeout_preserves_partial_frames() {
        let t = PipeTransport::new(1, PipeConfig::default());
        let mut up = t.take_uplink(0);
        assert!(matches!(up.recv(Some(Duration::from_millis(1))), RecvOutcome::TimedOut));
        // Write half a frame directly, then the rest: the receiver must
        // time out without losing the prefix and deliver the whole frame
        // once it completes.
        let f = frame(3, vec![7; 64]);
        let encoded = f.encode();
        let (head, tail) = encoded.split_at(10);
        let sent = Instant::now();
        lk(&t.lanes[0].up.state).stamps.push_back(sent);
        {
            let mut st = lk(&t.lanes[0].up.state);
            st.buf.extend(head);
        }
        t.lanes[0].up.readable.notify_all();
        assert!(matches!(up.recv(Some(Duration::from_millis(5))), RecvOutcome::TimedOut));
        {
            let mut st = lk(&t.lanes[0].up.state);
            st.buf.extend(tail);
        }
        t.lanes[0].up.readable.notify_all();
        match up.recv(Some(Duration::from_millis(100))) {
            RecvOutcome::Frame(got) => assert_eq!(got.frame, f),
            other => panic!("expected the completed frame, got {other:?}"),
        }
    }
}
