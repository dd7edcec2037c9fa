//! The edge→cloud wire: a [`Transport`] trait with a deterministic
//! modelled implementation and two real byte-stream wires.
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
//! * [`PipeTransport`] — frames cross an in-process byte stream (a
//!   surrogate for a loopback socket) behind an optional token-bucket
//!   pacer modelling the shared radio's serialisation rate. Link
//!   telemetry comes from genuine `Instant::now()` deltas around the
//!   transfer — queueing, scheduling noise and mid-run throttles
//!   included, none of which the static link model can see.
//! * [`UdsTransport`] (unix only) — the same over a real kernel socket:
//!   one `UnixStream` pair per lane and direction, so framing,
//!   backpressure and shutdown exercise genuine `read`/`write` syscalls
//!   and EOF semantics.
//!
//! Both byte wires run one framing layer, `FramedLane`, and differ only
//! in their byte stream. It serialises whole frames onto the stream so
//! concurrent senders multiplex at frame granularity; bounds each
//! direction by an in-flight byte budget ([`PipeConfig::buffer_bytes`] /
//! [`UdsConfig::window_bytes`]: bytes sent but not yet decoded, where an
//! idle direction admits one frame of any size); reassembles partial
//! frames on the receiving side, where a malformed frame (a length over
//! [`MAX_FRAME_BYTES`], a body wrong for its type) ends the lane as EOF
//! does; and carries per-frame send timestamps in a side queue (the
//! stand-in for NIC timestamping).
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
use mea_tensor::{Reader, WireError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::marker::PhantomData;
use std::ops::RangeInclusive;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use stream::{PipeReader, PipeWriter, TimedRead};

/// Which wire the serving runtime's offloaded payloads cross — the knob
/// threaded through `ServeConfig`, the benches and the examples.
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

/// A received frame plus its transfer timestamps: `sent_at` is stamped
/// when the sender initiated the send (before any pacing or backpressure
/// wait), `received_at` when the frame was fully reassembled — so
/// `received_at - sent_at` is the time the transfer genuinely took,
/// queueing included.
#[derive(Debug)]
pub struct Inbound<F> {
    /// The frame.
    pub frame: F,
    /// When the sender initiated the send.
    pub sent_at: Instant,
    /// When the receiver held the complete frame.
    pub received_at: Instant,
}

/// A received request frame plus its transfer timestamps.
pub type InboundRequest = Inbound<RequestFrame>;

/// A received response frame plus its transfer timestamps.
pub type InboundResponse = Inbound<ResponseFrame>;

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
// Framed lanes: the framing, budget and stamps both byte wires share.
// ---------------------------------------------------------------------------

/// Recovers a poisoned std mutex guard: the lane's state stays consistent
/// across a panicking holder (every critical section is a few field
/// updates), so the poison flag carries no information here.
fn lk<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The byte streams a `FramedLane` runs over. The items are public inside
/// a private module so the stream halves can appear in the type
/// parameters of [`FramedTransport`] and [`FramedReceiver`] without
/// becoming nameable API.
mod stream {
    use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
    use std::collections::VecDeque;
    use std::io::{self, ErrorKind, Read, Write};
    use std::time::Duration;

    /// A stream's receiving half whose reads can be bounded in time.
    pub trait TimedRead: Read {
        /// Changes how long later reads may wait for bytes from `from` (the
        /// current setting; a fresh stream has `None`, wait until bytes or
        /// EOF) to `to`. Under `Some(Duration::ZERO)` a read returns
        /// buffered bytes without waiting; an expired wait fails the read
        /// with `WouldBlock` or `TimedOut`.
        fn set_wait(&mut self, from: Option<Duration>, to: Option<Duration>) -> io::Result<()>;
    }

    /// The sending half of [`pipe`]: every write is one channel message,
    /// so writes never block (the lane's budget bounds what is queued) and
    /// fail with `BrokenPipe` once the reader is dropped; dropping the
    /// writer is EOF.
    pub struct PipeWriter(Sender<Vec<u8>>);

    /// The receiving half of [`pipe`].
    pub struct PipeReader {
        rx: Receiver<Vec<u8>>,
        /// The unread rest of the last message.
        pending: VecDeque<u8>,
        wait: Option<Duration>,
    }

    /// An in-process byte stream with the std socket semantics a lane
    /// relies on.
    pub fn pipe() -> (PipeWriter, PipeReader) {
        let (tx, rx) = unbounded();
        (PipeWriter(tx), PipeReader { rx, pending: VecDeque::new(), wait: None })
    }

    impl Write for PipeWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.send(buf.to_vec()).map_err(|_| ErrorKind::BrokenPipe)?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for PipeReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            while self.pending.is_empty() {
                let next = match self.wait {
                    None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    Some(wait) => self.rx.recv_timeout(wait),
                };
                match next {
                    Ok(bytes) => self.pending = bytes.into(),
                    Err(RecvTimeoutError::Timeout) => return Err(ErrorKind::WouldBlock.into()),
                    Err(RecvTimeoutError::Disconnected) => return Ok(0),
                }
            }
            self.pending.read(buf)
        }
    }

    impl TimedRead for PipeReader {
        fn set_wait(&mut self, _from: Option<Duration>, to: Option<Duration>) -> io::Result<()> {
            self.wait = to;
            Ok(())
        }
    }

    #[cfg(unix)]
    impl TimedRead for std::os::unix::net::UnixStream {
        fn set_wait(&mut self, from: Option<Duration>, to: Option<Duration>) -> io::Result<()> {
            // SO_RCVTIMEO cannot say "do not wait"; non-blocking mode can.
            let poll = |wait: Option<Duration>| wait == Some(Duration::ZERO);
            if poll(from) != poll(to) {
                self.set_nonblocking(poll(to))?;
            }
            if !poll(to) {
                self.set_read_timeout(to)?;
            }
            Ok(())
        }
    }
}

/// What a `FramedLane`'s senders and its receiver share: the in-flight
/// byte budget and the FIFO of send stamps. The stream carries only
/// bytes; the stamps stay in frame order because they are pushed under
/// the lock that serialises whole-frame writes.
struct LaneShared {
    budget: usize,
    state: StdMutex<LaneState>,
    /// Signalled when credit returns or the lane closes.
    writable: Condvar,
}

#[derive(Default)]
struct LaneState {
    in_flight: usize,
    stamps: VecDeque<Instant>,
    /// Writes were closed or the receiving end is gone: sends fail.
    closed: bool,
}

impl LaneShared {
    /// Returns a decoded frame's `bytes` to the budget and pops its send
    /// stamp.
    fn credit(&self, bytes: usize) -> Instant {
        let mut st = lk(&self.state);
        st.in_flight = st.in_flight.saturating_sub(bytes);
        self.writable.notify_all();
        st.stamps.pop_front().expect("one stamp per framed write")
    }

    /// Fails blocked and later senders.
    fn close(&self) {
        lk(&self.state).closed = true;
        self.writable.notify_all();
    }
}

/// One direction of a byte-stream lane: length-prefixed frames over a
/// `(writer, reader)` stream pair under an in-flight byte budget.
struct FramedLane<W, R> {
    /// The sending end, `None` once writes are closed. The mutex
    /// serialises whole-frame writes, so concurrent senders multiplex at
    /// frame granularity, never mid-frame.
    writer: Mutex<Option<W>>,
    /// The receiving end, taken out once by its owning thread.
    reader: Mutex<Option<R>>,
    shared: Arc<LaneShared>,
}

impl<W: Write, R> FramedLane<W, R> {
    fn new(budget: usize, (writer, reader): (W, R)) -> Self {
        FramedLane {
            writer: Mutex::new(Some(writer)),
            reader: Mutex::new(Some(reader)),
            shared: Arc::new(LaneShared { budget, state: StdMutex::default(), writable: Condvar::new() }),
        }
    }

    /// Writes one whole frame after `pacer` has serialised it, first
    /// waiting until it fits the budget (an idle direction admits any
    /// frame). Fails once the receiver is gone or writes were closed.
    fn send(&self, pacer: &Pacer, encoded: &[u8]) -> Result<(), TransportClosed> {
        // Stamp before pacing and the budget wait: both are part of the
        // transfer time a real sender would observe.
        let sent_at = Instant::now();
        pacer.pace(encoded.len());
        let mut writer = self.writer.lock();
        let shared = &self.shared;
        let blocked =
            |st: &mut LaneState| !st.closed && st.in_flight > 0 && st.in_flight + encoded.len() > shared.budget;
        let mut st =
            shared.writable.wait_while(lk(&shared.state), blocked).unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return Err(TransportClosed);
        }
        st.in_flight += encoded.len();
        st.stamps.push_back(sent_at);
        drop(st);
        let writer = writer.as_mut().expect("the writer is dropped only after the lane is closed");
        writer.write_all(encoded).map_err(|_| {
            // The receiving end is gone (EPIPE): fail blocked and later
            // senders instead of leaving them waiting for credit.
            shared.close();
            TransportClosed
        })
    }

    /// Ends the stream: the receiver drains the frames already written,
    /// then sees EOF; later sends fail.
    fn close_write(&self) {
        // Flag first and wake budget waiters: they sleep holding the
        // writer lock, so taking it before flagging would deadlock.
        self.shared.close();
        self.writer.lock().take();
    }

    fn take_receiver<F>(&self) -> FramedReceiver<R, F> {
        FramedReceiver {
            stream: self.reader.lock().take().expect("receiver taken once"),
            shared: Arc::clone(&self.shared),
            acc: Vec::new(),
            wait: None,
            frames: PhantomData,
        }
    }
}

/// The owned receiving end of one direction of a byte-stream lane: the
/// [`Transport::Uplink`] (request frames `F = RequestFrame`) and
/// [`Transport::Downlink`] (`F = ResponseFrame`) of [`PipeTransport`] and
/// [`UdsTransport`]. It reassembles frames from the byte stream `R`,
/// returns each decoded frame's bytes to the senders' budget, and closes
/// the lane for senders when dropped.
pub struct FramedReceiver<R, F> {
    stream: R,
    shared: Arc<LaneShared>,
    /// Bytes read but not yet decoded.
    acc: Vec<u8>,
    /// The wait currently set on `stream`.
    wait: Option<Duration>,
    frames: PhantomData<fn() -> F>,
}

impl<R: TimedRead, F> FramedReceiver<R, F> {
    /// The next frame `decode` pops off the stream; blocks up to `timeout`
    /// (`None` = until a frame or EOF).
    fn next(&mut self, timeout: Option<Duration>, decode: Decode<F>) -> RecvOutcome<Inbound<F>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = [0u8; 8192];
        loop {
            let buffered = self.acc.len();
            let Ok(decoded) = decode(&mut self.acc) else {
                // A byte stream cannot resynchronise after a bad length:
                // the lane ends as it does at EOF.
                self.shared.close();
                return RecvOutcome::Closed;
            };
            if let Some(frame) = decoded {
                let received_at = Instant::now();
                let sent_at = self.shared.credit(buffered - self.acc.len());
                return RecvOutcome::Frame(Inbound { frame, sent_at, received_at });
            }
            // Read before judging the deadline: bytes already in the
            // stream are delivered even by an expired (or zero) wait.
            let wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if wait != self.wait {
                self.stream.set_wait(self.wait, wait).expect("stream read timeout");
                self.wait = wait;
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return RecvOutcome::Closed,
                Ok(n) => self.acc.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return RecvOutcome::TimedOut
                }
                Err(_) => return RecvOutcome::Closed,
            }
        }
    }
}

impl<R, F> Drop for FramedReceiver<R, F> {
    fn drop(&mut self) {
        // Budget waiters fail through the flag; writes into the stream
        // fail once `stream` itself drops right after.
        self.shared.close();
    }
}

impl<R: TimedRead> UplinkReceiver for FramedReceiver<R, RequestFrame> {
    fn recv(&mut self, timeout: Option<Duration>) -> RecvOutcome<InboundRequest> {
        self.next(timeout, decode_request)
    }
}

impl<R: TimedRead> DownlinkReceiver for FramedReceiver<R, ResponseFrame> {
    fn recv(&mut self) -> RecvOutcome<InboundResponse> {
        self.next(None, decode_response)
    }
}

/// Pops one frame off a reassembly buffer: `None` while it is incomplete.
type Decode<F> = fn(&mut Vec<u8>) -> Result<Option<F>, WireError>;

/// The largest frame body a byte-stream lane accepts, far above the few
/// MiB of the largest payload served (an f32 ImageNet-scale activation).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Pops one complete length-prefixed frame body off `acc`, if present.
/// The body leaves the reassembly buffer with a single copy and is handed
/// out as shared [`Bytes`], so the payload below is a zero-copy slice of
/// it rather than a second allocation. A length outside `lens` fails and
/// leaves `acc` as it is, before the buffer grows for that frame.
fn split_frame(acc: &mut Vec<u8>, lens: RangeInclusive<usize>) -> Result<Option<Bytes>, WireError> {
    match Reader::new(acc).u32().map(|len| len as usize) {
        Ok(body) if !lens.contains(&body) => Err(WireError::FrameLength(body)),
        Ok(body) if acc.len() >= 4 + body => {
            let frame: Vec<u8> = acc.drain(..4 + body).collect();
            Ok(Some(Bytes::from(frame).slice(4..)))
        }
        _ => Ok(None),
    }
}

fn decode_request(acc: &mut Vec<u8>) -> Result<Option<RequestFrame>, WireError> {
    let Some(body) = split_frame(acc, 24..=MAX_FRAME_BYTES)? else { return Ok(None) };
    let mut r = Reader::new(&body);
    Ok(Some(RequestFrame {
        req_id: r.u64()?,
        device: r.u32()?,
        seq: r.u64()?,
        resume_layer: r.u32()?,
        payload: body.slice(r.position()..),
    }))
}

fn decode_response(acc: &mut Vec<u8>) -> Result<Option<ResponseFrame>, WireError> {
    let Some(body) = split_frame(acc, 12..=12)? else { return Ok(None) };
    let mut r = Reader::new(&body);
    Ok(Some(ResponseFrame { req_id: r.u64()?, prediction: r.u32()? }))
}

// ---------------------------------------------------------------------------
// The byte-stream transports: framed lanes over a pipe or a socket.
// ---------------------------------------------------------------------------

/// Configuration of the [`PipeTransport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipeConfig {
    /// In-flight byte budget per lane direction: bytes sent but not yet
    /// decoded by the receiver. A frame is admitted when the direction is
    /// idle *or* fits under the budget, so a frame larger than the budget
    /// still passes and a budget of 0 means one frame in flight at a time.
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
    /// 64 KiB budgets, unpaced, no throttle.
    fn default() -> Self {
        PipeConfig { buffer_bytes: 64 * 1024, up_mbps: None, down_mbps: None, throttle: Vec::new() }
    }
}

impl PipeConfig {
    /// Whether every pacing rate set (`up_mbps`, `down_mbps`, each
    /// throttle's) is finite and positive.
    pub(crate) fn rates_are_valid(&self) -> bool {
        let mut rates =
            self.up_mbps.into_iter().chain(self.down_mbps).chain(self.throttle.iter().map(|c| c.up_mbps));
        rates.all(|mbps| mbps.is_finite() && mbps > 0.0)
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

/// A token-bucket pacer serialising byte transfers at a target rate —
/// the in-process model of a shared radio: concurrent frames queue
/// behind each other, so a sender's wall-clock wait includes contention.
/// The default pacer is unpaced.
#[derive(Default)]
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

    /// Blocks until `bytes` have "serialised" at the current rate; frames
    /// queue FIFO behind each other on the shared wire.
    fn pace(&self, bytes: usize) {
        let frame = self.frames.fetch_add(1, Ordering::SeqCst);
        for change in &self.throttle {
            if frame >= change.after_frames {
                self.rate_bits_per_s.store(f64::to_bits(change.up_mbps * 1e6), Ordering::SeqCst);
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

/// A real transport: one framed byte stream per lane and direction (see
/// the module docs) behind uplink and downlink pacers.
/// [`PipeTransport`] and [`UdsTransport`] are its two instantiations;
/// they differ only in the byte stream under the frames.
pub struct FramedTransport<W, R> {
    /// Each lane's uplink (requests).
    up: Vec<FramedLane<W, R>>,
    /// Each lane's downlink (responses).
    down: Vec<FramedLane<W, R>>,
    up_pacer: Pacer,
    down_pacer: Pacer,
}

/// The in-process transport: framed lanes over an in-process byte stream
/// (a surrogate for a loopback socket), paced at [`PipeConfig`]'s rates
/// and throttled mid-run by [`PipeConfig::throttle`].
pub type PipeTransport = FramedTransport<PipeWriter, PipeReader>;

/// The loopback-socket transport: one `UnixStream` pair per lane and
/// direction, so frames cross genuine kernel I/O — real `read`/`write`
/// syscalls, kernel socket buffering, EOF-driven shutdown — while
/// [`UdsConfig::window_bytes`] adds a deterministic application-level
/// in-flight budget on top. Unpaced; measured link telemetry comes from
/// genuine `Instant::now()` deltas around the socket transfer.
#[cfg(unix)]
pub type UdsTransport = FramedTransport<UnixStream, UnixStream>;

impl<W: Write, R> FramedTransport<W, R> {
    fn with_streams(lanes: usize, budget: usize, stream: impl Fn() -> (W, R), pacers: [Pacer; 2]) -> Self {
        let direction = || (0..lanes).map(|_| FramedLane::new(budget, stream())).collect();
        let [up_pacer, down_pacer] = pacers;
        FramedTransport { up: direction(), down: direction(), up_pacer, down_pacer }
    }
}

impl PipeTransport {
    /// A pipe transport with `lanes` lanes under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a pacing rate in `cfg` is not finite and positive.
    pub fn new(lanes: usize, cfg: PipeConfig) -> Self {
        assert!(cfg.rates_are_valid(), "pacing rates must be finite and positive");
        let pacers = [Pacer::new(cfg.up_mbps, cfg.throttle), Pacer::new(cfg.down_mbps, Vec::new())];
        FramedTransport::with_streams(lanes, cfg.buffer_bytes, stream::pipe, pacers)
    }
}

#[cfg(unix)]
impl UdsTransport {
    /// A UDS transport with `lanes` lanes under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the process is out of file descriptors for the socket
    /// pairs.
    pub fn new(lanes: usize, cfg: UdsConfig) -> Self {
        let pair = || UnixStream::pair().expect("socketpair");
        FramedTransport::with_streams(lanes, cfg.window_bytes, pair, Default::default())
    }
}

impl<W: Write + Send, R: TimedRead + Send> Transport for FramedTransport<W, R> {
    type Uplink = FramedReceiver<R, RequestFrame>;
    type Downlink = FramedReceiver<R, ResponseFrame>;

    fn lanes(&self) -> usize {
        self.up.len()
    }

    fn take_uplink(&self, lane: usize) -> Self::Uplink {
        self.up[lane].take_receiver()
    }

    fn take_downlink(&self, lane: usize) -> Self::Downlink {
        self.down[lane].take_receiver()
    }

    fn send_request(&self, lane: usize, frame: RequestFrame) -> Result<(), TransportClosed> {
        self.up[lane].send(&self.up_pacer, &frame.encode())
    }

    fn send_response(&self, lane: usize, frame: ResponseFrame) -> Result<(), TransportClosed> {
        self.down[lane].send(&self.down_pacer, &frame.encode())
    }

    fn close_requests(&self) {
        for lane in &self.up {
            lane.close_write();
        }
    }

    fn close_responses(&self, lane: usize) {
        self.down[lane].close_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{ActivationGrids, Payload};
    use mea_tensor::Tensor;

    fn frame(id: u64, payload: Vec<u8>) -> RequestFrame {
        RequestFrame {
            req_id: id,
            device: id as u32 % 3,
            seq: id * 2,
            resume_layer: 1,
            payload: Bytes::from(payload),
        }
    }

    fn pipe_lane() -> FramedLane<PipeWriter, PipeReader> {
        FramedLane::new(64 * 1024, stream::pipe())
    }

    #[cfg(unix)]
    fn uds_lane() -> FramedLane<UnixStream, UnixStream> {
        FramedLane::new(64 * 1024, UnixStream::pair().expect("socketpair"))
    }

    /// Writes raw `bytes` into `lane`'s stream in `chunk`-byte pieces,
    /// bypassing the framed send so frame boundaries land anywhere; the
    /// send stamps of `frames` frames and the bytes' budget are booked
    /// first, as a framed send would.
    fn write_raw<W: Write, R>(lane: &FramedLane<W, R>, frames: usize, bytes: &[u8], chunk: usize) {
        {
            let mut st = lk(&lane.shared.state);
            st.in_flight += bytes.len();
            st.stamps.extend(std::iter::repeat_n(Instant::now(), frames));
        }
        let mut writer = lane.writer.lock();
        for piece in bytes.chunks(chunk) {
            writer.as_mut().expect("lane open").write_all(piece).expect("receiver alive");
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

    /// Streams three frames — one larger than the receiver's 8 KiB read
    /// buffer — through the real receiver in 1-, 7- and 4096-byte writes
    /// from another thread: frames must reassemble exactly, whatever the
    /// fragmentation, and EOF must follow the last one.
    fn check_fragmented<W: Write + Send, R: TimedRead + Send>(new_lane: impl Fn() -> FramedLane<W, R>) {
        let frames =
            vec![frame(0, vec![9; 40]), frame(1, Vec::new()), frame(2, (0..=255).cycle().take(10_000).collect())];
        let bytes: Vec<u8> = frames.iter().flat_map(RequestFrame::encode).collect();
        for chunk in [1, 7, 4096] {
            let lane = new_lane();
            let mut up: FramedReceiver<R, RequestFrame> = lane.take_receiver();
            std::thread::scope(|s| {
                s.spawn(|| {
                    write_raw(&lane, frames.len(), &bytes, chunk);
                    lane.close_write();
                });
                for f in &frames {
                    match up.recv(None) {
                        RecvOutcome::Frame(got) => assert_eq!(&got.frame, f, "{chunk}-byte writes"),
                        other => panic!("expected frame {} from {chunk}-byte writes, got {other:?}", f.req_id),
                    }
                }
                assert!(matches!(up.recv(None), RecvOutcome::Closed));
            });
            assert!(up.acc.is_empty());
        }
    }

    #[test]
    fn frames_survive_a_fragmented_byte_stream() {
        check_fragmented(pipe_lane);
        #[cfg(unix)]
        check_fragmented(uds_lane);
    }

    #[test]
    fn pipe_chunked_write_passes_frames_larger_than_the_buffer() {
        // A 16-byte budget is far below the frame: the idle lane admits
        // it whole, before any receiver is even reading.
        let t = PipeTransport::new(1, PipeConfig { buffer_bytes: 16, ..PipeConfig::default() });
        let f = frame(5, (0..200u8).collect());
        t.send_request(0, f.clone()).expect("receiver alive");
        t.close_requests();
        let mut up = t.take_uplink(0);
        match up.recv(None) {
            RecvOutcome::Frame(got) => assert_eq!(got.frame, f),
            other => panic!("expected a frame, got {other:?}"),
        }
        assert!(matches!(up.recv(None), RecvOutcome::Closed));
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

    /// Half a frame, a timeout, then the rest: the receiver must time out
    /// without losing the prefix and deliver the whole frame once it
    /// completes.
    fn check_timeout_preserves_partial_frames<W: Write, R: TimedRead>(lane: FramedLane<W, R>) {
        let mut up: FramedReceiver<R, RequestFrame> = lane.take_receiver();
        assert!(matches!(up.recv(Some(Duration::from_millis(1))), RecvOutcome::TimedOut));
        let f = frame(3, vec![7; 64]);
        let encoded = f.encode();
        let (head, tail) = encoded.split_at(10);
        write_raw(&lane, 1, head, head.len());
        assert!(matches!(up.recv(Some(Duration::from_millis(5))), RecvOutcome::TimedOut));
        write_raw(&lane, 0, tail, tail.len());
        match up.recv(Some(Duration::from_millis(1000))) {
            RecvOutcome::Frame(got) => assert_eq!(got.frame, f),
            other => panic!("expected the completed frame, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn uds_uplink_timeout_preserves_partial_frames() {
        check_timeout_preserves_partial_frames(uds_lane());
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
        check_timeout_preserves_partial_frames(pipe_lane());
    }

    /// Writes `bytes` into a fresh lane and receives with `decode`: a
    /// framing error must end the lane as EOF does, for every later
    /// receive and for the next sender.
    fn check_ends_lane<W: Write, R: TimedRead, F: std::fmt::Debug>(
        lane: FramedLane<W, R>,
        bytes: &[u8],
        decode: Decode<F>,
    ) {
        let mut rx: FramedReceiver<R, F> = lane.take_receiver();
        write_raw(&lane, 1, bytes, bytes.len());
        for _ in 0..2 {
            match rx.next(Some(Duration::from_millis(50)), decode) {
                RecvOutcome::Closed => {}
                other => panic!("a bad frame must end the lane, got {other:?}"),
            }
        }
        let resp = ResponseFrame { req_id: 1, prediction: 2 };
        assert_eq!(lane.send(&Pacer::default(), &resp.encode()), Err(TransportClosed));
    }

    fn check_bad_frames_end_the_lane<W: Write, R: TimedRead>(new_lane: impl Fn() -> FramedLane<W, R>) {
        let framed = |body: &[u8]| [&(body.len() as u32).to_le_bytes()[..], body].concat();
        check_ends_lane(new_lane(), &(MAX_FRAME_BYTES as u32 + 1).to_le_bytes(), decode_request);
        check_ends_lane(new_lane(), &framed(&[7; 10]), decode_request);
        check_ends_lane(new_lane(), &framed(&[7; 11]), decode_response);
    }

    #[test]
    fn a_bad_frame_ends_the_lane_on_both_byte_wires() {
        check_bad_frames_end_the_lane(pipe_lane);
        #[cfg(unix)]
        check_bad_frames_end_the_lane(uds_lane);
    }

    /// A self-describing int8 frame built by hand, so the corpus can hold
    /// parameter blocks no encoder would write.
    fn int8_frame(scheme: u8, scales: &[f32], zero_points: &[i32], dims: &[u32]) -> Vec<u8> {
        let mut f = vec![scheme];
        f.extend((scales.len() as u32).to_le_bytes());
        f.extend(scales.iter().flat_map(|s| s.to_le_bytes()));
        f.extend(zero_points.iter().flat_map(|z| z.to_le_bytes()));
        f.push(dims.len() as u8);
        f.extend(dims.iter().flat_map(|d| d.to_le_bytes()));
        f.push(0); // raw body
        f.extend(std::iter::repeat_n(0, dims.iter().product::<u32>() as usize));
        f
    }

    /// A ReLU activation whose int8 frame travels Huffman-coded, and the
    /// offset of the coded body's mode byte in its tag-2 payload.
    fn coded_payload() -> (Bytes, usize) {
        let mut rng = mea_tensor::Rng::new(5);
        let relu = (0..3072).map(|_| rng.normal().max(0.0)).collect();
        let p = Payload::encode_quantized_features(&Tensor::from_vec(relu, &[1, 48, 8, 8]).unwrap());
        let mode = 1 + 13 + 1 + 16;
        assert_eq!(p[mode], 1, "the corpus's activation should travel coded");
        (p, mode)
    }

    /// The grid table the corpus's payloads decode against: 4 channels at
    /// cut 1, nothing calibrated at cut 0.
    fn corpus_grids() -> ActivationGrids {
        ActivationGrids::from_absmax(vec![None, Some(vec![1.0; 4])])
    }

    fn payload_err(bytes: &[u8]) -> Option<WireError> {
        Payload::decode_into_with_grids(Bytes::from(bytes.to_vec()), &corpus_grids(), &mut Vec::new()).err()
    }

    fn int8_err(bytes: &[u8]) -> Option<WireError> {
        mea_quant::wire::try_decode(bytes).err()
    }

    fn request_err(bytes: &[u8]) -> Option<WireError> {
        decode_request(&mut bytes.to_vec()).err()
    }

    fn response_err(bytes: &[u8]) -> Option<WireError> {
        decode_response(&mut bytes.to_vec()).err()
    }

    /// Every decoder of the edge→cloud formats against hostile bytes:
    /// each row names the decoder, the bytes and the error it must return
    /// (in release as in debug) instead of panicking, wrapping or aborting.
    #[test]
    fn hostile_frame_corpus() {
        use WireError::*;
        type Decoder = fn(&[u8]) -> Option<WireError>;
        let t = Tensor::rand_uniform([3, 2, 2], -1.0, 1.0, &mut mea_tensor::Rng::new(3));
        let act = Tensor::rand_uniform([1, 4, 2, 2], -1.0, 1.0, &mut mea_tensor::Rng::new(4));
        let (coded, mode) = coded_payload();
        let payloads = [
            Payload::encode_raw_image(&t),
            Payload::encode_features(&t),
            Payload::encode_quantized_features(&t),
            Payload::encode_grid_features(&act, 1, &corpus_grids()),
            coded.clone(),
        ];
        let request = frame(9, vec![1, 2, 3]).encode();
        let response = ResponseFrame { req_id: 9, prediction: 4 }.encode();
        // The frames the rows cut are themselves accepted, and a stream cut
        // short is an incomplete frame, not an error.
        assert!(payloads.iter().all(|p| payload_err(p).is_none()));
        assert_eq!((request_err(&request), response_err(&response)), (None, None));
        assert_eq!(int8_err(&int8_frame(2, &[0.5, 2.0], &[0, 0], &[2, 3])), None);
        for k in 0..request.len() {
            assert_eq!(decode_request(&mut request[..k].to_vec()), Ok(None), "{k}-byte prefix");
        }

        let framed = |body: &[u8]| [&(body.len() as u32).to_le_bytes()[..], body].concat();
        let shape =
            |ds: &[u32]| [vec![ds.len() as u8], ds.iter().flat_map(|d| d.to_le_bytes()).collect()].concat();
        let tag = |t: u8, rest: &[u8]| [&[t][..], rest].concat();
        let over_cap = MAX_FRAME_BYTES + 1;
        let mut rows: Vec<(&str, Decoder, Vec<u8>, WireError)> = Vec::new();
        for p in &payloads {
            for k in 0..p.len() {
                rows.push(("payload truncated", payload_err, p[..k].to_vec(), Truncated));
            }
        }
        for k in 0..24 {
            rows.push(("request body under 24 bytes", request_err, framed(&request[4..4 + k]), FrameLength(k)));
        }
        for p in &payloads {
            rows.push((
                "payload with a trailing byte",
                payload_err,
                [&p[..], &[0]].concat(),
                FrameLength(p.len() + 1),
            ));
        }
        // The coded body: a mode byte, 128 bytes of four-bit code lengths,
        // the stream. 0x88 gives all 256 symbols 8-bit codes: complete. (A
        // length above 15 cannot be written in four bits; the decoder's
        // own tests reject one.)
        let coded_with = |at: std::ops::Range<usize>, byte: u8| {
            let mut b = coded.to_vec();
            b[at].fill(byte);
            b
        };
        let table = mode + 1..mode + 129;
        let mut over = coded_with(table.clone(), 0x88);
        over[mode + 1] = 0x87;
        let mut under = coded_with(table.clone(), 0x88);
        under[mode + 1] = 0x89;
        // One channel more or fewer is 64 symbols the stream does not hold,
        // or holds past `numel`: it runs out, or leaves code bits where the
        // padding must be zero (and whole bytes after the frame).
        let channels = |c: u32| {
            let mut b = coded.to_vec();
            b[mode - 12..mode - 8].copy_from_slice(&c.to_le_bytes());
            b
        };
        rows.extend([
            ("coded body, unknown mode", payload_err as Decoder, coded_with(mode..mode + 1, 2), UnknownTag(2)),
            ("coded body, over-subscribed lengths", payload_err, over, BadCode),
            ("coded body, incomplete lengths", payload_err, under, BadCode),
            ("coded body, no code", payload_err, coded_with(table, 0), BadCode),
            (
                "coded body, non-zero padding",
                payload_err,
                [&coded[..coded.len() - 1], &[coded[coded.len() - 1] | 1]].concat(),
                BadCode,
            ),
            ("coded body, more symbols than the stream", payload_err, channels(49), Truncated),
            ("coded body, fewer symbols than the stream", payload_err, channels(47), BadCode),
        ]);
        for k in (0..12).chain([13]) {
            let body = [&response[4..], &[0]].concat();
            rows.push(("response body other than 12 bytes", response_err, framed(&body[..k]), FrameLength(k)));
        }
        rows.extend([
            (
                "length prefix over the cap",
                request_err as Decoder,
                (over_cap as u32).to_le_bytes().to_vec(),
                FrameLength(over_cap),
            ),
            ("length prefix u32::MAX", request_err, vec![0xFF; 4], FrameLength(u32::MAX as usize)),
            (
                "response prefix over the cap",
                response_err,
                (over_cap as u32).to_le_bytes().to_vec(),
                FrameLength(over_cap),
            ),
            ("unknown payload tag", payload_err, tag(4, &shape(&[1])), UnknownTag(4)),
            ("unknown scheme tag", int8_err, int8_frame(3, &[1.0], &[0], &[1]), UnknownTag(3)),
            ("unknown scheme tag, tag 2", payload_err, tag(2, &int8_frame(7, &[1.0], &[0], &[1])), UnknownTag(7)),
            ("rank 0", payload_err, tag(1, &shape(&[])), BadShape),
            ("zero dim", payload_err, tag(1, &shape(&[2, 0])), BadShape),
            ("dims overflow usize", payload_err, tag(0, &shape(&[65536; 4])), BadShape),
            ("indexed rank 0", payload_err, tag(3, &[1, 0]), BadShape),
            ("oversized channel count", int8_err, vec![2, 0xFF, 0xFF, 0xFF, 0xFF], Truncated),
            ("NaN scale", int8_err, int8_frame(0, &[f32::NAN], &[0], &[2]), BadParams),
            ("zero scale", int8_err, int8_frame(0, &[0.0], &[0], &[2]), BadParams),
            ("negative scale", int8_err, int8_frame(0, &[-1.0], &[0], &[2]), BadParams),
            ("infinite scale", int8_err, int8_frame(1, &[f32::INFINITY], &[0], &[2]), BadParams),
            ("symmetric zero-point", int8_err, int8_frame(1, &[1.0], &[3], &[2]), BadParams),
            ("zero-point off the grid", int8_err, int8_frame(0, &[1.0], &[i32::MIN], &[2]), BadParams),
            ("per-tensor, 2 channels", int8_err, int8_frame(0, &[1.0, 1.0], &[0, 0], &[2]), BadParams),
            ("no channels", int8_err, int8_frame(2, &[], &[], &[2]), BadParams),
            ("channels vs leading dim", int8_err, int8_frame(2, &[1.0, 1.0], &[0, 0], &[3]), GridMismatch(2, 3)),
            (
                "tag 3, uncalibrated cut",
                payload_err,
                tag(3, &[&[0][..], &shape(&[4]), &[0; 5]].concat()),
                NoGrid(0),
            ),
            (
                "tag 3, cut past the table",
                payload_err,
                tag(3, &[&[9][..], &shape(&[4]), &[0; 5]].concat()),
                NoGrid(9),
            ),
            (
                "tag 3, axis off the grid",
                payload_err,
                tag(3, &[&[1][..], &shape(&[3]), &[0; 4]].concat()),
                GridMismatch(4, 3),
            ),
        ]);
        for (name, decode, bytes, expected) in &rows {
            assert_eq!(decode(bytes), Some(*expected), "{name}: {bytes:?}");
        }
    }
}
