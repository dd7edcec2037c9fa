//! Transport-conformance suite: every behavioural contract of the
//! [`Transport`] trait, asserted against EVERY implementation — the
//! deterministic modelled conduit and (on unix) the loopback kernel
//! socket. Each test body is generic over `T: Transport`; the `#[test]`
//! wrappers instantiate it per wire, so the implementations can never
//! drift apart on framing, ordering, backpressure, or shutdown semantics.

use bytes::Bytes;
use mea_edgecloud::transport::{
    DownlinkReceiver, ModelledTransport, RecvOutcome, RequestFrame, ResponseFrame, Transport, UplinkReceiver,
};
use mea_edgecloud::Payload;
use mea_tensor::{Rng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn modelled(lanes: usize, queue_depth: usize) -> ModelledTransport {
    ModelledTransport::new(lanes, queue_depth)
}

#[cfg(unix)]
fn uds(lanes: usize, window_bytes: usize) -> mea_edgecloud::transport::UdsTransport {
    use mea_edgecloud::transport::{UdsConfig, UdsTransport};
    UdsTransport::new(lanes, UdsConfig { window_bytes, ..UdsConfig::default() })
}

fn request(req_id: u64, device: u32, seq: u64, payload: Bytes) -> RequestFrame {
    RequestFrame { req_id, device, seq, resume_layer: (req_id % 5) as u32, payload }
}

/// A tiny feature payload whose contents are a pure function of
/// `(device, seq)`, so corruption or cross-frame mixing is detectable.
fn tagged_payload(device: u32, seq: u64) -> Payload {
    let v = device as f32 * 1000.0 + seq as f32;
    Payload::Features { features: Tensor::zeros([2, 2]).map(|_| v) }
}

// ---------------------------------------------------------------------------
// Frame round-trip: every payload codec crosses bit-exactly.
// ---------------------------------------------------------------------------

fn check_round_trip<T: Transport>(t: T) {
    let mut rng = Rng::new(11);
    let feats = Tensor::randn([6, 3, 3], 1.0, &mut rng);
    let payloads = [
        Payload::RawImage { image: Tensor::randn([3, 8, 8], 1.0, &mut rng) },
        Payload::Features { features: feats.clone() },
        Payload::quantize_features(&feats),
    ];
    let mut up = t.take_uplink(0);
    for (i, p) in payloads.iter().enumerate() {
        let encoded = p.encode();
        let frame = request(i as u64, 7, i as u64, encoded.clone());
        let wire = frame.wire_bytes();
        t.send_request(0, frame).expect("lane open");
        let got = match up.recv(None) {
            RecvOutcome::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        };
        assert_eq!(got.frame.req_id, i as u64);
        assert_eq!(got.frame.device, 7);
        assert_eq!(got.frame.resume_layer, (i % 5) as u32);
        assert_eq!(got.frame.wire_bytes(), wire, "wire size changed in flight");
        // The transport's contract is bit-exactness of the encoded bytes
        // (the image codec itself is lossy u8 quantisation, so decoded
        // equality is only promised for the feature codecs).
        assert_eq!(got.frame.payload.as_ref(), encoded.as_ref(), "payload {i} did not cross bit-exactly");
        let decoded = Payload::decode(got.frame.payload).expect("a payload that crossed bit-exactly decodes");
        assert_eq!(decoded.wire_size_bytes(), p.wire_size_bytes());
        if matches!(p, Payload::Features { .. } | Payload::QuantFeatures { .. }) {
            assert_eq!(&decoded, p, "feature payload {i} must round-trip losslessly");
        }
        assert!(got.received_at >= got.sent_at, "timestamps must be causally ordered");
    }
    // Responses ride the same contract on the downlink.
    let mut down = t.take_downlink(0);
    t.send_response(0, ResponseFrame { req_id: 3, prediction: 42 }).expect("lane open");
    match down.recv() {
        RecvOutcome::Frame(r) => assert_eq!(r.frame, ResponseFrame { req_id: 3, prediction: 42 }),
        other => panic!("expected a response, got {other:?}"),
    }
}

#[test]
fn modelled_round_trips_every_payload_codec() {
    check_round_trip(modelled(1, 4));
}

#[cfg(unix)]
#[test]
fn uds_round_trips_every_payload_codec() {
    check_round_trip(uds(1, 64 * 1024));
}

// ---------------------------------------------------------------------------
// Multiplexing: concurrent senders interleave on one lane at frame
// granularity — nothing lost, nothing corrupted, per-sender order kept.
// ---------------------------------------------------------------------------

fn check_multiplexing<T: Transport>(t: T) {
    const SENDERS: u32 = 2;
    const PER_SENDER: u64 = 50;
    std::thread::scope(|s| {
        for device in 0..SENDERS {
            let t = &t;
            s.spawn(move || {
                for seq in 0..PER_SENDER {
                    let frame = request(
                        u64::from(device) * PER_SENDER + seq,
                        device,
                        seq,
                        tagged_payload(device, seq).encode(),
                    );
                    t.send_request(0, frame).expect("lane open");
                }
            });
        }
        let mut up = t.take_uplink(0);
        let mut next_seq = vec![0u64; SENDERS as usize];
        for _ in 0..(u64::from(SENDERS) * PER_SENDER) {
            let got = match up.recv(None) {
                RecvOutcome::Frame(f) => f,
                other => panic!("expected a frame, got {other:?}"),
            };
            let d = got.frame.device;
            assert_eq!(got.frame.seq, next_seq[d as usize], "sender {d} frames arrived out of order");
            next_seq[d as usize] += 1;
            assert_eq!(
                Payload::decode(got.frame.payload),
                Ok(tagged_payload(d, got.frame.seq)),
                "frame from sender {d} was corrupted by interleaving"
            );
        }
        assert!(next_seq.iter().all(|&n| n == PER_SENDER), "some frames were lost");
    });
}

#[test]
fn modelled_multiplexes_concurrent_senders() {
    check_multiplexing(modelled(1, 4));
}

#[cfg(unix)]
#[test]
fn uds_multiplexes_concurrent_senders() {
    // A budget smaller than one frame serialises the lane to one frame
    // in flight, so budget waits (not luck) pace the interleaving.
    check_multiplexing(uds(1, 48));
}

// ---------------------------------------------------------------------------
// Backpressure: a bounded lane blocks the sender until the receiver
// drains; nothing is dropped.
// ---------------------------------------------------------------------------

fn check_backpressure<T: Transport>(t: T, stalled_after: usize) {
    let sent = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let t = &t;
        let sent = &sent;
        s.spawn(move || {
            for seq in 0..3u64 {
                t.send_request(0, request(seq, 0, seq, tagged_payload(0, seq).encode())).expect("lane open");
                sent.fetch_add(1, Ordering::SeqCst);
            }
        });
        // No receiver yet: the sender must wedge against the bound.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            sent.load(Ordering::SeqCst),
            stalled_after,
            "bounded lane should block the sender after {stalled_after} sends"
        );
        // Draining un-wedges it and every frame arrives exactly once.
        let mut up = t.take_uplink(0);
        for seq in 0..3u64 {
            match up.recv(None) {
                RecvOutcome::Frame(f) => assert_eq!(f.frame.seq, seq),
                other => panic!("expected frame {seq}, got {other:?}"),
            }
        }
    });
    assert_eq!(sent.load(Ordering::SeqCst), 3, "all sends must complete after the drain");
}

#[test]
fn modelled_backpressure_blocks_the_sender() {
    // Queue depth 1: the first frame is accepted, the second blocks.
    check_backpressure(modelled(1, 1), 1);
}

#[cfg(unix)]
#[test]
fn uds_backpressure_blocks_the_sender() {
    // The same rule over the socket, for a 1-byte and a zero budget.
    for budget in [1, 0] {
        check_backpressure(uds(1, budget), 1);
    }
}

// ---------------------------------------------------------------------------
// Zero timeout: frames already on the wire are delivered even when the
// wait has run out — a `max_wait = 0` coalescing window depends on it.
// ---------------------------------------------------------------------------

fn check_zero_timeout<T: Transport>(t: T) {
    let mut up = t.take_uplink(0);
    assert!(matches!(up.recv(Some(Duration::ZERO)), RecvOutcome::TimedOut), "an empty lane holds no frame");
    for seq in 0..3u64 {
        t.send_request(0, request(seq, 0, seq, tagged_payload(0, seq).encode())).expect("lane open");
    }
    for seq in 0..3u64 {
        match up.recv(Some(Duration::ZERO)) {
            RecvOutcome::Frame(f) => assert_eq!(f.frame.seq, seq),
            other => panic!("frame {seq} was already sent, got {other:?}"),
        }
    }
    assert!(matches!(up.recv(Some(Duration::ZERO)), RecvOutcome::TimedOut), "the lane is drained");
}

#[test]
fn modelled_zero_timeout_delivers_queued_frames() {
    check_zero_timeout(modelled(1, 4));
}

#[cfg(unix)]
#[test]
fn uds_zero_timeout_delivers_queued_frames() {
    check_zero_timeout(uds(1, 64 * 1024));
}

// ---------------------------------------------------------------------------
// Unbounded timeout: a wait no deadline can hold waits for the frame,
// like `None`, instead of overflowing the clock.
// ---------------------------------------------------------------------------

fn check_max_timeout<T: Transport>(t: T) {
    let mut up = t.take_uplink(0);
    std::thread::scope(|s| {
        let t = &t;
        // After a pause, so the receiver is most likely already waiting;
        // either order must deliver the frame, then `Closed`.
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t.send_request(0, request(0, 0, 0, tagged_payload(0, 0).encode())).expect("lane open");
            std::thread::sleep(Duration::from_millis(20));
            t.close_requests();
        });
        match up.recv(Some(Duration::MAX)) {
            RecvOutcome::Frame(f) => assert_eq!(f.frame.seq, 0),
            other => panic!("expected the frame, got {other:?}"),
        }
        assert!(matches!(up.recv(Some(Duration::MAX)), RecvOutcome::Closed), "closing the lane ends the wait");
    });
}

#[test]
fn modelled_max_timeout_waits_for_the_frame() {
    check_max_timeout(modelled(1, 4));
}

#[cfg(unix)]
#[test]
fn uds_max_timeout_waits_for_the_frame() {
    check_max_timeout(uds(1, 64 * 1024));
}

// ---------------------------------------------------------------------------
// Shutdown: close lets receivers drain in-flight frames before seeing
// Closed; sends after close (or after the receiver is gone) fail fast.
// ---------------------------------------------------------------------------

fn check_shutdown<T: Transport>(t: T) {
    let mut up = t.take_uplink(0);
    // An empty open lane times out rather than reporting closure.
    assert!(matches!(up.recv(Some(Duration::from_millis(5))), RecvOutcome::TimedOut));
    for seq in 0..2u64 {
        t.send_request(0, request(seq, 0, seq, tagged_payload(0, seq).encode())).expect("lane open");
    }
    t.close_requests();
    assert!(t.send_request(0, request(9, 0, 9, tagged_payload(0, 9).encode())).is_err(), "send after close");
    for seq in 0..2u64 {
        match up.recv(None) {
            RecvOutcome::Frame(f) => assert_eq!(f.frame.seq, seq, "in-flight frames must drain before Closed"),
            other => panic!("expected frame {seq}, got {other:?}"),
        }
    }
    assert!(matches!(up.recv(None), RecvOutcome::Closed));
    assert!(matches!(up.recv(Some(Duration::from_millis(1))), RecvOutcome::Closed), "closed stays closed");

    let mut down = t.take_downlink(0);
    t.send_response(0, ResponseFrame { req_id: 0, prediction: 1 }).expect("lane open");
    t.close_responses(0);
    assert!(t.send_response(0, ResponseFrame { req_id: 1, prediction: 2 }).is_err(), "send after close");
    assert!(matches!(down.recv(), RecvOutcome::Frame(r) if r.frame.req_id == 0));
    assert!(matches!(down.recv(), RecvOutcome::Closed));
}

#[test]
fn modelled_shutdown_drains_then_closes() {
    check_shutdown(modelled(1, 4));
}

#[cfg(unix)]
#[test]
fn uds_shutdown_drains_then_closes() {
    check_shutdown(uds(1, 64 * 1024));
}

// ---------------------------------------------------------------------------
// Receiver drop: a consumer that dies (e.g. a panicking cloud worker)
// closes its lane, so senders fail instead of blocking forever.
// ---------------------------------------------------------------------------

fn check_receiver_drop<T: Transport>(t: T) {
    drop(t.take_uplink(0));
    assert!(
        t.send_request(0, request(0, 0, 0, tagged_payload(0, 0).encode())).is_err(),
        "send into a dropped uplink must fail, not wedge"
    );
    drop(t.take_downlink(0));
    assert!(t.send_response(0, ResponseFrame { req_id: 0, prediction: 0 }).is_err());
    // Other lanes are unaffected.
    let mut up1 = t.take_uplink(1);
    t.send_request(1, request(1, 1, 0, tagged_payload(1, 0).encode())).expect("lane 1 still open");
    assert!(matches!(up1.recv(None), RecvOutcome::Frame(_)));
}

#[test]
fn modelled_receiver_drop_closes_only_its_lane() {
    check_receiver_drop(modelled(2, 4));
}

#[cfg(unix)]
#[test]
fn uds_receiver_drop_closes_only_its_lane() {
    check_receiver_drop(uds(2, 64 * 1024));
}
