//! Fuzzing the wire codec: every byte string a peer can send must decode
//! to a value or a typed [`WireError`], never a panic.
//!
//! Three input families: uniformly random bytes, every truncated prefix of
//! a valid encoding, and single-byte mutations of valid encodings. Each is
//! fed to `decode_request`, `decode_effects`, and a [`FrameBuffer`]. A
//! panic anywhere fails the property.

use proptest::prelude::*;
use quasaq_core::Rejection;
use quasaq_media::{ColorDepth, FrameRate, QosRange, Resolution, VideoFormat, VideoId};
use quasaq_service::wire::{
    decode_effects, decode_request, encode_effects, encode_request, FrameBuffer, Request,
    WireError, MAX_FRAME,
};
use quasaq_service::{
    Admission, AdmitOrigin, Degraded, Effect, QopClass, RejectReason, Renegotiation, ServiceError,
    SessionId, StatsSnapshot,
};
use quasaq_sim::{ServerId, SimDuration, SimTime};
use quasaq_vdbms::QueuedQuery;

fn query() -> QueuedQuery {
    QueuedQuery {
        video: VideoId(7),
        qos: QosRange {
            min_resolution: Resolution::new(320, 240),
            max_resolution: Resolution::new(640, 480),
            min_color: ColorDepth::BITS_12,
            min_frame_rate: FrameRate::LOW,
            max_frame_rate: FrameRate::NTSC_FILM,
            formats: Some(vec![VideoFormat::Mpeg1]),
        },
    }
}

/// One framed encoding of every request variant.
fn request_frames() -> Vec<Vec<u8>> {
    let requests = [
        Request::Admit { query: query(), class: QopClass::Premium, now: SimTime::from_micros(5) },
        Request::Tick { now: SimTime::from_micros(42) },
        Request::Teardown { session: SessionId(3), abandoned: true, now: SimTime::from_micros(9) },
        Request::Renegotiate {
            session: SessionId(5),
            backlog: 1.25e6,
            now: SimTime::from_micros(77),
        },
        Request::Stats { now: SimTime::from_micros(1) },
        Request::Finish,
    ];
    requests
        .iter()
        .map(|r| {
            let mut bytes = Vec::new();
            encode_request(r, &mut bytes);
            bytes
        })
        .collect()
}

/// One framed effect list carrying every effect variant.
fn effects_frame() -> Vec<u8> {
    let effects = [
        Effect::Admitted(Admission {
            session: SessionId(0),
            video: VideoId(7),
            server: ServerId(2),
            bytes: 1 << 30,
            rate_bps: 1_500_000,
            nominal: SimDuration::from_micros(5_726_623),
            utility: Some(0.875),
            origin: AdmitOrigin::Recovery { interrupted_at: SimTime::from_micros(10) },
            degraded: Degraded::Failover { steps: 2 },
        }),
        Effect::Rejected {
            origin: AdmitOrigin::Retry { arrival: SimTime::from_micros(3) },
            reason: RejectReason::Plan(Rejection::AdmissionFailed),
        },
        Effect::Queued,
        Effect::Requeued,
        Effect::Dropped,
        Effect::Renegotiated(Renegotiation {
            session: SessionId(4),
            video: VideoId(1),
            server: ServerId(0),
            bytes: 123,
            rate_bps: 456,
            nominal: SimDuration::from_micros(789),
            bytes_saved: -10.5,
            downshift: true,
            hunting: false,
        }),
        Effect::TornDown { session: SessionId(9) },
        Effect::Finished { pending: 3, displaced_pending: 1 },
        Effect::Stats(StatsSnapshot {
            now: SimTime::from_micros(100),
            admitted: 5,
            rejected: 2,
            live_sessions: 3,
            waiting: 1,
            renegotiations: 4,
            wait_mean_secs: 0.25,
            wait_p95_secs: 1.5,
        }),
        Effect::Error(ServiceError::UnknownSession(SessionId(11))),
    ];
    let mut bytes = Vec::new();
    encode_effects(&effects, &mut bytes);
    bytes
}

/// Every valid encoding the mutation families start from.
fn valid_frames() -> Vec<Vec<u8>> {
    let mut frames = request_frames();
    frames.push(effects_frame());
    frames
}

/// Feeds `bytes` to both payload decoders. Returning at all is the
/// property: the results are `Ok` or a typed error by construction.
fn decode_both(bytes: &[u8]) {
    let _ = decode_request(bytes);
    let _ = decode_effects(bytes);
}

/// Streams `bytes` through a frame buffer in `chunk`-sized reads and
/// decodes every whole payload it yields. Stops at the first framing
/// error, as the shell drops the connection there.
fn stream(bytes: &[u8], chunk: usize) -> Result<(), WireError> {
    let mut fb = FrameBuffer::new();
    for piece in bytes.chunks(chunk.max(1)) {
        fb.extend(piece);
        while let Some(payload) = fb.next_frame()? {
            assert!(payload.len() <= MAX_FRAME as usize);
            decode_both(&payload);
        }
    }
    Ok(())
}

#[test]
fn every_truncated_prefix_is_an_error_or_a_value() {
    for frame in valid_frames() {
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            decode_both(&payload[..cut]);
        }
        for cut in 0..frame.len() {
            // A partial frame never yields a payload.
            let mut fb = FrameBuffer::new();
            fb.extend(&frame[..cut]);
            assert_eq!(fb.next_frame(), Ok(None), "prefix of {cut} bytes");
        }
    }
    // The untruncated encodings still decode as their own kind.
    for frame in request_frames() {
        assert!(decode_request(&frame[4..]).is_ok(), "{frame:?}");
    }
    assert!(decode_effects(&effects_frame()[4..]).is_ok());
}

/// An admit whose frame-rate range has a zero bound is refused at decode:
/// 0 fps is no stream, and the planner cannot represent it. Before the
/// decoder checked, such a frame reached the control plane and panicked
/// plan generation.
#[test]
fn zero_frame_rates_are_malformed() {
    for (min, max) in [(0, 30_000), (0, 0), (5_000, 0)] {
        let mut q = query();
        q.qos.min_frame_rate = FrameRate::from_millifps(min);
        q.qos.max_frame_rate = FrameRate::from_millifps(max);
        let mut frame = Vec::new();
        let admit =
            Request::Admit { query: q, class: QopClass::Economy, now: SimTime::from_micros(5) };
        encode_request(&admit, &mut frame);
        assert_eq!(
            decode_request(&frame[4..]),
            Err(WireError::Malformed("frame rate")),
            "{min}..{max} milli-fps"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Uniformly random bytes, as payloads and as a framed stream.
    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..16,
    ) {
        decode_both(&bytes);
        let _ = stream(&bytes, chunk);
    }

    /// One byte of a valid encoding replaced by an arbitrary value: the
    /// codec must notice or accept, never panic.
    #[test]
    fn single_byte_mutations_never_panic(
        pick in 0usize..7,
        at in any::<usize>(),
        value in any::<u8>(),
        chunk in 1usize..16,
    ) {
        let mut frame = valid_frames().swap_remove(pick);
        let i = at % frame.len();
        frame[i] = value;
        decode_both(&frame[4..]);
        let _ = stream(&frame, chunk);
    }

    /// A header announcing more than `MAX_FRAME` bytes is refused as soon
    /// as the header is whole, before any payload is buffered.
    #[test]
    fn oversize_headers_are_refused_before_the_payload(
        len in (MAX_FRAME + 1)..=u32::MAX,
        chunk in 1usize..4,
    ) {
        let header = len.to_le_bytes();
        let mut fb = FrameBuffer::new();
        let mut refused = None;
        for piece in header.chunks(chunk) {
            fb.extend(piece);
            refused = fb.next_frame().err();
        }
        prop_assert_eq!(refused, Some(WireError::Oversize(len)));
    }
}
