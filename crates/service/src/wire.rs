//! Length-prefixed binary codec for the command/effect vocabulary.
//!
//! Pure bytes in / bytes out: this module never touches a socket. Each
//! frame is a little-endian `u32` payload length followed by the payload;
//! the first payload byte is a variant tag. `quasaq-shell` moves the
//! frames over TCP, and because the codec round-trips the exact
//! [`Command`](crate::Command)/[`Effect`] values, a decision made over
//! the wire is the same decision the in-process drivers see.
//!
//! Decoding is total: malformed input yields a typed [`WireError`], never
//! a panic, since these paths are reachable from an untrusted peer.

use crate::command::{
    Admission, AdmitOrigin, Degraded, Effect, QopClass, RejectReason, Renegotiation, ServiceError,
    StatsSnapshot,
};
use crate::plane::SessionId;
use quasaq_core::Rejection;
use quasaq_media::{ColorDepth, FrameRate, QosRange, Resolution, VideoFormat, VideoId};
use quasaq_sim::{ServerId, SimDuration, SimTime};
use quasaq_vdbms::QueuedQuery;
use std::fmt;

/// Upper bound on a single frame's payload, generous for this vocabulary.
/// A peer announcing more is malformed (or hostile), not buffered.
pub const MAX_FRAME: u32 = 1 << 20;

/// What a remote client can ask the serving shell to do — the wire subset
/// of the command vocabulary. Congestion/fault commands stay shell-side
/// (they come from the shell's own data plane, not from clients).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a query now. The service class rides along for brownout
    /// shedding; whether the cluster *is* browned out stays the shell's
    /// call (it watches the data plane, the client does not).
    Admit {
        /// The bound query to admit.
        query: QueuedQuery,
        /// The request's service class.
        class: QopClass,
        /// The client's logical clock for this command.
        now: SimTime,
    },
    /// Drain retries due at or before `now`.
    Tick {
        /// The client's logical clock for this command.
        now: SimTime,
    },
    /// Release a previously admitted session.
    Teardown {
        /// The session to release.
        session: SessionId,
        /// True when the client gave up mid-stream.
        abandoned: bool,
        /// The client's logical clock for this command.
        now: SimTime,
    },
    /// Ask for a mid-stream downshift of one session with the given
    /// remaining backlog.
    Renegotiate {
        /// The session to downshift.
        session: SessionId,
        /// Bytes still unsent.
        backlog: f64,
        /// The client's logical clock for this command.
        now: SimTime,
    },
    /// Snapshot the plane's counters.
    Stats {
        /// The client's logical clock for this command.
        now: SimTime,
    },
    /// Flush the retry queue and report the stranded.
    Finish,
}

/// A decoding failure. Every variant is a protocol error on the peer's
/// side; the connection should be dropped, not retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// A tag or field value outside the protocol.
    Malformed(&'static str),
    /// A frame header announced a payload larger than [`MAX_FRAME`].
    Oversize(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Accumulates raw bytes from a stream and yields complete frame
/// payloads. The shell feeds it whatever `read` returned; partial frames
/// stay buffered until the rest arrives.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload, `Ok(None)` until one is whole.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME {
            return Err(WireError::Oversize(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

/// Wraps `payload` in a length prefix, appending the frame to `out`.
pub fn frame(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes a request as one complete frame appended to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let mut p = Vec::new();
    match req {
        Request::Admit { query, class, now } => {
            p.push(0);
            put_query(query, &mut p);
            p.push(match class {
                QopClass::Economy => 0,
                QopClass::Standard => 1,
                QopClass::Premium => 2,
            });
            put_u64(now.as_micros(), &mut p);
        }
        Request::Tick { now } => {
            p.push(1);
            put_u64(now.as_micros(), &mut p);
        }
        Request::Teardown { session, abandoned, now } => {
            p.push(2);
            put_u64(session.0, &mut p);
            p.push(u8::from(*abandoned));
            put_u64(now.as_micros(), &mut p);
        }
        Request::Renegotiate { session, backlog, now } => {
            p.push(3);
            put_u64(session.0, &mut p);
            put_f64(*backlog, &mut p);
            put_u64(now.as_micros(), &mut p);
        }
        Request::Stats { now } => {
            p.push(4);
            put_u64(now.as_micros(), &mut p);
        }
        Request::Finish => p.push(5),
    }
    frame(&p, out);
}

/// Decodes one request payload (the frame body, prefix already stripped).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        0 => {
            let query = take_query(&mut c)?;
            let class = match c.u8()? {
                0 => QopClass::Economy,
                1 => QopClass::Standard,
                2 => QopClass::Premium,
                _ => return Err(WireError::Malformed("service class")),
            };
            Request::Admit { query, class, now: SimTime::from_micros(c.u64()?) }
        }
        1 => Request::Tick { now: SimTime::from_micros(c.u64()?) },
        2 => Request::Teardown {
            session: SessionId(c.u64()?),
            abandoned: match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("abandoned flag")),
            },
            now: SimTime::from_micros(c.u64()?),
        },
        3 => Request::Renegotiate {
            session: SessionId(c.u64()?),
            backlog: c.f64()?,
            now: SimTime::from_micros(c.u64()?),
        },
        4 => Request::Stats { now: SimTime::from_micros(c.u64()?) },
        5 => Request::Finish,
        _ => return Err(WireError::Malformed("request tag")),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes one command's effect list as one complete frame appended to
/// `out`.
pub fn encode_effects(effects: &[Effect], out: &mut Vec<u8>) {
    let mut p = Vec::new();
    put_u32(effects.len() as u32, &mut p);
    for e in effects {
        put_effect(e, &mut p);
    }
    frame(&p, out);
}

/// Decodes one effect-list payload.
pub fn decode_effects(payload: &[u8]) -> Result<Vec<Effect>, WireError> {
    let mut c = Cursor::new(payload);
    let n = c.u32()?;
    if n as usize > payload.len() {
        // Each effect is at least one byte; a count beyond the payload
        // length cannot be honest.
        return Err(WireError::Malformed("effect count"));
    }
    let mut effects = Vec::with_capacity(n as usize);
    for _ in 0..n {
        effects.push(take_effect(&mut c)?);
    }
    c.finish()?;
    Ok(effects)
}

fn put_effect(e: &Effect, p: &mut Vec<u8>) {
    match e {
        Effect::Admitted(a) => {
            p.push(0);
            put_u64(a.session.0, p);
            put_u32(a.video.0, p);
            put_u32(a.server.0, p);
            put_u64(a.bytes, p);
            put_u64(a.rate_bps, p);
            put_u64(a.nominal.as_micros(), p);
            match a.utility {
                None => p.push(0),
                Some(u) => {
                    p.push(1);
                    put_f64(u, p);
                }
            }
            put_origin(a.origin, p);
            put_degraded(a.degraded, p);
        }
        Effect::Rejected { origin, reason } => {
            p.push(1);
            put_origin(*origin, p);
            p.push(match reason {
                RejectReason::Plan(Rejection::NoFeasiblePlan) => 0,
                RejectReason::Plan(Rejection::AdmissionFailed) => 1,
                RejectReason::BrownoutShed => 2,
                RejectReason::BrownoutInfeasible => 3,
                RejectReason::UnknownVideo => 4,
            });
        }
        Effect::Queued => p.push(2),
        Effect::Requeued => p.push(3),
        Effect::Dropped => p.push(4),
        Effect::Renegotiated(r) => {
            p.push(5);
            put_u64(r.session.0, p);
            put_u32(r.video.0, p);
            put_u32(r.server.0, p);
            put_u64(r.bytes, p);
            put_u64(r.rate_bps, p);
            put_u64(r.nominal.as_micros(), p);
            put_f64(r.bytes_saved, p);
            p.push(u8::from(r.downshift));
            p.push(u8::from(r.hunting));
        }
        Effect::TornDown { session } => {
            p.push(6);
            put_u64(session.0, p);
        }
        Effect::Finished { pending, displaced_pending } => {
            p.push(7);
            put_u64(*pending, p);
            put_u64(*displaced_pending, p);
        }
        Effect::Stats(s) => {
            p.push(8);
            put_u64(s.now.as_micros(), p);
            put_u64(s.admitted, p);
            put_u64(s.rejected, p);
            put_u64(s.live_sessions, p);
            put_u64(s.waiting, p);
            put_u64(s.renegotiations, p);
            put_f64(s.wait_mean_secs, p);
            put_f64(s.wait_p95_secs, p);
        }
        Effect::Error(err) => {
            p.push(9);
            match err {
                ServiceError::UnknownSession(sid) => {
                    p.push(0);
                    put_u64(sid.0, p);
                }
                ServiceError::NoAdmissionQueue => p.push(1),
                ServiceError::NoSessionContext(sid) => {
                    p.push(2);
                    put_u64(sid.0, p);
                }
            }
        }
    }
}

fn take_effect(c: &mut Cursor<'_>) -> Result<Effect, WireError> {
    Ok(match c.u8()? {
        0 => Effect::Admitted(Admission {
            session: SessionId(c.u64()?),
            video: VideoId(c.u32()?),
            server: ServerId(c.u32()?),
            bytes: c.u64()?,
            rate_bps: c.u64()?,
            nominal: SimDuration::from_micros(c.u64()?),
            utility: match c.u8()? {
                0 => None,
                1 => Some(c.f64()?),
                _ => return Err(WireError::Malformed("utility flag")),
            },
            origin: take_origin(c)?,
            degraded: take_degraded(c)?,
        }),
        1 => Effect::Rejected {
            origin: take_origin(c)?,
            reason: match c.u8()? {
                0 => RejectReason::Plan(Rejection::NoFeasiblePlan),
                1 => RejectReason::Plan(Rejection::AdmissionFailed),
                2 => RejectReason::BrownoutShed,
                3 => RejectReason::BrownoutInfeasible,
                4 => RejectReason::UnknownVideo,
                _ => return Err(WireError::Malformed("reject reason")),
            },
        },
        2 => Effect::Queued,
        3 => Effect::Requeued,
        4 => Effect::Dropped,
        5 => Effect::Renegotiated(Renegotiation {
            session: SessionId(c.u64()?),
            video: VideoId(c.u32()?),
            server: ServerId(c.u32()?),
            bytes: c.u64()?,
            rate_bps: c.u64()?,
            nominal: SimDuration::from_micros(c.u64()?),
            bytes_saved: c.f64()?,
            downshift: c.u8()? != 0,
            hunting: c.u8()? != 0,
        }),
        6 => Effect::TornDown { session: SessionId(c.u64()?) },
        7 => Effect::Finished { pending: c.u64()?, displaced_pending: c.u64()? },
        8 => Effect::Stats(StatsSnapshot {
            now: SimTime::from_micros(c.u64()?),
            admitted: c.u64()?,
            rejected: c.u64()?,
            live_sessions: c.u64()?,
            waiting: c.u64()?,
            renegotiations: c.u64()?,
            wait_mean_secs: c.f64()?,
            wait_p95_secs: c.f64()?,
        }),
        9 => Effect::Error(match c.u8()? {
            0 => ServiceError::UnknownSession(SessionId(c.u64()?)),
            1 => ServiceError::NoAdmissionQueue,
            2 => ServiceError::NoSessionContext(SessionId(c.u64()?)),
            _ => return Err(WireError::Malformed("error tag")),
        }),
        _ => return Err(WireError::Malformed("effect tag")),
    })
}

fn put_origin(o: AdmitOrigin, p: &mut Vec<u8>) {
    match o {
        AdmitOrigin::Arrival => p.push(0),
        AdmitOrigin::Retry { arrival } => {
            p.push(1);
            put_u64(arrival.as_micros(), p);
        }
        AdmitOrigin::Recovery { interrupted_at } => {
            p.push(2);
            put_u64(interrupted_at.as_micros(), p);
        }
        AdmitOrigin::Failover => p.push(3),
    }
}

fn take_origin(c: &mut Cursor<'_>) -> Result<AdmitOrigin, WireError> {
    Ok(match c.u8()? {
        0 => AdmitOrigin::Arrival,
        1 => AdmitOrigin::Retry { arrival: SimTime::from_micros(c.u64()?) },
        2 => AdmitOrigin::Recovery { interrupted_at: SimTime::from_micros(c.u64()?) },
        3 => AdmitOrigin::Failover,
        _ => return Err(WireError::Malformed("origin tag")),
    })
}

fn put_degraded(d: Degraded, p: &mut Vec<u8>) {
    match d {
        Degraded::No => p.push(0),
        Degraded::Brownout => p.push(1),
        Degraded::Failover { steps } => {
            p.push(2);
            put_u32(steps, p);
        }
    }
}

fn take_degraded(c: &mut Cursor<'_>) -> Result<Degraded, WireError> {
    Ok(match c.u8()? {
        0 => Degraded::No,
        1 => Degraded::Brownout,
        2 => Degraded::Failover { steps: c.u32()? },
        _ => return Err(WireError::Malformed("degraded tag")),
    })
}

fn put_query(q: &QueuedQuery, p: &mut Vec<u8>) {
    put_u32(q.video.0, p);
    put_u32(q.qos.min_resolution.width, p);
    put_u32(q.qos.min_resolution.height, p);
    put_u32(q.qos.max_resolution.width, p);
    put_u32(q.qos.max_resolution.height, p);
    p.push(q.qos.min_color.bits());
    put_u32(q.qos.min_frame_rate.millifps(), p);
    put_u32(q.qos.max_frame_rate.millifps(), p);
    match &q.qos.formats {
        None => p.push(0xff),
        Some(fs) => {
            debug_assert!(fs.len() < 0xff);
            p.push(fs.len() as u8);
            for f in fs {
                p.push(match f {
                    VideoFormat::Mpeg1 => 0,
                    VideoFormat::Mpeg2 => 1,
                });
            }
        }
    }
}

fn take_query(c: &mut Cursor<'_>) -> Result<QueuedQuery, WireError> {
    let video = VideoId(c.u32()?);
    let min_resolution = take_resolution(c)?;
    let max_resolution = take_resolution(c)?;
    let bits = c.u8()?;
    if !(1..=48).contains(&bits) {
        return Err(WireError::Malformed("color depth"));
    }
    let min_color = ColorDepth::from_bits(bits);
    let min_frame_rate = take_frame_rate(c)?;
    let max_frame_rate = take_frame_rate(c)?;
    let formats = match c.u8()? {
        0xff => None,
        n => {
            let mut fs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                fs.push(match c.u8()? {
                    0 => VideoFormat::Mpeg1,
                    1 => VideoFormat::Mpeg2,
                    _ => return Err(WireError::Malformed("video format")),
                });
            }
            Some(fs)
        }
    };
    Ok(QueuedQuery {
        video,
        qos: QosRange {
            min_resolution,
            max_resolution,
            min_color,
            min_frame_rate,
            max_frame_rate,
            formats,
        },
    })
}

/// A frame rate in milli-fps; zero is malformed, since a stream at 0 fps
/// carries no frames and the planner cannot represent one.
fn take_frame_rate(c: &mut Cursor<'_>) -> Result<FrameRate, WireError> {
    match c.u32()? {
        0 => Err(WireError::Malformed("frame rate")),
        millifps => Ok(FrameRate::from_millifps(millifps)),
    }
}

fn take_resolution(c: &mut Cursor<'_>) -> Result<Resolution, WireError> {
    let width = c.u32()?;
    let height = c.u32()?;
    if width == 0 || height == 0 {
        return Err(WireError::Malformed("resolution"));
    }
    Ok(Resolution { width, height })
}

fn put_u32(v: u32, p: &mut Vec<u8>) {
    p.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(v: u64, p: &mut Vec<u8>) {
    p.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(v: f64, p: &mut Vec<u8>) {
    p.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(&mut self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> QueuedQuery {
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

    fn roundtrip_request(req: Request) {
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        let payload = fb.next_frame().unwrap().expect("whole frame");
        assert_eq!(decode_request(&payload).unwrap(), req);
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Admit {
            query: sample_query(),
            class: QopClass::Standard,
            now: SimTime::from_micros(1_500_000),
        });
        roundtrip_request(Request::Tick { now: SimTime::from_micros(42) });
        roundtrip_request(Request::Teardown {
            session: SessionId(3),
            abandoned: true,
            now: SimTime::from_micros(9),
        });
        roundtrip_request(Request::Renegotiate {
            session: SessionId(5),
            backlog: 1.25e6,
            now: SimTime::from_micros(77),
        });
        roundtrip_request(Request::Stats { now: SimTime::from_micros(1) });
        roundtrip_request(Request::Finish);
    }

    #[test]
    fn effects_roundtrip() {
        let effects = vec![
            Effect::Admitted(Admission {
                session: SessionId(0),
                video: VideoId(7),
                server: ServerId(2),
                bytes: 1 << 30,
                rate_bps: 1_500_000,
                nominal: SimDuration::from_micros(5_726_623),
                utility: Some(0.875),
                origin: AdmitOrigin::Retry { arrival: SimTime::from_micros(10) },
                degraded: Degraded::Failover { steps: 2 },
            }),
            Effect::Rejected {
                origin: AdmitOrigin::Arrival,
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
                downshift: false,
                hunting: true,
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
            Effect::Error(ServiceError::NoSessionContext(SessionId(11))),
        ];
        let mut bytes = Vec::new();
        encode_effects(&effects, &mut bytes);
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        let payload = fb.next_frame().unwrap().expect("whole frame");
        let back = decode_effects(&payload).unwrap();
        assert_eq!(back.len(), effects.len());
        // Effect is not PartialEq (it holds f64-bearing structs that are);
        // compare via Debug, which prints every field.
        assert_eq!(format!("{back:?}"), format!("{effects:?}"));
    }

    #[test]
    fn partial_frames_wait_for_the_rest() {
        let mut bytes = Vec::new();
        encode_request(&Request::Finish, &mut bytes);
        let mut fb = FrameBuffer::new();
        for b in &bytes[..bytes.len() - 1] {
            fb.extend(std::slice::from_ref(b));
            assert!(fb.next_frame().unwrap().is_none());
        }
        fb.extend(&bytes[bytes.len() - 1..]);
        assert!(fb.next_frame().unwrap().is_some());
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert_eq!(decode_request(&[0xee]), Err(WireError::Malformed("request tag")));
        assert_eq!(decode_request(&[0]), Err(WireError::Truncated));
        assert!(decode_effects(&[1, 0, 0, 0]).is_err());
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert_eq!(fb.next_frame(), Err(WireError::Oversize(u32::MAX)));
        // Trailing garbage after a valid request is rejected.
        let mut bytes = Vec::new();
        encode_request(&Request::Finish, &mut bytes);
        let mut payload = bytes[4..].to_vec();
        payload.push(0);
        assert_eq!(decode_request(&payload), Err(WireError::Malformed("trailing bytes")));
    }
}
