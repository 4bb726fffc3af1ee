//! The served workload: `quasaq-shell` on loopback, driven by an
//! open-loop, pipelined generator in this process.
//!
//! One generator thread sends requests on a fixed schedule (request `i`
//! of a step is due at `start + i / rate`) over up to `nproc`
//! connections, whatever the shell's replies are doing; one reader
//! thread per connection timestamps each reply as it arrives. Latency is
//! timed from each request's *due* time, so a stalled generator shows up
//! as latency, and the generator's own lateness is reported as well.
//!
//! The request stream replays the fig6 arrival stream as `Admit`s and,
//! once an admitted session's nominal duration has elapsed on the command
//! clock (the arrival time of the next admit), sends its `Teardown`, so
//! the plane stays in a steady state however long the run.

use crate::stats::{percentile, summarize, Summary};
use quasaq_service::wire::{decode_effects, encode_request, FrameBuffer, Request};
use quasaq_service::{Effect, SessionId};
use quasaq_sim::SimTime;
use quasaq_vdbms::QueuedQuery;
use quasaq_workload::{qop_class, GeneratedQuery};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Round-trip limit a rate step must meet at p99.
pub const P99_LIMIT_US: f64 = 1_000.0;
/// Generator lateness limit (p99) for a step to count.
pub const LAG_LIMIT_US: f64 = 1_000.0;
/// Resolution of the maximum-rate search (ratio of the bracketing rates).
pub const RESOLUTION: f64 = 1.05;
/// Backlog (in seconds of offered load) at which a step is abandoned as
/// failed: Little's law puts its latency far beyond the limit.
const ABORT_BACKLOG_S: f64 = 0.02;
/// How long to wait for a step's last replies before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// What a request was, for matching its reply.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Admit { at: SimTime },
    Teardown { session: SessionId },
}

struct Inflight {
    due: Instant,
    step: u32,
    kind: Kind,
}

/// A reply, classified by its reader thread.
enum Event {
    Reply {
        step: u32,
        latency_us: f64,
        outcome: Outcome,
    },
    /// Reply payload, kept only for recorded steps.
    Payload(Vec<u8>),
}

enum Outcome {
    Admitted {
        session: SessionId,
        at: SimTime,
        end: SimTime,
    },
    Rejected,
    Queued,
    TornDown,
    /// Undecodable, unmatched, wrong kind, or an `Effect::Error`.
    Failed(String),
}

/// One rate step's result.
#[derive(Debug, Clone, Default)]
pub struct Step {
    pub rate: f64,
    pub sent: u64,
    pub admits: u64,
    pub teardowns: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub queued: u64,
    pub torn_down: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub latency: Option<Summary>,
    pub p50_us: f64,
    pub p99_us: f64,
    pub lag_p99_us: f64,
    pub backlog_mid: u64,
    pub backlog_end: u64,
    pub backlog_max: u64,
    pub aborted: bool,
    pub wall_s: f64,
    /// Replies received per wall-second of the step.
    pub replies_per_s: f64,
    /// Sim-time window of the admits this step sent.
    pub sim_window: (SimTime, SimTime),
}

impl Step {
    /// True when the backlog at the end of the step exceeds the one at
    /// its midpoint by more than the requests legitimately in flight
    /// within the latency limit.
    pub fn backlog_grew(&self) -> bool {
        let slack = (self.rate * P99_LIMIT_US / 1e6).max(8.0) as u64;
        self.backlog_end > self.backlog_mid.max(slack)
    }

    /// Whether the step meets every limit: p99, zero errors, no growing
    /// backlog, an on-time generator, and a complete run.
    pub fn met(&self) -> bool {
        !self.aborted
            && self.failed == 0
            && self.p99_us <= P99_LIMIT_US
            && self.lag_p99_us <= LAG_LIMIT_US
            && !self.backlog_grew()
    }

    /// Output checks: one decodable reply per request, every admit
    /// decided, every teardown answered `TornDown`. (A failed request is
    /// itself the finding; the tallies are checked when there is none.)
    pub fn problems(&self) -> Vec<String> {
        if self.failed > 0 {
            return vec![format!(
                "{} failed requests at {:.0} req/s (first: {})",
                self.failed,
                self.rate,
                self.first_failure.as_deref().unwrap_or("?")
            )];
        }
        let mut bad = Vec::new();
        if self.admitted + self.rejected + self.queued != self.admits {
            bad.push(format!(
                "admitted {} + rejected {} + queued {} != admits sent {} at {:.0} req/s",
                self.admitted, self.rejected, self.queued, self.admits, self.rate
            ));
        }
        if self.torn_down != self.teardowns {
            bad.push(format!(
                "{} of {} teardowns answered TornDown at {:.0} req/s",
                self.torn_down, self.teardowns, self.rate
            ));
        }
        bad
    }
}

/// The command stream: fig6 admits interleaved with due teardowns.
struct Commands {
    queries: Vec<GeneratedQuery>,
    span: SimTime,
    next: usize,
    /// Admitted sessions by end time on the command clock.
    ends: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl Commands {
    /// The `i`-th arrival, cycling the stream (shifted by its span) if a
    /// run outlasts it.
    fn arrival(&self, i: usize) -> (SimTime, &GeneratedQuery) {
        let q = &self.queries[i % self.queries.len()];
        let lap = (i / self.queries.len()) as u64;
        (SimTime::from_micros(q.at.as_micros() + lap * self.span.as_micros()), q)
    }

    fn next_request(&mut self) -> (Request, Kind) {
        let (at, q) = self.arrival(self.next);
        if let Some(&Reverse((end, session))) = self.ends.peek() {
            if end <= at {
                self.ends.pop();
                let session = SessionId(session);
                return (
                    Request::Teardown { session, abandoned: false, now: end },
                    Kind::Teardown { session },
                );
            }
        }
        let req = Request::Admit {
            query: QueuedQuery { video: q.video, qos: q.qos.clone() },
            class: qop_class(&q.qop),
            now: at,
        };
        self.next += 1;
        (req, Kind::Admit { at })
    }
}

struct Conn {
    writer: TcpStream,
    inflight: Arc<Mutex<VecDeque<Inflight>>>,
}

/// A recorded step: the requests sent and the reply payloads received.
#[derive(Default)]
pub struct Recording {
    pub requests: Vec<Request>,
    pub replies: Vec<Vec<u8>>,
}

/// The open-loop client.
pub struct Generator {
    conns: Vec<Conn>,
    readers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    replied: Arc<AtomicU64>,
    record_step: Arc<AtomicU64>,
    events: mpsc::Receiver<Event>,
    commands: Commands,
    sent: u64,
    step_no: u32,
    /// Every command sent so far, in send order (for the in-process
    /// replay of a recorded step).
    pub history: Vec<Request>,
    pub keep_history: bool,
    /// (admit time, end time) of every admitted session.
    pub lifetimes: Vec<(SimTime, SimTime)>,
    buf: Vec<u8>,
}

impl Generator {
    /// Connects `connections` sockets to `addr`.
    pub fn connect(
        addr: SocketAddr,
        connections: usize,
        queries: Vec<GeneratedQuery>,
        span: SimTime,
    ) -> std::io::Result<Generator> {
        let stop = Arc::new(AtomicBool::new(false));
        let replied = Arc::new(AtomicU64::new(0));
        let record_step = Arc::new(AtomicU64::new(u64::MAX));
        let (tx, rx) = mpsc::channel();
        let mut conns = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..connections.max(1) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let reader = stream.try_clone()?;
            reader.set_read_timeout(Some(Duration::from_millis(20)))?;
            let inflight = Arc::new(Mutex::new(VecDeque::new()));
            let ctx = ReaderCtx {
                stream: reader,
                inflight: Arc::clone(&inflight),
                stop: Arc::clone(&stop),
                replied: Arc::clone(&replied),
                record_step: Arc::clone(&record_step),
                tx: tx.clone(),
            };
            readers.push(std::thread::spawn(move || ctx.run()));
            conns.push(Conn { writer: stream, inflight });
        }
        Ok(Generator {
            conns,
            readers,
            stop,
            replied,
            record_step,
            events: rx,
            commands: Commands { queries, span, next: 0, ends: BinaryHeap::new() },
            sent: 0,
            step_no: 0,
            history: Vec::new(),
            keep_history: false,
            lifetimes: Vec::new(),
            buf: Vec::new(),
        })
    }

    fn outstanding(&self) -> u64 {
        self.sent.saturating_sub(self.replied.load(Ordering::Acquire))
    }

    fn begin(&mut self, rate: f64, rec: bool) -> Step {
        self.step_no += 1;
        if rec {
            self.record_step.store(u64::from(self.step_no), Ordering::Release);
        }
        Step { rate, ..Step::default() }
    }

    /// Sends the next command, due at `due`, on the next connection in
    /// turn.
    fn send_one(&mut self, s: &mut Step, due: Instant, rec: Option<&mut Recording>) {
        let (req, kind) = self.commands.next_request();
        match kind {
            Kind::Admit { at } => {
                s.admits += 1;
                if s.admits == 1 {
                    s.sim_window.0 = at;
                }
                s.sim_window.1 = at;
            }
            Kind::Teardown { .. } => s.teardowns += 1,
        }
        let lane = (self.sent % self.conns.len() as u64) as usize;
        self.buf.clear();
        encode_request(&req, &mut self.buf);
        if self.keep_history {
            self.history.push(req.clone());
        }
        if let Some(r) = rec {
            r.requests.push(req);
        }
        let conn = &mut self.conns[lane];
        conn.inflight.lock().expect("reader thread panicked").push_back(Inflight {
            due,
            step: self.step_no,
            kind,
        });
        self.sent += 1;
        s.sent += 1;
        if let Err(e) = conn.writer.write_all(&self.buf) {
            s.failed += 1;
            s.first_failure.get_or_insert(format!("write: {e}"));
        }
    }

    /// Waits for the step's last replies, then closes its books.
    fn finish(
        &mut self,
        mut s: Step,
        start: Instant,
        mut latencies: Vec<f64>,
        lags: &[f64],
        mut rec: Option<&mut Recording>,
    ) -> Step {
        s.backlog_end = self.outstanding();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding() > 0 && Instant::now() < deadline {
            self.pump(&mut s, &mut latencies, rec.as_deref_mut(), true);
        }
        self.pump(&mut s, &mut latencies, rec, false);
        let lost = self.outstanding();
        if lost > 0 {
            s.failed += lost;
            s.first_failure.get_or_insert(format!("{lost} requests without a reply"));
            // Re-align the counter so later steps are judged on their own.
            self.replied.fetch_add(lost, Ordering::AcqRel);
        }
        self.record_step.store(u64::MAX, Ordering::Release);
        s.wall_s = (Instant::now() - start).as_secs_f64();
        s.replies_per_s = latencies.len() as f64 / s.wall_s;
        s.latency = summarize(&latencies);
        s.p50_us = percentile(&latencies, 50.0).unwrap_or(f64::INFINITY);
        s.p99_us = percentile(&latencies, 99.0).unwrap_or(f64::INFINITY);
        s.lag_p99_us = percentile(lags, 99.0).unwrap_or(0.0);
        s
    }

    /// Runs one open-loop step at `rate` requests/s for `seconds`:
    /// request `i` is due at `start + i / rate` whatever the replies do.
    pub fn step(&mut self, rate: f64, seconds: f64, mut rec: Option<&mut Recording>) -> Step {
        let mut s = self.begin(rate, rec.is_some());
        let total = (rate * seconds).round().max(1.0) as u64;
        let abort_at = ((rate * ABORT_BACKLOG_S) as u64).max(256);
        let mut lags: Vec<f64> = Vec::with_capacity(total as usize);
        let mut latencies: Vec<f64> = Vec::with_capacity(total as usize);
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(1);
        while s.sent < total {
            self.pump(&mut s, &mut latencies, rec.as_deref_mut(), false);
            let now = Instant::now();
            let due = start + interval.mul_f64(s.sent as f64);
            if due > now {
                let wait = due - now;
                if wait > Duration::from_micros(150) {
                    std::thread::sleep(wait - Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            // Everything due by now goes out back to back.
            while s.sent < total && start + interval.mul_f64(s.sent as f64) <= now {
                let due = start + interval.mul_f64(s.sent as f64);
                self.send_one(&mut s, due, rec.as_deref_mut());
                lags.push((Instant::now() - due).as_secs_f64() * 1e6);
                if s.sent == total / 2 {
                    s.backlog_mid = self.outstanding();
                }
            }
            let backlog = self.outstanding();
            s.backlog_max = s.backlog_max.max(backlog);
            if backlog > abort_at {
                s.aborted = true;
                break;
            }
        }
        self.finish(s, start, latencies, &lags, rec)
    }

    /// Runs a closed loop for `seconds`: a new request goes out whenever
    /// fewer than `window` are unanswered, so the shell is never idle and
    /// never flooded. `replies_per_s` is then its capacity.
    pub fn saturate(&mut self, window: u64, seconds: f64) -> Step {
        let mut s = self.begin(0.0, false);
        let mut latencies: Vec<f64> = Vec::new();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        loop {
            self.pump(&mut s, &mut latencies, None, false);
            let now = Instant::now();
            if now >= end {
                break;
            }
            if self.outstanding() < window {
                self.send_one(&mut s, now, None);
            } else {
                self.pump(&mut s, &mut latencies, None, true);
            }
        }
        let s = self.finish(s, start, latencies, &[], None);
        Step { rate: s.replies_per_s, ..s }
    }

    /// Applies reader events; `block` waits briefly for one.
    fn pump(
        &mut self,
        s: &mut Step,
        latencies: &mut Vec<f64>,
        mut rec: Option<&mut Recording>,
        block: bool,
    ) {
        let mut first =
            if block { self.events.recv_timeout(Duration::from_millis(5)).ok() } else { None };
        loop {
            let ev = match first.take() {
                Some(ev) => ev,
                None => match self.events.try_recv() {
                    Ok(ev) => ev,
                    Err(_) => break,
                },
            };
            match ev {
                Event::Payload(p) => {
                    if let Some(r) = rec.as_deref_mut() {
                        r.replies.push(p);
                    }
                }
                Event::Reply { step, latency_us, outcome } => {
                    let mine = step == self.step_no;
                    if mine {
                        latencies.push(latency_us);
                    }
                    match outcome {
                        Outcome::Admitted { session, at, end } => {
                            self.commands.ends.push(Reverse((end, session.0)));
                            self.lifetimes.push((at, end));
                            s.admitted += u64::from(mine);
                        }
                        Outcome::Rejected => s.rejected += u64::from(mine),
                        Outcome::Queued => s.queued += u64::from(mine),
                        Outcome::TornDown => s.torn_down += u64::from(mine),
                        Outcome::Failed(why) => {
                            s.failed += 1;
                            s.first_failure.get_or_insert(why);
                        }
                    }
                }
            }
        }
    }

    /// Closes the sockets and joins the reader threads.
    pub fn close(self) {
        self.stop.store(true, Ordering::Release);
        for c in &self.conns {
            let _ = c.writer.shutdown(Shutdown::Both);
        }
        for r in self.readers {
            r.join().expect("reader thread panicked");
        }
    }
}

struct ReaderCtx {
    stream: TcpStream,
    inflight: Arc<Mutex<VecDeque<Inflight>>>,
    stop: Arc<AtomicBool>,
    replied: Arc<AtomicU64>,
    record_step: Arc<AtomicU64>,
    tx: mpsc::Sender<Event>,
}

impl ReaderCtx {
    fn run(mut self) {
        let mut fb = FrameBuffer::new();
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            };
            let arrived = Instant::now();
            fb.extend(&chunk[..n]);
            loop {
                let payload = match fb.next_frame() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(e) => {
                        self.fail(format!("bad frame: {e}"));
                        return;
                    }
                };
                let Some(req) = self.inflight.lock().expect("generator panicked").pop_front()
                else {
                    self.fail("reply without a request".into());
                    continue;
                };
                let latency_us = (arrived.saturating_duration_since(req.due)).as_secs_f64() * 1e6;
                let outcome = classify(req.kind, decode_effects(&payload));
                if self.record_step.load(Ordering::Acquire) == u64::from(req.step) {
                    let _ = self.tx.send(Event::Payload(payload));
                }
                self.replied.fetch_add(1, Ordering::AcqRel);
                let _ = self.tx.send(Event::Reply { step: req.step, latency_us, outcome });
            }
        }
    }

    fn fail(&self, why: String) {
        let _ =
            self.tx.send(Event::Reply { step: 0, latency_us: 0.0, outcome: Outcome::Failed(why) });
    }
}

/// Judges one reply against the request it answers.
fn classify(kind: Kind, decoded: Result<Vec<Effect>, quasaq_service::wire::WireError>) -> Outcome {
    let effects = match decoded {
        Ok(e) => e,
        Err(e) => return Outcome::Failed(format!("undecodable reply: {e}")),
    };
    if let Some(Effect::Error(e)) = effects.iter().find(|e| matches!(e, Effect::Error(_))) {
        return Outcome::Failed(format!("Effect::Error({e:?})"));
    }
    match (kind, effects.as_slice()) {
        (Kind::Admit { at }, [Effect::Admitted(a)]) => {
            Outcome::Admitted { session: a.session, at, end: at + a.nominal }
        }
        (Kind::Admit { .. }, [Effect::Rejected { .. }]) => Outcome::Rejected,
        (Kind::Admit { .. }, [Effect::Queued]) => Outcome::Queued,
        (Kind::Teardown { session }, [Effect::TornDown { session: s }]) if *s == session => {
            Outcome::TornDown
        }
        (kind, other) => Outcome::Failed(format!("{kind:?} answered with {other:?}")),
    }
}

/// Mean live sessions over the second half of `window`, from session
/// lifetimes on the command clock (the served analogue of
/// `stable_outstanding`).
pub fn sessions_stable(lifetimes: &[(SimTime, SimTime)], window: (SimTime, SimTime)) -> f64 {
    let lo = window.0.as_secs_f64() + (window.1.as_secs_f64() - window.0.as_secs_f64()) / 2.0;
    let hi = window.1.as_secs_f64();
    if hi <= lo {
        return 0.0;
    }
    let overlap: f64 = lifetimes
        .iter()
        .map(|&(a, e)| (e.as_secs_f64().min(hi) - a.as_secs_f64().max(lo)).max(0.0))
        .sum();
    overlap / (hi - lo)
}

/// Outcome of the maximum-rate search.
#[derive(Debug, Clone)]
pub struct Search {
    /// Highest rate that met every limit (0 if none did).
    pub max_rps: f64,
    pub steps: Vec<Step>,
}

/// Bisection in log space for the highest rate meeting every limit, to
/// [`RESOLUTION`]. `first` is an already-run step to seed the bracket.
/// `try_rate` runs one step; the search stops early when `budget_left`
/// says time is up (the bracket's lower end is then reported).
pub fn search_max_rate(
    first: Option<Step>,
    mut try_rate: impl FnMut(f64) -> Step,
    mut budget_left: impl FnMut() -> bool,
    start_rate: f64,
    floor: f64,
    ceiling: f64,
) -> Search {
    let mut steps = Vec::new();
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let judge = |s: Step, lo: &mut Option<f64>, hi: &mut Option<f64>, steps: &mut Vec<Step>| {
        if s.met() {
            *lo = Some(lo.map_or(s.rate, |l: f64| l.max(s.rate)));
        } else {
            *hi = Some(hi.map_or(s.rate, |h: f64| h.min(s.rate)));
        }
        steps.push(s);
    };
    match first {
        Some(s) => judge(s, &mut lo, &mut hi, &mut steps),
        None => judge(try_rate(start_rate), &mut lo, &mut hi, &mut steps),
    }
    while budget_left() {
        let next = match (lo, hi) {
            (Some(l), None) if l * 2.0 <= ceiling => l * 2.0,
            (Some(_), None) => break,
            (None, Some(h)) if h / 2.0 >= floor => h / 2.0,
            (None, Some(_)) => break,
            (Some(l), Some(h)) if h / l > RESOLUTION => (l * h).sqrt(),
            _ => break,
        };
        judge(try_rate(next), &mut lo, &mut hi, &mut steps);
    }
    Search { max_rps: lo.unwrap_or(0.0), steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(rate: f64, knee: f64) -> Step {
        // Latency flat below the knee, exploding past it.
        let p99 = if rate <= knee { 200.0 + 300.0 * rate / knee } else { 50_000.0 };
        Step {
            rate,
            sent: 1000,
            admits: 600,
            teardowns: 400,
            admitted: 600,
            torn_down: 400,
            p50_us: p99 / 2.0,
            p99_us: p99,
            lag_p99_us: 10.0,
            backlog_mid: 2,
            backlog_end: 2,
            backlog_max: 4,
            wall_s: 1.0,
            replies_per_s: rate,
            ..Step::default()
        }
    }

    #[test]
    fn bisection_brackets_the_knee_to_resolution() {
        for knee in [3_000.0, 8_000.0, 21_500.0, 100_000.0] {
            let mut tried = Vec::new();
            let s = search_max_rate(
                None,
                |r| {
                    tried.push(r);
                    synthetic(r, knee)
                },
                || true,
                8_000.0,
                250.0,
                1e6,
            );
            assert!(s.max_rps <= knee, "knee {knee}: reported {}", s.max_rps);
            assert!(s.max_rps * RESOLUTION >= knee, "knee {knee}: reported {} too low", s.max_rps);
            assert!(tried.len() < 20, "knee {knee}: {} steps", tried.len());
        }
    }

    #[test]
    fn a_failing_limit_other_than_latency_fails_the_step() {
        let ok = synthetic(1_000.0, 5_000.0);
        assert!(ok.met());
        assert!(!Step { failed: 1, ..ok.clone() }.met());
        assert!(!Step { lag_p99_us: 2_000.0, ..ok.clone() }.met());
        assert!(!Step { backlog_mid: 3, backlog_end: 500, ..ok.clone() }.met());
        assert!(!Step { aborted: true, ..ok.clone() }.met());
        // Jitter within the in-flight slack is not growth.
        assert!(Step { backlog_mid: 0, backlog_end: 8, ..ok }.met());
    }

    #[test]
    fn search_stops_when_the_budget_runs_out() {
        let mut calls = 0;
        let s = search_max_rate(
            None,
            |r| synthetic(r, 21_500.0),
            || {
                calls += 1;
                calls <= 2
            },
            8_000.0,
            250.0,
            1e6,
        );
        assert_eq!(s.steps.len(), 3);
        assert_eq!(s.max_rps, 16_000.0);
    }

    #[test]
    fn stable_sessions_average_the_second_half() {
        let t = |s| SimTime::from_secs(s);
        // One session over the whole window, one over its first half only,
        // one over half of its second half.
        let lives = [(t(0), t(100)), (t(0), t(50)), (t(50), t(75))];
        assert_eq!(sessions_stable(&lives, (t(0), t(100))), 1.5);
    }
}
