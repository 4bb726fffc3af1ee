//! # quasaq-shell — the servable runtime around the sans-IO control plane
//!
//! `quasaq-service` is a pure state machine: commands in, effects out,
//! time as data. This crate is the I/O skin that makes it a server:
//!
//! * [`Shell`] — a thread-per-core `std::net` TCP front end. `threads`
//!   acceptor threads share one listener; each handles its connections'
//!   frames and forwards decoded requests over a channel to a single
//!   *brain* thread that owns the [`ControlPlane`]. One brain means one
//!   command order means one decision sequence — the same property the
//!   in-process driver gets for free, bought here with an mpsc queue
//!   instead of a lock around the plane.
//! * [`run_loopback`] — the open-loop load generator: replay a
//!   [`ThroughputConfig`]'s arrival stream against a shell socket and
//!   tally the decisions. With one connection the command order equals
//!   the driver's, so the decisions are bit-identical to
//!   `run_throughput` (the loopback e2e test and `bench --load` both
//!   stand on this).
//!
//! The wire protocol is `quasaq_service::wire`: `u32` length-prefixed
//! frames, one request per frame, one effect-list frame per request, in
//! order, per connection.

use quasaq_service::wire::{
    decode_effects, decode_request, encode_effects, encode_request, FrameBuffer, Request,
};
use quasaq_service::{AdaptPolicy, Command, ControlPlane, Effect, PlaneConfig, SessionId};
use quasaq_sim::ServerId;
use quasaq_store::AccessStats;
use quasaq_workload::{
    arrival_stream, build_core, qop_class, SystemKind, Testbed, ThroughputConfig,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// How the shell assembles its control plane.
pub struct ShellConfig {
    /// The system under service (planner + cost model).
    pub system: SystemKind,
    /// Testbed, seed, admission queue, adaptation policy — the same knobs
    /// the in-process driver takes, minus everything data-plane.
    pub throughput: ThroughputConfig,
    /// Acceptor threads sharing the listener (thread-per-core: each
    /// accepted connection is served by the thread that accepted it).
    pub threads: usize,
}

enum BrainMsg {
    /// One decoded request; the reply channel receives the encoded
    /// effect-list frame.
    Request(Request, mpsc::Sender<Vec<u8>>),
    /// Stop the brain (shutdown path).
    Stop,
}

/// A running shell: listener + acceptors + brain. Shut down explicitly
/// via [`Shell::shutdown`]; dropping without it leaves threads parked on
/// `accept`.
pub struct Shell {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    brain_tx: mpsc::Sender<BrainMsg>,
    acceptors: Vec<JoinHandle<()>>,
    brain: JoinHandle<()>,
}

impl Shell {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts serving.
    pub fn serve(addr: &str, cfg: ShellConfig) -> std::io::Result<Shell> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (brain_tx, brain_rx) = mpsc::channel::<BrainMsg>();

        let testbed = Testbed::shared(cfg.throughput.testbed.clone());
        let core = build_core(&testbed, cfg.system, &cfg.throughput);
        let tp = &cfg.throughput;
        let mut plane = ControlPlane::new(
            core,
            PlaneConfig {
                seed: tp.seed ^ 0x9e37_79b9,
                admission: tp.admission.clone(),
                adaptation: tp.adaptation.as_ref().map(|a| AdaptPolicy {
                    upgrade_period: a.upgrade_period,
                    max_downshifts_per_event: a.max_downshifts_per_event,
                }),
                // Renegotiation over the wire needs per-session context.
                track_ctx: true,
            },
        );

        let brain = std::thread::spawn(move || {
            let engine = &testbed.engine;
            // Session → server, maintained from effects, so a wire
            // Renegotiate can name the congestion site the plane expects.
            let mut server_of: HashMap<SessionId, ServerId> = HashMap::new();
            let mut effects: Vec<Effect> = Vec::new();
            while let Ok(BrainMsg::Request(req, reply)) = brain_rx.recv() {
                effects.clear();
                // A renegotiate for a session the plane never admitted
                // maps to no command: answer with an empty effect list
                // rather than guessing a server.
                if let Some(cmd) = to_command(req, &server_of) {
                    plane.handle_into(engine, cmd, &mut effects);
                }
                for e in &effects {
                    match e {
                        Effect::Admitted(a) => {
                            server_of.insert(a.session, a.server);
                        }
                        Effect::Renegotiated(r) => {
                            server_of.insert(r.session, r.server);
                        }
                        Effect::TornDown { session } => {
                            server_of.remove(session);
                        }
                        _ => {}
                    }
                }
                let mut frame = Vec::new();
                encode_effects(&effects, &mut frame);
                // A vanished client is its handler's problem, not ours.
                let _ = reply.send(frame);
            }
        });

        let mut acceptors = Vec::with_capacity(cfg.threads.max(1));
        for _ in 0..cfg.threads.max(1) {
            let listener = listener.try_clone()?;
            let stop = Arc::clone(&stop);
            let tx = brain_tx.clone();
            acceptors.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((conn, _)) => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            // Thread-per-core: the accepting thread serves
                            // the connection to completion, then accepts
                            // the next one.
                            let _ = serve_connection(conn, &tx, &stop);
                        }
                        Err(_) => break,
                    }
                }
            }));
        }

        Ok(Shell { addr: local, stop, brain_tx, acceptors, brain })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the acceptors, and joins the brain.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        // Unblock every acceptor's `accept` with a throwaway connection.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for a in self.acceptors {
            let _ = a.join();
        }
        let _ = self.brain_tx.send(BrainMsg::Stop);
        let _ = self.brain.join();
    }
}

/// Maps a wire request onto the command vocabulary. `None` when the
/// request references a session the shell has no server for (the plane
/// would need a congestion site to renegotiate against).
fn to_command(req: Request, server_of: &HashMap<SessionId, ServerId>) -> Option<Command> {
    Some(match req {
        Request::Admit { query, class, now } => Command::Admit {
            query,
            class,
            // Brownout needs a data-plane congestion signal; a bare
            // shell serves real clients and has none, so the front door
            // stays open. The in-process driver behaves identically
            // whenever adaptation is off, which is what the loopback
            // decision-identity test pins.
            brownout: false,
            now,
        },
        Request::Tick { now } => Command::Tick { now },
        Request::Teardown { session, abandoned, now } => {
            Command::Teardown { session, abandoned, now }
        }
        Request::Renegotiate { session, backlog, now } => {
            let server = *server_of.get(&session)?;
            Command::CongestionOnset {
                server,
                candidates: vec![quasaq_service::Candidate { session, backlog }],
                now,
            }
        }
        Request::Stats { now } => Command::Stats { now },
        Request::Finish => Command::Finish,
    })
}

/// One connection's lifetime: read frames, decode, ask the brain, write
/// the effect frame back. Returns on EOF, I/O error, protocol error, or
/// shutdown. The read timeout is what lets `Shell::shutdown` drain an
/// acceptor that is mid-connection: the read wakes periodically so the
/// stop flag gets checked even while a client sits idle. Nagle is off:
/// each reply is one small frame, and holding it back for the peer's
/// delayed ACK would stall a pipelining client by a full ACK timer.
fn serve_connection(
    mut conn: TcpStream,
    tx: &mpsc::Sender<BrainMsg>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match conn.read(&mut buf) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(());
        }
        fb.extend(&buf[..n]);
        loop {
            let payload = match fb.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                // Protocol violation: drop the connection.
                Err(_) => return Ok(()),
            };
            let req = match decode_request(&payload) {
                Ok(r) => r,
                Err(_) => return Ok(()),
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            if tx.send(BrainMsg::Request(req, reply_tx)).is_err() {
                return Ok(());
            }
            let Ok(frame) = reply_rx.recv() else { return Ok(()) };
            conn.write_all(&frame)?;
        }
    }
}

/// What one loopback replay observed, accumulated from the effect
/// stream. Comparable field-for-field against an in-process
/// `ThroughputResult` for the same config.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Queries sent.
    pub queries: u64,
    /// `Admitted` effects seen.
    pub admitted: u64,
    /// `Rejected` effects seen.
    pub rejected: u64,
    /// `Queued` effects seen (front-end runs only).
    pub queued: u64,
    /// Which video landed on which server, per admission — the decision
    /// fingerprint compared against the driver's `access`.
    pub access: AccessStats,
}

/// A connected wire client: frames out, effects in, synchronously.
pub struct WireClient {
    conn: TcpStream,
    fb: FrameBuffer,
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects to a shell.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        Ok(WireClient { conn: TcpStream::connect(addr)?, fb: FrameBuffer::new(), buf: Vec::new() })
    }

    /// Sends one request and blocks for its effect list.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Vec<Effect>> {
        self.buf.clear();
        encode_request(req, &mut self.buf);
        self.conn.write_all(&self.buf)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.fb.next_frame() {
                Ok(Some(payload)) => {
                    return decode_effects(&payload)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
            }
            let n = self.conn.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof));
            }
            self.fb.extend(&chunk[..n]);
        }
    }
}

/// Replays `cfg`'s arrival stream against a shell socket, open-loop
/// (every admit fired as fast as the socket takes it, `now` stamped with
/// the arrival's simulated time), striped round-robin over
/// `connections` sockets. With `connections == 1` the command order is
/// exactly the in-process driver's, so the decisions are bit-identical;
/// more connections preserve per-connection FIFO but interleave at the
/// brain, which is the realistic serving regime the bench rows measure.
pub fn run_loopback(
    addr: SocketAddr,
    cfg: &ThroughputConfig,
    connections: usize,
) -> std::io::Result<LoadReport> {
    let testbed = Testbed::shared(cfg.testbed.clone());
    let queries = arrival_stream(&testbed, cfg);
    let mut clients = Vec::with_capacity(connections.max(1));
    for _ in 0..connections.max(1) {
        clients.push(WireClient::connect(addr)?);
    }
    let mut report = LoadReport::default();
    for (i, q) in queries.iter().enumerate() {
        let req = Request::Admit {
            query: quasaq_vdbms::QueuedQuery { video: q.video, qos: q.qos.clone() },
            class: qop_class(&q.qop),
            now: q.at,
        };
        let lane = i % clients.len();
        let effects = clients[lane].call(&req)?;
        report.queries += 1;
        for e in &effects {
            match e {
                Effect::Admitted(a) => {
                    report.admitted += 1;
                    report.access.record(a.video, a.server);
                }
                Effect::Rejected { .. } => report.rejected += 1,
                Effect::Queued => report.queued += 1,
                _ => {}
            }
        }
    }
    Ok(report)
}
