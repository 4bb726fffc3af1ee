//! Frame-level streaming executor.
//!
//! Drives any number of concurrent sessions over per-server CPUs and
//! outbound links: each scheduled frame is submitted as CPU work at its
//! due time; when the CPU finishes it ("the processing time is when the
//! video frame is first handled" — the paper's server-side measurement
//! point) the frame's bytes are queued on the server's outbound link; when
//! the transfer completes the frame is delivered client-side. Sessions may
//! hold DSRT CPU reservations and link reservations (the QuaSAQ regime) or
//! run best-effort over time sharing and fair-share links (the plain VDBMS
//! regime).

use crate::cpumodel::{CpuKind, CpuModel};
use crate::report::SessionReport;
use crate::schedule::FrameSchedule;
use quasaq_sim::cpu::{CpuError, CpuScheduler, JobId, ReservationError, TaskId};
use quasaq_sim::link::{LinkError, SharePolicy};
use quasaq_sim::queue::{EventId, EventQueue};
use quasaq_sim::{FlowId, ServerId, SharedLink, SimDuration, SimTime};
use std::collections::HashMap;

/// Per-server hardware/OS configuration.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// CPU scheduling model.
    pub cpu: CpuKind,
    /// Outbound-link sharing policy.
    pub link_policy: SharePolicy,
    /// Outbound-link capacity in bytes/second (the paper's servers each
    /// have 3200 KB/s of streaming bandwidth).
    pub link_capacity_bps: u64,
    /// One-way propagation delay to the client (the paper's clients sit
    /// "2-3 hops away from the servers"). Applied to the delivery
    /// timestamp of every frame.
    pub client_latency: SimDuration,
}

impl NodeConfig {
    /// The paper's plain-VDBMS node: time sharing + fair-share link.
    pub fn vdbms(link_capacity_bps: u64) -> Self {
        NodeConfig {
            cpu: CpuKind::vdbms_default(),
            link_policy: SharePolicy::FairShare,
            link_capacity_bps,
            client_latency: SimDuration::from_micros(1500),
        }
    }

    /// The paper's QoS node: DSRT + reserved link.
    pub fn qos(link_capacity_bps: u64) -> Self {
        NodeConfig {
            cpu: CpuKind::dsrt_default(),
            link_policy: SharePolicy::Reserved,
            link_capacity_bps,
            client_latency: SimDuration::from_micros(1500),
        }
    }
}

/// Per-session CPU policy.
#[derive(Debug, Clone, Copy)]
pub enum CpuPolicy {
    /// Compete in the time-shared (or leftover) CPU.
    BestEffort,
    /// Hold a DSRT reservation of `share` of one processor, delivered as a
    /// slice per frame-interval period.
    Reserved {
        /// CPU share in (0, 1].
        share: f64,
        /// Reservation period (typically the stream's frame interval).
        period: SimDuration,
    },
}

/// A new session's full specification.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Serving node.
    pub server: ServerId,
    /// Resolved delivery schedule.
    pub schedule: FrameSchedule,
    /// CPU policy.
    pub cpu: CpuPolicy,
    /// Link rate: reservation (Reserved links, admission-checked) or
    /// pacing cap (FairShare links). `None` = uncapped fair share.
    pub link_rate_bps: Option<u64>,
}

/// Why a session could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// CPU reservation refused.
    Cpu(ReservationError),
    /// Link reservation refused.
    Link(LinkError),
    /// Unknown server.
    UnknownServer(ServerId),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Cpu(e) => write!(f, "cpu admission failed: {e}"),
            SessionError::Link(e) => write!(f, "link admission failed: {e}"),
            SessionError::UnknownServer(s) => write!(f, "unknown server {s}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Identifies a session within a [`StreamEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub usize);

#[derive(Debug)]
enum Ev {
    FrameDue(SessionId),
    CpuWake(ServerId),
    LinkWake(ServerId),
}

struct Node {
    cpu: CpuModel,
    /// The server's outbound link; each transfer is tagged with its
    /// `(session, frame)`.
    link: SharedLink<(SessionId, usize)>,
    client_latency: SimDuration,
    cpu_wake: Option<(EventId, SimTime)>,
    link_wake: Option<(EventId, SimTime)>,
    tasks: HashMap<TaskId, (SessionId, usize)>,
}

struct Session {
    server: ServerId,
    schedule: FrameSchedule,
    start: SimTime,
    job: JobId,
    flow: FlowId,
    next_frame: usize,
    delivered: usize,
    report: SessionReport,
    closed: bool,
}

/// Sentinel in the dense server index for servers this engine doesn't own.
const NO_NODE: u32 = u32::MAX;

/// The multi-server frame-level executor.
pub struct StreamEngine {
    queue: EventQueue<Ev>,
    /// Node arena; `node_index` maps `ServerId.0` onto it densely.
    nodes: Vec<Node>,
    node_index: Vec<u32>,
    sessions: Vec<Session>,
    /// Open (not-`closed`) session count, maintained on every transition.
    active: usize,
}

impl StreamEngine {
    /// Builds an engine with one node per `(server, config)` pair.
    pub fn new(nodes: impl IntoIterator<Item = (ServerId, NodeConfig)>) -> Self {
        let mut arena = Vec::new();
        let mut node_index = Vec::new();
        for (id, cfg) in nodes {
            let slot = id.0 as usize;
            if slot >= node_index.len() {
                node_index.resize(slot + 1, NO_NODE);
            }
            node_index[slot] = arena.len() as u32;
            arena.push(Node {
                cpu: CpuModel::new(cfg.cpu),
                link: SharedLink::new(cfg.link_capacity_bps, cfg.link_policy),
                client_latency: cfg.client_latency,
                cpu_wake: None,
                link_wake: None,
                tasks: HashMap::new(),
            });
        }
        StreamEngine {
            queue: EventQueue::new(),
            nodes: arena,
            node_index,
            sessions: Vec::new(),
            active: 0,
        }
    }

    fn node_slot(&self, server: ServerId) -> Option<usize> {
        match self.node_index.get(server.0 as usize) {
            Some(&i) if i != NO_NODE => Some(i as usize),
            _ => None,
        }
    }

    fn node(&self, server: ServerId) -> &Node {
        &self.nodes[self.node_slot(server).expect("node")]
    }

    fn node_mut(&mut self, server: ServerId) -> &mut Node {
        let i = self.node_slot(server).expect("node");
        &mut self.nodes[i]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Starts a session at `start` (must not be in the past). Admission is
    /// node-local: CPU and link reservations are taken immediately.
    pub fn add_session(
        &mut self,
        start: SimTime,
        cfg: SessionConfig,
    ) -> Result<SessionId, SessionError> {
        let now = self.queue.now().max(start);
        let slot = self.node_slot(cfg.server).ok_or(SessionError::UnknownServer(cfg.server))?;
        let node = &mut self.nodes[slot];
        let job = match cfg.cpu {
            CpuPolicy::BestEffort => node.cpu.add_job(now),
            CpuPolicy::Reserved { share, period } => {
                let slice = period.mul_f64(share.clamp(0.0, 1.0));
                node.cpu.reserve(now, slice, period).map_err(SessionError::Cpu)?
            }
        };
        let flow = match node.link.open_flow(now, cfg.link_rate_bps) {
            Ok(f) => f,
            Err(e) => {
                node.cpu.remove_job(now, job);
                return Err(SessionError::Link(e));
            }
        };
        let mut report = SessionReport::new(start, cfg.schedule.playback());
        for f in cfg.schedule.frames() {
            report.push_frame(f.display_index, f.gop, start + f.due);
        }
        let id = SessionId(self.sessions.len());
        let empty = cfg.schedule.is_empty();
        self.sessions.push(Session {
            server: cfg.server,
            schedule: cfg.schedule,
            start,
            job,
            flow,
            next_frame: 0,
            delivered: 0,
            report,
            closed: false,
        });
        self.active += 1;
        if empty {
            self.finish_session(id, start);
        } else {
            let due = self.sessions[id.0].schedule.due_at(start, 0).max(now);
            self.queue.schedule(due, Ev::FrameDue(id));
        }
        Ok(id)
    }

    /// A session's measurements so far.
    pub fn report(&self, id: SessionId) -> &SessionReport {
        &self.sessions[id.0].report
    }

    /// Number of sessions still streaming. O(1): maintained on every
    /// open/finish transition.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Runs until no event at or before `t` remains. Returns the sessions
    /// that finished during this call.
    pub fn run_until(&mut self, t: SimTime) -> Vec<SessionId> {
        let before: Vec<bool> = self.sessions.iter().map(|s| s.closed).collect();
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked event exists");
            match ev {
                Ev::FrameDue(id) => self.on_frame_due(at, id),
                Ev::CpuWake(server) => self.on_cpu_wake(at, server),
                Ev::LinkWake(server) => self.on_link_wake(at, server),
            }
        }
        self.sessions
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.closed && !before.get(i).copied().unwrap_or(false))
            .map(|(i, _)| SessionId(i))
            .collect()
    }

    /// Runs until every session completes or `horizon` is reached; returns
    /// true when all completed.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        self.run_until(horizon);
        self.sessions.iter().all(|s| s.closed)
    }

    fn on_frame_due(&mut self, now: SimTime, id: SessionId) {
        let session = &mut self.sessions[id.0];
        if session.closed {
            return;
        }
        let idx = session.next_frame;
        let frame = session.schedule.frames()[idx];
        session.next_frame += 1;
        let server = session.server;
        let job = session.job;
        let next = if session.next_frame < session.schedule.len() {
            Some(session.schedule.due_at(session.start, session.next_frame).max(now))
        } else {
            None
        };
        let node = self.node_mut(server);
        match node.cpu.submit(now, job, frame.cpu) {
            Ok(task) => {
                node.tasks.insert(task, (id, idx));
            }
            // The job only vanishes through a teardown path that already
            // closed the session; a frame racing that teardown is dropped
            // like the rest of the session's future frames.
            Err(CpuError::UnknownJob(_)) => {}
        }
        if let Some(due) = next {
            self.queue.schedule(due, Ev::FrameDue(id));
        }
        self.reschedule_cpu(server);
        // Submission may have immediately produced completions (zero-work
        // frames); pick them up on the scheduled wake.
    }

    fn on_cpu_wake(&mut self, now: SimTime, server: ServerId) {
        let slot = self.node_slot(server).expect("wake for known node");
        let node = &mut self.nodes[slot];
        node.cpu_wake = None;
        node.cpu.advance_to(now);
        let completions = node.cpu.drain_completions();
        for c in completions {
            let Some((sid, idx)) = node.tasks.remove(&c.task) else { continue };
            let session = &mut self.sessions[sid.0];
            session.report.mark_processed(idx, c.at);
            if session.closed {
                continue;
            }
            let bytes = session.schedule.frames()[idx].bytes;
            node.link.send(now, session.flow, bytes as u64, (sid, idx)).expect("open session flow");
        }
        self.reschedule_cpu(server);
        self.reschedule_link(server);
    }

    fn on_link_wake(&mut self, now: SimTime, server: ServerId) {
        let slot = self.node_slot(server).expect("wake for known node");
        let node = &mut self.nodes[slot];
        node.link_wake = None;
        node.link.advance_to(now);
        let mut finished: Vec<(SessionId, SimTime)> = Vec::new();
        for c in node.link.drain_completions() {
            let (sid, idx) = c.tag;
            let session = &mut self.sessions[sid.0];
            let arrived = c.at + node.client_latency;
            session.report.mark_delivered(idx, arrived);
            session.delivered += 1;
            if session.delivered == session.schedule.len() {
                finished.push((sid, arrived));
            }
        }
        for (sid, at) in finished {
            self.finish_session(sid, at);
        }
        self.reschedule_link(server);
    }

    fn finish_session(&mut self, id: SessionId, at: SimTime) {
        let session = &mut self.sessions[id.0];
        if session.closed {
            return;
        }
        session.closed = true;
        self.active -= 1;
        // `at` is the client-side arrival timestamp (it may include
        // propagation latency beyond the current simulation instant); it
        // is a measurement only. Resources are released at server time.
        session.report.mark_finished(at);
        let server = session.server;
        let flow = session.flow;
        let job = session.job;
        let now = self.queue.now();
        let node = self.node_mut(server);
        node.link.close_flow(now, flow);
        node.cpu.remove_job(now, job);
        self.reschedule_cpu(server);
        self.reschedule_link(server);
    }

    fn reschedule_cpu(&mut self, server: ServerId) {
        let now = self.queue.now();
        let slot = self.node_slot(server).expect("node");
        let node = &mut self.nodes[slot];
        // Undrained completions (buffered by internal advances) require an
        // immediate wake even when the scheduler itself reports idle.
        let want = if node.cpu.pending_completions() > 0 {
            Some(now)
        } else {
            node.cpu.next_event().map(|t| t.max(now))
        };
        match (node.cpu_wake, want) {
            (Some((_, at)), Some(w)) if at == w => {}
            (old, Some(w)) => {
                if let Some((eid, _)) = old {
                    self.queue.cancel(eid);
                }
                let eid = self.queue.schedule(w, Ev::CpuWake(server));
                self.nodes[slot].cpu_wake = Some((eid, w));
            }
            (Some((eid, _)), None) => {
                self.queue.cancel(eid);
                self.nodes[slot].cpu_wake = None;
            }
            (None, None) => {}
        }
    }

    fn reschedule_link(&mut self, server: ServerId) {
        let now = self.queue.now();
        let slot = self.node_slot(server).expect("node");
        let node = &mut self.nodes[slot];
        // Undrained completions (buffered by internal advances inside
        // send/close_flow) require an immediate wake even when the fluid
        // model reports idle.
        let want = if node.link.pending_completions() > 0 {
            Some(now)
        } else {
            node.link.next_event().map(|t| t.max(now))
        };
        match (node.link_wake, want) {
            (Some((_, at)), Some(w)) if at == w => {}
            (old, Some(w)) => {
                if let Some((eid, _)) = old {
                    self.queue.cancel(eid);
                }
                let eid = self.queue.schedule(w, Ev::LinkWake(server));
                self.nodes[slot].link_wake = Some((eid, w));
            }
            (Some((eid, _)), None) => {
                self.queue.cancel(eid);
                self.nodes[slot].link_wake = None;
            }
            (None, None) => {}
        }
    }

    /// Reserved CPU utilization on a server (0 for time-sharing nodes).
    pub fn cpu_utilization(&self, server: ServerId) -> f64 {
        self.node(server).cpu.reserved_utilization()
    }

    /// Reserved link bandwidth on a server.
    pub fn link_reserved_bps(&self, server: ServerId) -> u64 {
        self.node(server).link.reserved_bps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DispatchConfig;
    use crate::transforms::Transforms;
    use quasaq_media::{DeliveryCostModel, FrameRate, FrameTrace, GopPattern, TraceParams};

    fn schedule(seconds: u64, rate_bps: f64, seed: u64) -> FrameSchedule {
        let trace = FrameTrace::generate(
            seed,
            &TraceParams::with_bitrate(
                FrameRate::NTSC_FILM,
                SimDuration::from_secs(seconds),
                GopPattern::mpeg1_n15(),
                rate_bps,
            ),
        );
        FrameSchedule::build(
            &trace,
            &Transforms::none(),
            &DeliveryCostModel::default(),
            &DispatchConfig::default(),
        )
    }

    fn one_server(cfg: NodeConfig) -> StreamEngine {
        StreamEngine::new([(ServerId(0), cfg)])
    }

    #[test]
    fn lone_session_completes_with_timely_frames() {
        let mut eng = one_server(NodeConfig::vdbms(3_200_000));
        let sched = schedule(30, 193_000.0, 1);
        let n = sched.len();
        let id = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: sched,
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        assert!(eng.run_to_completion(SimTime::from_secs(120)));
        let report = eng.report(id);
        assert!(report.is_complete());
        assert_eq!(report.frames().len(), n);
        // Uncontended: every frame processed within a few ms of its due
        // time.
        assert!(
            report.max_lateness() < SimDuration::from_millis(20),
            "lateness {}",
            report.max_lateness()
        );
        let stats = report.frame_delay_stats();
        assert!((stats.mean() - 41.72).abs() < 2.0, "mean {}", stats.mean());
    }

    #[test]
    fn uncontended_delay_stats_match_low_contention_table2() {
        let mut eng = one_server(NodeConfig::qos(3_200_000));
        let sched = schedule(60, 193_000.0, 2);
        let share = sched.mean_cpu_share() * 1.3;
        let id = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: sched,
                    cpu: CpuPolicy::Reserved {
                        share,
                        period: FrameRate::NTSC_FILM.frame_interval(),
                    },
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        assert!(eng.run_to_completion(SimTime::from_secs(300)));
        let r = eng.report(id);
        let f = r.frame_delay_stats();
        let g = r.gop_delay_stats();
        // Table 2 low-contention shape: mean ~41.7-42.2 ms, SD ~30 ms;
        // inter-GOP mean ~625 ms with small SD.
        assert!((f.mean() - 41.9).abs() < 1.5, "frame mean {}", f.mean());
        assert!((20.0..45.0).contains(&f.std_dev()), "frame sd {}", f.std_dev());
        assert!((g.mean() - 625.8).abs() < 15.0, "gop mean {}", g.mean());
        assert!(g.std_dev() < 40.0, "gop sd {}", g.std_dev());
    }

    #[test]
    fn timesharing_contention_explodes_variance() {
        // Fig 5c: many best-effort streams on a time-shared CPU.
        let mut eng = one_server(NodeConfig::vdbms(30_000_000));
        let monitored = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(30, 193_000.0, 3),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        for i in 0..24 {
            eng.add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(30, 193_000.0, 100 + i),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        }
        eng.run_until(SimTime::from_secs(40));
        let contended_sd = eng.report(monitored).frame_delay_stats().std_dev();

        // Same monitored stream alone.
        let mut solo = one_server(NodeConfig::vdbms(30_000_000));
        let alone = solo
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(30, 193_000.0, 3),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        solo.run_until(SimTime::from_secs(40));
        let solo_sd = solo.report(alone).frame_delay_stats().std_dev();
        assert!(contended_sd > 2.0 * solo_sd, "contended sd {contended_sd} vs solo {solo_sd}");
    }

    #[test]
    fn dsrt_reservation_shields_stream_from_contention() {
        // Fig 5d: the reserved stream stays timely despite competitors.
        let mut eng = one_server(NodeConfig::qos(30_000_000));
        let sched = schedule(30, 193_000.0, 4);
        let share = sched.mean_cpu_share() * 1.3;
        let monitored = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: sched,
                    cpu: CpuPolicy::Reserved {
                        share,
                        period: FrameRate::NTSC_FILM.frame_interval(),
                    },
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        // Best-effort hogs soak the leftover CPU.
        for i in 0..24 {
            eng.add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(30, 300_000.0, 200 + i),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(350_000),
                },
            )
            .unwrap();
        }
        eng.run_until(SimTime::from_secs(40));
        let r = eng.report(monitored);
        let f = r.frame_delay_stats();
        assert!((f.mean() - 41.9).abs() < 2.0, "mean {}", f.mean());
        assert!(f.std_dev() < 45.0, "sd {}", f.std_dev());
    }

    #[test]
    fn link_admission_rejects_when_saturated() {
        let mut eng = one_server(NodeConfig::qos(300_000));
        eng.add_session(
            SimTime::ZERO,
            SessionConfig {
                server: ServerId(0),
                schedule: schedule(10, 193_000.0, 5),
                cpu: CpuPolicy::BestEffort,
                link_rate_bps: Some(250_000),
            },
        )
        .unwrap();
        let err = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(10, 193_000.0, 6),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(100_000),
                },
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Link(_)));
    }

    #[test]
    fn cpu_admission_rejects_when_saturated() {
        let mut eng = one_server(NodeConfig::qos(30_000_000));
        let period = FrameRate::NTSC_FILM.frame_interval();
        eng.add_session(
            SimTime::ZERO,
            SessionConfig {
                server: ServerId(0),
                schedule: schedule(10, 193_000.0, 7),
                cpu: CpuPolicy::Reserved { share: 0.9, period },
                link_rate_bps: Some(250_000),
            },
        )
        .unwrap();
        let err = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(10, 193_000.0, 8),
                    cpu: CpuPolicy::Reserved { share: 0.2, period },
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Cpu(_)));
        // The failed session must not leak a link reservation.
        assert_eq!(eng.link_reserved_bps(ServerId(0)), 250_000);
    }

    #[test]
    fn finished_sessions_release_resources() {
        let mut eng = one_server(NodeConfig::qos(3_200_000));
        let period = FrameRate::NTSC_FILM.frame_interval();
        let id = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(5, 193_000.0, 9),
                    cpu: CpuPolicy::Reserved { share: 0.1, period },
                    link_rate_bps: Some(250_000),
                },
            )
            .unwrap();
        assert!(eng.cpu_utilization(ServerId(0)) > 0.05);
        assert!(eng.run_to_completion(SimTime::from_secs(60)));
        assert!(eng.report(id).is_complete());
        assert_eq!(eng.active_sessions(), 0);
        assert!(eng.cpu_utilization(ServerId(0)) < 1e-9);
        assert_eq!(eng.link_reserved_bps(ServerId(0)), 0);
    }

    #[test]
    fn unknown_server_rejected() {
        let mut eng = one_server(NodeConfig::vdbms(1_000_000));
        let err = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(9),
                    schedule: schedule(5, 193_000.0, 10),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: None,
                },
            )
            .unwrap_err();
        assert_eq!(err, SessionError::UnknownServer(ServerId(9)));
    }

    #[test]
    fn staggered_starts_complete_independently() {
        let mut eng = one_server(NodeConfig::qos(3_200_000));
        let a = eng
            .add_session(
                SimTime::ZERO,
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(5, 48_000.0, 11),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(60_000),
                },
            )
            .unwrap();
        eng.run_until(SimTime::from_secs(2));
        let b = eng
            .add_session(
                SimTime::from_secs(2),
                SessionConfig {
                    server: ServerId(0),
                    schedule: schedule(5, 48_000.0, 12),
                    cpu: CpuPolicy::BestEffort,
                    link_rate_bps: Some(60_000),
                },
            )
            .unwrap();
        assert!(eng.run_to_completion(SimTime::from_secs(60)));
        let fa = eng.report(a).finish().unwrap();
        let fb = eng.report(b).finish().unwrap();
        assert!(fb > fa);
        assert!(fb >= SimTime::from_secs(7) - SimDuration::from_millis(200));
    }
}
