//! Property-based tests of the streaming executor's conservation and
//! timeliness invariants.

use proptest::prelude::*;
use quasaq_media::{
    CipherAlgo, DeliveryCostModel, DropStrategy, FrameRate, FrameTrace, GopPattern, TraceParams,
};
use quasaq_sim::{FlowId, LinkError, ServerId, SharePolicy, SharedLink, SimDuration, SimTime};
use quasaq_stream::{
    CpuPolicy, DispatchConfig, FluidDone, FluidEngine, FluidSessionId, FrameSchedule, NodeConfig,
    SessionConfig, StreamEngine, Transforms,
};

fn trace(seed: u64, secs: u64, rate: u64) -> FrameTrace {
    FrameTrace::generate(
        seed,
        &TraceParams::with_bitrate(
            FrameRate::NTSC_FILM,
            SimDuration::from_secs(secs),
            GopPattern::mpeg1_n15(),
            rate as f64,
        ),
    )
}

/// Streams one watched [`FluidEngine`] session from server 0 while server
/// 1 takes `churn` — short 100 KB/s sessions as `(gap since the previous
/// arrival in µs, bytes)` — and returns the watched session's completion
/// instant and the bits of its backlog at four fixed probe instants.
fn watch_server0(
    policy: SharePolicy,
    bytes: u64,
    rate: u64,
    churn: &[(u64, u64)],
) -> (Option<SimTime>, Vec<u64>) {
    let mut eng = FluidEngine::new(ServerId::first_n(2), policy, 3_200_000);
    let watched = eng.add_session(SimTime::ZERO, ServerId(0), bytes, rate).unwrap();
    let nominal_us = bytes * 1_000_000 / rate;
    let mut probes = (1..=4).map(|k| SimTime::from_micros(nominal_us * k / 5 + 7)).peekable();
    let mut arrivals = churn
        .iter()
        .scan(SimTime::ZERO, |t, &(gap, b)| {
            *t += SimDuration::from_micros(gap);
            Some((*t, b))
        })
        .peekable();
    let (mut done_at, mut bits) = (None, Vec::new());
    while let Some(t) = [eng.next_event(), arrivals.peek().map(|a| a.0), probes.peek().copied()]
        .into_iter()
        .flatten()
        .min()
    {
        eng.advance_to(t);
        for d in eng.drain_completions() {
            if d.id == watched {
                done_at = Some(d.at);
            }
        }
        while let Some((_, b)) = arrivals.next_if(|a| a.0 == t) {
            let _ = eng.add_session(t, ServerId(1), b, 100_000);
        }
        if probes.next_if_eq(&t).is_some() {
            bits.push(eng.session_backlog(watched).to_bits());
        }
    }
    (done_at, bits)
}

/// A reference session: `(server, flow, done, registered)`.
struct RefSession {
    server: ServerId,
    flow: FlowId,
    done: bool,
    /// Counted by `active_on`: set on add, cleared when its completion is
    /// merged, when it is forgotten, and when its server crashes.
    registered: bool,
}

/// The fluid engine without its completion index or its per-server
/// registration lists: every advance steps every link in `ServerId`
/// order, `next_event` is a minimum over all of them, every link's clock
/// is the engine's, and the per-server reads scan every session ever
/// added.
struct StepEveryLink {
    /// Sorted by server.
    links: Vec<(ServerId, SharedLink<FluidSessionId>)>,
    sessions: Vec<RefSession>,
    completions: Vec<FluidDone>,
}

impl StepEveryLink {
    fn new(servers: &[ServerId], policy: SharePolicy, capacity_bps: u64) -> Self {
        let mut links: Vec<_> =
            servers.iter().map(|&s| (s, SharedLink::new(capacity_bps, policy))).collect();
        links.sort_by_key(|&(s, _)| s);
        StepEveryLink { links, sessions: Vec::new(), completions: Vec::new() }
    }

    fn link(&self, server: ServerId) -> &SharedLink<FluidSessionId> {
        &self.links.iter().find(|l| l.0 == server).expect("known server").1
    }

    fn link_mut(&mut self, server: ServerId) -> &mut SharedLink<FluidSessionId> {
        &mut self.links.iter_mut().find(|l| l.0 == server).expect("known server").1
    }

    fn add_session(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
        rate_bps: u64,
    ) -> Result<FluidSessionId, LinkError> {
        let id = FluidSessionId(self.sessions.len());
        let link = self.link_mut(server);
        let flow = link.open_flow(now, Some(rate_bps))?;
        link.send(now, flow, bytes, id).expect("flow just opened");
        self.sessions.push(RefSession { server, flow, done: false, registered: true });
        Ok(id)
    }

    fn cancel_session(&mut self, now: SimTime, id: FluidSessionId) {
        let s = &mut self.sessions[id.0];
        if !s.done {
            s.done = true;
            let (server, flow) = (s.server, s.flow);
            self.link_mut(server).close_flow(now, flow);
        }
    }

    fn forget_session(&mut self, id: FluidSessionId) {
        self.sessions[id.0].registered = false;
    }

    fn fail_server(&mut self, now: SimTime, server: ServerId) -> Vec<(FluidSessionId, f64)> {
        let link = &mut self.links.iter_mut().find(|l| l.0 == server).expect("known server").1;
        link.advance_to(now);
        let mut displaced = Vec::new();
        for (i, s) in self.sessions.iter_mut().enumerate() {
            if s.server == server && s.registered {
                s.registered = false;
                if !s.done {
                    s.done = true;
                    displaced.push((FluidSessionId(i), link.flow_backlog_bytes(s.flow)));
                    link.close_flow(now, s.flow);
                }
            }
        }
        displaced
    }

    fn next_event(&self) -> Option<SimTime> {
        self.links.iter().filter_map(|l| l.1.next_event()).min()
    }

    fn advance_to(&mut self, t: SimTime) {
        for (server, link) in self.links.iter_mut() {
            link.advance_to(t);
            for done in link.drain_completions() {
                let s = &mut self.sessions[done.tag.0];
                if !s.registered {
                    continue;
                }
                s.registered = false;
                if !s.done {
                    s.done = true;
                    link.close_flow(done.at.max(t), s.flow);
                    self.completions.push(FluidDone { id: done.tag, server: *server, at: done.at });
                }
            }
        }
    }

    fn active_on(&self, server: ServerId) -> usize {
        self.sessions.iter().filter(|s| s.server == server && s.registered).count()
    }

    fn sessions_on(&self, server: ServerId) -> Vec<FluidSessionId> {
        let on = |s: &RefSession| s.server == server && s.registered && !s.done;
        (0..self.sessions.len()).filter(|&i| on(&self.sessions[i])).map(FluidSessionId).collect()
    }

    fn session_backlog(&self, id: FluidSessionId) -> f64 {
        let s = &self.sessions[id.0];
        if s.done {
            return 0.0;
        }
        self.link(s.server).flow_backlog_bytes(s.flow)
    }
}

/// What both engines show after one op: the completions drained, the
/// next event, each server's `active_on` and `sessions_on`, and the bits
/// of every session's backlog.
type EngineView = (Vec<FluidDone>, Option<SimTime>, Vec<(usize, Vec<FluidSessionId>)>, Vec<u64>);

fn view_indexed(eng: &mut FluidEngine, servers: &[ServerId], n_sessions: usize) -> EngineView {
    let on = servers.iter().map(|&s| (eng.active_on(s), eng.sessions_on(s))).collect();
    let backlog =
        (0..n_sessions).map(|i| eng.session_backlog(FluidSessionId(i)).to_bits()).collect();
    (eng.drain_completions(), eng.next_event(), on, backlog)
}

fn view_reference(eng: &mut StepEveryLink, servers: &[ServerId], n_sessions: usize) -> EngineView {
    let on = servers.iter().map(|&s| (eng.active_on(s), eng.sessions_on(s))).collect();
    let backlog =
        (0..n_sessions).map(|i| eng.session_backlog(FluidSessionId(i)).to_bits()).collect();
    (std::mem::take(&mut eng.completions), eng.next_event(), on, backlog)
}

/// Replays one `(op, arg, pick)` trace on the indexed engine and on the
/// step-every-link reference, comparing the two views after every op
/// and once more after draining to idle. Servers get ids with gaps, and
/// ops may run ahead of the last advance (a jump), so a touched link's
/// clock passes the engine's and an internal advance can buffer
/// completions.
fn replay_both(reserved: bool, n: u32, ops: &[(u8, u64, usize)]) {
    const CAPACITY: u64 = 1_000_000;
    let policy = if reserved { SharePolicy::Reserved } else { SharePolicy::FairShare };
    let servers: Vec<ServerId> = (0..n).rev().map(|k| ServerId(3 * k + 1)).collect();
    let mut indexed = FluidEngine::new(servers.iter().copied(), policy, CAPACITY);
    let mut reference = StepEveryLink::new(&servers, policy, CAPACITY);
    // A small rate menu makes Reserved links saturate and FairShare caps
    // collide.
    let rate = |arg: u64| (arg % 8).max(1) * CAPACITY / 8;
    let (mut now, mut sessions) = (SimTime::ZERO, 0usize);
    for (step, &(op, arg, pick)) in ops.iter().enumerate() {
        let server = servers[pick % servers.len()];
        let session = (sessions > 0).then(|| FluidSessionId(pick % sessions));
        match op {
            0..=2 => {
                let bytes = if arg == 0 { 0 } else { arg * 40_000 + (pick % 997) as u64 };
                let a = indexed.add_session(now, server, bytes, rate(arg ^ pick as u64));
                let b = reference.add_session(now, server, bytes, rate(arg ^ pick as u64));
                prop_assert_eq!(a, b, "add_session at op {}", step);
                sessions += a.is_ok() as usize;
            }
            3 => {
                if let Some(id) = session {
                    indexed.cancel_session(now, id);
                    reference.cancel_session(now, id);
                }
            }
            // `forget_session` applies to a cancelled or finished session.
            4 => {
                if let Some(id) = session {
                    indexed.cancel_session(now, id);
                    indexed.forget_session(id);
                    reference.cancel_session(now, id);
                    reference.forget_session(id);
                }
            }
            5 => {
                let a = indexed.fail_server(now, server);
                let b = reference.fail_server(now, server);
                let bits = |d: Vec<(FluidSessionId, f64)>| -> Vec<(FluidSessionId, u64)> {
                    d.into_iter().map(|(id, bytes)| (id, bytes.to_bits())).collect()
                };
                prop_assert_eq!(bits(a), bits(b), "fail_server at op {}", step);
            }
            6 => {
                let capacity = CAPACITY / 4 * (1 + arg % 4);
                indexed.set_link_capacity(now, server, capacity);
                reference.link_mut(server).set_capacity(now, capacity);
            }
            // Ops after a jump run ahead of the last advance.
            7 => now += SimDuration::from_micros(arg * 50_000 + (pick % 1_000) as u64),
            8 => {
                let at = indexed.next_event().map_or(now, |t| t.max(now));
                indexed.advance_to(at);
                reference.advance_to(at);
                now = at;
            }
            _ => {
                now += SimDuration::from_micros(arg * 125_000 + (pick % 1_000) as u64);
                indexed.advance_to(now);
                reference.advance_to(now);
            }
        }
        prop_assert_eq!(
            view_indexed(&mut indexed, &servers, sessions),
            view_reference(&mut reference, &servers, sessions),
            "diverged after op {}",
            step
        );
    }
    let mut guard = 0usize;
    while let Some(t) = reference.next_event() {
        guard += 1;
        prop_assert!(guard < 100_000, "failed to drain");
        let at = t.max(now);
        indexed.advance_to(at);
        reference.advance_to(at);
        now = at;
        prop_assert_eq!(
            view_indexed(&mut indexed, &servers, sessions),
            view_reference(&mut reference, &servers, sessions),
            "diverged while draining"
        );
    }
    prop_assert_eq!(indexed.next_event(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The completion index is exact: an engine that steps only the
    /// links due shows, after every op, the same completions, next
    /// event, per-server counts and session backlog bits as one that
    /// steps every link on every advance.
    #[test]
    fn indexed_engine_matches_stepping_every_domain(
        reserved in proptest::bool::ANY,
        n in 1u32..9,
        ops in proptest::collection::vec((0u8..11, 0u64..8, any::<usize>()), 1..200),
    ) {
        replay_both(reserved, n, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Schedule conservation: the schedule delivers exactly the frames
    /// the transforms keep, with non-decreasing due times and total bytes
    /// matching the per-frame filter applied directly.
    #[test]
    fn schedule_conserves_filtered_frames(
        seed in any::<u64>(),
        drop_idx in 0usize..4,
        burst in any::<bool>(),
    ) {
        let t = trace(seed, 20, 100_000);
        let transforms = Transforms {
            transcode: None,
            drop: DropStrategy::ALL[drop_idx],
            cipher: CipherAlgo::None,
        };
        let dispatch = if burst { DispatchConfig::default() } else { DispatchConfig::uniform() };
        let s = FrameSchedule::build(&t, &transforms, &DeliveryCostModel::default(), &dispatch);

        // Direct filter application.
        let mut filter = transforms.drop_filter();
        let expected: Vec<_> = t
            .frames()
            .iter()
            .filter(|f| filter.admit(f.ftype))
            .collect();
        prop_assert_eq!(s.len(), expected.len());
        prop_assert_eq!(
            s.delivered_bytes(),
            expected.iter().map(|f| f.bytes as u64).sum::<u64>()
        );
        for w in s.frames().windows(2) {
            prop_assert!(w[0].due <= w[1].due);
        }
        // Every delivered display index appears exactly once.
        let mut idx: Vec<u64> = s.frames().iter().map(|f| f.display_index).collect();
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(idx.len(), s.len());
    }

    /// Engine conservation: every scheduled frame of every session is
    /// processed exactly once and delivered exactly once, regardless of
    /// the contention mix.
    #[test]
    fn engine_processes_every_frame_once(
        seed in any::<u64>(),
        n_sessions in 1usize..6,
        reserved in any::<bool>(),
    ) {
        let node = if reserved {
            NodeConfig::qos(10_000_000)
        } else {
            NodeConfig::vdbms(10_000_000)
        };
        let mut engine = StreamEngine::new([(ServerId(0), node)]);
        let mut ids = Vec::new();
        for i in 0..n_sessions {
            let s = FrameSchedule::build(
                &trace(seed ^ i as u64, 10, 100_000),
                &Transforms::none(),
                &DeliveryCostModel::default(),
                &DispatchConfig::default(),
            );
            let n = s.len();
            let cpu = if reserved {
                CpuPolicy::Reserved {
                    share: (s.mean_cpu_share() * 1.3).min(0.3),
                    period: SimDuration::from_millis(625),
                }
            } else {
                CpuPolicy::BestEffort
            };
            let id = engine
                .add_session(
                    SimTime::ZERO,
                    SessionConfig {
                        server: ServerId(0),
                        schedule: s,
                        cpu,
                        link_rate_bps: Some(130_000),
                    },
                )
                .unwrap();
            ids.push((id, n));
        }
        prop_assert!(engine.run_to_completion(SimTime::from_secs(600)));
        for (id, n) in ids {
            let report = engine.report(id);
            prop_assert!(report.is_complete());
            prop_assert_eq!(report.frames().len(), n);
            for f in report.frames() {
                prop_assert!(f.processed.is_some());
                prop_assert!(f.delivered.is_some());
                // Causality: due <= processed <= delivered.
                prop_assert!(f.processed.unwrap() >= f.due);
                prop_assert!(f.delivered.unwrap() >= f.processed.unwrap());
            }
        }
        prop_assert_eq!(engine.active_sessions(), 0);
    }

    /// Reserved sessions are isolated: adding best-effort competitors
    /// never changes a reserved session's processing times.
    #[test]
    fn reservation_isolation(seed in any::<u64>(), hogs in 0usize..8) {
        let build = |n_hogs: usize| {
            let mut engine = StreamEngine::new([(ServerId(0), NodeConfig::qos(10_000_000))]);
            let s = FrameSchedule::build(
                &trace(seed, 10, 193_000),
                &Transforms::none(),
                &DeliveryCostModel::default(),
                &DispatchConfig::default(),
            );
            let monitored = engine
                .add_session(
                    SimTime::ZERO,
                    SessionConfig {
                        server: ServerId(0),
                        schedule: s.clone(),
                        cpu: CpuPolicy::Reserved {
                            share: (s.mean_cpu_share() * 1.3).min(0.3),
                            period: SimDuration::from_millis(625),
                        },
                        link_rate_bps: Some(250_000),
                    },
                )
                .unwrap();
            for i in 0..n_hogs {
                let hs = FrameSchedule::build(
                    &trace(seed ^ (0x9000 + i as u64), 10, 193_000),
                    &Transforms::none(),
                    &DeliveryCostModel::default(),
                    &DispatchConfig::default(),
                );
                engine
                    .add_session(
                        SimTime::ZERO,
                        SessionConfig {
                            server: ServerId(0),
                            schedule: hs,
                            cpu: CpuPolicy::BestEffort,
                            link_rate_bps: Some(250_000),
                        },
                    )
                    .unwrap();
            }
            engine.run_until(SimTime::from_secs(60));
            engine.report(monitored).processing_times()
        };
        let alone = build(0);
        let contended = build(hogs);
        prop_assert_eq!(alone, contended);
    }

    /// Links do not couple across servers: a fluid session's completion
    /// instant and its backlog bits at fixed probe times are the same
    /// whether the other server is idle or churning short sessions.
    #[test]
    fn fluid_servers_do_not_couple(
        reserved in any::<bool>(),
        bytes in 100_000u64..3_000_000,
        rate in 50_000u64..500_000,
        churn in proptest::collection::vec((1u64..2_000_000, 1_000u64..200_000), 1..40),
    ) {
        let policy = if reserved { SharePolicy::Reserved } else { SharePolicy::FairShare };
        let idle = watch_server0(policy, bytes, rate, &[]);
        prop_assert!(idle.0.is_some());
        prop_assert_eq!(idle, watch_server0(policy, bytes, rate, &churn));
    }
}
