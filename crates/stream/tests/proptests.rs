//! Property-based tests of the streaming executor's conservation and
//! timeliness invariants.

use proptest::prelude::*;
use quasaq_media::{
    CipherAlgo, DeliveryCostModel, DropStrategy, FrameRate, FrameTrace, GopPattern, TraceParams,
};
use quasaq_sim::{FlowId, LinkDomain, LinkError, ServerId, SharePolicy, SimDuration, SimTime};
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

/// The fluid engine without its completion index: every advance steps
/// every domain in `ServerId` order, `next_event` is a minimum over all
/// of them, and every link's clock is the engine's. Sessions are
/// `(server, flow, done)`.
struct StepEveryDomain {
    domains: Vec<LinkDomain<FluidSessionId>>,
    sessions: Vec<(ServerId, FlowId, bool)>,
    completions: Vec<FluidDone>,
}

impl StepEveryDomain {
    fn new(servers: &[ServerId], policy: SharePolicy, capacity_bps: u64) -> Self {
        let domains = LinkDomain::cluster(servers.iter().copied(), policy, capacity_bps);
        StepEveryDomain { domains, sessions: Vec::new(), completions: Vec::new() }
    }

    fn domain(&self, server: ServerId) -> &LinkDomain<FluidSessionId> {
        self.domains.iter().find(|d| d.server() == server).expect("known server")
    }

    fn domain_mut(&mut self, server: ServerId) -> &mut LinkDomain<FluidSessionId> {
        self.domains.iter_mut().find(|d| d.server() == server).expect("known server")
    }

    fn add_session(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
        rate_bps: u64,
    ) -> Result<FluidSessionId, LinkError> {
        let id = FluidSessionId(self.sessions.len());
        let domain = self.domain_mut(server);
        let flow = domain.link_mut().open_flow(now, Some(rate_bps))?;
        let xfer = domain.link_mut().send(now, flow, bytes).expect("flow just opened");
        domain.register(xfer, flow, id);
        self.sessions.push((server, flow, false));
        Ok(id)
    }

    fn cancel_session(&mut self, now: SimTime, id: FluidSessionId) {
        let (server, flow, done) = self.sessions[id.0];
        if !done {
            self.sessions[id.0].2 = true;
            self.domain_mut(server).link_mut().close_flow(now, flow);
        }
    }

    fn forget_session(&mut self, id: FluidSessionId) {
        let server = self.sessions[id.0].0;
        self.domain_mut(server).retain(|&tag| tag != id);
    }

    fn fail_server(&mut self, now: SimTime, server: ServerId) -> Vec<(FluidSessionId, f64)> {
        let sessions = &self.sessions;
        let domain = self.domains.iter_mut().find(|d| d.server() == server).expect("known server");
        let displaced = domain.cut(now, |id| !sessions[id.0].2);
        for &(id, _) in &displaced {
            self.sessions[id.0].2 = true;
        }
        displaced
    }

    fn next_event(&self) -> Option<SimTime> {
        self.domains.iter().filter_map(|d| d.next_event()).min()
    }

    fn advance_to(&mut self, t: SimTime) {
        let mut batch = Vec::new();
        for domain in self.domains.iter_mut() {
            batch.clear();
            domain.step_to(t, &mut batch);
            for done in &batch {
                if let Some(id) = domain.resolve(done.xfer) {
                    let session = &mut self.sessions[id.0];
                    if !session.2 {
                        session.2 = true;
                        domain.link_mut().close_flow(done.at.max(t), session.1);
                        let server = domain.server();
                        self.completions.push(FluidDone { id, server, at: done.at });
                    }
                }
            }
        }
    }

    fn sessions_on(&self, server: ServerId) -> Vec<FluidSessionId> {
        let domain = self.domain(server);
        let mut ids: Vec<_> = domain.tags().copied().filter(|id| !self.sessions[id.0].2).collect();
        ids.sort_unstable();
        ids
    }

    fn session_backlog(&self, id: FluidSessionId) -> f64 {
        let (server, flow, done) = self.sessions[id.0];
        if done {
            return 0.0;
        }
        self.domain(server).link().flow_backlog_bytes(flow)
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

fn view_reference(
    eng: &mut StepEveryDomain,
    servers: &[ServerId],
    n_sessions: usize,
) -> EngineView {
    let on = servers.iter().map(|&s| (eng.domain(s).in_flight(), eng.sessions_on(s))).collect();
    let backlog =
        (0..n_sessions).map(|i| eng.session_backlog(FluidSessionId(i)).to_bits()).collect();
    (std::mem::take(&mut eng.completions), eng.next_event(), on, backlog)
}

/// Replays one `(op, arg, pick)` trace on the indexed engine and on the
/// step-every-domain reference, comparing the two views after every op
/// and once more after draining to idle. Servers get ids with gaps, and
/// ops may run ahead of the last advance (a jump), so a touched link's
/// clock passes the engine's and an internal advance can buffer
/// completions.
fn replay_both(reserved: bool, n: u32, ops: &[(u8, u64, usize)]) {
    const CAPACITY: u64 = 1_000_000;
    let policy = if reserved { SharePolicy::Reserved } else { SharePolicy::FairShare };
    let servers: Vec<ServerId> = (0..n).rev().map(|k| ServerId(3 * k + 1)).collect();
    let mut indexed = FluidEngine::new(servers.iter().copied(), policy, CAPACITY);
    let mut reference = StepEveryDomain::new(&servers, policy, CAPACITY);
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
            4 => {
                if let Some(id) = session {
                    indexed.forget_session(id);
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
                reference.domain_mut(server).link_mut().set_capacity(now, capacity);
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
    /// domains due shows, after every op, the same completions, next
    /// event, per-server counts and session backlog bits as one that
    /// steps every domain on every advance.
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
