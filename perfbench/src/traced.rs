//! The traced run of the in-process workloads.
//!
//! [`traced_loop`] drives the same inputs as `run_throughput_on` through the
//! same public calls in the same order — the control plane's
//! `handle_into` and the fluid engine — with a span around every call.
//! It must reproduce `run_throughput_on`'s decision fingerprint exactly; that is
//! what proves it measures the same program. Fault injection is not
//! mirrored (no workload enables it).
//!
//! On the two 100-server workloads a shadow admission pipeline, assembled
//! from the testbed's own parts, repeats every admission stage by stage
//! (plan enumeration, feasibility cut, ranking, reservation for QuaSAQ;
//! replica selection and reservation for the QoS-API baseline) and must
//! agree with the plane on every query. The shadow's stage times split
//! the plane's admission time into layers; its own time is excluded
//! from the loop's wall time.

use crate::inproc::{stable_of, Fingerprint};
use crate::spans::{Tracer, NO_QUERY};
use quasaq_core::{
    CostModel, GeneratorConfig, Plan, PlanExecutor, PlanGenerator, PlanRequest, QopSecurity,
    Rejection,
};
use quasaq_media::VideoId;
use quasaq_qosapi::{CompositeQosApi, ReservationId, ResourceKey, ResourceKind, ResourceVector};
use quasaq_service::wire::Request;
use quasaq_service::{
    AdaptPolicy, Admission, Candidate, Command, ControlPlane, Effect, PlaneConfig, RejectReason,
    Renegotiation, SessionId, SystemCore,
};
use quasaq_sim::link::SharePolicy;
use quasaq_sim::{LevelTracker, LinkInjector, Rng, ServerId, SimTime};
use quasaq_store::{AccessStats, MetadataEngine};
use quasaq_stream::{CongestionEdge, FluidEngine, FluidSessionId};
use quasaq_vdbms::{BaselineKind, BaselinePlanner, QueuedQuery};
use quasaq_workload::{
    arrival_stream, build_core, qop_class, SystemKind, Testbed, ThroughputConfig,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Counters the traced loop keeps besides its spans.
#[derive(Debug, Default)]
pub struct LoopCounts {
    pub rejected_by: BTreeMap<&'static str, u64>,
    pub renegotiated: u64,
    /// Loop instants at which a fluid event was due.
    pub fluid_events: u64,
    /// Sum of active sessions over loop instants (for the mean).
    pub active_sum: u64,
    pub instants: u64,
    pub utility_sum: f64,
    pub utility_n: u64,
    pub teardown_errors: u64,
    /// The first [`WIRE_SAMPLE`] admit and teardown commands as wire
    /// requests, with the effects the plane answered, for timing the wire
    /// codec on real frames after the loop.
    pub wire_sample: Vec<(Request, Vec<Effect>)>,
}

/// Commands kept for the wire-codec timing.
const WIRE_SAMPLE: usize = 10_000;

impl LoopCounts {
    fn sample_wire(&mut self, req: impl FnOnce() -> Request, effects: &[Effect]) {
        if self.wire_sample.len() < WIRE_SAMPLE {
            self.wire_sample.push((req(), effects.to_vec()));
        }
    }
}

/// The plan cache's end-of-run counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub doorkeeper_bypasses: u64,
}

/// Everything one traced loop produced.
pub struct TracedRun {
    pub wall_s: f64,
    pub fingerprint: Fingerprint,
    pub tracer: Tracer,
    pub shadow: Option<ShadowReport>,
    pub counts: LoopCounts,
    pub cache: Option<CacheCounts>,
}

/// A shadow pipeline's spans and agreement record.
pub struct ShadowReport {
    pub tracer: Tracer,
    pub admits: u64,
    pub generated: u64,
    pub feasible: u64,
    pub attempts: u64,
    pub successes: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

/// What a shadow admission decided.
type ShadowDecision = Result<(ServerId, u64, u64), Rejection>;

/// One admission stage by stage, outside the plane.
enum ShadowKind {
    /// Uncached QuaSAQ: `generate_into`, `retain_feasible`, `rank`,
    /// `reserve`, in `QualityManager::process`'s order.
    Quasaq {
        generator: PlanGenerator,
        cost: Box<dyn CostModel>,
        executor: PlanExecutor,
        buf: Vec<Plan>,
        /// LRB consumes no randomness; this stream is never drawn from.
        rng: Rng,
    },
    /// The QoS-API baseline: replica selection and a shuffled server
    /// order drawn from a twin of the plane's decision stream, then one
    /// reservation attempt per server.
    QosApi { planner: BaselinePlanner, rng: Rng, headroom: f64 },
}

struct Shadow {
    kind: ShadowKind,
    api: CompositeQosApi,
    held: HashMap<SessionId, ReservationId>,
    report: ShadowReport,
}

impl Shadow {
    fn new(testbed: &Testbed, system: SystemKind, cfg: &ThroughputConfig) -> Option<Shadow> {
        let kind = match system {
            SystemKind::Quasaq(cost) if !cfg.plan_cache => ShadowKind::Quasaq {
                generator: PlanGenerator::new(GeneratorConfig {
                    cost: cfg.testbed.cost,
                    allow_remote: !cfg.local_plans_only,
                    ..GeneratorConfig::default()
                }),
                cost: cost.build(),
                executor: PlanExecutor { cost: cfg.testbed.cost, ..PlanExecutor::default() },
                buf: Vec::new(),
                rng: Rng::new(0),
            },
            SystemKind::VdbmsQosApi => ShadowKind::QosApi {
                planner: BaselinePlanner::new(BaselineKind::WithQosApi),
                rng: Rng::new(plane_seed(cfg)),
                headroom: cfg.testbed.cost.reservation_headroom,
            },
            _ => return None,
        };
        Some(Shadow {
            kind,
            api: testbed.qos_api(),
            held: HashMap::new(),
            report: ShadowReport {
                tracer: Tracer::new(),
                admits: 0,
                generated: 0,
                feasible: 0,
                attempts: 0,
                successes: 0,
                mismatches: 0,
                first_mismatch: None,
            },
        })
    }

    /// Admits `q` stage by stage; the reservation is held until
    /// [`Shadow::release`].
    fn admit(
        &mut self,
        engine: &MetadataEngine,
        q: &QueuedQuery,
        qid: u64,
    ) -> (ShadowDecision, Option<ReservationId>) {
        let r = &mut self.report;
        let tr = &mut r.tracer;
        r.admits += 1;
        match &mut self.kind {
            ShadowKind::Quasaq { generator, cost, executor, buf, rng } => {
                let request =
                    PlanRequest { video: q.video, qos: q.qos.clone(), security: QopSecurity::Open };
                tr.time("core.generator.generate", qid, || {
                    generator.generate_into(engine, &request, buf)
                });
                r.generated += buf.len() as u64;
                if buf.is_empty() {
                    return (Err(Rejection::NoFeasiblePlan), None);
                }
                let api = &self.api;
                tr.time("core.generator.feasible", qid, || generator.retain_feasible(buf, api));
                r.feasible += buf.len() as u64;
                if buf.is_empty() {
                    return (Err(Rejection::NoFeasiblePlan), None);
                }
                let order = tr.time("core.cost.rank", qid, || cost.rank(buf, api, rng));
                for i in order {
                    r.attempts += 1;
                    let api = &mut self.api;
                    let res = tr.time("qosapi.reserve", qid, || api.reserve(&buf[i].resources));
                    if let Ok(res) = res {
                        r.successes += 1;
                        let plan = &buf[i];
                        let meta =
                            engine.video(q.video).expect("generated traffic names known videos");
                        let (bytes, rate) = executor.fluid_params(plan, meta);
                        return (Ok((plan.target_server, bytes, rate)), Some(res));
                    }
                }
                (Err(Rejection::AdmissionFailed), None)
            }
            ShadowKind::QosApi { planner, rng, headroom } => {
                let picked = tr.time("vdbms.select", qid, || {
                    let choice = planner.select(engine, q.video, rng)?;
                    let mut servers: Vec<ServerId> = engine
                        .replicas(q.video)
                        .iter()
                        .filter(|r| r.object.rate_bps == choice.record.object.rate_bps)
                        .map(|r| r.object.server)
                        .collect();
                    servers.dedup();
                    rng.shuffle(&mut servers);
                    Some((choice, servers))
                });
                let Some((choice, servers)) = picked else {
                    return (Err(Rejection::NoFeasiblePlan), None);
                };
                let profile = choice.record.profile;
                for server in servers {
                    let demand = ResourceVector::new()
                        .with(
                            ResourceKey::new(server, ResourceKind::Cpu),
                            (profile.cpu_share * *headroom).min(1.0),
                        )
                        .with(ResourceKey::new(server, ResourceKind::NetBandwidth), profile.net_bps)
                        .with(
                            ResourceKey::new(server, ResourceKind::DiskBandwidth),
                            profile.disk_bps,
                        )
                        .with(ResourceKey::new(server, ResourceKind::Memory), profile.memory_bytes);
                    r.attempts += 1;
                    let api = &mut self.api;
                    if let Ok(res) = tr.time("qosapi.reserve", qid, || api.reserve(&demand)) {
                        r.successes += 1;
                        let o = &choice.record.object;
                        return (Ok((server, o.bytes, o.rate_bps)), Some(res));
                    }
                }
                (Err(Rejection::AdmissionFailed), None)
            }
        }
    }

    /// Compares the shadow's decision for query `qid` with the plane's.
    fn compare(&mut self, qid: u64, video: VideoId, shadow: ShadowDecision, plane: &Effect) {
        let plane_says: ShadowDecision = match plane {
            Effect::Admitted(a) => Ok((a.server, a.bytes, a.rate_bps)),
            Effect::Rejected { reason: RejectReason::Plan(why), .. } => Err(*why),
            other => {
                self.mismatch(format!("query {qid}: plane produced {other:?}"));
                return;
            }
        };
        if plane_says != shadow {
            self.mismatch(format!(
                "query {qid} (video {}): plane {plane_says:?}, shadow {shadow:?}",
                video.0
            ));
        }
    }

    fn mismatch(&mut self, what: String) {
        self.report.mismatches += 1;
        self.report.first_mismatch.get_or_insert(what);
    }

    fn bind(&mut self, session: SessionId, res: ReservationId) {
        self.held.insert(session, res);
    }

    fn release(&mut self, session: SessionId) {
        if let Some(res) = self.held.remove(&session) {
            let api = &mut self.api;
            self.report.tracer.time("qosapi.release", session.0, || api.release(res));
        }
    }
}

/// The plane's decision seed, derived exactly as `run_throughput_on` derives it.
fn plane_seed(cfg: &ThroughputConfig) -> u64 {
    cfg.seed ^ 0x9e37_79b9
}

/// Data-plane side tables, as `run_throughput_on` keeps them.
#[derive(Default)]
struct Bindings {
    session_of: HashMap<FluidSessionId, SessionId>,
    fluid_of: HashMap<SessionId, FluidSessionId>,
    deadlines: BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: HashMap<FluidSessionId, SimTime>,
}

impl Bindings {
    fn bind(&mut self, fluid: FluidSessionId, session: SessionId) {
        self.session_of.insert(fluid, session);
        self.fluid_of.insert(session, fluid);
    }

    fn unbind(&mut self, fluid: FluidSessionId) -> SessionId {
        let session = self.session_of.remove(&fluid).expect("live fluid sessions are bound");
        self.fluid_of.remove(&session);
        session
    }

    fn disarm(&mut self, fluid: FluidSessionId) {
        if let Some(dl) = self.deadline_of.remove(&fluid) {
            self.deadlines.remove(&(dl, fluid));
        }
    }

    fn arm(&mut self, fluid: FluidSessionId, at: SimTime) {
        self.deadlines.insert((at, fluid));
        self.deadline_of.insert(fluid, at);
    }
}

/// The per-layer metric counting rejections for `reason`.
fn reject_metric(reason: RejectReason) -> &'static str {
    match reason {
        RejectReason::Plan(Rejection::NoFeasiblePlan) => REJECT_METRICS[0],
        RejectReason::Plan(Rejection::AdmissionFailed) => REJECT_METRICS[1],
        RejectReason::BrownoutShed => REJECT_METRICS[2],
        RejectReason::BrownoutInfeasible => REJECT_METRICS[3],
        RejectReason::UnknownVideo => REJECT_METRICS[4],
    }
}

/// One rejection counter per `RejectReason`.
pub const REJECT_METRICS: [&str; 5] = [
    "service.plane.rejected.plan_no_feasible",
    "service.plane.rejected.plan_admission_failed",
    "service.plane.rejected.brownout_shed",
    "service.plane.rejected.brownout_infeasible",
    "service.plane.rejected.unknown_video",
];

/// Runs the traced loop over `testbed`. Panics if `cfg` enables fault
/// injection, which this loop does not mirror.
pub fn traced_loop(testbed: &Testbed, system: SystemKind, cfg: &ThroughputConfig) -> TracedRun {
    assert!(cfg.faults.is_none(), "the traced loop does not mirror fault injection");
    assert!(cfg.domain_workers <= 1, "the traced loop steps domains serially");
    let mut tr = Tracer::new();
    let mut shadow = Shadow::new(testbed, system, cfg);
    let t0 = Instant::now();

    let queries =
        tr.time("workload.traffic.arrival_stream", NO_QUERY, || arrival_stream(testbed, cfg));
    let core = tr.time("workload.build_core", NO_QUERY, || build_core(testbed, system, cfg));
    let adapt = cfg.adaptation.clone();
    let adapt_on = adapt.is_some();
    let queue_on = cfg.admission.is_some();
    let links_on = cfg.links.is_some();
    if shadow.is_some() {
        assert!(!queue_on && !adapt_on && !links_on, "the shadow mirrors plain admission only");
    }
    let mut plane = ControlPlane::new(
        core,
        PlaneConfig {
            seed: plane_seed(cfg),
            admission: cfg.admission.clone(),
            adaptation: adapt.as_ref().map(|a| AdaptPolicy {
                upgrade_period: a.upgrade_period,
                max_downshifts_per_event: a.max_downshifts_per_event,
            }),
            track_ctx: adapt_on,
        },
    );
    let engine = &testbed.engine;
    let mut effects: Vec<Effect> = Vec::new();
    let mut fluid =
        FluidEngine::new(testbed.servers(), SharePolicy::FairShare, cfg.testbed.link_capacity_bps);
    let patience = cfg.admission.as_ref().map(|a| a.patience);
    let link_plan = cfg.links.clone().unwrap_or_default();
    let mut link_injector = LinkInjector::new(&link_plan);
    if let Some(a) = &adapt {
        fluid.enable_congestion(a.congestion);
    }
    let num_servers = cfg.testbed.servers as usize;

    let mut b = Bindings::default();
    let mut outstanding = LevelTracker::new();
    let mut n = LoopCounts::default();
    let (mut admitted, mut rejected, mut completed) = (0u64, 0u64, 0u64);
    let mut access = AccessStats::new();

    let horizon = cfg.horizon;
    let mut qi = 0usize;

    // Mirrors an admission into the data plane.
    let start_stream = |tr: &mut Tracer,
                        fluid: &mut FluidEngine,
                        b: &mut Bindings,
                        now: SimTime,
                        adm: &Admission,
                        qid: u64| {
        let sid = tr.time("stream.fluid.add_session", qid, || {
            fluid.add_session(now, adm.server, adm.bytes, adm.rate_bps).expect("fair-share admits")
        });
        b.bind(sid, adm.session);
        if let Some(p) = patience {
            b.arm(sid, now + adm.nominal + p);
        }
    };
    // Mirrors a renegotiation into the data plane.
    let apply_reneg = |tr: &mut Tracer,
                       fluid: &mut FluidEngine,
                       b: &mut Bindings,
                       access: &mut AccessStats,
                       now: SimTime,
                       r: &Renegotiation| {
        let old = b.fluid_of.remove(&r.session).expect("renegotiated sessions are live");
        b.session_of.remove(&old);
        tr.time("stream.fluid.cancel_session", NO_QUERY, || {
            fluid.cancel_session(now, old);
            fluid.forget_session(old);
        });
        let new_sid = tr.time("stream.fluid.add_session", NO_QUERY, || {
            fluid.add_session(now, r.server, r.bytes, r.rate_bps).expect("fair-share admits")
        });
        b.bind(new_sid, r.session);
        b.disarm(old);
        if let Some(p) = patience {
            b.arm(new_sid, now + r.nominal + p);
        }
        access.record(r.video, r.server);
    };

    loop {
        let tq = queries.get(qi).map(|q| q.at);
        let tf = tr
            .time("stream.fluid.next_event", NO_QUERY, || fluid.next_event())
            .filter(|&t| t <= horizon);
        let tr_ = plane.next_ready().filter(|&t| t <= horizon);
        let ta = b.deadlines.iter().next().map(|&(t, _)| t).filter(|&t| t <= horizon);
        let tl = link_injector.next_at().filter(|&t| t <= horizon);
        let tc = tr
            .time("stream.fluid.congestion_next_at", NO_QUERY, || fluid.congestion_next_at())
            .filter(|&t| t <= horizon);
        let Some(t) = [tq, tf, tr_, ta, tl, tc].into_iter().flatten().min() else { break };
        if t > horizon {
            break;
        }
        n.instants += 1;
        n.fluid_events += u64::from(tf == Some(t));
        tr.time("stream.fluid.advance", NO_QUERY, || fluid.advance_to(t));
        let done =
            tr.time("stream.fluid.drain_completions", NO_QUERY, || fluid.drain_completions());
        for d in done {
            outstanding.adjust(d.at, -1);
            completed += 1;
            b.disarm(d.id);
            let session = b.unbind(d.id);
            teardown(
                &mut tr,
                &mut plane,
                engine,
                &mut effects,
                &mut shadow,
                &mut n,
                session,
                false,
                d.at,
            );
        }
        // Mid-stream patience.
        while let Some(&(dt, sid)) = b.deadlines.iter().next() {
            if dt > t {
                break;
            }
            b.deadlines.remove(&(dt, sid));
            b.deadline_of.remove(&sid);
            tr.time("stream.fluid.cancel_session", NO_QUERY, || fluid.cancel_session(t, sid));
            outstanding.adjust(t, -1);
            let session = b.unbind(sid);
            teardown(
                &mut tr,
                &mut plane,
                engine,
                &mut effects,
                &mut shadow,
                &mut n,
                session,
                true,
                t,
            );
        }
        // Link set-points: re-rate the fluid link and the admission view.
        while let Some(spec) = link_injector.pop_due(t) {
            // No fault windows run, so the composed capacity is the
            // nominal link rate times the dynamic factor (floored at 1).
            let net = (cfg.testbed.link_capacity_bps as f64 * 1.0 * 1.0 * spec.factor).max(1.0);
            let disk = cfg.testbed.disk_bps * 1.0;
            let effective = net.min(disk).max(1.0) as u64;
            tr.time("stream.fluid.set_link_capacity", NO_QUERY, || {
                fluid.set_link_capacity(t, spec.server, effective)
            });
            effects.clear();
            tr.time("service.plane.set_net_capacity", NO_QUERY, || {
                plane.handle_into(
                    engine,
                    Command::SetNetCapacity { server: spec.server, bps: net },
                    &mut effects,
                )
            });
        }
        if queue_on {
            effects.clear();
            tr.time("service.plane.tick", NO_QUERY, || {
                plane.handle_into(engine, Command::Tick { now: t }, &mut effects)
            });
            for e in std::mem::take(&mut effects) {
                match e {
                    Effect::Admitted(adm) => {
                        if !matches!(adm.origin, quasaq_service::AdmitOrigin::Recovery { .. }) {
                            admitted += 1;
                        }
                        outstanding.adjust(t, 1);
                        access.record(adm.video, adm.server);
                        if let Some(u) = adm.utility {
                            n.utility_sum += u;
                            n.utility_n += 1;
                        }
                        start_stream(&mut tr, &mut fluid, &mut b, t, &adm, NO_QUERY);
                    }
                    Effect::Rejected { reason, .. } => {
                        rejected += 1;
                        *n.rejected_by.entry(reject_metric(reason)).or_default() += 1;
                    }
                    Effect::Dropped => {}
                    other => panic!("tick produced {other:?}"),
                }
            }
        }
        if tq == Some(t) {
            let batch_end = qi + queries[qi..].iter().take_while(|q| q.at == t).count();
            if batch_end - qi > 1 && plane.wants_prefetch() {
                let requests: Vec<PlanRequest> = queries[qi..batch_end]
                    .iter()
                    .map(|q| PlanRequest {
                        video: q.video,
                        qos: q.qos.clone(),
                        security: QopSecurity::Open,
                    })
                    .collect();
                tr.time("service.plane.prefetch", NO_QUERY, || {
                    plane.handle_into(engine, Command::Prefetch { requests }, &mut effects)
                });
            }
            let brownout_now = adapt.as_ref().is_some_and(|a| {
                let congested = fluid.congested_servers();
                congested > 0 && congested as f64 >= a.brownout_ratio * num_servers as f64
            });
            while qi < batch_end {
                let q = &queries[qi];
                let qid = qi as u64;
                qi += 1;
                let query = QueuedQuery { video: q.video, qos: q.qos.clone() };
                effects.clear();
                let cmd = Command::Admit {
                    query: query.clone(),
                    class: qop_class(&q.qop),
                    brownout: brownout_now,
                    now: t,
                };
                tr.time("service.plane.admit", qid, || {
                    plane.handle_into(engine, cmd, &mut effects)
                });
                n.sample_wire(
                    || Request::Admit { query: query.clone(), class: qop_class(&q.qop), now: t },
                    &effects,
                );
                let mut held = None;
                if let Some(s) = shadow.as_mut() {
                    let (decision, res) = s.admit(engine, &query, qid);
                    match effects.as_slice() {
                        [one] => s.compare(qid, q.video, decision, one),
                        many => s.mismatch(format!("query {qid}: {} effects", many.len())),
                    }
                    held = res;
                }
                for e in std::mem::take(&mut effects) {
                    match e {
                        Effect::Admitted(adm) => {
                            admitted += 1;
                            outstanding.adjust(t, 1);
                            access.record(adm.video, adm.server);
                            if let Some(u) = adm.utility {
                                n.utility_sum += u;
                                n.utility_n += 1;
                            }
                            if let (Some(s), Some(res)) = (shadow.as_mut(), held.take()) {
                                s.bind(adm.session, res);
                            }
                            start_stream(&mut tr, &mut fluid, &mut b, t, &adm, qid);
                        }
                        Effect::Rejected { reason, .. } => {
                            rejected += 1;
                            *n.rejected_by.entry(reject_metric(reason)).or_default() += 1;
                        }
                        Effect::Queued => {}
                        other => panic!("admit produced {other:?}"),
                    }
                }
                // A shadow reservation the plane did not take must not
                // linger in the shadow's view of the cluster.
                if let (Some(s), Some(res)) = (shadow.as_mut(), held) {
                    s.api.release(res);
                }
            }
        }
        if adapt_on {
            for _ in 0..4 {
                let events =
                    tr.time("stream.fluid.poll_congestion", NO_QUERY, || fluid.poll_congestion(t));
                if events.is_empty() {
                    break;
                }
                for ev in events {
                    let candidates: Vec<Candidate> =
                        tr.time("stream.fluid.candidates", NO_QUERY, || {
                            fluid
                                .sessions_on(ev.server)
                                .into_iter()
                                .filter_map(|sid| {
                                    b.session_of.get(&sid).map(|&session| Candidate {
                                        session,
                                        backlog: fluid.session_backlog(sid),
                                    })
                                })
                                .collect()
                        });
                    let cmd = match ev.edge {
                        CongestionEdge::Onset => {
                            Command::CongestionOnset { server: ev.server, candidates, now: t }
                        }
                        CongestionEdge::Cleared => {
                            Command::CongestionCleared { server: ev.server, candidates, now: t }
                        }
                    };
                    effects.clear();
                    tr.time("service.plane.congestion", NO_QUERY, || {
                        plane.handle_into(engine, cmd, &mut effects)
                    });
                    for e in std::mem::take(&mut effects) {
                        let Effect::Renegotiated(r) = e else {
                            panic!("congestion produced {e:?}")
                        };
                        n.renegotiated += 1;
                        apply_reneg(&mut tr, &mut fluid, &mut b, &mut access, t, &r);
                    }
                }
            }
        }
        n.active_sum += fluid.active_sessions() as u64;
    }
    tr.time("stream.fluid.advance", NO_QUERY, || fluid.advance_to(horizon));
    let done = tr.time("stream.fluid.drain_completions", NO_QUERY, || fluid.drain_completions());
    for d in done {
        outstanding.adjust(d.at, -1);
        completed += 1;
        b.disarm(d.id);
        let session = b.unbind(d.id);
        teardown(
            &mut tr,
            &mut plane,
            engine,
            &mut effects,
            &mut shadow,
            &mut n,
            session,
            false,
            d.at,
        );
    }
    if queue_on {
        effects.clear();
        tr.time("service.plane.finish", NO_QUERY, || {
            plane.handle_into(engine, Command::Finish, &mut effects)
        });
        for e in effects.drain(..) {
            if let Effect::Finished { pending, .. } = e {
                rejected += pending;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let (core, _) = plane.into_parts();
    let cache = match &core {
        SystemCore::Quasaq { manager, .. } => manager.plan_cache_stats().map(|s| CacheCounts {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            invalidations: s.invalidations,
            doorkeeper_bypasses: s.doorkeeper_bypasses,
        }),
        _ => None,
    };
    let series = outstanding.sample(cfg.sample_step, horizon);
    let fingerprint = Fingerprint {
        queries: queries.len() as u64,
        admitted,
        rejected,
        completed,
        access: crate::inproc::access_hash(&access),
        stable_bits: stable_of(&series, horizon).to_bits(),
    };
    TracedRun {
        wall_s,
        fingerprint,
        tracer: tr,
        shadow: shadow.map(|s| s.report),
        counts: n,
        cache,
    }
}

/// Tears a session down in the plane (and the shadow), checking the
/// plane answered `TornDown`.
#[allow(clippy::too_many_arguments)]
fn teardown(
    tr: &mut Tracer,
    plane: &mut ControlPlane,
    engine: &MetadataEngine,
    effects: &mut Vec<Effect>,
    shadow: &mut Option<Shadow>,
    n: &mut LoopCounts,
    session: SessionId,
    abandoned: bool,
    now: SimTime,
) {
    effects.clear();
    tr.time("service.plane.teardown", session.0, || {
        plane.handle_into(engine, Command::Teardown { session, abandoned, now }, effects)
    });
    if !matches!(effects.as_slice(), [Effect::TornDown { session: s }] if *s == session) {
        n.teardown_errors += 1;
    }
    n.sample_wire(|| Request::Teardown { session, abandoned, now }, effects);
    if let Some(s) = shadow.as_mut() {
        s.release(session);
    }
}
