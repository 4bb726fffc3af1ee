//! The sans-IO control plane: one state machine, every driver.
//!
//! [`ControlPlane`] owns everything the QoS control path needs to decide
//! — the system under test (planner / QoS API / Quality Manager), the
//! retry queue, the degradation ladder, the tie-breaking RNG, the
//! crashed-server set, and per-session context — and nothing it does not:
//! no threads, no clocks, no sockets, no data plane. Time arrives inside
//! each [`Command`]; decisions leave as [`Effect`]s the caller mirrors
//! into whatever carries the bytes (the fluid simulation in-process, real
//! streams behind the TCP shell).
//!
//! The decision logic here is the former `workload::throughput` admission
//! / failover / renegotiation code moved verbatim: the same calls in the
//! same order against the same RNG stream, so a driver issuing the same
//! command sequence gets bit-identical decisions. The facade's
//! `tests/driver_fingerprints.rs` pins the decisions of the in-process
//! driver by recorded result digests.

use crate::admission::{brownout_action, AdmissionConfig, AdmissionQueue, BrownoutAction, Waiting};
use crate::command::{
    Admission, AdmitOrigin, Candidate, Command, Degraded, Effect, QopClass, RejectReason,
    Renegotiation, ServiceError, StatsSnapshot,
};
use quasaq_core::{
    AdmittedPlan, PlanExecutor, PlanRequest, QopSecurity, QosWeights, QualityManager, Rejection,
    UserProfile, UtilityGain,
};
use quasaq_media::QosRange;
use quasaq_qosapi::{CompositeQosApi, ReservationId, ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::{Rng, ServerId, SimDuration, SimTime};
use quasaq_store::MetadataEngine;
use quasaq_vdbms::{BaselinePlanner, QueuedQuery};
use std::collections::{BTreeSet, HashMap};

/// Handle to a live control-plane session. Ids are allocated densely
/// from 0 and never reused within one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// The system under test behind the command interface: which layer says
/// yes or no, and with what machinery.
// One instance per plane; the size gap (QualityManager carries a plan
// cache) doesn't justify a Box deref on the per-query admission path.
#[allow(clippy::large_enum_variant)]
pub enum SystemCore {
    /// Plain VDBMS: admit everything a replica exists for.
    Plain {
        /// Replica selection without any QoS machinery.
        planner: BaselinePlanner,
    },
    /// VDBMS with the QoS API: reserve the full-quality stream, reject on
    /// saturation.
    QosApi {
        /// Full-quality replica selection.
        planner: BaselinePlanner,
        /// The reservation layer.
        api: CompositeQosApi,
        /// Over-reservation headroom applied to the CPU share.
        headroom: f64,
    },
    /// Full QuaSAQ: QoP-aware plan enumeration, ranking, reservation.
    Quasaq {
        /// The Quality Manager (plan generation + admission).
        manager: QualityManager,
        /// Maps admitted plans onto stream parameters.
        executor: PlanExecutor,
    },
}

/// Adaptation policy knobs the plane needs for its renegotiation
/// decisions. (Congestion *detection* stays with the data plane, which
/// is what watches demand; the plane only decides what to do about an
/// edge the caller reports.)
#[derive(Debug, Clone, Copy)]
pub struct AdaptPolicy {
    /// Minimum spacing between upshifts on one server; a downshift inside
    /// this window after an upshift is flagged as hunting.
    pub upgrade_period: SimDuration,
    /// Cap on sessions renegotiated per congestion-onset event.
    pub max_downshifts_per_event: usize,
}

/// How to build a [`ControlPlane`].
pub struct PlaneConfig {
    /// Seed for the decision RNG (tie-breaking, replica shuffles, cost
    /// sampling). Callers pass their already-derived decision seed — the
    /// in-process driver hands over `cfg.seed ^ 0x9e37_79b9`, exactly the
    /// stream the pre-refactor loop consumed.
    pub seed: u64,
    /// The queued admission front end; `None` rejects on first refusal.
    pub admission: Option<AdmissionConfig>,
    /// Renegotiation policy; `None` ignores congestion commands.
    pub adaptation: Option<AdaptPolicy>,
    /// Keep per-session request context so sessions can be displaced and
    /// renegotiated (costs memory; the in-process driver enables it only
    /// under fault injection or adaptation).
    pub track_ctx: bool,
}

/// What the plane must remember about a live session to fail it over
/// after a crash or renegotiate it under congestion.
struct SessionCtx {
    query: QueuedQuery,
    total_bytes: u64,
    /// The admitted plan (QuaSAQ systems only): what a mid-stream
    /// renegotiation swaps out. Baselines have no plan machinery, so
    /// their sessions never re-rate.
    plan: Option<AdmittedPlan>,
    /// The QoS the client originally asked for — the upshift ceiling.
    orig_qos: QosRange,
    /// Last upshift instant (oscillation detection).
    upshifted_at: Option<SimTime>,
}

impl SessionCtx {
    fn new(query: QueuedQuery, total_bytes: u64, plan: Option<AdmittedPlan>) -> Self {
        let orig_qos = query.qos.clone();
        SessionCtx { query, total_bytes, plan, orig_qos, upshifted_at: None }
    }
}

struct SessionRecord {
    reservation: Option<ReservationId>,
    ctx: Option<SessionCtx>,
}

/// What an admission decided, before it is bound to a session record.
struct Placement {
    server: ServerId,
    bytes: u64,
    rate_bps: u64,
    utility: Option<f64>,
    nominal: SimDuration,
    reservation: Option<ReservationId>,
    plan: Option<AdmittedPlan>,
}

#[derive(Default)]
struct Counters {
    admitted: u64,
    rejected: u64,
    renegotiations: u64,
    live: u64,
}

/// The control plane. See the module docs; construct with
/// [`ControlPlane::new`], drive with [`ControlPlane::handle`].
pub struct ControlPlane {
    core: SystemCore,
    rng: Rng,
    queue: Option<AdmissionQueue>,
    /// Ladder for brownout degradation and crash failover (the admission
    /// profile when the front end is on, a default profile otherwise).
    profile: UserProfile,
    adapt: Option<AdaptPolicy>,
    track_ctx: bool,
    down: BTreeSet<ServerId>,
    last_upshift: HashMap<ServerId, SimTime>,
    sessions: Vec<Option<SessionRecord>>,
    counters: Counters,
    /// The QoS-API baseline's candidate servers, reused across admissions.
    candidate_servers: Vec<ServerId>,
}

impl ControlPlane {
    /// Builds a plane around a system core.
    pub fn new(core: SystemCore, cfg: PlaneConfig) -> Self {
        let profile = cfg
            .admission
            .as_ref()
            .map(|a| a.profile.clone())
            .unwrap_or_else(|| UserProfile::new("failover"));
        ControlPlane {
            core,
            rng: Rng::new(cfg.seed),
            queue: cfg.admission.map(AdmissionQueue::new),
            profile,
            adapt: cfg.adaptation,
            track_ctx: cfg.track_ctx,
            down: BTreeSet::new(),
            last_upshift: HashMap::new(),
            sessions: Vec::new(),
            counters: Counters::default(),
            candidate_servers: Vec::new(),
        }
    }

    /// Earliest instant a queued retry becomes due (drivers fold this
    /// into their event horizon).
    pub fn next_ready(&self) -> Option<SimTime> {
        self.queue.as_ref().and_then(|q| q.next_ready())
    }

    /// True when a caching Quality Manager sits behind the plane, i.e. a
    /// `Prefetch` command would do useful work.
    pub fn wants_prefetch(&self) -> bool {
        match &self.core {
            SystemCore::Quasaq { manager, .. } => manager.plan_caching(),
            _ => false,
        }
    }

    /// Applies one command, appending effects to `out` (reuse one scratch
    /// vector on hot paths). [`ControlPlane::handle`] is the allocating
    /// convenience wrapper.
    pub fn handle_into(&mut self, engine: &MetadataEngine, cmd: Command, out: &mut Vec<Effect>) {
        match cmd {
            Command::Admit { query, class, brownout, now } => {
                self.handle_admit(engine, query, class, brownout, now, out)
            }
            Command::Tick { now } => self.handle_tick(engine, now, out),
            Command::Teardown { session, abandoned, now } => {
                self.handle_teardown(session, abandoned, now, out)
            }
            Command::Displace { session, remaining, now } => {
                self.handle_displace(engine, session, remaining, now, out)
            }
            Command::CongestionOnset { server: _, candidates, now } => {
                self.handle_onset(engine, candidates, now, out)
            }
            Command::CongestionCleared { server, candidates, now } => {
                self.handle_cleared(engine, server, candidates, now, out)
            }
            Command::ServerDown { server } => {
                self.down.insert(server);
                match &mut self.core {
                    SystemCore::QosApi { api, .. } => {
                        api.fail_server(server);
                    }
                    SystemCore::Quasaq { manager, .. } => {
                        manager.handle_server_failure(server);
                    }
                    SystemCore::Plain { .. } => {}
                }
            }
            Command::ServerUp { server } => {
                self.down.remove(&server);
                match &mut self.core {
                    SystemCore::QosApi { api, .. } => {
                        api.restore_server(server);
                    }
                    SystemCore::Quasaq { manager, .. } => {
                        manager.handle_server_restart(server);
                    }
                    SystemCore::Plain { .. } => {}
                }
            }
            Command::SetNetCapacity { server, bps } => {
                let key = ResourceKey::new(server, ResourceKind::NetBandwidth);
                match &mut self.core {
                    SystemCore::QosApi { api, .. } => {
                        api.set_capacity(key, bps);
                    }
                    SystemCore::Quasaq { manager, .. } => {
                        manager.set_capacity(key, bps);
                    }
                    SystemCore::Plain { .. } => {}
                }
            }
            Command::Prefetch { requests } => {
                if let SystemCore::Quasaq { manager, .. } = &mut self.core {
                    if manager.plan_caching() {
                        manager.prefetch_plans(engine, &requests);
                    }
                }
            }
            Command::Finish => {
                let (pending, displaced_pending) =
                    self.queue.as_mut().map(AdmissionQueue::finish).unwrap_or((0, 0));
                self.counters.rejected += pending;
                out.push(Effect::Finished { pending, displaced_pending });
            }
            Command::Stats { now } => {
                let (waiting, wait_mean, wait_p95) = match &self.queue {
                    Some(q) => {
                        let w = &q.metrics().wait;
                        (q.len() as u64, w.mean(), w.quantile(0.95).unwrap_or(0.0))
                    }
                    None => (0, 0.0, 0.0),
                };
                out.push(Effect::Stats(StatsSnapshot {
                    now,
                    admitted: self.counters.admitted,
                    rejected: self.counters.rejected,
                    live_sessions: self.counters.live,
                    waiting,
                    renegotiations: self.counters.renegotiations,
                    wait_mean_secs: wait_mean,
                    wait_p95_secs: wait_p95,
                }));
            }
        }
    }

    /// Applies one command, returning the effects.
    pub fn handle(&mut self, engine: &MetadataEngine, cmd: Command) -> Vec<Effect> {
        let mut out = Vec::new();
        self.handle_into(engine, cmd, &mut out);
        out
    }

    /// Consumes the plane, yielding the system core and the queue's
    /// metrics (drivers fold both into their run result).
    pub fn into_parts(self) -> (SystemCore, Option<crate::admission::QueueMetrics>) {
        (self.core, self.queue.map(AdmissionQueue::into_metrics))
    }

    fn handle_admit(
        &mut self,
        engine: &MetadataEngine,
        query: QueuedQuery,
        class: QopClass,
        brownout: bool,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) {
        // Typed guard for the wire front end; generated traffic never
        // trips it, and `engine.video` consumes no RNG, so in-process
        // decisions are untouched.
        if engine.video(query.video).is_none() {
            self.counters.rejected += 1;
            out.push(Effect::Rejected {
                origin: AdmitOrigin::Arrival,
                reason: RejectReason::UnknownVideo,
            });
            return;
        }
        let mut request = query;
        let mut via_brownout = false;
        if brownout {
            match brownout_action(class) {
                BrownoutAction::Reject => {
                    self.counters.rejected += 1;
                    out.push(Effect::Rejected {
                        origin: AdmitOrigin::Arrival,
                        reason: RejectReason::BrownoutShed,
                    });
                    return;
                }
                BrownoutAction::DegradeThenReject => {
                    if let Some(next) = self.profile.degrade_step(&request.qos) {
                        request.qos = next;
                    }
                    via_brownout = true;
                }
            }
        }
        match self.admit_once(engine, &request, None) {
            Ok(placement) => {
                if let Some(q) = self.queue.as_mut() {
                    q.record_admitted(now, now);
                }
                let degraded = if via_brownout { Degraded::Brownout } else { Degraded::No };
                self.counters.admitted += 1;
                let adm = self.register(request, placement, AdmitOrigin::Arrival, degraded);
                out.push(Effect::Admitted(adm));
            }
            Err(why) => {
                if via_brownout {
                    // Degrade-then-reject: even the degraded form was
                    // infeasible, and a browned-out system does not queue.
                    self.counters.rejected += 1;
                    out.push(Effect::Rejected {
                        origin: AdmitOrigin::Arrival,
                        reason: RejectReason::BrownoutInfeasible,
                    });
                    return;
                }
                match self.queue.as_mut() {
                    Some(q) => {
                        let w = Waiting {
                            query: request,
                            arrival: now,
                            attempts: 1,
                            interrupted: None,
                        };
                        if q.admit_failure(now, w, &why).is_rejection() {
                            self.counters.rejected += 1;
                            out.push(Effect::Rejected {
                                origin: AdmitOrigin::Arrival,
                                reason: RejectReason::Plan(why),
                            });
                        } else {
                            out.push(Effect::Queued);
                        }
                    }
                    None => {
                        self.counters.rejected += 1;
                        out.push(Effect::Rejected {
                            origin: AdmitOrigin::Arrival,
                            reason: RejectReason::Plan(why),
                        });
                    }
                }
            }
        }
    }

    fn handle_tick(&mut self, engine: &MetadataEngine, now: SimTime, out: &mut Vec<Effect>) {
        while let Some(w) = self.queue.as_mut().and_then(|q| q.pop_due(now)) {
            match self.admit_once(engine, &w.query, None) {
                Ok(placement) => {
                    let origin = match w.interrupted {
                        // A displaced session re-serviced from the queue
                        // was admitted once already: it recovers, it does
                        // not admit a second time.
                        Some(it) => AdmitOrigin::Recovery { interrupted_at: it },
                        None => {
                            self.counters.admitted += 1;
                            if let Some(q) = self.queue.as_mut() {
                                q.record_admitted(now, w.arrival);
                            }
                            AdmitOrigin::Retry { arrival: w.arrival }
                        }
                    };
                    let adm = self.register(w.query, placement, origin, Degraded::No);
                    out.push(Effect::Admitted(adm));
                }
                Err(why) => {
                    let displaced = w.interrupted.is_some();
                    let arrival = w.arrival;
                    let Some(q) = self.queue.as_mut() else { break };
                    if q.admit_failure(now, w, &why).is_rejection() {
                        if displaced {
                            out.push(Effect::Dropped);
                        } else {
                            self.counters.rejected += 1;
                            out.push(Effect::Rejected {
                                origin: AdmitOrigin::Retry { arrival },
                                reason: RejectReason::Plan(why),
                            });
                        }
                    }
                }
            }
        }
    }

    fn handle_teardown(
        &mut self,
        session: SessionId,
        abandoned: bool,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) {
        let Some(rec) = self.take_record(session) else {
            out.push(Effect::Error(ServiceError::UnknownSession(session)));
            return;
        };
        if let Some(res) = rec.reservation {
            self.release(res);
        }
        if abandoned {
            match self.queue.as_mut() {
                Some(q) => q.record_stream_abandoned(now),
                // Was an `expect`: abandonment implies the front end, but
                // a wire client can claim anything.
                None => out.push(Effect::Error(ServiceError::NoAdmissionQueue)),
            }
        }
        self.counters.live = self.counters.live.saturating_sub(1);
        out.push(Effect::TornDown { session });
    }

    fn handle_displace(
        &mut self,
        engine: &MetadataEngine,
        session: SessionId,
        remaining: f64,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) {
        // The site failure already bulk-released the dead server's
        // reservations; dropping the record's id without releasing is the
        // correct (idempotent) move.
        let Some(rec) = self.take_record(session) else {
            out.push(Effect::Error(ServiceError::UnknownSession(session)));
            return;
        };
        self.counters.live = self.counters.live.saturating_sub(1);
        let Some(ctx) = rec.ctx else {
            // Was an `expect("fault runs track context")`.
            out.push(Effect::Error(ServiceError::NoSessionContext(session)));
            return;
        };
        let frac = (remaining / ctx.total_bytes.max(1) as f64).clamp(0.0, 1.0);
        // Walk the QoP ladder down until a survivor admits the remaining
        // bytes.
        let mut request = ctx.query;
        let mut steps = 0u32;
        let mut last_err = Rejection::AdmissionFailed;
        let placed = loop {
            match self.admit_once(engine, &request, Some(frac)) {
                Ok(placement) => break Some(placement),
                Err(why) => {
                    last_err = why;
                    match self.profile.degrade_step(&request.qos) {
                        Some(next) => {
                            request.qos = next;
                            steps += 1;
                        }
                        None => break None,
                    }
                }
            }
        };
        match placed {
            Some(placement) => {
                let adm = self.register(
                    request,
                    placement,
                    AdmitOrigin::Failover,
                    Degraded::Failover { steps },
                );
                out.push(Effect::Admitted(adm));
            }
            None => match self.queue.as_mut() {
                Some(q) => {
                    let w = Waiting {
                        query: request,
                        arrival: now,
                        attempts: 1,
                        interrupted: Some(now),
                    };
                    if q.admit_failure(now, w, &last_err).is_rejection() {
                        out.push(Effect::Dropped);
                    } else {
                        out.push(Effect::Requeued);
                    }
                }
                None => out.push(Effect::Dropped),
            },
        }
    }

    /// Onsets renegotiate up to the policy cap of the candidates one QoP
    /// ladder step down, in the order given.
    fn handle_onset(
        &mut self,
        engine: &MetadataEngine,
        candidates: Vec<Candidate>,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) {
        let Some(policy) = self.adapt else { return };
        let mut shed = 0usize;
        for c in candidates {
            if shed >= policy.max_downshifts_per_event {
                break;
            }
            // Only QuaSAQ sessions carry a renegotiable plan, and the
            // floor of the ladder stays put.
            let Some((next, hunting)) = ({
                self.sessions
                    .get(c.session.0 as usize)
                    .and_then(Option::as_ref)
                    .and_then(|rec| rec.ctx.as_ref())
                    .filter(|ctx| ctx.plan.is_some())
                    .and_then(|ctx| {
                        self.profile.degrade_step(&ctx.query.qos).map(|next| {
                            let hunting =
                                ctx.upshifted_at.is_some_and(|ts| now < ts + policy.upgrade_period);
                            (next, hunting)
                        })
                    })
            }) else {
                continue;
            };
            if let Some(r) = self.renegotiate_inner(engine, c.session, next, c.backlog) {
                shed += 1;
                out.push(Effect::Renegotiated(Renegotiation { downshift: true, hunting, ..r }));
            }
        }
    }

    /// Cleared edges renegotiate at most one previously degraded
    /// candidate back toward its original request, rate-bounded per
    /// server by `upgrade_period`.
    fn handle_cleared(
        &mut self,
        engine: &MetadataEngine,
        server: ServerId,
        candidates: Vec<Candidate>,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) {
        let Some(policy) = self.adapt else { return };
        let allowed =
            self.last_upshift.get(&server).is_none_or(|&ts| now >= ts + policy.upgrade_period);
        if !allowed {
            return;
        }
        for c in candidates {
            let Some(target) = self
                .sessions
                .get(c.session.0 as usize)
                .and_then(Option::as_ref)
                .and_then(|rec| rec.ctx.as_ref())
                .filter(|ctx| ctx.plan.is_some() && ctx.query.qos != ctx.orig_qos)
                .map(|ctx| ctx.orig_qos.clone())
            else {
                continue;
            };
            if let Some(r) = self.renegotiate_inner(engine, c.session, target, c.backlog) {
                self.last_upshift.insert(server, now);
                if let Some(ctx) = self
                    .sessions
                    .get_mut(c.session.0 as usize)
                    .and_then(Option::as_mut)
                    .and_then(|rec| rec.ctx.as_mut())
                {
                    ctx.upshifted_at = Some(now);
                }
                out.push(Effect::Renegotiated(Renegotiation {
                    downshift: false,
                    hunting: false,
                    ..r
                }));
                // One upgrade per Cleared edge: recovery is deliberately
                // slower than degradation.
                break;
            }
        }
    }

    /// Renegotiates one live QuaSAQ session to `new_qos`: swaps the
    /// reservation through [`QualityManager::renegotiate`] (which keeps
    /// the old one on failure) and re-rates the remaining fraction of the
    /// stream at the new plan's bitrate. Returns `None` — with the
    /// session untouched — when the manager finds no feasible plan.
    fn renegotiate_inner(
        &mut self,
        engine: &MetadataEngine,
        session: SessionId,
        new_qos: QosRange,
        backlog: f64,
    ) -> Option<Renegotiation> {
        let SystemCore::Quasaq { manager, executor } = &mut self.core else { return None };
        let rec = self.sessions.get_mut(session.0 as usize)?.as_mut()?;
        let ctx = rec.ctx.as_mut()?;
        let plan = ctx.plan.as_ref()?;
        let request = PlanRequest {
            video: ctx.query.video,
            qos: new_qos.clone(),
            security: QopSecurity::Open,
        };
        let swapped = manager.renegotiate(engine, plan, &request, &mut self.rng).ok()?;
        // Was an `expect("known video")`: unreachable for a live session,
        // but a typed bail keeps the wire path panic-free.
        let meta = engine.video(ctx.query.video)?;
        let (full_bytes, rate) = executor.fluid_params(&swapped.plan, meta);
        let frac = (backlog / ctx.total_bytes.max(1) as f64).clamp(0.0, 1.0);
        let bytes = resume_bytes(full_bytes, Some(frac));
        let server = swapped.plan.target_server;
        let video = ctx.query.video;
        // The old reservation id was consumed by the renegotiation swap —
        // overwrite it without releasing.
        rec.reservation = Some(swapped.reservation);
        ctx.query.qos = new_qos;
        ctx.total_bytes = bytes;
        ctx.plan = Some(swapped);
        self.counters.renegotiations += 1;
        Some(Renegotiation {
            session,
            video,
            server,
            bytes,
            rate_bps: rate,
            nominal: nominal_duration(bytes, rate),
            bytes_saved: backlog - bytes as f64,
            downshift: true,
            hunting: false,
        })
    }

    /// Binds a successful placement to a fresh session record.
    fn register(
        &mut self,
        query: QueuedQuery,
        placement: Placement,
        origin: AdmitOrigin,
        degraded: Degraded,
    ) -> Admission {
        let id = SessionId(self.sessions.len() as u64);
        let video = query.video;
        let ctx = self.track_ctx.then(|| SessionCtx::new(query, placement.bytes, placement.plan));
        self.sessions.push(Some(SessionRecord { reservation: placement.reservation, ctx }));
        self.counters.live += 1;
        Admission {
            session: id,
            video,
            server: placement.server,
            bytes: placement.bytes,
            rate_bps: placement.rate_bps,
            nominal: placement.nominal,
            utility: placement.utility,
            origin,
            degraded,
        }
    }

    fn take_record(&mut self, session: SessionId) -> Option<SessionRecord> {
        self.sessions.get_mut(session.0 as usize).and_then(Option::take)
    }

    fn release(&mut self, res: ReservationId) {
        match &mut self.core {
            SystemCore::QosApi { api, .. } => api.release(res),
            SystemCore::Quasaq { manager, .. } => manager.release_reservation(res),
            SystemCore::Plain { .. } => {}
        }
    }

    /// One admission attempt against the system core — the former
    /// driver-side `admit()`, minus the data-plane `add_session` (the
    /// caller starts the stream from the returned placement; under the
    /// fair-share policy that step cannot fail).
    fn admit_once(
        &mut self,
        engine: &MetadataEngine,
        q: &QueuedQuery,
        resume: Option<f64>,
    ) -> Result<Placement, Rejection> {
        match &mut self.core {
            SystemCore::Plain { planner } => {
                // The plain baseline has no reservation layer to notice a
                // dead server, so the crash filter is explicit. With
                // `down` empty this is the legacy `select`, RNG draw for
                // RNG draw.
                let pick = planner
                    .pick(engine, q.video, &mut self.rng, &self.down)
                    .ok_or(Rejection::NoFeasiblePlan)?;
                let bytes = resume_bytes(pick.bytes, resume);
                Ok(Placement {
                    server: pick.server,
                    bytes,
                    rate_bps: pick.rate_bps,
                    utility: None,
                    nominal: nominal_duration(bytes, pick.rate_bps),
                    reservation: None,
                    plan: None,
                })
            }
            SystemCore::QosApi { planner, api, headroom } => {
                let pick = planner
                    .pick(engine, q.video, &mut self.rng, &BTreeSet::new())
                    .ok_or(Rejection::NoFeasiblePlan)?;
                // The baseline has no cost model, but admission may try
                // each server holding the (full-quality) replica in
                // random order.
                let servers = &mut self.candidate_servers;
                servers.clear();
                servers.extend(engine.top_replicas(q.video).iter().map(|t| t.server));
                servers.dedup();
                self.rng.shuffle(servers);
                let profile = pick.profile;
                for &server in &*servers {
                    let demand = [
                        (ResourceKind::Cpu, (profile.cpu_share * *headroom).min(1.0)),
                        (ResourceKind::NetBandwidth, profile.net_bps),
                        (ResourceKind::DiskBandwidth, profile.disk_bps),
                        (ResourceKind::Memory, profile.memory_bytes),
                    ]
                    .map(|(kind, amount)| (ResourceKey::new(server, kind), amount));
                    // Only the server that admits gets its demand vector.
                    if api.admits(&demand).is_ok() {
                        let res = api
                            .reserve(&ResourceVector::from_distinct(&demand))
                            .expect("a reservation succeeds when `admits` passes");
                        let bytes = resume_bytes(pick.bytes, resume);
                        return Ok(Placement {
                            server,
                            bytes,
                            rate_bps: pick.rate_bps,
                            utility: None,
                            nominal: nominal_duration(bytes, pick.rate_bps),
                            reservation: Some(res),
                            plan: None,
                        });
                    }
                }
                Err(Rejection::AdmissionFailed)
            }
            SystemCore::Quasaq { manager, executor } => {
                let request =
                    PlanRequest { video: q.video, qos: q.qos.clone(), security: QopSecurity::Open };
                let admitted = manager.process(engine, &request, &mut self.rng)?;
                // Was an `expect("known video")`; `handle_admit`'s guard
                // makes this unreachable from every command path.
                let meta = engine.video(q.video).ok_or(Rejection::NoFeasiblePlan)?;
                let (bytes, rate) = executor.fluid_params(&admitted.plan, meta);
                let bytes = resume_bytes(bytes, resume);
                let server = admitted.plan.target_server;
                let utility =
                    UtilityGain { weights: QosWeights::default() }.utility(&admitted.plan);
                Ok(Placement {
                    server,
                    bytes,
                    rate_bps: rate,
                    utility: Some(utility),
                    nominal: nominal_duration(bytes, rate),
                    reservation: Some(admitted.reservation),
                    plan: Some(admitted),
                })
            }
        }
    }
}

/// Scales a replica's size by the fraction still owed after a failover.
fn resume_bytes(bytes: u64, resume: Option<f64>) -> u64 {
    match resume {
        Some(frac) => ((bytes as f64 * frac).ceil() as u64).max(1),
        None => bytes,
    }
}

fn nominal_duration(bytes: u64, rate_bps: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / rate_bps.max(1) as f64)
}
