//! The pre-service-refactor throughput driver, frozen verbatim as a
//! differential-test oracle.
//!
//! This is the in-process event loop exactly as it stood before the QoS
//! control plane moved into the sans-IO `quasaq-service` crate: admission,
//! brownout, failover, and renegotiation all inlined against the system
//! state. The differential proptests drive random traffic/fault/link
//! configs through both this loop and the rewired driver and require
//! bit-identical `ThroughputResult`s — the same role `sim`'s
//! `support/old_link.rs` plays for the flow arena.
//!
//! Frozen code: edits here would defeat the oracle's purpose.

use quasaq_core::{
    AdmittedPlan, PlanExecutor, PlanRequest, QopSecurity, QosWeights, QualityManager, Rejection,
    UserProfile, UtilityGain,
};
use quasaq_media::QosRange;
use quasaq_qosapi::{CompositeQosApi, ReservationId, ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::link::SharePolicy;
use quasaq_sim::{
    FaultEvent, FaultInjector, FaultKind, LevelTracker, LinkInjector, RateCounter, Rng, Series,
    ServerId, SimDuration, SimTime,
};
use quasaq_store::AccessStats;
use quasaq_stream::{CongestionEdge, FluidEngine, FluidSessionId};
use quasaq_vdbms::{BaselineKind, BaselinePlanner, QueuedQuery};
use quasaq_workload::admission::{brownout_action, AdmissionQueue, BrownoutAction, Waiting};
use quasaq_workload::testbed::{Testbed, TestbedConfig};
use quasaq_workload::traffic::{generate_queries, qop_class, TrafficConfig};
use quasaq_workload::{
    AdaptationConfig, DegradationMetrics, FaultMetrics, SystemKind, ThroughputConfig,
    ThroughputResult,
};
use std::collections::{BTreeSet, HashMap};

// One instance per run, stack-allocated in `run_throughput`; the size gap
// (QualityManager grew a plan cache) doesn't justify a Box deref on the
// per-query admission path.
#[allow(clippy::large_enum_variant)]
enum SystemState {
    Plain { planner: BaselinePlanner },
    QosApi { planner: BaselinePlanner, api: CompositeQosApi, headroom: f64 },
    Quasaq { manager: QualityManager, executor: PlanExecutor },
}

/// Dense per-session side table indexed by [`FluidSessionId`] (the fluid
/// engine allocates ids contiguously from 0, so a `Vec` replaces the old
/// session-keyed hash maps on the admission/completion hot path).
struct PerSession<T>(Vec<Option<T>>);

impl<T> PerSession<T> {
    fn new() -> Self {
        PerSession(Vec::new())
    }

    fn insert(&mut self, id: FluidSessionId, value: T) {
        if id.0 >= self.0.len() {
            self.0.resize_with(id.0 + 1, || None);
        }
        self.0[id.0] = Some(value);
    }

    fn remove(&mut self, id: FluidSessionId) -> Option<T> {
        self.0.get_mut(id.0).and_then(Option::take)
    }

    fn get(&self, id: FluidSessionId) -> Option<&T> {
        self.0.get(id.0).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, id: FluidSessionId) -> Option<&mut T> {
        self.0.get_mut(id.0).and_then(Option::as_mut)
    }
}

/// Runs one system against the shared query stream on the (process-wide,
/// immutably shared) testbed for `cfg.testbed`. Runs never mutate the
/// testbed, so N system-variants over one deployment pay for catalog
/// generation once; callers that *do* mutate the replica layout build
/// their own testbed and use [`run_throughput_on`].
pub fn legacy_run_throughput(system: SystemKind, cfg: &ThroughputConfig) -> ThroughputResult {
    let testbed = Testbed::shared(cfg.testbed.clone());
    legacy_run_throughput_on(&testbed, system, cfg)
}

/// Runs one system against the query stream on an existing testbed (so
/// callers can mutate the replica layout between runs, e.g. for the
/// online-migration extension).
pub fn legacy_run_throughput_on(
    testbed: &Testbed,
    system: SystemKind,
    cfg: &ThroughputConfig,
) -> ThroughputResult {
    let mut traffic = TrafficConfig::paper(testbed.library.len(), cfg.horizon);
    traffic.video_skew = cfg.video_skew;
    traffic.qop_mix = cfg.qop_mix;
    if let Some(period) = cfg.arrival_period {
        traffic.mean_interarrival = period;
    }
    traffic.burst = cfg.arrival_burst.max(1);
    let queries = generate_queries(cfg.seed ^ 0x51ab_17e5, &traffic);
    let mut rng = Rng::new(cfg.seed ^ 0x9e37_79b9);

    let mut state = match system {
        SystemKind::Vdbms => {
            SystemState::Plain { planner: BaselinePlanner::new(BaselineKind::Plain) }
        }
        SystemKind::VdbmsQosApi => SystemState::QosApi {
            planner: BaselinePlanner::new(BaselineKind::WithQosApi),
            api: testbed.qos_api(),
            headroom: cfg.testbed.cost.reservation_headroom,
        },
        SystemKind::Quasaq(kind) => {
            let mut manager = testbed.quality_manager_with(
                kind,
                quasaq_core::GeneratorConfig {
                    cost: cfg.testbed.cost,
                    allow_remote: !cfg.local_plans_only,
                    ..quasaq_core::GeneratorConfig::default()
                },
            );
            manager.set_plan_caching(cfg.plan_cache);
            SystemState::Quasaq {
                manager,
                executor: PlanExecutor { cost: cfg.testbed.cost, ..PlanExecutor::default() },
            }
        }
    };

    // All systems pace sessions at their stream rate on fair-share links;
    // reservation-based systems enforce admission in the QoS API, so the
    // link never oversubscribes for them.
    let mut fluid =
        FluidEngine::new(testbed.servers(), SharePolicy::FairShare, cfg.testbed.link_capacity_bps);

    let mut queue = cfg.admission.clone().map(AdmissionQueue::new);
    let patience = cfg.admission.as_ref().map(|a| a.patience);
    // Mid-stream give-up deadlines, ordered for the event loop plus a
    // reverse index for completion-time removal. Both stay empty when the
    // front end is disabled, so the legacy event sequence is untouched.
    let mut deadlines: BTreeSet<(SimTime, FluidSessionId)> = BTreeSet::new();
    let mut deadline_of: PerSession<SimTime> = PerSession::new();

    // Fault injection. The timeline is empty when `cfg.faults` is `None`,
    // so the legacy event sequence — and every RNG draw — is untouched.
    // The testbed itself is immutable and shared across runs; all fault
    // state (who is down, which reservations died, the degraded
    // capacities inside this run's own fluid engine) lives here.
    let fault_plan = cfg.faults.clone().unwrap_or_default();
    let mut injector = FaultInjector::new(&fault_plan);
    let faults_on = cfg.faults.is_some();
    let failover_profile = cfg
        .admission
        .as_ref()
        .map(|a| a.profile.clone())
        .unwrap_or_else(|| UserProfile::new("failover"));
    let mut fm = FaultMetrics::default();
    // Per-session request context, kept only under fault injection so a
    // crash can re-plan the displaced sessions.
    let mut ctxs: PerSession<SessionCtx> = PerSession::new();
    let mut down: BTreeSet<ServerId> = BTreeSet::new();
    // Overlapping windows compose: crashes nest by depth, capacity
    // factors multiply (in stable order, so the float product is a pure
    // function of the plan).
    let mut crash_depth: HashMap<ServerId, u32> = HashMap::new();
    let mut link_factors: HashMap<ServerId, Vec<f64>> = HashMap::new();
    let mut disk_factors: HashMap<ServerId, Vec<f64>> = HashMap::new();
    let mut impaired: BTreeSet<ServerId> = BTreeSet::new();
    let mut violation_t = SimTime::ZERO;

    // Stochastic link dynamics: a (time, seq)-ordered set-point timeline,
    // one dynamic factor per server composed into the same effective
    // capacity the fault windows feed. Empty when `cfg.links` is `None`,
    // so the legacy event sequence is untouched.
    let link_plan = cfg.links.clone().unwrap_or_default();
    let mut link_injector = LinkInjector::new(&link_plan);
    let links_on = cfg.links.is_some();
    let mut dyn_factors: HashMap<ServerId, f64> = HashMap::new();
    // QoS-violation exposure is accounted whenever anything can degrade
    // capacity mid-run.
    let watch_capacity = faults_on || links_on;

    // The congestion-adaptation loop.
    let adapt = cfg.adaptation.clone();
    let adapt_on = adapt.is_some();
    if let Some(a) = &adapt {
        fluid.enable_congestion(a.congestion);
    }
    let mut dm = DegradationMetrics::default();
    let mut last_upshift: HashMap<ServerId, SimTime> = HashMap::new();
    let mut congested_t = SimTime::ZERO;
    // Session contexts are needed by both the crash-failover path and the
    // adaptation loop.
    let track_ctx = faults_on || adapt_on;
    let num_servers = cfg.testbed.servers as usize;

    let mut reservations: PerSession<ReservationId> = PerSession::new();
    let mut outstanding = LevelTracker::new();
    let mut completions = RateCounter::new(SimDuration::from_secs(60));
    let mut rejects = Series::new();
    let mut rejected = 0u64;
    let mut admitted = 0u64;
    let mut completed = 0u64;
    let mut access = AccessStats::new();
    let mut utility_sum = 0.0f64;
    let mut utility_n = 0u64;

    let mut qi = 0usize;
    loop {
        let tq = queries.get(qi).map(|q| q.at);
        let tf = fluid.next_event().filter(|&t| t <= cfg.horizon);
        let tr = queue.as_ref().and_then(|q| q.next_ready()).filter(|&t| t <= cfg.horizon);
        let ta = deadlines.iter().next().map(|&(t, _)| t).filter(|&t| t <= cfg.horizon);
        let tx = injector.next_at().filter(|&t| t <= cfg.horizon);
        let tl = link_injector.next_at().filter(|&t| t <= cfg.horizon);
        let tc = fluid.congestion_next_at().filter(|&t| t <= cfg.horizon);
        let Some(t) = [tq, tf, tr, ta, tx, tl, tc].into_iter().flatten().min() else { break };
        if t > cfg.horizon {
            break;
        }
        // The active set only changes at processed instants, so the
        // violation exposure over [violation_t, t] is exact.
        if watch_capacity && t > violation_t {
            for &s in &impaired {
                fm.qos_violation_secs +=
                    fluid.active_on(s) as f64 * (t - violation_t).as_secs_f64();
            }
            violation_t = t;
        }
        // Same argument for congestion exposure: the congested set only
        // flips inside `poll_congestion`, which runs at processed
        // instants.
        if adapt_on && t > congested_t {
            dm.congested_secs += fluid.congested_servers() as f64 * (t - congested_t).as_secs_f64();
            congested_t = t;
        }
        fluid.advance_to(t);
        handle_done(
            fluid.drain_completions(),
            &mut reservations,
            &mut state,
            &mut outstanding,
            &mut completions,
            &mut completed,
            &mut deadlines,
            &mut deadline_of,
            &mut ctxs,
        );
        // Mid-stream patience: cancel sessions that overran their nominal
        // duration by more than the patience window. Completions at the
        // same instant were drained first, so finishing exactly on the
        // deadline counts as done.
        while let Some(&(dt, sid)) = deadlines.iter().next() {
            if dt > t {
                break;
            }
            deadlines.remove(&(dt, sid));
            deadline_of.remove(sid);
            fluid.cancel_session(t, sid);
            outstanding.adjust(t, -1);
            if let Some(res) = reservations.remove(sid) {
                release(&mut state, res);
            }
            ctxs.remove(sid);
            queue
                .as_mut()
                .expect("deadlines only exist with admission enabled")
                .record_stream_abandoned(t);
        }
        // Fault edges due now fire after completions and patience (a
        // session finishing at the crash instant made it) and before
        // retries and the new arrival (which must see the post-crash
        // world).
        while let Some(ev) = injector.pop_due(t) {
            match ev {
                FaultEvent::Begin(spec) => match spec.kind {
                    FaultKind::ServerCrash => {
                        let depth = crash_depth.entry(spec.server).or_insert(0);
                        *depth += 1;
                        if *depth > 1 {
                            continue;
                        }
                        down.insert(spec.server);
                        // Bulk-release every reservation on the dead
                        // server so new admissions route around it...
                        fail_site(&mut state, spec.server);
                        // ...then displace its in-flight sessions and try
                        // to fail each one over.
                        for (sid, remaining) in fluid.fail_server(t, spec.server) {
                            outstanding.adjust(t, -1);
                            fm.interrupted += 1;
                            if let Some(dl) = deadline_of.remove(sid) {
                                deadlines.remove(&(dl, sid));
                            }
                            // The site failure above already cancelled the
                            // dead server's reservations; release is
                            // idempotent, so dropping the id is enough.
                            reservations.remove(sid);
                            let ctx = ctxs.remove(sid).expect("fault runs track context");
                            let frac = (remaining / ctx.total_bytes.max(1) as f64).clamp(0.0, 1.0);
                            // Walk the QoP ladder down until a survivor
                            // admits the remaining bytes.
                            let mut request = ctx.query;
                            let mut steps = 0u32;
                            let mut last_err = Rejection::AdmissionFailed;
                            let placed = loop {
                                match admit(
                                    &mut state,
                                    testbed,
                                    &request,
                                    &mut fluid,
                                    &mut rng,
                                    t,
                                    Some(frac),
                                    &down,
                                ) {
                                    Ok(sess) => break Some(sess),
                                    Err(why) => {
                                        last_err = why;
                                        match failover_profile
                                            .degrade_options(&request.qos)
                                            .into_iter()
                                            .next()
                                        {
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
                                Some(sess) => {
                                    fm.failed_over += 1;
                                    if steps > 0 {
                                        fm.failover_degraded += 1;
                                    }
                                    fm.recovery.push(0.0);
                                    outstanding.adjust(t, 1);
                                    access.record(request.video, sess.server);
                                    if let Some(u) = sess.utility {
                                        utility_sum += u;
                                        utility_n += 1;
                                    }
                                    if let Some(res) = sess.reservation {
                                        reservations.insert(sess.sid, res);
                                    }
                                    if let Some(p) = patience {
                                        let dl = t + sess.nominal + p;
                                        deadlines.insert((dl, sess.sid));
                                        deadline_of.insert(sess.sid, dl);
                                    }
                                    ctxs.insert(
                                        sess.sid,
                                        SessionCtx::new(request, sess.bytes, sess.plan),
                                    );
                                }
                                None => match queue.as_mut() {
                                    Some(qu) => {
                                        let w = Waiting {
                                            query: request,
                                            arrival: t,
                                            attempts: 1,
                                            interrupted: Some(t),
                                        };
                                        if qu.admit_failure(t, w, &last_err).is_rejection() {
                                            fm.dropped += 1;
                                        } else {
                                            fm.requeued += 1;
                                        }
                                    }
                                    None => fm.dropped += 1,
                                },
                            }
                        }
                    }
                    FaultKind::LinkDegradation { factor } => {
                        link_factors.entry(spec.server).or_default().push(factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                    FaultKind::DiskSlowdown { factor } => {
                        disk_factors.entry(spec.server).or_default().push(factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                },
                FaultEvent::End(spec) => match spec.kind {
                    FaultKind::ServerCrash => {
                        let depth = crash_depth.get_mut(&spec.server).expect("crash began");
                        *depth -= 1;
                        if *depth == 0 {
                            down.remove(&spec.server);
                            restore_site(&mut state, spec.server);
                        }
                    }
                    FaultKind::LinkDegradation { factor } => {
                        remove_factor(&mut link_factors, spec.server, factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                    FaultKind::DiskSlowdown { factor } => {
                        remove_factor(&mut disk_factors, spec.server, factor);
                        apply_capacity(
                            &mut fluid,
                            &mut impaired,
                            &link_factors,
                            &disk_factors,
                            &dyn_factors,
                            &cfg.testbed,
                            t,
                            spec.server,
                        );
                    }
                },
            }
        }
        // Link set-points due now land after fault edges (a set-point and
        // a fault window at one instant compose in plan order) and before
        // retries and arrivals, which must see the re-rated world. Unlike
        // fault windows, set-points also move the admission view: the
        // reservation systems should plan against the capacity the
        // network actually has.
        while let Some(spec) = link_injector.pop_due(t) {
            dyn_factors.insert(spec.server, spec.factor);
            let net = apply_capacity(
                &mut fluid,
                &mut impaired,
                &link_factors,
                &disk_factors,
                &dyn_factors,
                &cfg.testbed,
                t,
                spec.server,
            );
            let key = ResourceKey::new(spec.server, ResourceKind::NetBandwidth);
            match &mut state {
                SystemState::QosApi { api, .. } => {
                    api.set_capacity(key, net);
                }
                SystemState::Quasaq { manager, .. } => {
                    manager.set_capacity(key, net);
                }
                SystemState::Plain { .. } => {}
            }
        }
        // Retries due now run before the new arrival: they have waited
        // longer.
        if let Some(qu) = queue.as_mut() {
            while let Some(w) = qu.pop_due(t) {
                match admit(&mut state, testbed, &w.query, &mut fluid, &mut rng, t, None, &down) {
                    Ok(sess) => {
                        match w.interrupted {
                            Some(it) => {
                                // A displaced session re-serviced from the
                                // queue was admitted once already: count
                                // its recovery, not a second admission.
                                fm.recovered += 1;
                                fm.recovery.push((t - it).as_secs_f64());
                            }
                            None => {
                                admitted += 1;
                                qu.record_admitted(t, w.arrival);
                            }
                        }
                        outstanding.adjust(t, 1);
                        access.record(w.query.video, sess.server);
                        if let Some(u) = sess.utility {
                            utility_sum += u;
                            utility_n += 1;
                        }
                        if let Some(res) = sess.reservation {
                            reservations.insert(sess.sid, res);
                        }
                        if let Some(p) = patience {
                            let dl = t + sess.nominal + p;
                            deadlines.insert((dl, sess.sid));
                            deadline_of.insert(sess.sid, dl);
                        }
                        if track_ctx {
                            ctxs.insert(sess.sid, SessionCtx::new(w.query, sess.bytes, sess.plan));
                        }
                    }
                    Err(why) => {
                        let was_displaced = w.interrupted.is_some();
                        if qu.admit_failure(t, w, &why).is_rejection() {
                            if was_displaced {
                                fm.dropped += 1;
                            } else {
                                rejected += 1;
                                rejects.push(t, rejected as f64);
                            }
                        }
                    }
                }
            }
        }
        if tq == Some(t) {
            // Every query arriving at this exact instant forms one batch (a
            // flash-crowd burst under `arrival_burst > 1`; always a single
            // query for Poisson arrivals). With the plan cache on, the
            // bulk-admit path warms the cache for the whole batch first —
            // requests sorted by cache key, each distinct enumeration done
            // once — before the queries admit sequentially in arrival
            // order. Prefetching consumes no RNG and reserves nothing, so
            // the decisions are bit-identical to cold processing.
            let batch_end = qi + queries[qi..].iter().take_while(|q| q.at == t).count();
            if batch_end - qi > 1 {
                if let SystemState::Quasaq { manager, .. } = &mut state {
                    if manager.plan_caching() {
                        let reqs: Vec<PlanRequest> = queries[qi..batch_end]
                            .iter()
                            .map(|q| PlanRequest {
                                video: q.video,
                                qos: q.qos.clone(),
                                security: QopSecurity::Open,
                            })
                            .collect();
                        manager.prefetch_plans(&testbed.engine, &reqs);
                    }
                }
            }
            // Brownout: once enough of the cluster sits congested, the
            // front door sheds by service class — Economy requests are
            // refused outright, richer requests are admitted one ladder
            // step down or refused, and nothing queues (a browned-out
            // system must shed load now, not promise it later). The
            // congested set is frozen for the whole instant (it only
            // moves in the end-of-instant poll), so every query in a
            // burst sees the same policy.
            let brownout_now = adapt.as_ref().is_some_and(|a| {
                let congested = fluid.congested_servers();
                congested > 0 && congested as f64 >= a.brownout_ratio * num_servers as f64
            });
            while qi < batch_end {
                let q = &queries[qi];
                qi += 1;
                let mut request = QueuedQuery { video: q.video, qos: q.qos.clone() };
                let mut via_brownout = false;
                if brownout_now {
                    match brownout_action(qop_class(&q.qop)) {
                        BrownoutAction::Reject => {
                            dm.brownout_rejected += 1;
                            rejected += 1;
                            rejects.push(t, rejected as f64);
                            continue;
                        }
                        BrownoutAction::DegradeThenReject => {
                            if let Some(next) =
                                failover_profile.degrade_options(&request.qos).into_iter().next()
                            {
                                request.qos = next;
                            }
                            via_brownout = true;
                        }
                    }
                }
                match admit(&mut state, testbed, &request, &mut fluid, &mut rng, t, None, &down) {
                    Ok(sess) => {
                        if via_brownout {
                            dm.brownout_degraded += 1;
                        }
                        admitted += 1;
                        outstanding.adjust(t, 1);
                        access.record(q.video, sess.server);
                        if let Some(u) = sess.utility {
                            utility_sum += u;
                            utility_n += 1;
                        }
                        if let Some(res) = sess.reservation {
                            reservations.insert(sess.sid, res);
                        }
                        if let Some(qu) = queue.as_mut() {
                            qu.record_admitted(t, t);
                        }
                        if let Some(p) = patience {
                            let dl = t + sess.nominal + p;
                            deadlines.insert((dl, sess.sid));
                            deadline_of.insert(sess.sid, dl);
                        }
                        if track_ctx {
                            ctxs.insert(sess.sid, SessionCtx::new(request, sess.bytes, sess.plan));
                        }
                    }
                    Err(why) => {
                        if via_brownout {
                            // Degrade-then-reject: even the degraded form
                            // was infeasible, and a browned-out system
                            // does not queue.
                            dm.brownout_rejected += 1;
                            rejected += 1;
                            rejects.push(t, rejected as f64);
                            continue;
                        }
                        match queue.as_mut() {
                            Some(qu) => {
                                let w = Waiting {
                                    query: request,
                                    arrival: t,
                                    attempts: 1,
                                    interrupted: None,
                                };
                                if qu.admit_failure(t, w, &why).is_rejection() {
                                    rejected += 1;
                                    rejects.push(t, rejected as f64);
                                }
                            }
                            None => {
                                rejected += 1;
                                rejects.push(t, rejected as f64);
                            }
                        }
                    }
                }
            }
        }
        // End-of-instant congestion poll: demand ratios only move at
        // processed instants (session adds, completions, cancellations,
        // re-rates all happen above), so polling here sees every edge
        // exactly when it happens; the `tc` time source wakes the loop
        // for pure dwell expiries. Runs after the arrivals so a burst
        // that congests a server starts its dwell clock at this instant.
        if let Some(a) = &adapt {
            run_adaptation(
                t,
                a,
                &mut state,
                testbed,
                &mut fluid,
                &mut rng,
                &mut ctxs,
                &mut reservations,
                &mut deadlines,
                &mut deadline_of,
                patience,
                &mut access,
                &mut dm,
                &mut last_upshift,
                &failover_profile,
                &link_factors,
                &disk_factors,
                &dyn_factors,
            );
        }
    }
    if watch_capacity && cfg.horizon > violation_t {
        for &s in &impaired {
            fm.qos_violation_secs +=
                fluid.active_on(s) as f64 * (cfg.horizon - violation_t).as_secs_f64();
        }
    }
    if adapt_on && cfg.horizon > congested_t {
        dm.congested_secs +=
            fluid.congested_servers() as f64 * (cfg.horizon - congested_t).as_secs_f64();
    }
    fluid.advance_to(cfg.horizon);
    handle_done(
        fluid.drain_completions(),
        &mut reservations,
        &mut state,
        &mut outstanding,
        &mut completions,
        &mut completed,
        &mut deadlines,
        &mut deadline_of,
        &mut ctxs,
    );
    // Whoever is still waiting never got served: fresh queries fold into
    // the rejected count so `admitted + rejected == queries` holds;
    // displaced sessions still waiting are lost to the fault accounting.
    if let Some(qu) = queue.as_mut() {
        let (pending, displaced_pending) = qu.finish();
        if pending > 0 {
            rejected += pending;
            rejects.push(cfg.horizon, rejected as f64);
        }
        fm.dropped += displaced_pending;
    }

    ThroughputResult {
        label: system.label(),
        outstanding: outstanding.sample(cfg.sample_step, cfg.horizon),
        completions_per_min: completions,
        rejects,
        queries: queries.len() as u64,
        admitted,
        rejected,
        completed,
        access,
        mean_utility: (utility_n > 0).then(|| utility_sum / utility_n as f64),
        queue: queue.map(AdmissionQueue::into_metrics),
        faults: watch_capacity.then_some(fm),
        degradation: adapt_on.then_some(dm),
    }
}

/// What the driver must remember about a live session to fail it over
/// after a crash or renegotiate it under congestion (tracked only when
/// fault injection or adaptation is on).
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

fn fail_site(state: &mut SystemState, server: ServerId) {
    match state {
        SystemState::QosApi { api, .. } => {
            api.fail_server(server);
        }
        SystemState::Quasaq { manager, .. } => {
            manager.handle_server_failure(server);
        }
        SystemState::Plain { .. } => {}
    }
}

fn restore_site(state: &mut SystemState, server: ServerId) {
    match state {
        SystemState::QosApi { api, .. } => {
            api.restore_server(server);
        }
        SystemState::Quasaq { manager, .. } => {
            manager.handle_server_restart(server);
        }
        SystemState::Plain { .. } => {}
    }
}

/// A server's composed capacity right now: the fault windows' factors
/// multiplied with the link plan's dynamic set-point. Returns
/// `(net, effective)` — the network side alone (what the admission view
/// tracks on the links path) and `min(net, disk)` (what the fluid link
/// carries; a slow disk starves the link). Both floored at 1 byte/s so
/// in-flight transfers keep draining. The dynamic factor multiplies last
/// (and defaults to exactly 1.0), so fault-only runs compute the same
/// float product they always did.
fn effective_capacity(
    link_factors: &HashMap<ServerId, Vec<f64>>,
    disk_factors: &HashMap<ServerId, Vec<f64>>,
    dyn_factors: &HashMap<ServerId, f64>,
    testbed: &TestbedConfig,
    server: ServerId,
) -> (f64, u64) {
    let product =
        |m: &HashMap<ServerId, Vec<f64>>| m.get(&server).map_or(1.0, |v| v.iter().product::<f64>());
    let net = testbed.link_capacity_bps as f64
        * product(link_factors)
        * dyn_factors.get(&server).copied().unwrap_or(1.0);
    let disk = testbed.disk_bps * product(disk_factors);
    (net.max(1.0), (net.min(disk).max(1.0)) as u64)
}

/// Re-applies a server's effective capacity after its fault factors or
/// dynamic set-point changed, and tracks QoS-violation exposure via the
/// impaired set. Returns the network-side capacity for the admission
/// view.
#[allow(clippy::too_many_arguments)]
fn apply_capacity(
    fluid: &mut FluidEngine,
    impaired: &mut BTreeSet<ServerId>,
    link_factors: &HashMap<ServerId, Vec<f64>>,
    disk_factors: &HashMap<ServerId, Vec<f64>>,
    dyn_factors: &HashMap<ServerId, f64>,
    testbed: &TestbedConfig,
    now: SimTime,
    server: ServerId,
) -> f64 {
    let (net, effective) =
        effective_capacity(link_factors, disk_factors, dyn_factors, testbed, server);
    fluid.set_link_capacity(now, server, effective);
    if effective < testbed.link_capacity_bps {
        impaired.insert(server);
    } else {
        impaired.remove(&server);
    }
    net
}

/// Drops one ended fault window's factor (the first matching entry, so
/// overlapping identical windows compose and unwind deterministically).
fn remove_factor(factors: &mut HashMap<ServerId, Vec<f64>>, server: ServerId, factor: f64) {
    let v = factors.get_mut(&server).expect("fault window began");
    let i = v.iter().position(|&f| f == factor).expect("factor recorded at begin");
    v.remove(i);
}

fn release(state: &mut SystemState, res: ReservationId) {
    match state {
        SystemState::QosApi { api, .. } => api.release(res),
        SystemState::Quasaq { manager, .. } => manager.release_reservation(res),
        SystemState::Plain { .. } => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_done(
    done: Vec<quasaq_stream::FluidDone>,
    reservations: &mut PerSession<ReservationId>,
    state: &mut SystemState,
    outstanding: &mut LevelTracker,
    completions: &mut RateCounter,
    completed: &mut u64,
    deadlines: &mut BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: &mut PerSession<SimTime>,
    ctxs: &mut PerSession<SessionCtx>,
) {
    for d in done {
        outstanding.adjust(d.at, -1);
        completions.record(d.at);
        *completed += 1;
        if let Some(res) = reservations.remove(d.id) {
            release(state, res);
        }
        if let Some(dl) = deadline_of.remove(d.id) {
            deadlines.remove(&(dl, d.id));
        }
        ctxs.remove(d.id);
    }
}

/// One end-of-instant adaptation pass: poll the congestion watch and act
/// on every edge it reports. Onsets renegotiate up to
/// `max_downshifts_per_event` sessions on the congested server one QoP
/// ladder step down; Cleared edges renegotiate at most one previously
/// degraded session back toward its original request, rate-bounded per
/// server by `upgrade_period`. Adaptation itself moves demand, so the
/// poll loops until a quiet round — bounded, because upshifts are
/// rate-limited and downshifts stop at the ladder floor.
#[allow(clippy::too_many_arguments)]
fn run_adaptation(
    now: SimTime,
    adapt: &AdaptationConfig,
    state: &mut SystemState,
    testbed: &Testbed,
    fluid: &mut FluidEngine,
    rng: &mut Rng,
    ctxs: &mut PerSession<SessionCtx>,
    reservations: &mut PerSession<ReservationId>,
    deadlines: &mut BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: &mut PerSession<SimTime>,
    patience: Option<SimDuration>,
    access: &mut AccessStats,
    dm: &mut DegradationMetrics,
    last_upshift: &mut HashMap<ServerId, SimTime>,
    profile: &UserProfile,
    link_factors: &HashMap<ServerId, Vec<f64>>,
    disk_factors: &HashMap<ServerId, Vec<f64>>,
    dyn_factors: &HashMap<ServerId, f64>,
) {
    for _ in 0..4 {
        let events = fluid.poll_congestion(now);
        if events.is_empty() {
            break;
        }
        for ev in events {
            match ev.edge {
                CongestionEdge::Onset => {
                    dm.congestion_events += 1;
                    let (_, effective) = effective_capacity(
                        link_factors,
                        disk_factors,
                        dyn_factors,
                        &testbed.config,
                        ev.server,
                    );
                    let mut shed = 0usize;
                    for sid in fluid.sessions_on(ev.server) {
                        if shed >= adapt.max_downshifts_per_event {
                            break;
                        }
                        // Only QuaSAQ sessions carry a renegotiable plan,
                        // and the floor of the ladder stays put.
                        let Some(ctx) = ctxs.get(sid) else { continue };
                        if ctx.plan.is_none() {
                            continue;
                        }
                        let Some(next) = profile.degrade_options(&ctx.query.qos).into_iter().next()
                        else {
                            continue;
                        };
                        let hunting =
                            ctx.upshifted_at.is_some_and(|ts| now < ts + adapt.upgrade_period);
                        if let Some(moved) = renegotiate_session(
                            now,
                            state,
                            testbed,
                            fluid,
                            rng,
                            sid,
                            next,
                            ctxs,
                            reservations,
                            deadlines,
                            deadline_of,
                            patience,
                            access,
                        ) {
                            shed += 1;
                            dm.downshifts += 1;
                            if hunting {
                                dm.oscillations += 1;
                            }
                            dm.violation_secs_avoided +=
                                moved.bytes_saved.max(0.0) / effective.max(1) as f64;
                        }
                    }
                }
                CongestionEdge::Cleared => {
                    let allowed = last_upshift
                        .get(&ev.server)
                        .is_none_or(|&ts| now >= ts + adapt.upgrade_period);
                    if !allowed {
                        continue;
                    }
                    for sid in fluid.sessions_on(ev.server) {
                        let Some(ctx) = ctxs.get(sid) else { continue };
                        if ctx.plan.is_none() || ctx.query.qos == ctx.orig_qos {
                            continue;
                        }
                        let target = ctx.orig_qos.clone();
                        if let Some(moved) = renegotiate_session(
                            now,
                            state,
                            testbed,
                            fluid,
                            rng,
                            sid,
                            target,
                            ctxs,
                            reservations,
                            deadlines,
                            deadline_of,
                            patience,
                            access,
                        ) {
                            dm.upshifts += 1;
                            last_upshift.insert(ev.server, now);
                            if let Some(c) = ctxs.get_mut(moved.sid) {
                                c.upshifted_at = Some(now);
                            }
                            // One upgrade per Cleared edge: recovery is
                            // deliberately slower than degradation.
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Outcome of one successful mid-stream renegotiation.
struct Renegotiated {
    /// The session's new fluid id (cancel + re-add allocates fresh).
    sid: FluidSessionId,
    /// Bytes the re-rate took off the wire (negative for an upshift).
    bytes_saved: f64,
}

/// Renegotiates one live QuaSAQ session to `new_qos`: swaps the
/// reservation through [`QualityManager::renegotiate`] (which keeps the
/// old one on failure), then replaces the fluid session with the
/// remaining fraction of the stream at the new plan's bitrate and
/// rebinds every per-session table to the new id. Returns `None` — with
/// the session untouched — when the manager finds no feasible plan.
#[allow(clippy::too_many_arguments)]
fn renegotiate_session(
    now: SimTime,
    state: &mut SystemState,
    testbed: &Testbed,
    fluid: &mut FluidEngine,
    rng: &mut Rng,
    sid: FluidSessionId,
    new_qos: QosRange,
    ctxs: &mut PerSession<SessionCtx>,
    reservations: &mut PerSession<ReservationId>,
    deadlines: &mut BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: &mut PerSession<SimTime>,
    patience: Option<SimDuration>,
    access: &mut AccessStats,
) -> Option<Renegotiated> {
    let SystemState::Quasaq { manager, executor } = state else { return None };
    let ctx = ctxs.get(sid)?;
    let plan = ctx.plan.as_ref()?;
    let request =
        PlanRequest { video: ctx.query.video, qos: new_qos.clone(), security: QopSecurity::Open };
    let swapped = manager.renegotiate(&testbed.engine, plan, &request, rng).ok()?;
    let meta = testbed.engine.video(ctx.query.video).expect("known video");
    let (full_bytes, rate) = executor.fluid_params(&swapped.plan, meta);
    let remaining = fluid.session_backlog(sid);
    let frac = (remaining / ctx.total_bytes.max(1) as f64).clamp(0.0, 1.0);
    let bytes = resume_bytes(full_bytes, Some(frac));
    let server = swapped.plan.target_server;
    fluid.cancel_session(now, sid);
    fluid.forget_session(sid);
    let new_sid = fluid.add_session(now, server, bytes, rate).expect("fair-share admits");
    let mut ctx = ctxs.remove(sid).expect("context just read");
    // The old reservation id was consumed by the renegotiation swap —
    // drop it without releasing.
    reservations.remove(sid);
    reservations.insert(new_sid, swapped.reservation);
    if let Some(dl) = deadline_of.remove(sid) {
        deadlines.remove(&(dl, sid));
    }
    if let Some(p) = patience {
        let dl = now + nominal_duration(bytes, rate) + p;
        deadlines.insert((dl, new_sid));
        deadline_of.insert(new_sid, dl);
    }
    access.record(ctx.query.video, server);
    ctx.query.qos = new_qos;
    ctx.total_bytes = bytes;
    ctx.plan = Some(swapped);
    ctxs.insert(new_sid, ctx);
    Some(Renegotiated { sid: new_sid, bytes_saved: remaining - bytes as f64 })
}

/// One admitted session, whichever system admitted it.
struct AdmittedSession {
    sid: FluidSessionId,
    reservation: Option<ReservationId>,
    server: quasaq_sim::ServerId,
    utility: Option<f64>,
    /// Unstretched duration (bytes / rate): what playback takes when the
    /// link honours the stream's pacing rate.
    nominal: SimDuration,
    /// Bytes actually streamed (scaled down on a mid-stream failover).
    bytes: u64,
    /// The admitted plan (QuaSAQ only), handed to the session context so
    /// the adaptation loop can renegotiate it later.
    plan: Option<AdmittedPlan>,
}

/// Scales a replica's size by the fraction still owed after a failover.
fn resume_bytes(bytes: u64, resume: Option<f64>) -> u64 {
    match resume {
        Some(frac) => ((bytes as f64 * frac).ceil() as u64).max(1),
        None => bytes,
    }
}

#[allow(clippy::too_many_arguments)]
fn admit(
    state: &mut SystemState,
    testbed: &Testbed,
    q: &QueuedQuery,
    fluid: &mut FluidEngine,
    rng: &mut Rng,
    now: SimTime,
    resume: Option<f64>,
    down: &BTreeSet<ServerId>,
) -> Result<AdmittedSession, Rejection> {
    match state {
        SystemState::Plain { planner } => {
            // The plain baseline has no reservation layer to notice a dead
            // server, so the crash filter is explicit. With `down` empty
            // this is the legacy `select`, RNG draw for RNG draw.
            let choice = planner
                .select_avoiding(&testbed.engine, q.video, rng, down)
                .ok_or(Rejection::NoFeasiblePlan)?;
            let bytes = resume_bytes(choice.record.object.bytes, resume);
            let rate = choice.record.object.rate_bps;
            let sid = fluid
                .add_session(now, choice.server, bytes, rate)
                .map_err(|_| Rejection::AdmissionFailed)?;
            Ok(AdmittedSession {
                sid,
                reservation: None,
                server: choice.server,
                utility: None,
                nominal: nominal_duration(bytes, rate),
                bytes,
                plan: None,
            })
        }
        SystemState::QosApi { planner, api, headroom } => {
            let choice =
                planner.select(&testbed.engine, q.video, rng).ok_or(Rejection::NoFeasiblePlan)?;
            // The baseline has no cost model, but admission may try each
            // server holding the (full-quality) replica in random order.
            let mut servers: Vec<quasaq_sim::ServerId> = testbed
                .engine
                .replicas(q.video)
                .iter()
                .filter(|r| r.object.rate_bps == choice.record.object.rate_bps)
                .map(|r| r.object.server)
                .collect();
            servers.dedup();
            rng.shuffle(&mut servers);
            let profile = choice.record.profile;
            for server in servers {
                let demand = ResourceVector::new()
                    .with(
                        ResourceKey::new(server, ResourceKind::Cpu),
                        (profile.cpu_share * *headroom).min(1.0),
                    )
                    .with(ResourceKey::new(server, ResourceKind::NetBandwidth), profile.net_bps)
                    .with(ResourceKey::new(server, ResourceKind::DiskBandwidth), profile.disk_bps)
                    .with(ResourceKey::new(server, ResourceKind::Memory), profile.memory_bytes);
                if let Ok(res) = api.reserve(&demand) {
                    let bytes = resume_bytes(choice.record.object.bytes, resume);
                    let rate = choice.record.object.rate_bps;
                    let sid =
                        fluid.add_session(now, server, bytes, rate).expect("fair-share admits");
                    return Ok(AdmittedSession {
                        sid,
                        reservation: Some(res),
                        server,
                        utility: None,
                        nominal: nominal_duration(bytes, rate),
                        bytes,
                        plan: None,
                    });
                }
            }
            Err(Rejection::AdmissionFailed)
        }
        SystemState::Quasaq { manager, executor } => {
            let request =
                PlanRequest { video: q.video, qos: q.qos.clone(), security: QopSecurity::Open };
            let admitted = manager.process(&testbed.engine, &request, rng)?;
            let meta = testbed.engine.video(q.video).expect("known video");
            let (bytes, rate) = executor.fluid_params(&admitted.plan, meta);
            let bytes = resume_bytes(bytes, resume);
            let server = admitted.plan.target_server;
            let utility = UtilityGain { weights: QosWeights::default() }.utility(&admitted.plan);
            let sid = fluid.add_session(now, server, bytes, rate).expect("fair-share admits");
            Ok(AdmittedSession {
                sid,
                reservation: Some(admitted.reservation),
                server,
                utility: Some(utility),
                nominal: nominal_duration(bytes, rate),
                bytes,
                plan: Some(admitted),
            })
        }
    }
}

fn nominal_duration(bytes: u64, rate_bps: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / rate_bps.max(1) as f64)
}
