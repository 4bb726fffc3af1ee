//! The throughput experiment driver (Fig 6 and Fig 7).
//!
//! Feeds the same Poisson query stream into one of the three systems —
//! plain VDBMS, VDBMS + QoS API, or VDBMS + QuaSAQ (with a selectable
//! cost model) — over the fluid session engine, and records what the
//! paper plots: outstanding sessions over time (Figs 6a, 7a),
//! accomplished jobs per minute (Fig 6b), and cumulative rejects
//! (Fig 7b).
//!
//! Since the control-plane split, this driver owns only the *data plane*
//! and the experiment accounting: the fluid engine, the fault/link
//! injectors, the patience deadlines, and the metrics. Every QoS
//! *decision* — admission, retry, brownout, failover, renegotiation —
//! comes from a [`ControlPlane`] driven through the same
//! [`Command`]/[`Effect`] vocabulary the TCP shell speaks, so an
//! in-process run and a served run make bit-identical decisions for the
//! same command sequence. The facade's `tests/driver_fingerprints.rs`
//! pins this loop by recorded result digests over a fixed table of
//! systems, load shapes, crash plans and link processes.

use crate::testbed::{CostKind, Testbed, TestbedConfig};
use crate::traffic::{generate_queries, qop_class, GeneratedQuery, QopMix, TrafficConfig};
use quasaq_core::{PlanExecutor, PlanRequest, QopSecurity};
use quasaq_service::{
    AdaptPolicy, Admission, AdmissionConfig, AdmitOrigin, Candidate, Command, ControlPlane,
    Degraded, Effect, PlaneConfig, QueueMetrics, Renegotiation, SessionId, SystemCore,
};
use quasaq_sim::link::SharePolicy;
use quasaq_sim::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, LevelTracker, LinkInjector, LinkPlan,
    LinkSpec, OnlineStats, RateCounter, Series, ServerId, SimDuration, SimTime,
};
use quasaq_store::{AccessStats, MetadataEngine};
use quasaq_stream::{CongestionConfig, CongestionEdge, FluidEngine, FluidSessionId};
use quasaq_vdbms::{BaselineKind, BaselinePlanner, QueuedQuery};
use std::collections::{BTreeSet, HashMap};

/// Which system services the query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Plain VDBMS: admit everything, stream the original best-effort.
    Vdbms,
    /// VDBMS with the QoS API: reserve the full-quality stream, reject on
    /// saturation.
    VdbmsQosApi,
    /// Full QuaSAQ with the given cost model.
    Quasaq(CostKind),
}

impl SystemKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> String {
        match self {
            SystemKind::Vdbms => "VDBMS".to_string(),
            SystemKind::VdbmsQosApi => "VDBMS+QoS API".to_string(),
            SystemKind::Quasaq(c) => format!("VDBMS+QuaSAQ({})", c.label()),
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Deployment.
    pub testbed: TestbedConfig,
    /// Run length (Fig 6: 1000 s; Fig 7: 7000 s).
    pub horizon: SimTime,
    /// Sampling step for the outstanding-sessions series.
    pub sample_step: SimDuration,
    /// Master seed (traffic and tie-breaking).
    pub seed: u64,
    /// Zipf skew over videos (0 = the paper's uniform access).
    pub video_skew: f64,
    /// Distribution of requested QoP parameters. `QopMix::Uniform` is the
    /// paper's stated generator (and the legacy RNG-identical path);
    /// `QopMix::PaperSkewed` is calibrated to the published Fig 6 factor.
    pub qop_mix: QopMix,
    /// Restrict QuaSAQ plans to the replica's own site (placement
    /// studies; the paper's default allows cross-site delivery).
    pub local_plans_only: bool,
    /// Queued admission front end: rejected queries wait, back off,
    /// degrade, and eventually give up, and admitted best-effort sessions
    /// are abandoned once they overrun their nominal duration by more
    /// than the patience window. `None` keeps the legacy fire-and-forget
    /// client (bit-identical to runs before the queue existed).
    pub admission: Option<AdmissionConfig>,
    /// Fault schedule: server crashes, link degradations, and disk
    /// slowdowns injected mid-run. `None` disables the injector entirely
    /// (bit-identical to runs before fault injection existed).
    pub faults: Option<FaultPlan>,
    /// Mean query inter-arrival time. `None` keeps the paper's 1 s
    /// Poisson stream; scaling studies shrink it so a hundred-server
    /// cluster actually sees load.
    pub arrival_period: Option<SimDuration>,
    /// Queries per arrival instant (flash crowds). `1` keeps the paper's
    /// one-query-per-arrival Poisson stream, bit-identical to runs before
    /// bursts existed.
    pub arrival_burst: usize,
    /// Memoize plan enumeration in the Quality Manager (QuaSAQ systems
    /// only). Admission decisions are bit-identical either way — the cache
    /// holds only each request's delivery options, and feasibility,
    /// ranking and reservation run live — so this is purely a
    /// constant-factor switch; the workload proptests hold it to that.
    pub plan_cache: bool,
    /// Ignored: every run steps its server domains in one serial pass.
    /// Kept only so existing benchmark harnesses that set or check it
    /// still build; nothing in the driver reads it.
    pub domain_workers: usize,
    /// Stochastic link dynamics: a per-server capacity set-point timeline
    /// (sampled Markov/fading/diurnal trajectories or explicit
    /// set-points). Unlike `faults`, set-points also re-rate the
    /// admission view, so reservation-based systems plan against the
    /// capacity the network actually has. `None` disables the injector
    /// entirely (bit-identical to runs before link dynamics existed).
    pub links: Option<LinkPlan>,
    /// Congestion-driven graceful degradation: watch per-server offered
    /// load, renegotiate QuaSAQ sessions down the QoP ladder on sustained
    /// congestion (and back up on recovery, rate-bounded), and shed
    /// arrivals by service class while the cluster is browned out. `None`
    /// keeps every session at its admitted quality (legacy behaviour).
    pub adaptation: Option<AdaptationConfig>,
}

/// Parameters of the congestion-adaptation loop.
#[derive(Debug, Clone)]
pub struct AdaptationConfig {
    /// Congestion watermarks and dwell (hysteresis in level and time).
    pub congestion: CongestionConfig,
    /// Minimum spacing between upshifts on one server. Downshifts are
    /// never delayed; this one-sided bound is what keeps the loop from
    /// oscillating (a session upgraded at `t` cannot be re-upgraded
    /// before `t + upgrade_period`, and a downshift inside that window is
    /// counted as an oscillation).
    pub upgrade_period: SimDuration,
    /// Cap on sessions renegotiated per congestion-onset event.
    pub max_downshifts_per_event: usize,
    /// Brownout threshold: admission starts shedding by service class
    /// once at least this fraction of servers is congested.
    pub brownout_ratio: f64,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            congestion: CongestionConfig::default(),
            upgrade_period: SimDuration::from_secs(30),
            max_downshifts_per_event: 4,
            brownout_ratio: 0.25,
        }
    }
}

/// What the adaptation loop did over one run. `PartialEq` compares floats
/// bit-for-bit for the serial-vs-parallel determinism checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationMetrics {
    /// Congestion-onset events (a server crossing the high watermark and
    /// dwelling there).
    pub congestion_events: u64,
    /// Server-seconds spent in the congested state.
    pub congested_secs: f64,
    /// Sessions renegotiated down the QoP ladder by the adaptation loop.
    pub downshifts: u64,
    /// Sessions renegotiated back toward their original request after a
    /// server cleared.
    pub upshifts: u64,
    /// Downshifts that undid an upshift within one `upgrade_period` —
    /// the loop hunting instead of settling.
    pub oscillations: u64,
    /// Estimated QoS-violation exposure avoided by downshifts: the bytes
    /// each renegotiation took off the wire, over the victim server's
    /// effective capacity at that instant.
    pub violation_secs_avoided: f64,
    /// Brownout admissions served one ladder step below their request.
    pub brownout_degraded: u64,
    /// Arrivals turned away by brownout shedding (Economy class, plus
    /// degrade-then-reject failures).
    pub brownout_rejected: u64,
}

impl ThroughputConfig {
    /// The Fig 6 configuration (1000 s horizon).
    pub fn fig6() -> Self {
        ThroughputConfig {
            testbed: TestbedConfig::default(),
            horizon: SimTime::from_secs(1000),
            sample_step: SimDuration::from_secs(10),
            seed: 7,
            video_skew: 0.0,
            qop_mix: QopMix::Uniform,
            local_plans_only: false,
            admission: None,
            faults: None,
            arrival_period: None,
            arrival_burst: 1,
            plan_cache: false,
            domain_workers: 0,
            links: None,
            adaptation: None,
        }
    }

    /// The Fig 7 configuration (7000 s horizon).
    pub fn fig7() -> Self {
        ThroughputConfig { horizon: SimTime::from_secs(7000), ..Self::fig6() }
    }

    /// The Fig 6 configuration behind the queued admission front end with
    /// default backoff and patience.
    pub fn queued() -> Self {
        ThroughputConfig { admission: Some(AdmissionConfig::default()), ..Self::fig6() }
    }

    /// The availability-under-faults configuration: Fig 6 load with the
    /// queued front end, one server crashing at t = 1000 s and restarting
    /// at t = 2000 s inside a 3000 s horizon.
    pub fn availability() -> Self {
        ThroughputConfig {
            horizon: SimTime::from_secs(3000),
            faults: Some(FaultPlan::crash_restart(
                ServerId(0),
                SimTime::from_secs(1000),
                SimTime::from_secs(2000),
            )),
            ..Self::queued()
        }
    }

    /// The degradation-under-congestion configuration: Fig 6 load while
    /// every server's link follows a sampled Markov good/degraded/bad
    /// trajectory, with the adaptation loop renegotiating sessions and
    /// browning out admission under sustained overload.
    pub fn stochastic() -> Self {
        let base = Self::fig6();
        let servers = ServerId::first_n(base.testbed.servers);
        ThroughputConfig {
            links: Some(LinkPlan::sample(
                base.seed,
                servers,
                base.horizon,
                quasaq_sim::LinkModel::Markov {
                    factors: [1.0, 0.5, 0.2],
                    dwell: [
                        SimDuration::from_secs(120),
                        SimDuration::from_secs(60),
                        SimDuration::from_secs(30),
                    ],
                },
            )),
            adaptation: Some(AdaptationConfig::default()),
            ..base
        }
    }
}

/// Robustness accounting for a fault-injected run. `PartialEq` compares
/// floats bit-for-bit for the serial-vs-parallel determinism checks.
///
/// Every interrupted session reaches exactly one fate, so
/// `interrupted == failed_over + recovered + dropped` at the end of a
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultMetrics {
    /// Sessions cut mid-stream by a server crash.
    pub interrupted: u64,
    /// Interrupted sessions immediately re-admitted on a surviving
    /// replica site, resuming their remaining bytes.
    pub failed_over: u64,
    /// Failovers that renegotiated down the QoP ladder because no
    /// survivor could carry the original quality.
    pub failover_degraded: u64,
    /// Interrupted sessions that re-entered the admission queue after
    /// failover found no feasible replica.
    pub requeued: u64,
    /// Requeued sessions eventually re-serviced (restarting from the
    /// beginning — a queue re-entry is a restart, not a resume).
    pub recovered: u64,
    /// Interrupted sessions lost for good: no survivor, no queue (or
    /// dropped by it), or still waiting at the horizon.
    pub dropped: u64,
    /// Seconds from interruption to re-service, over every session that
    /// was re-serviced (0 for an instant failover).
    pub recovery: OnlineStats,
    /// Session-seconds streamed on servers whose effective capacity was
    /// degraded below nominal (QoS-violation exposure).
    pub qos_violation_secs: f64,
}

/// Everything the paper plots for one run. `PartialEq` compares every
/// field (floats bit-for-bit via their numeric equality), which is what
/// the parallel-runner determinism checks rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputResult {
    /// System label.
    pub label: String,
    /// Outstanding sessions sampled over time (Figs 6a, 7a).
    pub outstanding: Series,
    /// Completed jobs per minute (Fig 6b).
    pub completions_per_min: RateCounter,
    /// Cumulative rejects over time (Fig 7b).
    pub rejects: Series,
    /// Total queries issued.
    pub queries: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Queries rejected.
    pub rejected: u64,
    /// Sessions completed within the horizon.
    pub completed: u64,
    /// Which video was served from which server, per admitted session
    /// (drives the online-migration extension).
    pub access: AccessStats,
    /// Mean perceptual utility of admitted plans (QuaSAQ systems only).
    pub mean_utility: Option<f64>,
    /// Queue metrics when the admission front end was enabled.
    pub queue: Option<QueueMetrics>,
    /// Robustness metrics when fault injection or link dynamics were
    /// enabled.
    pub faults: Option<FaultMetrics>,
    /// Adaptation metrics when the congestion loop was enabled.
    pub degradation: Option<DegradationMetrics>,
}

impl ThroughputResult {
    /// Mean outstanding sessions over the stable stage (second half of the
    /// run).
    pub fn stable_outstanding(&self, horizon: SimTime) -> f64 {
        self.outstanding
            .window_mean(horizon.halved(), horizon + SimDuration::from_secs(1))
            .unwrap_or(0.0)
    }

    /// p95 admission wait in seconds (from the queue's quantile sketch;
    /// `None` without the front end or when nothing was admitted).
    pub fn queue_wait_p95(&self) -> Option<f64> {
        self.queue.as_ref().and_then(|q| q.wait.p95())
    }

    /// p99 admission wait in seconds (see [`Self::queue_wait_p95`]).
    pub fn queue_wait_p99(&self) -> Option<f64> {
        self.queue.as_ref().and_then(|q| q.wait.p99())
    }
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
}

/// Two-way binding between the fluid engine's session ids (the data
/// plane) and the control plane's session handles. Renegotiations retire
/// the fluid id but keep the control-plane handle, so neither side can be
/// the other's key.
struct SessionMap {
    /// Fluid id → control-plane session.
    session_of: PerSession<SessionId>,
    /// Control-plane session → current fluid id (dense: plane ids
    /// allocate from 0).
    fluid_of: Vec<Option<FluidSessionId>>,
}

impl SessionMap {
    fn new() -> Self {
        SessionMap { session_of: PerSession::new(), fluid_of: Vec::new() }
    }

    fn bind(&mut self, fluid: FluidSessionId, session: SessionId) {
        self.session_of.insert(fluid, session);
        let i = session.0 as usize;
        if i >= self.fluid_of.len() {
            self.fluid_of.resize(i + 1, None);
        }
        self.fluid_of[i] = Some(fluid);
    }

    /// Drops the binding by fluid id (completion, patience cancel,
    /// crash), returning the control-plane session to tear down.
    fn unbind(&mut self, fluid: FluidSessionId) -> Option<SessionId> {
        let session = self.session_of.remove(fluid)?;
        self.fluid_of[session.0 as usize] = None;
        Some(session)
    }

    /// Drops the binding by control-plane session (renegotiation),
    /// returning the fluid id to cancel.
    fn take_fluid(&mut self, session: SessionId) -> Option<FluidSessionId> {
        let fluid = self.fluid_of.get_mut(session.0 as usize)?.take()?;
        self.session_of.remove(fluid);
        Some(fluid)
    }

    fn get(&self, fluid: FluidSessionId) -> Option<SessionId> {
        self.session_of.0.get(fluid.0).and_then(|s| *s)
    }
}

/// Runs one system against the shared query stream on the (process-wide,
/// immutably shared) testbed for `cfg.testbed`. Runs never mutate the
/// testbed, so N system-variants over one deployment pay for catalog
/// generation once; callers that *do* mutate the replica layout build
/// their own testbed and use [`run_throughput_on`].
pub fn run_throughput(system: SystemKind, cfg: &ThroughputConfig) -> ThroughputResult {
    let testbed = Testbed::shared(cfg.testbed.clone());
    run_throughput_on(&testbed, system, cfg)
}

/// Runs one system against the query stream on an existing testbed (so
/// callers can mutate the replica layout between runs, e.g. for the
/// online-migration extension).
pub fn run_throughput_on(
    testbed: &Testbed,
    system: SystemKind,
    cfg: &ThroughputConfig,
) -> ThroughputResult {
    let queries = arrival_stream(testbed, cfg);
    let core = build_core(testbed, system, cfg);
    let adapt = cfg.adaptation.as_ref();

    // The control plane makes every decision this driver used to make
    // inline, consuming the identical RNG stream in the identical order.
    let mut plane = ControlPlane::new(
        core,
        PlaneConfig {
            seed: cfg.seed ^ 0x9e37_79b9,
            admission: cfg.admission.clone(),
            adaptation: adapt.map(|a| AdaptPolicy {
                upgrade_period: a.upgrade_period,
                max_downshifts_per_event: a.max_downshifts_per_event,
            }),
            // Per-session request context is needed by both the
            // crash-failover path and the adaptation loop.
            track_ctx: cfg.faults.is_some() || adapt.is_some(),
        },
    );
    let mut dp = DataPlane::new(testbed, cfg);
    let mut ctl = Control { plane: &mut plane, engine: &testbed.engine, effects: Vec::new() };

    // Fault windows and link set-points replay as (time, seq)-ordered
    // timelines. Both are empty when their config is `None`, so the legacy
    // event sequence — and every RNG draw — is untouched.
    let fault_plan = cfg.faults.clone().unwrap_or_default();
    let mut injector = FaultInjector::new(&fault_plan);
    let link_plan = cfg.links.clone().unwrap_or_default();
    let mut link_injector = LinkInjector::new(&link_plan);
    let queue_on = cfg.admission.is_some();

    let mut qi = 0usize;
    loop {
        let due = |at: Option<SimTime>| at.filter(|&t| t <= cfg.horizon);
        let tq = queries.get(qi).map(|q| q.at);
        let sources = [
            tq,
            due(dp.fluid.next_event()),
            due(ctl.plane.next_ready()),
            due(dp.next_deadline()),
            due(injector.next_at()),
            due(link_injector.next_at()),
            due(dp.fluid.congestion_next_at()),
        ];
        let Some(t) = sources.into_iter().flatten().min() else { break };
        if t > cfg.horizon {
            break;
        }
        // Completions first, then patience: finishing exactly on the
        // deadline counts as done.
        dp.advance(t, &mut ctl);
        dp.expire_deadlines(t, &mut ctl);
        // Fault edges fire after completions and patience (a session
        // finishing at the crash instant made it) and before link
        // set-points (a set-point and a fault window at one instant
        // compose in plan order), retries, and arrivals, which must all
        // see the post-fault world.
        while let Some(ev) = injector.pop_due(t) {
            dp.fault(t, ev, &mut ctl);
        }
        while let Some(spec) = link_injector.pop_due(t) {
            dp.set_point(t, spec, &mut ctl);
        }
        // Retries due now run before the new arrival: they have waited
        // longer.
        if queue_on {
            ctl.send(&mut dp, t, Command::Tick { now: t });
        }
        if tq == Some(t) {
            // Every query arriving at this exact instant forms one batch (a
            // flash-crowd burst under `arrival_burst > 1`; always a single
            // query for Poisson arrivals).
            let batch_end = qi + queries[qi..].iter().take_while(|q| q.at == t).count();
            dp.admit_batch(t, &queries[qi..batch_end], &mut ctl);
            qi = batch_end;
        }
        if adapt.is_some() {
            dp.poll_congestion(t, &mut ctl);
        }
    }
    dp.advance(cfg.horizon, &mut ctl);
    // Whoever is still waiting never got served: fresh queries fold into
    // the rejected count so `admitted + rejected == queries` holds;
    // displaced sessions still waiting are lost to the fault accounting.
    if queue_on {
        ctl.send(&mut dp, cfg.horizon, Command::Finish);
    }
    let (_, queue) = plane.into_parts();
    dp.into_result(system.label(), queries.len() as u64, queue)
}

/// The exact query stream a config drives: the paper's Poisson process
/// over the testbed's catalog, seeded from the run seed. Public so the
/// runtime shell's load generator can replay the same arrivals a driver
/// run would see.
pub fn arrival_stream(testbed: &Testbed, cfg: &ThroughputConfig) -> Vec<GeneratedQuery> {
    let mut traffic = TrafficConfig::paper(testbed.library.len(), cfg.horizon);
    traffic.video_skew = cfg.video_skew;
    traffic.qop_mix = cfg.qop_mix;
    if let Some(period) = cfg.arrival_period {
        traffic.mean_interarrival = period;
    }
    traffic.burst = cfg.arrival_burst.max(1);
    generate_queries(cfg.seed ^ 0x51ab_17e5, &traffic)
}

/// The system under test as a control-plane core, built exactly the way
/// the in-process driver builds it. Public so the TCP shell serves the
/// same planners and cost models the experiments measure.
pub fn build_core(testbed: &Testbed, system: SystemKind, cfg: &ThroughputConfig) -> SystemCore {
    match system {
        SystemKind::Vdbms => {
            SystemCore::Plain { planner: BaselinePlanner::new(BaselineKind::Plain) }
        }
        SystemKind::VdbmsQosApi => SystemCore::QosApi {
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
            SystemCore::Quasaq {
                manager,
                executor: PlanExecutor { cost: cfg.testbed.cost, ..PlanExecutor::default() },
            }
        }
    }
}

/// The control plane as the driver talks to it: the plane, the catalog
/// it plans against, and one reused scratch vector for every command's
/// effects.
struct Control<'a> {
    plane: &'a mut ControlPlane,
    engine: &'a MetadataEngine,
    effects: Vec<Effect>,
}

impl Control<'_> {
    /// Applies one command and mirrors every effect it produced into the
    /// data plane at instant `t`.
    fn send(&mut self, dp: &mut DataPlane, t: SimTime, cmd: Command) {
        self.effects.clear();
        self.plane.handle_into(self.engine, cmd, &mut self.effects);
        for e in &self.effects {
            dp.mirror(t, e);
        }
    }
}

/// Everything the driver owns besides the control plane: the fluid
/// engine and its session bindings, the patience deadlines, the fault and
/// link capacity factors, and the experiment accounting.
struct DataPlane<'a> {
    cfg: &'a ThroughputConfig,
    fluid: FluidEngine,
    map: SessionMap,
    patience: Option<SimDuration>,
    /// Mid-stream give-up deadlines, ordered for the event loop, plus a
    /// reverse index for completion-time removal. Both stay empty when
    /// the front end is disabled, so the legacy event sequence is
    /// untouched.
    deadlines: BTreeSet<(SimTime, FluidSessionId)>,
    deadline_of: PerSession<SimTime>,
    /// Overlapping fault windows compose: crashes nest by depth, capacity
    /// factors multiply (in stable order, so the float product is a pure
    /// function of the plan).
    crash_depth: HashMap<ServerId, u32>,
    link_factors: HashMap<ServerId, Vec<f64>>,
    disk_factors: HashMap<ServerId, Vec<f64>>,
    /// One dynamic link-plan factor per server, composed into the same
    /// effective capacity the fault windows feed.
    dyn_factors: HashMap<ServerId, f64>,
    /// Servers whose effective capacity sits below nominal.
    impaired: BTreeSet<ServerId>,
    /// QoS-violation exposure is accounted whenever anything can degrade
    /// capacity mid-run.
    watch_capacity: bool,
    violation_t: SimTime,
    congested_t: SimTime,
    outstanding: LevelTracker,
    completions: RateCounter,
    rejects: Series,
    admitted: u64,
    rejected: u64,
    completed: u64,
    access: AccessStats,
    utility_sum: f64,
    utility_n: u64,
    fm: FaultMetrics,
    dm: DegradationMetrics,
}

impl<'a> DataPlane<'a> {
    fn new(testbed: &Testbed, cfg: &'a ThroughputConfig) -> Self {
        // All systems pace sessions at their stream rate on fair-share
        // links; reservation-based systems enforce admission in the QoS
        // API, so the link never oversubscribes for them.
        let mut fluid = FluidEngine::new(
            testbed.servers(),
            SharePolicy::FairShare,
            cfg.testbed.link_capacity_bps,
        );
        if let Some(a) = &cfg.adaptation {
            fluid.enable_congestion(a.congestion);
        }
        DataPlane {
            cfg,
            fluid,
            map: SessionMap::new(),
            patience: cfg.admission.as_ref().map(|a| a.patience),
            deadlines: BTreeSet::new(),
            deadline_of: PerSession::new(),
            crash_depth: HashMap::new(),
            link_factors: HashMap::new(),
            disk_factors: HashMap::new(),
            dyn_factors: HashMap::new(),
            impaired: BTreeSet::new(),
            watch_capacity: cfg.faults.is_some() || cfg.links.is_some(),
            violation_t: SimTime::ZERO,
            congested_t: SimTime::ZERO,
            outstanding: LevelTracker::new(),
            completions: RateCounter::new(SimDuration::from_secs(60)),
            rejects: Series::new(),
            admitted: 0,
            rejected: 0,
            completed: 0,
            access: AccessStats::new(),
            utility_sum: 0.0,
            utility_n: 0,
            fm: FaultMetrics::default(),
            dm: DegradationMetrics::default(),
        }
    }

    /// Mirrors one effect into the data plane and the accounting. The
    /// effect alone decides what happens — its `AdmitOrigin` and
    /// `Degraded` say how an admission counts — never the command that
    /// produced it.
    fn mirror(&mut self, t: SimTime, effect: &Effect) {
        match effect {
            Effect::Admitted(adm) => {
                match adm.origin {
                    // Displaced sessions were admitted once already:
                    // count their re-service, not a second admission.
                    AdmitOrigin::Failover => {
                        self.fm.failed_over += 1;
                        self.fm.recovery.push(0.0);
                    }
                    AdmitOrigin::Recovery { interrupted_at } => {
                        self.fm.recovered += 1;
                        self.fm.recovery.push((t - interrupted_at).as_secs_f64());
                    }
                    AdmitOrigin::Arrival | AdmitOrigin::Retry { .. } => self.admitted += 1,
                }
                match adm.degraded {
                    Degraded::Brownout => self.dm.brownout_degraded += 1,
                    Degraded::Failover { steps } if steps > 0 => self.fm.failover_degraded += 1,
                    _ => {}
                }
                self.outstanding.adjust(t, 1);
                self.access.record(adm.video, adm.server);
                if let Some(u) = adm.utility {
                    self.utility_sum += u;
                    self.utility_n += 1;
                }
                self.start_stream(t, adm);
            }
            Effect::Rejected { reason, .. } => {
                if reason.is_brownout() {
                    self.dm.brownout_rejected += 1;
                }
                self.rejected += 1;
                self.rejects.push(t, self.rejected as f64);
            }
            Effect::Requeued => self.fm.requeued += 1,
            Effect::Dropped => self.fm.dropped += 1,
            Effect::Renegotiated(r) => self.apply_renegotiation(t, r),
            Effect::Finished { pending, displaced_pending } => {
                if *pending > 0 {
                    self.rejected += pending;
                    self.rejects.push(t, self.rejected as f64);
                }
                self.fm.dropped += displaced_pending;
            }
            // Nothing to mirror: a parked retry surfaces later from `Tick`,
            // and a teardown's release already happened in the plane.
            Effect::Queued | Effect::TornDown { .. } | Effect::Stats(_) | Effect::Error(_) => {}
        }
    }

    /// Earliest patience deadline.
    fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.iter().next().map(|&(t, _)| t)
    }

    /// Accounts exposure up to `t`, advances the fluid engine, and tears
    /// every finished stream down (releasing its reservation).
    fn advance(&mut self, t: SimTime, ctl: &mut Control) {
        // The active and congested sets only change at processed
        // instants (the congested set flips inside `poll_congestion`), so
        // both exposures over `[.._t, t]` are exact.
        if self.watch_capacity && t > self.violation_t {
            for &s in &self.impaired {
                self.fm.qos_violation_secs +=
                    self.fluid.active_on(s) as f64 * (t - self.violation_t).as_secs_f64();
            }
            self.violation_t = t;
        }
        if self.cfg.adaptation.is_some() && t > self.congested_t {
            self.dm.congested_secs +=
                self.fluid.congested_servers() as f64 * (t - self.congested_t).as_secs_f64();
            self.congested_t = t;
        }
        self.fluid.advance_to(t);
        for d in self.fluid.drain_completions() {
            self.outstanding.adjust(d.at, -1);
            self.completions.record(d.at);
            self.completed += 1;
            let session = self.retire(d.id).expect("completed sessions are bound");
            ctl.send(self, d.at, Command::Teardown { session, abandoned: false, now: d.at });
        }
    }

    /// Mid-stream patience: cancels sessions that overran their nominal
    /// duration by more than the patience window.
    fn expire_deadlines(&mut self, t: SimTime, ctl: &mut Control) {
        while let Some(&(dt, sid)) = self.deadlines.iter().next() {
            if dt > t {
                break;
            }
            self.fluid.cancel_session(t, sid);
            self.outstanding.adjust(t, -1);
            let session = self.retire(sid).expect("deadline sessions are bound");
            ctl.send(self, t, Command::Teardown { session, abandoned: true, now: t });
        }
    }

    /// Drops a fluid session's deadline and binding, returning the
    /// control-plane session to tear down or displace.
    fn retire(&mut self, sid: FluidSessionId) -> Option<SessionId> {
        if let Some(dl) = self.deadline_of.remove(sid) {
            self.deadlines.remove(&(dl, sid));
        }
        self.map.unbind(sid)
    }

    /// Applies one fault-window edge.
    fn fault(&mut self, t: SimTime, ev: FaultEvent, ctl: &mut Control) {
        let (spec, begin) = match ev {
            FaultEvent::Begin(spec) => (spec, true),
            FaultEvent::End(spec) => (spec, false),
        };
        let (factors, factor) = match spec.kind {
            FaultKind::ServerCrash => return self.crash(t, spec.server, begin, ctl),
            FaultKind::LinkDegradation { factor } => (&mut self.link_factors, factor),
            FaultKind::DiskSlowdown { factor } => (&mut self.disk_factors, factor),
        };
        let v = factors.entry(spec.server).or_default();
        if begin {
            v.push(factor);
        } else {
            // The first matching entry, so overlapping identical windows
            // compose and unwind deterministically.
            let i = v.iter().position(|&f| f == factor).expect("factor recorded at begin");
            v.remove(i);
        }
        self.apply_capacity(t, spec.server);
    }

    /// A crash window's edge. Nested windows only act at the outermost
    /// begin and end.
    fn crash(&mut self, t: SimTime, server: ServerId, begin: bool, ctl: &mut Control) {
        let depth = self.crash_depth.entry(server).or_insert(0);
        if !begin {
            *depth -= 1;
            if *depth == 0 {
                ctl.send(self, t, Command::ServerUp { server });
            }
            return;
        }
        *depth += 1;
        if *depth > 1 {
            return;
        }
        // Bar the dead server from admission and bulk-release its
        // reservations so new admissions route around it, then displace
        // its in-flight sessions and let the plane try to fail each one
        // over.
        ctl.send(self, t, Command::ServerDown { server });
        for (sid, remaining) in self.fluid.fail_server(t, server) {
            self.outstanding.adjust(t, -1);
            self.fm.interrupted += 1;
            let session = self.retire(sid).expect("live sessions are bound");
            ctl.send(self, t, Command::Displace { session, remaining, now: t });
        }
    }

    /// Applies one link set-point. Unlike fault windows, set-points also
    /// move the admission view: the reservation systems should plan
    /// against the capacity the network actually has.
    fn set_point(&mut self, t: SimTime, spec: LinkSpec, ctl: &mut Control) {
        self.dyn_factors.insert(spec.server, spec.factor);
        let bps = self.apply_capacity(t, spec.server);
        ctl.send(self, t, Command::SetNetCapacity { server: spec.server, bps });
    }

    /// Admits one same-instant arrival batch in arrival order.
    fn admit_batch(&mut self, t: SimTime, batch: &[GeneratedQuery], ctl: &mut Control) {
        // With the plan cache on, the bulk-admit path warms the cache for
        // the whole batch first — requests sorted by cache key, each
        // distinct enumeration done once. Prefetching consumes no RNG and
        // reserves nothing, so the decisions are bit-identical to cold
        // processing.
        if batch.len() > 1 && ctl.plane.wants_prefetch() {
            let requests = batch
                .iter()
                .map(|q| PlanRequest {
                    video: q.video,
                    qos: q.qos.clone(),
                    security: QopSecurity::Open,
                })
                .collect();
            ctl.send(self, t, Command::Prefetch { requests });
        }
        // Brownout: once enough of the cluster sits congested, the front
        // door sheds by service class — Economy requests are refused
        // outright, richer requests are admitted one ladder step down or
        // refused, and nothing queues (a browned-out system must shed
        // load now, not promise it later). The congested set is frozen
        // for the whole instant (it only moves in the end-of-instant
        // poll), so every query in a burst sees the same policy.
        let brownout = self.cfg.adaptation.as_ref().is_some_and(|a| {
            let congested = self.fluid.congested_servers();
            congested > 0 && congested as f64 >= a.brownout_ratio * self.cfg.testbed.servers as f64
        });
        for q in batch {
            let query = QueuedQuery { video: q.video, qos: q.qos.clone() };
            let class = qop_class(&q.qop);
            ctl.send(self, t, Command::Admit { query, class, brownout, now: t });
        }
    }

    /// End-of-instant congestion poll. Demand ratios only move at
    /// processed instants (session adds, completions, cancellations,
    /// re-rates), so polling here sees every edge exactly when it
    /// happens; the loop's congestion time source wakes it for pure dwell
    /// expiries. Adaptation itself moves demand, so the poll repeats until
    /// a quiet round — bounded, because upshifts are rate-limited and
    /// downshifts stop at the ladder floor.
    fn poll_congestion(&mut self, t: SimTime, ctl: &mut Control) {
        for _ in 0..4 {
            let events = self.fluid.poll_congestion(t);
            if events.is_empty() {
                break;
            }
            for ev in events {
                // The plane decides who to renegotiate and to what; the
                // data plane reports the candidates with their backlogs.
                let candidates: Vec<Candidate> = self
                    .fluid
                    .sessions_on(ev.server)
                    .into_iter()
                    .filter_map(|sid| {
                        self.map.get(sid).map(|session| Candidate {
                            session,
                            backlog: self.fluid.session_backlog(sid),
                        })
                    })
                    .collect();
                let server = ev.server;
                let cmd = match ev.edge {
                    CongestionEdge::Onset => {
                        self.dm.congestion_events += 1;
                        Command::CongestionOnset { server, candidates, now: t }
                    }
                    CongestionEdge::Cleared => {
                        Command::CongestionCleared { server, candidates, now: t }
                    }
                };
                ctl.send(self, t, cmd);
            }
        }
    }

    /// A server's composed capacity right now: the fault windows' factors
    /// multiplied with the link plan's dynamic set-point. Returns
    /// `(net, effective)` — the network side alone (what the admission
    /// view tracks on the links path) and `min(net, disk)` (what the fluid
    /// link carries; a slow disk starves the link). Both floored at 1
    /// byte/s so in-flight transfers keep draining. The dynamic factor
    /// multiplies last (and defaults to exactly 1.0), so fault-only runs
    /// compute the same float product they always did.
    fn effective_capacity(&self, server: ServerId) -> (f64, u64) {
        let product =
            |m: &HashMap<ServerId, Vec<f64>>| m.get(&server).map_or(1.0, |v| v.iter().product());
        let tb = &self.cfg.testbed;
        let net = tb.link_capacity_bps as f64
            * product(&self.link_factors)
            * self.dyn_factors.get(&server).copied().unwrap_or(1.0);
        let disk = tb.disk_bps * product(&self.disk_factors);
        (net.max(1.0), (net.min(disk).max(1.0)) as u64)
    }

    /// Re-applies a server's effective capacity after its fault factors or
    /// dynamic set-point changed, and tracks QoS-violation exposure via
    /// the impaired set. Returns the network-side capacity for the
    /// admission view.
    fn apply_capacity(&mut self, now: SimTime, server: ServerId) -> f64 {
        let (net, effective) = self.effective_capacity(server);
        self.fluid.set_link_capacity(now, server, effective);
        if effective < self.cfg.testbed.link_capacity_bps {
            self.impaired.insert(server);
        } else {
            self.impaired.remove(&server);
        }
        net
    }

    /// Mirrors an admission into the data plane: starts the fluid stream,
    /// binds the ids, and arms the patience deadline. Under the fair-share
    /// policy the link always accepts a new session (it stretches instead
    /// of refusing), so this cannot fail.
    fn start_stream(&mut self, now: SimTime, adm: &Admission) {
        let sid = self
            .fluid
            .add_session(now, adm.server, adm.bytes, adm.rate_bps)
            .expect("fair-share admits");
        self.bind(now, sid, adm.session, adm.nominal);
    }

    /// Binds a fresh fluid session to its control-plane session and arms
    /// its patience deadline.
    fn bind(
        &mut self,
        now: SimTime,
        sid: FluidSessionId,
        session: SessionId,
        nominal: SimDuration,
    ) {
        self.map.bind(sid, session);
        if let Some(p) = self.patience {
            let dl = now + nominal + p;
            self.deadlines.insert((dl, sid));
            self.deadline_of.insert(sid, dl);
        }
    }

    /// Mirrors a renegotiation into the data plane: replaces the fluid
    /// session with the remaining bytes at the new rate and rebinds every
    /// per-session table to the new id (cancel + re-add allocates fresh).
    fn apply_renegotiation(&mut self, now: SimTime, r: &Renegotiation) {
        let old = self.map.take_fluid(r.session).expect("renegotiated sessions are live");
        if r.downshift {
            self.dm.downshifts += 1;
            if r.hunting {
                self.dm.oscillations += 1;
            }
            // The victim streamed from the congested server; the re-rate
            // took its saved bytes off that server's effective capacity.
            let (_, effective) = self.effective_capacity(self.fluid.session_server(old));
            self.dm.violation_secs_avoided += r.bytes_saved.max(0.0) / effective.max(1) as f64;
        } else {
            self.dm.upshifts += 1;
        }
        self.fluid.cancel_session(now, old);
        self.fluid.forget_session(old);
        if let Some(dl) = self.deadline_of.remove(old) {
            self.deadlines.remove(&(dl, old));
        }
        let new_sid =
            self.fluid.add_session(now, r.server, r.bytes, r.rate_bps).expect("fair-share admits");
        self.bind(now, new_sid, r.session, r.nominal);
        self.access.record(r.video, r.server);
    }

    fn into_result(
        self,
        label: String,
        queries: u64,
        queue: Option<QueueMetrics>,
    ) -> ThroughputResult {
        ThroughputResult {
            label,
            outstanding: self.outstanding.sample(self.cfg.sample_step, self.cfg.horizon),
            completions_per_min: self.completions,
            rejects: self.rejects,
            queries,
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.completed,
            access: self.access,
            mean_utility: (self.utility_n > 0).then(|| self.utility_sum / self.utility_n as f64),
            queue,
            faults: self.watch_capacity.then_some(self.fm),
            degradation: self.cfg.adaptation.is_some().then_some(self.dm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_cfg() -> ThroughputConfig {
        ThroughputConfig { horizon: SimTime::from_secs(300), seed: 11, ..ThroughputConfig::fig6() }
    }

    #[test]
    fn plain_vdbms_admits_everything() {
        let r = run_throughput(SystemKind::Vdbms, &short_cfg());
        assert_eq!(r.rejected, 0);
        assert_eq!(r.admitted, r.queries);
        assert!(r.stable_outstanding(SimTime::from_secs(300)) > 0.0);
    }

    #[test]
    fn qos_api_rejects_under_load() {
        let r = run_throughput(SystemKind::VdbmsQosApi, &short_cfg());
        assert!(r.rejected > 0, "expected rejects under 1 q/s of full-quality demand");
        assert_eq!(r.admitted + r.rejected, r.queries);
    }

    #[test]
    fn quasaq_outserves_qos_api() {
        let cfg = short_cfg();
        let quasaq = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let qosapi = run_throughput(SystemKind::VdbmsQosApi, &cfg);
        let h = SimTime::from_secs(300);
        assert!(
            quasaq.stable_outstanding(h) > qosapi.stable_outstanding(h),
            "QuaSAQ {} vs QoS-API {}",
            quasaq.stable_outstanding(h),
            qosapi.stable_outstanding(h)
        );
    }

    #[test]
    fn lrb_beats_random() {
        let cfg = short_cfg();
        let lrb = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let random = run_throughput(SystemKind::Quasaq(CostKind::Random), &cfg);
        let h = SimTime::from_secs(300);
        assert!(
            lrb.stable_outstanding(h) > random.stable_outstanding(h),
            "LRB {} vs Random {}",
            lrb.stable_outstanding(h),
            random.stable_outstanding(h)
        );
        assert!(lrb.rejected <= random.rejected);
    }

    #[test]
    fn vdbms_has_most_outstanding_sessions() {
        // Fig 6a's signature: the system with no admission control piles
        // up the most concurrent sessions.
        let cfg = short_cfg();
        let plain = run_throughput(SystemKind::Vdbms, &cfg);
        let quasaq = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let h = SimTime::from_secs(300);
        assert!(plain.stable_outstanding(h) > quasaq.stable_outstanding(h));
    }

    #[test]
    fn stable_outstanding_truncates_odd_micros_horizon() {
        // Window start must be horizon/2 in integer microseconds (3 us for a
        // 7 us horizon), not a float reconstruction.
        let mut outstanding = Series::new();
        outstanding.push(SimTime::from_micros(2), 100.0); // before the window
        outstanding.push(SimTime::from_micros(3), 4.0); // exactly at the half
        outstanding.push(SimTime::from_micros(6), 8.0);
        let r = ThroughputResult {
            label: "synthetic".to_string(),
            outstanding,
            completions_per_min: RateCounter::new(SimDuration::from_secs(60)),
            rejects: Series::new(),
            queries: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            access: AccessStats::new(),
            mean_utility: None,
            queue: None,
            faults: None,
            degradation: None,
        };
        let horizon = SimTime::from_micros(7);
        assert_eq!(horizon.halved(), SimTime::from_micros(3));
        assert!((r.stable_outstanding(horizon) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn accounting_balances() {
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        assert_eq!(r.admitted + r.rejected, r.queries);
        assert!(r.completed <= r.admitted);
        assert_eq!(r.completions_per_min.total(), r.completed);
    }

    #[test]
    fn queued_accounting_balances() {
        let cfg = ThroughputConfig { admission: Some(AdmissionConfig::default()), ..short_cfg() };
        for system in
            [SystemKind::Vdbms, SystemKind::VdbmsQosApi, SystemKind::Quasaq(CostKind::Lrb)]
        {
            let r = run_throughput(system, &cfg);
            // Every query reaches exactly one terminal outcome.
            assert_eq!(r.admitted + r.rejected, r.queries, "{}", r.label);
            assert!(r.completed <= r.admitted);
            let q = r.queue.as_ref().expect("front end enabled");
            // The rejected count decomposes exactly into the queue's drop
            // reasons; mid-stream abandonments were admitted, not rejected.
            assert_eq!(
                r.rejected,
                q.overflow + q.hopeless + q.abandoned_waiting + q.pending_at_horizon,
                "{}",
                r.label
            );
            assert_eq!(q.wait.count(), r.admitted, "{}", r.label);
            assert!(r.completed + q.abandoned_streaming <= r.admitted);
        }
    }

    #[test]
    fn queue_admits_more_than_fire_and_forget() {
        // Waiting out transient overload (and degrading while waiting)
        // must serve strictly more queries than rejecting on first touch.
        let base = short_cfg();
        let queued =
            ThroughputConfig { admission: Some(AdmissionConfig::default()), ..base.clone() };
        let fire_and_forget = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &base);
        let with_queue = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &queued);
        assert!(
            with_queue.admitted > fire_and_forget.admitted,
            "queued {} vs direct {}",
            with_queue.admitted,
            fire_and_forget.admitted
        );
        let q = with_queue.queue.as_ref().unwrap();
        assert!(q.retries > 0, "overloaded run must exercise retries");
        assert!(q.wait.mean() > 0.0, "some admissions waited");
        // The quantile sketch rides along: with waits recorded, p95 is
        // reportable and at least the mean's order of magnitude.
        let p95 = with_queue.queue_wait_p95().expect("waits recorded");
        assert!(p95 > 0.0, "p95 of a waiting run must be positive");
        assert!(p95 >= q.wait.mean() * 0.5, "p95 {} vs mean {}", p95, q.wait.mean());
    }

    /// The acceptance scenario: server 0 crashes at t = 1000 s and
    /// restarts at t = 2000 s. Sessions on it fail over (possibly at a
    /// renegotiated QoP) or re-enter the admission queue, and the whole
    /// run replays deterministically.
    #[test]
    fn crash_restart_fails_over_deterministically() {
        let cfg = ThroughputConfig { seed: 11, ..ThroughputConfig::availability() };
        for system in
            [SystemKind::Vdbms, SystemKind::VdbmsQosApi, SystemKind::Quasaq(CostKind::Lrb)]
        {
            let r = run_throughput(system, &cfg);
            let f = r.faults.as_ref().expect("fault injection enabled");
            assert!(f.interrupted > 0, "{}: the crash must cut live sessions", r.label);
            // Every interrupted session reaches exactly one fate.
            assert_eq!(
                f.interrupted,
                f.failed_over + f.recovered + f.dropped,
                "{}: {f:?}",
                r.label
            );
            if system == SystemKind::Vdbms {
                // No admission control: every displaced session lands on a
                // surviving replica at once.
                assert_eq!(f.failed_over, f.interrupted, "{}: {f:?}", r.label);
            } else {
                // Admission-controlled systems requeue or shed what the
                // saturated survivors cannot carry.
                assert!(
                    f.failed_over + f.requeued + f.dropped > 0,
                    "{}: displaced sessions must be dispatched somewhere: {f:?}",
                    r.label
                );
            }
            assert_eq!(f.recovery.count(), f.failed_over + f.recovered, "{}", r.label);
            // Displaced sessions never double-count in the admission
            // accounting.
            assert_eq!(r.admitted + r.rejected, r.queries, "{}", r.label);
            // Deterministic replay, bit for bit.
            assert_eq!(r, run_throughput(system, &cfg), "{}", r.label);
        }
    }

    #[test]
    fn failover_renegotiates_down_the_ladder_under_pressure() {
        // Without the queue, displaced sessions either fail over at once
        // or are dropped; with two of three servers gone, the lone
        // survivor is tight enough that QuaSAQ renegotiates.
        let crash = SimTime::from_secs(150);
        let restart = SimTime::from_secs(280);
        let mut plan = FaultPlan::crash_restart(ServerId(0), crash, restart);
        plan.faults.extend(FaultPlan::crash_restart(ServerId(1), crash, restart).faults);
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(300),
            faults: Some(plan),
            ..ThroughputConfig::fig6()
        };
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        let f = r.faults.as_ref().expect("fault injection enabled");
        assert!(f.interrupted > 0);
        assert_eq!(f.interrupted, f.failed_over + f.recovered + f.dropped);
        assert_eq!(f.recovered, 0, "no queue: nothing re-enters");
        assert_eq!(f.requeued, 0, "no queue: nothing re-enters");
        assert!(
            f.failover_degraded > 0 || f.dropped > 0,
            "two dead servers must force renegotiation or losses: {f:?}"
        );
    }

    #[test]
    fn degraded_links_accumulate_violation_seconds() {
        // Halve server 0's link for 100 s mid-run: sessions keep flowing
        // (nothing is interrupted) but their exposure is accounted.
        let plan = FaultPlan {
            faults: vec![quasaq_sim::FaultSpec {
                server: ServerId(0),
                at: SimTime::from_secs(100),
                duration: SimDuration::from_secs(100),
                kind: FaultKind::LinkDegradation { factor: 0.5 },
            }],
        };
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(300),
            faults: Some(plan),
            ..ThroughputConfig::fig6()
        };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let f = r.faults.as_ref().expect("fault injection enabled");
        assert_eq!(f.interrupted, 0, "degradation is not a crash");
        assert!(
            f.qos_violation_secs > 0.0,
            "plain VDBMS keeps streaming through the degraded window"
        );
        // The exposure is bounded by window length x sessions ever live.
        assert!(f.qos_violation_secs <= 100.0 * r.admitted as f64);
    }

    #[test]
    fn fault_free_runs_carry_no_fault_metrics_and_match_legacy() {
        // `faults: None` must be bit-identical to a run with the field
        // absent entirely — which is what every pre-fault test asserts —
        // and an explicit empty plan reports all-zero metrics.
        let none = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        assert!(none.faults.is_none());
        let empty = ThroughputConfig { faults: Some(FaultPlan::none()), ..short_cfg() };
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &empty);
        let f = r.faults.as_ref().expect("explicit empty plan still reports");
        assert_eq!(*f, FaultMetrics::default());
        // Identical everywhere else.
        assert_eq!(none.outstanding, r.outstanding);
        assert_eq!(none.admitted, r.admitted);
        assert_eq!(none.rejected, r.rejected);
        assert_eq!(none.completed, r.completed);
    }

    /// The honesty fix for EXPERIMENTS.md Fig 6: with a patience window,
    /// plain VDBMS's outstanding sessions stop growing monotonically and
    /// plateau near arrival_rate * (nominal + patience), because clients
    /// cancel sessions the oversubscribed links stretched too far.
    #[test]
    fn plain_vdbms_plateaus_with_patience() {
        // Short clips so the run reaches steady state inside the horizon.
        let mut testbed = TestbedConfig::default();
        testbed.library.min_duration = SimDuration::from_secs(30);
        testbed.library.max_duration = SimDuration::from_secs(120);
        let horizon = SimTime::from_secs(600);
        let base = ThroughputConfig { testbed, horizon, seed: 11, ..ThroughputConfig::fig6() };
        let queued = ThroughputConfig {
            admission: Some(AdmissionConfig {
                patience: SimDuration::from_secs(60),
                ..AdmissionConfig::default()
            }),
            ..base.clone()
        };
        let without = run_throughput(SystemKind::Vdbms, &base);
        let with = run_throughput(SystemKind::Vdbms, &queued);
        let window = |r: &ThroughputResult, from, to| {
            r.outstanding
                .window_mean(SimTime::from_secs(from), SimTime::from_secs(to))
                .expect("sampled window")
        };
        // Without patience the pile-up keeps growing through the horizon...
        let w1 = window(&without, 300, 450);
        let w2 = window(&without, 450, 601);
        assert!(w2 > w1 * 1.10, "expected monotonic growth, got {w1} -> {w2}");
        // ...with patience it levels off once the oldest stretched
        // sessions start getting cancelled.
        let p1 = window(&with, 300, 450);
        let p2 = window(&with, 450, 601);
        assert!((p2 - p1).abs() < p1 * 0.10, "expected a plateau, got {p1} -> {p2}");
        assert!(p2 < w2, "patience must cap the pile-up ({p2} vs {w2})");
        let q = with.queue.as_ref().expect("front end enabled");
        assert!(q.abandoned_streaming > 0, "stretched sessions must be abandoned");
    }

    /// The flash-crowd case the bulk-admit path exists for: bursty
    /// arrivals over a skewed catalog, cache on vs off. The cached run
    /// must be bit-identical — same admissions, same series, same floats —
    /// while the batch prefetch amortizes enumeration across the burst.
    #[test]
    fn flash_crowd_with_plan_cache_is_bit_identical() {
        let base = ThroughputConfig {
            video_skew: 1.1,
            arrival_burst: 8,
            admission: Some(AdmissionConfig::default()),
            ..short_cfg()
        };
        let cached = ThroughputConfig { plan_cache: true, ..base.clone() };
        for kind in [CostKind::Lrb, CostKind::Random] {
            let cold = run_throughput(SystemKind::Quasaq(kind), &base);
            let warm = run_throughput(SystemKind::Quasaq(kind), &cached);
            assert_eq!(cold, warm, "cache changed a {kind:?} decision");
            assert_eq!(cold.admitted + cold.rejected, cold.queries);
        }
        // Bursts actually multiply load: ~8x the queries of the lone stream.
        let lone = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        let burst = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &base);
        assert!(burst.queries > lone.queries * 6, "{} vs {}", burst.queries, lone.queries);
    }

    use quasaq_sim::LinkSpec;

    /// A window where one server's link collapses and later recovers.
    fn crush_server(server: ServerId, factor: f64) -> LinkPlan {
        LinkPlan {
            changes: vec![
                LinkSpec { server, at: SimTime::from_secs(60), factor },
                LinkSpec { server, at: SimTime::from_secs(180), factor: 1.0 },
            ],
        }
    }

    /// An empty link plan plus an idle adaptation loop must be inert:
    /// identical decisions, identical series, zeroed metrics. This pins
    /// the baseline before the degradation tests trust the machinery.
    #[test]
    fn idle_link_plan_and_adaptation_are_inert() {
        let legacy = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &short_cfg());
        let cfg = ThroughputConfig {
            links: Some(LinkPlan::none()),
            adaptation: Some(AdaptationConfig::default()),
            ..short_cfg()
        };
        let mut idle = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        assert_eq!(idle.faults.take(), Some(FaultMetrics::default()));
        assert_eq!(idle.degradation.take(), Some(DegradationMetrics::default()));
        assert_eq!(idle, legacy);
    }

    /// Link set-points actually move capacity: a crushed server stretches
    /// its fair-share sessions into QoS violation, and the recovery
    /// set-point ends the exposure. Replays agree bit for bit on the
    /// stochastic timeline.
    #[test]
    fn link_set_points_degrade_and_recover_capacity() {
        let cfg = ThroughputConfig { links: Some(crush_server(ServerId(0), 0.3)), ..short_cfg() };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let f = r.faults.as_ref().expect("link dynamics enable violation tracking");
        assert_eq!(f.interrupted, 0, "set-points are not crashes");
        assert!(f.qos_violation_secs > 0.0, "a 70% collapse must stretch sessions");
        assert_eq!(r, run_throughput(SystemKind::Vdbms, &cfg), "replay");
    }

    /// The tentpole end-to-end claim: under a congesting link window the
    /// adaptation loop renegotiates sessions down the ladder, sheds load
    /// off the hot server, and ends the run with strictly less violation
    /// exposure than the frozen system — without oscillating.
    #[test]
    fn adaptation_sheds_load_and_reduces_violation_exposure() {
        let frozen_cfg =
            ThroughputConfig { links: Some(crush_server(ServerId(0), 0.3)), ..short_cfg() };
        let adaptive_cfg = ThroughputConfig {
            adaptation: Some(AdaptationConfig::default()),
            ..frozen_cfg.clone()
        };
        let frozen = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &frozen_cfg);
        let adapted = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &adaptive_cfg);
        let dm = adapted.degradation.as_ref().expect("adaptation enabled");
        assert!(dm.congestion_events > 0, "the crush must trip the watermark: {dm:?}");
        assert!(dm.downshifts > 0, "sustained congestion must renegotiate: {dm:?}");
        assert!(dm.congested_secs > 0.0, "{dm:?}");
        assert!(dm.violation_secs_avoided > 0.0, "{dm:?}");
        // One crush window, 30 s upgrade period: recovery must not hunt.
        assert_eq!(dm.oscillations, 0, "{dm:?}");
        assert!(dm.upshifts <= dm.downshifts, "{dm:?}");
        let fv = frozen.faults.as_ref().unwrap().qos_violation_secs;
        let av = adapted.faults.as_ref().unwrap().qos_violation_secs;
        assert!(av < fv, "adaptation must shrink exposure: {av} vs frozen {fv}");
        assert_eq!(adapted.admitted + adapted.rejected, adapted.queries);
    }

    /// Brownout at the front door: once enough servers congest, Economy
    /// arrivals are turned away outright and Standard/Premium arrivals
    /// are degraded one step before admission. The plain VDBMS overloads
    /// naturally, so its congestion is organic rather than injected.
    #[test]
    fn brownout_sheds_arrivals_by_service_class() {
        let cfg = ThroughputConfig {
            links: Some(LinkPlan::none()),
            adaptation: Some(AdaptationConfig::default()),
            ..short_cfg()
        };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let dm = r.degradation.as_ref().expect("adaptation enabled");
        assert!(dm.congestion_events > 0, "1 q/s of full-rate demand must congest: {dm:?}");
        assert!(dm.brownout_rejected > 0, "Economy arrivals must be shed: {dm:?}");
        assert!(dm.brownout_degraded > 0, "Standard/Premium must degrade: {dm:?}");
        assert!(r.rejected >= dm.brownout_rejected);
        assert_eq!(r.admitted + r.rejected, r.queries);
        // The plain system admits everything brownout lets through.
        assert_eq!(r.rejected, dm.brownout_rejected);
    }

    /// The full stochastic stack — sampled Markov link process, adaptation,
    /// brownout, admission queue — replays bit-identically, which is what
    /// makes every degradation number in the bench suite trustworthy.
    #[test]
    fn stochastic_runs_replay_bit_identically() {
        let sampled = LinkPlan::sample(
            17,
            ServerId::first_n(3),
            SimTime::from_secs(300),
            quasaq_sim::LinkModel::Markov {
                factors: [1.0, 0.45, 0.2],
                dwell: [
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(40),
                    SimDuration::from_secs(20),
                ],
            },
        );
        assert!(!sampled.is_empty(), "a 300 s horizon must sample transitions");
        let cfg = ThroughputConfig {
            links: Some(sampled),
            adaptation: Some(AdaptationConfig::default()),
            admission: Some(AdmissionConfig::default()),
            ..short_cfg()
        };
        for system in [SystemKind::Vdbms, SystemKind::Quasaq(CostKind::Lrb)] {
            let a = run_throughput(system, &cfg);
            assert_eq!(a, run_throughput(system, &cfg), "{} replay", system.label());
        }
    }
}
