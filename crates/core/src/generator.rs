//! The Plan Generator: enumerating and pruning the QoS-aware plan space.
//!
//! For one resolved logical object, the generator expands the ordered
//! disjoint activity sets of Fig 2 — object replica (A1) × target site
//! (A2) × frame-dropping strategy (A3) × transcoding target (A4) ×
//! encryption (A5) — and applies the paper's two pruning layers:
//!
//! * **Static QoS rules** — "we cannot retrieve a video with resolution
//!   lower than that required by the user. Similarly, it makes no sense
//!   to transcode from low resolution to high resolution": replicas must
//!   dominate the range floor, transcodes only go down, and frame
//!   dropping may not push the delivered frame rate below the floor.
//! * **Performance pitfalls** — plans that are pure waste are dropped
//!   instantly (e.g. encrypting when no security was requested; the
//!   encrypt-after-drop ordering is structural in the executor).
//!
//! With the activity order fixed the space is `O(d^n)`; the generator
//! also exposes the unpruned combinatorial bound so the pruning ablation
//! can report how much the rules save.

use crate::cost::PlanView;
use crate::plan::Plan;
use crate::qop::QopSecurity;
use quasaq_media::{
    CipherAlgo, DeliveryCostModel, DropStrategy, FrameRate, QosRange, QualitySpec, Transcode,
    VideoFormat, VideoId,
};
use quasaq_qosapi::{
    CompositeQosApi, Headroom, LiveCapacity, Projection, ResourceKey, ResourceKind, ResourceVector,
};
use quasaq_sim::ServerId;
use quasaq_store::{MetadataEngine, ObjectRecord};

/// What the Quality Manager plans for: a resolved logical object plus the
/// query's QoS component.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The logical object identified by the content query.
    pub video: VideoId,
    /// Acceptable application QoS.
    pub qos: QosRange,
    /// Security requirement (chooses the A5 set).
    pub security: QopSecurity,
}

/// Generator policy switches (ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Enumerate cross-server plans (retrieve at one site, serve from
    /// another).
    pub allow_remote: bool,
    /// Enumerate online-transcode plans.
    pub allow_transcode: bool,
    /// Enumerate frame-dropping plans.
    pub allow_drop: bool,
    /// Apply the static pruning rules. Disabling this (for the ablation)
    /// keeps QoS-*violating* plans out — they would be incorrect — but
    /// stops dropping merely *wasteful* ones.
    pub prune_wasteful: bool,
    /// Delivery cost model used for resource vectors.
    pub cost: DeliveryCostModel,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            allow_remote: true,
            allow_transcode: true,
            allow_drop: true,
            prune_wasteful: true,
            cost: DeliveryCostModel::default(),
        }
    }
}

/// One server-independent delivery: a replica (A1) with a transcode (A4)
/// and a frame-dropping strategy (A3), plus the figures that do not
/// depend on the target site.
#[derive(Debug, Clone)]
pub(crate) struct DeliveryOption {
    /// A1: the replica to retrieve.
    record: ObjectRecord,
    /// A3: runtime frame dropping.
    drop: DropStrategy,
    /// A4: optional online transcode.
    transcode: Option<Transcode>,
    /// The application QoS delivered to the client.
    delivered: QualitySpec,
    /// Mean delivered bandwidth in bytes/second.
    delivered_bps: f64,
    /// Stream buffer memory in bytes.
    buffer_bytes: f64,
    /// CPU share (reservation headroom included) under each of the
    /// request's ciphers, by position; unused slots are 0.
    cpu_shares: [f64; CipherAlgo::ALL.len()],
}

impl DeliveryOption {
    /// The target-side demand entries under the request's `cipher`-th
    /// cipher, by kind on whichever site is the target.
    fn target_entries(&self, cipher: usize) -> [(ResourceKind, f64); 3] {
        Plan::target_entries(self.delivered_bps, self.cpu_shares[cipher], self.buffer_bytes)
    }
}

/// One point of the plan space before its plan is built: a delivery
/// option, a target site, and the position of a cipher among the
/// request's ciphers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<'a> {
    option: &'a DeliveryOption,
    target: ServerId,
    cipher: usize,
}

impl<'a> Candidate<'a> {
    /// The candidate's resource demand, the entries of its plan's
    /// resource vector.
    pub(crate) fn demand(&self) -> [(ResourceKey, f64); 5] {
        let o = self.option;
        Plan::demand_entries(
            &o.record,
            self.target,
            o.delivered_bps,
            o.cpu_shares[self.cipher],
            o.buffer_bytes,
        )
    }

    /// The candidate's [`demand`](Self::demand), given its replica-side
    /// entries.
    fn demand_with(&self, [disk, transfer]: [(ResourceKey, f64); 2]) -> [(ResourceKey, f64); 5] {
        let target = self.target;
        let [cpu, net, memory] = (self.option.target_entries(self.cipher))
            .map(|(kind, amount)| (ResourceKey::new(target, kind), amount));
        [disk, transfer, cpu, net, memory]
    }

    /// What a cost model reads of the candidate: its `demand` with the
    /// `max_fill` it projects to on `api`.
    pub(crate) fn view(
        self,
        max_fill: f64,
        demand: &'a [(ResourceKey, f64)],
        api: &'a CompositeQosApi,
    ) -> PlanView<'a> {
        let (delivered, delivered_bps) = (&self.option.delivered, self.option.delivered_bps);
        PlanView { max_fill, delivered, delivered_bps, demand, api }
    }
}

/// One side of a delivery option's fan-out: its one local target, or all
/// of its remote targets. Every candidate of a side demands the same
/// replica-side entries (`Plan::replica_entries`), and its projection
/// folds its target side into theirs, so no candidate of the side
/// projects a lower max fill than the side's [`replica`](Self::replica).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Side {
    /// The option's position among the request's options.
    option: usize,
    /// The position of the option's own site among its targets, if there
    /// (always, on a local side).
    local: Option<usize>,
    /// Whether this is the remote side.
    pub(crate) remote: bool,
    /// The side's replica-side entries projected on the live buckets.
    pub(crate) replica: Projection,
}

/// The delivery options of one request and the fan-out that turns them
/// into plans: option × target site × cipher. A plan's *enumeration
/// index* is its position in that fan-out, which is also its position in
/// [`PlanGenerator::generate_into`]'s output. Admission, under every cost
/// model, visits the candidates one option side at a time
/// ([`for_each_side`](Self::for_each_side), then
/// [`for_each_projected_on`](Self::for_each_projected_on)), so not in
/// enumeration order; a candidate is identified by its index
/// ([`candidate`](Self::candidate)).
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryOptions {
    options: Vec<DeliveryOption>,
    ciphers: Vec<CipherAlgo>,
    /// The sites, ascending.
    sites: Vec<ServerId>,
    allow_remote: bool,
}

impl DeliveryOptions {
    /// A2: the sites `option` can be served from — every site when
    /// cross-server plans are allowed, else the replica's own.
    fn targets<'a>(&'a self, option: &'a DeliveryOption) -> &'a [ServerId] {
        if self.allow_remote {
            &self.sites
        } else {
            std::slice::from_ref(&option.record.object.server)
        }
    }

    /// Plans per option: every option has the same number of targets.
    fn per_option(&self) -> usize {
        let targets = if self.allow_remote { self.sites.len() } else { 1 };
        targets * self.ciphers.len()
    }

    /// The size of the plan space.
    pub(crate) fn plan_count(&self) -> usize {
        self.options.len() * self.per_option()
    }

    /// Visits the option sides that hold a target, each with its
    /// projection, but only those whose replica side fits the buckets'
    /// total capacity: no candidate of another side does.
    pub(crate) fn for_each_side(&self, api: &CompositeQosApi, mut visit: impl FnMut(Side)) {
        // Consecutive options share their replica, and so its projections.
        type Replica = [(ResourceKey, f64); 2];
        let mut last: Option<([Replica; 2], [Projection; 2])> = None;
        for (index, option) in self.options.iter().enumerate() {
            let targets = self.targets(option);
            let local = targets.binary_search(&option.record.object.server).ok();
            let remotes = targets.len() - usize::from(local.is_some());
            let entries = [false, true].map(|remote| Plan::replica_entries(&option.record, remote));
            let projections = match last {
                Some((seen, projections)) if seen == entries => projections,
                _ => {
                    let projections = entries.map(|e| api.project(&e));
                    last = Some((entries, projections));
                    projections
                }
            };
            for remote in [false, true] {
                if (remote && remotes == 0) || (!remote && local.is_none()) {
                    continue;
                }
                let replica = projections[usize::from(remote)];
                if replica.fits_capacity {
                    visit(Side { option: index, local, remote, replica });
                }
            }
        }
    }

    /// The targets of `side`, each with its position among its option's
    /// targets.
    fn side_targets(&self, side: Side) -> impl Iterator<Item = (usize, ServerId)> + '_ {
        let targets = self.targets(&self.options[side.option]);
        let positions = match side.local {
            Some(local) if !side.remote => local..local + 1,
            _ => 0..targets.len(),
        };
        positions
            .filter(move |&p| !side.remote || Some(p) != side.local)
            .map(move |p| (p, targets[p]))
    }

    /// Visits the candidates of `side`, in enumeration order, each with its
    /// enumeration index, its [`Projection`] on `api` and its demand
    /// entries. Each candidate folds only its three target-side entries
    /// into the side's replica projection, which
    /// [`CompositeQosApi::project_on`] makes exactly `project` of the whole
    /// demand.
    pub(crate) fn for_each_projected_on<'a>(
        &'a self,
        api: &CompositeQosApi,
        side: Side,
        mut visit: impl FnMut(usize, Candidate<'a>, Projection, &[(ResourceKey, f64); 5]),
    ) {
        let option = &self.options[side.option];
        let replica = Plan::replica_entries(&option.record, side.remote);
        let ciphers = self.ciphers.len();
        let first = side.option * self.per_option();
        for (position, target) in self.side_targets(side) {
            for cipher in 0..ciphers {
                let c = Candidate { option, target, cipher };
                let projection =
                    api.project_on(side.replica, target, &option.target_entries(cipher));
                visit(first + position * ciphers + cipher, c, projection, &c.demand_with(replica));
            }
        }
    }

    /// How many candidates of a remote `side`, one from
    /// [`for_each_side`](Self::for_each_side), fit the buckets' total
    /// capacity: the count of fitting projections
    /// [`for_each_projected_on`](Self::for_each_projected_on) would visit,
    /// taken by comparison alone. `live` is the [`LiveTargets`] summary of
    /// the sites. The side's targets are the sites but the option's own,
    /// so where its entries fit every live site the count is the live
    /// sites but the option's own, with no site visited.
    pub(crate) fn count_fitting(
        &self,
        api: &CompositeQosApi,
        side: Side,
        live: &LiveCapacity,
    ) -> usize {
        debug_assert!(side.remote, "a local side is always scored");
        let option = &self.options[side.option];
        let source = option.record.object.server;
        (0..self.ciphers.len())
            .map(|cipher| {
                let entries = option.target_entries(cipher);
                if live.fits_everywhere(&entries) {
                    // Then they fit exactly the live sites.
                    live.servers
                        - usize::from(side.local.is_some() && api.fits_on(source, &entries))
                } else {
                    self.side_targets(side).filter(|&(_, t)| api.fits_on(t, &entries)).count()
                }
            })
            .sum()
    }

    /// The replica-side demand entries every candidate of `side` shares.
    pub(crate) fn replica_entries(&self, side: Side) -> [(ResourceKey, f64); 2] {
        Plan::replica_entries(&self.options[side.option].record, side.remote)
    }

    /// Whether some candidate of `side`, whose
    /// [`replica_entries`](Self::replica_entries) pass
    /// [`CompositeQosApi::admits`], passes it too: whether the target-side
    /// entries under one of the ciphers pass
    /// [`CompositeQosApi::admits_on`] on one of the side's targets. A
    /// remote side's entries are first put to `headroom`, the
    /// [`Headroom`] of the target-side kinds over the sites (made on the
    /// first call that needs it), which refuses them on every target at
    /// once.
    pub(crate) fn side_admits(
        &self,
        api: &CompositeQosApi,
        side: Side,
        headroom: &mut Option<Headroom>,
    ) -> bool {
        let option = &self.options[side.option];
        (0..self.ciphers.len()).any(|cipher| {
            let entries = option.target_entries(cipher);
            let refused_everywhere = side.remote
                && !headroom
                    .get_or_insert_with(|| api.headroom(&self.sites, &Plan::TARGET_KINDS))
                    .may_admit(&entries);
            !refused_everywhere
                && self.side_targets(side).any(|(_, target)| api.admits_on(target, &entries))
        })
    }

    /// The candidate at enumeration `index` (< [`plan_count`](Self::plan_count)).
    pub(crate) fn candidate(&self, index: usize) -> Candidate<'_> {
        let per_option = self.per_option();
        let option = &self.options[index / per_option];
        let within = index % per_option;
        let ciphers = self.ciphers.len();
        Candidate {
            option,
            target: self.targets(option)[within / ciphers],
            cipher: within % ciphers,
        }
    }

    /// Builds a candidate's plan.
    pub(crate) fn plan(&self, c: Candidate<'_>) -> Plan {
        let o = c.option;
        Plan {
            object: o.record.clone(),
            target_server: c.target,
            drop: o.drop,
            transcode: o.transcode,
            cipher: self.ciphers[c.cipher],
            delivered: o.delivered,
            delivered_bps: o.delivered_bps,
            resources: ResourceVector::from_distinct(&c.demand()),
        }
    }
}

/// The [`LiveCapacity`] of the target-side kinds over a request's sites,
/// kept across admissions: it is rebuilt only when the sites or the
/// buckets' [`capacity_epoch`](CompositeQosApi::capacity_epoch) change.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveTargets {
    /// The epoch and the summary, once made.
    summary: Option<(u64, LiveCapacity)>,
    /// The sites summarized.
    sites: Vec<ServerId>,
}

impl LiveTargets {
    /// The summary over `options`' sites on `api`, the one `api` the
    /// summary is kept for.
    pub(crate) fn of(&mut self, api: &CompositeQosApi, options: &DeliveryOptions) -> LiveCapacity {
        let epoch = api.capacity_epoch();
        match self.summary {
            Some((made, live)) if made == epoch && self.sites == options.sites => live,
            _ => {
                let live = api.live_capacity(&options.sites, &Plan::TARGET_KINDS);
                self.sites.clone_from(&options.sites);
                self.summary = Some((epoch, live));
                live
            }
        }
    }
}

/// The Plan Generator.
#[derive(Debug, Clone)]
pub struct PlanGenerator {
    cfg: GeneratorConfig,
}

impl PlanGenerator {
    /// Creates a generator.
    pub fn new(cfg: GeneratorConfig) -> Self {
        PlanGenerator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Enumerates all valid plans for `request`, in deterministic order.
    pub fn generate(&self, engine: &MetadataEngine, request: &PlanRequest) -> Vec<Plan> {
        let mut plans = Vec::new();
        self.generate_into(engine, request, &mut plans);
        plans
    }

    /// Enumerates all valid plans for `request` into `out` (cleared first).
    ///
    /// The buffer-reuse entry point for per-query hot paths: a caller that
    /// plans many queries hands the same `Vec` back in each time and pays
    /// for plan-space allocation only until the high-water mark is reached.
    /// The plans are the request's delivery options (replica × transcode ×
    /// drop) fanned out over target sites and then ciphers.
    pub fn generate_into(
        &self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        out: &mut Vec<Plan>,
    ) {
        let options = self.options(engine, request);
        out.clear();
        out.extend((0..options.plan_count()).map(|index| options.plan(options.candidate(index))));
    }

    /// [`options_into`](Self::options_into) a new buffer.
    pub(crate) fn options(
        &self,
        engine: &MetadataEngine,
        request: &PlanRequest,
    ) -> DeliveryOptions {
        let mut options = DeliveryOptions::default();
        self.options_into(engine, request, &mut options);
        options
    }

    /// Enumerates the server-independent half of the plan space for
    /// `request` into `out` (its buffers are reused): every replica (A1) ×
    /// transcode (A4) × frame-dropping strategy (A3) that passes the static
    /// QoS rules, with the target sites (A2) and ciphers (A5) it fans out
    /// over. This is the generator's one enumeration loop; full plans are
    /// the fan-out of its options.
    pub(crate) fn options_into(
        &self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        out: &mut DeliveryOptions,
    ) {
        out.options.clear();
        out.ciphers.clear();
        out.sites.clear();
        out.allow_remote = self.cfg.allow_remote;
        let Some(meta) = engine.video(request.video) else { return };
        let gop = &meta.gop;
        out.sites.extend_from_slice(engine.sites());

        // A5: encryption — depends only on the request, so build it once
        // for all replicas.
        out.ciphers.extend(
            CipherAlgo::ALL.into_iter().filter(|c| request.security.accepts(*c)).filter(|c| {
                // Performance pitfall: encrypting an open stream is pure
                // waste.
                !self.cfg.prune_wasteful
                    || request.security != QopSecurity::Open
                    || !c.is_encrypting()
            }),
        );

        // A4 scratch buffer, reused across replicas.
        let mut deliveries: Vec<Option<Transcode>> = Vec::new();

        for record in engine.replicas(request.video) {
            let spec = record.object.spec;
            let stored_rate = record.object.rate_bps as f64;
            let stored_fps = spec.frame_rate.fps();
            // Static QoS rule: quality only degrades, so the replica must
            // dominate the range floor.
            if !request.qos.reachable_from(&spec) {
                continue;
            }

            // A4: transcoding targets — deliver as-is when in range, or
            // transcode down to the cheapest in-range quality.
            deliveries.clear();
            if request.qos.accepts(&spec) {
                deliveries.push(None);
            }
            if self.cfg.allow_transcode {
                // Prefer the MPEG-1 streaming format when acceptable.
                let fmt = if request.qos.accepts_format(VideoFormat::Mpeg1) {
                    VideoFormat::Mpeg1
                } else {
                    spec.format
                };
                if let Some(target) = request.qos.cheapest_target(&spec, fmt) {
                    if target != spec {
                        if let Ok(t) = Transcode::plan(spec, target) {
                            deliveries.push(Some(t));
                        }
                    }
                }
            }

            // A3: frame dropping.
            let drops: &[DropStrategy] =
                if self.cfg.allow_drop { &DropStrategy::ALL } else { &[DropStrategy::None] };

            for transcode in &deliveries {
                let base = match transcode {
                    Some(t) => *t.target(),
                    None => spec,
                };
                for &drop in drops {
                    let effective_fps = drop.effective_fps(base.frame_rate.fps(), gop);
                    // A delivery must carry frames. A range whose floor is
                    // 0 fps lets the transcoder aim at 0 fps, which no
                    // `FrameRate` represents: skip it, so such a request is
                    // rejected for want of a plan instead of panicking.
                    let rate = (effective_fps > 0.0).then(|| FrameRate::from_fps(effective_fps));
                    let Some(rate) = rate.filter(|r| r.millifps() > 0) else { continue };
                    // Static QoS rule: dropping must keep the delivered
                    // frame rate within range.
                    if FrameRate::from_fps(effective_fps.max(0.001)) < request.qos.min_frame_rate {
                        continue;
                    }
                    // The delivered rate, buffer need, and per-cipher CPU
                    // shares are properties of the activity chain alone —
                    // compute them once here instead of once per target
                    // site (the A2 fan-out multiplies by the cluster size).
                    let (delivered_bps, _fps) = self.cfg.cost.delivered_rate(
                        stored_rate,
                        stored_fps,
                        gop,
                        transcode.as_ref(),
                        drop,
                    );
                    let mut cpu_shares = [0.0; CipherAlgo::ALL.len()];
                    for (share, &cipher) in cpu_shares.iter_mut().zip(&out.ciphers) {
                        *share = self.cfg.cost.session_cpu_share(
                            stored_rate,
                            stored_fps,
                            gop,
                            transcode.as_ref(),
                            drop,
                            cipher,
                        ) * self.cfg.cost.reservation_headroom;
                    }
                    let mut delivered = base;
                    delivered.frame_rate = rate;
                    out.options.push(DeliveryOption {
                        record: record.clone(),
                        drop,
                        transcode: *transcode,
                        delivered,
                        delivered_bps,
                        buffer_bytes: self.cfg.cost.buffer_bytes(delivered_bps),
                        cpu_shares,
                    });
                }
            }
        }
    }

    /// Instantly drops plans whose resource demand exceeds some bucket's
    /// *total* capacity — "some of the plans can be immediately dropped
    /// by the Plan Generator if their costs are intolerably high". In
    /// place, so the plan buffer's allocation stays alive for reuse
    /// across queries. The cut reads the live bucket *capacities* (never
    /// current usage), so it runs on every admission: a re-rated link
    /// changes it at once.
    pub fn retain_feasible(&self, plans: &mut Vec<Plan>, api: &CompositeQosApi) {
        plans.retain(|p| api.project(p.resources.entries()).fits_capacity);
    }

    /// The unpruned combinatorial bound `O(d^n)` for a request: replicas ×
    /// sites × drop strategies × transcode options × ciphers. Used by the
    /// pruning ablation.
    pub fn combinatorial_bound(&self, engine: &MetadataEngine, video: VideoId) -> usize {
        let replicas = engine.replicas(video).len();
        let sites = engine.sites().len();
        replicas * sites * DropStrategy::ALL.len() * 2 * CipherAlgo::ALL.len()
    }
}

/// Checks the formal plan-space conditions of §3.4: each plan draws at
/// most one element from each activity set, all components come from the
/// defined sets, and the activity order is fixed (retrieval first —
/// structural in [`Plan`]). Used by tests and the paper-fidelity checks.
pub fn satisfies_ordered_disjoint_sets(plan: &Plan) -> bool {
    // A1 (exactly one object), A2 (exactly one target) are single fields.
    // A3/A4/A5 each contribute at most one element by construction; the
    // check validates the elements belong to their sets.
    let a3_ok = DropStrategy::ALL.contains(&plan.drop);
    let a5_ok = CipherAlgo::ALL.contains(&plan.cipher);
    let a4_ok = match &plan.transcode {
        Some(t) => t.source() == &plan.object.object.spec,
        None => true,
    };
    a3_ok && a4_ok && a5_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{ColorDepth, Library, LibraryConfig, Resolution};
    use quasaq_store::{ObjectStore, Placement, QosSampler, ReplicationPlanner};
    use std::collections::BTreeMap;

    fn engine() -> MetadataEngine {
        let lib = Library::generate(42, &LibraryConfig::default());
        let mut stores = BTreeMap::new();
        for s in ServerId::first_n(3) {
            stores.insert(s, ObjectStore::new(s, 1 << 40));
        }
        let mut engine = MetadataEngine::new(ServerId::first_n(3));
        ReplicationPlanner::new(QosSampler::default(), Placement::Full)
            .replicate(&lib, &mut stores, &mut engine)
            .unwrap();
        engine
    }

    fn vcd_request(video: u32) -> PlanRequest {
        PlanRequest {
            video: VideoId(video),
            qos: QosRange {
                min_resolution: Resolution::QVGA,
                max_resolution: Resolution::CIF,
                min_color: ColorDepth::BITS_12,
                min_frame_rate: FrameRate::from_fps(20.0),
                max_frame_rate: FrameRate::NTSC,
                formats: None,
            },
            security: QopSecurity::Open,
        }
    }

    #[test]
    fn generates_plans_for_satisfiable_request() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        assert!(!plans.is_empty());
        for p in &plans {
            assert!(satisfies_ordered_disjoint_sets(p));
            // Every plan's source replica can reach the requested range.
            assert!(vcd_request(0).qos.reachable_from(&p.object.object.spec));
        }
    }

    #[test]
    fn no_plans_for_unknown_video() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        assert!(g.generate(&e, &vcd_request(99)).is_empty());
    }

    #[test]
    fn static_rule_excludes_upscaling_replicas() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        // The modem tier (176x144) cannot satisfy a VCD floor; no plan
        // may use it.
        assert!(plans.iter().all(|p| p.object.object.tier != "modem"));
    }

    #[test]
    fn dsl_replica_is_delivered_directly() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        // The DSL tier (352x288) is inside the VCD range: direct plans
        // exist with no transcode.
        assert!(plans.iter().any(|p| p.object.object.tier == "dsl" && p.transcode.is_none()));
        // Full-tier replicas exceed the ceiling, so they appear only with
        // a transcode.
        assert!(plans
            .iter()
            .filter(|p| p.object.object.tier == "full")
            .all(|p| p.transcode.is_some()));
    }

    #[test]
    fn open_security_prunes_encryption() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        assert!(plans.iter().all(|p| !p.cipher.is_encrypting()));
        // Without wasteful-pruning, encrypted plans reappear.
        let g2 = PlanGenerator::new(GeneratorConfig {
            prune_wasteful: false,
            ..GeneratorConfig::default()
        });
        let plans2 = g2.generate(&e, &vcd_request(0));
        assert!(plans2.iter().any(|p| p.cipher.is_encrypting()));
        assert!(plans2.len() > plans.len());
    }

    #[test]
    fn confidential_requires_strong_cipher() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let mut req = vcd_request(0);
        req.security = QopSecurity::Confidential;
        let plans = g.generate(&e, &req);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.cipher == CipherAlgo::Aes));
    }

    #[test]
    fn drop_respects_frame_rate_floor() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        // Floor of 20 fps: AllB (keeps 1/3 of 23.97 = 8 fps) must be
        // excluded; None stays.
        let plans = g.generate(&e, &vcd_request(0));
        assert!(plans.iter().any(|p| p.drop == DropStrategy::None));
        assert!(plans.iter().all(|p| p.drop != DropStrategy::AllB));
        // With a relaxed floor, AllB plans appear.
        let mut relaxed = vcd_request(0);
        relaxed.qos.min_frame_rate = FrameRate::from_fps(5.0);
        let plans = g.generate(&e, &relaxed);
        assert!(plans.iter().any(|p| p.drop == DropStrategy::AllB));
    }

    #[test]
    fn remote_toggle_controls_cross_site_plans() {
        let e = engine();
        let local_only = PlanGenerator::new(GeneratorConfig {
            allow_remote: false,
            ..GeneratorConfig::default()
        });
        let plans = local_only.generate(&e, &vcd_request(0));
        assert!(plans.iter().all(|p| p.is_local()));
        let with_remote = PlanGenerator::new(GeneratorConfig::default());
        let plans = with_remote.generate(&e, &vcd_request(0));
        assert!(plans.iter().any(|p| !p.is_local()));
    }

    #[test]
    fn pruning_shrinks_the_space() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let generated = g.generate(&e, &vcd_request(0)).len();
        let bound = g.combinatorial_bound(&e, VideoId(0));
        assert!(generated < bound, "generated {generated} >= bound {bound}");
    }

    #[test]
    fn infeasible_plans_are_dropped() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let plans = g.generate(&e, &vcd_request(0));
        let n = plans.len();
        // A cluster with tiny links: every plan's delivery rate exceeds
        // capacity.
        let tiny = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 10.0, 10.0, 10.0);
        let mut dropped = plans.clone();
        g.retain_feasible(&mut dropped, &tiny);
        assert!(dropped.is_empty());
        // A sane cluster keeps them all.
        let sane = CompositeQosApi::homogeneous_cluster(
            ServerId::first_n(3),
            3_200_000.0,
            20_000_000.0,
            512e6,
        );
        let mut kept = plans;
        g.retain_feasible(&mut kept, &sane);
        assert_eq!(kept.len(), n);
    }

    #[test]
    fn deterministic_enumeration_order() {
        let e = engine();
        let g = PlanGenerator::new(GeneratorConfig::default());
        let a = g.generate(&e, &vcd_request(3));
        let b = g.generate(&e, &vcd_request(3));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.object.object.oid, y.object.object.oid);
            assert_eq!(x.target_server, y.target_server);
            assert_eq!(x.drop, y.drop);
            assert_eq!(x.cipher, y.cipher);
        }
    }
}
