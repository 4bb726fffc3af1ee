//! The Quality Manager — "the focal point of the entire system".
//!
//! For each QoS-aware query (after VDBMS resolves the content component
//! to a logical OID) the manager: generates candidate plans, lets the
//! Runtime Cost Evaluator sort them "in ascending cost order", and walks
//! that order through admission control — "the first plan in this order
//! that satisfies the QoS requirements is used to service the query" —
//! reserving its resource vector through the Composite QoS API. When
//! nothing is admittable, degraded alternatives from the User Profile are
//! offered as the "second chance"; during playback, reservations can be
//! renegotiated.

use crate::cost::{by_rank, CostModel};
use crate::generator::{Candidate, DeliveryOptions, LiveTargets, PlanGenerator, PlanRequest, Side};
use crate::plan::Plan;
use crate::plancache::{PlanCache, PlanCacheKey, PlanCacheStats};
use crate::qop::UserProfile;
use quasaq_qosapi::{CompositeQosApi, LiveCapacity, Projection, ReservationId, ResourceKey};
use quasaq_sim::Rng;
use quasaq_store::MetadataEngine;
use std::collections::HashMap;
use std::sync::Arc;

/// A plan that passed admission and holds its reservation.
#[derive(Debug, Clone)]
pub struct AdmittedPlan {
    /// The chosen plan.
    pub plan: Plan,
    /// The composite reservation backing it.
    pub reservation: ReservationId,
}

/// Why a query could not be serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The plan space is empty: no replica can satisfy the QoS range at
    /// all (static infeasibility).
    NoFeasiblePlan,
    /// Plans exist but none passed admission under the current load.
    AdmissionFailed,
}

impl Rejection {
    /// Whether waiting and retrying could help: admission failures are
    /// load-dependent and clear when sessions finish, while an empty plan
    /// space is static — no amount of queueing produces a replica.
    pub fn is_transient(&self) -> bool {
        matches!(self, Rejection::AdmissionFailed)
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::NoFeasiblePlan => write!(f, "no plan can satisfy the requested QoS"),
            Rejection::AdmissionFailed => {
                write!(f, "all candidate plans were rejected by admission control")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Statistics of one planning pass (for the overhead analysis of §5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanningStats {
    /// Plans generated after static pruning.
    pub generated: usize,
    /// Plans surviving the instant feasibility drop.
    pub feasible: usize,
    /// Reservation attempts: up to and including the success, or every
    /// feasible plan when admission fails (0 when no plan is feasible).
    pub attempts: usize,
}

/// Outcome of the second-chance path.
#[derive(Debug)]
pub enum SecondChance {
    /// Admitted at the originally requested quality.
    AsRequested(AdmittedPlan),
    /// Admitted at a degraded quality (the index into the profile's
    /// degrade options is recorded).
    Degraded {
        /// The admitted plan.
        admitted: AdmittedPlan,
        /// Which degradation step was accepted (0 = first alternative).
        option: usize,
    },
    /// Nothing admittable even after degradation.
    Rejected(Rejection),
}

/// The Quality Manager.
pub struct QualityManager {
    api: CompositeQosApi,
    generator: PlanGenerator,
    cost_model: Box<dyn CostModel>,
    last_stats: PlanningStats,
    /// Recycled buffers, holding no state between calls beyond their
    /// allocations: the request's delivery options (when the plan cache
    /// does not supply them), the local option sides, the remote option
    /// sides with their score floors, and the `(score, enumeration index)`
    /// of every scored candidate.
    options: DeliveryOptions,
    locals: Vec<Side>,
    remotes: Vec<(f64, Side)>,
    scored: Vec<(f64, usize)>,
    /// The summary of the live target-side capacity, kept until the
    /// capacities or the sites change.
    live: LiveTargets,
    /// Memoized delivery options (`None` = caching off, the default).
    /// Only enumeration is memoized — feasibility, ranking and reservation
    /// run live on every admission — so cached and uncached admission are
    /// bit-identical.
    plan_cache: Option<PlanCache>,
}

impl QualityManager {
    /// Creates a manager over the given resource state, generator and
    /// cost model.
    pub fn new(
        api: CompositeQosApi,
        generator: PlanGenerator,
        cost_model: Box<dyn CostModel>,
    ) -> Self {
        QualityManager {
            api,
            generator,
            cost_model,
            last_stats: PlanningStats::default(),
            options: DeliveryOptions::default(),
            locals: Vec::new(),
            remotes: Vec::new(),
            scored: Vec::new(),
            live: LiveTargets::default(),
            plan_cache: None,
        }
    }

    /// Turns plan-enumeration memoization on (with default bounds) or
    /// off. Toggling clears any cached state, so a manager with caching
    /// enabled mid-run behaves exactly like a fresh one.
    pub fn set_plan_caching(&mut self, enabled: bool) {
        self.plan_cache = enabled.then(PlanCache::new);
    }

    /// Whether plan caching is enabled.
    pub fn plan_caching(&self) -> bool {
        self.plan_cache.is_some()
    }

    /// Cache behaviour counters (`None` when caching is off).
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(PlanCache::stats)
    }

    /// Explicit invalidation hook: drops every cached entry. Call after
    /// editing the metadata engine behind the manager's back (anything
    /// but a server failure or restart, which invalidate on their own) —
    /// the engine is the only planning input the cache memoizes.
    pub fn invalidate_plan_cache(&mut self) {
        if let Some(cache) = &mut self.plan_cache {
            cache.invalidate_all();
        }
    }

    /// Read access to the resource state (for monitoring and the LRB
    /// picture).
    pub fn api(&self) -> &CompositeQosApi {
        &self.api
    }

    /// The cost model's name.
    pub fn cost_model_name(&self) -> &'static str {
        self.cost_model.name()
    }

    /// Statistics of the most recent planning pass.
    pub fn last_stats(&self) -> PlanningStats {
        self.last_stats
    }

    /// Generates, ranks, and admits a plan for `request`: the request's
    /// delivery options come from the plan cache or a fresh enumeration,
    /// and the rest of the pipeline is the same either way.
    pub fn process(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        rng: &mut Rng,
    ) -> Result<AdmittedPlan, Rejection> {
        let (outcome, stats) = match self.cached_options(engine, request) {
            Some(options) => self.place(&options, None, rng),
            None => self.place_fresh(engine, request, None, rng),
        };
        self.last_stats = stats;
        outcome
    }

    /// The plan cache's delivery options for `request`: a hit, or a fresh
    /// enumeration stored because the doorkeeper admits the key on its
    /// second miss. `None` when caching is off or on a key's first miss —
    /// one-hit wonders (the Zipf tail) enumerate into the recycled buffer
    /// and cost exactly what caching-off costs.
    fn cached_options(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
    ) -> Option<Arc<DeliveryOptions>> {
        let cache = self.plan_cache.as_mut()?;
        let key = PlanCacheKey::of(request);
        if let Some(options) = cache.lookup(&key) {
            return Some(options);
        }
        if !cache.should_store(&key) {
            return None;
        }
        let options = Arc::new(self.generator.options(engine, request));
        cache.insert(key, Arc::clone(&options));
        Some(options)
    }

    /// [`place`](Self::place) on a fresh enumeration of `request`'s
    /// options, made in the recycled buffer.
    fn place_fresh(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        held: Option<ReservationId>,
        rng: &mut Rng,
    ) -> (Result<AdmittedPlan, Rejection>, PlanningStats) {
        let mut options = std::mem::take(&mut self.options);
        self.generator.options_into(engine, request, &mut options);
        let placed = self.place(&options, held, rng);
        self.options = options;
        placed
    }

    /// The admission pipeline, for every cost model: places a session on a
    /// plan from `options`, reserving afresh or, when `held` names the
    /// session's reservation, renegotiating it. Each candidate (delivery
    /// option × target × cipher) that fits the buckets' total capacity,
    /// the cut of [`PlanGenerator::retain_feasible`], is scored in place
    /// against the live buckets, a held reservation counted as used, and
    /// the pass keeps the `(score, enumeration index)` minimum.
    ///
    /// The candidates are scored side by side, each option's local target
    /// and then its remote targets
    /// ([`DeliveryOptions::for_each_side`]); the minimum is re-taken when
    /// the model's [`reorder`](CostModel::reorder) rescores. Under a
    /// [`score_floor`](CostModel::score_floor), the remote sides are
    /// queued instead and scored in ascending order of the floor their
    /// replica side's projection gives, until a side's floor is strictly
    /// above the minimum found: no candidate of that side or a later one
    /// can rank first, since ties go to the lower index. The sides left
    /// unscored still count toward [`PlanningStats::feasible`], by capacity
    /// comparisons alone.
    ///
    /// Walking the rank order would attempt candidates until one is
    /// placed, but a refused attempt changes no bucket, and an attempt
    /// succeeds exactly when a pure check passes:
    /// [`CompositeQosApi::admits`] for a new reservation,
    /// [`CompositeQosApi::admits_renegotiation`] for a held one. So the
    /// minimum is checked first. If it is refused, the pick is the
    /// rank-minimum of the admissible candidates: among the scored ones,
    /// only a candidate ranked ahead of the pick found so far is checked,
    /// and under a floor the further sides whose floor does not exceed the
    /// pick are scored and checked alike. The walk's attempt count is 1
    /// plus the number of candidates ranked ahead of the pick, all of them
    /// scored, or every feasible candidate when none is admissible. Only
    /// the placed plan is built.
    ///
    /// Under a floor, a new reservation whose best local candidate is
    /// refused is first put to [`prove_refusal`], before any remote side
    /// is scored: when no candidate at all is admissible, the walk would
    /// refuse every feasible candidate, which the proof counts, and
    /// nothing needs ranking.
    fn place(
        &mut self,
        options: &DeliveryOptions,
        held: Option<ReservationId>,
        rng: &mut Rng,
    ) -> (Result<AdmittedPlan, Rejection>, PlanningStats) {
        let mut stats = PlanningStats { generated: options.plan_count(), feasible: 0, attempts: 0 };
        if stats.generated == 0 {
            return (Err(Rejection::NoFeasiblePlan), stats);
        }
        let (model, api) = (&*self.cost_model, &self.api);
        let (locals, remotes, scored) = (&mut self.locals, &mut self.remotes, &mut self.scored);
        scored.clear();
        locals.clear();
        remotes.clear();
        // The pure check of one attempt, entry by entry.
        let admits = |entries: &[(ResourceKey, f64)]| {
            match held {
                None => api.admits(entries),
                Some(id) => api.admits_renegotiation(id, entries),
            }
            .is_ok()
        };
        let mut best: Option<(f64, usize)> = None;
        // The remote sides from `remotes[next..]` on are unscored.
        let mut next = 0;
        // A model has a floor for every fill or for none.
        let floored = model.score_floor(0.0).is_some();
        // A side is scored at once, unless it is remote under a floor: then
        // it is queued with its floor (a local side has one target, and a
        // floor never above its remote side's).
        options.for_each_side(api, |side| match model.score_floor(side.replica.max_fill) {
            Some(floor) if side.remote => remotes.push((floor, side)),
            _ => {
                if !side.remote {
                    locals.push(side);
                }
                options.for_each_projected_on(api, side, |index, c, projection, demand| {
                    keep_min(&mut best, score(model, api, scored, index, c, projection, demand))
                });
            }
        });
        if floored
            && held.is_none()
            && !best.is_some_and(|b| admits(&options.candidate(b.1).demand()))
        {
            let live = self.live.of(api, options);
            if let Some(fitting) = prove_refusal(options, api, locals, remotes, &live) {
                stats.feasible = scored.len() + fitting;
                stats.attempts = stats.feasible;
                let refused = match stats.feasible {
                    0 => Rejection::NoFeasiblePlan,
                    _ => Rejection::AdmissionFailed,
                };
                return (Err(refused), stats);
            }
        }
        while let Some(side) = next_side(remotes, next, best) {
            next += 1;
            options.for_each_projected_on(api, side, |index, c, projection, demand| {
                keep_min(&mut best, score(model, api, scored, index, c, projection, demand))
            });
        }
        stats.feasible = scored.len();
        if next < remotes.len() {
            let live = self.live.of(api, options);
            stats.feasible += remotes[next..]
                .iter()
                .map(|&(_, side)| options.count_fitting(api, side, &live))
                .sum::<usize>();
        }
        let rescored = model.reorder(scored, rng);
        debug_assert!(!(floored && rescored), "a model with a score floor ranks by its scores");
        if rescored {
            best = scored.iter().copied().min_by(by_rank);
        }
        let Some(best) = best else {
            return (Err(Rejection::NoFeasiblePlan), stats);
        };
        stats.attempts = 1;
        let mut pick = admits(&options.candidate(best.1).demand()).then_some(best);
        if pick.is_none() {
            let ahead = |e: &(f64, usize), pick: Option<(f64, usize)>| {
                pick.is_none_or(|p| by_rank(e, &p).is_lt())
            };
            for &entry in scored.iter() {
                if ahead(&entry, pick) && admits(&options.candidate(entry.1).demand()) {
                    pick = Some(entry);
                }
            }
            // Under a floor, an admissible candidate ranked ahead of the
            // pick can only lie in a side whose floor does not exceed it.
            // The check is made entry by entry, so a side's shared replica
            // entries are checked once.
            while let Some(side) = next_side(remotes, next, pick) {
                next += 1;
                let replica_admits = admits(&options.replica_entries(side));
                options.for_each_projected_on(api, side, |index, c, projection, demand| {
                    let entry = score(model, api, scored, index, c, projection, demand);
                    let admitted = |e| replica_admits && ahead(&e, pick) && admits(&demand[2..]);
                    if entry.is_some_and(admitted) {
                        pick = entry;
                    }
                });
            }
            stats.attempts = match pick {
                Some(p) => 1 + scored.iter().filter(|e| by_rank(e, &p).is_lt()).count(),
                None => stats.feasible,
            };
        }
        let Some((_, index)) = pick else {
            return (Err(Rejection::AdmissionFailed), stats);
        };
        let plan = options.plan(options.candidate(index));
        let reservation = match held {
            None => self.api.reserve(&plan.resources),
            Some(id) => self.api.renegotiate(id, &plan.resources),
        };
        let reservation = reservation.expect("an attempt succeeds when its pure check passes");
        (Ok(AdmittedPlan { plan, reservation }), stats)
    }

    /// The bulk-admit enumeration pass: warms the plan cache for a batch
    /// of arrivals (the flash-crowd case). Requests are sorted by video —
    /// metadata-engine locality — and each absent key that repeats within
    /// the batch is enumerated once (batch singletons defer to the
    /// per-request doorkeeper, so a flash crowd of one-hit wonders cannot
    /// flush the warm set). Consumes no RNG and makes no reservations, so
    /// `prefetch_plans` followed by sequential [`process`](Self::process)
    /// calls in arrival order is bit-identical to processing the batch
    /// cold. No-op when caching is off.
    pub fn prefetch_plans(&mut self, engine: &MetadataEngine, requests: &[PlanRequest]) {
        let Some(cache) = &mut self.plan_cache else { return };
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| requests[i].video);
        let mut count: HashMap<PlanCacheKey, u32> = HashMap::new();
        for req in requests {
            *count.entry(PlanCacheKey::of(req)).or_insert(0) += 1;
        }
        for i in order {
            let key = PlanCacheKey::of(&requests[i]);
            if count[&key] < 2 || cache.contains(&key) {
                continue;
            }
            cache.insert(key, Arc::new(self.generator.options(engine, &requests[i])));
        }
    }

    /// The full user-facing path: try the requested quality, then walk the
    /// profile's degraded alternatives ("a number of admittable
    /// alternative plans will be presented as a 'second chance'").
    pub fn process_with_second_chance(
        &mut self,
        engine: &MetadataEngine,
        request: &PlanRequest,
        profile: &UserProfile,
        rng: &mut Rng,
    ) -> SecondChance {
        match self.process(engine, request, rng) {
            Ok(admitted) => SecondChance::AsRequested(admitted),
            Err(first_err) => {
                // The reported reason must reflect the *whole* walk: if any
                // attempt — original or degraded — had feasible plans that
                // admission turned away, the rejection is transient
                // overload, not static infeasibility. Reporting the
                // original request's error here made retry policies treat
                // recoverable congestion as hopeless.
                let mut any_admission_failure = first_err == Rejection::AdmissionFailed;
                for (i, alt) in profile.degrade_options(&request.qos).into_iter().enumerate() {
                    let alt_request =
                        PlanRequest { video: request.video, qos: alt, security: request.security };
                    match self.process(engine, &alt_request, rng) {
                        Ok(admitted) => return SecondChance::Degraded { admitted, option: i },
                        Err(err) => any_admission_failure |= err == Rejection::AdmissionFailed,
                    }
                }
                SecondChance::Rejected(if any_admission_failure {
                    Rejection::AdmissionFailed
                } else {
                    Rejection::NoFeasiblePlan
                })
            }
        }
    }

    /// Releases an admitted plan's resources (session completion).
    pub fn release(&mut self, admitted: &AdmittedPlan) {
        self.api.release(admitted.reservation);
    }

    /// Releases by reservation id (for drivers that only track ids).
    pub fn release_reservation(&mut self, reservation: ReservationId) {
        self.api.release(reservation);
    }

    /// Handles the loss of a server: its resource buckets disappear and
    /// every reservation touching it is cancelled. The caller should also
    /// drop the server from the metadata engine
    /// ([`MetadataEngine::fail_site`]) and then re-`process` the affected
    /// sessions — the User Profile's statistics exist "enabling better
    /// renegotiation decisions in case of resource failure".
    pub fn handle_server_failure(&mut self, server: quasaq_sim::ServerId) -> Vec<ReservationId> {
        let cancelled = self.api.fail_server(server);
        // The caller is about to drop the server from the metadata
        // engine, which changes every request's delivery options.
        self.invalidate_plan_cache();
        cancelled
    }

    /// Handles a failed server coming back: its buckets re-register empty
    /// at their pre-failure capacities, so subsequent `process` calls plan
    /// against it again. Returns `false` when the server was not down.
    pub fn handle_server_restart(&mut self, server: quasaq_sim::ServerId) -> bool {
        let restored = self.api.restore_server(server);
        if restored {
            // Mirror of the failure hook: the engine regains the site.
            self.invalidate_plan_cache();
        }
        restored
    }

    /// Re-rates one resource bucket (link degradation / recovery faults).
    /// Cached delivery options stay valid: feasibility and cost are read
    /// live on every admission. Returns `false` for unmanaged buckets.
    pub fn set_capacity(&mut self, key: quasaq_qosapi::ResourceKey, capacity: f64) -> bool {
        self.api.set_capacity(key, capacity)
    }

    /// Renegotiates a running session to a new QoS range (user action
    /// during playback) through the admission pipeline, on a fresh
    /// enumeration. On success the old reservation is replaced; on failure
    /// it is kept untouched. Leaves [`last_stats`](Self::last_stats) and
    /// the plan cache alone.
    pub fn renegotiate(
        &mut self,
        engine: &MetadataEngine,
        admitted: &AdmittedPlan,
        new_request: &PlanRequest,
        rng: &mut Rng,
    ) -> Result<AdmittedPlan, Rejection> {
        self.place_fresh(engine, new_request, Some(admitted.reservation), rng).0
    }
}

/// Scores candidate `c` at enumeration `index` when its projection fits
/// capacity, recording its `(score, index)` entry in `scored`, and returns
/// the entry.
fn score(
    model: &dyn CostModel,
    api: &CompositeQosApi,
    scored: &mut Vec<(f64, usize)>,
    index: usize,
    c: Candidate<'_>,
    projection: Projection,
    demand: &[(ResourceKey, f64); 5],
) -> Option<(f64, usize)> {
    let entry = projection
        .fits_capacity
        .then(|| (model.score(&c.view(projection.max_fill, demand, api)), index));
    scored.extend(entry);
    entry
}

/// Under a score floor, for a fresh reservation: whether no candidate of
/// the option sides, `locals` (all scored) and then `remotes`, passes
/// [`CompositeQosApi::admits`]. Returns `None` at the first side found
/// with a candidate that does, else how many of the remote sides'
/// candidates fit capacity ([`DeliveryOptions::count_fitting`] under
/// `live`). A candidate passes when its replica-side and its target-side
/// entries do. The replica side is checked once for each run of sides with
/// the same replica entries (an option's replica comes first in the
/// enumeration, so the options of one replica are consecutive), the
/// target side as [`DeliveryOptions::side_admits`] does.
fn prove_refusal(
    options: &DeliveryOptions,
    api: &CompositeQosApi,
    locals: &[Side],
    remotes: &[(f64, Side)],
    live: &LiveCapacity,
) -> Option<usize> {
    let mut fitting = 0;
    let mut replica: Option<([(ResourceKey, f64); 2], bool)> = None;
    let mut headroom = None;
    for &side in locals.iter().chain(remotes.iter().map(|(_, side)| side)) {
        if side.remote {
            fitting += options.count_fitting(api, side, live);
        }
        let entries = options.replica_entries(side);
        let admitted = match replica {
            Some((checked, admitted)) if checked == entries => admitted,
            _ => {
                let admitted = api.admits(&entries).is_ok();
                replica = Some((entries, admitted));
                admitted
            }
        };
        if admitted && options.side_admits(api, side, &mut headroom) {
            return None;
        }
    }
    Some(fitting)
}

/// The next remote side to score in ascending floor order, taken from the
/// `(floor, side)` entries of `remotes[next..]`: moves the least to
/// `remotes[next]` and returns its side, or `None` when its floor is above
/// `bound`'s score (or no entry is left), since then no candidate of it or
/// of a later side ranks ahead of `bound`. The sides scored are thus
/// exactly those whose floor is at most the final bound, whichever way
/// equal floors are ordered. A selection sort taken one step at a time:
/// few remote sides are scored, and sorting them all cost more than
/// scoring those few.
fn next_side(
    remotes: &mut [(f64, Side)],
    next: usize,
    bound: Option<(f64, usize)>,
) -> Option<Side> {
    let rest = &mut remotes[next..];
    let (at, &(floor, side)) = rest.iter().enumerate().min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))?;
    if bound.is_some_and(|b| floor.total_cmp(&b.0).is_gt()) {
        return None;
    }
    rest.swap(0, at);
    Some(side)
}

/// Makes `min` the rank-minimum of itself and `entry`.
fn keep_min(min: &mut Option<(f64, usize)>, entry: Option<(f64, usize)>) {
    if let Some(entry) = entry.filter(|e| min.is_none_or(|m| by_rank(e, &m).is_lt())) {
        *min = Some(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{
        EfficiencyModel, LrbModel, MinBitrateModel, RandomModel, ThroughputGain, UtilityGain,
        WeightedSumModel,
    };
    use crate::generator::GeneratorConfig;
    use crate::qop::{QopRequest, QopSecurity, QosWeights};
    use quasaq_media::{Library, LibraryConfig, VideoId};
    use quasaq_qosapi::{ResourceKey, ResourceKind, ResourceVector};
    use quasaq_sim::ServerId;
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

    fn manager() -> QualityManager {
        QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        )
    }

    fn request(video: u32) -> PlanRequest {
        let profile = UserProfile::new("u");
        PlanRequest {
            video: VideoId(video),
            qos: profile.translate(&QopRequest::organizational()),
            security: QopSecurity::Open,
        }
    }

    #[test]
    fn processes_and_reserves() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(1);
        let admitted = m.process(&e, &request(0), &mut rng).unwrap();
        assert!(m.api().reservation_count() == 1);
        let stats = m.last_stats();
        assert!(stats.generated > 0);
        assert_eq!(stats.attempts, 1);
        // The delivered quality satisfies the request.
        assert!(
            request(0).qos.accepts(&admitted.plan.delivered)
                || admitted.plan.delivered.frame_rate <= request(0).qos.max_frame_rate
        );
        m.release(&admitted);
        assert_eq!(m.api().reservation_count(), 0);
    }

    #[test]
    fn lrb_spreads_sessions_across_servers() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(2);
        let mut admitted = Vec::new();
        for i in 0..9 {
            admitted.push(m.process(&e, &request(i % 15), &mut rng).unwrap());
        }
        let mut by_server = BTreeMap::new();
        for a in &admitted {
            *by_server.entry(a.plan.target_server).or_insert(0) += 1;
        }
        assert_eq!(by_server.len(), 3, "sessions should spread: {by_server:?}");
    }

    #[test]
    fn saturation_leads_to_admission_failure() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(3);
        let mut count = 0;
        loop {
            match m.process(&e, &request(count as u32 % 15), &mut rng) {
                Ok(_) => count += 1,
                Err(rej) => {
                    assert_eq!(rej, Rejection::AdmissionFailed);
                    break;
                }
            }
            assert!(count < 10_000, "admission never saturated");
        }
        assert!(count > 10, "only {count} sessions admitted");
    }

    #[test]
    fn second_chance_degrades_when_full() {
        let e = engine();
        // A tiny cluster that can serve DSL-class but not the requested
        // floor's bandwidth after a few sessions.
        let mut m = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                120_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        );
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(4);
        // High-quality request: t1 tier (193 kB/s) exceeds every link, so
        // direct admission of the floor fails but a degraded option (lower
        // resolution floor -> dsl tier at 48 kB/s) fits.
        let req = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        match m.process_with_second_chance(&e, &req, &profile, &mut rng) {
            SecondChance::Degraded { admitted, .. } => {
                assert!(admitted.plan.delivered_bps <= 120_000.0);
            }
            other => panic!("expected degraded outcome, got {other:?}"),
        }
    }

    #[test]
    fn second_chance_reports_transient_overload() {
        let e = engine();
        // Same tiny cluster as the degradation test, but saturated first.
        let mut m = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                120_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        );
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(9);
        let mut guard = 0u32;
        loop {
            let req = PlanRequest {
                video: VideoId(guard % 15),
                qos: profile.translate(&QopRequest::organizational()),
                security: QopSecurity::Open,
            };
            let outcome = m.process_with_second_chance(&e, &req, &profile, &mut rng);
            if matches!(outcome, SecondChance::Rejected(_)) {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "cluster never saturated");
        }
        // Diagnostic floor (VGA+) exceeds every link's capacity, so the
        // original attempt is statically infeasible — but its degraded
        // alternatives have capacity-feasible plans that only fail
        // admission on the saturated cluster. The walk must surface that
        // as transient overload, not NoFeasiblePlan.
        let req = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        match m.process_with_second_chance(&e, &req, &profile, &mut rng) {
            SecondChance::Rejected(rej) => {
                assert_eq!(rej, Rejection::AdmissionFailed);
                assert!(rej.is_transient());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn second_chance_keeps_hopeless_requests_hopeless() {
        let e = engine();
        let mut m = manager();
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(10);
        // A floor far above any stored replica: one degradation step
        // (halving) still lands above FULL, so every alternative stays
        // statically infeasible and the reason must remain NoFeasiblePlan.
        let mut req = request(0);
        req.qos.min_resolution = quasaq_media::Resolution::new(4000, 3000);
        req.qos.max_resolution = quasaq_media::Resolution::new(8000, 6000);
        match m.process_with_second_chance(&e, &req, &profile, &mut rng) {
            SecondChance::Rejected(rej) => {
                assert_eq!(rej, Rejection::NoFeasiblePlan);
                assert!(!rej.is_transient());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn renegotiation_swaps_reservation() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(5);
        let profile = UserProfile::new("u");
        let admitted = m.process(&e, &request(0), &mut rng).unwrap();
        let before = m.api().reservation_count();
        // Renegotiate up to diagnostic quality mid-playback.
        let up = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        let renewed = m.renegotiate(&e, &admitted, &up, &mut rng).unwrap();
        assert_eq!(m.api().reservation_count(), before);
        assert!(renewed.plan.delivered_bps >= admitted.plan.delivered_bps);
        m.release(&renewed);
        assert_eq!(m.api().reservation_count(), 0);
    }

    #[test]
    fn infeasible_qos_is_distinguished_from_overload() {
        let e = engine();
        let mut m = manager();
        let mut rng = Rng::new(6);
        // Ask for an impossible floor (above any stored replica).
        let mut req = request(0);
        req.qos.min_resolution = quasaq_media::Resolution::new(4000, 3000);
        req.qos.max_resolution = quasaq_media::Resolution::new(8000, 6000);
        assert_eq!(m.process(&e, &req, &mut rng).unwrap_err(), Rejection::NoFeasiblePlan);
    }

    #[test]
    fn server_failure_triggers_replanning_on_survivors() {
        let mut e = engine();
        let mut m = manager();
        let mut rng = Rng::new(8);
        // Admit a handful of sessions across the cluster.
        let mut sessions = Vec::new();
        for i in 0..6 {
            sessions.push(m.process(&e, &request(i), &mut rng).unwrap());
        }
        let failed = ServerId(0);
        let cancelled = m.handle_server_failure(failed);
        e.fail_site(failed);
        // Every cancelled session can be re-planned, and the new plans
        // avoid the dead server entirely (full replication).
        for old in &sessions {
            if !cancelled.contains(&old.reservation) {
                continue;
            }
            let video = old.plan.object.object.video;
            let req = request(video.0);
            let renewed = m.process(&e, &req, &mut rng).expect("survivors have capacity");
            assert_ne!(renewed.plan.target_server, failed);
            assert_ne!(renewed.plan.source_server(), failed);
        }
        // No bucket on the failed server remains managed.
        assert!(m.api().buckets().all(|k| k.server != failed));
    }

    /// Drives a cache-on and a cache-off manager through the same
    /// admission/release/fault/renegotiation sequence and asserts every
    /// observable — outcomes, stats, RNG stream — stays bit-identical.
    fn assert_cached_matches_uncached(make_model: fn() -> Box<dyn CostModel>, seed: u64) {
        let mut e_cold = engine();
        let mut e_warm = engine();
        let api = || {
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            )
        };
        let mut cold = QualityManager::new(
            api(),
            PlanGenerator::new(GeneratorConfig::default()),
            make_model(),
        );
        let mut warm = QualityManager::new(
            api(),
            PlanGenerator::new(GeneratorConfig::default()),
            make_model(),
        );
        warm.set_plan_caching(true);
        let mut rng_c = Rng::new(seed);
        let mut rng_w = Rng::new(seed);
        let profile = UserProfile::new("u");
        let mut live: Vec<(AdmittedPlan, AdmittedPlan)> = Vec::new();
        for round in 0..120u32 {
            match round {
                // Mid-sequence structural events, mirrored on both sides.
                40 => {
                    let down = ServerId(1);
                    assert_eq!(cold.handle_server_failure(down), warm.handle_server_failure(down));
                    e_cold.fail_site(down);
                    e_warm.fail_site(down);
                }
                55 => {
                    // Renegotiate the most recent surviving pair upward.
                    if let Some((a, b)) = live.pop() {
                        let up = PlanRequest {
                            video: a.plan.object.object.video,
                            qos: profile.translate(&QopRequest::diagnostic()),
                            security: QopSecurity::Open,
                        };
                        let ra = cold.renegotiate(&e_cold, &a, &up, &mut rng_c);
                        let rb = warm.renegotiate(&e_warm, &b, &up, &mut rng_w);
                        assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "renegotiation diverged");
                        if let (Ok(na), Ok(nb)) = (ra, rb) {
                            live.push((na, nb));
                        } else {
                            live.push((a, b));
                        }
                    }
                }
                70 => {
                    assert_eq!(
                        cold.handle_server_restart(ServerId(1)),
                        warm.handle_server_restart(ServerId(1))
                    );
                }
                90 => {
                    let key = ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth);
                    assert_eq!(
                        cold.set_capacity(key, 2_500_000.0),
                        warm.set_capacity(key, 2_500_000.0)
                    );
                }
                _ => {}
            }
            // Load rises and falls: periodically complete the oldest pair
            // (releasing a fault-cancelled reservation is a no-op on both
            // sides, so no special-casing after round 40).
            if round % 7 == 6 && !live.is_empty() {
                let (a, b) = live.remove(0);
                cold.release(&a);
                warm.release(&b);
            }
            let req = request(round % 5);
            let rc = cold.process(&e_cold, &req, &mut rng_c);
            let rw = warm.process(&e_warm, &req, &mut rng_w);
            assert_eq!(format!("{rc:?}"), format!("{rw:?}"), "round {round}: outcome diverged");
            assert_eq!(cold.last_stats(), warm.last_stats(), "round {round}: stats diverged");
            assert_eq!(
                rng_c.below(1 << 30),
                rng_w.below(1 << 30),
                "round {round}: RNG streams diverged"
            );
            if let (Ok(a), Ok(b)) = (rc, rw) {
                live.push((a, b));
            }
        }
        let stats = warm.plan_cache_stats().expect("caching on");
        assert!(stats.hits > 0, "the repetitive request mix must hit: {stats:?}");
    }

    /// Every cost model configuration, each run cached and uncached.
    const MODELS: [fn() -> Box<dyn CostModel>; 6] = [
        || Box::new(LrbModel),
        || Box::new(RandomModel),
        || Box::new(MinBitrateModel),
        || Box::new(WeightedSumModel::default()),
        || Box::new(EfficiencyModel::new(ThroughputGain)),
        || Box::new(EfficiencyModel::new(UtilityGain { weights: QosWeights::default() })),
    ];

    #[test]
    fn cached_admission_is_bit_identical_to_uncached_for_every_model() {
        // RandomModel consumes RNG during ranking, so its run also proves a
        // hit replays the exact draw sequence of a fresh enumeration.
        for (seed, make_model) in (11..).zip(MODELS) {
            assert_cached_matches_uncached(make_model, seed);
        }
    }

    type Side = (QualityManager, Rng);

    /// Repeats `request(0)` on a cache-off and a cache-on manager: the
    /// cached side must hit and decide exactly as the other.
    fn repeat_hits_and_matches(
        e: &MetadataEngine,
        cold: &mut Side,
        warm: &mut Side,
    ) -> [AdmittedPlan; 2] {
        let name = cold.0.cost_model_name();
        let hits = warm.0.plan_cache_stats().unwrap().hits;
        let a = cold.0.process(e, &request(0), &mut cold.1);
        let b = warm.0.process(e, &request(0), &mut warm.1);
        assert_eq!(warm.0.plan_cache_stats().unwrap().hits, hits + 1, "{name}: not a hit");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name}: outcome diverged");
        assert_eq!(cold.0.last_stats(), warm.0.last_stats(), "{name}: stats diverged");
        assert_eq!(cold.1.below(1 << 30), warm.1.below(1 << 30), "{name}: RNG diverged");
        [a.unwrap(), b.unwrap()]
    }

    /// Cached options hold nothing capacity- or usage-derived, so neither
    /// a re-rate nor a renegotiation clears them: the next repeat of a
    /// request hits, and still decides exactly as a cache-off manager.
    #[test]
    fn rerating_and_renegotiation_keep_cached_options() {
        let e = engine();
        let profile = UserProfile::new("u");
        let up = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        let key = ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth);
        for (seed, make_model) in (30..).zip(MODELS) {
            let side = |caching: bool| {
                let mut m = QualityManager::new(
                    CompositeQosApi::homogeneous_cluster(
                        ServerId::first_n(3),
                        3_200_000.0,
                        20_000_000.0,
                        512e6,
                    ),
                    PlanGenerator::new(GeneratorConfig::default()),
                    make_model(),
                );
                m.set_plan_caching(caching);
                (m, Rng::new(seed))
            };
            let (mut cold, mut warm) = (side(false), side(true));
            // Two misses: the doorkeeper stores the key on the second.
            for side in [&mut cold, &mut warm] {
                for _ in 0..2 {
                    side.0.process(&e, &request(0), &mut side.1).unwrap();
                }
            }
            let [a, b] = repeat_hits_and_matches(&e, &mut cold, &mut warm);
            assert!(cold.0.set_capacity(key, 1_000_000.0));
            assert!(warm.0.set_capacity(key, 1_000_000.0));
            repeat_hits_and_matches(&e, &mut cold, &mut warm);
            let ra = cold.0.renegotiate(&e, &a, &up, &mut cold.1);
            let rb = warm.0.renegotiate(&e, &b, &up, &mut warm.1);
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "renegotiation diverged");
            assert!(ra.is_ok(), "{}: renegotiation must succeed", cold.0.cost_model_name());
            repeat_hits_and_matches(&e, &mut cold, &mut warm);
            assert_eq!(warm.0.plan_cache_stats().unwrap().invalidations, 0);
        }
    }

    #[test]
    fn fault_hooks_invalidate_the_cache() {
        let e = engine();
        let mut m = manager();
        m.set_plan_caching(true);
        let mut rng = Rng::new(14);
        let mut warm_up = |m: &mut QualityManager| {
            // The doorkeeper stores a key on its second miss.
            let _ = m.process(&e, &request(0), &mut rng);
            let _ = m.process(&e, &request(0), &mut rng);
            assert_eq!(m.plan_cache.as_ref().unwrap().len(), 1);
        };
        warm_up(&mut m);
        m.handle_server_failure(ServerId(2));
        assert_eq!(m.plan_cache.as_ref().unwrap().len(), 0, "failure must clear the cache");
        assert_eq!(m.plan_cache_stats().unwrap().invalidations, 1);
        warm_up(&mut m);
        assert!(m.handle_server_restart(ServerId(2)), "restart of a down server restores");
        assert_eq!(m.plan_cache.as_ref().unwrap().len(), 0, "restore must clear the cache");
        // Restarting a live server is a no-op and must NOT invalidate.
        warm_up(&mut m);
        assert!(!m.handle_server_restart(ServerId(2)));
        assert_eq!(m.plan_cache.as_ref().unwrap().len(), 1);
        assert_eq!(m.plan_cache_stats().unwrap().invalidations, 2);
    }

    #[test]
    fn prefetch_amortizes_enumeration_without_changing_decisions() {
        let e = engine();
        let reqs: Vec<PlanRequest> = (0..10u32).map(|i| request(i % 4)).collect();
        let mut plain = manager();
        let mut bulk = manager();
        bulk.set_plan_caching(true);
        let mut rng_p = Rng::new(15);
        let mut rng_b = Rng::new(15);
        bulk.prefetch_plans(&e, &reqs);
        // Four distinct keys enumerated once each; prefetch itself touches
        // no counters, no RNG, no reservations, no stats.
        let s = bulk.plan_cache_stats().unwrap();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(bulk.plan_cache.as_ref().unwrap().len(), 4);
        assert_eq!(bulk.api().reservation_count(), 0);
        assert_eq!(bulk.last_stats(), PlanningStats::default());
        for req in &reqs {
            let rp = plain.process(&e, req, &mut rng_p);
            let rb = bulk.process(&e, req, &mut rng_b);
            assert_eq!(format!("{rp:?}"), format!("{rb:?}"));
            assert_eq!(plain.last_stats(), bulk.last_stats());
        }
        let s = bulk.plan_cache_stats().unwrap();
        assert_eq!(s.misses, 0, "prefetch should have warmed every key: {s:?}");
        assert_eq!(s.hits, reqs.len() as u64);
        // Prefetching is idempotent: already-cached keys are skipped.
        bulk.prefetch_plans(&e, &reqs);
        assert_eq!(bulk.plan_cache.as_ref().unwrap().len(), 4);
    }

    /// The score floor prunes: on a loaded 20-server cluster, LRB scores a
    /// small share of the candidates, all of which fit capacity.
    #[test]
    fn lrb_scores_only_the_sides_that_can_win() {
        let servers: Vec<ServerId> = ServerId::first_n(20).collect();
        let mut e = spread_engine(&servers);
        let api = CompositeQosApi::homogeneous_cluster(servers, 3_200_000.0, 20_000_000.0, 512e6);
        let generator = PlanGenerator::new(GeneratorConfig::default());
        let mut m = QualityManager::new(api, generator, Box::new(LrbModel));
        let mut rng = Rng::new(16);
        for i in 0..900 {
            m.process(&e, &request(i % 15), &mut rng).expect("the cluster has room");
        }
        let (mut scored, mut generated) = (0, 0);
        for video in 0..15 {
            let admitted = m.process(&e, &request(video), &mut rng).expect("room");
            m.release(&admitted);
            let stats = m.last_stats();
            assert_eq!(stats.feasible, stats.generated, "nothing exceeds a bucket's capacity");
            scored += m.scored.len();
            generated += stats.generated;
        }
        assert!(scored * 3 < generated, "{scored} of {generated} candidates scored");
        // The live-capacity summary kept for that count follows the
        // request's site list, not only the capacity epoch: a site dropped
        // from the catalog alone, its buckets still registered, must not
        // be counted as a target.
        e.fail_site(ServerId(0));
        for video in 0..15 {
            let admitted = m.process(&e, &request(video), &mut rng).expect("room");
            m.release(&admitted);
            let stats = m.last_stats();
            assert_eq!(stats.feasible, stats.generated, "video {video} on 19 sites");
        }
    }

    /// Three copies of each video of the default library, spread over
    /// `servers`.
    fn spread_engine(servers: &[ServerId]) -> MetadataEngine {
        let lib = Library::generate(42, &LibraryConfig::default());
        let mut stores: BTreeMap<_, _> =
            servers.iter().map(|&s| (s, ObjectStore::new(s, 1 << 40))).collect();
        let mut e = MetadataEngine::new(servers.to_vec());
        ReplicationPlanner::new(QosSampler::default(), Placement::Spread { copies: 3 })
            .replicate(&lib, &mut stores, &mut e)
            .unwrap();
        e
    }

    /// The refusal proof is exact both ways: on 12-server clusters whose
    /// buckets are saturated, partly used or idle at random (so a server
    /// often has one target-side kind to spare and not another), it finds
    /// an admissible candidate exactly when one of the generated plans
    /// passes admission, and otherwise counts the remote plans that fit
    /// capacity.
    #[test]
    fn refusal_proof_is_exact() {
        let servers: Vec<ServerId> = ServerId::first_n(12).collect();
        let e = spread_engine(&servers);
        let generator = PlanGenerator::new(GeneratorConfig::default());
        let mut rng = Rng::new(17);
        let (mut proved, mut found) = (0, 0);
        for _ in 0..30 {
            let mut api = CompositeQosApi::homogeneous_cluster(
                servers.iter().copied(),
                3_200_000.0,
                20_000_000.0,
                512e6,
            );
            // The chance, out of 8, that a bucket is saturated.
            let saturated = 2 + rng.below(6);
            for key in api.buckets().collect::<Vec<_>>() {
                let fraction = match rng.below(8) {
                    draw if draw < saturated => 0.995 + 0.005 * rng.next_f64(),
                    7 => 0.0,
                    _ => rng.next_f64(),
                };
                let amount = fraction * api.capacity(key).unwrap();
                api.reserve(&ResourceVector::new().with(key, amount)).unwrap();
            }
            for video in 0..15 {
                let mut request = request(video);
                request.security = [QopSecurity::Open, QopSecurity::Standard][rng.index(2)];
                let options = generator.options(&e, &request);
                let (mut locals, mut remotes) = (Vec::new(), Vec::new());
                options.for_each_side(&api, |side| match side.remote {
                    true => remotes.push((0.0, side)),
                    false => locals.push(side),
                });
                let live = LiveTargets::default().of(&api, &options);
                let proof = prove_refusal(&options, &api, &locals, &remotes, &live);
                let plans = generator.generate(&e, &request);
                let admissible = plans.iter().any(|p| api.admits(p.resources.entries()).is_ok());
                assert_eq!(proof.is_none(), admissible, "video {video}: {proof:?}");
                if let Some(fitting) = proof {
                    let fits = |p: &&Plan| api.project(p.resources.entries()).fits_capacity;
                    let remote = plans.iter().filter(|p| !p.is_local()).filter(fits).count();
                    assert_eq!(fitting, remote, "video {video}");
                    proved += 1;
                } else {
                    found += 1;
                }
            }
        }
        assert!(proved > 0 && found > 0, "{proved} proved, {found} found");
    }

    #[test]
    fn random_model_admits_too() {
        let e = engine();
        let mut m = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(RandomModel),
        );
        let mut rng = Rng::new(7);
        assert_eq!(m.cost_model_name(), "random");
        let admitted = m.process(&e, &request(1), &mut rng).unwrap();
        let key = ResourceKey::new(admitted.plan.target_server, ResourceKind::NetBandwidth);
        assert!(m.api().used(key).unwrap() > 0.0);
    }
}
