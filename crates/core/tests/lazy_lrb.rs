//! Differential test of the admission pipeline against the plan-list
//! pipeline it replaced, for every cost model and for renegotiation.
//!
//! `QualityManager::process` and `QualityManager::renegotiate` score
//! candidates in place and build only the plans they try. The reference
//! is the plan-list pipeline, run on an identically built resource state
//! and written out here rather than taken from the trait:
//! `generate_into` → `retain_feasible` → a sort by per-plan scores
//! computed from `CompositeQosApi` reads (a shuffle for the random model)
//! → `reserve` or `renegotiate` down the order. Both must agree on the
//! outcome, every field of the chosen plan, the planning statistics, the
//! bucket usage afterwards and the next RNG draw, bit for bit; and each
//! model's `CostModel::rank` must return the reference order.

use proptest::prelude::*;
use quasaq_core::{
    AdmittedPlan, CostModel, EfficiencyModel, GeneratorConfig, LrbModel, MinBitrateModel, Plan,
    PlanGenerator, PlanRequest, PlanningStats, QopSecurity, QosWeights, QualityManager,
    RandomModel, Rejection, ThroughputGain, UtilityGain, WeightedSumModel,
};
use quasaq_media::{
    ColorDepth, FrameRate, Library, LibraryConfig, QosRange, Resolution, VideoFormat, VideoId,
};
use quasaq_qosapi::{CompositeQosApi, ReservationId, ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::{Rng, ServerId};
use quasaq_store::{MetadataEngine, ObjectStore, Placement, QosSampler, ReplicationPlanner};
use std::collections::BTreeMap;

const NET: f64 = 3_200_000.0;
const DISK: f64 = 20_000_000.0;
const MEMORY: f64 = 512e6;

fn engine(servers: u32, failed_sites: &[ServerId]) -> MetadataEngine {
    let lib = Library::generate(42, &LibraryConfig::default());
    let mut stores = BTreeMap::new();
    for s in ServerId::first_n(servers) {
        stores.insert(s, ObjectStore::new(s, 1 << 40));
    }
    let mut engine = MetadataEngine::new(ServerId::first_n(servers), 16);
    ReplicationPlanner::new(QosSampler::default(), Placement::Full)
        .replicate(&lib, &mut stores, &mut engine)
        .unwrap();
    for &s in failed_sites {
        engine.fail_site(s);
    }
    engine
}

/// The resource state both sides start from, applied step by step so two
/// builds are identical: per-bucket usage as a fraction of capacity
/// (reserved before any re-rate, so a shrunken bucket can end up
/// oversubscribed), capacity re-rates, and failed servers.
#[derive(Debug, Clone)]
struct Cluster {
    servers: u32,
    usage: Vec<(ResourceKey, f64)>,
    rerates: Vec<(ResourceKey, f64)>,
    failed: Vec<ServerId>,
}

impl Cluster {
    fn sample(rng: &mut Rng) -> Cluster {
        let servers = 2 + rng.below(4) as u32;
        // Full clusters force the rejection walk; idle ones the fast path.
        let load = match rng.below(4) {
            0 => 0.0,
            1 => 0.5,
            2 => 0.9,
            _ => 1.0,
        };
        let mut usage = Vec::new();
        let mut rerates = Vec::new();
        for s in ServerId::first_n(servers) {
            for kind in ResourceKind::ALL {
                let key = ResourceKey::new(s, kind);
                let fraction = f64::min(load * (0.5 + rng.next_f64()), 1.0);
                if fraction > 0.0 {
                    usage.push((key, fraction));
                }
                if rng.below(5) == 0 {
                    rerates.push((key, 0.05 + 1.5 * rng.next_f64()));
                }
            }
        }
        let failed =
            ServerId::first_n(servers).filter(|_| rng.below(6) == 0).collect::<Vec<ServerId>>();
        Cluster { servers, usage, rerates, failed }
    }

    fn capacity(kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => 1.0,
            ResourceKind::NetBandwidth => NET,
            ResourceKind::DiskBandwidth => DISK,
            ResourceKind::Memory => MEMORY,
        }
    }

    fn build(&self) -> CompositeQosApi {
        let mut api = CompositeQosApi::homogeneous_cluster(
            ServerId::first_n(self.servers),
            NET,
            DISK,
            MEMORY,
        );
        for &(key, fraction) in &self.usage {
            let demand = ResourceVector::new().with(key, fraction * Self::capacity(key.kind));
            api.reserve(&demand).expect("usage fits an empty bucket");
        }
        for &(key, factor) in &self.rerates {
            api.set_capacity(key, factor * Self::capacity(key.kind));
        }
        for &s in &self.failed {
            api.fail_server(s);
        }
        api
    }
}

fn sample_request(rng: &mut Rng) -> PlanRequest {
    const RESOLUTIONS: [Resolution; 5] =
        [Resolution::QCIF, Resolution::QVGA, Resolution::CIF, Resolution::VGA, Resolution::FULL];
    const COLORS: [ColorDepth; 4] =
        [ColorDepth::PALETTE, ColorDepth::BITS_12, ColorDepth::HIGH_COLOR, ColorDepth::TRUE_COLOR];
    const MIN_FPS: [u32; 5] = [0, 5_000, 12_000, 20_000, 25_000];
    const MAX_FPS: [u32; 4] = [12_000, 23_970, 29_970, 30_000];
    const SECURITY: [QopSecurity; 3] =
        [QopSecurity::Open, QopSecurity::Standard, QopSecurity::Confidential];
    let pick = |rng: &mut Rng, n: usize| rng.index(n);
    let lo = pick(rng, RESOLUTIONS.len());
    let hi = lo + pick(rng, RESOLUTIONS.len() - lo);
    let formats = match rng.below(3) {
        0 => None,
        1 => Some(vec![VideoFormat::Mpeg1]),
        _ => Some(vec![VideoFormat::Mpeg2]),
    };
    PlanRequest {
        // Video 15 is not in the catalog: an empty plan space.
        video: VideoId(rng.below(16) as u32),
        qos: QosRange {
            min_resolution: RESOLUTIONS[lo],
            max_resolution: RESOLUTIONS[hi],
            min_color: COLORS[pick(rng, COLORS.len())],
            min_frame_rate: FrameRate::from_millifps(MIN_FPS[pick(rng, MIN_FPS.len())]),
            max_frame_rate: FrameRate::from_millifps(MAX_FPS[pick(rng, MAX_FPS.len())]),
            formats,
        },
        security: SECURITY[pick(rng, SECURITY.len())],
    }
}

fn utility() -> UtilityGain {
    UtilityGain { weights: QosWeights::default() }
}

/// The six cost-model configurations the workloads run.
#[derive(Debug, Clone, Copy)]
enum Model {
    Lrb,
    Random,
    MinBitrate,
    WeightedSum,
    Throughput,
    Utility,
}

impl Model {
    const ALL: [Model; 6] = [
        Model::Lrb,
        Model::Random,
        Model::MinBitrate,
        Model::WeightedSum,
        Model::Throughput,
        Model::Utility,
    ];

    fn build(self) -> Box<dyn CostModel> {
        match self {
            Model::Lrb => Box::new(LrbModel),
            Model::Random => Box::new(RandomModel),
            Model::MinBitrate => Box::new(MinBitrateModel),
            Model::WeightedSum => Box::new(WeightedSumModel::default()),
            Model::Throughput => Box::new(EfficiencyModel::new(ThroughputGain)),
            Model::Utility => Box::new(EfficiencyModel::new(utility())),
        }
    }

    /// The sum of the plan's bucket fills, in bucket order.
    fn fill_sum(plan: &Plan, api: &CompositeQosApi) -> f64 {
        let mut sum = 0.0;
        for (key, amount) in plan.resources.iter() {
            match (api.used(key), api.capacity(key)) {
                // The default model weighs every bucket 1.0.
                (Some(used), Some(cap)) => sum += 1.0 * (used + amount) / cap,
                _ => return f64::INFINITY,
            }
        }
        sum
    }

    /// The reference order of `plans`: a shuffle for the random model,
    /// else by score from live API reads, ties by position.
    fn order(self, plans: &[Plan], api: &CompositeQosApi, rng: &mut Rng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..plans.len()).collect();
        if let Model::Random = self {
            rng.shuffle(&mut order);
            return order;
        }
        let lrb = |p: &Plan| api.max_fill_with(&p.resources);
        let scores: Vec<f64> = plans
            .iter()
            .map(|p| match self {
                Model::Lrb => lrb(p),
                Model::MinBitrate => p.delivered_bps,
                Model::WeightedSum => Self::fill_sum(p, api),
                Model::Throughput => 1.0 / lrb(p).max(1e-9),
                Model::Utility => utility().utility(p) / lrb(p).max(1e-9),
                Model::Random => unreachable!(),
            })
            .collect();
        // The efficiency models rank the highest efficiency first.
        let descending = matches!(self, Model::Throughput | Model::Utility);
        order.sort_by(|&a, &b| {
            let by_score = scores[a].total_cmp(&scores[b]);
            if descending { by_score.reverse() } else { by_score }.then(a.cmp(&b))
        });
        order
    }
}

/// The reference pipeline, admitting anew or renegotiating `held`, with
/// its planning stats. Also checks the model's own `rank` against the
/// reference order, on a copy of the RNG.
fn reference(
    model: Model,
    generator: &PlanGenerator,
    engine: &MetadataEngine,
    api: &mut CompositeQosApi,
    request: &PlanRequest,
    held: Option<ReservationId>,
    rng: &mut Rng,
) -> (Result<(Plan, ReservationId), Rejection>, PlanningStats) {
    let mut plans = Vec::new();
    generator.generate_into(engine, request, &mut plans);
    let generated = plans.len();
    let mut stats = PlanningStats { generated, feasible: 0, attempts: 0 };
    if generated == 0 {
        return (Err(Rejection::NoFeasiblePlan), stats);
    }
    generator.retain_feasible(&mut plans, api);
    stats.feasible = plans.len();
    if plans.is_empty() {
        return (Err(Rejection::NoFeasiblePlan), stats);
    }
    let mut ranked_rng = rng.clone();
    let order = model.order(&plans, api, rng);
    assert_eq!(model.build().rank(&plans, api, &mut ranked_rng), order, "{model:?} rank");
    assert_eq!(&ranked_rng, rng, "{model:?} rank drew differently");
    for (attempt, &i) in order.iter().enumerate() {
        let reserved = match held {
            None => api.reserve(&plans[i].resources),
            Some(id) => api.renegotiate(id, &plans[i].resources),
        };
        if let Ok(id) = reserved {
            stats.attempts = attempt + 1;
            return (Ok((plans[i].clone(), id)), stats);
        }
    }
    stats.attempts = order.len();
    (Err(Rejection::AdmissionFailed), stats)
}

fn vector_bits(v: &ResourceVector) -> Vec<(ResourceKey, u64)> {
    v.iter().map(|(k, a)| (k, a.to_bits())).collect()
}

fn assert_same_plan(lazy: &Plan, full: &Plan) {
    assert_eq!(lazy.object, full.object);
    assert_eq!(lazy.target_server, full.target_server);
    assert_eq!(lazy.drop, full.drop);
    assert_eq!(lazy.transcode, full.transcode);
    assert_eq!(lazy.cipher, full.cipher);
    assert_eq!(lazy.delivered, full.delivered);
    assert_eq!(lazy.delivered_bps.to_bits(), full.delivered_bps.to_bits());
    assert_eq!(vector_bits(&lazy.resources), vector_bits(&full.resources));
}

fn assert_same_usage(lazy: &CompositeQosApi, full: &CompositeQosApi) {
    let buckets: Vec<ResourceKey> = full.buckets().collect();
    assert_eq!(lazy.buckets().collect::<Vec<_>>(), buckets);
    for key in buckets {
        assert_eq!(lazy.used(key).map(f64::to_bits), full.used(key).map(f64::to_bits), "{key}");
    }
    assert_eq!(lazy.reservation_count(), full.reservation_count());
}

/// How often each outcome came up, so the differential run can show it
/// reached every branch of the pipeline.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Placed on the first candidate in rank order.
    first: usize,
    /// Placed further down the walk.
    walked: usize,
    /// Every feasible candidate refused.
    failed: usize,
    /// No plan, or no feasible plan.
    empty: usize,
}

impl Coverage {
    fn count(&mut self, outcome: &Result<(Plan, ReservationId), Rejection>, stats: PlanningStats) {
        match outcome {
            Ok(_) if stats.attempts == 1 => self.first += 1,
            Ok(_) => self.walked += 1,
            Err(Rejection::AdmissionFailed) => self.failed += 1,
            Err(Rejection::NoFeasiblePlan) => self.empty += 1,
        }
    }
}

/// Checks one step's outcomes against each other, bit for bit.
fn assert_same_outcome(
    ours: &Result<AdmittedPlan, Rejection>,
    reference: &Result<(Plan, ReservationId), Rejection>,
    what: &str,
) {
    match (ours, reference) {
        (Ok(ours), Ok((plan, id))) => {
            assert_same_plan(&ours.plan, plan);
            assert_eq!(ours.reservation, *id, "{what}");
        }
        (Err(ours), Err(reference)) => assert_eq!(ours, reference, "{what}"),
        (ours, reference) => panic!(
            "{what}: pipeline {:?} vs reference {:?}",
            ours.as_ref().map(|a| a.plan.to_string()),
            reference.as_ref().map(|(p, _)| p.to_string())
        ),
    }
}

/// One differential case: a sampled cluster and catalog, then `steps`
/// admissions and renegotiations (with releases between them) on both
/// sides, compared after each step.
fn run_case(
    model: Model,
    seed: u64,
    cfg: GeneratorConfig,
    caching: bool,
    steps: usize,
    coverage: &mut Coverage,
) {
    let mut rng = Rng::new(seed);
    let cluster = Cluster::sample(&mut rng);
    // Some failed servers also leave the catalog; the rest keep their
    // replicas but lose their buckets.
    let failed_sites: Vec<ServerId> =
        cluster.failed.iter().copied().filter(|_| rng.below(2) == 0).collect();
    let engine = engine(cluster.servers, &failed_sites);
    let generator = PlanGenerator::new(cfg);
    let mut reference_api = cluster.build();
    let mut manager = QualityManager::new(cluster.build(), PlanGenerator::new(cfg), model.build());
    manager.set_plan_caching(caching);
    let (mut ours_rng, mut reference_rng) = (Rng::new(seed ^ 1), Rng::new(seed ^ 1));
    let mut held: Vec<AdmittedPlan> = Vec::new();
    for step in 0..steps {
        // Sessions end between arrivals, on both sides alike.
        if !held.is_empty() && rng.below(3) == 0 {
            let admitted = held.swap_remove(rng.index(held.len()));
            reference_api.release(admitted.reservation);
            manager.release(&admitted);
        }
        let request = sample_request(&mut rng);
        let what = format!("{model:?} step {step}: {request:?}");
        if !held.is_empty() && rng.below(3) == 0 {
            let i = rng.index(held.len());
            let stats = manager.last_stats();
            let (reference, reference_stats) = reference(
                model,
                &generator,
                &engine,
                &mut reference_api,
                &request,
                Some(held[i].reservation),
                &mut reference_rng,
            );
            let ours = manager.renegotiate(&engine, &held[i], &request, &mut ours_rng);
            assert_eq!(manager.last_stats(), stats, "{what}: renegotiation touched the stats");
            assert_same_outcome(&ours, &reference, &what);
            coverage.count(&reference, reference_stats);
            if let Ok(renewed) = ours {
                held[i] = renewed;
            }
        } else {
            let (reference, reference_stats) = reference(
                model,
                &generator,
                &engine,
                &mut reference_api,
                &request,
                None,
                &mut reference_rng,
            );
            let ours = manager.process(&engine, &request, &mut ours_rng);
            assert_eq!(manager.last_stats(), reference_stats, "{what}");
            assert_same_outcome(&ours, &reference, &what);
            coverage.count(&reference, reference_stats);
            held.extend(ours);
        }
        assert_same_usage(manager.api(), &reference_api);
        assert_eq!(ours_rng.below(1 << 30), reference_rng.below(1 << 30), "{what}: RNG");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every case runs each model, so each gets the full case budget.
    #[test]
    fn admission_matches_the_plan_list_pipeline(
        seed in any::<u64>(),
        allow_remote in any::<bool>(),
        allow_transcode in any::<bool>(),
        allow_drop in any::<bool>(),
        prune_wasteful in any::<bool>(),
        caching in any::<bool>(),
        steps in 1usize..15,
    ) {
        let cfg = GeneratorConfig {
            allow_remote,
            allow_transcode,
            allow_drop,
            prune_wasteful,
            ..GeneratorConfig::default()
        };
        for model in Model::ALL {
            run_case(model, seed, cfg, caching, steps, &mut Coverage::default());
        }
    }
}

/// The same comparison for every model over fixed seeds and every
/// generator switch setting, checked to reach each outcome per model:
/// first-choice placement, a walk refused to the end, and an empty plan
/// space; and, for the models whose order does not follow the projected
/// fill, a placement further down the walk, which pins its attempt count.
/// (For LRB and the efficiency models a walk that ends in a placement
/// needs a candidate whose projected fill exceeds the refused first
/// choice's yet passes the admission test — possible only inside the
/// `1e-9` capacity tolerance, so random states do not produce it;
/// `walked` is counted, not required.)
#[test]
fn differential_cases_reach_every_outcome_for_every_model() {
    for model in Model::ALL {
        let mut coverage = Coverage::default();
        for seed in 0..64u64 {
            let cfg = GeneratorConfig {
                allow_remote: seed & 1 == 0,
                allow_transcode: seed & 2 == 0,
                allow_drop: seed & 4 == 0,
                prune_wasteful: seed & 8 == 0,
                ..GeneratorConfig::default()
            };
            run_case(model, seed, cfg, seed & 16 == 0, 10, &mut coverage);
        }
        let Coverage { first, walked, failed, empty } = coverage;
        assert!(first > 0 && failed > 0 && empty > 0, "{model:?}: {coverage:?}");
        if matches!(model, Model::Random | Model::MinBitrate | Model::WeightedSum) {
            assert!(walked > 0, "{model:?}: {coverage:?}");
        }
    }
}
