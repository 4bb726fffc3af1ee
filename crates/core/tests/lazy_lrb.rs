//! Differential test of lazy LRB admission against the full pipeline.
//!
//! `QualityManager::process` with the LRB model scores candidates in place
//! and builds only the plan it reserves. The oracle is the pipeline it
//! replaces, run on an identically built resource state:
//! `generate_into` → `retain_feasible` → `LrbModel::rank` → `reserve` down
//! the order. Both must agree on the outcome, every field of the chosen
//! plan, the planning statistics, and the bucket usage afterwards, bit
//! for bit.

use proptest::prelude::*;
use quasaq_core::{
    CostModel, GeneratorConfig, LrbModel, Plan, PlanGenerator, PlanRequest, PlanningStats,
    QopSecurity, QualityManager, Rejection,
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

/// The full pipeline the lazy path replaces, with its planning stats.
fn oracle(
    generator: &PlanGenerator,
    engine: &MetadataEngine,
    api: &mut CompositeQosApi,
    request: &PlanRequest,
) -> (Result<(Plan, ReservationId), Rejection>, PlanningStats) {
    let mut plans = Vec::new();
    generator.generate_into(engine, request, &mut plans);
    let generated = plans.len();
    generator.retain_feasible(&mut plans, api);
    let feasible = plans.len();
    let mut stats = PlanningStats { generated, feasible, attempts: 0 };
    if feasible == 0 {
        return (Err(Rejection::NoFeasiblePlan), stats);
    }
    let order = LrbModel.rank(&plans, api, &mut Rng::new(0));
    for (attempt, &i) in order.iter().enumerate() {
        if let Ok(id) = api.reserve(&plans[i].resources) {
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

/// How often each admission outcome came up, so the differential run can
/// show it reached every branch of the lazy path.
#[derive(Debug, Default)]
struct Coverage {
    /// Admitted by the first candidate in rank order.
    first: usize,
    /// Admitted further down the rejection walk.
    walked: usize,
    /// Every feasible candidate refused.
    failed: usize,
    /// No plan, or no feasible plan.
    empty: usize,
}

/// One differential case: a sampled cluster and catalog, then `requests`
/// admissions (with releases between them) on both sides, compared after
/// each step.
fn run_case(seed: u64, cfg: GeneratorConfig, requests: usize, coverage: &mut Coverage) {
    let mut rng = Rng::new(seed);
    let cluster = Cluster::sample(&mut rng);
    // Some failed servers also leave the catalog; the rest keep their
    // replicas but lose their buckets.
    let failed_sites: Vec<ServerId> =
        cluster.failed.iter().copied().filter(|_| rng.below(2) == 0).collect();
    let engine = engine(cluster.servers, &failed_sites);
    let generator = PlanGenerator::new(cfg);
    let mut full_api = cluster.build();
    let mut manager =
        QualityManager::new(cluster.build(), PlanGenerator::new(cfg), Box::new(LrbModel));
    let mut held: Vec<ReservationId> = Vec::new();
    for _ in 0..requests {
        // Sessions end between arrivals, on both sides alike.
        if !held.is_empty() && rng.below(3) == 0 {
            let id = held.swap_remove(rng.index(held.len()));
            full_api.release(id);
            manager.release_reservation(id);
        }
        let request = sample_request(&mut rng);
        let (full, full_stats) = oracle(&generator, &engine, &mut full_api, &request);
        let lazy = manager.process(&engine, &request, &mut Rng::new(0));
        assert_eq!(manager.last_stats(), full_stats, "{request:?}");
        match (lazy, full) {
            (Ok(lazy), Ok((plan, id))) => {
                assert_same_plan(&lazy.plan, &plan);
                assert_eq!(lazy.reservation, id);
                held.push(id);
                if full_stats.attempts == 1 {
                    coverage.first += 1;
                } else {
                    coverage.walked += 1;
                }
            }
            (Err(lazy), Err(full)) => {
                assert_eq!(lazy, full);
                match full {
                    Rejection::AdmissionFailed => coverage.failed += 1,
                    Rejection::NoFeasiblePlan => coverage.empty += 1,
                }
            }
            (lazy, full) => panic!(
                "lazy {:?} vs full {:?}",
                lazy.map(|a| a.plan.to_string()),
                full.map(|(p, _)| p.to_string())
            ),
        }
        assert_same_usage(manager.api(), &full_api);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_lrb_admission_matches_full_enumeration(
        seed in any::<u64>(),
        allow_remote in any::<bool>(),
        allow_transcode in any::<bool>(),
        allow_drop in any::<bool>(),
        prune_wasteful in any::<bool>(),
        requests in 1usize..10,
    ) {
        let cfg = GeneratorConfig {
            allow_remote,
            allow_transcode,
            allow_drop,
            prune_wasteful,
            ..GeneratorConfig::default()
        };
        run_case(seed, cfg, requests, &mut Coverage::default());
    }
}

/// The same comparison over fixed seeds and every generator switch
/// setting, checked to reach each outcome: first-choice admission, a
/// rejection walk refused to the end, and an empty plan space. (A walk
/// that ends in admission needs a candidate whose projected fill exceeds
/// the refused first choice's yet passes the admission test — possible
/// only inside the `1e-9` capacity tolerance, so random states do not
/// produce it; `walked` is counted, not required.)
#[test]
fn differential_cases_reach_every_outcome() {
    let mut coverage = Coverage::default();
    for seed in 0..64u64 {
        let cfg = GeneratorConfig {
            allow_remote: seed & 1 == 0,
            allow_transcode: seed & 2 == 0,
            allow_drop: seed & 4 == 0,
            prune_wasteful: seed & 8 == 0,
            ..GeneratorConfig::default()
        };
        run_case(seed, cfg, 8, &mut coverage);
    }
    assert!(coverage.first > 0 && coverage.failed > 0 && coverage.empty > 0, "{coverage:?}");
}
