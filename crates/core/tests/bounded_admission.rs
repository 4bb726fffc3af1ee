//! Differential test of bound-ordered admission against the full scan.
//!
//! `LrbModel` gives `QualityManager` a score floor, so admission scores
//! only the delivery-option sides whose replica-side fill can still win
//! and counts the others' feasible candidates by capacity comparisons.
//! `FullScan` scores exactly as LRB but keeps the default (no floor), so
//! its manager scores every candidate in enumeration order. On clusters of
//! 10–40 servers whose replica sources are loaded unevenly, with failed
//! servers and re-rated buckets, both must agree on every admission and
//! renegotiation: the outcome, the plan, the planning statistics, the
//! bucket usage bits and the next RNG draw. A fresh admission that LRB
//! refuses is decided by the refusal proof, before any remote side is
//! ranked, so the full scan checks the proof's decision and its counts
//! too.

use quasaq_core::{
    AdmittedPlan, CostModel, GeneratorConfig, LrbModel, Plan, PlanGenerator, PlanRequest, PlanView,
    PlanningStats, QopRequest, QopSecurity, QualityManager, Rejection, UserProfile,
};
use quasaq_media::{Library, LibraryConfig, VideoId};
use quasaq_qosapi::{CompositeQosApi, ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::{Rng, ServerId};
use quasaq_store::{MetadataEngine, ObjectStore, Placement, QosSampler, ReplicationPlanner};
use std::collections::BTreeMap;

const NET: f64 = 3_200_000.0;
const DISK: f64 = 20_000_000.0;
const MEMORY: f64 = 512e6;

/// LRB's score without its floor.
struct FullScan;

impl CostModel for FullScan {
    fn name(&self) -> &'static str {
        "lrb-full-scan"
    }

    fn score(&self, plan: &PlanView<'_>) -> f64 {
        LrbModel.score(plan)
    }
}

fn capacity(kind: ResourceKind) -> f64 {
    match kind {
        ResourceKind::Cpu => 1.0,
        ResourceKind::NetBandwidth => NET,
        ResourceKind::DiskBandwidth => DISK,
        ResourceKind::Memory => MEMORY,
    }
}

/// A sampled cluster, built the same way for both sides: the servers, the
/// catalog's placement, buckets never registered (a server missing one
/// hosts no candidate that needs it), per-bucket usage as a fraction of
/// capacity (the replica sources' disk and outbound link loaded
/// unevenly, or each server's CPU or outbound link saturated), re-rates by
/// a factor (some below one stream's demand, so that no candidate on the
/// bucket fits and feasibility is counted site by site) and failed
/// servers, some of which also leave the catalog.
#[derive(Debug)]
struct Cluster {
    servers: u32,
    placement: Placement,
    missing: Vec<ResourceKey>,
    usage: Vec<(ResourceKey, f64)>,
    rerates: Vec<(ResourceKey, f64)>,
    failed: Vec<ServerId>,
    uncatalogued: Vec<ServerId>,
}

impl Cluster {
    fn sample(rng: &mut Rng) -> Cluster {
        let servers = 10 + rng.below(31) as u32;
        let placement = match rng.below(4) {
            0 => Placement::Full,
            _ => Placement::Spread { copies: 1 + rng.below(4) as u32 },
        };
        // Idle clusters place at once; full ones refuse and walk. A flat
        // cluster fills every bucket to at least the level. A mixed one
        // saturates the CPU of some servers and the outbound link of the
        // others, so some server has each target-side kind to spare but
        // none has both.
        let level = [0.2, 0.6, 0.9, 0.98][rng.index(4)];
        let (flat, mixed) = match rng.below(4) {
            0 => (true, false),
            1 => (false, true),
            _ => (false, false),
        };
        let mut missing = Vec::new();
        let mut usage = Vec::new();
        let mut rerates = Vec::new();
        for s in ServerId::first_n(servers) {
            if rng.below(16) == 0 {
                let kind = ResourceKind::ALL[rng.index(ResourceKind::ALL.len())];
                missing.push(ResourceKey::new(s, kind));
            }
            // A hot source: its disk and outbound link are well used.
            let hot = rng.below(3) == 0;
            let saturated = [ResourceKind::Cpu, ResourceKind::NetBandwidth][rng.index(2)];
            for kind in ResourceKind::ALL {
                let source_side =
                    matches!(kind, ResourceKind::DiskBandwidth | ResourceKind::NetBandwidth);
                let fraction = match (flat || (hot && source_side), rng.below(3)) {
                    (true, _) => level + (1.0 - level) * rng.next_f64(),
                    (false, 0) => 0.0,
                    (false, _) => level * rng.next_f64(),
                };
                let fraction = if mixed && kind == saturated {
                    0.995 + 0.005 * rng.next_f64()
                } else {
                    fraction
                };
                if fraction > 0.0 && !missing.contains(&ResourceKey::new(s, kind)) {
                    usage.push((ResourceKey::new(s, kind), fraction));
                }
                match rng.below(40) {
                    // Too small for any stream.
                    0 => rerates.push((ResourceKey::new(s, kind), 1e-4)),
                    1 | 2 => rerates.push((ResourceKey::new(s, kind), 0.2 + rng.next_f64())),
                    _ => {}
                }
            }
        }
        let failed: Vec<ServerId> =
            ServerId::first_n(servers).filter(|_| rng.below(8) == 0).collect();
        let uncatalogued = failed.iter().copied().filter(|_| rng.below(2) == 0).collect();
        rerates.retain(|(key, _)| !missing.contains(key));
        Cluster { servers, placement, missing, usage, rerates, failed, uncatalogued }
    }

    fn engine(&self) -> MetadataEngine {
        let lib = Library::generate(42, &LibraryConfig::default());
        let mut stores: BTreeMap<_, _> =
            ServerId::first_n(self.servers).map(|s| (s, ObjectStore::new(s, 1 << 40))).collect();
        let mut engine = MetadataEngine::new(ServerId::first_n(self.servers));
        ReplicationPlanner::new(QosSampler::default(), self.placement)
            .replicate(&lib, &mut stores, &mut engine)
            .unwrap();
        for &s in &self.uncatalogued {
            engine.fail_site(s);
        }
        engine
    }

    fn api(&self) -> CompositeQosApi {
        let mut api = CompositeQosApi::new();
        for s in ServerId::first_n(self.servers) {
            for kind in ResourceKind::ALL {
                let key = ResourceKey::new(s, kind);
                if !self.missing.contains(&key) {
                    api.register(key, capacity(kind));
                }
            }
        }
        for &(key, fraction) in &self.usage {
            let demand = ResourceVector::new().with(key, fraction * capacity(key.kind));
            api.reserve(&demand).expect("usage fits an empty bucket");
        }
        for &(key, factor) in &self.rerates {
            api.set_capacity(key, factor * capacity(key.kind));
        }
        for &s in &self.failed {
            api.fail_server(s);
        }
        api
    }
}

fn sample_request(rng: &mut Rng) -> PlanRequest {
    let profile = UserProfile::new("u");
    let qop = match rng.below(3) {
        0 => QopRequest::diagnostic(),
        _ => QopRequest::organizational(),
    };
    let security = match rng.below(4) {
        0 => QopSecurity::Standard,
        1 => QopSecurity::Confidential,
        _ => QopSecurity::Open,
    };
    PlanRequest { video: VideoId(rng.below(16) as u32), qos: profile.translate(&qop), security }
}

fn usage_bits(api: &CompositeQosApi) -> Vec<(ResourceKey, Option<u64>)> {
    api.buckets().map(|k| (k, api.used(k).map(f64::to_bits))).collect()
}

/// How often each branch came up across the cases.
#[derive(Debug, Default)]
struct Coverage {
    /// Placed on the first choice.
    first: usize,
    /// Placed further down the walk, after the first choice was refused.
    walked: usize,
    /// Renegotiated onto a plan that fills more than the least-filling
    /// one, which was refused.
    renegotiated_past_min: usize,
    /// Every feasible candidate refused.
    failed: usize,
    /// Some but not all candidates exceed a bucket's capacity.
    capacity_cut: usize,
    /// Renegotiations compared.
    renegotiated: usize,
    /// Fresh refusals with remote candidates that fit capacity: the
    /// refusal proof counted and cleared remote sides.
    proved_remote: usize,
    /// Fresh refusals with a remote candidate whose replica side admits
    /// and whose target-side entries each fit the most any site has left
    /// of their kind, yet no target admits them: the per-kind maximum
    /// cannot prune the side, and every target is checked.
    unpruned: usize,
}

impl Coverage {
    fn count(&mut self, outcome: &Result<AdmittedPlan, Rejection>, stats: PlanningStats) {
        match outcome {
            Ok(_) if stats.attempts == 1 => self.first += 1,
            Ok(_) => self.walked += 1,
            Err(Rejection::AdmissionFailed) => self.failed += 1,
            Err(Rejection::NoFeasiblePlan) => {}
        }
        if 0 < stats.feasible && stats.feasible < stats.generated {
            self.capacity_cut += 1;
        }
    }
}

/// Classifies a fresh refusal on `api`, whose state the refusal left as it
/// was.
fn classify_refusal(
    coverage: &mut Coverage,
    plans: &[Plan],
    api: &CompositeQosApi,
    sites: &[ServerId],
) {
    let fits = |p: &&Plan| api.project(p.resources.entries()).fits_capacity;
    let remote: Vec<&Plan> = plans.iter().filter(|p| !p.is_local()).filter(fits).collect();
    let target_kinds = [ResourceKind::Cpu, ResourceKind::NetBandwidth, ResourceKind::Memory];
    let headroom = api.headroom(sites, &target_kinds);
    let unpruned = remote.iter().any(|p| {
        let on = |server, kind| {
            (ResourceKey::new(server, kind), p.resources.get(ResourceKey::new(server, kind)))
        };
        let replica = [ResourceKind::DiskBandwidth, ResourceKind::NetBandwidth]
            .map(|kind| on(p.source_server(), kind));
        let target = target_kinds.map(|kind| (kind, on(p.target_server, kind).1));
        api.admits(&replica).is_ok() && headroom.may_admit(&target)
    });
    coverage.proved_remote += usize::from(!remote.is_empty());
    coverage.unpruned += usize::from(unpruned);
}

/// The two managers of one case, run step by step in lockstep.
struct Sides {
    bounded: (QualityManager, Rng),
    full: (QualityManager, Rng),
}

fn run_case(seed: u64, coverage: &mut Coverage) {
    let mut rng = Rng::new(seed);
    let cluster = Cluster::sample(&mut rng);
    let engine = cluster.engine();
    let cfg = GeneratorConfig { allow_remote: rng.below(5) != 0, ..GeneratorConfig::default() };
    let manager = |model: Box<dyn CostModel>| {
        (QualityManager::new(cluster.api(), PlanGenerator::new(cfg), model), Rng::new(seed ^ 7))
    };
    let mut sides =
        Sides { bounded: manager(Box::new(LrbModel)), full: manager(Box::new(FullScan)) };
    let mut held: Vec<(AdmittedPlan, AdmittedPlan)> = Vec::new();
    for step in 0..60 {
        let what = format!("seed {seed} step {step} ({} servers)", cluster.servers);
        let Sides { bounded: (b, b_rng), full: (f, f_rng) } = &mut sides;
        // Faults and re-rates between arrivals, on both sides alike.
        match rng.below(20) {
            0 => {
                let s = ServerId(rng.below(cluster.servers as u64) as u32);
                assert_eq!(b.handle_server_failure(s), f.handle_server_failure(s), "{what}");
            }
            1 => {
                let s = ServerId(rng.below(cluster.servers as u64) as u32);
                assert_eq!(b.handle_server_restart(s), f.handle_server_restart(s), "{what}");
            }
            2 => {
                let server = ServerId(rng.below(cluster.servers as u64) as u32);
                let kind = ResourceKind::ALL[rng.index(ResourceKind::ALL.len())];
                let key = ResourceKey::new(server, kind);
                let to = (0.05 + rng.next_f64()) * capacity(kind);
                assert_eq!(b.set_capacity(key, to), f.set_capacity(key, to), "{what}");
            }
            _ => {}
        }
        if !held.is_empty() && rng.below(4) == 0 {
            let (x, y) = held.swap_remove(rng.index(held.len()));
            b.release(&x);
            f.release(&y);
        }
        let request = sample_request(&mut rng);
        if !held.is_empty() && rng.below(3) == 0 {
            let i = rng.index(held.len());
            let ours = b.renegotiate(&engine, &held[i].0, &request, b_rng);
            // The full-scan side still holds the state both renegotiated on.
            if let Ok(x) = &ours {
                let plans = PlanGenerator::new(cfg).generate(&engine, &request);
                let fill = |resources| f.api().max_fill_with(resources);
                let least = plans.iter().map(|p| fill(&p.resources)).min_by(f64::total_cmp);
                if least.is_some_and(|least| fill(&x.plan.resources) > least) {
                    coverage.renegotiated_past_min += 1;
                }
            }
            let theirs = f.renegotiate(&engine, &held[i].1, &request, f_rng);
            assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "{what}: renegotiation");
            coverage.renegotiated += 1;
            if let (Ok(x), Ok(y)) = (ours, theirs) {
                held[i] = (x, y);
            }
        } else {
            let ours = b.process(&engine, &request, b_rng);
            let theirs = f.process(&engine, &request, f_rng);
            assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "{what}: admission");
            assert_eq!(b.last_stats(), f.last_stats(), "{what}: stats");
            coverage.count(&ours, b.last_stats());
            if matches!(ours, Err(Rejection::AdmissionFailed)) {
                let plans = PlanGenerator::new(cfg).generate(&engine, &request);
                classify_refusal(coverage, &plans, b.api(), engine.sites());
            }
            if let (Ok(x), Ok(y)) = (ours, theirs) {
                held.push((x, y));
            }
        }
        assert_eq!(usage_bits(b.api()), usage_bits(f.api()), "{what}: usage");
        assert_eq!(b.api().reservation_count(), f.api().reservation_count(), "{what}");
        assert_eq!(b_rng.below(1 << 30), f_rng.below(1 << 30), "{what}: RNG");
    }
}

#[test]
fn bounded_admission_matches_the_full_scan() {
    let mut coverage = Coverage::default();
    for seed in 0..48 {
        run_case(seed, &mut coverage);
    }
    // An LRB admission that walks needs a candidate filling more than the
    // refused first choice yet admitted, which only the capacity
    // tolerance allows; a renegotiation returns its own share first, so
    // its walks are common. `walked` is counted, not required.
    let Coverage { first, failed, capacity_cut, renegotiated_past_min, .. } = coverage;
    assert!(first > 0 && failed > 0 && capacity_cut > 0, "{coverage:?}");
    assert!(renegotiated_past_min > 0, "{coverage:?}");
    assert!(coverage.proved_remote > 0 && coverage.unpruned > 0, "{coverage:?}");
}
