//! Property-based tests of the Composite QoS API's accounting invariants.

use proptest::prelude::*;
use quasaq_qosapi::{CompositeQosApi, ReservationId, ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::ServerId;
use std::collections::BTreeMap;

/// A demand confined to one server, small enough (≤ 4 parts × 0.2 of
/// capacity each) that it always fits an idle server.
fn demand_on(server: u32) -> impl Strategy<Value = ResourceVector> {
    proptest::collection::vec((0usize..4, 0.0f64..0.2), 1..5).prop_map(move |parts| {
        let mut v = ResourceVector::new();
        for (kind_idx, frac) in parts {
            let kind = ResourceKind::ALL[kind_idx];
            let amount = match kind {
                ResourceKind::Cpu => frac,
                ResourceKind::NetBandwidth => frac * 3_200_000.0,
                ResourceKind::DiskBandwidth => frac * 20_000_000.0,
                ResourceKind::Memory => frac * 512e6,
            };
            v.add(ResourceKey::new(ServerId(server), kind), amount);
        }
        v
    })
}

fn demand_strategy() -> impl Strategy<Value = ResourceVector> {
    proptest::collection::vec((0u32..3, 0usize..4, 0.0f64..0.4), 1..5).prop_map(|parts| {
        let mut v = ResourceVector::new();
        for (server, kind_idx, frac) in parts {
            let kind = ResourceKind::ALL[kind_idx];
            // Scale to each kind's capacity units.
            let amount = match kind {
                ResourceKind::Cpu => frac,
                ResourceKind::NetBandwidth => frac * 3_200_000.0,
                ResourceKind::DiskBandwidth => frac * 20_000_000.0,
                ResourceKind::Memory => frac * 512e6,
            };
            v.add(ResourceKey::new(ServerId(server), kind), amount);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Usage always equals the sum of outstanding reservations' demands,
    /// under any interleaving of reserve, release, renegotiation, re-rates
    /// and server failures and restarts, and never exceeds capacity. Bit
    /// for bit, it is what the reservations' own demands predict: a
    /// reserve adds each entry, a release applies `(used - a).max(0.0)` to
    /// each entry in demand order, a renegotiation is a release and then a
    /// reserve, a failed server's buckets go and a restarted server's
    /// buckets come back empty.
    #[test]
    fn accounting_matches_outstanding_set(
        ops in proptest::collection::vec((0u8..8, demand_strategy(), 0usize..12, 0.05f64..1.5), 1..60),
    ) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        let mut held: Vec<(ReservationId, ResourceVector)> = Vec::new();
        let mut model: BTreeMap<ResourceKey, f64> = api.buckets().map(|k| (k, 0.0)).collect();
        let reserve = |model: &mut BTreeMap<ResourceKey, f64>, demand: &ResourceVector| {
            for (key, amount) in demand.iter() {
                *model.get_mut(&key).expect("a reserved bucket is live") += amount;
            }
        };
        let release = |model: &mut BTreeMap<ResourceKey, f64>, demand: &ResourceVector| {
            for (key, amount) in demand.iter() {
                let used = model.get_mut(&key).expect("a held bucket is live");
                *used = (*used - amount).max(0.0);
            }
        };
        for (op, demand, pick, factor) in ops {
            let server = ServerId(pick as u32 % 3);
            match op {
                3 | 4 if !held.is_empty() => {
                    let (id, old) = held.swap_remove(pick % held.len());
                    api.release(id);
                    release(&mut model, &old);
                }
                5 if !held.is_empty() => {
                    let at = pick % held.len();
                    if let Ok(id) = api.renegotiate(held[at].0, &demand) {
                        release(&mut model, &held[at].1);
                        reserve(&mut model, &demand);
                        held[at] = (id, demand);
                    }
                }
                6 => {
                    // Re-rated no lower than the usage, so the capacity
                    // invariant below keeps holding.
                    let kind = ResourceKind::ALL[pick % 4];
                    let key = ResourceKey::new(server, kind);
                    if let Some(used) = api.used(key) {
                        prop_assert!(api.set_capacity(key, (factor * capacity_of(kind)).max(used)));
                    }
                }
                7 if api.is_failed(server) => {
                    prop_assert!(api.restore_server(server));
                    model.extend(ResourceKind::ALL.map(|k| (ResourceKey::new(server, k), 0.0)));
                }
                7 => {
                    // Cancelled in id order, each released as a whole.
                    for id in api.fail_server(server) {
                        let at = held.iter().position(|&(h, _)| h == id).expect("a held id");
                        release(&mut model, &held.remove(at).1);
                    }
                    model.retain(|k, _| k.server != server);
                }
                _ => {
                    if let Ok(id) = api.reserve(&demand) {
                        reserve(&mut model, &demand);
                        held.push((id, demand));
                    }
                }
            }
            prop_assert_eq!(api.buckets().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
            for (&key, &modelled) in &model {
                let used = api.used(key).unwrap();
                prop_assert_eq!(used.to_bits(), modelled.to_bits(), "{key}: used {used} vs model {modelled}");
            }
            // Invariant: per-bucket usage equals the outstanding sum.
            let mut expected = ResourceVector::new();
            for (_, d) in &held {
                expected = expected.plus(d);
            }
            for key in api.buckets().collect::<Vec<_>>() {
                let used = api.used(key).unwrap();
                prop_assert!((used - expected.get(key)).abs() < 1e-6,
                    "{key}: used {used} vs expected {}", expected.get(key));
                prop_assert!(used <= api.capacity(key).unwrap() + 1e-6);
            }
            prop_assert_eq!(api.reservation_count(), held.len());
        }
    }

    /// `admits` agrees with `reserve`: a demand is reservable iff the
    /// check passes.
    #[test]
    fn admits_predicts_reserve(preload in demand_strategy(), probe in demand_strategy()) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        let _ = api.reserve(&preload);
        let predicted = api.admits(probe.entries()).is_ok();
        let actual = api.reserve(&probe).is_ok();
        prop_assert_eq!(predicted, actual);
    }

    /// `max_fill_with` is exactly the max over buckets of
    /// `(used + demand) / capacity` — Eq. (1) of the paper.
    #[test]
    fn max_fill_matches_manual_eq1(preload in demand_strategy(), probe in demand_strategy()) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        let _ = api.reserve(&preload);
        let mut manual = 0.0f64;
        for (key, amount) in probe.iter() {
            let used = api.used(key).unwrap();
            let cap = api.capacity(key).unwrap();
            manual = manual.max((used + amount) / cap);
        }
        prop_assert!((api.max_fill_with(&probe) - manual).abs() < 1e-12);
    }

    /// Renegotiation either replaces the reservation with the new demand
    /// or leaves the old one fully intact — never a mix.
    #[test]
    fn renegotiation_is_atomic(first in demand_strategy(), second in demand_strategy()) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        prop_assume!(api.reserve(&first).is_ok());
        let id = {
            // Re-grab the id deterministically: make a fresh API to keep it simple.
            let mut api2 = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
            let id = api2.reserve(&first).unwrap();
            api = api2;
            id
        };
        match api.renegotiate(id, &second) {
            Ok(new_id) => {
                prop_assert_eq!(api.demand_of(new_id), Some(&second));
                for (key, amount) in second.iter() {
                    prop_assert!((api.used(key).unwrap() - amount).abs() < 1e-6);
                }
            }
            Err(_) => {
                prop_assert_eq!(api.demand_of(id), Some(&first));
                for (key, amount) in first.iter() {
                    prop_assert!((api.used(key).unwrap() - amount).abs() < 1e-6);
                }
            }
        }
        prop_assert_eq!(api.reservation_count(), 1);
    }

    /// A rejected renegotiation happens entirely in the feasibility
    /// pre-check, before any bucket is touched — so every bucket's usage
    /// is *bitwise* identical afterwards, not merely close. This is the
    /// invariant the queued admission front end leans on: a failed retry
    /// must leave the cluster exactly as it found it.
    #[test]
    fn failed_renegotiation_restores_usage_bitwise(
        preload in demand_strategy(),
        first in demand_strategy(),
    ) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        let _ = api.reserve(&preload);
        prop_assume!(api.admits(first.entries()).is_ok());
        let id = api.reserve(&first).unwrap();
        let keys: Vec<_> = api.buckets().collect();
        let before: Vec<u64> = keys.iter().map(|&k| api.used(k).unwrap().to_bits()).collect();
        let count = api.reservation_count();
        // Three servers' CPUs hold at most 1.0 each, so 3.0 on one CPU can
        // never fit, even counting the old reservation's own share.
        let mut impossible = ResourceVector::new();
        impossible.add(ResourceKey::new(ServerId(0), ResourceKind::Cpu), 3.0);
        prop_assert!(api.renegotiate(id, &impossible).is_err());
        let after: Vec<u64> = keys.iter().map(|&k| api.used(k).unwrap().to_bits()).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(api.demand_of(id), Some(&first));
        prop_assert_eq!(api.reservation_count(), count);
    }

    /// Renegotiating to a demand inside the session's own share — shrink,
    /// or grow while staying under bucket capacity on an otherwise idle
    /// cluster — always admits, and the new usage lands exactly.
    #[test]
    fn renegotiate_within_own_share_admits(
        first in demand_strategy(),
        scale in 0.0f64..1.5,
    ) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        prop_assume!(api.admits(first.entries()).is_ok());
        let id = api.reserve(&first).unwrap();
        let mut scaled = ResourceVector::new();
        for (key, amount) in first.iter() {
            let cap = api.capacity(key).unwrap();
            scaled.add(key, (amount * scale).min(0.9 * cap));
        }
        let new_id = api.renegotiate(id, &scaled).unwrap();
        prop_assert_eq!(api.demand_of(new_id), Some(&scaled));
        prop_assert_eq!(api.reservation_count(), 1);
        // The sole reservation reserves into empty buckets: usage is the
        // demand itself, exactly.
        for (key, amount) in scaled.iter() {
            prop_assert_eq!(api.used(key).unwrap().to_bits(), amount.to_bits());
        }
    }

    /// Moving a session to a different server releases every bucket on the
    /// old one: a cross-server renegotiation must not strand phantom usage
    /// where the stream no longer runs.
    #[test]
    fn cross_server_move_releases_old_buckets(
        at_zero in demand_on(0),
        at_two in demand_on(2),
    ) {
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        let id = api.reserve(&at_zero).unwrap();
        let new_id = api.renegotiate(id, &at_two).unwrap();
        prop_assert_eq!(api.demand_of(new_id), Some(&at_two));
        prop_assert_eq!(api.reservation_count(), 1);
        for key in api.buckets().collect::<Vec<_>>() {
            if key.server == ServerId(0) {
                // Single-lease release subtracts the exact amount added.
                prop_assert_eq!(api.used(key).unwrap(), 0.0);
            }
        }
        for (key, amount) in at_two.iter() {
            prop_assert_eq!(api.used(key).unwrap().to_bits(), amount.to_bits());
        }
    }
}

/// A bucket's capacity on the clusters these tests build.
fn capacity_of(kind: ResourceKind) -> f64 {
    match kind {
        ResourceKind::Cpu => 1.0,
        ResourceKind::NetBandwidth => 3_200_000.0,
        ResourceKind::DiskBandwidth => 20_000_000.0,
        ResourceKind::Memory => 512e6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A refused renegotiation changes nothing, whatever the usage, even
    /// on buckets re-rated below it: the reservation keeps its id and
    /// demand, every bucket's usage keeps its bits, the reservation count
    /// holds, and releasing the id afterwards frees its whole share. The
    /// new demand aims at each bucket's boundary to within a few ulps of
    /// either way of rounding its headroom — `(c - u) + o` or
    /// `c - (u - o)` — where the two tests can disagree.
    #[test]
    fn failed_renegotiation_changes_nothing(
        preload in proptest::collection::vec((0usize..4, 0.0f64..1.0), 0..4),
        old in proptest::collection::vec((0usize..4, 0.0f64..0.5), 1..4),
        rerates in proptest::collection::vec((0usize..4, 0.05f64..1.5), 0..3),
        new in proptest::collection::vec((0usize..4, any::<bool>(), -3i64..4), 1..4),
    ) {
        let key = |i: usize| ResourceKey::new(ServerId(0), ResourceKind::ALL[i]);
        let fraction_of = |i: usize, f: f64| f * capacity_of(ResourceKind::ALL[i]);
        let mut api = CompositeQosApi::homogeneous_cluster(
            [ServerId(0)], 3_200_000.0, 20_000_000.0, 512e6,
        );
        for (i, f) in preload {
            let _ = api.reserve(&ResourceVector::new().with(key(i), fraction_of(i, f)));
        }
        let keys: Vec<ResourceKey> = api.buckets().collect();
        let usage = |api: &CompositeQosApi| -> Vec<u64> {
            keys.iter().map(|&k| api.used(k).unwrap().to_bits()).collect()
        };
        let before_old: Vec<f64> = keys.iter().map(|&k| api.used(k).unwrap()).collect();
        let mut old_demand = ResourceVector::new();
        for (i, f) in old {
            old_demand.add(key(i), fraction_of(i, f));
        }
        prop_assume!(api.admits(old_demand.entries()).is_ok());
        let id = api.reserve(&old_demand).unwrap();
        // Re-rates relative to the usage, so a factor below 1 leaves the
        // bucket oversubscribed.
        for (i, factor) in rerates {
            let used = api.used(key(i)).unwrap();
            let base = if used > 0.0 { used } else { capacity_of(ResourceKind::ALL[i]) };
            api.set_capacity(key(i), factor * base);
        }
        let mut new_demand = ResourceVector::new();
        for (i, unclamped, ulps) in new {
            let (c, u, o) =
                (api.capacity(key(i)).unwrap(), api.used(key(i)).unwrap(), old_demand.get(key(i)));
            let edge = if unclamped { (c - u) + o } else { c - (u - o).max(0.0) };
            let amount = f64::from_bits((edge.to_bits() as i64 + ulps) as u64);
            if edge > 0.0 && amount.is_finite() && amount > 0.0 {
                new_demand.set(key(i), amount);
            }
        }
        let before = usage(&api);
        let count = api.reservation_count();
        if api.renegotiate(id, &new_demand).is_err() {
            prop_assert_eq!(api.demand_of(id), Some(&old_demand));
            prop_assert_eq!(usage(&api), before);
            prop_assert_eq!(api.reservation_count(), count);
            api.release(id);
            prop_assert_eq!(api.reservation_count(), count - 1);
            for (&k, &was) in keys.iter().zip(&before_old) {
                let now = api.used(k).unwrap();
                prop_assert!((now - was).abs() <= 1e-9 * api.capacity(k).unwrap().max(1.0),
                    "{k}: {now} after release vs {was} before the reservation");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The admission kernel's shortcuts agree with the whole-demand calls
    /// on random bucket states: some servers failed (server 3 was never
    /// there), some buckets re-rated below their usage, some amounts zero.
    /// A candidate's five entries projected in two parts — its replica
    /// side by `project`, then its target side by `project_on` — give
    /// `project` of all five, bit for bit; its target side passes
    /// `admits_on` exactly when `admits` passes it keyed on the target;
    /// where the servers' `headroom` refuses it, `admits_on` refuses it on
    /// every server; and `admits_renegotiation` passes exactly when
    /// `renegotiate` succeeds.
    #[test]
    fn split_projection_and_pure_renegotiation_check_match_the_whole_calls(
        usage in proptest::collection::vec((0u32..3, 0usize..4, 0.0f64..1.0), 0..12),
        held in proptest::collection::vec((0u32..3, 0usize..4, 0.0f64..0.3), 1..4),
        rerates in proptest::collection::vec((0u32..3, 0usize..4, 0.05f64..1.5), 0..4),
        failed in proptest::collection::vec(0u32..3, 0..2),
        source in 0u32..4,
        target in 0u32..4,
        amounts in proptest::collection::vec((any::<bool>(), 0.0f64..0.6), 4..5),
    ) {
        let key = |s: u32, i: usize| ResourceKey::new(ServerId(s), ResourceKind::ALL[i]);
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        for (s, i, f) in usage {
            let _ = api.reserve(&ResourceVector::new().with(key(s, i), f * capacity_of(ResourceKind::ALL[i])));
        }
        let mut old = ResourceVector::new();
        for (s, i, f) in held {
            old.set(key(s, i), f * capacity_of(ResourceKind::ALL[i]));
        }
        let id = api.reserve(&old).ok();
        for (s, i, factor) in rerates {
            if let Some(used) = api.used(key(s, i)) {
                let base = if used > 0.0 { used } else { capacity_of(ResourceKind::ALL[i]) };
                api.set_capacity(key(s, i), factor * base);
            }
        }
        for s in failed {
            api.fail_server(ServerId(s));
        }
        // The candidate: a replica read on `source`, sent on to a remote
        // `target`, which runs the pipeline. A drawn `false` zeroes an
        // amount.
        let amount = |(keep, f): (bool, f64), kind: ResourceKind| {
            if keep { f * capacity_of(kind) } else { 0.0 }
        };
        let stored = amount(amounts[0], ResourceKind::DiskBandwidth) / 10.0;
        let transfer = if source != target { stored } else { 0.0 };
        let replica = [
            (key(source, ResourceKind::DiskBandwidth as usize), stored),
            (key(source, ResourceKind::NetBandwidth as usize), transfer),
        ];
        let target_side = [
            (ResourceKind::Cpu, amount(amounts[1], ResourceKind::Cpu)),
            (ResourceKind::NetBandwidth, amount(amounts[2], ResourceKind::NetBandwidth)),
            (ResourceKind::Memory, amount(amounts[3], ResourceKind::Memory)),
        ];
        let mut whole = replica.to_vec();
        whole.extend(target_side.map(|(kind, a)| (ResourceKey::new(ServerId(target), kind), a)));
        let split = api.project_on(api.project(&replica), ServerId(target), &target_side);
        let full = api.project(&whole);
        prop_assert_eq!(split.max_fill.to_bits(), full.max_fill.to_bits());
        prop_assert_eq!(split.fits_capacity, full.fits_capacity);
        let keyed = target_side.map(|(kind, a)| (ResourceKey::new(ServerId(target), kind), a));
        prop_assert_eq!(api.admits_on(ServerId(target), &target_side), api.admits(&keyed).is_ok());
        let servers: Vec<ServerId> = ServerId::first_n(4).collect();
        let kinds = target_side.map(|(kind, _)| kind);
        if !api.headroom(&servers, &kinds).may_admit(&target_side) {
            prop_assert!(servers.iter().all(|&s| !api.admits_on(s, &target_side)));
        }
        // A failed server's reservations are cancelled: an unknown id must
        // bounce in both calls alike.
        let id = id.unwrap_or(ReservationId(u64::MAX));
        let predicted = api.admits_renegotiation(id, &whole).is_ok();
        let actual = api.renegotiate(id, &ResourceVector::from_distinct(&whole)).is_ok();
        prop_assert_eq!(predicted, actual);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `LiveCapacity` kept by capacity epoch, rebuilt only when the
    /// epoch moves, equals a fresh `live_capacity` after every call of a
    /// random sequence: registrations, re-rates, server failures and
    /// restarts (each of which bumps the epoch when it changes anything)
    /// and reservations and releases (which never do).
    #[test]
    fn live_capacity_kept_by_epoch_stays_fresh(
        ops in proptest::collection::vec((0u8..6, 0u32..5, 0usize..4, 0.05f64..1.5), 1..40),
    ) {
        let key = |s: u32, i: usize| ResourceKey::new(ServerId(s), ResourceKind::ALL[i]);
        let servers: Vec<ServerId> = ServerId::first_n(5).collect();
        let kinds = [ResourceKind::Cpu, ResourceKind::NetBandwidth, ResourceKind::Memory];
        let mut api = CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6);
        let mut kept = (api.capacity_epoch(), api.live_capacity(&servers, &kinds));
        let mut held = Vec::new();
        for (op, s, i, factor) in ops {
            let (before, capacity) = (api.capacity_epoch(), capacity_of(ResourceKind::ALL[i]));
            let changed = match op {
                0 => {
                    api.register(key(s, i), factor * capacity);
                    true
                }
                1 => api.set_capacity(key(s, i), factor * capacity),
                2 => {
                    api.fail_server(ServerId(s));
                    true
                }
                3 => api.restore_server(ServerId(s)),
                4 => {
                    let demand = ResourceVector::new().with(key(s, i), factor * capacity / 4.0);
                    held.extend(api.reserve(&demand).ok());
                    false
                }
                _ => {
                    if let Some(id) = held.pop() {
                        api.release(id);
                    }
                    false
                }
            };
            prop_assert_eq!(api.capacity_epoch() != before, changed, "op {}", op);
            if api.capacity_epoch() != kept.0 {
                kept = (api.capacity_epoch(), api.live_capacity(&servers, &kinds));
            }
            prop_assert_eq!(kept.1, api.live_capacity(&servers, &kinds));
        }
    }
}
