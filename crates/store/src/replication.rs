//! Offline replication and QoS sampling.
//!
//! "Two major activities, offline replication and QoS sampling, are
//! performed for each media object inserted into the database. As a result
//! of those, relevant information such as the quality, location and
//! resource consumption pattern of each replica of the newly-inserted
//! object is fed into the Distributed Metadata Engine as metadata."
//!
//! The paper's experiments fully replicate every quality tier on every
//! server ("three to four copies … fully replicated on three servers so
//! that each server has all copies"); [`Placement::Full`] reproduces that.
//! [`Placement::RoundRobin`] spreads tiers across servers for
//! storage-constrained deployments. A simple access-frequency-driven
//! online migration pass (the paper defers dynamic replication to a
//! follow-up paper) is provided as an extension.

use crate::engine::MetadataEngine;
use crate::metadata::{ObjectRecord, QosProfile};
use crate::object::{ObjectStore, PhysicalObject, PhysicalOid, StoreError};
use quasaq_media::{DeliveryCostModel, Library, VideoId};
use quasaq_sim::ServerId;
use std::collections::BTreeMap;

/// Computes static QoS profiles for replicas — the paper's "static QoS
/// mapping performed by the QoS sampler".
#[derive(Debug, Clone, Copy, Default)]
pub struct QosSampler {
    /// The delivery cost model shared with the streaming executor.
    pub cost: DeliveryCostModel,
}

impl QosSampler {
    /// Samples the untransformed-delivery profile of a replica encoded at
    /// `rate_bps` and `fps`.
    pub fn profile(&self, rate_bps: u64, fps: f64) -> QosProfile {
        QosProfile {
            cpu_share: self.cost.stream_cpu_share(rate_bps as f64, fps),
            net_bps: rate_bps as f64,
            disk_bps: rate_bps as f64,
            memory_bytes: self.cost.buffer_bytes(rate_bps as f64),
        }
    }
}

/// Replica placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every quality tier of every video on every server (the paper's
    /// experimental setup).
    Full,
    /// Tier `t` of video `v` goes to server `(v + t) mod n` — one copy per
    /// tier, spread across servers.
    RoundRobin,
    /// Tier `t` of video `v` goes to servers `(v + t + c) mod n` for
    /// `c in 0..copies` — `copies`-way replication without `Full`'s
    /// `videos x tiers x servers` object blow-up, so hundred-server
    /// testbeds stay linear in catalog size. `Spread { copies: 1 }` is
    /// `RoundRobin`; `copies >= n` degenerates to `Full` for that video.
    Spread {
        /// Replicas per tier (clamped to the server count).
        copies: u32,
    },
}

/// Performs offline replication of a [`Library`] onto a set of object
/// stores, registering everything with the metadata engine.
pub struct ReplicationPlanner {
    sampler: QosSampler,
    placement: Placement,
    next_oid: u64,
}

impl ReplicationPlanner {
    /// Creates a planner.
    pub fn new(sampler: QosSampler, placement: Placement) -> Self {
        ReplicationPlanner { sampler, placement, next_oid: 0 }
    }

    /// Replicates the whole library. `stores` must cover every server the
    /// placement targets. Returns the number of physical objects created.
    ///
    /// One pass over the catalog: OIDs are allocated ascending, so every
    /// store and the engine's OID index take each object with a push, each
    /// video's record slice is sized once, before its first copy, and the
    /// engine's top-rate table once, before the pass.
    pub fn replicate(
        &mut self,
        library: &Library,
        stores: &mut BTreeMap<ServerId, ObjectStore>,
        engine: &mut MetadataEngine,
    ) -> Result<usize, StoreError> {
        // In server order, as the placements index them.
        let mut stores: Vec<&mut ObjectStore> = stores.values_mut().collect();
        let n = stores.len();
        assert!(n > 0, "no object stores");
        let copies = match self.placement {
            Placement::Full => n,
            Placement::RoundRobin => 1,
            Placement::Spread { copies } => (copies as usize).clamp(1, n),
        };
        let top_rate_tiers: usize = library
            .entries()
            .iter()
            .map(|entry| {
                let best = entry.replicas.iter().map(|r| r.rate_bps).max();
                entry.replicas.iter().filter(|r| Some(r.rate_bps) == best).count()
            })
            .sum();
        engine.reserve_top(top_rate_tiers * copies);
        let mut created = 0;
        for entry in library.entries() {
            let id = entry.meta.id;
            engine.insert_video(entry.meta.clone());
            engine.reserve_replicas(id, entry.replicas.len() * copies);
            for (tier_idx, replica) in entry.replicas.iter().enumerate() {
                // This tier's copies go to servers `start + c (mod n)`.
                let start = match self.placement {
                    Placement::Full => 0,
                    _ => id.0 as usize + tier_idx,
                };
                let bytes = replica.estimated_bytes(entry.meta.duration);
                let trace_seed = replica.trace_seed(&entry.meta);
                let profile = self.sampler.profile(replica.rate_bps, replica.spec.frame_rate.fps());
                for c in 0..copies {
                    let store = &mut *stores[(start + c) % n];
                    let oid = PhysicalOid(self.next_oid);
                    self.next_oid += 1;
                    let object = PhysicalObject {
                        oid,
                        video: id,
                        tier: replica.tier,
                        spec: replica.spec,
                        rate_bps: replica.rate_bps,
                        bytes,
                        server: store.server(),
                        trace_seed,
                    };
                    store.insert(object.clone())?;
                    if let Err(err) = engine.insert_object(object, profile) {
                        // Roll back the disk charge so a malformed
                        // placement leaves store and metadata consistent.
                        let _ = store.remove(oid);
                        return Err(err);
                    }
                    created += 1;
                }
            }
        }
        Ok(created)
    }
}

/// Access statistics driving online migration (extension beyond the
/// paper's prototype, which defers dynamic replication to future work).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessStats {
    counts: BTreeMap<(VideoId, ServerId), u64>,
}

impl AccessStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Records one access of `video` served by `server`.
    pub fn record(&mut self, video: VideoId, server: ServerId) {
        *self.counts.entry((video, server)).or_insert(0) += 1;
    }

    /// Total accesses of a video across servers.
    pub fn video_total(&self, video: VideoId) -> u64 {
        self.counts.iter().filter(|((v, _), _)| *v == video).map(|(_, &c)| c).sum()
    }

    /// Total accesses served by a server.
    pub fn server_total(&self, server: ServerId) -> u64 {
        self.counts.iter().filter(|((_, s), _)| *s == server).map(|(_, &c)| c).sum()
    }
}

/// One migration decision: copy replica `oid` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Replica to copy.
    pub oid: PhysicalOid,
    /// Destination server.
    pub to: ServerId,
}

impl ReplicationPlanner {
    /// Executes previously planned migrations: copies each replica to its
    /// destination store (fresh physical OID, same quality and profile)
    /// and registers the copy with the metadata engine. Returns how many
    /// copies were created; migrations whose source vanished are skipped.
    pub fn apply_migrations(
        &mut self,
        migrations: &[Migration],
        stores: &mut BTreeMap<ServerId, ObjectStore>,
        engine: &mut MetadataEngine,
    ) -> Result<usize, StoreError> {
        // Guard against OID collisions when this planner did not perform
        // the original replication.
        if let Some(max) = engine.max_oid() {
            self.next_oid = self.next_oid.max(max.0 + 1);
        }
        let mut applied = 0;
        for m in migrations {
            let Some(source) = engine.record(m.oid).cloned() else { continue };
            if source.object.server == m.to {
                continue;
            }
            let mut object = source.object.clone();
            object.oid = PhysicalOid(self.next_oid);
            self.next_oid += 1;
            object.server = m.to;
            let store = stores.get_mut(&m.to).expect("migration targets a known store");
            let oid = object.oid;
            store.insert(object.clone())?;
            if let Err(err) = engine.insert_object(object, source.profile) {
                let _ = store.remove(oid);
                return Err(err);
            }
            applied += 1;
        }
        Ok(applied)
    }
}

/// Proposes replica copies so the layout "converges to the current status
/// of user requests": for every hot video (at least `hot_threshold`
/// recorded accesses), each quality tier missing from the least-loaded
/// server gets copied there. Cold videos are untouched.
pub fn plan_migrations(
    engine: &MetadataEngine,
    stats: &AccessStats,
    hot_threshold: u64,
) -> Vec<Migration> {
    let servers = engine.sites();
    let mut migrations = Vec::new();
    for video in engine.videos().map(|m| m.id) {
        if stats.video_total(video) < hot_threshold {
            continue;
        }
        let replicas = engine.replicas(video);
        let Some(&coldest) = servers.iter().min_by_key(|&&s| (stats.server_total(s), s)) else {
            continue;
        };
        // Distinct tiers in stable order (highest rate first).
        let mut tiers: Vec<&ObjectRecord> = replicas.iter().collect();
        tiers.sort_by(|a, b| {
            b.object.rate_bps.cmp(&a.object.rate_bps).then(a.object.oid.cmp(&b.object.oid))
        });
        tiers.dedup_by_key(|r| r.object.tier);
        for rec in tiers {
            let already_there = replicas
                .iter()
                .any(|r| r.object.server == coldest && r.object.tier == rec.object.tier);
            if !already_there {
                migrations.push(Migration { oid: rec.object.oid, to: coldest });
            }
        }
    }
    migrations
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::LibraryConfig;

    fn setup(placement: Placement) -> (Library, BTreeMap<ServerId, ObjectStore>, MetadataEngine) {
        let library = Library::generate(42, &LibraryConfig::default());
        let mut stores = BTreeMap::new();
        for s in ServerId::first_n(3) {
            stores.insert(s, ObjectStore::new(s, 1 << 40));
        }
        let mut engine = MetadataEngine::new(ServerId::first_n(3));
        let mut planner = ReplicationPlanner::new(QosSampler::default(), placement);
        planner.replicate(&library, &mut stores, &mut engine).unwrap();
        (library, stores, engine)
    }

    #[test]
    fn full_replication_puts_every_copy_everywhere() {
        let (library, stores, engine) = setup(Placement::Full);
        let total_tiers: usize = library.entries().iter().map(|e| e.replicas.len()).sum();
        assert_eq!(engine.object_count(), total_tiers * 3);
        for entry in library.entries() {
            let reps = engine.replicas(entry.meta.id);
            assert_eq!(reps.len(), entry.replicas.len() * 3);
            // Each server holds all tiers of this video.
            for s in ServerId::first_n(3) {
                let on_s = reps.iter().filter(|r| r.object.server == s).count();
                assert_eq!(on_s, entry.replicas.len());
            }
        }
        for store in stores.values() {
            assert_eq!(store.object_count(), total_tiers);
        }
    }

    #[test]
    fn round_robin_places_one_copy_per_tier() {
        let (library, _stores, engine) = setup(Placement::RoundRobin);
        let total_tiers: usize = library.entries().iter().map(|e| e.replicas.len()).sum();
        assert_eq!(engine.object_count(), total_tiers);
        // Tiers of one video land on distinct servers (3-4 tiers, 3
        // servers -> at least 3 distinct).
        let entry = &library.entries()[0];
        let reps = engine.replicas(entry.meta.id);
        let mut servers: Vec<ServerId> = reps.iter().map(|r| r.object.server).collect();
        servers.sort();
        servers.dedup();
        assert!(servers.len() >= entry.replicas.len().min(3));
    }

    #[test]
    fn spread_places_exactly_copies_per_tier_on_distinct_servers() {
        let (library, _stores, engine) = setup(Placement::Spread { copies: 2 });
        let total_tiers: usize = library.entries().iter().map(|e| e.replicas.len()).sum();
        assert_eq!(engine.object_count(), total_tiers * 2);
        for entry in library.entries() {
            let reps = engine.replicas(entry.meta.id);
            for replica in &entry.replicas {
                let holders: Vec<ServerId> = reps
                    .iter()
                    .filter(|r| r.object.tier == replica.tier)
                    .map(|r| r.object.server)
                    .collect();
                assert_eq!(holders.len(), 2, "two copies of every tier");
                assert_ne!(holders[0], holders[1], "copies land on distinct servers");
            }
        }
    }

    #[test]
    fn spread_clamps_copies_to_the_cluster() {
        // copies > n degenerates to full replication, never a double-place.
        let (library, _stores, engine) = setup(Placement::Spread { copies: 99 });
        let total_tiers: usize = library.entries().iter().map(|e| e.replicas.len()).sum();
        assert_eq!(engine.object_count(), total_tiers * 3);
    }

    #[test]
    fn sampler_profiles_are_registered() {
        let (_, _, engine) = setup(Placement::Full);
        for meta in engine.videos() {
            for rec in engine.replicas(meta.id) {
                assert!(rec.profile.cpu_share > 0.0);
                assert_eq!(rec.profile.net_bps, rec.object.rate_bps as f64);
                assert!(rec.profile.memory_bytes > 0.0);
            }
        }
    }

    #[test]
    fn disk_accounting_reflects_replicas() {
        let (library, stores, _) = setup(Placement::Full);
        let per_server_bytes: u64 = library
            .entries()
            .iter()
            .flat_map(|e| e.replicas.iter().map(move |r| r.estimated_bytes(e.meta.duration)))
            .sum();
        for store in stores.values() {
            assert_eq!(store.used_bytes(), per_server_bytes);
        }
    }

    #[test]
    fn disk_full_propagates() {
        let library = Library::generate(42, &LibraryConfig::default());
        let mut stores = BTreeMap::new();
        // One tiny store: replication must fail.
        stores.insert(ServerId(0), ObjectStore::new(ServerId(0), 1_000));
        let mut engine = MetadataEngine::new([ServerId(0)]);
        let mut planner = ReplicationPlanner::new(QosSampler::default(), Placement::Full);
        assert!(matches!(
            planner.replicate(&library, &mut stores, &mut engine),
            Err(StoreError::DiskFull { .. })
        ));
    }

    #[test]
    fn malformed_placement_errors_instead_of_aborting() {
        let library = Library::generate(42, &LibraryConfig::default());
        // The stores cover a server the metadata engine does not span —
        // previously this placement aborted the process via panic.
        let mut stores = BTreeMap::new();
        stores.insert(ServerId(7), ObjectStore::new(ServerId(7), 1 << 40));
        let mut engine = MetadataEngine::new([ServerId(0)]);
        let mut planner = ReplicationPlanner::new(QosSampler::default(), Placement::Full);
        let err = planner.replicate(&library, &mut stores, &mut engine).unwrap_err();
        assert_eq!(err, StoreError::UnknownSite(ServerId(7)));
        // The failed registration rolled back its disk charge.
        assert_eq!(stores[&ServerId(7)].used_bytes(), 0);
        assert_eq!(engine.object_count(), 0);
    }

    #[test]
    fn replicating_twice_keeps_store_and_engine_in_agreement() {
        let library = Library::generate(42, &LibraryConfig::default());
        let mut stores = BTreeMap::new();
        stores.insert(ServerId(0), ObjectStore::new(ServerId(0), 1 << 40));
        let mut engine = MetadataEngine::new([ServerId(0)]);
        let created = ReplicationPlanner::new(QosSampler::default(), Placement::Full)
            .replicate(&library, &mut stores, &mut engine)
            .unwrap();
        let store = &stores[&ServerId(0)];
        let (count, used) = (store.object_count(), store.used_bytes());
        let original = store.get(PhysicalOid(0)).unwrap().clone();
        assert_eq!(count, created);
        // A second planner allocates the same OIDs from 0: the store
        // refuses the first one before anything is charged or registered.
        let err = ReplicationPlanner::new(QosSampler::default(), Placement::Full)
            .replicate(&library, &mut stores, &mut engine)
            .unwrap_err();
        assert_eq!(err, StoreError::DuplicateOid(PhysicalOid(0)));
        let store = &stores[&ServerId(0)];
        assert_eq!(store.object_count(), count);
        assert_eq!(store.used_bytes(), used);
        assert_eq!(engine.object_count(), created);
        assert_eq!(store.get(PhysicalOid(0)), Some(&original));
        assert_eq!(engine.record(PhysicalOid(0)).unwrap().object, original);
    }

    #[test]
    fn malformed_migration_errors_and_rolls_back() {
        let (_, mut stores, mut engine) = setup(Placement::RoundRobin);
        let existing = engine.replicas(VideoId(0))[0].object.clone();
        // Target store exists but the engine never registered the site.
        let rogue = ServerId(9);
        stores.insert(rogue, ObjectStore::new(rogue, 1 << 40));
        let migrations = vec![Migration { oid: existing.oid, to: rogue }];
        let mut planner = ReplicationPlanner::new(QosSampler::default(), Placement::RoundRobin);
        let err = planner.apply_migrations(&migrations, &mut stores, &mut engine).unwrap_err();
        assert_eq!(err, StoreError::UnknownSite(rogue));
        assert_eq!(stores[&rogue].used_bytes(), 0);
    }

    #[test]
    fn migration_targets_hot_videos_on_cold_servers() {
        let (_, _, engine) = setup(Placement::RoundRobin);
        let mut stats = AccessStats::new();
        // Video 0 is hot and all load lands on server 0.
        for _ in 0..100 {
            stats.record(VideoId(0), ServerId(0));
        }
        stats.record(VideoId(1), ServerId(1));
        let migrations = plan_migrations(&engine, &stats, 50);
        // Every tier of the hot video missing from the coldest server
        // (server 2, which serves nothing) is proposed.
        let replicas = engine.replicas(VideoId(0));
        let mut missing_tiers: Vec<&str> = replicas.iter().map(|r| r.object.tier).collect();
        missing_tiers.sort();
        missing_tiers.dedup();
        let expected = missing_tiers
            .iter()
            .filter(|t| {
                !replicas.iter().any(|r| r.object.server == ServerId(2) && &r.object.tier == *t)
            })
            .count();
        assert_eq!(migrations.len(), expected);
        assert!(!migrations.is_empty());
        assert!(migrations.iter().all(|m| m.to == ServerId(2)));
        assert_eq!(stats.video_total(VideoId(0)), 100);
        assert_eq!(stats.server_total(ServerId(0)), 100);
    }

    #[test]
    fn no_migrations_below_threshold() {
        let (_, _, engine) = setup(Placement::RoundRobin);
        let stats = AccessStats::new();
        assert!(plan_migrations(&engine, &stats, 1).is_empty());
    }

    #[test]
    fn apply_migrations_copies_replicas() {
        let (_, mut stores, mut engine) = setup(Placement::RoundRobin);
        let mut stats = AccessStats::new();
        for _ in 0..100 {
            stats.record(VideoId(0), ServerId(0));
        }
        let migrations = plan_migrations(&engine, &stats, 50);
        assert!(!migrations.is_empty());
        let before = engine.replicas(VideoId(0)).len();
        // A fresh planner (simulating a later maintenance pass) must not
        // collide with existing OIDs.
        let mut planner = ReplicationPlanner::new(QosSampler::default(), Placement::RoundRobin);
        let applied = planner.apply_migrations(&migrations, &mut stores, &mut engine).unwrap();
        assert_eq!(applied, migrations.len());
        let after = engine.replicas(VideoId(0));
        assert_eq!(after.len(), before + applied);
        // The copy landed on the planned server with the same tier.
        let m = migrations[0];
        let source_tier = engine.record(m.oid).unwrap().object.tier;
        assert!(after.iter().any(|r| r.object.server == m.to && r.object.tier == source_tier));
        // OIDs stay unique.
        let mut oids: Vec<_> = after.iter().map(|r| r.object.oid).collect();
        oids.sort();
        oids.dedup();
        assert_eq!(oids.len(), before + applied);
    }

    #[test]
    fn apply_migrations_skips_same_server_and_missing() {
        let (_, mut stores, mut engine) = setup(Placement::RoundRobin);
        let existing = engine.replicas(VideoId(0))[0].object.clone();
        let migrations = vec![
            // No-op: already on that server.
            Migration { oid: existing.oid, to: existing.server },
            // Missing source.
            Migration { oid: crate::object::PhysicalOid(9_999_999), to: ServerId(0) },
        ];
        let mut planner = ReplicationPlanner::new(QosSampler::default(), Placement::RoundRobin);
        let applied = planner.apply_migrations(&migrations, &mut stores, &mut engine).unwrap();
        assert_eq!(applied, 0);
    }
}
