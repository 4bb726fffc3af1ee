//! Model checks of the store crate's indexes against the layouts they
//! replaced: the dense metadata engine against records partitioned by
//! owning site, a directory of replica locations per video, and `record`
//! by a scan over the sites; its top-rate table against a filter of each
//! video's records; the OID-sorted object store against a B-tree keyed by
//! OID.

use proptest::prelude::*;
use quasaq_media::{ColorDepth, FrameRate, QualitySpec, Resolution, VideoFormat, VideoId};
use quasaq_sim::ServerId;
use quasaq_store::{
    MetadataEngine, Migration, ObjectRecord, ObjectStore, PhysicalObject, PhysicalOid, Placement,
    QosProfile, QosSampler, ReplicationPlanner, StoreError, TopReplica,
};
use std::collections::BTreeMap;

/// The three-map reference layout, with the duplicate-OID check.
struct Model {
    sites: BTreeMap<ServerId, BTreeMap<PhysicalOid, ObjectRecord>>,
    directory: BTreeMap<VideoId, Vec<(PhysicalOid, ServerId)>>,
    next_oid: u64,
}

impl Model {
    fn new(servers: impl IntoIterator<Item = ServerId>) -> Self {
        let sites = servers.into_iter().map(|s| (s, BTreeMap::new())).collect();
        Model { sites, directory: BTreeMap::new(), next_oid: 0 }
    }

    fn insert(&mut self, object: PhysicalObject, profile: QosProfile) -> Result<(), StoreError> {
        if !self.sites.contains_key(&object.server) {
            return Err(StoreError::UnknownSite(object.server));
        }
        if self.record(object.oid).is_some() {
            return Err(StoreError::DuplicateOid(object.oid));
        }
        self.directory.entry(object.video).or_default().push((object.oid, object.server));
        let site = self.sites.get_mut(&object.server).unwrap();
        site.insert(object.oid, ObjectRecord { object, profile });
        Ok(())
    }

    fn remove(&mut self, oid: PhysicalOid) -> Option<ObjectRecord> {
        let rec = self.sites.values_mut().find_map(|s| s.remove(&oid))?;
        self.directory.get_mut(&rec.object.video).unwrap().retain(|&(o, _)| o != oid);
        Some(rec)
    }

    fn replicas(&self, video: VideoId) -> Vec<ObjectRecord> {
        let Some(locs) = self.directory.get(&video) else { return Vec::new() };
        locs.iter().filter_map(|&(oid, s)| self.sites.get(&s)?.get(&oid)).cloned().collect()
    }

    fn record(&self, oid: PhysicalOid) -> Option<&ObjectRecord> {
        self.sites.values().find_map(|s| s.get(&oid))
    }

    fn max_oid(&self) -> Option<PhysicalOid> {
        self.sites.values().flat_map(|s| s.keys().copied()).max()
    }

    fn fail_site(&mut self, server: ServerId) -> Vec<PhysicalOid> {
        let Some(partition) = self.sites.remove(&server) else { return Vec::new() };
        for locs in self.directory.values_mut() {
            locs.retain(|&(_, s)| s != server);
        }
        partition.into_keys().collect()
    }

    /// `ReplicationPlanner::apply_migrations` on the reference layout.
    fn apply_migrations(&mut self, migrations: &[Migration]) -> Result<usize, StoreError> {
        if let Some(max) = self.max_oid() {
            self.next_oid = self.next_oid.max(max.0 + 1);
        }
        let mut applied = 0;
        for m in migrations {
            let Some(source) = self.record(m.oid).cloned() else { continue };
            if source.object.server == m.to {
                continue;
            }
            let mut object = source.object;
            object.oid = PhysicalOid(self.next_oid);
            self.next_oid += 1;
            object.server = m.to;
            self.insert(object, source.profile)?;
            applied += 1;
        }
        Ok(applied)
    }
}

fn object(oid: u64, video: u32, server: u32) -> (PhysicalObject, QosProfile) {
    let object = PhysicalObject {
        oid: PhysicalOid(oid),
        video: VideoId(video),
        tier: ["full", "t1", "dsl"][(oid % 3) as usize],
        spec: QualitySpec::new(
            Resolution::CIF,
            ColorDepth::TRUE_COLOR,
            FrameRate::NTSC_FILM,
            VideoFormat::Mpeg1,
        ),
        rate_bps: 48_000 + oid,
        bytes: 1_000,
        server: ServerId(server),
        trace_seed: oid,
    };
    (object, QosProfile { cpu_share: oid as f64 / 64.0, ..QosProfile::ZERO })
}

/// Engine and model agree on everything a caller can observe.
fn assert_agree(engine: &MetadataEngine, model: &Model) {
    for video in (0..8).chain([u32::MAX]).map(VideoId) {
        assert_eq!(engine.replicas(video), model.replicas(video).as_slice(), "{video:?}");
    }
    for oid in (0..72).map(PhysicalOid) {
        assert_eq!(engine.record(oid), model.record(oid), "{oid}");
    }
    let count: usize = model.sites.values().map(|s| s.len()).sum();
    assert_eq!(engine.object_count(), count);
    assert_eq!(engine.max_oid(), model.max_oid());
    assert!(engine.sites().iter().eq(model.sites.keys()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random inserts (unknown sites and duplicate OIDs included),
    /// removals, site failures (known and unknown) and migration rounds
    /// leave the dense engine indistinguishable from the reference
    /// layout: the same replica lists in the same order, the same records,
    /// counts, sites and errors.
    #[test]
    fn dense_engine_matches_the_partitioned_layout(
        ops in prop::collection::vec(
            (0u8..8, 0u32..6, 0u64..48, 0u32..5, prop::collection::vec((0u64..72, 0u32..5), 0..4)),
            1..80,
        ),
    ) {
        // The engine spans servers 0..4; a store exists for server 4 too,
        // so a migration there fails as an unknown site.
        let mut engine = MetadataEngine::new(ServerId::first_n(4));
        let mut model = Model::new(ServerId::first_n(4));
        let mut stores: BTreeMap<ServerId, ObjectStore> =
            ServerId::first_n(5).map(|s| (s, ObjectStore::new(s, u64::MAX))).collect();
        let mut planner = ReplicationPlanner::new(QosSampler::default(), Placement::RoundRobin);
        for (op, video, oid, server, moves) in ops {
            match op {
                0..=3 => {
                    let (obj, profile) = object(oid, video, server);
                    let got = engine.insert_object(obj.clone(), profile);
                    prop_assert_eq!(got, model.insert(obj, profile));
                }
                4 | 5 => {
                    let oid = PhysicalOid(oid);
                    prop_assert_eq!(engine.remove_object(oid), model.remove(oid));
                }
                6 => {
                    let server = ServerId(server);
                    prop_assert_eq!(engine.fail_site(server), model.fail_site(server));
                }
                _ => {
                    let migrations: Vec<Migration> = moves
                        .into_iter()
                        .map(|(oid, to)| Migration { oid: PhysicalOid(oid), to: ServerId(to) })
                        .collect();
                    let got = planner.apply_migrations(&migrations, &mut stores, &mut engine);
                    prop_assert_eq!(got, model.apply_migrations(&migrations));
                }
            }
            assert_agree(&engine, &model);
        }
    }
}

/// Every video's top-rate entries are its records at their highest rate,
/// in registration order, with bit-equal copies of the fields and the
/// record's position.
fn assert_top_is_the_filter(engine: &MetadataEngine) {
    let bits =
        |p: QosProfile| [p.cpu_share, p.net_bps, p.disk_bps, p.memory_bytes].map(f64::to_bits);
    for video in (0..8).chain([u32::MAX]).map(VideoId) {
        let records = engine.replicas(video);
        let best = records.iter().map(|r| r.object.rate_bps).max();
        let want: Vec<_> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| Some(r.object.rate_bps) == best)
            .map(|(i, r)| {
                let o = &r.object;
                (o.rate_bps, o.bytes, bits(r.profile), o.server, i as u32)
            })
            .collect();
        let got: Vec<_> = engine
            .top_replicas(video)
            .iter()
            .map(|t: &TopReplica| (t.rate_bps, t.bytes, bits(t.profile), t.server, t.position))
            .collect();
        assert_eq!(got, want, "{video:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random traces keep the top-rate table equal to a brute-force filter
    /// of the records after every operation: inserts into the newest video
    /// and into earlier ones (as migration makes), at tied rates and at
    /// rates above the current top, refused inserts (duplicate OIDs and
    /// unknown sites), removals that shift the positions of later records,
    /// and site failures.
    #[test]
    fn top_rate_table_matches_a_filter_of_the_records(
        ops in prop::collection::vec((0u8..10, 0u32..6, 0u64..4, 0u32..5, 0u64..64), 1..100),
    ) {
        const RATES: [u64; 4] = [48_000, 64_000, 96_000, 128_000];
        let mut engine = MetadataEngine::new(ServerId::first_n(4));
        let mut next_oid = 0;
        let mut newest = 0;
        for (op, video, rate, server, pick) in ops {
            match op {
                // Into the newest video, or the next one: a catalog load.
                0..=2 => {
                    newest += u32::from(video == 0);
                    let (obj, profile) = object(next_oid, newest, server);
                    next_oid += 1;
                    let obj = PhysicalObject { rate_bps: RATES[rate as usize], ..obj };
                    let _ = engine.insert_object(obj, profile);
                }
                // Into any video, earlier ones included.
                3..=5 => {
                    let (obj, profile) = object(next_oid, video, server);
                    next_oid += 1;
                    let obj = PhysicalObject { rate_bps: RATES[rate as usize], bytes: pick, ..obj };
                    let _ = engine.insert_object(obj, profile);
                }
                // A registered OID again.
                6 => {
                    let (obj, profile) = object(pick % next_oid.max(1), video, server);
                    let _ = engine.insert_object(obj, profile);
                }
                7 | 8 => {
                    let records = engine.replicas(VideoId(video));
                    if let Some(r) = records.get(pick as usize % records.len().max(1)) {
                        let oid = r.object.oid;
                        prop_assert_eq!(engine.remove_object(oid).map(|r| r.object.oid), Some(oid));
                    }
                }
                _ => {
                    engine.fail_site(ServerId(server));
                }
            }
            assert_top_is_the_filter(&engine);
        }
    }
}

/// `ObjectStore` as it was first written: a B-tree keyed by OID, with
/// duplicate OIDs refused.
struct StoreModel {
    capacity: u64,
    used: u64,
    objects: BTreeMap<PhysicalOid, PhysicalObject>,
}

impl StoreModel {
    fn insert(&mut self, object: PhysicalObject) -> Result<(), StoreError> {
        if self.objects.contains_key(&object.oid) {
            return Err(StoreError::DuplicateOid(object.oid));
        }
        let free = self.capacity - self.used;
        if object.bytes > free {
            return Err(StoreError::DiskFull {
                server: object.server,
                requested: object.bytes,
                free,
            });
        }
        self.used += object.bytes;
        self.objects.insert(object.oid, object);
        Ok(())
    }

    fn remove(&mut self, oid: PhysicalOid) -> Result<PhysicalObject, StoreError> {
        let object = self.objects.remove(&oid).ok_or(StoreError::NotFound(oid))?;
        self.used -= object.bytes;
        Ok(object)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random traces of ascending, out-of-order and duplicate inserts
    /// (some refused for disk space), removals and lookups leave the
    /// OID-sorted store indistinguishable from the B-tree model: the same
    /// results, the same objects in the same order, and the same counts
    /// and bytes.
    #[test]
    fn sorted_store_matches_the_btree_model(
        ops in prop::collection::vec((0u8..8, 0u64..40, 0u32..4, 0u64..400), 1..120),
    ) {
        const CAPACITY: u64 = 2_000;
        let mut store = ObjectStore::new(ServerId(0), CAPACITY);
        let mut model = StoreModel { capacity: CAPACITY, used: 0, objects: BTreeMap::new() };
        let make = |oid: u64, video: u32, bytes: u64| {
            let (object, _) = object(oid, video, 0);
            PhysicalObject { bytes, ..object }
        };
        for (op, oid, video, bytes) in ops {
            let above = model.objects.keys().next_back().map_or(0, |o| o.0 + 1);
            match op {
                // Ascending: above every stored OID, as allocation runs.
                0 | 1 => {
                    let object = make(above + oid % 3, video, bytes);
                    prop_assert_eq!(store.insert(object.clone()), model.insert(object));
                }
                // Anywhere, duplicates included.
                2 | 3 => {
                    let object = make(oid, video, bytes);
                    prop_assert_eq!(store.insert(object.clone()), model.insert(object));
                }
                // A stored OID again, with different contents.
                4 => {
                    let Some(&held) = model.objects.keys().nth(oid as usize % model.objects.len().max(1))
                    else { continue };
                    let object = make(held.0, video, bytes % 50);
                    prop_assert_eq!(store.insert(object.clone()), model.insert(object));
                }
                5 => {
                    let oid = PhysicalOid(oid);
                    prop_assert_eq!(store.remove(oid), model.remove(oid));
                }
                6 => {
                    let oid = PhysicalOid(oid);
                    prop_assert_eq!(store.get(oid), model.objects.get(&oid));
                }
                _ => {
                    let video = VideoId(video);
                    prop_assert!(store
                        .replicas_of(video)
                        .eq(model.objects.values().filter(|o| o.video == video)));
                }
            }
            prop_assert!(store.objects().eq(model.objects.values()));
            prop_assert_eq!(store.object_count(), model.objects.len());
            prop_assert_eq!(store.used_bytes(), model.used);
            prop_assert_eq!(store.free_bytes(), CAPACITY - model.used);
        }
    }
}
