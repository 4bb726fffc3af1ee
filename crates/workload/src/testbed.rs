//! Testbed assembly: the paper's experimental deployment in one struct.
//!
//! "The experiments are performed on a small distributed system containing
//! three servers … Each server has a total streaming bandwidth of
//! 3200KBps. … Our experimental video database contains 15 videos in
//! MPEG-1 format with playback time ranging from 30 seconds to 18
//! minutes. For each video, three to four copies with different quality
//! are generated and fully replicated on three servers so that each
//! server has all copies."

use quasaq_core::{
    CostModel, EfficiencyModel, GeneratorConfig, LrbModel, MinBitrateModel, PlanGenerator,
    QosWeights, QualityManager, RandomModel, UtilityGain, WeightedSumModel,
};
use quasaq_media::{DeliveryCostModel, Library, LibraryConfig};
use quasaq_qosapi::CompositeQosApi;
use quasaq_sim::{ServerId, SimDuration};
use quasaq_store::{MetadataEngine, ObjectStore, Placement, QosSampler, ReplicationPlanner};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

/// Cost-model selection for QuaSAQ runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// The paper's Lowest Resource Bucket model.
    Lrb,
    /// The paper's randomized baseline.
    Random,
    /// Static greedy (min delivered bitrate) — ablation.
    MinBitrate,
    /// Sum-of-fills instead of max — ablation.
    WeightedSum,
    /// The configurable optimizer extension: cost efficiency `E = G/C`
    /// with a perceptual-utility gain (paper future work).
    Utility,
}

impl CostKind {
    /// Instantiates the model.
    pub fn build(self) -> Box<dyn CostModel> {
        match self {
            CostKind::Lrb => Box::new(LrbModel),
            CostKind::Random => Box::new(RandomModel),
            CostKind::MinBitrate => Box::new(MinBitrateModel),
            CostKind::WeightedSum => Box::new(WeightedSumModel::default()),
            CostKind::Utility => {
                Box::new(EfficiencyModel::new(UtilityGain { weights: QosWeights::default() }))
            }
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CostKind::Lrb => "LRB",
            CostKind::Random => "Random",
            CostKind::MinBitrate => "MinBitrate",
            CostKind::WeightedSum => "WeightedSum",
            CostKind::Utility => "Utility",
        }
    }
}

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Master seed for catalog generation.
    pub seed: u64,
    /// Number of servers (paper: 3).
    pub servers: u32,
    /// Per-server streaming bandwidth in bytes/second (paper: 3200 KB/s).
    pub link_capacity_bps: u64,
    /// Per-server disk read bandwidth in bytes/second.
    pub disk_bps: f64,
    /// Per-server stream-buffer memory in bytes.
    pub memory_bytes: f64,
    /// Catalog shape.
    pub library: LibraryConfig,
    /// Replica placement (paper: full replication).
    pub placement: Placement,
    /// Delivery cost model shared by sampler, planner and executor.
    pub cost: DeliveryCostModel,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            servers: 3,
            link_capacity_bps: 3_200_000,
            disk_bps: 20_000_000.0,
            memory_bytes: 512e6,
            library: LibraryConfig::default(),
            placement: Placement::Full,
            cost: DeliveryCostModel::default(),
        }
    }
}

impl TestbedConfig {
    /// An N-server, V-video deployment for scaling studies. Spread
    /// placement (three copies per tier) keeps the replica count linear
    /// in the catalog, where the paper's full replication would build
    /// `videos x tiers x servers` objects — quadratic growth that makes a
    /// 100-server / 10^4-video testbed impractical to even construct.
    pub fn scale(servers: u32, num_videos: usize) -> Self {
        TestbedConfig {
            servers,
            library: LibraryConfig { num_videos, ..LibraryConfig::default() },
            placement: Placement::Spread { copies: 3 },
            ..TestbedConfig::default()
        }
    }

    /// [`TestbedConfig::scale`] with 30–120 s clips (the paper's run to
    /// 18 min), so sessions finish inside a short horizon: the deployment
    /// of the benchmark's 100-server workloads at `scale_short(100,
    /// 10_000)`.
    pub fn scale_short(servers: u32, num_videos: usize) -> Self {
        let scale = TestbedConfig::scale(servers, num_videos);
        TestbedConfig {
            library: LibraryConfig {
                min_duration: SimDuration::from_secs(30),
                max_duration: SimDuration::from_secs(120),
                ..scale.library
            },
            ..scale
        }
    }
}

/// The shared-testbed cache, keyed by each config's `Debug` rendering: it
/// names every field, nested ones included, and prints each `f64` in a
/// form that round-trips, so equal keys mean bit-equal configs.
fn shared_cache() -> &'static Mutex<HashMap<String, Arc<Testbed>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Testbed>>>> = OnceLock::new();
    CACHE.get_or_init(Default::default)
}

/// The assembled deployment: catalog, stores, metadata.
pub struct Testbed {
    /// Configuration it was built from.
    pub config: TestbedConfig,
    /// The generated catalog.
    pub library: Library,
    /// Per-server object stores.
    pub stores: BTreeMap<ServerId, ObjectStore>,
    /// The distributed metadata engine.
    pub engine: MetadataEngine,
}

impl Testbed {
    /// Builds the deployment: generate the catalog, replicate it, sample
    /// QoS profiles.
    pub fn build(config: TestbedConfig) -> Self {
        let library = Library::generate(config.seed, &config.library);
        let mut stores = BTreeMap::new();
        for s in ServerId::first_n(config.servers) {
            stores.insert(s, ObjectStore::new(s, 1 << 42));
        }
        let mut engine = MetadataEngine::new(ServerId::first_n(config.servers));
        ReplicationPlanner::new(QosSampler { cost: config.cost }, config.placement)
            .replicate(&library, &mut stores, &mut engine)
            .expect("testbed replication fits");
        Testbed { config, library, stores, engine }
    }

    /// Returns the cached deployment for `config`, building it on first
    /// use, so every experiment that sweeps N system-variants over one
    /// deployment pays for the build once instead of N times. Most of a
    /// build is offline replication (library generation is under a tenth
    /// of it at 100 servers; `crates/bench/examples/testbed_build.rs`
    /// times the phases). `build` is a pure function of the config, so the
    /// cached instance is bit-identical to a private build; the cache is
    /// process-wide and never evicts (experiment processes use a handful of
    /// configs at most).
    pub fn shared(config: TestbedConfig) -> Arc<Testbed> {
        let key = format!("{config:?}");
        if let Some(tb) = shared_cache().lock().expect("testbed cache poisoned").get(&key) {
            return Arc::clone(tb);
        }
        // Build outside the lock: concurrent scenario threads building
        // *different* configs must not serialize on one global mutex. Two
        // racers on the same key build twice; the first insert wins and the
        // loser's copy is dropped (identical contents either way).
        let built = Arc::new(Testbed::build(config));
        let mut cache = shared_cache().lock().expect("testbed cache poisoned");
        Arc::clone(cache.entry(key).or_insert(built))
    }

    /// A fresh Composite QoS API sized to this deployment.
    pub fn qos_api(&self) -> CompositeQosApi {
        CompositeQosApi::homogeneous_cluster(
            self.servers(),
            self.config.link_capacity_bps as f64,
            self.config.disk_bps,
            self.config.memory_bytes,
        )
    }

    /// A fresh Quality Manager with the chosen cost model.
    pub fn quality_manager(&self, cost: CostKind) -> QualityManager {
        self.quality_manager_with(
            cost,
            GeneratorConfig { cost: self.config.cost, ..GeneratorConfig::default() },
        )
    }

    /// A fresh Quality Manager with an explicit generator configuration
    /// (e.g. local-only planning for placement studies).
    pub fn quality_manager_with(
        &self,
        cost: CostKind,
        generator: GeneratorConfig,
    ) -> QualityManager {
        QualityManager::new(self.qos_api(), PlanGenerator::new(generator), cost.build())
    }

    /// The server ids of this deployment.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> {
        ServerId::first_n(self.config.servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_testbed_matches_paper() {
        let tb = Testbed::build(TestbedConfig::default());
        assert_eq!(tb.library.len(), 15);
        assert_eq!(tb.stores.len(), 3);
        // Full replication: each store holds every tier of every video.
        let total_tiers: usize = tb.library.entries().iter().map(|e| e.replicas.len()).sum();
        for store in tb.stores.values() {
            assert_eq!(store.object_count(), total_tiers);
        }
        assert_eq!(tb.engine.object_count(), total_tiers * 3);
    }

    #[test]
    fn qos_api_has_capacity() {
        let tb = Testbed::build(TestbedConfig::default());
        let api = tb.qos_api();
        assert_eq!(api.buckets().count(), 12);
    }

    #[test]
    fn shared_testbed_is_cached_per_config() {
        let base = TestbedConfig::default();
        let a = Testbed::shared(base.clone());
        let b = Testbed::shared(base.clone());
        assert!(Arc::ptr_eq(&a, &b), "equal configs must share one build");
        // Every field changed once, nested ones included, must get a build
        // of its own; `disk_bps` moves by one ulp.
        let library = |edit: fn(&mut LibraryConfig)| {
            let mut c = base.clone();
            edit(&mut c.library);
            c
        };
        let cost = |edit: fn(&mut DeliveryCostModel)| {
            let mut c = base.clone();
            edit(&mut c.cost);
            c
        };
        let variants = [
            TestbedConfig { seed: 7, ..base.clone() },
            TestbedConfig { servers: 4, ..base.clone() },
            TestbedConfig { link_capacity_bps: 3_000_000, ..base.clone() },
            TestbedConfig { disk_bps: f64::from_bits(base.disk_bps.to_bits() + 1), ..base.clone() },
            TestbedConfig { memory_bytes: 256e6, ..base.clone() },
            library(|l| l.num_videos = 14),
            library(|l| l.min_duration = SimDuration::from_secs(31)),
            library(|l| l.max_duration = SimDuration::from_secs(600)),
            library(|l| l.min_replicas = 4),
            library(|l| l.max_replicas = 3),
            TestbedConfig { placement: Placement::RoundRobin, ..base.clone() },
            TestbedConfig { placement: Placement::Spread { copies: 2 }, ..base.clone() },
            TestbedConfig { placement: Placement::Spread { copies: 3 }, ..base.clone() },
            cost(|c| c.stream_cpu_us_per_byte = 0.2),
            cost(|c| c.stream_cpu_us_per_frame = 300.0),
            cost(|c| c.buffer_seconds = 1.0),
            cost(|c| c.transcode.decode_us_per_mpx = 5_000.0),
            cost(|c| c.transcode.encode_us_per_mpx = 10_000.0),
            cost(|c| c.reservation_headroom = 1.2),
        ];
        let mut seen = vec![a.clone()];
        for config in variants {
            let tb = Testbed::shared(config.clone());
            assert!(seen.iter().all(|s| !Arc::ptr_eq(s, &tb)), "{config:?} aliased");
            seen.push(tb);
        }
        // The cached instance matches a private build of the same config.
        let fresh = Testbed::build(TestbedConfig::default());
        assert_eq!(a.library.len(), fresh.library.len());
        assert_eq!(a.engine.object_count(), fresh.engine.object_count());
    }

    /// The ISSUE acceptance scenario: a hundred-server, ten-thousand-video
    /// deployment must be constructible (spread placement keeps the
    /// replica count linear in the catalog) and must admit queries
    /// end-to-end through the Quality Manager.
    #[test]
    fn hundred_server_ten_thousand_video_testbed_builds_and_admits() {
        let tb = Testbed::build(TestbedConfig::scale(100, 10_000));
        assert_eq!(tb.library.len(), 10_000);
        assert_eq!(tb.stores.len(), 100);
        let total_tiers: usize = tb.library.entries().iter().map(|e| e.replicas.len()).sum();
        // Three copies per tier, not tiers x 100.
        assert_eq!(tb.engine.object_count(), total_tiers * 3);
        let mut manager = tb.quality_manager(CostKind::Lrb);
        let mut rng = quasaq_sim::Rng::new(17);
        let profile = quasaq_core::UserProfile::new("scale");
        let mut admitted = 0;
        for v in [0u32, 4_999, 9_999] {
            let qop = crate::traffic::random_qop(&mut rng);
            let request = quasaq_core::PlanRequest {
                video: quasaq_media::VideoId(v),
                qos: profile.translate(&qop),
                security: quasaq_core::QopSecurity::Open,
            };
            if manager.process(&tb.engine, &request, &mut rng).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3, "an idle hundred-server cluster admits everything");
    }

    #[test]
    fn managers_use_selected_model() {
        let tb = Testbed::build(TestbedConfig::default());
        for kind in [
            CostKind::Lrb,
            CostKind::Random,
            CostKind::MinBitrate,
            CostKind::WeightedSum,
            CostKind::Utility,
        ] {
            let m = tb.quality_manager(kind);
            assert!(!m.cost_model_name().is_empty());
        }
        assert_eq!(CostKind::Lrb.label(), "LRB");
    }

    /// FNV-1a over everything formatted into it.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }

    /// Digest of a built catalog: every video's replica records in
    /// registration order, the record behind every OID, and each store's
    /// objects in OID order with its used bytes.
    fn catalog_digest(tb: &Testbed) -> u64 {
        use std::fmt::Write;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for meta in tb.engine.videos() {
            write!(h, "{:?};{:?};", meta.id, tb.engine.replicas(meta.id)).unwrap();
        }
        let max = tb.engine.max_oid().expect("a built catalog holds objects").0;
        for oid in (0..=max + 1).map(quasaq_store::PhysicalOid) {
            write!(h, "{:?};", tb.engine.record(oid)).unwrap();
        }
        for (server, store) in &tb.stores {
            write!(h, "{server:?}:{};", store.used_bytes()).unwrap();
            for object in store.objects() {
                write!(h, "{object:?};").unwrap();
            }
        }
        h.0
    }

    /// The catalog load is pinned at its source: these digests were
    /// recorded from the B-tree-indexed engine and stores, so any change
    /// to OID allocation, registration order or store contents shows here
    /// before it shows in a run's decisions.
    #[test]
    fn built_catalogs_match_their_recorded_digests() {
        let paper = Testbed::build(TestbedConfig::default());
        assert_eq!(catalog_digest(&paper), 0x5b38_c652_90e4_a6c5, "TestbedConfig::default()");
        // The `admit_lrb100` deployment.
        let hundred = Testbed::build(TestbedConfig::scale_short(100, 10_000));
        assert_eq!(
            catalog_digest(&hundred),
            0x301b_7303_85d6_54f9,
            "100 servers, 10,000 short clips"
        );
    }
}
