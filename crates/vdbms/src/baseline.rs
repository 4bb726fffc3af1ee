//! Baseline delivery policies: plain VDBMS and VDBMS + QoS API.
//!
//! The paper's throughput comparison (Fig 6) runs three systems:
//!
//! * **VDBMS** — no QoS control at all: every request is admitted, the
//!   original (highest-quality) object is streamed best-effort.
//! * **VDBMS + QoS API** — "a VDBMS enhanced with QoS APIs … The
//!   streaming sessions in this system are of the same (high) quality as
//!   those in QuaSAQ": admission control and reservation exist, but there
//!   is no QoS-specific replication or cost-based planning, so the
//!   full-quality replica is always served.
//! * **VDBMS + QuaSAQ** — the full system (in `quasaq-core`).
//!
//! This module implements the first two as replica-selection policies;
//! execution is done by the `quasaq-stream` engines. Selection reads the
//! metadata engine's top-rate table ([`MetadataEngine::top_replicas`]),
//! not the replica records: only when every top-rate copy sits on an
//! excluded (crashed) server does it scan the records for the best live
//! rate.

use quasaq_media::VideoId;
use quasaq_sim::{Rng, ServerId};
use quasaq_store::{MetadataEngine, ObjectRecord, TopReplica};
use std::collections::BTreeSet;

/// Which baseline stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Plain VDBMS: no admission control, best-effort delivery.
    Plain,
    /// VDBMS with the QoS API: reservation-based delivery of the
    /// full-quality object.
    WithQosApi,
}

/// A baseline's delivery decision for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineChoice {
    /// The replica to stream.
    pub record: ObjectRecord,
    /// The serving node.
    pub server: ServerId,
    /// Whether resources must be reserved (admission-controlled).
    pub reserve: bool,
}

/// Replica selection for the baseline systems.
#[derive(Debug, Clone, Copy)]
pub struct BaselinePlanner {
    kind: BaselineKind,
}

impl BaselinePlanner {
    /// Creates a planner for the given baseline.
    pub fn new(kind: BaselineKind) -> Self {
        BaselinePlanner { kind }
    }

    /// The baseline's kind.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Chooses what to stream for `video`: always the highest-quality
    /// replica (neither baseline understands QoS-specific replication),
    /// on a uniformly random server holding it (neither has a cost
    /// model).
    pub fn select(
        &self,
        engine: &MetadataEngine,
        video: VideoId,
        rng: &mut Rng,
    ) -> Option<BaselineChoice> {
        let pick = self.pick(engine, video, rng, &BTreeSet::new())?;
        Some(BaselineChoice {
            record: engine.replicas(video)[pick.position as usize].clone(),
            server: pick.server,
            reserve: self.kind == BaselineKind::WithQosApi,
        })
    }

    /// The replica to stream for `video` on a server outside `exclude`
    /// (crashed sites), as its top-rate table entry: one `index` draw over
    /// the live copies at the video's highest rate. Only when every one of
    /// them is excluded does it read the records, drawing the same way over
    /// the live copies at the best rate left (its `rate_bps` is then that
    /// rate). `None`, with no draw, when no live replica exists. With an
    /// empty `exclude` this is [`select`](Self::select)'s choice, draw for
    /// draw.
    pub fn pick(
        &self,
        engine: &MetadataEngine,
        video: VideoId,
        rng: &mut Rng,
        exclude: &BTreeSet<ServerId>,
    ) -> Option<TopReplica> {
        let live = |server: &ServerId| !exclude.contains(server);
        let top = engine.top_replicas(video).iter().filter(|t| live(&t.server));
        if let Some(&pick) = draw(top, rng) {
            return Some(pick);
        }
        let records = engine.replicas(video).iter().enumerate();
        let records = records.filter(|(_, r)| live(&r.object.server));
        let best = records.clone().map(|(_, r)| r.object.rate_bps).max()?;
        let (position, record) = draw(records.filter(|(_, r)| r.object.rate_bps == best), rng)?;
        Some(TopReplica::of(position, record))
    }
}

/// A uniform choice among `candidates`: one `index` draw, or none (and
/// `None`) when there is no candidate.
fn draw<T>(mut candidates: impl Iterator<Item = T> + Clone, rng: &mut Rng) -> Option<T> {
    match candidates.clone().count() {
        0 => None,
        n => candidates.nth(rng.index(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quasaq_media::{
        ColorDepth, FrameRate, Library, LibraryConfig, QualitySpec, Resolution, VideoFormat,
    };
    use quasaq_store::{
        ObjectStore, PhysicalObject, PhysicalOid, Placement, QosProfile, QosSampler,
        ReplicationPlanner,
    };
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

    #[test]
    fn both_baselines_pick_the_full_tier() {
        let e = engine();
        let mut rng = Rng::new(1);
        for kind in [BaselineKind::Plain, BaselineKind::WithQosApi] {
            let choice = BaselinePlanner::new(kind).select(&e, VideoId(0), &mut rng).unwrap();
            assert_eq!(choice.record.object.tier, "full");
            assert_eq!(choice.reserve, kind == BaselineKind::WithQosApi);
        }
    }

    #[test]
    fn server_choice_spreads_under_full_replication() {
        let e = engine();
        let mut rng = Rng::new(2);
        let planner = BaselinePlanner::new(BaselineKind::Plain);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let c = planner.select(&e, VideoId(1), &mut rng).unwrap();
            seen.insert(c.server);
        }
        assert_eq!(seen.len(), 3, "all servers should be used: {seen:?}");
    }

    #[test]
    fn unknown_video_yields_none() {
        let e = engine();
        let mut rng = Rng::new(3);
        assert!(BaselinePlanner::new(BaselineKind::Plain)
            .select(&e, VideoId(99), &mut rng)
            .is_none());
    }

    #[test]
    fn pick_skips_crashed_servers() {
        let e = engine();
        let planner = BaselinePlanner::new(BaselineKind::Plain);
        let down: BTreeSet<ServerId> = [ServerId(0)].into();
        let mut rng = Rng::new(4);
        for _ in 0..50 {
            let p = planner.pick(&e, VideoId(1), &mut rng, &down).unwrap();
            assert_ne!(p.server, ServerId(0));
        }
        // Every replica down: nothing to stream.
        let all: BTreeSet<ServerId> = ServerId::first_n(3).collect();
        assert!(planner.pick(&e, VideoId(1), &mut rng, &all).is_none());
        // Empty exclusion is `select` exactly, draw for draw.
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..20 {
            let lhs = planner.select(&e, VideoId(1), &mut a).unwrap();
            let rhs = planner.pick(&e, VideoId(1), &mut b, &BTreeSet::new()).unwrap();
            assert_eq!(lhs.server, rhs.server);
            assert_eq!(lhs.record, e.replicas(VideoId(1))[rhs.position as usize]);
        }
        assert_eq!(a, b);
    }

    /// The selection as it was before the top-rate table: three passes over
    /// the video's records (best live rate, count, pick).
    fn three_pass_scan(
        engine: &MetadataEngine,
        video: VideoId,
        rng: &mut Rng,
        exclude: &BTreeSet<ServerId>,
    ) -> Option<ObjectRecord> {
        let replicas = engine.replicas(video);
        let live = || replicas.iter().filter(|r| !exclude.contains(&r.object.server));
        let best_rate = live().map(|r| r.object.rate_bps).max()?;
        let candidates = || live().filter(|r| r.object.rate_bps == best_rate);
        candidates().nth(rng.index(candidates().count())).cloned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random engines (videos registered out of order, tied rates,
        /// failed sites) and exclusion sets, `pick` returns the table entry
        /// of the three-pass scan's choice with the same RNG consumption.
        /// The sets include random ones,
        /// every top-rate copy of the video (a lower tier is chosen), every
        /// server, and none; the videos include unknown ones.
        #[test]
        fn selection_matches_the_three_pass_scan(
            records in prop::collection::vec((0u32..5, 0usize..3, 0u32..5), 0..40),
            failed in 0u32..8,
            masks in prop::collection::vec(0u32..32, 1..6),
            seed in 0u64..1_000,
        ) {
            const RATES: [u64; 3] = [48_000, 96_000, 128_000];
            let mut engine = MetadataEngine::new(ServerId::first_n(5));
            for (oid, &(video, rate, server)) in records.iter().enumerate() {
                let object = PhysicalObject {
                    oid: PhysicalOid(oid as u64),
                    video: VideoId(video),
                    tier: "full",
                    spec: QualitySpec::new(
                        Resolution::CIF,
                        ColorDepth::TRUE_COLOR,
                        FrameRate::NTSC_FILM,
                        VideoFormat::Mpeg1,
                    ),
                    rate_bps: RATES[rate],
                    bytes: 1_000 + oid as u64,
                    server: ServerId(server),
                    trace_seed: oid as u64,
                };
                let profile = QosProfile { cpu_share: oid as f64 / 64.0, ..QosProfile::ZERO };
                engine.insert_object(object, profile).unwrap();
            }
            // Values 5..8 fail no site.
            engine.fail_site(ServerId(failed));
            let planner = BaselinePlanner::new(BaselineKind::WithQosApi);
            let mut a = Rng::new(seed);
            let mut b = Rng::new(seed);
            for video in [0, 1, 2, 3, 4, 5, u32::MAX].map(VideoId) {
                let top: BTreeSet<ServerId> =
                    engine.top_replicas(video).iter().map(|t| t.server).collect();
                let mut sets: Vec<BTreeSet<ServerId>> = masks
                    .iter()
                    .map(|m| ServerId::first_n(5).filter(|s| m >> s.0 & 1 == 1).collect())
                    .collect();
                sets.extend([top, ServerId::first_n(5).collect(), BTreeSet::new()]);
                for exclude in &sets {
                    let want = three_pass_scan(&engine, video, &mut a, exclude);
                    let pick = planner.pick(&engine, video, &mut b, exclude);
                    // The same draws, so the generators' states agree.
                    prop_assert_eq!(&a, &b);
                    let position = want
                        .as_ref()
                        .map(|w| engine.replicas(video).iter().position(|r| r == w).unwrap());
                    let entry = want.as_ref().zip(position).map(|(w, i)| TopReplica::of(i, w));
                    prop_assert_eq!(pick, entry);
                    // And the next draw after this selection is the same.
                    prop_assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        }
    }
}
