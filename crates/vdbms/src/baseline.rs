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
//! execution is done by the `quasaq-stream` engines.

use quasaq_media::VideoId;
use quasaq_sim::{Rng, ServerId};
use quasaq_store::{MetadataEngine, ObjectRecord};

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
        self.select_avoiding(engine, video, rng, &std::collections::BTreeSet::new())
    }

    /// Like [`select`](Self::select), but never picks a server in
    /// `exclude` (crashed sites). With an empty exclusion set this is
    /// `select` exactly, including its RNG consumption — one `index` draw
    /// over the same candidate list — so fault-free runs stay
    /// bit-identical.
    pub fn select_avoiding(
        &self,
        engine: &MetadataEngine,
        video: VideoId,
        rng: &mut Rng,
        exclude: &std::collections::BTreeSet<ServerId>,
    ) -> Option<BaselineChoice> {
        let replicas = engine.replicas(video);
        let live = || replicas.iter().filter(|r| !exclude.contains(&r.object.server));
        let best_rate = live().map(|r| r.object.rate_bps).max()?;
        let candidates = || live().filter(|r| r.object.rate_bps == best_rate);
        let pick = candidates().nth(rng.index(candidates().count()))?;
        Some(BaselineChoice {
            record: pick.clone(),
            server: pick.object.server,
            reserve: self.kind == BaselineKind::WithQosApi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{Library, LibraryConfig};
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
    fn select_avoiding_skips_crashed_servers() {
        let e = engine();
        let planner = BaselinePlanner::new(BaselineKind::Plain);
        let down: std::collections::BTreeSet<ServerId> = [ServerId(0)].into();
        let mut rng = Rng::new(4);
        for _ in 0..50 {
            let c = planner.select_avoiding(&e, VideoId(1), &mut rng, &down).unwrap();
            assert_ne!(c.server, ServerId(0));
        }
        // Every replica down: nothing to stream.
        let all: std::collections::BTreeSet<ServerId> = ServerId::first_n(3).collect();
        assert!(planner.select_avoiding(&e, VideoId(1), &mut rng, &all).is_none());
        // Empty exclusion is `select` exactly, draw for draw.
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..20 {
            let lhs = planner.select(&e, VideoId(1), &mut a).unwrap();
            let rhs = planner
                .select_avoiding(&e, VideoId(1), &mut b, &std::collections::BTreeSet::new())
                .unwrap();
            assert_eq!(lhs, rhs);
        }
    }
}
