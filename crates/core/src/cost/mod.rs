//! Runtime cost evaluation of QoS-aware plans.
//!
//! "Unlike the static cost estimates in traditional D-DBMS, it is
//! critical that the costs under current system status … be factored into
//! the choice of an acceptable plan." A [`CostModel`] orders candidate
//! plans best-first given the live resource state; the Runtime Cost
//! Evaluator then walks that order and "the first plan in this order that
//! satisfies the QoS requirements is used to service the query."
//!
//! Models provided:
//! * [`LrbModel`] — the paper's Lowest Resource Bucket model (Eq. 1).
//! * [`RandomModel`] — the paper's baseline: "a simple randomized
//!   algorithm … randomly selects one execution plan from the search
//!   space."
//! * [`MinBitrateModel`] — a static greedy baseline (cheapest delivered
//!   bandwidth first), for ablations.
//! * [`WeightedSumModel`] — sum of bucket fills instead of the max, for
//!   ablations.
//! * [`EfficiencyModel`] — the configurable-optimizer extension: ranks by
//!   cost efficiency `E = G / C(r)` with a pluggable gain function.

mod efficiency;
mod lrb;
mod minbitrate;
mod random;
mod weighted;

pub use efficiency::{EfficiencyModel, Gain, ThroughputGain, UtilityGain};
pub use lrb::LrbModel;
pub use minbitrate::MinBitrateModel;
pub use random::RandomModel;
pub use weighted::WeightedSumModel;

use crate::plan::Plan;
use quasaq_qosapi::CompositeQosApi;
use quasaq_sim::Rng;

/// Orders candidate plans for execution.
pub trait CostModel: Send {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Returns plan indices, most preferred first, evaluated against the
    /// current resource state in `api`.
    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, rng: &mut Rng) -> Vec<usize>;

    /// Whether `rank` orders plans by ascending
    /// [`CompositeQosApi::max_fill_with`] of their resources alone, ties
    /// by position, drawing no randomness. The Quality Manager then admits
    /// without building the plan space: it scores every candidate in place
    /// and builds only the plan it reserves.
    fn ranks_by_max_fill(&self) -> bool {
        false
    }
}

/// Ranks indices ascending by a score (stable on ties), a helper shared
/// by the score-based models.
pub(crate) fn rank_by_score(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    idx
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::plan::Plan;
    use quasaq_media::{
        CipherAlgo, ColorDepth, DeliveryCostModel, DropStrategy, FrameRate, GopPattern,
        QualitySpec, Resolution, VideoFormat, VideoId,
    };
    use quasaq_sim::ServerId;
    use quasaq_store::{ObjectRecord, PhysicalObject, PhysicalOid, QosProfile};

    /// A simple local plan on `server` delivering at `rate_bps`.
    pub fn plan_on(server: u32, rate_bps: u64) -> Plan {
        let spec = QualitySpec::new(
            Resolution::CIF,
            ColorDepth::TRUE_COLOR,
            FrameRate::NTSC_FILM,
            VideoFormat::Mpeg1,
        );
        let record = ObjectRecord {
            object: PhysicalObject {
                oid: PhysicalOid(server as u64 * 1000 + rate_bps % 1000),
                video: VideoId(0),
                tier: "dsl",
                spec,
                rate_bps,
                bytes: 1_000_000,
                server: ServerId(server),
                trace_seed: 1,
            },
            profile: QosProfile::ZERO,
        };
        let gop = GopPattern::mpeg1_n15();
        let cost = DeliveryCostModel::default();
        let (resources, delivered_bps) = Plan::compute_resources(
            &record,
            ServerId(server),
            &gop,
            None,
            DropStrategy::None,
            CipherAlgo::None,
            &cost,
        );
        Plan {
            object: record,
            target_server: ServerId(server),
            drop: DropStrategy::None,
            transcode: None,
            cipher: CipherAlgo::None,
            delivered: spec,
            delivered_bps,
            resources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_by_score_is_stable_ascending() {
        let order = rank_by_score(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }
}
