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

    /// Ranks only the plans named by `subset` (indices into `plans`, in
    /// subset order), returning those same indices most-preferred first.
    ///
    /// Contract — this is what makes cached admission bit-identical to
    /// uncached: the result, and every RNG draw made along the way, must
    /// equal `rank` run on the compacted list `subset.map(|i| plans[i])`
    /// with each returned position mapped back through `subset`. Positional
    /// tie-breaks therefore break ties by *subset position*, exactly as the
    /// compacted list would. The default implementation does literally
    /// that (clone + delegate); models override it to skip the clone.
    fn rank_subset(
        &self,
        plans: &[Plan],
        subset: &[usize],
        api: &CompositeQosApi,
        rng: &mut Rng,
    ) -> Vec<usize> {
        let compact: Vec<Plan> = subset.iter().map(|&i| plans[i].clone()).collect();
        self.rank(&compact, api, rng).into_iter().map(|j| subset[j]).collect()
    }
}

/// Ranks indices ascending by a score (stable on ties), a helper shared
/// by the score-based models.
pub(crate) fn rank_by_score(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    idx
}

/// Subset flavor of [`rank_by_score`]: `scores[j]` scores plan
/// `subset[j]`; ties break by subset position, matching what ranking the
/// compacted plan list would produce.
pub(crate) fn rank_subset_by_score(subset: &[usize], scores: &[f64]) -> Vec<usize> {
    debug_assert_eq!(subset.len(), scores.len());
    rank_by_score(scores).into_iter().map(|j| subset[j]).collect()
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

    #[test]
    fn rank_subset_matches_compacted_rank_for_every_model() {
        use super::testutil::plan_on;
        use crate::qop::QosWeights;
        use quasaq_qosapi::{ResourceKey, ResourceKind, ResourceVector};
        use quasaq_sim::{Rng, ServerId};

        let mut api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        // Uneven load so state-aware models have real preferences.
        api.reserve(
            &ResourceVector::new()
                .with(ResourceKey::new(ServerId(1), ResourceKind::NetBandwidth), 2_000_000.0),
        )
        .unwrap();
        let plans: Vec<Plan> =
            (0..9).map(|i| plan_on(i % 3, 7_000 + 40_000 * (i as u64 % 4))).collect();
        let models: Vec<Box<dyn CostModel>> = vec![
            Box::new(LrbModel),
            Box::new(RandomModel),
            Box::new(MinBitrateModel),
            Box::new(WeightedSumModel::default()),
            Box::new(EfficiencyModel::new(ThroughputGain)),
            Box::new(EfficiencyModel::new(UtilityGain { weights: QosWeights::default() })),
        ];
        for subset in [vec![0, 2, 4, 5, 8], vec![3], vec![], (0..plans.len()).collect()] {
            let compact: Vec<Plan> = subset.iter().map(|&i| plans[i].clone()).collect();
            for model in &models {
                // Identical seeds: the subset path must draw the same
                // stream as ranking the compacted list.
                let mut rng_a = Rng::new(42);
                let mut rng_b = Rng::new(42);
                let via_subset = model.rank_subset(&plans, &subset, &api, &mut rng_a);
                let via_compact: Vec<usize> =
                    model.rank(&compact, &api, &mut rng_b).into_iter().map(|j| subset[j]).collect();
                assert_eq!(via_subset, via_compact, "model {}", model.name());
                assert_eq!(rng_a.below(1 << 30), rng_b.below(1 << 30), "RNG streams diverged");
            }
        }
    }
}
