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
use quasaq_media::QualitySpec;
use quasaq_qosapi::{CompositeQosApi, ResourceKey};
use quasaq_sim::Rng;
use std::cmp::Ordering;

/// What a cost model reads of one candidate plan, built or not.
#[derive(Clone, Copy)]
pub struct PlanView<'a> {
    /// Eq. (1): the largest bucket fill if the plan were admitted,
    /// [`CompositeQosApi::max_fill_with`] of its resources.
    pub max_fill: f64,
    /// The application QoS delivered to the client.
    pub delivered: &'a QualitySpec,
    /// Mean delivered bandwidth in bytes/second.
    pub delivered_bps: f64,
    /// The plan's resource demand: distinct keys, zero amounts allowed (a
    /// resource vector drops them), in bucket order or else five entries,
    /// as an enumerated candidate has.
    pub demand: &'a [(ResourceKey, f64)],
    /// The resource state the plan is scored against.
    pub api: &'a CompositeQosApi,
}

impl<'a> PlanView<'a> {
    /// The view of a built plan against `api`.
    pub(crate) fn of(plan: &'a Plan, api: &'a CompositeQosApi) -> Self {
        let demand = plan.resources.entries();
        let (max_fill, delivered) = (api.project(demand).max_fill, &plan.delivered);
        PlanView { max_fill, delivered, delivered_bps: plan.delivered_bps, demand, api }
    }
}

/// Orders candidate plans for execution.
pub trait CostModel: Send {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// The plan's cost under the view's resource state: lower is better,
    /// and ties go to the plan enumerated first.
    fn score(&self, plan: &PlanView<'_>) -> f64;

    /// Runs on the `(score, enumeration index)` entries of the plans to be
    /// ranked, in no particular order, before the order is taken. A model
    /// whose order is a draw shuffles them here, scores each by its drawn
    /// position and returns `true`: the scores changed. Its draw must not
    /// depend on the order it is handed. A scoring model draws nothing and
    /// keeps its scores (the default, `false`).
    fn reorder(&self, _scored: &mut [(f64, usize)], _rng: &mut Rng) -> bool {
        false
    }

    /// A floor under the score of every plan whose Eq. (1) `max_fill` is
    /// at least `max_fill_floor`, under [`f64::total_cmp`]; `None` (the
    /// default) when the score has none. Admission uses it to skip the
    /// candidates that cannot rank first: with a floor it scores the
    /// plans side by side in ascending floor order and stops at the first
    /// side whose floor exceeds the best score found. A model with a floor
    /// returns one for every fill, and keeps `reorder`'s default: its
    /// scores are what it ranks by.
    fn score_floor(&self, _max_fill_floor: f64) -> Option<f64> {
        None
    }

    /// Returns plan indices, most preferred first, evaluated against the
    /// current resource state in `api`.
    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, rng: &mut Rng) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> =
            plans.iter().map(|plan| self.score(&PlanView::of(plan, api))).zip(0..).collect();
        self.reorder(&mut scored, rng);
        scored.sort_unstable_by(by_rank);
        scored.into_iter().map(|(_, i)| i).collect()
    }
}

/// The rank order of `(score, enumeration index)` entries: ascending
/// score under [`f64::total_cmp`], ties by index.
pub(crate) fn by_rank(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::{CostModel, PlanView};
    use crate::plan::Plan;
    use quasaq_media::{
        CipherAlgo, ColorDepth, DeliveryCostModel, DropStrategy, FrameRate, GopPattern,
        QualitySpec, Resolution, VideoFormat, VideoId,
    };
    use quasaq_qosapi::CompositeQosApi;
    use quasaq_sim::ServerId;
    use quasaq_store::{ObjectRecord, PhysicalObject, PhysicalOid, QosProfile};

    /// `model`'s score of `plan` against `api`'s current state.
    pub fn score_of(model: &dyn CostModel, plan: &Plan, api: &CompositeQosApi) -> f64 {
        model.score(&PlanView::of(plan, api))
    }

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
