//! The configurable optimizer: cost efficiency `E = G / C(r)`.
//!
//! "We then evaluate plans by their cost efficiency … where C is the cost
//! function, r the resource vector of the plan being evaluated, and G the
//! gain of servicing the query following the plan of interest. An optimal
//! plan is the one with the highest cost efficiency. The generation of
//! the G value of a plan depends on the optimization goal used. For
//! instance, a utility function can be used when our goal is to maximize
//! the satisfiability of user perception of media streams."
//!
//! The paper defers the full configurable optimizer to future work; this
//! module implements it as an extension: any [`Gain`] over delivered
//! quality composes with the LRB cost into a ranking model.

use super::{CostModel, LrbModel};
use crate::plan::Plan;
use crate::qop::QosWeights;
use quasaq_media::Resolution;
use quasaq_qosapi::CompositeQosApi;
use quasaq_sim::Rng;

/// A gain function over a plan's delivered quality.
pub trait Gain: Send {
    /// Gain name for reports.
    fn name(&self) -> &'static str;
    /// The gain of servicing a query with this plan (> 0).
    fn gain(&self, plan: &Plan) -> f64;
}

/// Throughput goal: every serviced query is worth the same, so the model
/// degenerates to pure cost minimization (the paper's LRB behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputGain;

impl Gain for ThroughputGain {
    fn name(&self) -> &'static str {
        "throughput"
    }

    fn gain(&self, _plan: &Plan) -> f64 {
        1.0
    }
}

/// Perceptual-utility goal: richer delivered quality is worth more, with
/// per-user dimension weights (the [`QosWeights`] of the User Profile).
#[derive(Debug, Clone, Copy)]
pub struct UtilityGain {
    /// Per-dimension importance.
    pub weights: QosWeights,
}

impl UtilityGain {
    /// Utility of a delivered quality in `(0, 1]`: a weighted geometric
    /// mean of each dimension normalized to its full-quality reference.
    pub fn utility(&self, plan: &Plan) -> f64 {
        let q = &plan.delivered;
        let res = (q.resolution.pixels() as f64 / Resolution::FULL.pixels() as f64).min(1.0);
        let fps = (q.frame_rate.fps() / 30.0).min(1.0);
        let color = (q.color.bits() as f64 / 24.0).min(1.0);
        let w = self.weights;
        let total_w = (w.resolution + w.frame_rate + w.color).max(1e-9);
        (res.max(1e-6).powf(w.resolution)
            * fps.max(1e-6).powf(w.frame_rate)
            * color.max(1e-6).powf(w.color))
        .powf(1.0 / total_w)
    }
}

impl Gain for UtilityGain {
    fn name(&self) -> &'static str {
        "utility"
    }

    fn gain(&self, plan: &Plan) -> f64 {
        self.utility(plan)
    }
}

/// Ranks plans by descending `E = G / C(r)` with `C` the LRB cost under
/// the live resource state.
pub struct EfficiencyModel<G: Gain> {
    gain: G,
}

impl<G: Gain> EfficiencyModel<G> {
    /// Creates a model with the given gain function.
    pub fn new(gain: G) -> Self {
        EfficiencyModel { gain }
    }

    /// The efficiency of one plan.
    pub fn efficiency(&self, plan: &Plan, api: &CompositeQosApi) -> f64 {
        let cost = LrbModel.cost(plan, api).max(1e-9);
        self.gain.gain(plan) / cost
    }
}

impl<G: Gain> CostModel for EfficiencyModel<G> {
    fn name(&self) -> &'static str {
        "efficiency"
    }

    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, _rng: &mut Rng) -> Vec<usize> {
        let scores: Vec<f64> = plans.iter().map(|p| self.efficiency(p, api)).collect();
        let mut idx: Vec<usize> = (0..plans.len()).collect();
        // Descending: highest efficiency wins.
        idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::plan_on;
    use super::*;
    use quasaq_media::{ColorDepth, FrameRate, QualitySpec, Resolution, VideoFormat};
    use quasaq_sim::ServerId;

    fn cluster() -> CompositeQosApi {
        CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6)
    }

    #[test]
    fn throughput_gain_matches_lrb_order() {
        let api = cluster();
        let plans = vec![plan_on(0, 193_000), plan_on(1, 48_000), plan_on(2, 7_000)];
        let mut rng = Rng::new(1);
        let lrb = LrbModel.rank(&plans, &api, &mut rng);
        let eff = EfficiencyModel::new(ThroughputGain).rank(&plans, &api, &mut rng);
        assert_eq!(lrb, eff);
    }

    #[test]
    fn utility_prefers_richer_quality_at_equal_cost() {
        let api = cluster();
        let mut rich = plan_on(0, 48_000);
        rich.delivered = QualitySpec::new(
            Resolution::FULL,
            ColorDepth::TRUE_COLOR,
            FrameRate::NTSC_FILM,
            VideoFormat::Mpeg1,
        );
        let mut poor = plan_on(1, 48_000);
        poor.delivered = QualitySpec::new(
            Resolution::QCIF,
            ColorDepth::PALETTE,
            FrameRate::LOW,
            VideoFormat::Mpeg1,
        );
        let plans = vec![poor, rich];
        let order = EfficiencyModel::new(UtilityGain { weights: QosWeights::default() }).rank(
            &plans,
            &api,
            &mut Rng::new(1),
        );
        assert_eq!(order[0], 1);
    }

    #[test]
    fn utility_bounds() {
        let g = UtilityGain { weights: QosWeights::default() };
        let mut full = plan_on(0, 300_000);
        full.delivered = QualitySpec::new(
            Resolution::FULL,
            ColorDepth::TRUE_COLOR,
            FrameRate::NTSC,
            VideoFormat::Mpeg2,
        );
        let u = g.utility(&full);
        assert!((0.9..=1.0).contains(&u), "utility {u}");
        let mut tiny = plan_on(0, 7_000);
        tiny.delivered = QualitySpec::new(
            Resolution::QCIF,
            ColorDepth::PALETTE,
            FrameRate::LOW,
            VideoFormat::Mpeg1,
        );
        assert!(g.utility(&tiny) < u);
    }

    #[test]
    fn weights_tilt_the_utility() {
        let mut high_fps = plan_on(0, 48_000);
        high_fps.delivered = QualitySpec::new(
            Resolution::QCIF,
            ColorDepth::TRUE_COLOR,
            FrameRate::NTSC,
            VideoFormat::Mpeg1,
        );
        let mut high_res = plan_on(0, 48_000);
        high_res.delivered = QualitySpec::new(
            Resolution::FULL,
            ColorDepth::TRUE_COLOR,
            FrameRate::LOW,
            VideoFormat::Mpeg1,
        );
        let motion_lover =
            UtilityGain { weights: QosWeights { resolution: 0.1, frame_rate: 5.0, color: 0.1 } };
        let pixel_lover =
            UtilityGain { weights: QosWeights { resolution: 5.0, frame_rate: 0.1, color: 0.1 } };
        assert!(motion_lover.utility(&high_fps) > motion_lover.utility(&high_res));
        assert!(pixel_lover.utility(&high_res) > pixel_lover.utility(&high_fps));
    }
}
