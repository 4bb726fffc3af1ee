//! Static greedy baseline: cheapest delivered bandwidth first.
//!
//! Unlike LRB this ignores the live system state entirely — it is the
//! "static cost estimate" strawman the paper argues against, included for
//! the cost-model ablation.

use super::{rank_by_score, CostModel};
use crate::plan::Plan;
use quasaq_qosapi::CompositeQosApi;
use quasaq_sim::Rng;

/// Ranks plans by delivered bytes/second, ascending.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinBitrateModel;

impl CostModel for MinBitrateModel {
    fn name(&self) -> &'static str {
        "min-bitrate"
    }

    fn rank(&self, plans: &[Plan], _api: &CompositeQosApi, _rng: &mut Rng) -> Vec<usize> {
        let scores: Vec<f64> = plans.iter().map(|p| p.delivered_bps).collect();
        rank_by_score(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::plan_on;
    use super::*;
    use quasaq_sim::ServerId;

    #[test]
    fn orders_by_bandwidth() {
        let plans = vec![plan_on(0, 193_000), plan_on(1, 7_000), plan_on(2, 48_000)];
        let api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        let order = MinBitrateModel.rank(&plans, &api, &mut Rng::new(1));
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ignores_system_state() {
        use quasaq_qosapi::{ResourceKey, ResourceKind, ResourceVector};
        let mut api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        // Saturate server 1 — min-bitrate still picks it (its flaw).
        api.reserve(
            &ResourceVector::new()
                .with(ResourceKey::new(ServerId(1), ResourceKind::NetBandwidth), 3_000_000.0),
        )
        .unwrap();
        let plans = vec![plan_on(0, 48_000), plan_on(1, 7_000)];
        let order = MinBitrateModel.rank(&plans, &api, &mut Rng::new(1));
        assert_eq!(order[0], 1);
    }
}
