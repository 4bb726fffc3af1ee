//! The randomized baseline cost model.
//!
//! "We compare the throughput of two QuaSAQ systems using different cost
//! models: one with LRB and one with a simple randomized algorithm. The
//! latter randomly selects one execution plan from the search space. The
//! randomized approach is a frequently-used query optimization strategy
//! with fair performance."

use super::CostModel;
use crate::plan::Plan;
use quasaq_qosapi::CompositeQosApi;
use quasaq_sim::Rng;

/// Uniform-random plan choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomModel;

impl CostModel for RandomModel {
    fn name(&self) -> &'static str {
        "random"
    }

    fn rank(&self, plans: &[Plan], _api: &CompositeQosApi, rng: &mut Rng) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..plans.len()).collect();
        rng.shuffle(&mut idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::plan_on;
    use super::*;
    use quasaq_sim::ServerId;

    #[test]
    fn returns_a_permutation() {
        let plans: Vec<Plan> = (0..8).map(|i| plan_on(i % 3, 40_000 + i as u64)).collect();
        let api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        let mut rng = Rng::new(5);
        let order = RandomModel.rank(&plans, &api, &mut rng);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn different_draws_differ() {
        let plans: Vec<Plan> = (0..10).map(|i| plan_on(i % 3, 40_000)).collect();
        let api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        let mut rng = Rng::new(6);
        let a = RandomModel.rank(&plans, &api, &mut rng);
        let b = RandomModel.rank(&plans, &api, &mut rng);
        assert_ne!(a, b);
    }
}
