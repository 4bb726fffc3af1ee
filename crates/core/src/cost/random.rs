//! The randomized baseline cost model.
//!
//! "We compare the throughput of two QuaSAQ systems using different cost
//! models: one with LRB and one with a simple randomized algorithm. The
//! latter randomly selects one execution plan from the search space. The
//! randomized approach is a frequently-used query optimization strategy
//! with fair performance."

use super::{CostModel, PlanView};
use quasaq_sim::Rng;

/// Uniform-random plan choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomModel;

impl CostModel for RandomModel {
    fn name(&self) -> &'static str {
        "random"
    }

    fn score(&self, _plan: &PlanView<'_>) -> f64 {
        0.0
    }

    /// Shuffles the plans and scores each by its drawn position. The plans
    /// are put in enumeration order first and the shuffle swaps by position
    /// alone, so it draws what shuffling `0..n` draws.
    fn reorder(&self, scored: &mut [(f64, usize)], rng: &mut Rng) -> bool {
        // The indices are distinct and the scores are overwritten below, so
        // a counting sort of the indices puts the entries in enumeration
        // order (a comparison sort of a thousand entries costs several times
        // as much).
        let mut present = vec![false; scored.iter().map(|e| e.1 + 1).max().unwrap_or(0)];
        scored.iter().for_each(|&(_, index)| present[index] = true);
        let ordered = (0..present.len()).filter(|&index| present[index]);
        scored.iter_mut().zip(ordered).for_each(|(entry, index)| entry.1 = index);
        rng.shuffle(scored);
        for (position, entry) in scored.iter_mut().enumerate() {
            entry.0 = position as f64;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::plan_on;
    use super::*;
    use crate::plan::Plan;
    use quasaq_qosapi::CompositeQosApi;
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

    /// Admission hands `reorder` its entries side by side, not in
    /// enumeration order: the draw must not depend on that order.
    #[test]
    fn reorder_draws_the_same_whatever_the_entry_order() {
        let drawn = |mut scored: Vec<(f64, usize)>| {
            let mut rng = Rng::new(7);
            assert!(RandomModel.reorder(&mut scored, &mut rng));
            scored.sort_unstable_by_key(|&(_, index)| index);
            (scored, rng.below(1 << 30))
        };
        let in_order: Vec<(f64, usize)> = (0..12).map(|index| (0.0, index)).collect();
        let mut permuted = in_order.clone();
        Rng::new(8).shuffle(&mut permuted);
        assert_ne!(permuted, in_order);
        assert_eq!(drawn(permuted), drawn(in_order));
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
