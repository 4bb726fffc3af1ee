//! Weighted-sum cost model (ablation of the LRB `max`).
//!
//! Identical to LRB except the bucket fills are *summed* (optionally
//! weighted per resource kind) instead of maximized. Comparing it against
//! LRB isolates the value of the max-bucket ("prevent any single bucket
//! from growing faster than the others") formulation.

use super::{rank_by_score, CostModel};
use crate::plan::Plan;
use quasaq_qosapi::{CompositeQosApi, ResourceKind};
use quasaq_sim::Rng;

/// Sum-of-fills cost model.
#[derive(Debug, Clone, Copy)]
pub struct WeightedSumModel {
    /// Weight applied to CPU buckets.
    pub cpu: f64,
    /// Weight applied to network buckets.
    pub net: f64,
    /// Weight applied to disk buckets.
    pub disk: f64,
    /// Weight applied to memory buckets.
    pub memory: f64,
}

impl Default for WeightedSumModel {
    fn default() -> Self {
        WeightedSumModel { cpu: 1.0, net: 1.0, disk: 1.0, memory: 1.0 }
    }
}

impl WeightedSumModel {
    fn weight(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::NetBandwidth => self.net,
            ResourceKind::DiskBandwidth => self.disk,
            ResourceKind::Memory => self.memory,
        }
    }

    /// The weighted-sum cost of a plan.
    pub fn cost(&self, plan: &Plan, api: &CompositeQosApi) -> f64 {
        let mut sum = 0.0;
        for (key, demand) in plan.resources.iter() {
            match (api.used(key), api.capacity(key)) {
                (Some(used), Some(cap)) => {
                    sum += self.weight(key.kind) * (used + demand) / cap;
                }
                _ => return f64::INFINITY,
            }
        }
        sum
    }
}

impl CostModel for WeightedSumModel {
    fn name(&self) -> &'static str {
        "weighted-sum"
    }

    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, _rng: &mut Rng) -> Vec<usize> {
        let scores: Vec<f64> = plans.iter().map(|p| self.cost(p, api)).collect();
        rank_by_score(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::plan_on;
    use super::*;
    use quasaq_qosapi::{ResourceKey, ResourceVector};
    use quasaq_sim::ServerId;

    #[test]
    fn prefers_lower_total_load() {
        let mut api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        api.reserve(
            &ResourceVector::new()
                .with(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth), 2_000_000.0),
        )
        .unwrap();
        let plans = vec![plan_on(0, 48_000), plan_on(2, 48_000)];
        let order = WeightedSumModel::default().rank(&plans, &api, &mut Rng::new(1));
        assert_eq!(order[0], 1);
    }

    #[test]
    fn unknown_bucket_costs_infinity() {
        let api = CompositeQosApi::new();
        let plan = plan_on(0, 48_000);
        assert_eq!(WeightedSumModel::default().cost(&plan, &api), f64::INFINITY);
    }

    #[test]
    fn weights_change_the_ranking() {
        let api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        // Two plans with the same bandwidth: one encrypted (more CPU).
        let cheap_cpu = plan_on(0, 48_000);
        let mut heavy_cpu = plan_on(1, 48_000);
        // Manually bump the CPU demand of the second plan.
        let cpu_key = ResourceKey::new(ServerId(1), ResourceKind::Cpu);
        let base = heavy_cpu.resources.get(cpu_key);
        heavy_cpu.resources.set(cpu_key, base + 0.2);
        let plans = vec![heavy_cpu, cheap_cpu];
        // CPU-dominated weighting prefers the cheap-CPU plan.
        let cpu_heavy = WeightedSumModel { cpu: 100.0, ..WeightedSumModel::default() };
        let order = cpu_heavy.rank(&plans, &api, &mut Rng::new(1));
        assert_eq!(order[0], 1);
    }
}
