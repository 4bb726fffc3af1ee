//! Weighted-sum cost model (ablation of the LRB `max`).
//!
//! Identical to LRB except the bucket fills are *summed* (optionally
//! weighted per resource kind) instead of maximized. Comparing it against
//! LRB isolates the value of the max-bucket ("prevent any single bucket
//! from growing faster than the others") formulation.

use super::{CostModel, PlanView};
use quasaq_qosapi::{ResourceKey, ResourceKind};
use quasaq_sim::ServerId;

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
}

impl CostModel for WeightedSumModel {
    fn name(&self) -> &'static str {
        "weighted-sum"
    }

    /// The weighted sum of the bucket fills; infinite when a bucket is
    /// unmanaged.
    fn score(&self, plan: &PlanView<'_>) -> f64 {
        // Float addition is not associative, so the terms go in bucket
        // order, zero amounts skipped, as a resource vector holds them. An
        // unsorted demand has five entries: sort a copy on the stack.
        let mut sorted = [(ResourceKey::new(ServerId(0), ResourceKind::Cpu), 0.0); 5];
        let mut terms = plan.demand;
        if !terms.is_sorted_by_key(|&(key, _)| key) {
            sorted.copy_from_slice(terms);
            sorted.sort_unstable_by_key(|&(key, _)| key);
            terms = &sorted;
        }
        let mut sum = 0.0;
        for &(key, demand) in terms.iter().filter(|&&(_, demand)| demand != 0.0) {
            let (Some(used), Some(cap)) = (plan.api.used(key), plan.api.capacity(key)) else {
                return f64::INFINITY;
            };
            sum += self.weight(key.kind) * (used + demand) / cap;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{plan_on, score_of};
    use super::*;
    use quasaq_qosapi::{CompositeQosApi, ResourceVector};
    use quasaq_sim::Rng;

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
        assert_eq!(score_of(&WeightedSumModel::default(), &plan, &api), f64::INFINITY);
    }

    #[test]
    fn score_sums_the_fills_in_bucket_order() {
        let mut api =
            CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20e6, 512e6);
        api.reserve(
            &ResourceVector::new()
                .with(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth), 1_234_567.0)
                .with(ResourceKey::new(ServerId(2), ResourceKind::Memory), 3e8),
        )
        .unwrap();
        let model = WeightedSumModel { cpu: 0.3, net: 1.7, disk: 0.9, memory: 2.1 };
        let fill = |key: ResourceKey, amount: f64| {
            model.weight(key.kind) * (api.used(key).unwrap() + amount) / api.capacity(key).unwrap()
        };
        // A built plan's demand is in bucket order, at any length.
        let mut plan = plan_on(0, 48_000);
        for extra in 1..=2u32 {
            let key = ResourceKey::new(ServerId(extra), ResourceKind::ALL[extra as usize]);
            plan.resources.set(key, 0.1 * api.capacity(key).unwrap());
        }
        assert!(plan.resources.len() > 5);
        let expected =
            plan.resources.iter().fold(0.0, |sum, (key, amount)| sum + fill(key, amount));
        assert_eq!(score_of(&model, &plan, &api).to_bits(), expected.to_bits());
        // An enumerated candidate's five entries come in any order, zeros
        // included; the sum still runs in bucket order.
        let key = |server, kind| ResourceKey::new(ServerId(server), kind);
        let mut demand = vec![
            (key(0, ResourceKind::Cpu), 0.333),
            (key(0, ResourceKind::NetBandwidth), 123_457.0),
            (key(1, ResourceKind::DiskBandwidth), 3e6),
            (key(2, ResourceKind::Memory), 1e6),
        ];
        let expected = demand.iter().fold(0.0, |sum, &(key, amount)| sum + fill(key, amount));
        demand.reverse();
        let reversed = demand.iter().fold(0.0, |sum, &(key, amount)| sum + fill(key, amount));
        assert_ne!(reversed.to_bits(), expected.to_bits(), "the order must matter here");
        demand.insert(2, (key(1, ResourceKind::Cpu), 0.0));
        let view = PlanView {
            max_fill: 0.0,
            delivered: &plan.delivered,
            delivered_bps: plan.delivered_bps,
            demand: &demand,
            api: &api,
        };
        assert_eq!(model.score(&view).to_bits(), expected.to_bits());
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
