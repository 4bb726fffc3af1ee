//! Differential proptests: the rewired control-plane driver vs the
//! frozen pre-refactor loop.
//!
//! `support/legacy.rs` is the in-process event loop exactly as it stood
//! before admission, brownout, failover, and renegotiation moved into the
//! sans-IO `quasaq-service` crate. These tests drive random
//! traffic/fault/link/adaptation configs through both and require
//! bit-identical `ThroughputResult`s — every series sample, float, and
//! counter. Any divergence means the command/effect split changed a
//! decision or an RNG draw.

#[path = "support/legacy.rs"]
mod legacy;

use legacy::legacy_run_throughput;
use proptest::prelude::*;
use quasaq_sim::{FaultPlan, LinkModel, LinkPlan, ServerId, SimDuration, SimTime};
use quasaq_workload::{
    run_throughput, AdaptationConfig, AdmissionConfig, CostKind, SystemKind, TestbedConfig,
    ThroughputConfig,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random load shapes (skew, bursts, arrival period, queueing, plan
    /// cache) across all three systems: the control-plane driver equals
    /// the legacy loop bit for bit.
    #[test]
    fn control_plane_driver_matches_legacy_loop(
        seed in 0u64..1_000,
        servers in 2u32..6,
        skew in 0.0f64..1.5,
        burst in 1usize..5,
        queued in any::<bool>(),
        cache in any::<bool>(),
        system_pick in 0usize..4,
    ) {
        let system = match system_pick {
            0 => SystemKind::Vdbms,
            1 => SystemKind::VdbmsQosApi,
            2 => SystemKind::Quasaq(CostKind::Lrb),
            _ => SystemKind::Quasaq(CostKind::Random),
        };
        let cfg = ThroughputConfig {
            testbed: TestbedConfig { servers, ..TestbedConfig::default() },
            horizon: SimTime::from_secs(150),
            seed,
            video_skew: skew,
            arrival_burst: burst,
            admission: queued.then(AdmissionConfig::default),
            plan_cache: cache,
            ..ThroughputConfig::fig6()
        };
        prop_assert_eq!(legacy_run_throughput(system, &cfg), run_throughput(system, &cfg));
    }

    /// Random crash/restart plans over the queued front end: failover,
    /// requeue, and recovery decisions (and every fault counter) match
    /// the legacy loop.
    #[test]
    fn faulted_runs_match_legacy_loop(
        seed in 0u64..1_000,
        servers in 2u32..5,
        crash_server in 0u32..5,
        crash_at in 20u64..100,
        outage in 10u64..80,
        queued in any::<bool>(),
    ) {
        let cfg = ThroughputConfig {
            testbed: TestbedConfig { servers, ..TestbedConfig::default() },
            horizon: SimTime::from_secs(150),
            seed,
            admission: queued.then(AdmissionConfig::default),
            faults: Some(FaultPlan::crash_restart(
                ServerId(crash_server % servers),
                SimTime::from_secs(crash_at),
                SimTime::from_secs(crash_at + outage),
            )),
            ..ThroughputConfig::fig6()
        };
        for system in [SystemKind::Vdbms, SystemKind::Quasaq(CostKind::Lrb)] {
            let old = legacy_run_throughput(system, &cfg);
            let new = run_throughput(system, &cfg);
            prop_assert_eq!(old.faults.as_ref(), new.faults.as_ref());
            prop_assert_eq!(old, new);
        }
    }

    /// Random stochastic link processes with the full adaptation stack
    /// (renegotiation, upshift hysteresis, brownout shedding): the
    /// control-plane decisions — who gets renegotiated, to what, when —
    /// match the legacy loop draw for draw.
    #[test]
    fn adaptive_runs_match_legacy_loop(
        seed in 0u64..1_000,
        link_seed in 0u64..1_000,
        servers in 2u32..5,
        degraded in 0.2f64..0.7,
        dwell in 20u64..70,
        queued in any::<bool>(),
        fading in any::<bool>(),
    ) {
        let horizon = SimTime::from_secs(150);
        let model = if fading {
            LinkModel::Fading {
                mean: degraded,
                spread: 0.15,
                coherence: SimDuration::from_secs(dwell),
            }
        } else {
            LinkModel::Markov {
                factors: [1.0, degraded, degraded / 2.0],
                dwell: [
                    SimDuration::from_secs(dwell * 2),
                    SimDuration::from_secs(dwell),
                    SimDuration::from_secs(dwell / 2 + 1),
                ],
            }
        };
        let cfg = ThroughputConfig {
            testbed: TestbedConfig { servers, ..TestbedConfig::default() },
            horizon,
            seed,
            admission: queued.then(AdmissionConfig::default),
            links: Some(LinkPlan::sample(link_seed, ServerId::first_n(servers), horizon, model)),
            adaptation: Some(AdaptationConfig::default()),
            ..ThroughputConfig::fig6()
        };
        for system in [SystemKind::Vdbms, SystemKind::Quasaq(CostKind::Lrb)] {
            let old = legacy_run_throughput(system, &cfg);
            let new = run_throughput(system, &cfg);
            prop_assert_eq!(old.degradation.as_ref(), new.degradation.as_ref());
            prop_assert_eq!(old, new);
        }
    }
}
