//! Property-based determinism checks for fault-injected runs.
//!
//! The robustness tentpole's contract: a `FaultPlan` plus a seed fully
//! determines a run, and the scenario-parallel runner reproduces the
//! serial results bit for bit — fault metrics included.

use proptest::prelude::*;
use quasaq_sim::{
    FaultKind, FaultPlan, FaultSpec, LinkModel, LinkPlan, ServerId, SimDuration, SimTime,
};
use quasaq_workload::{
    run_throughput, run_throughput_scenarios, AdaptationConfig, AdmissionConfig, CostKind,
    SystemKind, TestbedConfig, ThroughputConfig,
};

fn faulted_cfg(seed: u64, plan: FaultPlan) -> ThroughputConfig {
    ThroughputConfig {
        horizon: SimTime::from_secs(200),
        seed,
        admission: Some(AdmissionConfig::default()),
        faults: Some(plan),
        ..ThroughputConfig::fig6()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same `FaultPlan` + seed: the parallel runner's robustness metrics
    /// are bitwise identical to the serial loop's, and every interrupted
    /// session reaches exactly one fate.
    #[test]
    fn fault_runs_are_bit_identical_serial_vs_parallel(
        seed in 0u64..1_000,
        server in 0u32..3,
        crash_at in 20u64..120,
        outage in 10u64..120,
        with_degrade in any::<bool>(),
        degrade_at in 30u64..150,
    ) {
        let mut plan = FaultPlan::crash_restart(
            ServerId(server),
            SimTime::from_secs(crash_at),
            SimTime::from_secs(crash_at + outage),
        );
        if with_degrade {
            plan.faults.push(FaultSpec {
                server: ServerId((server + 1) % 3),
                at: SimTime::from_secs(degrade_at),
                duration: SimDuration::from_secs(40),
                kind: FaultKind::LinkDegradation { factor: 0.5 },
            });
        }
        let scenarios: Vec<(SystemKind, ThroughputConfig)> = vec![
            (SystemKind::Vdbms, faulted_cfg(seed, plan.clone())),
            (SystemKind::Quasaq(CostKind::Lrb), faulted_cfg(seed, plan)),
        ];
        let serial: Vec<_> =
            scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
        let parallel = run_throughput_scenarios(&scenarios);
        // Full-result equality covers every series and float bit for bit;
        // the fault metrics are singled out for a readable failure.
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.faults.as_ref(), p.faults.as_ref());
        }
        prop_assert_eq!(&serial, &parallel);
        for r in &serial {
            let f = r.faults.as_ref().expect("fault injection enabled");
            prop_assert_eq!(f.interrupted, f.failed_over + f.recovered + f.dropped);
            prop_assert_eq!(r.admitted + r.rejected, r.queries);
        }
    }

    /// The plan-cache tentpole's contract: turning the memoized plan
    /// cache (and its bulk-admit prefetch) on changes *nothing* about
    /// admission decisions — every series, float, and fault metric is
    /// bitwise identical to the uncached run across random cluster sizes,
    /// skews, bursts, admission modes, cost models, and fault plans.
    #[test]
    fn plan_cache_is_bit_identical_to_full_enumeration(
        seed in 0u64..1_000,
        servers in 2u32..8,
        skew in 0.0f64..1.5,
        burst in 1usize..6,
        queued in any::<bool>(),
        random_model in any::<bool>(),
        crash in any::<bool>(),
        crash_server in 0u32..8,
        crash_at in 20u64..100,
    ) {
        let faults = crash.then(|| {
            FaultPlan::crash_restart(
                ServerId(crash_server % servers),
                SimTime::from_secs(crash_at),
                SimTime::from_secs(crash_at + 40),
            )
        });
        let uncached_cfg = ThroughputConfig {
            testbed: TestbedConfig { servers, ..TestbedConfig::default() },
            horizon: SimTime::from_secs(120),
            seed,
            video_skew: skew,
            arrival_burst: burst,
            admission: queued.then(AdmissionConfig::default),
            faults,
            ..ThroughputConfig::fig6()
        };
        let cached_cfg = ThroughputConfig { plan_cache: true, ..uncached_cfg.clone() };
        // `Random` ranks by consuming the RNG, so equality here proves the
        // cache hit path replays the exact draw sequence of a full
        // enumeration, not just the same plan set.
        let kind = if random_model {
            SystemKind::Quasaq(CostKind::Random)
        } else {
            SystemKind::Quasaq(CostKind::Lrb)
        };
        let uncached = run_throughput(kind, &uncached_cfg);
        let cached = run_throughput(kind, &cached_cfg);
        prop_assert_eq!(&uncached, &cached);
        prop_assert_eq!(uncached.admitted + uncached.rejected, uncached.queries);
    }

    /// The stochastic-link tentpole's contract: a sampled `LinkPlan` (any
    /// of the three capacity processes, random parameters) plus the
    /// adaptation loop is fully determined by its seed — replaying the
    /// same run reproduces every series, float, and degradation counter
    /// bit for bit, and the accounting balances.
    #[test]
    fn stochastic_link_runs_replay_bit_identically(
        seed in 0u64..1_000,
        link_seed in 0u64..1_000,
        servers in 2u32..6,
        model_pick in 0usize..3,
        degraded in 0.2f64..0.8,
        bad in 0.05f64..0.3,
        dwell in 20u64..90,
        queued in any::<bool>(),
    ) {
        let model = match model_pick {
            0 => LinkModel::Markov {
                factors: [1.0, degraded, bad],
                dwell: [
                    SimDuration::from_secs(dwell * 2),
                    SimDuration::from_secs(dwell),
                    SimDuration::from_secs(dwell / 2 + 1),
                ],
            },
            1 => LinkModel::Fading {
                mean: degraded,
                spread: bad,
                coherence: SimDuration::from_secs(dwell),
            },
            _ => LinkModel::Diurnal {
                trough: bad,
                period: SimDuration::from_secs(dwell * 4),
                step: SimDuration::from_secs(dwell / 2 + 1),
            },
        };
        let horizon = SimTime::from_secs(150);
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
            let first = run_throughput(system, &cfg);
            prop_assert_eq!(&first, &run_throughput(system, &cfg));
            prop_assert_eq!(first.admitted + first.rejected, first.queries);
            let dm = first.degradation.as_ref().expect("adaptation enabled");
            prop_assert!(dm.upshifts <= dm.downshifts);
        }
    }

    /// The plan cache under mid-run re-rates: every link set-point
    /// invalidates the memoized plans, so a cached run over a stochastic
    /// capacity process must still make exactly the decisions of full
    /// enumeration.
    #[test]
    fn plan_cache_is_bit_identical_under_link_rerates(
        seed in 0u64..1_000,
        link_seed in 0u64..1_000,
        servers in 2u32..6,
        degraded in 0.2f64..0.8,
        dwell in 20u64..60,
        burst in 1usize..4,
        random_model in any::<bool>(),
    ) {
        let horizon = SimTime::from_secs(150);
        let uncached_cfg = ThroughputConfig {
            testbed: TestbedConfig { servers, ..TestbedConfig::default() },
            horizon,
            seed,
            arrival_burst: burst,
            links: Some(LinkPlan::sample(
                link_seed,
                ServerId::first_n(servers),
                horizon,
                LinkModel::Markov {
                    factors: [1.0, degraded, degraded / 2.0],
                    dwell: [
                        SimDuration::from_secs(dwell * 2),
                        SimDuration::from_secs(dwell),
                        SimDuration::from_secs(dwell / 2),
                    ],
                },
            )),
            adaptation: Some(AdaptationConfig::default()),
            ..ThroughputConfig::fig6()
        };
        let cached_cfg = ThroughputConfig { plan_cache: true, ..uncached_cfg.clone() };
        let kind = if random_model {
            SystemKind::Quasaq(CostKind::Random)
        } else {
            SystemKind::Quasaq(CostKind::Lrb)
        };
        let uncached = run_throughput(kind, &uncached_cfg);
        let cached = run_throughput(kind, &cached_cfg);
        prop_assert_eq!(&uncached, &cached);
    }
}
