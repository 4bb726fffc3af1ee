//! Cross-crate integration tests: the full QuaSAQ pipeline from SQL text
//! to streamed frames, plus the paper's headline comparisons at reduced
//! scale.

use quasaq::core::{
    satisfies_ordered_disjoint_sets, PlanExecutor, PlanRequest, QopRequest, QopSecurity,
    SecondChance, UserProfile,
};
use quasaq::media::VideoId;
use quasaq::scenario::Fnv64;
use quasaq::sim::{Rng, ServerId, SimDuration, SimTime};
use quasaq::stream::{NodeConfig, StreamEngine};
use quasaq::vdbms;
use quasaq::workload::{
    run_fig5, run_throughput, run_throughput_scenarios, Contention, CostKind, Fig5Config,
    Fig5System, SystemKind, Testbed, TestbedConfig, ThroughputConfig,
};

fn testbed() -> Testbed {
    Testbed::build(TestbedConfig::default())
}

#[test]
fn sql_to_streamed_frames() {
    let tb = testbed();
    let query = vdbms::parse(
        "SELECT * FROM videos WITH QOS (resolution >= 320x240, resolution <= 352x288, \
         framerate >= 20) LIMIT 1",
    )
    .unwrap();
    let video = vdbms::resolve_one(&tb.engine, &query).unwrap();
    let meta = tb.engine.video(video).unwrap().clone();

    let request =
        PlanRequest { video, qos: query.qos.clone().unwrap(), security: QopSecurity::Open };
    let mut manager = tb.quality_manager(CostKind::Lrb);
    let mut rng = Rng::new(1);
    let admitted = manager.process(&tb.engine, &request, &mut rng).unwrap();
    assert!(satisfies_ordered_disjoint_sets(&admitted.plan));
    assert!(request.qos.accepts(&admitted.plan.delivered));

    let executor = PlanExecutor::default();
    let cfg = executor.session_config(&admitted, &meta);
    let mut engine =
        StreamEngine::new(ServerId::first_n(3).map(|s| (s, NodeConfig::qos(3_200_000))));
    let sid = engine.add_session(SimTime::ZERO, cfg).unwrap();
    assert!(engine.run_to_completion(SimTime::from_secs(1500)));
    let report = engine.report(sid);
    assert!(report.is_complete());
    // Delivered on time: no frame more than a GOP late.
    assert!(report.max_lateness() < SimDuration::from_millis(700));
    manager.release(&admitted);
}

#[test]
fn every_generated_plan_is_qos_valid() {
    let tb = testbed();
    let generator = quasaq::core::PlanGenerator::new(quasaq::core::GeneratorConfig::default());
    let profile = UserProfile::new("t");
    let mut rng = Rng::new(2);
    let mut checked = 0;
    for _ in 0..200 {
        let qop = quasaq::workload::random_qop(&mut rng);
        let request = PlanRequest {
            video: VideoId(rng.index(15) as u32),
            qos: profile.translate(&qop),
            security: qop.security,
        };
        for plan in generator.generate(&tb.engine, &request) {
            checked += 1;
            assert!(satisfies_ordered_disjoint_sets(&plan), "{plan}");
            assert!(
                request.qos.accepts(&plan.delivered),
                "plan delivers {} outside {}",
                plan.delivered,
                request.qos
            );
            assert!(!plan.resources.is_empty());
            assert!(plan.delivered_bps > 0.0);
        }
    }
    assert!(checked > 1000, "only {checked} plans checked");
}

#[test]
fn reservation_accounting_is_exact_over_random_churn() {
    let tb = testbed();
    let mut manager = tb.quality_manager(CostKind::Lrb);
    let profile = UserProfile::new("t");
    let mut rng = Rng::new(3);
    let mut held = Vec::new();
    for step in 0..300 {
        if rng.chance(0.6) || held.is_empty() {
            let qop = quasaq::workload::random_qop(&mut rng);
            let request = PlanRequest {
                video: VideoId((step % 15) as u32),
                qos: profile.translate(&qop),
                security: QopSecurity::Open,
            };
            if let Ok(a) = manager.process(&tb.engine, &request, &mut rng) {
                held.push(a);
            }
        } else {
            let i = rng.index(held.len());
            let a = held.swap_remove(i);
            manager.release(&a);
        }
        assert_eq!(manager.api().reservation_count(), held.len());
        // No bucket ever exceeds capacity.
        for key in manager.api().buckets().collect::<Vec<_>>() {
            let fill = manager.api().fill(key).unwrap();
            assert!(fill <= 1.0 + 1e-9, "{key} at {fill}");
        }
    }
    for a in held.drain(..) {
        manager.release(&a);
    }
    assert_eq!(manager.api().reservation_count(), 0);
    for key in manager.api().buckets().collect::<Vec<_>>() {
        assert!(manager.api().used(key).unwrap().abs() < 1e-6);
    }
}

#[test]
fn fig5_shape_holds_at_small_scale() {
    let cfg = Fig5Config { clip: SimDuration::from_secs(20), ..Fig5Config::default() };
    let (vdbms_low, _) = run_fig5(Fig5System::Vdbms, Contention::Low, &cfg);
    let (vdbms_high, _) = run_fig5(Fig5System::Vdbms, Contention::High, &cfg);
    let (quasaq_high, _) = run_fig5(Fig5System::Quasaq, Contention::High, &cfg);
    let low_sd = vdbms_low.frame_delay_stats().std_dev();
    let high_sd = vdbms_high.frame_delay_stats().std_dev();
    let quasaq_sd = quasaq_high.frame_delay_stats().std_dev();
    assert!(high_sd > 2.0 * low_sd, "VDBMS contention must explode variance");
    assert!(quasaq_sd < high_sd / 2.0, "QuaSAQ must shield the stream");
}

/// Bit-exact pin of the frame-level engine: every `FrameRecord` of the
/// monitored Fig 5 stream, in all four system × contention cells, folds
/// into one FNV-1a digest per cell. Any change to event order, CPU or link
/// accounting, or frame timing moves at least one digest.
#[test]
fn fig5_frame_records_are_pinned() {
    fn hash_time(h: &mut Fnv64, t: Option<SimTime>) {
        match t {
            Some(t) => {
                h.write(&[1]);
                h.write_u64(t.as_micros());
            }
            None => h.write(&[0]),
        }
    }
    let cfg = Fig5Config { clip: SimDuration::from_secs(10), ..Fig5Config::default() };
    let cells = [
        (Fig5System::Vdbms, Contention::Low, 0x3ff0_b197_4837_8597u64),
        (Fig5System::Vdbms, Contention::High, 0x28f5_e2b4_161f_a03b),
        (Fig5System::Quasaq, Contention::Low, 0xbfda_c222_203d_a6e4),
        (Fig5System::Quasaq, Contention::High, 0x2876_f1ce_fe6e_4a14),
    ];
    for (system, contention, expected) in cells {
        let (report, competing) = run_fig5(system, contention, &cfg);
        let mut h = Fnv64::new();
        h.write_u64(competing as u64);
        h.write_u64(report.frames().len() as u64);
        for f in report.frames() {
            h.write_u64(f.display_index);
            h.write_u64(f.gop);
            h.write_u64(f.due.as_micros());
            hash_time(&mut h, f.processed);
            hash_time(&mut h, f.delivered);
        }
        assert_eq!(
            h.finish(),
            expected,
            "{} / {}: frame records moved",
            system.label(),
            contention.label()
        );
    }
}

#[test]
fn throughput_ordering_matches_fig6_and_fig7() {
    let cfg =
        ThroughputConfig { horizon: SimTime::from_secs(250), seed: 21, ..ThroughputConfig::fig6() };
    let h = cfg.horizon;
    // Four independent runs: fan them across cores via the scenario runner
    // (bit-identical to serial calls, collected in scenario order).
    let scenarios = vec![
        (SystemKind::Vdbms, cfg.clone()),
        (SystemKind::VdbmsQosApi, cfg.clone()),
        (SystemKind::Quasaq(CostKind::Lrb), cfg.clone()),
        (SystemKind::Quasaq(CostKind::Random), cfg),
    ];
    let mut runs = run_throughput_scenarios(&scenarios).into_iter();
    let (plain, qosapi, lrb, random) =
        (runs.next().unwrap(), runs.next().unwrap(), runs.next().unwrap(), runs.next().unwrap());

    // Fig 6a ordering: plain piles up the most sessions; QuaSAQ sustains
    // more than QoS-API.
    assert!(plain.stable_outstanding(h) > lrb.stable_outstanding(h));
    assert!(lrb.stable_outstanding(h) > qosapi.stable_outstanding(h));
    // Fig 7: LRB above Random, with fewer rejects.
    assert!(lrb.stable_outstanding(h) > random.stable_outstanding(h));
    assert!(lrb.rejected <= random.rejected);
    // Plain admits everything.
    assert_eq!(plain.rejected, 0);
}

#[test]
fn queued_front_end_reshapes_admissions_end_to_end() {
    // Same Fig 6 workload, behind the queued admission front end: rejected
    // queries back off and retry down the degradation ladder instead of
    // vanishing.
    let queued = ThroughputConfig {
        horizon: SimTime::from_secs(250),
        seed: 41,
        ..ThroughputConfig::queued()
    };
    let legacy = ThroughputConfig { admission: None, ..queued.clone() };
    let scenarios = vec![
        (SystemKind::Vdbms, queued.clone()),
        (SystemKind::VdbmsQosApi, queued.clone()),
        (SystemKind::Quasaq(CostKind::Lrb), queued),
        (SystemKind::Quasaq(CostKind::Lrb), legacy),
    ];
    let mut runs = run_throughput_scenarios(&scenarios).into_iter();
    let (plain, qosapi, lrb, lrb_legacy) =
        (runs.next().unwrap(), runs.next().unwrap(), runs.next().unwrap(), runs.next().unwrap());

    assert!(lrb_legacy.queue.is_none(), "legacy runs carry no queue metrics");
    for r in [&plain, &qosapi, &lrb] {
        let q = r.queue.as_ref().expect("front end was enabled");
        // Every query is accounted for exactly once.
        assert_eq!(r.admitted + r.rejected, r.queries);
        assert_eq!(
            r.rejected,
            q.overflow + q.hopeless + q.abandoned_waiting + q.pending_at_horizon
        );
        assert_eq!(q.wait.count(), r.admitted);
    }
    // Waiting out transient overload admits queries fire-and-forget drops.
    assert!(lrb.admitted >= lrb_legacy.admitted);
    let q = lrb.queue.as_ref().unwrap();
    assert!(q.retries > 0, "a saturated cluster must force retries");
    assert!(q.wait.mean() > 0.0, "retried queries wait in simulated time");
}

#[test]
fn second_chance_and_renegotiation_round_trip() {
    let tb = testbed();
    let mut manager = tb.quality_manager(CostKind::Lrb);
    let profile = UserProfile::new("t");
    let mut rng = Rng::new(5);

    // Saturate with diagnostic sessions.
    let mut held = Vec::new();
    loop {
        let request = PlanRequest {
            video: VideoId(held.len() as u32 % 15),
            qos: profile.translate(&QopRequest::diagnostic()),
            security: QopSecurity::Open,
        };
        match manager.process(&tb.engine, &request, &mut rng) {
            Ok(a) => held.push(a),
            Err(_) => break,
        }
        assert!(held.len() < 2000);
    }

    // A further diagnostic request degrades via second chance.
    let request = PlanRequest {
        video: VideoId(1),
        qos: profile.translate(&QopRequest::diagnostic()),
        security: QopSecurity::Open,
    };
    match manager.process_with_second_chance(&tb.engine, &request, &profile, &mut rng) {
        SecondChance::Degraded { admitted, .. } => {
            // A degraded session can later renegotiate upward once space
            // frees.
            for a in held.drain(..) {
                manager.release(&a);
            }
            let upgraded = manager
                .renegotiate(&tb.engine, &admitted, &request, &mut rng)
                .expect("renegotiation succeeds on an empty cluster");
            assert!(upgraded.plan.delivered_bps >= admitted.plan.delivered_bps);
            manager.release(&upgraded);
        }
        SecondChance::AsRequested(a) => {
            // Possible if saturation left just enough headroom; still release.
            manager.release(&a);
        }
        SecondChance::Rejected(e) => panic!("expected a second chance, got {e}"),
    }
    assert_eq!(manager.api().reservation_count(), 0);
}

#[test]
fn migration_extension_improves_skewed_throughput() {
    use quasaq::store::{plan_migrations, Placement, QosSampler, ReplicationPlanner};
    use quasaq::workload::run_throughput_on;
    let cfg = ThroughputConfig {
        testbed: TestbedConfig { placement: Placement::RoundRobin, ..TestbedConfig::default() },
        horizon: SimTime::from_secs(400),
        seed: 31,
        video_skew: 1.2,
        local_plans_only: true,
        ..ThroughputConfig::fig6()
    };
    let mut tb = Testbed::build(cfg.testbed.clone());
    let before = run_throughput_on(&tb, SystemKind::Quasaq(CostKind::Lrb), &cfg);
    let migrations = plan_migrations(&tb.engine, &before.access, 20);
    assert!(!migrations.is_empty(), "skewed access must trigger migrations");
    let mut planner =
        ReplicationPlanner::new(QosSampler { cost: cfg.testbed.cost }, Placement::RoundRobin);
    let applied = {
        let Testbed { stores, engine, .. } = &mut tb;
        planner.apply_migrations(&migrations, stores, engine).unwrap()
    };
    assert!(applied > 0);
    let after = run_throughput_on(&tb, SystemKind::Quasaq(CostKind::Lrb), &cfg);
    // Migration decisions are heuristic: at short horizons the benefit is
    // within noise, so assert the converged layout serves the workload at
    // least comparably (the 600 s bench run in `extensions.rs` shows the
    // positive effect).
    assert!(
        after.admitted as f64 >= before.admitted as f64 * 0.95,
        "converged layout regressed admissions ({} -> {})",
        before.admitted,
        after.admitted
    );
    // The hot videos gained replicas.
    let hot = before
        .access
        .video_total(quasaq::media::VideoId(0))
        .max(before.access.video_total(quasaq::media::VideoId(1)));
    assert!(hot > 20, "zipf skew should make low-id videos hot");
}

#[test]
fn utility_optimizer_trades_throughput_for_quality() {
    let cfg =
        ThroughputConfig { horizon: SimTime::from_secs(400), seed: 33, ..ThroughputConfig::fig6() };
    let scenarios = vec![
        (SystemKind::Quasaq(CostKind::Lrb), cfg.clone()),
        (SystemKind::Quasaq(CostKind::Utility), cfg.clone()),
    ];
    let mut runs = run_throughput_scenarios(&scenarios).into_iter();
    let (lrb, utility) = (runs.next().unwrap(), runs.next().unwrap());
    let (lu, uu) = (lrb.mean_utility.unwrap(), utility.mean_utility.unwrap());
    assert!(uu > lu, "utility optimizer must deliver richer quality ({uu} vs {lu})");
    assert!(
        lrb.stable_outstanding(cfg.horizon) >= utility.stable_outstanding(cfg.horizon),
        "LRB must sustain at least as many sessions"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(120),
            seed: 77,
            ..ThroughputConfig::fig6()
        };
        let r = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        (r.admitted, r.rejected, r.completed, r.outstanding.values().collect::<Vec<_>>())
    };
    assert_eq!(run(), run());
}

#[test]
fn metadata_cache_accelerates_remote_lookups() {
    let tb = Testbed::build(TestbedConfig {
        placement: quasaq::store::Placement::RoundRobin,
        ..TestbedConfig::default()
    });
    let mut engine = tb.engine;
    // Find a replica owned by server 1 and look it up from server 0 twice.
    let remote_oid = engine
        .replicas(VideoId(0))
        .iter()
        .find(|r| r.object.server == ServerId(1))
        .map(|r| r.object.oid)
        .expect("round-robin spreads replicas");
    let (_, miss1) = engine.lookup_from(ServerId(0), remote_oid).unwrap();
    let (_, miss2) = engine.lookup_from(ServerId(0), remote_oid).unwrap();
    assert!(miss1);
    assert!(!miss2);
}
