//! §5.2 "Overhead of QuaSAQ" reproduction.
//!
//! "The DSRT scheduler reports an overhead of 0.4−0.8ms for every 10ms …
//! This number is only 0.16ms in the machines we used for experiments
//! (1.6% overhead). The CPU use for processing each query (a few
//! milliseconds) in QuaSAQ is negligible."
//!
//! Criterion micro-benchmarks measure the per-query planning pipeline
//! (plan generation, LRB ranking, full admit), the QoS-API baseline's
//! admission, and the SQL front-end, and
//! a printed section reports the modelled DSRT overhead and the pruning
//! ablation (plan-space sizes with and without the static rules).

use criterion::{criterion_group, Criterion};
use quasaq_bench::{paper, Table};
use quasaq_core::{
    GeneratorConfig, LrbModel, PlanGenerator, PlanRequest, QopRequest, QopSecurity, UserProfile,
};
use quasaq_media::VideoId;
use quasaq_qosapi::{ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::cpu::Dsrt;
use quasaq_sim::Rng;
use quasaq_vdbms::{BaselineKind, BaselinePlanner};
use quasaq_workload::{CostKind, Testbed, TestbedConfig};
use std::hint::black_box;

fn bench_planning(c: &mut Criterion) {
    let testbed = Testbed::build(TestbedConfig::default());
    let profile = UserProfile::new("bench");
    let request = PlanRequest {
        video: VideoId(0),
        qos: profile.translate(&QopRequest::organizational()),
        security: QopSecurity::Open,
    };
    let generator = PlanGenerator::new(GeneratorConfig::default());

    c.bench_function("plan_generation", |b| {
        b.iter(|| black_box(generator.generate(&testbed.engine, black_box(&request))))
    });

    let plans = generator.generate(&testbed.engine, &request);
    let api = testbed.qos_api();
    c.bench_function("lrb_rank", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            black_box(quasaq_core::CostModel::rank(&LrbModel, black_box(&plans), &api, &mut rng))
        })
    });

    c.bench_function("full_admit_release", |b| {
        let mut manager = testbed.quality_manager(CostKind::Lrb);
        let mut rng = Rng::new(2);
        b.iter(|| {
            let admitted = manager.process(&testbed.engine, &request, &mut rng).expect("admits");
            manager.release(&admitted);
        })
    });

    // The same admission at 100 servers (the `admit_lrb100` cluster size,
    // ~1,300 candidates), on an idle cluster.
    let testbed = Testbed::build(TestbedConfig::scale(100, 1_000));
    c.bench_function("full_admit_release_100", |b| {
        let mut manager = testbed.quality_manager(CostKind::Lrb);
        let mut rng = Rng::new(4);
        b.iter(|| {
            let admitted = manager.process(&testbed.engine, &request, &mut rng).expect("admits");
            manager.release(&admitted);
        })
    });

    // The same admission on that cluster at a steady-state load: 3,000
    // sessions admitted and every third released, so 2,000 stay (about
    // `admit_lrb100`'s mean) on unevenly filled servers, as under churn.
    // LRB's score floor then leaves most delivery sides unscored, which
    // the idle cluster above cannot show (an evenly filled one shows
    // little of it either: its remote sides' floors tie with the best).
    c.bench_function("loaded_admit_100", |b| {
        let mut manager = testbed.quality_manager(CostKind::Lrb);
        let mut rng = Rng::new(7);
        let requests: Vec<PlanRequest> =
            (0..1_000).map(|i| PlanRequest { video: VideoId(i), ..request.clone() }).collect();
        let admitted: Vec<_> = (requests.iter().cycle().take(3_000))
            .map(|req| manager.process(&testbed.engine, req, &mut rng).expect("room"))
            .collect();
        for session in admitted.iter().skip(2).step_by(3) {
            manager.release(session);
        }
        let mut next = requests.iter().cycle();
        b.iter(|| {
            let req = next.next().expect("cycles");
            let admitted = manager.process(&testbed.engine, req, &mut rng).expect("admits");
            manager.release(&admitted);
        })
    });

    // A refusal on a saturated copy of that cluster: the best local
    // candidate is refused, and the refusal proof checks the option sides'
    // admission, pruning remote targets by the most any site has left,
    // until it has shown that nothing is admissible; no remote side is
    // ranked. The walk it stands for attempts every feasible candidate,
    // so its statistics say so. A refusal changes nothing, so each
    // iteration is the same.
    c.bench_function("refused_admit_100", |b| {
        let mut manager = testbed.quality_manager(CostKind::Lrb);
        let mut rng = Rng::new(5);
        let refused = (0..)
            .map(|i| PlanRequest { video: VideoId(i % 1_000), ..request.clone() })
            .find(|req| manager.process(&testbed.engine, req, &mut rng).is_err())
            .expect("the cluster saturates");
        let stats = manager.last_stats();
        assert!(stats.feasible > 0, "a refusal of feasible candidates: {stats:?}");
        assert_eq!(stats.attempts, stats.feasible, "a refusal attempts every feasible candidate");
        b.iter(|| {
            let outcome = manager.process(&testbed.engine, black_box(&refused), &mut rng);
            black_box(outcome.expect_err("a saturated cluster refuses"))
        })
    });

    // The QoS-API baseline's admission at 100 servers and 10,000 videos
    // (the `dataplane_qosapi100` catalog): pick the full-quality replica,
    // reserve its stream on the chosen server, release it. Videos cycle so
    // lookups range over the whole catalog.
    let testbed = Testbed::build(TestbedConfig::scale(100, 10_000));
    c.bench_function("qosapi_admit_release_100", |b| {
        let planner = BaselinePlanner::new(BaselineKind::WithQosApi);
        let mut api = testbed.qos_api();
        let headroom = testbed.config.cost.reservation_headroom;
        let mut rng = Rng::new(6);
        let mut video = 0;
        b.iter(|| {
            video = (video + 1) % 10_000;
            let choice = planner.select(&testbed.engine, VideoId(video), &mut rng).expect("held");
            let (server, profile) = (choice.server, choice.record.profile);
            let demand = ResourceVector::new()
                .with(
                    ResourceKey::new(server, ResourceKind::Cpu),
                    (profile.cpu_share * headroom).min(1.0),
                )
                .with(ResourceKey::new(server, ResourceKind::NetBandwidth), profile.net_bps)
                .with(ResourceKey::new(server, ResourceKind::DiskBandwidth), profile.disk_bps)
                .with(ResourceKey::new(server, ResourceKind::Memory), profile.memory_bytes);
            let res = api.reserve(&demand).expect("an idle cluster admits");
            api.release(res);
        })
    });

    c.bench_function("sql_parse", |b| {
        let q = "SELECT * FROM videos WHERE contains('surgery') \
                 WITH QOS (resolution >= 320x240, resolution <= 352x288, framerate >= 20) LIMIT 3";
        b.iter(|| black_box(quasaq_vdbms::parse(black_box(q)).expect("parses")))
    });
}

fn report_overheads() {
    println!("\n=== §5.2 Overhead of QuaSAQ ===\n");

    // DSRT overhead: the modelled scheduler consumes this fraction of the
    // CPU, matching the paper's measurement.
    let dsrt = Dsrt::paper_default();
    println!(
        "DSRT scheduler overhead (modelled): {:.2}% of CPU (paper: {:.1}% — 0.16 ms per 10 ms)",
        dsrt.overhead_fraction() * 100.0,
        paper::DSRT_OVERHEAD * 100.0
    );

    // Planning cost accounting for a representative request mix.
    let testbed = Testbed::build(TestbedConfig::default());
    let mut manager = testbed.quality_manager(CostKind::Lrb);
    let profile = UserProfile::new("bench");
    let mut rng = Rng::new(3);
    let mut table = Table::new(&["request", "plans generated", "feasible", "admit attempts"]);
    for (label, qop) in [
        ("organizational QoP", QopRequest::organizational()),
        ("diagnostic QoP", QopRequest::diagnostic()),
    ] {
        let request =
            PlanRequest { video: VideoId(1), qos: profile.translate(&qop), security: qop.security };
        if let Ok(admitted) = manager.process(&testbed.engine, &request, &mut rng) {
            manager.release(&admitted);
        }
        let stats = manager.last_stats();
        table.row(&[
            label.to_string(),
            format!("{}", stats.generated),
            format!("{}", stats.feasible),
            format!("{}", stats.attempts),
        ]);
    }
    println!("{}", table.render());

    // Pruning ablation: the static rules vs the combinatorial bound.
    let generator = PlanGenerator::new(GeneratorConfig::default());
    let unpruned =
        PlanGenerator::new(GeneratorConfig { prune_wasteful: false, ..GeneratorConfig::default() });
    let request = PlanRequest {
        video: VideoId(0),
        qos: profile.translate(&QopRequest::organizational()),
        security: QopSecurity::Open,
    };
    let pruned_n = generator.generate(&testbed.engine, &request).len();
    let unpruned_n = unpruned.generate(&testbed.engine, &request).len();
    let bound = generator.combinatorial_bound(&testbed.engine, VideoId(0));
    println!(
        "\nPlan-space pruning: combinatorial bound {bound}, without wasteful-pruning \
         {unpruned_n}, with static rules {pruned_n}"
    );
    println!(
        "The criterion results above give the per-query planning cost; the paper\n\
         reports \"a few milliseconds\" per query on 2002-era hardware.\n"
    );
}

criterion_group!(benches, bench_planning);

fn main() {
    report_overheads();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
