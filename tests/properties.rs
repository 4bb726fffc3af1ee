//! Cross-crate property-based tests of the planner and Quality Manager
//! invariants.

use proptest::prelude::*;
use quasaq::core::{
    CostModel, GeneratorConfig, LrbModel, PlanGenerator, PlanRequest, QopSecurity, UserProfile,
};
use quasaq::media::{ColorDepth, FrameRate, QosRange, Resolution, VideoId};
use quasaq::sim::Rng;
use quasaq::workload::{CostKind, Testbed, TestbedConfig};

fn testbed() -> Testbed {
    Testbed::build(TestbedConfig::default())
}

/// An arbitrary (possibly strict, possibly loose) valid QoS range.
fn qos_range_strategy() -> impl Strategy<Value = QosRange> {
    (
        0u32..3,  // min resolution rung
        0u32..3,  // extra rungs of ceiling above the floor
        8u8..=24, // min color bits
        5u32..24, // min fps
        0u32..20, // extra fps of ceiling
    )
        .prop_map(|(floor, extra, color, min_fps, extra_fps)| {
            let rungs = [
                Resolution::QCIF,
                Resolution::QVGA,
                Resolution::CIF,
                Resolution::VGA,
                Resolution::FULL,
            ];
            let lo = rungs[floor as usize];
            let hi = rungs[(floor + 1 + extra).min(4) as usize];
            QosRange {
                min_resolution: lo,
                max_resolution: hi,
                min_color: ColorDepth::from_bits(color),
                min_frame_rate: FrameRate::from_fps(min_fps as f64),
                max_frame_rate: FrameRate::from_fps((min_fps + 6 + extra_fps) as f64),
                formats: None,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: every plan the generator emits delivers quality inside
    /// the requested range, for arbitrary valid ranges and any video.
    #[test]
    fn generator_soundness(qos in qos_range_strategy(), video in 0u32..15) {
        let tb = testbed();
        let generator = PlanGenerator::new(GeneratorConfig::default());
        let request = PlanRequest { video: VideoId(video), qos, security: QopSecurity::Open };
        for plan in generator.generate(&tb.engine, &request) {
            prop_assert!(request.qos.accepts(&plan.delivered),
                "plan {} delivers {} outside {}", plan, plan.delivered, request.qos);
            prop_assert!(quasaq::core::satisfies_ordered_disjoint_sets(&plan));
        }
    }

    /// Completeness floor: whenever some stored replica directly satisfies
    /// the range, the generator proposes at least one plan.
    #[test]
    fn generator_completeness(qos in qos_range_strategy(), video in 0u32..15) {
        let tb = testbed();
        let satisfiable = tb
            .engine
            .replicas(VideoId(video))
            .iter()
            .any(|r| qos.accepts(&r.object.spec));
        let generator = PlanGenerator::new(GeneratorConfig::default());
        let request = PlanRequest { video: VideoId(video), qos, security: QopSecurity::Open };
        let plans = generator.generate(&tb.engine, &request);
        if satisfiable {
            prop_assert!(!plans.is_empty());
        }
    }

    /// LRB picks the minimum projected max-fill plan (its defining
    /// property, Eq. 1).
    #[test]
    fn lrb_picks_the_min_max_fill(qos in qos_range_strategy(), video in 0u32..15, seed in any::<u64>()) {
        let tb = testbed();
        let mut manager = tb.quality_manager(CostKind::Lrb);
        let mut rng = Rng::new(seed);
        // Preload some random sessions to create a non-trivial state.
        let profile = UserProfile::new("p");
        for i in 0..10 {
            let qop = quasaq::workload::random_qop(&mut rng);
            let req = PlanRequest {
                video: VideoId(i % 15),
                qos: profile.translate(&qop),
                security: QopSecurity::Open,
            };
            let _ = manager.process(&tb.engine, &req, &mut rng);
        }
        let generator = PlanGenerator::new(GeneratorConfig::default());
        let request = PlanRequest { video: VideoId(video), qos, security: QopSecurity::Open };
        let plans = generator.generate(&tb.engine, &request);
        prop_assume!(!plans.is_empty());
        let order = LrbModel.rank(&plans, manager.api(), &mut rng);
        let cost = |i: usize| manager.api().max_fill_with(&plans[i].resources);
        let best = cost(order[0]);
        for &i in &order {
            prop_assert!(cost(i) >= best - 1e-12);
        }
    }

    /// Admission never overflows a bucket, under any request mix.
    #[test]
    fn admission_never_overflows(seed in any::<u64>(), n in 1usize..120) {
        let tb = testbed();
        let mut manager = tb.quality_manager(CostKind::Random);
        let profile = UserProfile::new("p");
        let mut rng = Rng::new(seed);
        for i in 0..n {
            let qop = quasaq::workload::random_qop(&mut rng);
            let req = PlanRequest {
                video: VideoId((i % 15) as u32),
                qos: profile.translate(&qop),
                security: QopSecurity::Open,
            };
            let _ = manager.process(&tb.engine, &req, &mut rng);
            for key in manager.api().buckets().collect::<Vec<_>>() {
                prop_assert!(manager.api().fill(key).unwrap() <= 1.0 + 1e-9);
            }
        }
    }

    /// Degrade options always produce valid, weaker-or-equal ranges.
    #[test]
    fn degrade_options_weaken_monotonically(
        qos in qos_range_strategy(),
        wr in 0.1f64..5.0,
        wf in 0.1f64..5.0,
        wc in 0.1f64..5.0,
    ) {
        let profile = UserProfile::with_weights(
            "p",
            quasaq::core::QosWeights { resolution: wr, frame_rate: wf, color: wc },
        );
        for alt in profile.degrade_options(&qos) {
            prop_assert!(alt.is_valid());
            // Floors only move down.
            prop_assert!(qos.min_resolution.covers(alt.min_resolution));
            prop_assert!(alt.min_color <= qos.min_color);
            prop_assert!(alt.min_frame_rate <= qos.min_frame_rate);
            // Anything acceptable before stays acceptable after.
            // (Ceilings are untouched, floors only drop.)
            prop_assert_eq!(alt.max_resolution, qos.max_resolution);
        }
    }

    /// One step down the second-chance ladder is the first degrade option,
    /// at every rung down to the bottom. Weights come from a small set so
    /// that ties between dimensions come up.
    #[test]
    fn degrade_step_is_the_first_degrade_option(
        qos in qos_range_strategy(),
        weights in (0u32..3, 0u32..3, 0u32..3),
    ) {
        let w = |i: u32| [0.5, 1.0, 2.0][i as usize];
        let profile = UserProfile::with_weights(
            "p",
            quasaq::core::QosWeights {
                resolution: w(weights.0),
                frame_rate: w(weights.1),
                color: w(weights.2),
            },
        );
        let mut rung = Some(qos);
        while let Some(range) = rung {
            let step = profile.degrade_step(&range);
            prop_assert_eq!(&step, &profile.degrade_options(&range).into_iter().next());
            rung = step;
        }
    }
}
