//! Control-plane robustness on the fig6 testbed: an admit a client can
//! send comes back as a decision, never a panic.

use quasaq_core::Rejection;
use quasaq_media::{ColorDepth, FrameRate, QosRange, Resolution, VideoId};
use quasaq_service::{Command, ControlPlane, Effect, PlaneConfig, QopClass, RejectReason};
use quasaq_sim::SimTime;
use quasaq_vdbms::QueuedQuery;
use quasaq_workload::{build_core, CostKind, SystemKind, Testbed, ThroughputConfig};

fn query(min_millifps: u32, max_millifps: u32) -> QueuedQuery {
    QueuedQuery {
        video: VideoId(0),
        qos: QosRange {
            min_resolution: Resolution::QCIF,
            max_resolution: Resolution::FULL,
            min_color: ColorDepth::PALETTE,
            min_frame_rate: FrameRate::from_millifps(min_millifps),
            max_frame_rate: FrameRate::from_millifps(max_millifps),
            formats: None,
        },
    }
}

/// A range with a 0 fps floor used to let the transcoder aim at 0 fps and
/// panic in `FrameRate::from_fps`. Plan generation skips frameless
/// deliveries: 0..30 fps still admits through deliveries that keep frames,
/// and 0..0 has no plan at all, so QuaSAQ rejects it with a typed reason.
#[test]
fn zero_frame_rate_admits_are_decided() {
    let cfg = ThroughputConfig::fig6();
    let testbed = Testbed::shared(cfg.testbed.clone());
    for system in [
        SystemKind::Quasaq(CostKind::Lrb),
        SystemKind::Quasaq(CostKind::Random),
        SystemKind::VdbmsQosApi,
        SystemKind::Vdbms,
    ] {
        let mut plane = ControlPlane::new(
            build_core(&testbed, system, &cfg),
            PlaneConfig { seed: 1, admission: None, adaptation: None, track_ctx: true },
        );
        for (min, max) in [(0, 30_000), (0, 0)] {
            let effects = plane.handle(
                &testbed.engine,
                Command::Admit {
                    query: query(min, max),
                    class: QopClass::Standard,
                    brownout: false,
                    now: SimTime::from_micros(1),
                },
            );
            assert_eq!(effects.len(), 1, "{} {min}..{max}: {effects:?}", system.label());
            // The baselines never look at frame rates and admit both.
            let no_plan = matches!(system, SystemKind::Quasaq(_)) && max == 0;
            match &effects[0] {
                Effect::Rejected {
                    reason: RejectReason::Plan(Rejection::NoFeasiblePlan), ..
                } if no_plan => {}
                Effect::Admitted(_) if !no_plan => {}
                other => panic!("{} {min}..{max}: {other:?}", system.label()),
            }
        }
    }
}
