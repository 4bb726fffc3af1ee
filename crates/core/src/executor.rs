//! The Plan Executor: turning an admitted plan into a running session.
//!
//! "The Plan Executor is in charge of actually running the chosen plan.
//! It basically performs actual presentation, synchronization as well as
//! runtime maintenance of underlying QoS parameters." Here that means
//! compiling an [`AdmittedPlan`] into the streaming substrate's session
//! configuration: materialize the replica's frame trace, apply the plan's
//! transforms, and size the CPU/link reservations from the plan's
//! resource vector.

use crate::manager::AdmittedPlan;
use crate::plan::Plan;
use quasaq_media::{DeliveryCostModel, FrameTrace, TraceParams, VideoMeta};
use quasaq_qosapi::{ResourceKey, ResourceKind};
use quasaq_sim::SimDuration;
use quasaq_stream::{CpuPolicy, DispatchConfig, FrameSchedule, SessionConfig, Transforms};

/// Compiles plans into streaming sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanExecutor {
    /// Delivery cost model (must match the planner's).
    pub cost: DeliveryCostModel,
    /// Frame dispatch behaviour.
    pub dispatch: DispatchConfig,
}

impl PlanExecutor {
    /// Materializes the stored replica's frame trace for `plan`.
    pub fn trace(&self, plan: &Plan, meta: &VideoMeta) -> FrameTrace {
        let obj = &plan.object.object;
        let params = TraceParams::with_bitrate(
            obj.spec.frame_rate,
            meta.duration,
            meta.gop.clone(),
            obj.rate_bps as f64,
        );
        FrameTrace::generate(obj.trace_seed, &params)
    }

    /// The plan's transform pipeline.
    pub fn transforms(&self, plan: &Plan) -> Transforms {
        Transforms { transcode: plan.transcode, drop: plan.drop, cipher: plan.cipher }
    }

    /// Resolves the plan's delivery schedule.
    pub fn schedule(&self, plan: &Plan, meta: &VideoMeta) -> FrameSchedule {
        let trace = self.trace(plan, meta);
        FrameSchedule::build(&trace, &self.transforms(plan), &self.cost, &self.dispatch)
    }

    /// Builds the frame-level session configuration for an admitted plan,
    /// with CPU and link reservations sized from the plan's resource
    /// vector.
    pub fn session_config(&self, admitted: &AdmittedPlan, meta: &VideoMeta) -> SessionConfig {
        let plan = &admitted.plan;
        let schedule = self.schedule(plan, meta);
        let cpu_share = plan.resources.get(ResourceKey::new(plan.target_server, ResourceKind::Cpu));
        // Budget pools over one GOP so decode-order bursts (an anchor plus
        // its B frames arriving together) are not throttled mid-burst.
        let period = (plan.delivered.frame_rate.frame_interval()
            * schedule.gop_len().max(1) as u64)
            .max(SimDuration::from_millis(1));
        let net =
            plan.resources.get(ResourceKey::new(plan.target_server, ResourceKind::NetBandwidth));
        SessionConfig {
            server: plan.target_server,
            schedule,
            cpu: CpuPolicy::Reserved { share: cpu_share.min(1.0), period },
            // Modest headroom over the mean rate so VBR peaks drain.
            link_rate_bps: Some((net * 1.25).ceil() as u64),
        }
    }

    /// Fluid-session parameters (total bytes, pacing rate) for
    /// throughput-scale experiments.
    pub fn fluid_params(&self, plan: &Plan, meta: &VideoMeta) -> (u64, u64) {
        let bytes = (plan.delivered_bps * meta.duration.as_secs_f64()).round() as u64;
        (bytes.max(1), (plan.delivered_bps.ceil() as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LrbModel;
    use crate::generator::{GeneratorConfig, PlanGenerator, PlanRequest};
    use crate::manager::QualityManager;
    use crate::qop::{QopRequest, QopSecurity, UserProfile};
    use quasaq_media::{Library, LibraryConfig, VideoId};
    use quasaq_qosapi::CompositeQosApi;
    use quasaq_sim::{Rng, ServerId, SimTime};
    use quasaq_store::{MetadataEngine, ObjectStore, Placement, QosSampler, ReplicationPlanner};
    use quasaq_stream::{NodeConfig, StreamEngine};
    use std::collections::BTreeMap;

    fn setup() -> (MetadataEngine, QualityManager, Library) {
        let lib = Library::generate(42, &LibraryConfig::default());
        let mut stores = BTreeMap::new();
        for s in ServerId::first_n(3) {
            stores.insert(s, ObjectStore::new(s, 1 << 40));
        }
        let mut engine = MetadataEngine::new(ServerId::first_n(3));
        ReplicationPlanner::new(QosSampler::default(), Placement::Full)
            .replicate(&lib, &mut stores, &mut engine)
            .unwrap();
        let manager = QualityManager::new(
            CompositeQosApi::homogeneous_cluster(
                ServerId::first_n(3),
                3_200_000.0,
                20_000_000.0,
                512e6,
            ),
            PlanGenerator::new(GeneratorConfig::default()),
            Box::new(LrbModel),
        );
        (engine, manager, lib)
    }

    #[test]
    fn end_to_end_admit_execute_stream() {
        let (engine, mut manager, lib) = setup();
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(1);
        // Pick a short video so the test streams it fully.
        let short = lib.entries().iter().min_by_key(|e| e.meta.duration).unwrap().meta.clone();
        let req = PlanRequest {
            video: short.id,
            qos: profile.translate(&QopRequest::organizational()),
            security: QopSecurity::Open,
        };
        let admitted = manager.process(&engine, &req, &mut rng).unwrap();
        let executor = PlanExecutor::default();
        let cfg = executor.session_config(&admitted, &short);
        let mut stream =
            StreamEngine::new(ServerId::first_n(3).map(|s| (s, NodeConfig::qos(3_200_000))));
        let sid = stream.add_session(SimTime::ZERO, cfg).unwrap();
        assert!(stream.run_to_completion(SimTime::from_secs(3600)));
        let report = stream.report(sid);
        assert!(report.is_complete());
        // The delivered stream is timely: mean inter-frame delay near the
        // delivered frame interval.
        let mean = report.frame_delay_stats().mean();
        let ideal = 1000.0 / admitted.plan.delivered.frame_rate.fps();
        assert!((mean - ideal).abs() / ideal < 0.1, "mean {mean} vs ideal {ideal}");
        manager.release(&admitted);
    }

    #[test]
    fn schedule_respects_plan_transforms() {
        let (engine, mut manager, lib) = setup();
        let profile = UserProfile::new("u");
        let mut rng = Rng::new(2);
        let meta = lib.entries()[0].meta.clone();
        let mut req = PlanRequest {
            video: VideoId(0),
            qos: profile.translate(&QopRequest::organizational()),
            security: QopSecurity::Standard,
        };
        req.qos.min_frame_rate = quasaq_media::FrameRate::from_fps(5.0);
        let admitted = manager.process(&engine, &req, &mut rng).unwrap();
        let executor = PlanExecutor::default();
        let schedule = executor.schedule(&admitted.plan, &meta);
        assert!(!schedule.is_empty());
        // Encryption was required, so the plan's cipher is set and the
        // schedule's CPU share includes it.
        assert!(admitted.plan.cipher.is_encrypting());
        let (bytes, rate) = executor.fluid_params(&admitted.plan, &meta);
        assert!(bytes > 0);
        assert!(rate > 0);
        manager.release(&admitted);
    }
}
